//! `iscope-exp resume-smoke` — CI gate over checkpoint/restore
//! (DESIGN.md §3g).
//!
//! The acceptance bar from the snapshot work, enforced in release mode
//! on every push:
//!
//! 1. for **all five schemes × three seeds, fault injection on**, a run
//!    paused at half its makespan, serialized, and resumed is
//!    byte-identical to the uninterrupted run — whole `RunReport` via
//!    the serializer and telemetry JSONL bytes;
//! 2. the **streaming** ingestion path (synthetic source pulled behind
//!    the arrival horizon) passes the same pause/resume bar;
//! 3. a **fork** of the snapshot under the unchanged input equals the
//!    plain resume — branching is a superset of resuming, not a
//!    different machine;
//! 4. on a **checkpoint-churn**-shaped run, a snapshot holds the live
//!    set only: at 25% and at 90% of the makespan no job record submits
//!    after the pause and no arrival is queued (jobs not yet submitted
//!    stay in the workload, finished jobs are `null`), and both
//!    snapshots resume byte-identically;
//! 5. under **adaptive re-profiling**, a run paused after a re-scan
//!    rewrote the plan saves its t = 0 safe re-profile interval and
//!    resumes byte-identically from it;
//! 6. a **built plan** (BinEffi's factory bins) paused after a re-scan
//!    replaced a row saves the digest of its t = 0 rows and only the
//!    replaced rows, and resumes byte-identically from them.

use iscope::prelude::*;
use iscope::snapshot::{parse, Val};
use iscope::{
    AuditConfig, FaultInjectionConfig, ReprofileConfig, RunReport, SimDriver, SimInput,
    StreamDriver, TelemetryConfig,
};
use iscope_dcsim::SimTime;
use iscope_workload::{Shaper, SyntheticSource, SyntheticTrace, Workload};

const FLEET: usize = 48;
const JOBS: usize = 160;

fn scenario(scheme: Scheme, seed: u64) -> GreenDatacenterSim {
    GreenDatacenterSim::builder()
        .fleet_size(FLEET)
        .scheme(scheme)
        .synthetic_trace(SyntheticTrace {
            num_jobs: JOBS,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(96),
            FLEET as f64 / 4800.0,
            seed,
        ))
        .seed(seed)
        .audit(AuditConfig::default())
        .telemetry(TelemetryConfig::default())
        .fault_injection(FaultInjectionConfig {
            model: fault_model(),
            ..FaultInjectionConfig::default()
        })
}

/// The fault model of every faulted leg: aggressive enough that timing
/// failures fire.
fn fault_model() -> iscope_pvmodel::FailureModel {
    iscope_pvmodel::FailureModel {
        time_acceleration: 1500.0,
        jitter_v_sd: 0.0002,
        ..iscope_pvmodel::FailureModel::default()
    }
}

fn input(sim: &GreenDatacenterSim) -> SimInput {
    sim.clone().build().into_input()
}

/// Shaped like perfbench's checkpoint-churn, smaller: BinEffi with a
/// materialized workload and telemetry.
fn churn() -> GreenDatacenterSim {
    GreenDatacenterSim::builder()
        .fleet_size(96)
        .scheme(Scheme::BinEffi)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(48),
            96.0 / 4800.0,
            42,
        ))
        .seed(42)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 400,
            max_cpus: 32,
            ..SyntheticTrace::default()
        })
        .telemetry(TelemetryConfig::default())
}

/// Byte length of a snapshot's `jobs` section line.
fn jobs_line_len(snapshot: &str) -> usize {
    let jobs = snapshot
        .lines()
        .find(|l| l.starts_with("{\"section\":\"jobs\""));
    jobs.expect("resume-smoke: snapshot without a jobs section")
        .len()
}

/// Checks that `snapshot` holds only what its run had seen at the pause:
/// no job record (submit is its second field) submits after the header's
/// `now_ms`, and no arrival is queued in the events section.
fn assert_live_set_only(snapshot: &str, label: &str) {
    fn items(v: &Val) -> &[Val] {
        match v {
            Val::Arr(items) => items,
            other => panic!("resume-smoke: expected an array, found {other:?}"),
        }
    }
    fn int(v: &Val) -> i128 {
        match v {
            Val::Int(n) => *n,
            other => panic!("resume-smoke: expected an integer, found {other:?}"),
        }
    }
    let mut now = None;
    for line in snapshot.lines() {
        let line = parse(line).expect("resume-smoke: snapshot line parses");
        let data = line.get("data").expect("resume-smoke: section data");
        let Ok(Val::Str(section)) = line.get("section") else {
            panic!("resume-smoke: a snapshot line without a section name");
        };
        match section.as_str() {
            "header" => now = Some(int(data.get("now_ms").expect("header clock"))),
            "jobs" => {
                let now = now.expect("resume-smoke: the header precedes the jobs");
                for record in items(data).iter().filter(|r| **r != Val::Null) {
                    let submit = int(&items(record)[1]);
                    assert!(
                        submit <= now,
                        "resume-smoke: {label}: a job submitting at {submit} ms is in a \
                         snapshot paused at {now} ms"
                    );
                }
            }
            "events" => {
                for event in items(data) {
                    let kind = &items(&items(event)[1])[0];
                    assert!(
                        *kind != Val::Str("arrival".to_string()),
                        "resume-smoke: {label}: the snapshot queues an arrival"
                    );
                }
            }
            _ => {}
        }
    }
}

/// The data of `snapshot`'s section `name`.
fn section(snapshot: &str, name: &str) -> Val {
    let line = snapshot
        .lines()
        .map(|line| parse(line).expect("resume-smoke: snapshot line parses"))
        .find(|v| matches!(v.get("section"), Ok(Val::Str(s)) if s == name));
    let line = line.unwrap_or_else(|| panic!("resume-smoke: no {name} section"));
    line.get("data")
        .expect("resume-smoke: section data")
        .clone()
}

/// `scenario(scheme, 1)` with faults and the default (adaptive)
/// re-profiling.
fn rescanning(scheme: Scheme) -> GreenDatacenterSim {
    scenario(scheme, 1).fault_injection(FaultInjectionConfig {
        model: fault_model(),
        reprofile: Some(ReprofileConfig::default()),
        ..FaultInjectionConfig::default()
    })
}

/// Pauses `sim` at the first 5-minute mark before `end` whose snapshot
/// satisfies `caught`; returns the mark and the snapshot.
fn first_pause(
    sim: &GreenDatacenterSim,
    end: SimTime,
    caught: impl Fn(&str) -> bool,
    what: &str,
) -> (SimTime, String) {
    let mut paused = SimDriver::new(input(sim));
    let mut pause = SimTime::ZERO;
    loop {
        pause += SimDuration::from_mins(5);
        assert!(pause < end, "resume-smoke: {what} never happened");
        paused.run_until(pause);
        let snapshot = paused.snapshot().expect("capture re-profiling run");
        if caught(&snapshot) {
            return (pause, snapshot);
        }
    }
}

fn assert_bytes_identical(unbroken: &RunReport, resumed: &RunReport, label: &str) {
    assert_eq!(
        format!("{unbroken:?}"),
        format!("{resumed:?}"),
        "resume-smoke: {label}: reports diverge"
    );
    let a_jsonl = iscope::telemetry::render_jsonl(unbroken.telemetry.as_deref().unwrap_or(&[]));
    let b_jsonl = iscope::telemetry::render_jsonl(resumed.telemetry.as_deref().unwrap_or(&[]));
    assert_eq!(
        a_jsonl, b_jsonl,
        "resume-smoke: {label}: telemetry JSONL bytes diverge"
    );
}

/// Runs the gate; panics on any divergence.
pub fn smoke() {
    // 1. Materialized-workload matrix: schemes × seeds, faults on.
    let mut total_failures = 0;
    for scheme in Scheme::ALL {
        for seed in [1, 2, 3] {
            let sim = scenario(scheme, seed);
            let (unbroken, _) = SimDriver::new(input(&sim)).finish();
            let mid = SimTime::from_millis(unbroken.makespan.as_millis() / 2);
            let mut paused = SimDriver::new(input(&sim));
            paused.run_until(mid);
            let snapshot = paused.snapshot().expect("capture mid-run");
            drop(paused);
            let (resumed, _) = SimDriver::resume(input(&sim), &snapshot)
                .expect("restore snapshot")
                .finish();
            assert_bytes_identical(&unbroken, &resumed, &format!("{scheme:?} seed {seed}"));
            total_failures += unbroken
                .faults
                .as_ref()
                .expect("fault stats present")
                .timing_failures;
            // 3. Fork under the unchanged input must equal the resume.
            if scheme == Scheme::ScanFair && seed == 1 {
                let (forked, _) = SimDriver::fork(input(&sim), &snapshot)
                    .expect("fork snapshot")
                    .finish();
                assert_bytes_identical(&resumed, &forked, "fork-control vs resume");
            }
            println!(
                "resume-smoke {scheme:<9} seed {seed}: ok ({} snapshot bytes)",
                snapshot.len()
            );
        }
    }
    assert!(
        total_failures > 0,
        "resume-smoke: fault legs never exercised a failure"
    );

    // 2. Streaming leg: jobs pulled from the source, pause mid-stream.
    let stream_parts = |seed: u64| {
        let sim = GreenDatacenterSim::builder()
            .fleet_size(FLEET)
            .scheme(Scheme::ScanFair)
            .workload(Workload::new(vec![]))
            .supply(Supply::hybrid_farm(
                &WindFarm::default(),
                SimDuration::from_hours(96),
                FLEET as f64 / 4800.0,
                seed,
            ))
            .seed(seed)
            .audit(AuditConfig::default())
            .telemetry(TelemetryConfig::default());
        let source = SyntheticSource::new(
            SyntheticTrace {
                num_jobs: 300,
                max_cpus: 16,
                ..SyntheticTrace::default()
            },
            Shaper::default(),
            seed,
        );
        (input(&sim), source)
    };
    let (in_a, src_a) = stream_parts(2);
    let (unbroken, _, stream) = StreamDriver::new(in_a, src_a)
        .run()
        .expect("uninterrupted streaming run");
    assert_eq!(stream.emitted, 300, "resume-smoke: streamed job count");
    let mid = SimTime::from_millis(unbroken.makespan.as_millis() / 2);
    let (in_b, src_b) = stream_parts(2);
    let mut paused = StreamDriver::new(in_b, src_b);
    paused.run_until(mid).expect("stream to midpoint");
    let snapshot = paused.snapshot().expect("capture streaming run");
    drop(paused);
    let (in_c, src_c) = stream_parts(2);
    let (resumed, _, _) = StreamDriver::resume(in_c, src_c, &snapshot)
        .expect("restore streaming snapshot")
        .run()
        .expect("resumed streaming run");
    assert_bytes_identical(&unbroken, &resumed, "streaming");

    // 4. A snapshot holds the live set, not the run's history or future.
    let sim = churn();
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    let mut lens = Vec::new();
    for pct in [25, 90] {
        let at = SimTime::from_millis(unbroken.makespan.as_millis() * pct / 100);
        let mut paused = SimDriver::new(input(&sim));
        paused.run_until(at);
        let snapshot = paused.snapshot().expect("capture churn run");
        drop(paused);
        assert_live_set_only(&snapshot, &format!("churn at {pct}%"));
        let (resumed, _) = SimDriver::resume(input(&sim), &snapshot)
            .expect("restore churn snapshot")
            .finish();
        assert_bytes_identical(&unbroken, &resumed, &format!("churn at {pct}%"));
        lens.push(jobs_line_len(&snapshot));
        println!(
            "resume-smoke churn at {pct:>2}% of the makespan: ok ({} snapshot bytes, \
             jobs section {} bytes)",
            snapshot.len(),
            lens[lens.len() - 1]
        );
    }

    // 5. Adaptive re-profiling: pause at the first 5-minute mark after a
    // re-scan rewrote the plan; the snapshot carries the cadence's safe
    // interval, so the resume needs no fleet scan.
    let sim = rescanning(Scheme::ScanFair);
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    let t0 = SimDriver::new(input(&sim)).snapshot();
    let initial = section(&t0.expect("capture at t = 0"), "plan");
    let rewritten = |snapshot: &str| section(snapshot, "plan") != initial;
    let (pause, snapshot) = first_pause(&sim, unbroken.makespan, rewritten, "a plan re-scan");
    let safe = section(&snapshot, "faults")
        .get("safe_reprofile_hours")
        .cloned();
    assert!(
        matches!(safe, Ok(Val::Float(h)) if h > 0.0),
        "resume-smoke: the adaptive snapshot saved no safe re-profile interval: {safe:?}"
    );
    let (resumed, _) = SimDriver::resume(input(&sim), &snapshot)
        .expect("restore re-profiling snapshot")
        .finish();
    assert_bytes_identical(&unbroken, &resumed, "adaptive re-profiling");
    println!(
        "resume-smoke adaptive re-profiling, plan rewritten at {:.2} h: ok ({} snapshot bytes)",
        pause.as_hours_f64(),
        snapshot.len()
    );

    // 6. A built plan: pause at the first 5-minute mark after a re-scan
    // replaced one of the factory-bin rows; the snapshot saves the digest
    // of the t = 0 rows and only the replaced ones.
    let sim = rescanning(Scheme::BinEffi);
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    let replaced = |snapshot: &str| match section(snapshot, "plan").get("replaced") {
        Ok(Val::Arr(chips)) => chips.len(),
        other => panic!("resume-smoke: a built plan saved without its replaced chips: {other:?}"),
    };
    let refreshed = |snapshot: &str| replaced(snapshot) > 0;
    let (pause, snapshot) = first_pause(&sim, unbroken.makespan, refreshed, "a bin-row re-scan");
    let (resumed, _) = SimDriver::resume(input(&sim), &snapshot)
        .expect("restore built-plan snapshot")
        .finish();
    assert_bytes_identical(&unbroken, &resumed, "built plan");
    println!(
        "resume-smoke built plan, {} of {FLEET} rows replaced at {:.2} h: ok ({} snapshot bytes)",
        replaced(&snapshot),
        pause.as_hours_f64(),
        snapshot.len()
    );

    println!(
        "resume-smoke OK: {} schemes x 3 seeds byte-identical across a mid-run \
         restore (faults on, {total_failures} timing failures exercised); \
         streaming pause/resume identical; fork-control equals resume; peak \
         buffered arrivals in the streaming leg: {}; churn snapshots hold the \
         live set only, jobs section {} -> {} bytes from 25% to 90% of the makespan; \
         an adaptive re-profiling run resumes from its saved safe interval; a \
         built plan resumes from its digest and replaced rows",
        Scheme::ALL.len(),
        stream.peak_buffered,
        lens[0],
        lens[1]
    );
}
