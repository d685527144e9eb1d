//! The checkpoint/restore bit-identity lock: a run paused mid-flight,
//! serialized to a snapshot document, and resumed in a fresh process
//! image must be byte-identical — report and telemetry JSONL — to the
//! run that never stopped, across all five schemes, with fault injection
//! on, across seeds, and for both pre-admitted and streaming ingestion.
//!
//! Why this must hold: the snapshot serializes every mutable field
//! (including all three RNG streams mid-sequence and the pending event
//! list in (time, seq) order), restore re-primes the events in that
//! order so equal-time ties replay identically, and every derived cache
//! is rebuilt by integer arithmetic from the restored ground truth. Any
//! drift in that chain shows up here as a byte difference.

use iscope::prelude::*;
use iscope::snapshot::{parse, Val};
use iscope::telemetry::render_jsonl;
use iscope::{
    AuditConfig, FaultInjectionConfig, ReprofileConfig, RunReport, SimDriver, SimInput,
    SnapshotError, StreamDriver, TelemetryConfig,
};
use iscope_dcsim::{SimDuration, SimTime};
use iscope_energy::SignalTrace;
use iscope_pvmodel::FailureModel;
use iscope_workload::{JobSource, SyntheticSource, SyntheticTrace, Workload};

/// Non-trivial single-site scenario: hybrid wind (so the DVFS matcher
/// runs), telemetry and a strict audit on, 48 chips / 160 gang jobs.
fn base(scheme: Scheme, seed: u64) -> GreenDatacenterSim {
    let farm = WindFarm::default();
    GreenDatacenterSim::builder()
        .fleet_size(48)
        .scheme(scheme)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 160,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .supply(Supply::hybrid_farm(
            &farm,
            SimDuration::from_hours(96),
            1.0,
            7,
        ))
        .seed(seed)
        .audit(AuditConfig::default())
        .telemetry(TelemetryConfig::default())
}

/// An aggressive-enough failure model that faults actually fire
/// (retry/requeue/quarantine paths all cross the snapshot boundary).
fn faults() -> FaultInjectionConfig {
    FaultInjectionConfig {
        model: FailureModel {
            time_acceleration: 1500.0,
            jitter_v_sd: 0.0002,
            ..FailureModel::default()
        },
        ..FaultInjectionConfig::default()
    }
}

fn input(sim: &GreenDatacenterSim) -> SimInput {
    sim.clone().build().into_input()
}

fn hours(h: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_hours(h)
}

/// Field-by-field and whole-report bit-identity. Float equality here is
/// intentional: both runs must execute the same arithmetic in the same
/// order.
fn assert_identical(unbroken: &RunReport, resumed: &RunReport, label: &str) {
    assert_eq!(unbroken.makespan, resumed.makespan, "{label}: makespan");
    assert_eq!(unbroken.ledger, resumed.ledger, "{label}: energy ledger");
    assert_eq!(
        unbroken.deadline_misses, resumed.deadline_misses,
        "{label}: misses"
    );
    assert_eq!(unbroken.usage_hours, resumed.usage_hours, "{label}: usage");
    assert_eq!(unbroken.faults, resumed.faults, "{label}: fault stats");
    assert_eq!(
        unbroken.telemetry, resumed.telemetry,
        "{label}: telemetry records"
    );
    let a_jsonl = render_jsonl(unbroken.telemetry.as_deref().unwrap_or(&[]));
    let b_jsonl = render_jsonl(resumed.telemetry.as_deref().unwrap_or(&[]));
    assert_eq!(a_jsonl, b_jsonl, "{label}: telemetry JSONL bytes");
    // The whole-report `Debug` comparison catches any field the asserts
    // above forgot (audit numbers, power series, profiling); f64 `Debug`
    // output round-trips exactly, so equal text means equal bits.
    assert_eq!(
        format!("{unbroken:?}"),
        format!("{resumed:?}"),
        "{label}: whole reports diverge"
    );
}

/// Runs `sim` uninterrupted, then again with a pause/snapshot/resume at
/// half its makespan, and returns both reports.
fn unbroken_and_resumed(sim: &GreenDatacenterSim) -> (RunReport, RunReport) {
    let (unbroken, _) = SimDriver::new(input(sim)).finish();
    let mid = SimTime::from_millis(unbroken.makespan.as_millis() / 2);
    assert!(mid > SimTime::ZERO, "trivial run cannot exercise resume");
    let mut paused = SimDriver::new(input(sim));
    paused.run_until(mid);
    let snapshot = paused.snapshot().expect("capture mid-run");
    drop(paused);
    let resumed = SimDriver::resume(input(sim), &snapshot).expect("restore");
    let (report, _) = resumed.finish();
    (unbroken, report)
}

#[test]
fn resume_matches_uninterrupted_for_all_schemes() {
    for scheme in Scheme::ALL {
        let (unbroken, resumed) = unbroken_and_resumed(&base(scheme, 42));
        assert_identical(&unbroken, &resumed, &format!("{scheme:?}"));
    }
}

#[test]
fn resume_parity_under_fault_injection_across_seeds() {
    let mut total_failures = 0;
    for seed in [1, 2, 3] {
        let sim = base(Scheme::ScanFair, seed).fault_injection(faults());
        let (unbroken, resumed) = unbroken_and_resumed(&sim);
        total_failures += unbroken
            .faults
            .as_ref()
            .expect("fault stats present")
            .timing_failures;
        assert_identical(&unbroken, &resumed, &format!("ScanFair+faults seed {seed}"));
    }
    assert!(
        total_failures > 0,
        "fault legs must actually exercise failures (got none across seeds)"
    );
}

/// Whether a snapshot's fault section holds a chip under re-scan and a
/// measured row waiting for one to finish.
fn rescan_in_flight(snapshot: &str) -> (bool, bool) {
    let section = snapshot
        .lines()
        .map(|line| parse(line).expect("snapshot line parses"))
        .find(|v| matches!(v.get("section"), Ok(Val::Str(name)) if name == "faults"))
        .expect("snapshot has a faults section");
    let faults = section.get("data").expect("section data");
    let any = |key: &str, hit: fn(&Val) -> bool| matches!(faults.get(key), Ok(Val::Arr(items)) if items.iter().any(hit));
    (
        any("scanning", |v| *v == Val::Bool(true)),
        any("pending_vmin", |v| *v != Val::Null),
    )
}

#[test]
fn resume_parity_with_chips_mid_rescan() {
    let sim = base(Scheme::ScanFair, 42).fault_injection(FaultInjectionConfig {
        reprofile: Some(ReprofileConfig::default()),
        ..faults()
    });
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    // Pause at the first 5-minute mark whose snapshot catches a re-scan
    // in flight, so the resumed leg must finish it from the snapshot.
    let mut paused = SimDriver::new(input(&sim));
    let mut pause = SimTime::ZERO;
    let snapshot = loop {
        pause += SimDuration::from_mins(5);
        assert!(
            pause < unbroken.makespan,
            "no pause caught a chip under re-scan"
        );
        paused.run_until(pause);
        let snapshot = paused.snapshot().expect("capture mid-run");
        if rescan_in_flight(&snapshot) == (true, true) {
            break snapshot;
        }
    };
    let (resumed, _) = SimDriver::resume(input(&sim), &snapshot)
        .expect("restore")
        .finish();
    assert_identical(&unbroken, &resumed, "ScanFair+faults+re-profiling");
}

#[test]
fn double_checkpoint_resume_is_still_identical() {
    // Pause twice — the second snapshot is taken by a driver that was
    // itself restored — and the end state must still match.
    let sim = base(Scheme::ScanEffi, 42).fault_injection(faults());
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    let third = SimTime::from_millis(unbroken.makespan.as_millis() / 3);
    let mut first = SimDriver::new(input(&sim));
    first.run_until(third);
    let snap1 = first.snapshot().expect("first capture");
    let mut second = SimDriver::resume(input(&sim), &snap1).expect("first restore");
    second.run_until(SimTime::from_millis(2 * third.as_millis()));
    let snap2 = second.snapshot().expect("second capture");
    let final_leg = SimDriver::resume(input(&sim), &snap2).expect("second restore");
    let (resumed, _) = final_leg.finish();
    assert_identical(&unbroken, &resumed, "double checkpoint");
}

#[test]
fn fork_with_unchanged_input_equals_resume() {
    let sim = base(Scheme::ScanFair, 42);
    let mut paused = SimDriver::new(input(&sim));
    paused.run_until(hours(12));
    let snapshot = paused.snapshot().expect("capture");
    let (via_resume, _) = SimDriver::resume(input(&sim), &snapshot)
        .expect("resume")
        .finish();
    let (via_fork, _) = SimDriver::fork(input(&sim), &snapshot)
        .expect("fork")
        .finish();
    assert_identical(&via_resume, &via_fork, "fork == resume on same input");
}

#[test]
fn fork_branches_into_a_different_scheme() {
    let sim = base(Scheme::ScanFair, 42);
    let mut paused = SimDriver::new(input(&sim));
    paused.run_until(hours(12));
    let snapshot = paused.snapshot().expect("capture");
    // Plain resume under a different scheme must refuse...
    let err = SimDriver::resume(input(&base(Scheme::BinRan, 42)), &snapshot)
        .err()
        .expect("scheme change must not resume");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    // ...and a different seed likewise.
    let err = SimDriver::resume(input(&base(Scheme::ScanFair, 43)), &snapshot)
        .err()
        .expect("seed change must not resume");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    // Fork is the sanctioned branch: the what-if leg completes every
    // admitted job under the new scheme.
    let (what_if, _) = SimDriver::fork(input(&base(Scheme::BinRan, 42)), &snapshot)
        .expect("fork into BinRan")
        .finish();
    let (control, _) = SimDriver::new(input(&sim)).finish();
    assert_eq!(what_if.jobs, control.jobs, "fork must finish every job");
}

#[test]
fn restore_rejects_structural_mismatches() {
    let sim = base(Scheme::ScanFair, 42);
    let mut paused = SimDriver::new(input(&sim));
    paused.run_until(hours(12));
    let snapshot = paused.snapshot().expect("capture");
    // Different fleet size: rejected even by fork.
    let other = sim.clone().fleet_size(32);
    let err = SimDriver::fork(input(&other), &snapshot)
        .err()
        .expect("fleet mismatch must fail");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    // Instrument mismatch (snapshot has telemetry, input does not).
    let bare = GreenDatacenterSim::builder()
        .fleet_size(48)
        .scheme(Scheme::ScanFair)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 160,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(96),
            1.0,
            7,
        ))
        .seed(42)
        .audit(AuditConfig::default());
    let err = SimDriver::resume(input(&bare), &snapshot)
        .err()
        .expect("instrument mismatch must fail");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
}

#[test]
fn corrupt_snapshots_error_instead_of_wrapping() {
    let sim = base(Scheme::ScanFair, 42);
    let mut paused = SimDriver::new(input(&sim));
    paused.run_until(hours(12));
    let snapshot = paused.snapshot().expect("capture");
    // Truncation: a clean parse/mismatch error, never a panic.
    let truncated = &snapshot[..snapshot.len() / 2];
    assert!(SimDriver::resume(input(&sim), truncated).is_err());
    // Garbage: likewise.
    assert!(SimDriver::resume(input(&sim), "not json at all").is_err());
    // A usage timestamp pushed beyond the packed-key range: the restore
    // path's checked validation (the release-mode promotion of the old
    // debug_assert) must reject it rather than wrap it into another
    // chip's key space.
    let beyond = (1u64 << 41).to_string();
    let tampered: String = snapshot
        .lines()
        .map(|line| {
            if line.contains("\"section\":\"usage\"") {
                let (head, tail) = line.split_once('[').expect("usage array");
                let (_first, rest) = tail.split_once(',').expect("48 usage entries");
                format!("{head}[{beyond},{rest}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let err = SimDriver::resume(input(&sim), &tampered)
        .err()
        .expect("out-of-range usage must fail");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    // The all-zero RNG state (invalid for xoshiro) is rejected too.
    let zeroed = snapshot.replace(
        "\"rng\":{\"words\":[",
        "\"rng\":{\"words\":[0,0,0,0],\"spare\":null,\"x\":[",
    );
    assert!(SimDriver::resume(input(&sim), &zeroed).is_err());
}

/// A diurnal carbon trace plus a time-of-use price trace, wide enough to
/// cross the thresholds below in both directions.
fn carbon_signals() -> (SignalTrace, SignalTrace) {
    let iv = SimDuration::from_mins(30);
    let span = SimDuration::from_hours(96);
    (
        SignalTrace::diurnal(iv, span, 420.0, 180.0, 18.0),
        SignalTrace::time_of_use(iv, span, 0.08, 0.30, 16.0, 21.0),
    )
}

/// A policy that both defers arrivals and suspends running gangs.
fn carbon_policy() -> iscope_sched::CarbonConfig {
    iscope_sched::CarbonConfig {
        defer_intensity_above: Some(450.0),
        suspend_intensity_above: Some(540.0),
        ..iscope_sched::CarbonConfig::default()
    }
}

#[test]
fn carbon_runs_resume_bit_identical() {
    // The carbon path adds state the snapshot must carry: the cost/carbon
    // meters' open segments, the policy counters, the pending
    // CarbonSample/Retry events, and the trace identities.
    let (carbon, price) = carbon_signals();
    // Utility-only: with a wind budget the schemes keep utility draw at
    // zero, which would leave nothing for the meters to book.
    let sim = base(Scheme::ScanFair, 42)
        .supply(
            Supply::utility_only()
                .with_carbon(carbon)
                .with_utility_price(price),
        )
        .carbon(carbon_policy());
    let (unbroken, resumed) = unbroken_and_resumed(&sim);
    let stats = unbroken.carbon.expect("carbon stats present");
    assert!(
        stats.deferrals > 0 || stats.suspensions > 0,
        "carbon leg must actually exercise the policy"
    );
    assert!(unbroken.costs.gco2 > 0.0, "emissions must be booked");
    assert_identical(&unbroken, &resumed, "ScanFair+carbon");
}

#[test]
fn restore_rejects_carbon_mismatches() {
    let (carbon, price) = carbon_signals();
    let supply = Supply::hybrid_farm(&WindFarm::default(), SimDuration::from_hours(96), 1.0, 7)
        .with_carbon(carbon.clone())
        .with_utility_price(price);
    let sim = base(Scheme::ScanFair, 42)
        .supply(supply.clone())
        .carbon(carbon_policy());
    let mut paused = SimDriver::new(input(&sim));
    paused.run_until(hours(12));
    let snapshot = paused.snapshot().expect("capture");
    // Dropping the policy: the snapshot carries carbon state the input
    // would never consume.
    let err = SimDriver::resume(input(&base(Scheme::ScanFair, 42).supply(supply)), &snapshot)
        .err()
        .expect("policy mismatch must fail");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    // Swapping the price trace for a different one: same shape, different
    // values — the fingerprint must catch it.
    let other_price = SignalTrace::time_of_use(
        SimDuration::from_mins(30),
        SimDuration::from_hours(96),
        0.09,
        0.30,
        16.0,
        21.0,
    );
    let swapped = base(Scheme::ScanFair, 42)
        .supply(
            Supply::hybrid_farm(&WindFarm::default(), SimDuration::from_hours(96), 1.0, 7)
                .with_carbon(carbon)
                .with_utility_price(other_price),
        )
        .carbon(carbon_policy());
    let err = SimDriver::resume(input(&swapped), &snapshot)
        .err()
        .expect("trace swap must fail");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    // Dropping the carbon trace entirely: presence flag mismatch.
    let traceless = base(Scheme::ScanFair, 42)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(96),
            1.0,
            7,
        ))
        .carbon(carbon_policy());
    let err = SimDriver::resume(input(&traceless), &snapshot)
        .err()
        .expect("trace removal must fail");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
}

/// Streaming scenario: empty input workload, jobs pulled from a
/// deterministic synthetic source.
fn stream_parts(seed: u64, with_faults: bool) -> (SimInput, SyntheticSource) {
    let cfg = SyntheticTrace {
        num_jobs: 300,
        max_cpus: 16,
        ..SyntheticTrace::default()
    };
    let farm = WindFarm::default();
    let mut sim = GreenDatacenterSim::builder()
        .fleet_size(48)
        .scheme(Scheme::ScanFair)
        .workload(Workload::new(vec![]))
        .supply(Supply::hybrid_farm(
            &farm,
            SimDuration::from_hours(96),
            1.0,
            7,
        ))
        .seed(seed)
        .audit(AuditConfig::default())
        .telemetry(TelemetryConfig::default());
    if with_faults {
        sim = sim.fault_injection(faults());
    }
    let source = SyntheticSource::new(cfg, iscope_workload::Shaper::default(), seed);
    (input(&sim), source)
}

#[test]
fn streaming_resume_matches_uninterrupted_streaming() {
    for seed in [1, 2, 3] {
        let (input_a, source_a) = stream_parts(seed, true);
        let (unbroken, _, stream) = StreamDriver::new(input_a, source_a)
            .run()
            .expect("uninterrupted streaming run");
        assert_eq!(stream.emitted, 300, "all jobs must stream through");
        let mid = SimTime::from_millis(unbroken.makespan.as_millis() / 2);
        let (input_b, source_b) = stream_parts(seed, true);
        let mut paused = StreamDriver::new(input_b, source_b);
        paused.run_until(mid).expect("stream to midpoint");
        let snapshot = paused.snapshot().expect("capture streaming run");
        drop(paused);
        let (input_c, source_c) = stream_parts(seed, true);
        let resumed = StreamDriver::resume(input_c, source_c, &snapshot).expect("restore");
        let (report, _, stream_resumed) = resumed.run().expect("resumed streaming run");
        assert_eq!(stream_resumed.emitted, 300);
        assert_identical(&unbroken, &report, &format!("streaming seed {seed}"));
    }
}

#[test]
fn streaming_matches_preadmitted_on_the_same_jobs() {
    // Fault-free: the fault machinery sizes its availability floor to
    // the gang clamp under streaming but to the workload's actual widest
    // job when pre-admitted, so exact parity is a fault-free property.
    let (stream_input, source) = stream_parts(7, false);
    let (streamed, _, stream) = StreamDriver::new(stream_input, source)
        .run()
        .expect("streaming run");
    assert_eq!(stream.emitted, 300);
    // Materialize the identical job sequence and pre-admit it.
    let (_, mut probe) = stream_parts(7, false);
    let mut jobs = Vec::new();
    while let Some(j) = probe.next_job().expect("drain probe source") {
        jobs.push(j);
    }
    let farm = WindFarm::default();
    let preadmitted = GreenDatacenterSim::builder()
        .fleet_size(48)
        .scheme(Scheme::ScanFair)
        .workload(Workload::new(jobs))
        .supply(Supply::hybrid_farm(
            &farm,
            SimDuration::from_hours(96),
            1.0,
            7,
        ))
        .seed(7)
        .audit(AuditConfig::default())
        .telemetry(TelemetryConfig::default())
        .build()
        .run();
    assert_identical(&preadmitted, &streamed, "streaming vs preadmitted");
}

/// 64-bit FNV-1a: a stable, dependency-free fingerprint of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden snapshot bytes: a fixed-seed run with every optional v1 section
/// populated (faults and wear, strict audit, telemetry, power samplers,
/// a carbon policy, price and carbon traces, a battery), paused mid-run
/// with gangs running, arrivals deferred and timing failures booked.
/// Resume parity alone cannot see a change to the document itself, so
/// this pins its exact bytes; any schema or encoding change must bump
/// `SNAPSHOT_VERSION` and re-record these constants deliberately.
#[test]
fn snapshot_bytes_are_pinned() {
    let (carbon, price) = carbon_signals();
    let sim = base(Scheme::ScanFair, 42)
        .fleet_size(24)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 60,
            max_cpus: 8,
            ..SyntheticTrace::default()
        })
        .supply(
            Supply::hybrid_farm(&WindFarm::default(), SimDuration::from_hours(96), 1.0, 7)
                .with_carbon(carbon)
                .with_utility_price(price)
                .with_battery(iscope_energy::battery::Battery::sized_for(2_000.0, 2.0)),
        )
        .carbon(carbon_policy())
        .fault_injection(FaultInjectionConfig {
            model: FailureModel {
                time_acceleration: 5000.0,
                ..faults().model
            },
            ..faults()
        })
        .trace_interval(SimDuration::from_mins(15));
    let mut paused = SimDriver::new(input(&sim));
    paused.run_until(hours(14));
    let snapshot = paused.snapshot().expect("capture");
    for line in snapshot.lines() {
        assert!(
            !line.ends_with("\"data\":null}"),
            "every v1 section must be populated: {}",
            &line[..line.len().min(60)]
        );
    }
    assert_eq!(
        (snapshot.len(), fnv1a(snapshot.as_bytes())),
        (37_665, 0x1469_4f96_8093_f76b),
        "snapshot bytes changed"
    );
}
