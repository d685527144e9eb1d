//! The checkpoint/restore bit-identity lock: a run paused mid-flight,
//! serialized to a snapshot document, and resumed in a fresh process
//! image must be byte-identical — report and telemetry JSONL — to the
//! run that never stopped, across all five schemes, with fault injection
//! on, across seeds, and for both a materialized workload and a
//! streaming source.
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
use proptest::prelude::*;

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

/// The data of a snapshot's section `name`.
fn section(snapshot: &str, name: &str) -> Val {
    let line = snapshot
        .lines()
        .map(|line| parse(line).expect("snapshot line parses"))
        .find(|v| matches!(v.get("section"), Ok(Val::Str(s)) if s == name))
        .unwrap_or_else(|| panic!("snapshot has a {name} section"));
    line.get("data").expect("section data").clone()
}

/// Whether a snapshot's fault section holds a chip under re-scan and a
/// measured row waiting for one to finish.
fn rescan_in_flight(snapshot: &str) -> (bool, bool) {
    let faults = section(snapshot, "faults");
    let any = |key: &str, hit: fn(&Val) -> bool| matches!(faults.get(key), Ok(Val::Arr(items)) if items.iter().any(hit));
    (
        any("scanning", |v| *v == Val::Bool(true)),
        any("pending_vmin", |v| *v != Val::Null),
    )
}

/// `scheme` under strict audit with faults and re-profiling.
fn rescanning(scheme: Scheme) -> GreenDatacenterSim {
    base(scheme, 42).fault_injection(FaultInjectionConfig {
        reprofile: Some(ReprofileConfig::default()),
        ..faults()
    })
}

/// The first 5-minute mark at which `sim`'s snapshot satisfies `caught`,
/// and that snapshot.
fn first_snapshot(sim: &GreenDatacenterSim, caught: impl Fn(&str) -> bool) -> (SimTime, String) {
    let mut paused = SimDriver::new(input(sim));
    let mut pause = SimTime::ZERO;
    loop {
        pause += SimDuration::from_mins(5);
        assert!(pause < hours(96), "no pause caught it");
        paused.run_until(pause);
        let snapshot = paused.snapshot().expect("capture mid-run");
        if caught(&snapshot) {
            return (pause, snapshot);
        }
    }
}

/// Pauses `sim` at the first 5-minute mark whose snapshot satisfies
/// `caught`, resumes from that snapshot, and checks the resumed run
/// against the uninterrupted one.
fn resume_parity_at_first(sim: &GreenDatacenterSim, caught: impl Fn(&str) -> bool, label: &str) {
    let (unbroken, _) = SimDriver::new(input(sim)).finish();
    let (pause, snapshot) = first_snapshot(sim, caught);
    assert!(pause < unbroken.makespan, "{label}: caught after the run");
    let (resumed, _) = SimDriver::resume(input(sim), &snapshot)
        .expect("restore")
        .finish();
    assert_identical(&unbroken, &resumed, label);
}

/// The resumed leg must finish a re-scan from the snapshot.
#[test]
fn resume_parity_with_chips_mid_rescan() {
    let in_flight = |snapshot: &str| rescan_in_flight(snapshot) == (true, true);
    let sim = rescanning(Scheme::ScanFair);
    resume_parity_at_first(&sim, in_flight, "ScanFair+faults+re-profiling");
}

/// The resumed leg starts from plan rows a re-scan rewrote, so the
/// restored site must rebuild everything derived from the plan (the
/// ranking, the auditor's true-power table) from the snapshot's rows,
/// not the input's.
#[test]
fn resume_parity_after_a_rescan_rewrote_the_plan() {
    let sim = rescanning(Scheme::ScanFair);
    let initial = section(
        &SimDriver::new(input(&sim)).snapshot().expect("capture"),
        "plan",
    );
    let rewritten = |snapshot: &str| section(snapshot, "plan") != initial;
    resume_parity_at_first(
        &sim,
        rewritten,
        "ScanFair+faults+re-profiling, plan rewritten",
    );
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
    let words = "\"rng\":{\"words\":[";
    let start = snapshot.find(words).expect("site rng") + words.len();
    let end = start + snapshot[start..].find(']').expect("rng words");
    let zeroed = format!("{}0,0,0,0{}", &snapshot[..start], &snapshot[end..]);
    let err = SimDriver::resume(input(&sim), &zeroed)
        .err()
        .expect("all-zero rng must fail");
    assert!(err.to_string().contains("all-zero xoshiro state"), "{err}");
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
fn streaming_matches_materialized_on_the_same_jobs() {
    // Fault-free: the fault machinery sizes its availability floor to
    // the gang clamp under an open source but to the workload's actual
    // widest job when the workload is materialized, so exact parity is a
    // fault-free property.
    let (stream_input, source) = stream_parts(7, false);
    let (streamed, _, stream) = StreamDriver::new(stream_input, source)
        .run()
        .expect("streaming run");
    assert_eq!(stream.emitted, 300);
    // Materialize the identical job sequence and run it as a workload.
    let (_, mut probe) = stream_parts(7, false);
    let mut jobs = Vec::new();
    while let Some(j) = probe.next_job().expect("drain probe source") {
        jobs.push(j);
    }
    let farm = WindFarm::default();
    let materialized = GreenDatacenterSim::builder()
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
    assert_identical(&materialized, &streamed, "streaming vs materialized");
}

/// 64-bit FNV-1a: a stable, dependency-free fingerprint of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fixed-seed run with every optional section populated (faults and
/// wear, strict audit, telemetry, power samplers, a carbon policy, price
/// and carbon traces, a battery); paused at 14 h it has gangs running,
/// jobs finished, arrivals deferred and timing failures booked.
fn every_section_sim() -> GreenDatacenterSim {
    let (carbon, price) = carbon_signals();
    base(Scheme::ScanFair, 42)
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
        .trace_interval(SimDuration::from_mins(15))
}

/// The snapshot of [`every_section_sim`] paused at 14 h.
fn every_section_snapshot() -> String {
    let mut paused = SimDriver::new(input(&every_section_sim()));
    paused.run_until(hours(14));
    paused.snapshot().expect("capture")
}

/// Golden snapshot bytes of [`every_section_sim`] paused mid-run.
/// Resume parity alone cannot see a change to the document itself, so
/// this pins its exact bytes; any change to what the document holds must
/// re-record these constants deliberately, and a schema or encoding
/// change must also bump `SNAPSHOT_VERSION`.
#[test]
fn snapshot_bytes_are_pinned() {
    let snapshot = every_section_snapshot();
    for line in snapshot.lines() {
        assert!(
            !line.ends_with("\"data\":null}"),
            "every section must be populated: {}",
            &line[..line.len().min(60)]
        );
    }
    assert!(
        jobs_line(&snapshot).contains("null,"),
        "no job has finished"
    );
    assert_eq!(
        (snapshot.len(), fnv1a(snapshot.as_bytes())),
        (29_423, 0x0dce_131f_c25b_5817),
        "snapshot bytes changed"
    );
}

/// The version-4 capture of [`every_section_sim`] at 14 h while the
/// driver still queued every job of a materialized workload as an
/// `Arrival` event at t = 0, so the document held the jobs not yet
/// submitted too.
const QUEUED_ARRIVALS_PIN: (usize, u64) = (32_917, 0xd4bd_afc8_ed42_8f18);

/// The `jobs` line of a snapshot document.
fn jobs_line(doc: &str) -> &str {
    let jobs = doc.lines().find(|l| l.starts_with("{\"section\":\"jobs\""));
    jobs.expect("a jobs section")
}

/// [`every_section_snapshot`] as the version-1 format wrote it, which
/// kept a full `"done"` record for every finished job.
const V1_EVERY_SECTION: &str = include_str!("data/snapshot_v1_every_section.jsonl");

/// A version-1 document still resumes: its finished jobs' records are
/// checked and their slots retired, the run continues byte-identically,
/// and a capture right after the resume is the document the same instant
/// gave while every job was queued as an arrival
/// ([`QUEUED_ARRIVALS_PIN`]): such documents admitted every job, so the
/// resume takes none from the workload and runs their pending arrivals.
#[test]
fn v1_snapshot_resumes_byte_identically() {
    assert_eq!(
        (V1_EVERY_SECTION.len(), fnv1a(V1_EVERY_SECTION.as_bytes())),
        (37_665, 0x1469_4f96_8093_f76b),
        "the v1 fixture changed"
    );
    let sim = every_section_sim();
    // A finished job's record is checked before its slot is retired.
    let bad_done =
        V1_EVERY_SECTION.replacen("\"high\",[0,1],\"done\"", "\"high\",[0,99],\"done\"", 1);
    let err = SimDriver::resume(input(&sim), &bad_done).err();
    let err = err.expect("a done record with chip 99 must fail");
    assert!(
        err.to_string().contains("job chip 99 out of range"),
        "{err}"
    );
    let resumed = SimDriver::resume(input(&sim), V1_EVERY_SECTION).expect("restore v1");
    let again = resumed.snapshot().expect("re-capture");
    assert_eq!(
        (again.len(), fnv1a(again.as_bytes())),
        QUEUED_ARRIVALS_PIN,
        "a v1 resume re-captures differently from the queued-arrivals document"
    );
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    assert_identical(&unbroken, &resumed.finish().0, "v1 resume");
}

/// [`every_section_snapshot`] as the version-2 format wrote it, whose
/// `faults` section saved no safe re-profile interval.
const V2_EVERY_SECTION: &str = include_str!("data/snapshot_v2_every_section.jsonl");

/// A version-2 document still resumes byte-identically, and a capture
/// right after the resume is today's document of the same instant.
#[test]
fn v2_snapshot_resumes_byte_identically() {
    assert_eq!(
        (V2_EVERY_SECTION.len(), fnv1a(V2_EVERY_SECTION.as_bytes())),
        (29_395, 0x9d57_9270_b750_97a0),
        "the v2 fixture changed"
    );
    let sim = every_section_sim();
    let resumed = SimDriver::resume(input(&sim), V2_EVERY_SECTION).expect("restore v2");
    assert!(
        resumed.snapshot().expect("re-capture") == every_section_snapshot(),
        "a v2 resume re-captures differently from the current document"
    );
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    assert_identical(&unbroken, &resumed.finish().0, "v2 resume");
}

/// [`every_section_snapshot`] as the version-3 format wrote it. Its
/// ScanFair plan is scanned, which every version saves whole, so it
/// differs from today's document only in its `"version"`.
const V3_EVERY_SECTION: &str = include_str!("data/snapshot_v3_every_section.jsonl");

/// A version-3 document still resumes byte-identically, and a capture
/// right after the resume is today's document of the same instant.
#[test]
fn v3_snapshot_resumes_byte_identically() {
    assert_eq!(
        (V3_EVERY_SECTION.len(), fnv1a(V3_EVERY_SECTION.as_bytes())),
        (29_423, 0x1c06_2a20_010d_cb2a),
        "the v3 fixture changed"
    );
    let sim = every_section_sim();
    let resumed = SimDriver::resume(input(&sim), V3_EVERY_SECTION).expect("restore v3");
    assert!(
        resumed.snapshot().expect("re-capture") == every_section_snapshot(),
        "a v3 resume re-captures differently from the current document"
    );
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    assert_identical(&unbroken, &resumed.finish().0, "v3 resume");
}

/// The chips a snapshot's `plan` section lists as replaced; `None` for a
/// plan saved whole.
fn replaced_chips(snapshot: &str) -> Option<Vec<Val>> {
    match section(snapshot, "plan").get("replaced") {
        Ok(Val::Arr(chips)) => Some(chips.clone()),
        _ => None,
    }
}

/// BinEffi under faults and adaptive re-profiling: its factory-bin plan
/// is built up front.
fn built_plan_sim() -> GreenDatacenterSim {
    rescanning(Scheme::BinEffi)
}

/// [`built_plan_sim`] at the first 5-minute mark after a re-scan replaced
/// a row of its plan, and the snapshot of that mark.
fn built_plan_snapshot() -> (SimTime, String) {
    first_snapshot(&built_plan_sim(), |snapshot| {
        replaced_chips(snapshot).is_some_and(|chips| !chips.is_empty())
    })
}

/// The `plan` line of a snapshot document.
fn plan_line(doc: &str) -> &str {
    let plan = doc.lines().find(|l| l.starts_with("{\"section\":\"plan\""));
    plan.expect("a plan section")
}

/// Golden bytes of a document whose plan was built up front: its `plan`
/// line holds the digest of the t = 0 rows and only the rows re-scans
/// replaced, and the document resumes byte-identically.
#[test]
fn built_plan_snapshot_bytes_are_pinned() {
    let sim = built_plan_sim();
    let (pause, doc) = built_plan_snapshot();
    // Read off the version-3 capture of the same instant, which saved every
    // row: two re-scans had completed, and the rows of chips 0 and 1 were
    // the ones that differed from the factory bins.
    assert_eq!(pause, SimTime::from_millis(10_200_000));
    assert_eq!(replaced_chips(&doc), Some(vec![Val::Int(0), Val::Int(1)]));
    assert_eq!(
        section(&doc, "faults").get("chips_rescanned"),
        Ok(&Val::Int(2))
    );
    assert_eq!(
        (doc.len(), fnv1a(doc.as_bytes())),
        (25_305, 0x12dd_c0e6_cf0d_07ec),
        "built-plan snapshot bytes changed"
    );
    assert_round_trip(&sim, &doc, "built plan");
    let (unbroken, _) = SimDriver::new(input(&sim)).finish();
    let (resumed, _) = SimDriver::resume(input(&sim), &doc)
        .expect("restore")
        .finish();
    assert_identical(&unbroken, &resumed, "built plan, rows replaced");
}

/// A version-3 document saved a built plan's every row. Resumed onto the
/// input's built plan, the rows that differ from it count as replaced, so
/// the resume re-captures today's document of the same instant.
#[test]
fn a_v3_built_plan_resumes_into_todays_document() {
    let (_, doc) = built_plan_snapshot();
    // A fork whose input would scan saves the plan it runs on whole.
    let forked = SimDriver::fork(input(&rescanning(Scheme::ScanFair)), &doc).expect("fork");
    let whole = forked.snapshot().expect("capture the fork");
    assert!(plan_line(&whole).contains("{\"voltages\":[["));
    let v3 = doc
        .replacen(plan_line(&doc), plan_line(&whole), 1)
        .replacen("\"version\":4,", "\"version\":3,", 1);
    assert_eq!(
        (v3.len(), fnv1a(v3.as_bytes())),
        (33_906, 0x7d5a_0541_edbe_d456),
        "not the document the version-3 writer captured at this instant"
    );
    let resumed = SimDriver::resume(input(&built_plan_sim()), &v3).expect("restore v3");
    assert!(
        resumed.snapshot().expect("re-capture") == doc,
        "a v3 built-plan resume re-captures differently from the current document"
    );
}

/// A resume checks the saved digest against the input's built plan: a
/// hand-built plan with other rows is refused, not overlaid.
#[test]
fn a_resume_onto_a_different_hand_built_plan_is_a_mismatch() {
    let (_, doc) = built_plan_snapshot();
    let mut other = input(&built_plan_sim());
    other.plan = OperatingPlan::oracle(&other.fleet).into();
    let err = SimDriver::resume(other, &doc).err();
    let err = err.expect("another hand-built plan must not resume");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("snapshot plan digest"), "{err}");
}

/// A fork whose input would scan rebuilds the snapshot scheme's bin plan
/// on its own fleet, which needs no scan, and lays the saved rows over it:
/// the branch runs on the plan the snapshot was taken under.
#[test]
fn a_bin_snapshot_forked_onto_a_scan_scheme_keeps_the_bin_plan() {
    let (_, doc) = built_plan_snapshot();
    let scan = input(&rescanning(Scheme::ScanFair));
    let (forked, _) = SimDriver::fork(scan, &doc).expect("fork").finish();
    let report = format!("{forked:?}");
    // The same fork from the version-3 document of the same instant,
    // which restored every saved row, measured with that format's reader.
    assert_eq!(
        (report.len(), fnv1a(report.as_bytes())),
        (30_124, 0xcfea_5d34_1fbc_9ca8),
        "the forked report changed"
    );
}

/// A fork onto another seed runs on another fleet, whose factory bins are
/// not the snapshot's: a checked error, whether its input builds the bin
/// plan or would scan.
#[test]
fn a_built_plan_fork_onto_another_seed_is_a_mismatch() {
    let (_, doc) = built_plan_snapshot();
    for scheme in [Scheme::BinEffi, Scheme::ScanFair] {
        let other = input(&rescanning(scheme).seed(43));
        let err = SimDriver::fork(other, &doc).err();
        let err = err.unwrap_or_else(|| panic!("a fork onto seed 43 under {scheme:?} must fail"));
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("snapshot plan digest"), "{err}");
    }
}

/// Restore then capture reproduces the document byte for byte: every
/// section reads back into state that writes the same text.
fn assert_round_trip(sim: &GreenDatacenterSim, snapshot: &str, label: &str) {
    let resumed = SimDriver::resume(input(sim), snapshot).expect("restore");
    let again = resumed.snapshot().expect("re-capture");
    assert!(
        again == snapshot,
        "{label}: resume -> snapshot changed the bytes"
    );
}

#[test]
fn resume_then_snapshot_is_byte_identical() {
    assert_round_trip(
        &every_section_sim(),
        &every_section_snapshot(),
        "every section",
    );
    // Shaped like perfbench's checkpoint-churn, smaller: BinEffi with a
    // materialized workload and telemetry, paused mid-run.
    let churn = GreenDatacenterSim::builder()
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
        .telemetry(TelemetryConfig::default());
    let (whole, _) = SimDriver::new(input(&churn)).finish();
    let mut paused = SimDriver::new(input(&churn));
    paused.run_until(SimTime::from_millis(whole.makespan.as_millis() / 2));
    let snapshot = paused.snapshot().expect("capture");
    assert!(snapshot.contains("\"running\",") && jobs_line(&snapshot).contains("null,"));
    assert_round_trip(&churn, &snapshot, "checkpoint-churn shape");
}

/// Numbers a fuzzed snapshot substitutes for a number of the document:
/// past u64, past f64, negative, and not a number at all.
const BAD_NUMBERS: [&str; 4] = ["18446744073709551616", "1e999", "-1", "\"x\""];

/// Byte ranges of the number tokens in `doc` (outside strings).
fn number_spans(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_str) = (0, false);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'-' | b'0'..=b'9' if !in_str => {
                let start = i;
                while i + 1 < bytes.len()
                    && matches!(bytes[i + 1], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                spans.push((start, i + 1));
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Byte ranges in `doc` of the entries of its `jobs` array: a live job's
/// record, or `null` for a finished job.
fn job_entries(doc: &str) -> Vec<(usize, usize)> {
    let line = jobs_line(doc);
    let open = "{\"section\":\"jobs\",\"data\":[";
    let base = line.as_ptr() as usize - doc.as_ptr() as usize + open.len();
    let body = &line[open.len()..line.len() - 2];
    let (mut entries, mut start, mut depth) = (Vec::new(), 0, 0);
    for (i, c) in body.bytes().enumerate() {
        match c {
            b'[' => depth += 1,
            b']' => depth -= 1,
            b',' if depth == 0 => {
                entries.push((base + start, base + i));
                start = i + 1;
            }
            _ => {}
        }
    }
    entries.push((base + start, base + body.len()));
    entries
}

/// One mutation of `doc`, chosen and placed by `kind`, `a` and `b`.
fn mutate(doc: &str, kind: u8, a: u64, b: u64) -> String {
    let bytes = doc.as_bytes();
    match kind {
        // A byte flipped to another value.
        0 => {
            let mut m = bytes.to_vec();
            let at = (a % m.len() as u64) as usize;
            m[at] ^= (b % 255 + 1) as u8;
            String::from_utf8_lossy(&m).into_owned()
        }
        // Truncated at an offset.
        1 => String::from_utf8_lossy(&bytes[..(a % bytes.len() as u64) as usize]).into_owned(),
        // Two lines swapped, or one line written twice.
        2 | 3 => {
            let mut lines: Vec<&str> = doc.lines().collect();
            let (i, j) = (
                (a % lines.len() as u64) as usize,
                (b % lines.len() as u64) as usize,
            );
            if kind == 2 {
                lines.swap(i, j);
            } else {
                lines.insert(j, lines[i]);
            }
            lines.join("\n") + "\n"
        }
        // A live job's record replaced by `null`, or a `null` by the
        // record of a live job.
        5 | 6 => {
            let (nulls, live): (Vec<_>, Vec<_>) = job_entries(doc)
                .into_iter()
                .partition(|&(s, e)| &doc[s..e] == "null");
            let pick = |of: &[(usize, usize)], k: u64| of[(k % of.len() as u64) as usize];
            let ((start, end), with) = if kind == 5 {
                (pick(&live, a), "null")
            } else {
                let (s, e) = pick(&live, b);
                (pick(&nulls, a), &doc[s..e])
            };
            format!("{}{with}{}", &doc[..start], &doc[end..])
        }
        // A number replaced by one the field cannot hold.
        _ => {
            let spans = number_spans(doc);
            let (start, end) = spans[(a % spans.len() as u64) as usize];
            let bad = BAD_NUMBERS[(b % BAD_NUMBERS.len() as u64) as usize];
            format!("{}{bad}{}", &doc[..start], &doc[end..])
        }
    }
}

/// One of five malformed `plan` sections of a built-plan document, chosen
/// by `kind` and placed by `a`: a replaced chip past the fleet, a chip
/// listed twice, a row one level short, a value past f64, or another
/// digest.
fn mutate_plan(doc: &str, kind: u8, a: u64) -> String {
    fn items(v: &mut Val) -> &mut Vec<Val> {
        match v {
            Val::Arr(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }
    // Keys in order: digest, replaced, voltages, est_power.
    let Val::Obj(mut plan) = section(doc, "plan") else {
        panic!("the plan section is an object");
    };
    let chips = items(&mut plan[1].1).len() as u64;
    let (i, key) = ((a % chips) as usize, 2 + (a / chips % 2) as usize);
    let row = items(&mut items(&mut plan[key].1)[i]);
    match kind {
        0 => items(&mut plan[1].1)[i] = Val::Int(48 + (a % 1_000) as i128),
        1 => {
            for (_, list) in &mut plan[1..] {
                let list = items(list);
                list.insert(i, list[i].clone());
            }
        }
        2 => drop(row.pop()),
        3 => {
            let at = (a as usize / 2) % row.len();
            row[at] = Val::Str("past f64".into());
        }
        _ => {
            let Val::Int(digest) = plan[0].1 else {
                panic!("the digest is an integer");
            };
            plan[0].1 = Val::Int(digest ^ (a | 1) as i128);
        }
    }
    let data = iscope::snapshot::render(&Val::Obj(plan), "plan").expect("renders");
    let data = data.replace("\"past f64\"", "1e999");
    let line = format!("{{\"section\":\"plan\",\"data\":{data}}}");
    doc.replacen(plan_line(doc), &line, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// Malformed snapshots are checked errors, never panics: resuming (and
    /// forking) a mutated copy of a document with every section populated
    /// (kinds 0 to 6), or of a document whose plan was built up front
    /// (kinds 7 to 12), returns `Ok` or `Err`. A job record swapped for
    /// `null` or back, and a built plan's malformed `plan` section, are
    /// always an `Err`.
    #[test]
    fn mutated_snapshots_never_panic(kind in 0u8..13, a in any::<u64>(), b in any::<u64>()) {
        type Doc = std::sync::OnceLock<(GreenDatacenterSim, String)>;
        static EVERY: Doc = Doc::new();
        static BUILT: Doc = Doc::new();
        let (sim, doc) = if kind < 7 {
            EVERY.get_or_init(|| (every_section_sim(), every_section_snapshot()))
        } else {
            BUILT.get_or_init(|| (built_plan_sim(), built_plan_snapshot().1))
        };
        let text = match kind {
            0..=6 => mutate(doc, kind, a, b),
            7..=11 => mutate_plan(doc, kind - 7, a),
            _ => mutate(doc, (b % 5) as u8, a, b / 5),
        };
        for fork in [false, true] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let i = input(sim);
                if fork {
                    SimDriver::fork(i, &text).map(drop)
                } else {
                    SimDriver::resume(i, &text).map(drop)
                }
            }));
            let how = if fork { "fork" } else { "resume" };
            prop_assert!(outcome.is_ok(), "{how} panicked on mutation {kind} ({a}, {b})");
            prop_assert!(
                !(5..=11).contains(&kind) || matches!(outcome, Ok(Err(_))),
                "{how} accepted mutation {kind} ({a}, {b})"
            );
        }
    }
}

/// Hand-edited documents that are well-formed JSON but describe a state
/// the run cannot hold: each is a checked error naming the problem.
#[test]
fn hand_edited_snapshots_are_checked_errors() {
    let sim = every_section_sim();
    let doc = every_section_snapshot();
    // Job 29 is running at 14 h; its power row covers the five levels.
    let row = "51843355,[119867569,150221121,186890364,230808964,282910588]";
    let first_plan_row = "\"voltages\":[[0.82640625,0.9374088541666667,\
                          1.0484114583333333,1.1594140625,1.2704166666666667]";
    for (edit, from, to, expect) in [
        (
            "empty plan row",
            first_plan_row,
            "\"voltages\":[[]",
            "chip 0 has 0 levels",
        ),
        (
            "short power row",
            row,
            "51843355,[119867569]",
            "has 1 power levels",
        ),
        (
            "power past i64 sums",
            row,
            "51843355,[119867569,150221121,186890364,230808964,9223372036854775807]",
            "overflows",
        ),
        (
            "CPU-boundness past 1",
            "0.8608304025690655",
            "1.5",
            "outside [0, 1]",
        ),
        (
            "chips not one per CPU",
            "[29,47591663,2,",
            "[29,47591663,3,",
            "holds 2 chips for 3 CPUs",
        ),
        (
            "level counts off",
            "\"running_at_level\",\"data\":[0,0,0,0,2]",
            "\"running_at_level\",\"data\":[0,0,0,0,1]",
            "disagrees with the running jobs' levels",
        ),
        (
            "running job off its queue head",
            "\"queues\",\"data\":[[],[],[],[],[],[],[],[],[],[],[],[],[],[29,",
            "\"queues\",\"data\":[[],[],[],[],[],[],[],[],[],[],[],[],[],[25,29,",
            "does not head the queues of its chips",
        ),
        (
            "finished job in a chip queue",
            "[29,25,15,16]",
            "[29,25,0,16]",
            "a chip queue names job 0, which has finished",
        ),
        (
            "finished job running",
            "\"running\",\"data\":[29,36]",
            "\"running\",\"data\":[29,0]",
            "the running set names job 0, which has finished",
        ),
        (
            "finished job deferred",
            "\"deferred\",\"data\":[30,31,33,34]",
            "\"deferred\",\"data\":[30,31,33,0]",
            "the deferred list names job 0, which has finished",
        ),
        (
            "arrival of a finished job",
            "[50447434,[\"retry\",35]]",
            "[50447434,[\"arrival\",0]],[50447434,[\"retry\",35]]",
            "a pending arrival names job 0, which has finished",
        ),
        (
            "retry of a finished job",
            "[50447434,[\"retry\",35]]",
            "[50447434,[\"retry\",0]]",
            "a pending retry names job 0, which has finished",
        ),
        (
            "finished count off",
            "\"done_count\":25",
            "\"done_count\":24",
            "done_count 24 disagrees with the job table's 25 finished jobs",
        ),
        (
            "event before the clock",
            "[[50447434,[\"retry\",35]]",
            "[[5,[\"retry\",35]]",
            "precedes the snapshot clock",
        ),
        (
            "re-scan end past the fleet",
            "[50447434,[\"retry\",35]]",
            "[50447434,[\"reprofile_done\",4800]]",
            "names chip 4800, but it is outside the fleet",
        ),
        (
            "re-scan end for a chip not under re-scan",
            "[50447434,[\"retry\",35]]",
            "[50447434,[\"reprofile_done\",3]]",
            "names chip 3, but it has no re-scan in flight",
        ),
        (
            "timing failure past the fleet",
            "[\"timing_failure\",29,2,13]",
            "[\"timing_failure\",29,2,99]",
            "names chip 99, but it is outside the fleet",
        ),
        (
            "in-situ scan end",
            "[50447434,[\"retry\",35]]",
            "[50447434,[\"profiling_done\",0]]",
            "names chip 0, but snapshots hold no in-situ scan",
        ),
        (
            "admitted count off",
            "\"admitted\":37",
            "\"admitted\":36",
            "header admitted 36 jobs, the job table has 37",
        ),
        (
            "zero safe re-profile interval",
            "\"safe_reprofile_hours\":null",
            "\"safe_reprofile_hours\":0.0",
            "safe re-profile interval 0 h is not positive",
        ),
        (
            "negative safe re-profile interval",
            "\"safe_reprofile_hours\":null",
            "\"safe_reprofile_hours\":-2.5",
            "safe re-profile interval -2.5 h is not positive",
        ),
        (
            "safe re-profile interval not a number",
            "\"safe_reprofile_hours\":null",
            "\"safe_reprofile_hours\":\"x\"",
            "safe_reprofile_hours: expected float, found string",
        ),
        (
            "safe re-profile interval not a float",
            "\"safe_reprofile_hours\":null",
            "\"safe_reprofile_hours\":7",
            "safe_reprofile_hours: expected float, found int",
        ),
        (
            "safe re-profile interval missing",
            "\"safe_reprofile_hours\":null,",
            "",
            "expected key \"safe_reprofile_hours\", found \"rng\"",
        ),
        (
            "version 2 with a safe re-profile interval",
            "\"version\":4,",
            "\"version\":2,",
            "expected key \"rng\", found \"safe_reprofile_hours\"",
        ),
        (
            "keys out of order",
            "\"expect_more\":true,\"migrated_out\":0",
            "\"migrated_out\":0,\"expect_more\":true",
            "expected key \"expect_more\"",
        ),
        (
            "extra key",
            "\"avail_dirty\":false,",
            "\"avail_dirty\":false,\"note\":1,",
            "expected key \"rng\", found \"note\"",
        ),
    ] {
        assert!(doc.contains(from), "{edit}: the pinned document changed");
        let err = SimDriver::resume(input(&sim), &doc.replacen(from, to, 1))
            .err()
            .unwrap_or_else(|| panic!("{edit} must fail"));
        assert!(err.to_string().contains(expect), "{edit}: {err}");
    }
    // A stale completion may name a finished job: its phase check skips it.
    let stale = doc.replacen(
        "[[50447434,[\"retry\",35]]",
        "[[50447434,[\"completion\",0,9]],[50447434,[\"retry\",35]]",
        1,
    );
    let resumed = SimDriver::resume(input(&sim), &stale).expect("stale completion restores");
    assert_eq!(resumed.finish().0.jobs, 60);
    // A fault-free run has no fault state for a timing failure or a
    // re-scan end to act on.
    let plain = base(Scheme::ScanFair, 42);
    let mut paused = SimDriver::new(input(&plain));
    paused.run_until(hours(14));
    let doc = paused.snapshot().expect("capture");
    let first = doc.find("\"data\":[[").expect("a pending event") + 9;
    let at = &doc[first..first + doc[first..].find(',').unwrap()];
    for event in ["[\"timing_failure\",0,1,0]", "[\"reprofile_done\",0]"] {
        let edited = doc.replacen("\"data\":[[", &format!("\"data\":[[{at},{event}],["), 1);
        let err = SimDriver::resume(input(&plain), &edited)
            .err()
            .unwrap_or_else(|| panic!("{event} must fail"));
        let expect = "names chip 0, but the run has no fault injection";
        assert!(err.to_string().contains(expect), "{event}: {err}");
    }
    // Nor a safe re-profile interval: its header says `has_faults = false`.
    assert!(doc.contains("\"has_faults\":false"));
    let faults = "{\"section\":\"faults\",\"data\":null}";
    let saved = "{\"section\":\"faults\",\"data\":{\"safe_reprofile_hours\":5.0}}";
    assert!(doc.contains(faults), "a fault-free run saves null faults");
    let err = SimDriver::resume(input(&plain), &doc.replacen(faults, saved, 1))
        .err()
        .expect("a safe interval without fault injection must fail");
    let expect = "faults: expected null, found object";
    assert!(err.to_string().contains(expect), "{err}");
    // A plan digest is a version-4 form. Only a fork may rebuild a built
    // plan its input does not build, and only a `Bin*` scheme's.
    let sim = built_plan_sim();
    let (_, doc) = built_plan_snapshot();
    let mut deferred = input(&sim);
    deferred.plan = iscope::InputPlan::scan(Scheme::BinEffi, false);
    let as_scan = doc.replacen("\"scheme\":\"BinEffi\"", "\"scheme\":\"ScanEffi\"", 1);
    for (edit, restored, expect) in [
        (
            "version 3 with a plan digest",
            SimDriver::resume(
                input(&sim),
                &doc.replacen("\"version\":4,", "\"version\":3,", 1),
            ),
            "a version 3 document holds a plan digest",
        ),
        (
            "resume onto a plan to scan",
            SimDriver::resume(deferred, &doc),
            "the input's plan is a fleet scan",
        ),
        (
            "built plan of a scan scheme",
            SimDriver::fork(input(&rescanning(Scheme::ScanFair)), &as_scan),
            "\"ScanEffi\" has no bin plan to rebuild",
        ),
    ] {
        let err = restored.err().unwrap_or_else(|| panic!("{edit} must fail"));
        assert!(err.to_string().contains(expect), "{edit}: {err}");
    }
}

/// The jobs a resume or a fork has not admitted yet come from its input's
/// workload, which skips the snapshot's `admitted` first: a workload
/// shorter than that is a checked error, and a fork onto a workload cut
/// to exactly `admitted` jobs finishes exactly those.
#[test]
fn restore_takes_unsubmitted_jobs_from_the_input() {
    let sim = every_section_sim();
    let doc = every_section_snapshot();
    let admitted = match section(&doc, "header").get("admitted") {
        Ok(Val::Int(n)) => *n as usize,
        other => panic!("header without an admitted count: {other:?}"),
    };
    assert!(admitted > 0 && admitted < 60, "admitted {admitted}");
    let cut = |n: usize| {
        let mut input = input(&sim);
        let jobs = std::mem::take(&mut input.workload).into_jobs();
        input.workload = Workload::new(jobs.into_iter().take(n).collect());
        input
    };
    let short = admitted - 1;
    for (how, restored) in [
        ("resume", SimDriver::resume(cut(short), &doc)),
        ("fork", SimDriver::fork(cut(short), &doc)),
    ] {
        let err = restored
            .err()
            .unwrap_or_else(|| panic!("{how} onto {short} jobs must fail"));
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{how}: {err}");
        let expect = format!("source ended after {short} jobs, snapshot admitted {admitted}");
        assert!(err.to_string().contains(&expect), "{how}: {err}");
    }
    let forked = SimDriver::fork(cut(admitted), &doc).expect("fork onto the admitted jobs");
    assert_eq!(forked.finish().0.jobs, admitted);
}
