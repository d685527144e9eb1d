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

/// A fixed-seed run with every optional v1 section populated (faults and
/// wear, strict audit, telemetry, power samplers, a carbon policy, price
/// and carbon traces, a battery); paused at 14 h it has gangs running,
/// arrivals deferred and timing failures booked.
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
/// this pins its exact bytes; any schema or encoding change must bump
/// `SNAPSHOT_VERSION` and re-record these constants deliberately.
#[test]
fn snapshot_bytes_are_pinned() {
    let snapshot = every_section_snapshot();
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
    // Shaped like perfbench's checkpoint-churn, smaller: BinEffi with
    // pre-admitted jobs and telemetry, paused mid-run.
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
    assert!(snapshot.contains("\"running\",") && snapshot.contains("\"done\","));
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
        // A number replaced by one the field cannot hold.
        _ => {
            let spans = number_spans(doc);
            let (start, end) = spans[(a % spans.len() as u64) as usize];
            let bad = BAD_NUMBERS[(b % BAD_NUMBERS.len() as u64) as usize];
            format!("{}{bad}{}", &doc[..start], &doc[end..])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// Malformed snapshots are checked errors, never panics: resuming (and
    /// forking) a mutated copy of a document with every v1 section
    /// populated returns `Ok` or `Err`.
    #[test]
    fn mutated_snapshots_never_panic(kind in 0u8..5, a in any::<u64>(), b in any::<u64>()) {
        static DOC: std::sync::OnceLock<(GreenDatacenterSim, String)> = std::sync::OnceLock::new();
        let (sim, doc) = DOC.get_or_init(|| (every_section_sim(), every_section_snapshot()));
        let text = mutate(doc, kind, a, b);
        for fork in [false, true] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let i = input(sim);
                if fork {
                    SimDriver::fork(i, &text).map(drop)
                } else {
                    SimDriver::resume(i, &text).map(drop)
                }
            }));
            prop_assert!(
                outcome.is_ok(),
                "{} panicked on mutation {kind} ({a}, {b})",
                if fork { "fork" } else { "resume" }
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
            "0.8837703663936215",
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
            "event before the clock",
            "[[50447434,[\"retry\",35]]",
            "[[5,[\"retry\",35]]",
            "precedes the snapshot clock",
        ),
        (
            "keys out of order",
            "\"expect_more\":false,\"migrated_out\":0",
            "\"migrated_out\":0,\"expect_more\":false",
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
}
