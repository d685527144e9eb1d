//! `iscope-exp audit-smoke` — CI gate over the energy-conservation
//! auditor (DESIGN.md §4).
//!
//! Four checks on a scaled-down headline scenario (wind-backed fleet,
//! fault injection active so retry burn flows through the books; no
//! chip is re-scanned unless a check turns scanning on):
//!
//! 1. every scheme closes its books under the strict auditor (any breach
//!    panics inside the run; the report is asserted clean on top);
//! 2. enabling the auditor and the telemetry recorder leaves the run
//!    bit-identical to a bare run — the instruments are observational;
//! 3. the telemetry JSONL codec round-trips the recorded series exactly;
//! 4. ScanFair closes its books under the strict auditor while scans
//!    rewrite the operating plan mid-run — with re-profiling, and with
//!    in-situ profiling — so scan power and plan upgrades flow through
//!    the books too.

use iscope::prelude::*;
use iscope::{
    AuditConfig, FaultInjectionConfig, InSituConfig, ReprofileConfig, RunReport, TelemetryConfig,
};
use iscope_workload::SyntheticTrace;

const FLEET: usize = 120;

fn scenario(scheme: Scheme) -> GreenDatacenterSim {
    GreenDatacenterSim::builder()
        .fleet_size(FLEET)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 500,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .scheme(scheme)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(96),
            FLEET as f64 / 4800.0,
            42,
        ))
        .fault_injection(scenario_faults())
        .seed(42)
}

/// The scenario's fault injection: accelerated wear, no re-profiling.
fn scenario_faults() -> FaultInjectionConfig {
    FaultInjectionConfig {
        model: iscope_pvmodel::FailureModel {
            time_acceleration: 1500.0,
            ..iscope_pvmodel::FailureModel::default()
        },
        ..FaultInjectionConfig::default()
    }
}

/// Runs `sim` under the strict auditor, asserts its report clean and
/// prints its line under `label`.
fn strict(sim: GreenDatacenterSim, label: impl std::fmt::Display) -> RunReport {
    let r = sim.audit(AuditConfig::default()).build().run();
    let audit = r.audit.as_ref().expect("audited run carries a report");
    assert!(
        audit.clean(),
        "audit-smoke: {label} breached invariants: {:?}",
        audit.violations
    );
    println!(
        "audit-smoke {label:<9} ok: {} intervals, {} demand checks, residual {:.2e}",
        audit.intervals, audit.demand_checks, audit.energy_rel_residual
    );
    r
}

/// Runs the gate; panics on any breach.
pub fn smoke() {
    // 1. Strict audit across all five schemes.
    for scheme in Scheme::ALL {
        strict(scenario(scheme), scheme);
    }

    // 2. Instruments off vs on: bit-identical observables.
    let bare = scenario(Scheme::ScanFair).build().run();
    let watched = scenario(Scheme::ScanFair)
        .audit(AuditConfig::default())
        .telemetry(TelemetryConfig::default())
        .build()
        .run();
    assert_eq!(
        bare.ledger, watched.ledger,
        "audit-smoke: auditing perturbed the energy ledger"
    );
    assert_eq!(
        bare.makespan, watched.makespan,
        "audit-smoke: auditing perturbed the makespan"
    );
    assert_eq!(
        bare.deadline_misses, watched.deadline_misses,
        "audit-smoke: auditing perturbed deadline misses"
    );
    assert_eq!(
        bare.usage_hours, watched.usage_hours,
        "audit-smoke: auditing perturbed per-chip usage"
    );

    // 3. Telemetry JSONL round-trip, byte- and value-exact.
    let records = watched.telemetry.as_ref().expect("telemetry enabled");
    assert!(!records.is_empty(), "audit-smoke: no telemetry samples");
    let text = iscope::telemetry::render_jsonl(records);
    let back = iscope::telemetry::parse_jsonl(&text).expect("telemetry JSONL parses back");
    assert_eq!(&back, records, "audit-smoke: telemetry round-trip diverged");
    assert_eq!(
        iscope::telemetry::render_jsonl(&back),
        text,
        "audit-smoke: telemetry re-render diverged"
    );
    println!(
        "audit-smoke OK: books closed on all {} schemes; instruments are \
         observational; {} telemetry samples round-tripped",
        Scheme::ALL.len(),
        records.len()
    );

    // 4. Strict audit while scans rewrite the plan.
    let rescan = FaultInjectionConfig {
        reprofile: Some(ReprofileConfig::default()),
        ..scenario_faults()
    };
    let r = strict(
        scenario(Scheme::ScanFair).fault_injection(rescan),
        "ScanFair with re-profiling",
    );
    let rescanned = r.faults.as_ref().expect("fault stats").chips_rescanned;
    assert!(rescanned > 0, "audit-smoke: no chip was re-scanned");
    let r = strict(
        scenario(Scheme::ScanFair).in_situ_profiling(InSituConfig::default()),
        "ScanFair with in-situ profiling",
    );
    let profiled = r
        .profiling
        .as_ref()
        .expect("profiling stats")
        .chips_profiled;
    assert!(profiled > 0, "audit-smoke: no chip was profiled in situ");
    println!(
        "audit-smoke OK: books closed while {rescanned} re-scans and {profiled} in-situ scans \
         rewrote the plan"
    );
}
