//! The single-site parity lock for the federation refactor: a 1-site
//! federation under the null router must be bit-identical — report and
//! telemetry JSONL — to the plain `run_simulation` path, across all five
//! schemes and with fault injection enabled.
//!
//! Why this must hold: both runs prime the same periodic loops and admit
//! the workload's jobs through the same path in the same order, the
//! engine breaks time ties by insertion order, the null router consumes
//! no randomness, and a lone site's `expect_more` flag reduces every
//! rescheduling condition to the single-site one. Any drift in that chain
//! shows up here as a byte difference.

use iscope::prelude::*;
use iscope::telemetry::render_jsonl;
use iscope::{
    run_federation, AuditConfig, FaultInjectionConfig, FederationInput, NullRouter, RunReport,
    TelemetryConfig,
};
use iscope_dcsim::SimDuration;
use iscope_pvmodel::FailureModel;
use iscope_workload::SyntheticTrace;

/// Non-trivial single-site scenario: hybrid wind (so the DVFS matcher and
/// deferral paths run), telemetry and a strict audit on, 48 chips / 160
/// gang jobs.
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

/// An aggressive-enough failure model that faults actually fire in the
/// fault leg (retry/requeue/quarantine paths all exercised).
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

/// Runs the same configuration through both paths and returns the two
/// reports.
fn both(sim: GreenDatacenterSim) -> (RunReport, RunReport) {
    let plain_run = sim.clone().build();
    let workload = plain_run.workload().clone();
    let plain = plain_run.run();
    let fed = run_federation(FederationInput {
        sites: vec![sim.build().into_input()],
        workload,
        router: Box::new(NullRouter),
        wan_delay: SimDuration::from_mins(2),
        reroute_retries: false,
    });
    assert_eq!(fed.sites.len(), 1);
    assert_eq!(fed.migrations, 0, "null router cannot migrate");
    assert_eq!(fed.routed_jobs as usize, plain.jobs);
    let mut sites = fed.sites;
    (plain, sites.pop().unwrap())
}

/// Field-by-field and whole-report bit-identity. Float equality here is
/// intentional: the two paths must execute the same arithmetic in the
/// same order.
fn assert_identical(plain: &RunReport, fed: &RunReport, label: &str) {
    assert_eq!(plain.makespan, fed.makespan, "{label}: makespan");
    assert_eq!(plain.ledger, fed.ledger, "{label}: energy ledger");
    assert_eq!(
        plain.deadline_misses, fed.deadline_misses,
        "{label}: misses"
    );
    assert_eq!(plain.usage_hours, fed.usage_hours, "{label}: usage");
    assert_eq!(plain.faults, fed.faults, "{label}: fault stats");
    assert_eq!(plain.telemetry, fed.telemetry, "{label}: telemetry records");
    let plain_jsonl = render_jsonl(plain.telemetry.as_deref().unwrap_or(&[]));
    let fed_jsonl = render_jsonl(fed.telemetry.as_deref().unwrap_or(&[]));
    assert_eq!(plain_jsonl, fed_jsonl, "{label}: telemetry JSONL bytes");
    // The whole-report `Debug` comparison catches any field the asserts
    // above forgot (audit numbers, power series, profiling); f64 `Debug`
    // output round-trips exactly, so equal text means equal bits.
    assert_eq!(
        format!("{plain:?}"),
        format!("{fed:?}"),
        "{label}: whole reports diverge"
    );
}

#[test]
fn one_site_null_router_matches_plain_run_for_all_schemes() {
    for scheme in Scheme::ALL {
        let (plain, fed) = both(base(scheme, 42));
        assert_identical(&plain, &fed, &format!("{scheme:?}"));
    }
}

#[test]
fn parity_holds_under_fault_injection() {
    let (plain, fed) = both(base(Scheme::ScanFair, 42).fault_injection(faults()));
    let stats = plain.faults.as_ref().expect("fault stats present");
    assert!(
        stats.timing_failures > 0,
        "fault leg must actually exercise failures (got none)"
    );
    assert_identical(&plain, &fed, "ScanFair+faults");
}

#[test]
fn parity_holds_across_seeds() {
    for seed in [1, 9, 77] {
        let (plain, fed) = both(base(Scheme::ScanEffi, seed));
        assert_identical(&plain, &fed, &format!("seed {seed}"));
    }
}
