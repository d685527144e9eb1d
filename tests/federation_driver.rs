//! Federations run on the one `Driver`: stepping them in slices, feeding
//! them from a `JobSource`, and asking them for a snapshot must behave
//! like the single-site driver does — same bytes as the uninterrupted
//! materialized run, and a checked error where snapshots stop.
//!
//! The scenario makes every federation-only path fire: three sites under
//! `FollowSurplusRouter`, fault injection with retry rerouting, so failed
//! gangs migrate over the WAN and land at other sites.

use iscope::prelude::*;
use iscope::{
    correlated_wind_supplies, run_federation, AuditConfig, Driver, FaultInjectionConfig,
    FederationInput, FederationReport, FollowSurplusRouter, SnapshotError, StaticHashRouter,
    TelemetryConfig,
};
use iscope_pvmodel::{CpuBoundness, FailureModel};
use iscope_workload::{Job, JobId, JobSource, SyntheticSource, Urgency, WorkloadSource};

const SITES: usize = 3;
const SITE_FLEET: usize = 16;
/// The widest gang a site admits: half its fleet, because faults may
/// quarantine the other half. The trace reaches it, so the streamed and
/// the materialized run size the fault floor alike.
const CLAMP: u32 = 8;

fn trace() -> SyntheticTrace {
    SyntheticTrace {
        num_jobs: 150,
        max_cpus: CLAMP,
        ..SyntheticTrace::default()
    }
}

fn source() -> SyntheticSource {
    SyntheticSource::new(trace(), Shaper::default(), 5)
}

/// The jobs `source()` emits, materialized.
fn jobs() -> Workload {
    let mut src = source();
    let mut jobs = Vec::new();
    while let Some(j) = src.next_job().expect("synthetic sources cannot fail") {
        jobs.push(j);
    }
    let workload = Workload::new(jobs);
    assert_eq!(workload.max_cpus(), CLAMP, "the trace must reach the clamp");
    workload
}

/// Three equal sites under correlated weather, with faults, audit and
/// telemetry on; `workload` is what the federation routes.
fn scenario(workload: Workload) -> FederationInput {
    let supplies = correlated_wind_supplies(
        &WindFarm::default(),
        None,
        SimDuration::from_hours(96),
        0.3,
        0.2,
        11,
        SITES,
    );
    let faults = FaultInjectionConfig {
        model: FailureModel {
            time_acceleration: 3000.0,
            jitter_v_sd: 0.0002,
            ..FailureModel::default()
        },
        max_suspect_fraction: 0.5,
        ..FaultInjectionConfig::default()
    };
    let sites = supplies
        .into_iter()
        .map(|supply| {
            let sim = GreenDatacenterSim::builder()
                .fleet_size(SITE_FLEET)
                .scheme(Scheme::ScanFair)
                .workload(Workload::default())
                .supply(supply)
                .fault_injection(faults.clone())
                .audit(AuditConfig::default())
                .telemetry(TelemetryConfig::default())
                .seed(5)
                .build();
            sim.into_input()
        })
        .collect();
    FederationInput {
        sites,
        workload,
        router: Box::new(FollowSurplusRouter),
        wan_delay: SimDuration::from_mins(5),
        reroute_retries: true,
    }
}

fn uninterrupted() -> FederationReport {
    let report = run_federation(scenario(jobs()));
    assert!(
        report.migrations > 0,
        "no gang migrated: the WAN path idled"
    );
    assert_eq!(report.routed_jobs, 150);
    report
}

fn assert_same(a: &FederationReport, b: &FederationReport, label: &str) {
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{label}: reports diverge"
    );
}

#[test]
fn sliced_federation_matches_the_uninterrupted_run() {
    let whole = uninterrupted();
    let end = whole.sites.iter().map(|s| s.makespan).max().unwrap();
    let mut driver = Driver::federation(scenario(jobs()));
    let slice = SimDuration::from_mins(37);
    let mut at = SimTime::ZERO + slice;
    while at < end {
        driver.run_until(at).expect("a workload source cannot fail");
        assert!(driver.now() <= at);
        at += slice;
    }
    let (sliced, _, stream) = driver.run_federated().expect("drain");
    assert_eq!(stream.emitted, 150);
    assert_same(&whole, &sliced, "sliced");
}

#[test]
fn streamed_federation_matches_the_materialized_run() {
    let whole = uninterrupted();
    let driver = Driver::streamed_federation(scenario(Workload::default()), source());
    let (streamed, _, stream) = driver.run_federated().expect("streamed run");
    assert_eq!(stream.emitted, 150);
    assert_same(&whole, &streamed, "streamed");
    // A workload handed over as a source is the same stream again.
    let as_source = WorkloadSource::new(jobs());
    let driver = Driver::streamed_federation(scenario(Workload::default()), as_source);
    let (replayed, _, _) = driver.run_federated().expect("workload source");
    assert_same(&whole, &replayed, "workload source");
}

#[test]
fn federation_snapshot_is_unsupported_not_a_panic() {
    let mut driver = Driver::federation(scenario(jobs()));
    for t in [SimTime::ZERO, SimTime::from_secs(6 * 3600)] {
        driver.run_until(t).expect("a workload source cannot fail");
        match driver.snapshot() {
            Err(SnapshotError::Unsupported(_)) => {}
            other => panic!("federation snapshot at {t:?}: {other:?}"),
        }
    }
}

/// A 16-wide job routed to a 4-chip site used to panic inside placement
/// ("job wider than the in-service fleet"): federation admission never
/// clamped. It now runs clamped to the destination's fleet.
#[test]
fn routed_jobs_are_clamped_to_the_destination_fleet() {
    let site = |chips: usize| {
        GreenDatacenterSim::builder()
            .fleet_size(chips)
            .workload(Workload::default())
            .seed(1)
            .build()
            .into_input()
    };
    let job = Job {
        id: JobId(0),
        submit: SimTime::ZERO,
        cpus: 16,
        runtime_at_fmax: SimDuration::from_secs(600),
        gamma: CpuBoundness::FULL,
        deadline: SimTime::from_secs(6000),
        urgency: Urgency::Low,
    };
    let report = run_federation(FederationInput {
        sites: vec![site(48), site(4)],
        workload: Workload::new(vec![job]),
        router: Box::new(StaticHashRouter { seed: 1 }),
        wan_delay: SimDuration::from_mins(2),
        reroute_retries: false,
    });
    let small = &report.sites[1];
    assert_eq!(
        (report.sites[0].jobs, small.jobs),
        (0, 1),
        "routed to the 4-chip site"
    );
    let busy: f64 = small.usage_hours.iter().sum();
    assert!(
        (busy - 4.0 * 600.0 / 3600.0).abs() < 1e-9,
        "ran 4 wide: {busy} h"
    );
}
