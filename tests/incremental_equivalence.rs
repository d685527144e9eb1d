//! Fast paths vs their reference implementations. The simulator keeps
//! availability, demand aggregates, chain limits and chip indexes
//! incrementally, and that state must be *invisible*: every decision
//! must equal what the reference path derives from scratch.
//!
//! The proof lives inside the simulator, in debug builds, on every
//! call: incremental availability against the queue replay
//! (`refresh_avail`), the integer-µW demand aggregates against re-summed
//! rows (`demand_at_level_uw`, `refresh_demand`), cached chain limits
//! against the queue walk (`min_feasible_level`), and indexed placement
//! against the linear scans (the `iscope_sched` placement dispatch). The
//! `*_cross_check_fires` unit tests in `simulation.rs` show each check
//! fires. This suite drives those checks through every scheme, supply,
//! DVFS mode and feature regime; the strict auditor additionally
//! recounts the demand aggregates. Release builds compile the checks
//! out, so there the tests resting on them are ignored rather than
//! passing vacuously; the demand leg, which asserts the auditor's
//! recount, runs in every build.

use iscope::prelude::*;
use iscope::{AuditConfig, DvfsMode, FaultInjectionConfig, InSituConfig};
use iscope_dcsim::{SimDuration, SimTime};
use iscope_pvmodel::{CpuBoundness, FailureModel};
use iscope_sched::Scheme;
use iscope_workload::{Job, JobId, Urgency, Workload};
use proptest::prelude::*;

const FLEET: usize = 24;

fn builder(
    scheme: Scheme,
    wind: bool,
    mode: DvfsMode,
    in_situ: bool,
    seed: u64,
) -> GreenDatacenterSim {
    let mut b = GreenDatacenterSim::builder()
        .fleet_size(FLEET)
        .synthetic_jobs(48)
        .scheme(scheme)
        .dvfs_mode(mode)
        .audit(AuditConfig::default())
        .seed(seed);
    if wind {
        b = b.supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(48),
            FLEET as f64 / 4800.0,
            seed,
        ));
    }
    if in_situ {
        b = b.in_situ_profiling(InSituConfig::default());
    }
    b
}

/// The DVFS-stressed regime: ScanFair with wind scaled to a quarter of
/// the per-CPU standard and arrivals compressed 4×, so the budget
/// matcher descends and recovers levels at almost every event. Each
/// level change makes `refresh_avail` replay and epoch-invalidate the
/// chip indexes, and the matcher leans on the demand aggregates and
/// cached chain limits.
fn scarce_wind(fleet: usize, mode: DvfsMode, seed: u64) -> GreenDatacenterSim {
    GreenDatacenterSim::builder()
        .fleet_size(fleet)
        .arrival_rate(4.0)
        .scheme(Scheme::ScanFair)
        .dvfs_mode(mode)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(96),
            fleet as f64 / 4800.0 * 0.25,
            seed,
        ))
        .audit(AuditConfig::default())
        .seed(seed)
}

/// Every scheme × supply × DVFS-mode × in-situ combination runs once
/// under strict audit with every cross-check armed.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "equivalence is proved by debug-build cross-checks"
)]
fn incremental_equals_replay_across_modes() {
    for scheme in [Scheme::BinRan, Scheme::ScanEffi, Scheme::ScanFair] {
        for wind in [false, true] {
            for mode in [DvfsMode::GlobalLevel, DvfsMode::PerJobGreedy] {
                for in_situ in [false, true] {
                    let r = builder(scheme, wind, mode, in_situ, 11).build().run();
                    let what = format!("{scheme} wind={wind} {mode:?} in_situ={in_situ}");
                    assert_eq!(r.jobs, 48, "{what}: jobs lost");
                }
            }
        }
    }
}

/// The placement-index leg: gangs up to two thirds of the fleet, with a
/// near-flat size histogram, arriving 4× compressed, so every scheme
/// widens past the ranking prefix and falls back to best-effort
/// extraction. Every scheme × supply × DVFS mode runs once; the
/// placement dispatch compares each indexed decision with the linear
/// scan on every arrival.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "equivalence is proved by debug-build cross-checks"
)]
fn indexed_equals_linear_across_modes() {
    let wide = SyntheticTrace {
        num_jobs: 48,
        max_cpus: 16,
        size_decay: 0.95,
        ..SyntheticTrace::default()
    };
    for scheme in [Scheme::BinRan, Scheme::ScanEffi, Scheme::ScanFair] {
        for wind in [false, true] {
            for mode in [DvfsMode::GlobalLevel, DvfsMode::PerJobGreedy] {
                let r = builder(scheme, wind, mode, false, 11)
                    .synthetic_trace(wide.clone())
                    .arrival_rate(4.0)
                    .build()
                    .run();
                assert!(
                    r.deadline_misses > 0,
                    "{scheme} wind={wind} {mode:?}: no placement reached the best-effort tail"
                );
            }
        }
    }
}

/// Fault injection rewrites availability out from under the indexes:
/// timing failures abandon attempts mid-flight, retries requeue, and
/// quarantine blocks chips. The epoch-invalidation rebuild must keep
/// every indexed decision equal to the linear scan.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "equivalence is proved by debug-build cross-checks"
)]
fn indexed_equals_linear_under_fault_injection() {
    let r = GreenDatacenterSim::builder()
        .fleet_size(16)
        .scheme(Scheme::ScanFair)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 60,
            max_cpus: 8,
            runtime_clamp_s: (300.0, 900.0),
            ..SyntheticTrace::default()
        })
        .fault_injection(FaultInjectionConfig {
            model: FailureModel {
                time_acceleration: 4000.0,
                jitter_v_sd: 0.0002,
                ..FailureModel::default()
            },
            ..FaultInjectionConfig::default()
        })
        .audit(AuditConfig::default())
        .seed(11)
        .build()
        .run();
    let fi = r.faults.expect("fault stats present");
    assert!(
        fi.timing_failures > 0,
        "scenario not stressed enough to inject failures: {fi:?}"
    );
}

/// The DVFS-stressed regime at test scale, in both DVFS modes: the
/// matcher's demand aggregates and cached chain limits must match their
/// replays, and the indexes rebuilt after each level change must keep
/// producing the linear decisions.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "equivalence is proved by debug-build cross-checks"
)]
fn scarce_wind_high_rate_stays_equivalent() {
    for mode in [DvfsMode::GlobalLevel, DvfsMode::PerJobGreedy] {
        let r = scarce_wind(FLEET, mode, 7).synthetic_jobs(96).build().run();
        assert!(
            r.deadline_misses > 0,
            "{mode:?}: scenario not stressed enough to exercise the floors"
        );
    }
}

/// The DVFS-stressed regime with in-situ profiling on, in both DVFS
/// modes: chips leave and rejoin service for their scans while the
/// matcher rewrites levels, so epoch invalidations of the chip indexes
/// interleave with blocked-view changes. The rebuilt indexes must keep
/// producing the linear decisions.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "equivalence is proved by debug-build cross-checks"
)]
fn indexed_survives_rebalance_epoch_invalidation() {
    for mode in [DvfsMode::GlobalLevel, DvfsMode::PerJobGreedy] {
        let r = scarce_wind(FLEET, mode, 7)
            .synthetic_jobs(96)
            .in_situ_profiling(InSituConfig::default())
            .build()
            .run();
        let profiled = r.profiling.expect("profiling stats present").chips_profiled;
        assert!(
            r.deadline_misses > 0 && profiled > 0,
            "{mode:?}: scenario not stressed enough ({} misses, {profiled} chips scanned)",
            r.deadline_misses
        );
    }
}

/// The demand leg: the DVFS-stressed regime for every scheme × DVFS
/// mode, where the budget matcher probes the integer-µW aggregates at
/// almost every event. Debug builds compare each probe with the
/// re-summed rows; the strict auditor recounts both aggregates from the
/// power model on every demand refresh in any build, so this test runs
/// in release too.
#[test]
fn incremental_demand_equals_replay_across_modes() {
    for scheme in [Scheme::BinRan, Scheme::ScanEffi, Scheme::ScanFair] {
        for mode in [DvfsMode::GlobalLevel, DvfsMode::PerJobGreedy] {
            let r = scarce_wind(FLEET, mode, 7)
                .scheme(scheme)
                .synthetic_jobs(48)
                .build()
                .run();
            let audit = r.audit.expect("audit report present");
            assert!(
                audit.demand_checks > 0 && audit.clean(),
                "{scheme} {mode:?}: {audit:?}"
            );
        }
    }
}

/// The DVFS-stressed regime on a fleet spanning several 64-position
/// `RankBlocks` blocks, so the ranked walks skip blocks, the epoch
/// rebuilds re-rank every block, and chain limits bind across a wide
/// fleet. The `iscope-exp` `smoke_sim` scenario (300 processors, 2000
/// jobs up to 16 wide, seed 42).
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "equivalence is proved by debug-build cross-checks"
)]
fn multi_block_fleet_stays_equivalent() {
    let r = scarce_wind(300, DvfsMode::GlobalLevel, 42)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 2_000,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .build()
        .run();
    assert!(
        r.utility_kwh() > 0.0,
        "wind never ran short, so the matcher never descended"
    );
}

#[derive(Debug, Clone)]
struct RawSpec {
    submit_s: u64,
    cpus: u32,
    runtime_s: u64,
    factor_tenths: u64,
    gamma_pct: u8,
    high: bool,
}

fn job_strategy() -> impl Strategy<Value = RawSpec> {
    (
        0u64..20_000,
        1u32..=8,
        30u64..2000,
        12u64..200,
        30u8..=100,
        any::<bool>(),
    )
        .prop_map(
            |(submit_s, cpus, runtime_s, factor_tenths, gamma_pct, high)| RawSpec {
                submit_s,
                cpus,
                runtime_s,
                factor_tenths,
                gamma_pct,
                high,
            },
        )
}

fn build_workload(specs: &[RawSpec]) -> Workload {
    let jobs = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let submit = SimTime::from_secs(s.submit_s);
            let runtime = SimDuration::from_secs(s.runtime_s);
            Job {
                id: JobId(i as u32),
                submit,
                cpus: s.cpus,
                runtime_at_fmax: runtime,
                gamma: CpuBoundness::new(s.gamma_pct as f64 / 100.0),
                deadline: submit + runtime.mul_f64(s.factor_tenths as f64 / 10.0),
                urgency: if s.high { Urgency::High } else { Urgency::Low },
            }
        })
        .collect();
    Workload::new(jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary workloads produce arbitrary interleavings of
    /// place/start/complete/rebalance events; every cross-check must
    /// hold on all of them.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "equivalence is proved by debug-build cross-checks"
    )]
    fn arbitrary_interleavings_stay_equivalent(
        specs in proptest::collection::vec(job_strategy(), 1..40),
        seed in 0u64..1000,
        wind in any::<bool>(),
        scheme_pick in 0u8..3,
    ) {
        let scheme = [Scheme::BinRan, Scheme::ScanEffi, Scheme::ScanFair][scheme_pick as usize];
        let mut b = GreenDatacenterSim::builder()
            .fleet_size(FLEET)
            .workload(build_workload(&specs))
            .scheme(scheme)
            .audit(AuditConfig::default())
            .seed(seed);
        if wind {
            b = b.supply(Supply::hybrid_farm(
                &WindFarm::default(),
                SimDuration::from_hours(48),
                FLEET as f64 / 4800.0,
                seed,
            ));
        }
        prop_assert_eq!(b.build().run().jobs, specs.len());
    }
}

/// Regression for the blocked-chip sampling fix: `BinRan` keeps finding
/// feasible placements while in-situ profiling blocks chips, instead of
/// wasting its retry draws on out-of-service chips and falling through
/// to infeasible best-effort sets. Deadlines are generous, so every
/// placement a correct sampler makes is feasible — any miss means the
/// sampler failed to find a set that existed.
#[test]
fn binran_with_blocked_chips_still_finds_feasible_sets() {
    let trace = SyntheticTrace {
        num_jobs: 60,
        max_cpus: 6,
        ..SyntheticTrace::default()
    };
    let raw = trace.generate(23);
    // Stretch every deadline so feasible sets always exist even with
    // 40 % of the fleet out of service for profiling.
    let jobs: Vec<Job> = Shaper::default()
        .shape(&raw, 23)
        .jobs()
        .iter()
        .cloned()
        .map(|mut j| {
            j.deadline = j.submit + j.runtime_at_fmax.mul_f64(40.0);
            j
        })
        .collect();
    let report = GreenDatacenterSim::builder()
        .fleet_size(FLEET)
        .workload(Workload::new(jobs))
        .scheme(Scheme::BinRan)
        .in_situ_profiling(InSituConfig {
            // Profile aggressively so blocking pressure stays high.
            utilization_threshold: 1.0,
            min_available_fraction: 0.6,
            ..InSituConfig::default()
        })
        .seed(23)
        .build()
        .run();
    assert_eq!(report.jobs, 60);
    assert!(report.makespan > SimTime::ZERO, "no job ever completed");
    assert_eq!(
        report.deadline_misses, 0,
        "BinRan missed generous deadlines under blocking — the sampler \
         is not finding the feasible sets that exist"
    );
}
