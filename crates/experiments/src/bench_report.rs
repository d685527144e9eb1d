//! `iscope-exp bench-report` — end-to-end scheduler performance numbers.
//!
//! Runs the headline benchmark (the paper's 4800-processor fleet under a
//! day of ScanFair submissions), one figure-scale run (the default
//! 240-CPU experiment cell), and a DVFS-stressed run (scarce wind at a
//! high arrival rate, so the supply-matching loop dominates), and writes
//! `BENCH_sim.json` with wall-clock, events/second, ns/placement, and
//! per-phase hot-path timings, next to the recorded baselines that were
//! measured before the incremental scheduler state landed.
//!
//! The JSON is rendered through the workspace's one codec
//! (`iscope::snapshot`), from the field lists below.

use crate::common::{write_val, ExpConfig, ExpScale};
use crate::federation;
use iscope::experiments::{pool_stats, reset_pool_stats, sweep, PoolStats, ThreadPoolBuilder};
use iscope::prelude::*;
use iscope::{
    Driver, FederationReport, FollowSurplusRouter, PhaseTimers, RunReport, RunStats, SimInput,
    StreamDriver, StreamStats,
};
use iscope_sched::Scheme;
use iscope_workload::SyntheticSource;

/// One benchmark measurement, normalized from [`RunStats`].
#[derive(Debug, Clone, Copy)]
pub struct BenchNumbers {
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    /// Engine events processed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Placement decisions taken.
    pub placements: u64,
    /// Wall-clock nanoseconds charged per placement (whole-run upper
    /// bound, not a microbenchmark).
    pub ns_per_placement: f64,
}

iscope::to_val!(BenchNumbers, |n| {
    "wall_s" => n.wall_s,
    "events" => n.events,
    "events_per_sec" => n.events_per_sec,
    "placements" => n.placements,
    "ns_per_placement" => n.ns_per_placement,
});

impl From<RunStats> for BenchNumbers {
    fn from(s: RunStats) -> Self {
        BenchNumbers {
            wall_s: s.wall.as_secs_f64(),
            events: s.events,
            events_per_sec: s.events_per_sec(),
            placements: s.placements,
            ns_per_placement: s.ns_per_placement(),
        }
    }
}

/// The headline baseline, measured on the replay-based scheduler state
/// (before incremental availability / cached surplus / partial-selection
/// placement landed), same scenario and seed, release build. Re-measure
/// by checking out the commit before the incremental-state change and
/// running `iscope-exp bench-report`.
pub const BASELINE_HEADLINE: BenchNumbers = BenchNumbers {
    wall_s: 10.034,
    events: 40_291,
    events_per_sec: 4_015.6,
    placements: 20_000,
    ns_per_placement: 501_683.7,
};

/// Figure-scale baseline companion to [`BASELINE_HEADLINE`].
pub const BASELINE_FIGURE: BenchNumbers = BenchNumbers {
    wall_s: 0.012,
    events: 2_688,
    events_per_sec: 228_281.1,
    placements: 1_000,
    ns_per_placement: 11_775.0,
};

/// DVFS-stressed baseline, measured on the commit before the incremental
/// demand aggregates and cached deadline floors landed (same scenario
/// and seed as [`dvfs_stress_sim`], release build).
pub const BASELINE_DVFS: BenchNumbers = BenchNumbers {
    wall_s: 4.308,
    events: 40_194,
    events_per_sec: 9_330.9,
    placements: 20_000,
    ns_per_placement: 215_380.0,
};

/// Headline numbers measured on the commit immediately before the
/// persistent chip indexes landed (linear per-arrival fleet scans over
/// the incremental availability state), same scenario and seed, release
/// build. This is the comparable series for the indexed-placement
/// speedup: [`BASELINE_HEADLINE`] predates the incremental-state work
/// entirely, so the per-placement win of the indexes alone is
/// `pre_index.ns_per_placement / headline.ns_per_placement`.
pub const BASELINE_PREINDEX_HEADLINE: BenchNumbers = BenchNumbers {
    wall_s: 1.738,
    events: 40_291,
    events_per_sec: 23_182.5,
    placements: 20_000,
    ns_per_placement: 86_909.7,
};

/// Fleet-scale numbers measured on the commit before the least-used
/// index moved to bucketed sorted runs (flat array with an O(fleet)
/// merge-repair per acquisition) and the availability trees gained
/// point updates — same scenario and seed as [`scale_sim`], release
/// build. The comparable series for the O(dirt)-repair speedup.
pub const BASELINE_PREBUCKET_SCALE: BenchNumbers = BenchNumbers {
    wall_s: 16.952,
    events: 400_310,
    events_per_sec: 23_614.1,
    placements: 200_000,
    ns_per_placement: 84_760.9,
};

/// Times a fixed CPU-bound loop that runs no simulator code: xorshift
/// hashing with data-dependent branches into an L1-resident table (the
/// loop of perfbench's `host::probe_ms`). Its time follows the host's
/// speed and nothing a change to the simulator does.
fn host_probe_ms() -> f64 {
    let mut table = [0u32; 4096];
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & 4095;
        if table[i] & 1 == 0 {
            table[i] = table[i].wrapping_add(x as u32);
        } else {
            table[(i + 1) & 4095] ^= x as u32;
        }
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64() * 1e3
}

/// The fast end (minimum) of three [`host_probe_ms`] timings: noise from
/// other tenants only ever adds time.
fn probe_fast_end() -> f64 {
    (0..3)
        .map(|_| host_probe_ms())
        .fold(f64::INFINITY, f64::min)
}

/// One fleet-scale gate run: ns/placement and the host probe timed next
/// to it, in the same process.
#[derive(Debug, Clone, Copy)]
pub struct GateRun {
    /// Wall-clock nanoseconds per placement of the scale scenario.
    pub ns_per_placement: f64,
    /// Fast end of the host probe around the run (ms).
    pub probe_ms: f64,
}

iscope::to_val!(GateRun, |g| {
    "ns_per_placement" => g.ns_per_placement,
    "probe_ms" => g.probe_ms,
    "ratio" => g.ratio(),
});

impl GateRun {
    /// ns/placement per probe-millisecond: the host-normalized cost.
    pub fn ratio(&self) -> f64 {
        self.ns_per_placement / self.probe_ms
    }
}

/// The runs [`SCALE_RATIO_BUDGET`] is derived from: eight back-to-back
/// `iscope-exp bench-smoke` runs of one release build on a 2-vCPU shared
/// Xeon host. Raw ns/placement spread over 58–79 µs (32% of the median);
/// the ratio to the probe over 6,004–7,195 (18%), median 6,660.
pub const SCALE_GATE_RUNS: [GateRun; 8] = [
    GateRun {
        ns_per_placement: 79_415.7,
        probe_ms: 11.038,
    },
    GateRun {
        ns_per_placement: 75_936.8,
        probe_ms: 11.310,
    },
    GateRun {
        ns_per_placement: 58_312.6,
        probe_ms: 9.713,
    },
    GateRun {
        ns_per_placement: 65_671.2,
        probe_ms: 9.697,
    },
    GateRun {
        ns_per_placement: 67_388.3,
        probe_ms: 10.467,
    },
    GateRun {
        ns_per_placement: 65_111.7,
        probe_ms: 9.297,
    },
    GateRun {
        ns_per_placement: 59_614.8,
        probe_ms: 9.081,
    },
    GateRun {
        ns_per_placement: 65_611.0,
        probe_ms: 9.932,
    },
];

/// CI budget on the fleet-scale scenario's host-normalized cost
/// ([`GateRun::ratio`], see [`smoke`]): 1.5× the median of
/// [`SCALE_GATE_RUNS`], rounded. The largest ratio seen there is 8% over
/// the median, so host noise six times that passes, while placement
/// turning 1.5× slower per unit of host speed trips the gate.
pub const SCALE_RATIO_BUDGET: f64 = 10_000.0;

/// Wall-clock of a multi-cell sweep run at 1 vs 4 pool workers, plus
/// the machine context that makes the ratio interpretable: on a
/// single-core host the honest speedup is ~1× no matter how real the
/// pool is, so the recorded number must carry `host_cores`.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpeedup {
    /// Sweep cells run (independent simulations).
    pub cells: usize,
    /// Wall seconds with the pool pinned at 1 worker.
    pub wall_1t_s: f64,
    /// Wall seconds with the pool pinned at 4 workers.
    pub wall_4t_s: f64,
    /// `wall_1t_s / wall_4t_s`.
    pub speedup_4t: f64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_cores: usize,
}

iscope::to_val!(SweepSpeedup, |s| {
    "cells" => s.cells,
    "wall_1t_s" => s.wall_1t_s,
    "wall_4t_s" => s.wall_4t_s,
    "speedup_4t" => s.speedup_4t,
    "host_cores" => s.host_cores,
});

/// The full bench-report payload.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// 4800-processor, day-long ScanFair run.
    pub headline: BenchNumbers,
    /// Hot-path phase breakdown of the headline run.
    pub headline_phases: PhaseTimers,
    /// Default experiment cell (240 CPUs), as regenerated per figure.
    pub figure_scale: BenchNumbers,
    /// DVFS-stressed run: scarce wind × high arrival rate, so nearly
    /// every event reruns the supply-matching loop over a deep fleet.
    pub dvfs_stress: BenchNumbers,
    /// Hot-path phase breakdown of the DVFS-stressed run.
    pub dvfs_phases: PhaseTimers,
    /// Fleet-scale run: 50 000 processors under 200 000 jobs, feasible
    /// only with the O(log n) placement indexes.
    pub scale: BenchNumbers,
    /// Hot-path phase breakdown of the fleet-scale run.
    pub scale_phases: PhaseTimers,
    /// Mega-scale run: 200 000 processors under 2 000 000 jobs — four
    /// fleets and ten workloads past `scale`, the trajectory point that
    /// keeps index repairs honest about being O(dirt).
    pub mega: BenchNumbers,
    /// Hot-path phase breakdown of the mega-scale run.
    pub mega_phases: PhaseTimers,
    /// Streaming-ingestion counters of the mega run: jobs emitted by the
    /// source and its buffer high-water mark — the proof the 2M-job
    /// trace was never materialized as one vector.
    pub mega_stream: StreamStats,
    /// Federated run: the default experiment cell split over 4 sites
    /// under the follow-surplus router, half-correlated weather, faults
    /// on — the event clock now multiplexes four `SiteState`s plus the
    /// routing layer.
    pub federation: BenchNumbers,
    /// Hot-path phase breakdown of the federated run (summed over sites).
    pub federation_phases: PhaseTimers,
    /// One-line summary of the headline run's simulation outcome, so a
    /// perf regression that changes behaviour is visible in the report.
    pub headline_outcome: String,
    /// Outcome summary of the DVFS-stressed run.
    pub dvfs_outcome: String,
    /// Outcome summary of the fleet-scale run.
    pub scale_outcome: String,
    /// Outcome summary of the mega-scale run.
    pub mega_outcome: String,
    /// Outcome summary of the federated run.
    pub federation_outcome: String,
    /// Multi-cell sweep wall-clock at 1 vs 4 pool workers.
    pub sweep_speedup: SweepSpeedup,
    /// Cumulative work-stealing pool counters over the whole report run.
    pub pool: PoolStats,
}

/// The headline scenario: the paper's 4800-CPU testbed under one day of
/// diurnal submissions, ScanFair placement, standard wind power.
pub fn headline_sim() -> GreenDatacenterSim {
    let jobs = 20_000;
    GreenDatacenterSim::builder()
        .fleet_size(4800)
        .synthetic_trace(SyntheticTrace {
            num_jobs: jobs,
            max_cpus: 512,
            ..SyntheticTrace::default() // one day of submissions
        })
        .scheme(Scheme::ScanFair)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(48),
            1.0,
            42,
        ))
        .seed(42)
}

/// The DVFS-stressed scenario: a 1200-CPU fleet under 4× compressed
/// arrivals and a wind farm scaled to a quarter of the per-CPU standard
/// supply. Wind is chronically short, so the budget matcher descends and
/// recovers levels at almost every event while hundreds of gangs run —
/// exactly the demand-sum / deadline-floor hot path.
pub fn dvfs_stress_sim() -> GreenDatacenterSim {
    let fleet = 1200usize;
    GreenDatacenterSim::builder()
        .fleet_size(fleet)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 20_000,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .arrival_rate(4.0)
        .scheme(Scheme::ScanFair)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(96),
            fleet as f64 / 4800.0 * 0.25,
            42,
        ))
        .seed(42)
}

/// The fleet-scale scenario: a 50 000-processor fleet under 200 000
/// jobs (gangs up to 512 wide), ScanFair, wind scaled to the per-CPU
/// standard. At this size a single linear fleet scan costs more than an
/// entire indexed placement, so the scenario only became tractable when
/// the persistent chip indexes landed — it exists to keep it that way.
pub fn scale_sim() -> GreenDatacenterSim {
    let fleet = 50_000usize;
    GreenDatacenterSim::builder()
        .fleet_size(fleet)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 200_000,
            max_cpus: 512,
            ..SyntheticTrace::default()
        })
        .scheme(Scheme::ScanFair)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(48),
            fleet as f64 / 4800.0,
            42,
        ))
        .seed(42)
}

/// The mega-scale scenario: 200 000 processors under 2 000 000 jobs —
/// 4× the fleet and 10× the workload of [`scale_sim`]. Exists to record
/// the scaling trajectory: per-placement cost must stay flat from
/// `scale` to `mega`, which only holds while index repairs cost O(dirt)
/// rather than O(fleet).
///
/// Unlike the smaller scenarios, the mega run **streams** its trace: the
/// input carries an empty workload and the 2M jobs are pulled from a
/// [`SyntheticSource`] as the clock advances, so the full job vector is
/// never materialized and the source's buffer high-water mark
/// (`StreamStats::peak_buffered`) is recorded in `BENCH_sim.json`.
pub fn mega_parts() -> (SimInput, SyntheticSource) {
    let fleet = 200_000usize;
    let sim = GreenDatacenterSim::builder()
        .fleet_size(fleet)
        .workload(Workload::new(vec![]))
        .scheme(Scheme::ScanFair)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(48),
            fleet as f64 / 4800.0,
            42,
        ))
        .seed(42);
    let source = SyntheticSource::new(
        SyntheticTrace {
            num_jobs: 2_000_000,
            max_cpus: 512,
            ..SyntheticTrace::default()
        },
        Shaper::default(),
        42,
    );
    (sim.build().into_input(), source)
}

/// One scenario's result in the parallel dispatch below.
enum Cell {
    Single(Box<(RunReport, RunStats)>),
    Stream(Box<(RunReport, RunStats, StreamStats)>),
    Fed(Box<(FederationReport, RunStats)>),
}

/// Runs all benchmark scenarios and the sweep-speedup measurement.
///
/// The scenarios dispatch through the work-stealing pool like every
/// other sweep. NOTE: each scenario's wall-clock is measured inside its
/// own cell, so running the report with `ISCOPE_THREADS > 1` overlaps
/// scenarios on shared cores and inflates per-scenario wall numbers —
/// record official `BENCH_sim.json` figures with `ISCOPE_THREADS=1`.
pub fn run() -> BenchReport {
    reset_pool_stats();
    let cfg = ExpConfig::new(ExpScale::Default);
    let order: [usize; 6] = [0, 1, 2, 3, 4, 5];
    let mut results = sweep(&order, |&i| match i {
        0 => Cell::Single(Box::new(headline_sim().build().run_instrumented())),
        1 => Cell::Single(Box::new(
            cfg.sim(Scheme::ScanFair)
                .supply(cfg.wind_supply(1.0))
                .build()
                .run_instrumented(),
        )),
        2 => Cell::Single(Box::new(dvfs_stress_sim().build().run_instrumented())),
        3 => Cell::Single(Box::new(scale_sim().build().run_instrumented())),
        4 => {
            let (input, source) = mega_parts();
            let out = StreamDriver::new(input, source)
                .run()
                .expect("synthetic sources cannot fail");
            Cell::Stream(Box::new(out))
        }
        _ => {
            let scenario = federation::scenario(&cfg, 4, 0.5, Box::new(FollowSurplusRouter));
            let (report, stats, _) = Driver::federation(scenario)
                .run_federated()
                .expect("a materialized workload cannot fail");
            Cell::Fed(Box::new((report, stats)))
        }
    })
    .into_iter();
    let mut single = || match results.next() {
        Some(Cell::Single(b)) => *b,
        _ => unreachable!("scenario order fixed above"),
    };
    let (report, stats) = single();
    let (_, fig_stats) = single();
    let (dvfs_report, dvfs_stats) = single();
    let (scale_report, scale_stats) = single();
    let (mega_report, mega_stats, mega_stream) = match results.next() {
        Some(Cell::Stream(b)) => *b,
        _ => unreachable!("scenario order fixed above"),
    };
    let (fed_report, fed_stats) = match results.next() {
        Some(Cell::Fed(b)) => *b,
        _ => unreachable!("scenario order fixed above"),
    };
    let sweep_speedup = measure_sweep_speedup();
    BenchReport {
        headline: stats.into(),
        headline_phases: stats.phases,
        figure_scale: fig_stats.into(),
        dvfs_stress: dvfs_stats.into(),
        dvfs_phases: dvfs_stats.phases,
        scale: scale_stats.into(),
        scale_phases: scale_stats.phases,
        mega: mega_stats.into(),
        mega_phases: mega_stats.phases,
        mega_stream,
        federation: fed_stats.into(),
        federation_phases: fed_stats.phases,
        headline_outcome: report.summary(),
        dvfs_outcome: dvfs_report.summary(),
        scale_outcome: scale_report.summary(),
        mega_outcome: mega_report.summary(),
        federation_outcome: fed_report.summary(),
        sweep_speedup,
        pool: pool_stats(),
    }
}

/// The speedup scenario: a bench-cell sweep (six independently seeded
/// DVFS-stressed runs) timed with the pool pinned at 1 worker, then at
/// 4, asserting bit-identical reports along the way. The ratio is the
/// honest wall-clock gain *on this host* — see [`SweepSpeedup`].
fn measure_sweep_speedup() -> SweepSpeedup {
    let seeds: Vec<u64> = (0..6).map(|i| 42 + i).collect();
    let cell = |&seed: &u64| smoke_sim(seed).build().run();
    let t0 = std::time::Instant::now();
    let one = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool build cannot fail")
        .install(|| sweep(&seeds, cell));
    let wall_1t_s = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let four = ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool build cannot fail")
        .install(|| sweep(&seeds, cell));
    let wall_4t_s = t0.elapsed().as_secs_f64();
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.ledger, b.ledger, "4-worker sweep changed results");
        assert_eq!(a.usage_hours, b.usage_hours);
    }
    SweepSpeedup {
        cells: seeds.len(),
        wall_1t_s,
        wall_4t_s,
        speedup_4t: wall_1t_s / wall_4t_s,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// A scaled-down [`dvfs_stress_sim`] cell (300 processors, 2000 jobs):
/// small enough to run in seconds yet still exercising the full
/// supply-matching hot path. Shared by the bench-smoke gate and the
/// sweep-speedup measurement, parameterized by seed so sweeps can build
/// independent cells.
pub fn smoke_sim(seed: u64) -> GreenDatacenterSim {
    let fleet = 300usize;
    GreenDatacenterSim::builder()
        .fleet_size(fleet)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 2_000,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .arrival_rate(4.0)
        .scheme(Scheme::ScanFair)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(96),
            fleet as f64 / 4800.0 * 0.25,
            42,
        ))
        .seed(seed)
}

/// `iscope-exp bench-smoke` — a fast CI gate with three legs: a
/// multi-cell [`smoke_sim`] sweep must produce bit-identical reports at
/// 1 and 4 pool workers; (release builds only) the fleet-scale scenario
/// must stay under the per-placement budget; and a streamed run must be
/// bit-identical to the same jobs pre-admitted.
pub fn smoke() {
    // Leg 1: the parallel-sweep identity gate. The same multi-cell sweep
    // at 1 and 4 pool workers must yield bit-identical reports — the
    // correctness contract of the work-stealing pool, checked on real
    // threads regardless of what ISCOPE_THREADS the CI job exports.
    let seeds: Vec<u64> = (0..5).map(|i| 100 + 17 * i).collect();
    let cell = |&seed: &u64| smoke_sim(seed).build().run();
    let one = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool build cannot fail")
        .install(|| sweep(&seeds, cell));
    let four = ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool build cannot fail")
        .install(|| sweep(&seeds, cell));
    assert_eq!(one.len(), four.len());
    for ((a, b), seed) in one.iter().zip(&four).zip(&seeds) {
        assert_eq!(
            a.ledger, b.ledger,
            "bench-smoke: 4-worker sweep diverged from 1-worker on seed {seed}"
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.usage_hours, b.usage_hours);
    }
    println!(
        "bench-smoke OK: {}-cell sweep bit-identical at 1 vs 4 pool workers ({})",
        seeds.len(),
        pool_stats().render(),
    );

    // Leg 2 (release builds only): the fleet-scale per-placement budget.
    // Debug builds run the O(fleet) linear cross-checks on every
    // placement, so at 50 000 chips the scenario would take hours and
    // the timing would say nothing about the shipped code.
    if cfg!(debug_assertions) {
        println!("bench-smoke: skipping scale ns/placement budget (debug build)");
    } else {
        // `build()` runs the fleet-wide SBFT scan, so its time is mostly the
        // scan's cost at 50 000 chips; printed only, not gated.
        let build_start = std::time::Instant::now();
        let scale = scale_sim().build();
        let build_s = build_start.elapsed().as_secs_f64();
        // The probe brackets the run, so a host that slows down or speeds
        // up part-way is seen at its fast end on either side.
        let probe_before = probe_fast_end();
        let (scale_report, scale_stats) = scale.run_instrumented();
        let gate = GateRun {
            ns_per_placement: scale_stats.ns_per_placement(),
            probe_ms: probe_before.min(probe_fast_end()),
        };
        println!("bench-smoke scale outcome: {}", scale_report.summary());
        println!(
            "bench-smoke scale build_s {build_s:.3}  wall_s {:.3}  ns/placement {:.1}  \
             probe_ms {:.3}  ratio {:.1} (budget {SCALE_RATIO_BUDGET:.0})",
            scale_stats.wall.as_secs_f64(),
            gate.ns_per_placement,
            gate.probe_ms,
            gate.ratio(),
        );
        assert!(
            gate.ratio() < SCALE_RATIO_BUDGET,
            "bench-smoke: scale scenario regressed to {:.1} ns/placement per probe-ms \
             (budget {SCALE_RATIO_BUDGET:.0})",
            gate.ratio()
        );
        println!("bench-smoke OK: scale ns/placement per probe-ms within budget");
    }

    // Leg 3: streaming-ingestion parity. The same synthetic jobs, once
    // materialized and pre-admitted and once pulled incrementally from
    // the streaming source, must produce bit-identical reports — and the
    // source's buffer high-water mark must stay far below the job count
    // (the streamed run never rebuilds the materialized vector).
    use iscope_workload::JobSource;
    let fleet = 300usize;
    let trace = || SyntheticTrace {
        num_jobs: 2_000,
        max_cpus: 16,
        ..SyntheticTrace::default()
    };
    let builder = |w: Workload| {
        GreenDatacenterSim::builder()
            .fleet_size(fleet)
            .workload(w)
            .scheme(Scheme::ScanFair)
            .supply(Supply::hybrid_farm(
                &WindFarm::default(),
                SimDuration::from_hours(96),
                fleet as f64 / 4800.0 * 0.25,
                42,
            ))
            .seed(42)
    };
    let mut probe = SyntheticSource::new(trace(), Shaper::default(), 42);
    let mut jobs = Vec::new();
    while let Some(j) = probe.next_job().expect("synthetic sources cannot fail") {
        jobs.push(j);
    }
    let preadmitted = builder(Workload::new(jobs)).build().run();
    let (streamed, _, stream) = StreamDriver::new(
        builder(Workload::new(vec![])).build().into_input(),
        SyntheticSource::new(trace(), Shaper::default(), 42),
    )
    .run()
    .expect("synthetic sources cannot fail");
    assert_eq!(stream.emitted, 2_000, "bench-smoke: streamed job count");
    assert!(
        stream.peak_buffered <= 16,
        "bench-smoke: streaming source buffered {} jobs (expected a handful)",
        stream.peak_buffered
    );
    assert_eq!(
        preadmitted.ledger, streamed.ledger,
        "bench-smoke: streaming ingestion changed the energy ledger"
    );
    assert_eq!(preadmitted.makespan, streamed.makespan);
    assert_eq!(preadmitted.deadline_misses, streamed.deadline_misses);
    assert_eq!(preadmitted.usage_hours, streamed.usage_hours);
    println!(
        "bench-smoke OK: streamed run bit-identical to pre-admitted \
         ({} jobs, peak {} buffered)",
        stream.emitted, stream.peak_buffered
    );
}

iscope::to_val!(BenchReport, |r| {
    "id" => "bench_sim",
    "scenario" => {
        "headline" => "4800 procs, 20000 jobs over 24 h (max 512-wide), ScanFair, \
                       hybrid wind x1.0, seed 42",
        "figure_scale" => "240 procs, 1000 jobs, ScanFair, hybrid wind x1.0, seed 42",
        "dvfs_stress" => "1200 procs, 20000 jobs at 4x arrival rate (max 16-wide), \
                          ScanFair, hybrid wind x0.0625 (scarce), seed 42",
        "scale" => "50000 procs, 200000 jobs (max 512-wide), ScanFair, hybrid wind \
                    x10.4 (per-CPU standard), seed 42",
        "mega" => "200000 procs, 2000000 jobs (max 512-wide), ScanFair, hybrid wind \
                   x41.7 (per-CPU standard), seed 42, streamed from a synthetic source \
                   (no materialized job vector)",
        "federation" => "4 sites x 60 procs, 1000 jobs, follow-surplus router, \
                         rho=0.5 correlated wind, faults on, seed 42",
        "sweep_speedup" => "6-cell smoke sweep (300 procs, 2000 jobs each), pool pinned \
                            at 1 vs 4 workers, reports asserted bit-identical",
    },
    "headline" => r.headline,
    "headline_phases" => r.headline_phases,
    "figure_scale" => r.figure_scale,
    "dvfs_stress" => r.dvfs_stress,
    "dvfs_stress_phases" => r.dvfs_phases,
    "scale" => r.scale,
    "scale_phases" => r.scale_phases,
    "mega" => r.mega,
    "mega_phases" => r.mega_phases,
    "mega_streaming" => {
        "streamed" => true,
        "jobs_emitted" => r.mega_stream.emitted,
        "peak_buffered" => r.mega_stream.peak_buffered,
    },
    "federation" => r.federation,
    "federation_phases" => r.federation_phases,
    "baseline_headline" => BASELINE_HEADLINE,
    "baseline_figure_scale" => BASELINE_FIGURE,
    "headline_speedup_wall" => BASELINE_HEADLINE.wall_s / r.headline.wall_s,
    "baseline_dvfs_stress" => BASELINE_DVFS,
    "dvfs_stress_speedup_wall" => BASELINE_DVFS.wall_s / r.dvfs_stress.wall_s,
    "baseline_preindex_headline" => BASELINE_PREINDEX_HEADLINE,
    "headline_speedup_placement_vs_preindex" =>
        BASELINE_PREINDEX_HEADLINE.ns_per_placement / r.headline.ns_per_placement,
    "baseline_prebucket_scale" => BASELINE_PREBUCKET_SCALE,
    "scale_speedup_placement_vs_prebucket" =>
        BASELINE_PREBUCKET_SCALE.ns_per_placement / r.scale.ns_per_placement,
    "sweep_speedup" => r.sweep_speedup,
    "scale_gate" => {
        "runs" => SCALE_GATE_RUNS,
        "budget_ns_per_placement_per_probe_ms" => SCALE_RATIO_BUDGET,
    },
    "pool" => r.pool,
    "headline_outcome" => r.headline_outcome,
    "dvfs_stress_outcome" => r.dvfs_outcome,
    "scale_outcome" => r.scale_outcome,
    "mega_outcome" => r.mega_outcome,
    "federation_outcome" => r.federation_outcome,
});

impl BenchReport {
    /// Writes `BENCH_sim.json` into the current directory (the repo root
    /// when run via `cargo run -p iscope-experiments`).
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = std::path::PathBuf::from("BENCH_sim.json");
        write_val(&path, "bench_sim", self)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope::snapshot::{parse, render, Val};

    /// The tree of object keys, with every leaf replaced by `null`.
    fn key_tree(v: &Val) -> Val {
        match v {
            Val::Obj(fields) => Val::Obj(
                fields
                    .iter()
                    .map(|(k, x)| (k.clone(), key_tree(x)))
                    .collect(),
            ),
            Val::Arr(items) => Val::Arr(items.iter().map(key_tree).collect()),
            _ => Val::Null,
        }
    }

    #[test]
    fn bench_report_keeps_the_committed_schema() {
        let numbers = BenchNumbers {
            wall_s: 1.5,
            events: 3_000,
            events_per_sec: 2_000.0,
            placements: 1_000,
            ns_per_placement: 1_500.0,
        };
        let phases = PhaseTimers {
            placement_ns: 4,
            rebalance_ns: 3,
            demand_ns: 2,
            accounting_ns: 1,
        };
        let report = BenchReport {
            headline: numbers,
            headline_phases: phases,
            figure_scale: numbers,
            dvfs_stress: numbers,
            dvfs_phases: phases,
            scale: numbers,
            scale_phases: phases,
            mega: numbers,
            mega_phases: phases,
            mega_stream: StreamStats {
                emitted: 2_000_000,
                peak_buffered: 1,
            },
            federation: numbers,
            federation_phases: phases,
            headline_outcome: "headline".into(),
            dvfs_outcome: "dvfs".into(),
            scale_outcome: "scale".into(),
            mega_outcome: "mega".into(),
            federation_outcome: "federation".into(),
            sweep_speedup: SweepSpeedup {
                cells: 6,
                wall_1t_s: 0.5,
                wall_4t_s: 0.25,
                speedup_4t: 2.0,
                host_cores: 2,
            },
            pool: PoolStats {
                par_calls: 1,
                seq_calls: 2,
                tasks: 18,
                steals: 2,
                splits: 3,
                max_workers: 4,
            },
        };
        let rendered = parse(&render(&report, "bench_sim").unwrap()).unwrap();
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json"))
                .unwrap();
        let committed = parse(&committed).unwrap();
        assert_eq!(key_tree(&rendered), key_tree(&committed));
        assert_eq!(rendered.get("scenario"), committed.get("scenario"));
    }
}
