//! Lifetime simulation: months of operation with silicon aging and
//! periodic re-profiling (§III.C's full story, closed-loop).
//!
//! Two complementary views:
//!
//! * **Rounds** — each round simulates one day of jobs, then advances the
//!   calendar by a configurable stride (wear accrues per chip from its
//!   *measured* busy hours, accelerated by its operating voltage). The
//!   scanned plan ages with the silicon: without re-profiling, drifted
//!   Min Vdd eventually crosses the frozen plan's voltages (silent timing
//!   hazards); with periodic re-scans the plan tracks the drift at a
//!   small energy cost.
//! * **Sweep** — *in-run* fault injection: aging, timing failures,
//!   recovery, and periodic re-profiling all happen inside a single
//!   simulation, swept over re-profile cadence × aging rate. Too-stale
//!   plans fail jobs (wasted work, deadline misses); too-frequent scans
//!   waste fleet capacity (downtime, scan energy); the sweet spot sits
//!   between.

use crate::common::{ExpConfig, ExpScale};
use iscope::prelude::*;
use iscope::{FaultInjectionConfig, ReprofileConfig};
use iscope_pvmodel::{AgingModel, FailureModel, Fleet, OperatingPlan, VariationParams};
use iscope_scanner::{ReprofilePolicy, Scanner, ScannerConfig, TestKind};
use iscope_sched::Scheme;

/// One simulated round (a day of load, advanced by `stride_days`).
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Calendar day at the end of the round.
    pub day: u32,
    /// Utility energy for the round's jobs (kWh).
    pub utility_kwh: f64,
    /// Chips whose (possibly stale) plan voltage sits below their drifted
    /// Min Vdd somewhere — operating hazards.
    pub unsafe_chips: usize,
    /// Whether this round re-profiled the fleet.
    pub rescanned: bool,
}

iscope::to_val!(Round, |r| {
    "day" => r.day,
    "utility_kwh" => r.utility_kwh,
    "unsafe_chips" => r.unsafe_chips,
    "rescanned" => r.rescanned,
});

/// Output of the lifetime experiment.
#[derive(Debug, Clone)]
pub struct Lifetime {
    /// Rounds with periodic re-profiling.
    pub maintained: Vec<Round>,
    /// Rounds with a single initial scan frozen forever.
    pub frozen: Vec<Round>,
    /// In-run fault-injection sweep: cadence × aging rate.
    pub sweep: Vec<SweepCell>,
}

iscope::to_val!(Lifetime, |l| {
    "maintained" => l.maintained,
    "frozen" => l.frozen,
    "sweep" => l.sweep,
});

/// One cell of the in-run sweep: a full simulation with runtime fault
/// injection at a given re-profile cadence and aging acceleration.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Cadence label (fraction of the safe re-profile interval, or
    /// `"frozen"` for a never-re-scanned plan).
    pub cadence: String,
    /// The swept fraction (`None` = frozen).
    pub cadence_fraction: Option<f64>,
    /// Aging time acceleration used by the failure model.
    pub aging_accel: f64,
    /// Timing failures injected.
    pub timing_failures: u64,
    /// Failed attempts that were requeued.
    pub retries: u64,
    /// Jobs abandoned after exhausting retries.
    pub failed_jobs: usize,
    /// Chips taken down and re-scanned during the run.
    pub chips_rescanned: u64,
    /// Energy burned by attempts that later failed (kWh).
    pub wasted_kwh: f64,
    /// Chip-hours lost to drain + re-scan.
    pub rescan_downtime_hours: f64,
    /// Facility energy spent running re-scans (kWh).
    pub rescan_energy_kwh: f64,
    /// Utility energy for the run (kWh).
    pub utility_kwh: f64,
    /// Deadline misses (includes abandoned jobs).
    pub deadline_misses: usize,
}

iscope::to_val!(SweepCell, |s| {
    "cadence" => s.cadence,
    "cadence_fraction" => s.cadence_fraction,
    "aging_accel" => s.aging_accel,
    "timing_failures" => s.timing_failures,
    "retries" => s.retries,
    "failed_jobs" => s.failed_jobs,
    "chips_rescanned" => s.chips_rescanned,
    "wasted_kwh" => s.wasted_kwh,
    "rescan_downtime_hours" => s.rescan_downtime_hours,
    "rescan_energy_kwh" => s.rescan_energy_kwh,
    "utility_kwh" => s.utility_kwh,
    "deadline_misses" => s.deadline_misses,
});

/// Re-profile cadences swept, as fractions of the analytically safe
/// re-profile interval (`None` = frozen plan, never re-scanned).
pub const SWEEP_CADENCES: [Option<f64>; 4] = [Some(0.1), Some(0.5), Some(2.0), None];
/// Aging time accelerations swept (stress hours per busy hour). Chosen
/// so that over the one-day run a busy chip's cumulative drift clearly
/// crosses the 10 mV scan guardband (a frozen plan fails jobs) while
/// staying well inside the DVFS table's absolute headroom — past that
/// the chip is wearing out and no re-profiling cadence can save it.
pub const SWEEP_ACCELS: [f64; 2] = [1000.0, 2000.0];

/// Days the calendar advances per simulated day of load (the wear of a
/// fleet running this duty cycle continuously).
const STRIDE_DAYS: u32 = 60;
/// Rounds simulated.
const ROUNDS: u32 = 10;
/// Re-profile cadence (rounds) in the maintained variant.
const RESCAN_EVERY: u32 = 3;

fn one_variant(cfg: &ExpConfig, rescan: bool) -> Vec<Round> {
    let aging = AgingModel::default();
    let mut fleet = Fleet::generate(
        cfg.fleet_size,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        cfg.seed,
    );
    let scanner = Scanner::new(ScannerConfig {
        test_kind: TestKind::Sbft,
        ..ScannerConfig::default()
    });
    let mut scan = scanner.profile_fleet(&fleet, cfg.seed);
    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        let rescanned = rescan && round > 0 && round % RESCAN_EVERY == 0;
        if rescanned {
            scan = scanner.profile_fleet(&fleet, cfg.seed + round as u64);
        }
        let plan = OperatingPlan::from_scanned(&fleet, &scan.measured_vmin);
        // Count hazards against the *current* silicon before running.
        let top = fleet.dvfs.max_level();
        let unsafe_chips = fleet
            .chips
            .iter()
            .filter(|c| {
                fleet
                    .dvfs
                    .levels()
                    .any(|l| plan.applied_voltage(c.id, l) < c.vmin_chip(l, false))
            })
            .count();
        let sim = cfg
            .sim(Scheme::ScanEffi)
            .seed(cfg.seed + round as u64)
            .build();
        let workload = sim.workload().clone();
        let report = iscope::run_simulation(iscope::SimInput {
            scheme_name: "ScanEffi".into(),
            fleet: fleet.clone(),
            plan: plan.clone().into(),
            placement: Scheme::ScanEffi.placement(),
            supply: iscope_energy::Supply::utility_only(),
            cooling: CoolingModel::default(),
            workload,
            seed: cfg.seed + round as u64,
            trace_interval: None,
            dvfs_mode: iscope::DvfsMode::GlobalLevel,
            deferral: None,
            in_situ: None,
            fault_injection: None,
            surplus_signal: iscope::SurplusSignal::Instantaneous,
            audit: cfg.audit.then(iscope::AuditConfig::default),
            telemetry: None,
            carbon: None,
        });
        // Advance the calendar: each chip wears by its busy hours scaled
        // to the stride, at its plan voltage.
        for (chip, &hours) in fleet.chips.iter_mut().zip(&report.usage_hours) {
            let v = plan.applied_voltage(chip.id, top);
            aging.age_chip(chip, hours * STRIDE_DAYS as f64, v, 1.375);
        }
        rounds.push(Round {
            day: (round + 1) * STRIDE_DAYS,
            utility_kwh: report.utility_kwh(),
            unsafe_chips,
            rescanned,
        });
    }
    rounds
}

/// Runs one sweep cell: a full simulation with runtime fault injection
/// at the given cadence fraction (`None` = frozen) and aging
/// acceleration. Job runtimes are capped at 15 minutes so per-attempt
/// drift stays inside the scan guardband — otherwise attempt length, not
/// cadence, would decide safety and every cadence would fail jobs.
fn sweep_cell(cfg: &ExpConfig, frac: Option<f64>, accel: f64) -> SweepCell {
    // A lower availability floor than the default lets due chips drain
    // promptly even when many come due together — at fleet scale the
    // queue for re-scan slots, not the cadence itself, is what lets
    // drift sneak past the guardband.
    let reprofile = frac.map(|fraction| ReprofileConfig {
        policy: ReprofilePolicy::Adaptive { fraction },
        check_interval: SimDuration::from_mins(10),
        min_available_fraction: 0.4,
        ..ReprofileConfig::default()
    });
    let fault = FaultInjectionConfig {
        model: FailureModel {
            time_acceleration: accel,
            jitter_v_sd: 0.0002,
            ..FailureModel::default()
        },
        reprofile,
        ..FaultInjectionConfig::default()
    };
    let report = GreenDatacenterSim::builder()
        .fleet_size(cfg.fleet_size)
        .scheme(Scheme::ScanFair)
        .synthetic_trace(SyntheticTrace {
            num_jobs: cfg.jobs,
            max_cpus: cfg.max_cpus,
            runtime_clamp_s: (300.0, 900.0),
            // Uniform arrivals keep committed chains shallow: a draining
            // chip must still run whatever is queued behind it, and deep
            // burst-time chains would let drift cross the guardband no
            // matter how tight the cadence is.
            diurnal_amplitude: 0.0,
            ..SyntheticTrace::default()
        })
        .seed(cfg.seed)
        .fault_injection(fault)
        .build()
        .run();
    let f = report
        .faults
        .expect("fault stats present when injection is enabled");
    SweepCell {
        cadence: frac.map_or_else(|| "frozen".into(), |x| format!("{x:.2}x")),
        cadence_fraction: frac,
        aging_accel: accel,
        timing_failures: f.timing_failures,
        retries: f.retries,
        failed_jobs: f.failed_jobs,
        chips_rescanned: f.chips_rescanned,
        wasted_kwh: f.wasted_kwh,
        rescan_downtime_hours: f.rescan_downtime_hours,
        rescan_energy_kwh: f.rescan_energy_kwh,
        utility_kwh: report.utility_kwh(),
        deadline_misses: report.deadline_misses,
    }
}

/// Runs the full cadence × aging sweep (cells in parallel, row-major
/// accel × cadence order preserved).
pub fn run_sweep(cfg: &ExpConfig) -> Vec<SweepCell> {
    let mut grid = Vec::new();
    for &accel in &SWEEP_ACCELS {
        for &frac in &SWEEP_CADENCES {
            grid.push((frac, accel));
        }
    }
    iscope::experiments::sweep(&grid, |&(frac, accel)| sweep_cell(cfg, frac, accel))
}

/// CI smoke gate for the fault-injection subsystem: at bench scale, a
/// frozen plan under accelerated aging must inject timing failures, and
/// a tight re-profiling cadence must prevent every one of them — with
/// both sides reproducing bit-identically. Panics (failing the gate)
/// otherwise.
pub fn fault_smoke() {
    let cfg = ExpConfig::new(ExpScale::Fast);
    let frozen = sweep_cell(&cfg, None, SWEEP_ACCELS[0]);
    assert!(
        frozen.timing_failures > 0,
        "frozen plan injected no failures: {frozen:?}"
    );
    let tight = sweep_cell(&cfg, Some(0.1), SWEEP_ACCELS[0]);
    assert!(
        tight.chips_rescanned > 0,
        "tight cadence never re-scanned: {tight:?}"
    );
    assert_eq!(
        tight.timing_failures, 0,
        "tight cadence failed to prevent failures: {tight:?}"
    );
    let replay = sweep_cell(&cfg, None, SWEEP_ACCELS[0]);
    assert_eq!(
        frozen.timing_failures, replay.timing_failures,
        "failure sequence not reproducible"
    );
    assert_eq!(frozen.utility_kwh, replay.utility_kwh);
    println!(
        "fault-smoke ok: frozen {} failures ({} retries, {:.2} kWh wasted); \
         tight cadence 0 failures across {} re-scans",
        frozen.timing_failures, frozen.retries, frozen.wasted_kwh, tight.chips_rescanned
    );
}

/// Runs both round-based variants and the in-run sweep.
pub fn run(cfg: &ExpConfig) -> Lifetime {
    Lifetime {
        maintained: one_variant(cfg, true),
        frozen: one_variant(cfg, false),
        sweep: run_sweep(cfg),
    }
}

impl Lifetime {
    /// Renders the two trajectories side by side.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "## lifetime — aging silicon under a frozen vs maintained profile\n\
             (each round = 1 simulated day of load standing in for 60 calendar days)\n\
             day    frozen: unsafe chips / kWh      maintained: unsafe chips / kWh\n",
        );
        for (f, m) in self.frozen.iter().zip(&self.maintained) {
            out.push_str(&format!(
                "{:>4}   {:>13} / {:>7.1}        {:>13} / {:>7.1}{}\n",
                f.day,
                f.unsafe_chips,
                f.utility_kwh,
                m.unsafe_chips,
                m.utility_kwh,
                if m.rescanned { "  <- re-scan" } else { "" },
            ));
        }
        out.push_str(
            "A frozen profile silently accumulates unsafe chips as Min Vdd\n\
             drifts; periodic SBFT re-scans keep the fleet safe (SIII.C).\n",
        );
        out.push_str(
            "\n## lifetime-sweep — re-profile cadence x aging rate (in-run faults)\n\
             (cadence as a fraction of the analytically safe interval)\n\
             accel  cadence   failures  retries  lost  rescans  downtime h  wasted kWh  misses\n",
        );
        for c in &self.sweep {
            out.push_str(&format!(
                "{:>5.0}  {:>7}   {:>8}  {:>7}  {:>4}  {:>7}  {:>10.2}  {:>10.3}  {:>6}\n",
                c.aging_accel,
                c.cadence,
                c.timing_failures,
                c.retries,
                c.failed_jobs,
                c.chips_rescanned,
                c.rescan_downtime_hours,
                c.wasted_kwh,
                c.deadline_misses,
            ));
        }
        out.push_str(
            "Stale plans fail jobs (wasted work, misses); over-tight cadences\n\
             buy nothing extra at more downtime. The sweet spot is between.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    #[test]
    fn frozen_profiles_decay_and_maintenance_prevents_it() {
        let l = run(&ExpConfig::new(ExpScale::Fast));
        assert_eq!(l.frozen.len(), ROUNDS as usize);
        // Round 0 is safe in both variants (fresh scan).
        assert_eq!(l.frozen[0].unsafe_chips, 0);
        assert_eq!(l.maintained[0].unsafe_chips, 0);
        // The frozen fleet eventually runs unsafe chips.
        let frozen_end = l.frozen.last().unwrap().unsafe_chips;
        assert!(
            frozen_end > 0,
            "frozen profile never became unsafe: {:?}",
            l.frozen
        );
        // Maintenance keeps hazards strictly below the frozen trajectory
        // at the end, and re-scans actually happened.
        let maintained_end = l.maintained.last().unwrap().unsafe_chips;
        assert!(
            maintained_end < frozen_end,
            "re-profiling did not help: {maintained_end} vs {frozen_end}"
        );
        assert!(l.maintained.iter().any(|r| r.rescanned));
        // Hazard counts only grow between re-scans (drift is monotone).
        for w in l.frozen.windows(2) {
            assert!(w[1].unsafe_chips >= w[0].unsafe_chips);
        }
    }

    #[test]
    fn cadence_sweep_shows_the_staleness_sweet_spot() {
        let cfg = ExpConfig::new(ExpScale::Fast);
        let cells = run_sweep(&cfg);
        assert_eq!(cells.len(), SWEEP_CADENCES.len() * SWEEP_ACCELS.len());
        for &accel in &SWEEP_ACCELS {
            let row: Vec<&SweepCell> = cells.iter().filter(|c| c.aging_accel == accel).collect();
            let frozen = row
                .iter()
                .find(|c| c.cadence_fraction.is_none())
                .expect("frozen cell");
            let tight = row
                .iter()
                .find(|c| c.cadence_fraction == Some(0.1))
                .expect("tight cell");
            // A frozen plan under accelerated aging must fail jobs; a
            // cadence well inside the safe interval must prevent all of
            // them, and must actually be re-scanning to do so.
            assert!(
                frozen.timing_failures > 0,
                "frozen cell at accel {accel} never failed: {frozen:?}"
            );
            assert!(frozen.wasted_kwh > 0.0);
            assert_eq!(
                tight.timing_failures, 0,
                "tight cadence at accel {accel} still failed: {tight:?}"
            );
            assert!(tight.chips_rescanned > 0);
            assert!(tight.rescan_downtime_hours > 0.0);
            // Tighter cadences re-scan at least as often as looser ones.
            let loose = row
                .iter()
                .find(|c| c.cadence_fraction == Some(2.0))
                .expect("loose cell");
            assert!(
                tight.chips_rescanned >= loose.chips_rescanned,
                "tight cadence re-scanned less than loose: {tight:?} vs {loose:?}"
            );
        }
        // The same cell reproduces exactly: injection is seed-determined.
        let again = sweep_cell(&cfg, None, SWEEP_ACCELS[0]);
        let first = &cells[SWEEP_CADENCES.len() - 1];
        assert_eq!(first.timing_failures, again.timing_failures);
        assert_eq!(first.utility_kwh, again.utility_kwh);
        assert_eq!(first.deadline_misses, again.deadline_misses);
    }
}
