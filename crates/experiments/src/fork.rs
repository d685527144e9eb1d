//! `iscope-exp fork` — what-if branching from a mid-run snapshot
//! (DESIGN.md §3g).
//!
//! One ScanFair run is paused halfway through its makespan and its
//! snapshot is branched under alternative futures: the four other
//! schemes, a utility-only grid (the wind farm drops offline at the
//! branch point), and a doubled wind farm. Every branch replays the
//! same admitted jobs from the same mid-run state, so the deltas are
//! attributable to the branched policy/supply alone — the counterfactual
//! the paper's full-rerun comparisons can only approximate.

use crate::common::{ExpConfig, ExpTable};
use iscope::prelude::*;
use iscope::{SimDriver, SimInput};
use iscope_dcsim::SimTime;
use iscope_sched::Scheme;

/// One branched future of the snapshot.
#[derive(Debug, Clone)]
pub struct ForkBranch {
    /// Branch label (`"control"`, scheme names, supply variants).
    pub label: String,
    /// Total makespan, hours (shared history plus the branched tail).
    pub makespan_h: f64,
    /// Wind share of total consumed energy over the whole run.
    pub wind_fraction: f64,
    /// Utility (brown) energy drawn, kWh.
    pub utility_kwh: f64,
    /// Deadline misses over the whole run.
    pub deadline_misses: usize,
}

iscope::to_val!(ForkBranch, |f| {
    "label" => f.label,
    "makespan_h" => f.makespan_h,
    "wind_fraction" => f.wind_fraction,
    "utility_kwh" => f.utility_kwh,
    "deadline_misses" => f.deadline_misses,
});

/// The fork experiment: branch point plus one row per future.
#[derive(Debug, Clone)]
pub struct ForkReport {
    /// When the snapshot was taken, hours into the run.
    pub branch_point_h: f64,
    /// Jobs admitted before the branch (identical in every branch).
    pub jobs: usize,
    /// One outcome per branched future; `branches[0]` is the control.
    pub branches: Vec<ForkBranch>,
}

iscope::to_val!(ForkReport, |f| {
    "branch_point_h" => f.branch_point_h,
    "jobs" => f.jobs,
    "branches" => f.branches,
});

impl ForkReport {
    /// Renders the branch comparison as the harness table.
    pub fn render(&self) -> String {
        let table = ExpTable {
            id: "fork".into(),
            title: format!(
                "what-if branches from one snapshot at t = {:.1} h ({} jobs)",
                self.branch_point_h, self.jobs
            ),
            columns: vec![
                "makespan_h".into(),
                "wind_frac".into(),
                "utility_kwh".into(),
                "misses".into(),
            ],
            rows: self
                .branches
                .iter()
                .map(|b| {
                    (
                        b.label.clone(),
                        vec![
                            b.makespan_h,
                            b.wind_fraction,
                            b.utility_kwh,
                            b.deadline_misses as f64,
                        ],
                    )
                })
                .collect(),
        };
        table.render()
    }
}

fn input(sim: &GreenDatacenterSim) -> SimInput {
    sim.clone().build().into_input()
}

fn branch(label: &str, sim: &GreenDatacenterSim, snapshot: &str) -> ForkBranch {
    let driver = SimDriver::fork(input(sim), snapshot)
        .unwrap_or_else(|e| panic!("fork: branch '{label}' failed to restore: {e}"));
    let (report, _) = driver.finish();
    ForkBranch {
        label: label.to_string(),
        makespan_h: report.makespan.as_millis() as f64 / 3_600_000.0,
        wind_fraction: if report.ledger.total_kwh() > 0.0 {
            report.ledger.wind_kwh() / report.ledger.total_kwh()
        } else {
            0.0
        },
        utility_kwh: report.ledger.utility_kwh(),
        deadline_misses: report.deadline_misses,
    }
}

/// Runs the fork experiment at the config's scale.
pub fn run(cfg: &ExpConfig) -> ForkReport {
    let base = cfg.wind_sim(Scheme::ScanFair, 1.0);

    // Find the halfway point of the uninterrupted run, then pause a
    // second run there and capture its snapshot.
    let (unbroken, _) = SimDriver::new(input(&base)).finish();
    let mid = SimTime::from_millis(unbroken.makespan.as_millis() / 2);
    let mut paused = SimDriver::new(input(&base));
    paused.run_until(mid);
    let jobs = unbroken.jobs;
    let snapshot = paused.snapshot().expect("fork: capture mid-run snapshot");
    drop(paused);

    // The control branch replays the original input — it must reproduce
    // the unbroken run byte-for-byte, which anchors every other row.
    let mut branches = vec![branch("control", &base, &snapshot)];
    let control = &branches[0];
    assert_eq!(
        (control.makespan_h, control.deadline_misses),
        (
            unbroken.makespan.as_millis() as f64 / 3_600_000.0,
            unbroken.deadline_misses
        ),
        "fork: control branch diverged from the uninterrupted run"
    );

    for scheme in Scheme::ALL {
        if scheme == Scheme::ScanFair {
            continue;
        }
        branches.push(branch(
            &format!("{scheme:?}"),
            &cfg.wind_sim(scheme, 1.0),
            &snapshot,
        ));
    }
    branches.push(branch(
        "no-wind",
        &cfg.sim(Scheme::ScanFair).supply(Supply::utility_only()),
        &snapshot,
    ));
    branches.push(branch(
        "wind-x2",
        &cfg.wind_sim(Scheme::ScanFair, 2.0),
        &snapshot,
    ));

    ForkReport {
        branch_point_h: mid.as_millis() as f64 / 3_600_000.0,
        jobs,
        branches,
    }
}
