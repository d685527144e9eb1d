//! `iscope-exp carbon` — carbon/price-aware scheduling sweep.
//!
//! Policy {off, deferral, suspend/resume} × intensity trace {flat,
//! diurnal} on a utility-only supply, every cell under the strict
//! conservation auditor (whose independent `∫ intensity × utility_W dt`
//! and `∫ price × draw_W dt` re-integration panics the run on any
//! divergence from the booked meters).
//!
//! Utility-only on purpose: the schemes keep demand inside the wind
//! budget whenever one exists, and a cell whose utility draw is zero has
//! nothing for the carbon or price meters to book. The flat-trace rows
//! are the control: a policy cannot shift anything when the intensity
//! never crosses its threshold, so those rows must match "off" on every
//! schedule-shape column.

use crate::common::{ExpConfig, ExpScale, ExpTable};
use iscope::experiments::sweep;
use iscope::prelude::*;
use iscope::telemetry::render_jsonl;
use iscope::{AuditConfig, RunReport, TelemetryConfig};

/// Deferral threshold (gCO2/kWh) — crossed daily by the diurnal trace.
pub const DEFER_GCO2: f64 = 450.0;
/// Suspension threshold (gCO2/kWh) — the diurnal peak's upper band.
pub const SUSPEND_GCO2: f64 = 480.0;
/// Diurnal intensity: 420 ± 180 gCO2/kWh peaking at 18:00.
pub const INTENSITY_BASE: f64 = 420.0;

/// The carbon-awareness policies swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No carbon config at all (the baseline bit-pattern).
    Off,
    /// Hold low-urgency arrivals while the intensity is high.
    Deferral,
    /// Preempt and requeue low-urgency gangs at the intensity peak.
    SuspendResume,
}

impl Policy {
    /// All swept policies.
    pub const ALL: [Policy; 3] = [Policy::Off, Policy::Deferral, Policy::SuspendResume];

    fn config(self) -> Option<CarbonConfig> {
        match self {
            Policy::Off => None,
            Policy::Deferral => Some(CarbonConfig::deferral(DEFER_GCO2)),
            Policy::SuspendResume => Some(CarbonConfig::suspend_resume(SUSPEND_GCO2)),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Policy::Off => "Off",
            Policy::Deferral => "Defer",
            Policy::SuspendResume => "Susp/Res",
        }
    }
}

/// Output of the carbon sweep.
#[derive(Debug, Clone)]
pub struct Carbon {
    /// One row per policy × trace cell.
    pub table: ExpTable,
}

iscope::to_val!(Carbon, |c| {
    "table" => c.table,
});

/// Signal pair for a cell: carbon intensity (flat or diurnal) plus the
/// same time-of-use price either way.
fn signals(cfg: &ExpConfig, diurnal: bool) -> (SignalTrace, SignalTrace) {
    let iv = SimDuration::from_mins(30);
    let span = cfg.wind_span;
    let intensity = if diurnal {
        SignalTrace::diurnal(iv, span, INTENSITY_BASE, 180.0, 18.0)
    } else {
        let cells = (span.as_millis() / iv.as_millis()) as usize;
        SignalTrace::constant(iv, INTENSITY_BASE, cells)
    };
    let price = SignalTrace::time_of_use(iv, span, 0.08, 0.30, 16.0, 21.0);
    (intensity, price)
}

fn cell(cfg: &ExpConfig, policy: Policy, diurnal: bool) -> RunReport {
    let (intensity, price) = signals(cfg, diurnal);
    let mut sim = cfg
        .sim(Scheme::ScanFair)
        .supply(
            Supply::utility_only()
                .with_carbon(intensity)
                .with_utility_price(price),
        )
        .audit(AuditConfig::default());
    if let Some(c) = policy.config() {
        sim = sim.carbon(c);
    }
    sim.build().run()
}

/// The six swept cells with their row labels.
fn cells() -> Vec<(Policy, bool)> {
    let mut v = Vec::new();
    for diurnal in [false, true] {
        for policy in Policy::ALL {
            v.push((policy, diurnal));
        }
    }
    v
}

fn row_label(policy: Policy, diurnal: bool) -> String {
    let trace = if diurnal { "diurnal" } else { "flat" };
    format!("{}/{trace}", policy.label())
}

/// Runs the sweep (every cell strictly audited).
pub fn run(cfg: &ExpConfig) -> Carbon {
    let grid = cells();
    let reports = sweep(&grid, |&(policy, diurnal)| cell(cfg, policy, diurnal));
    let rows = grid
        .iter()
        .zip(&reports)
        .map(|(&(policy, diurnal), r)| {
            let stats = r.carbon.unwrap_or_default();
            (
                row_label(policy, diurnal),
                vec![
                    r.costs.gco2 / 1e3,
                    r.costs.total_usd(),
                    r.deadline_misses as f64,
                    stats.deferrals as f64,
                    stats.suspensions as f64,
                    stats.wasted_kwh,
                ],
            )
        })
        .collect();
    Carbon {
        table: ExpTable {
            id: "carbon".into(),
            title: "carbon/price-aware scheduling, utility-only, strict audit".into(),
            columns: vec![
                "kgCO2".into(),
                "cost USD".into(),
                "misses".into(),
                "defers".into(),
                "suspends".into(),
                "waste kWh".into(),
            ],
            rows,
        },
    }
}

impl Carbon {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out = self.table.render();
        out.push_str(
            "Flat rows are the control (no threshold ever crossed); on the\n\
             diurnal trace deferral shifts low-urgency work off the peak and\n\
             suspend/resume preempts through it at a re-run energy cost.\n",
        );
        out
    }
}

/// CI gate: the sweep's mechanisms fire, its books close strictly, and
/// the carbon-off path is byte-identical to runs with a neutral config
/// or a constant price trace at the flat book price.
pub fn smoke() {
    let cfg = ExpConfig::new(ExpScale::Fast);

    // 1. The strict auditor (default config) panics inside any cell whose
    //    re-integrated cost/carbon books diverge; reaching here means all
    //    six cells closed their books.
    let grid = cells();
    let reports = sweep(&grid, |&(policy, diurnal)| cell(&cfg, policy, diurnal));
    for ((policy, diurnal), r) in grid.iter().zip(&reports) {
        let label = row_label(*policy, *diurnal);
        assert!(
            r.audit.as_ref().expect("audit on").clean(),
            "carbon-smoke: {label} breached invariants"
        );
        assert_eq!(r.jobs, cfg.jobs, "carbon-smoke: {label} lost jobs");
        assert!(
            r.costs.gco2 > 0.0,
            "carbon-smoke: {label} booked no emissions"
        );
        match policy {
            Policy::Off => assert!(r.carbon.is_none(), "carbon-smoke: {label} reported stats"),
            Policy::Deferral => {
                let s = r.carbon.expect("stats");
                assert_eq!(s.suspensions, 0, "carbon-smoke: {label} preempted");
                assert_eq!(
                    s.deferrals > 0,
                    *diurnal,
                    "carbon-smoke: {label} deferral/trace mismatch"
                );
            }
            Policy::SuspendResume => {
                let s = r.carbon.expect("stats");
                assert_eq!(
                    s.suspensions > 0,
                    *diurnal,
                    "carbon-smoke: {label} suspension/trace mismatch"
                );
            }
        }
    }

    // 2. On the flat trace no threshold is ever crossed, so both policies
    //    must leave the schedule where "off" put it. The integrals only
    //    match to ULPs: the sampling events split the accounting
    //    intervals, which reorders the (exact-valued) summation.
    let off_flat = &reports[0];
    for (i, policy) in Policy::ALL.iter().enumerate().skip(1) {
        let r = &reports[i];
        assert_eq!(
            (r.deadline_misses, r.makespan),
            (off_flat.deadline_misses, off_flat.makespan),
            "carbon-smoke: {} moved the schedule on a flat trace",
            policy.label()
        );
        let rel = (r.costs.gco2 - off_flat.costs.gco2).abs() / off_flat.costs.gco2.max(1.0);
        assert!(
            rel < 1e-9,
            "carbon-smoke: {} moved emissions on a flat trace (rel {rel:.2e})",
            policy.label()
        );
    }

    // 3. Bit-identity of the carbon-off path: whole-report Debug text and
    //    telemetry bytes against (a) a neutral config, (b) a constant
    //    price trace holding the flat book price.
    let bare = || {
        cfg.sim(Scheme::ScanFair)
            .audit(AuditConfig::default())
            .telemetry(TelemetryConfig::default())
    };
    let plain = bare().build().run();
    let neutral = bare().carbon(CarbonConfig::default()).build().run();
    let priced = bare()
        .supply(
            Supply::utility_only().with_utility_price(SignalTrace::constant(
                SimDuration::from_mins(30),
                plain.prices.utility_usd_per_kwh,
                (cfg.wind_span.as_millis() / SimDuration::from_mins(30).as_millis()) as usize,
            )),
        )
        .build()
        .run();
    for (other, label) in [(&neutral, "neutral config"), (&priced, "constant price")] {
        assert_eq!(
            format!("{plain:?}"),
            format!("{other:?}"),
            "carbon-smoke: {label} diverged from carbon-off (whole report)"
        );
        assert_eq!(
            render_jsonl(plain.telemetry.as_deref().unwrap_or(&[])),
            render_jsonl(other.telemetry.as_deref().unwrap_or(&[])),
            "carbon-smoke: {label} diverged from carbon-off (telemetry)"
        );
    }

    let off = reports[3].costs.gco2;
    let defer = reports[4].costs.gco2;
    println!(
        "carbon-smoke OK: 6 strictly-audited cells, deferral moved diurnal \
         emissions {off:.0} -> {defer:.0} gCO2, off-path bit-identity held"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cells_cover_the_grid() {
        let grid = cells();
        assert_eq!(grid.len(), 6);
        let c = run(&ExpConfig::new(ExpScale::Fast));
        assert_eq!(c.table.rows.len(), 6);
        // Control property: flat-trace policies book the same emissions
        // as "off" to within summation-order ULPs (thresholds never
        // crossed, schedule untouched).
        let off = c.table.row("Off/flat").unwrap()[0];
        for row in ["Defer/flat", "Susp/Res/flat"] {
            let got = c.table.row(row).unwrap()[0];
            assert!(
                (got - off).abs() / off.max(1.0) < 1e-9,
                "{row}: {got} vs {off}"
            );
        }
        // The diurnal policies actually fire.
        assert!(c.table.row("Defer/diurnal").unwrap()[3] > 0.0);
        assert!(c.table.row("Susp/Res/diurnal").unwrap()[4] > 0.0);
    }
}
