//! Run reports: everything a simulation measures, serializable for the
//! experiment harness.

use iscope_dcsim::{Running, SimTime, TimeSeries};
use iscope_energy::{CostSplit, EnergyLedger, PriceBook};

/// The measured outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme name (e.g. `"ScanFair"`).
    pub scheme: String,
    /// Wind/utility energy split over the run.
    pub ledger: EnergyLedger,
    /// Prices used for the cost columns.
    pub prices: PriceBook,
    /// Time-integrated money and emissions: `∫ price(t) × utility_W(t) dt`
    /// and `∫ intensity(t) × utility_W(t) dt` booked exactly over the
    /// event intervals. Without price/carbon traces this degenerates to
    /// `kWh × flat price` (bit-exactly) and zero gCO2.
    pub costs: CostSplit,
    /// Number of jobs simulated.
    pub jobs: usize,
    /// Jobs that finished after their deadline.
    pub deadline_misses: usize,
    /// Completion time of the last job.
    pub makespan: SimTime,
    /// Per-processor cumulative busy time, in hours.
    pub usage_hours: Vec<f64>,
    /// Sampled power series (demand / wind budget / utility draw / wind
    /// draw), present when tracing was enabled.
    pub power_series: Vec<TimeSeries>,
    /// In-situ profiling statistics, when opportunistic scanning ran
    /// inside the simulation.
    pub profiling: Option<ProfilingStats>,
    /// Runtime fault-injection statistics, when the timing-failure model
    /// was enabled.
    pub faults: Option<FaultStats>,
    /// Carbon/price-aware policy statistics, when an active
    /// [`iscope_sched::CarbonConfig`] drove deferral or suspend/resume.
    pub carbon: Option<CarbonStats>,
    /// What the invariant auditor found, when auditing was enabled.
    pub audit: Option<AuditReport>,
    /// Fixed-cadence telemetry samples, when telemetry recording was
    /// enabled (see [`crate::telemetry`] for the JSONL codec).
    pub telemetry: Option<Vec<crate::telemetry::TelemetryRecord>>,
}

/// The measured outcome of a federated run: one full [`RunReport`] per
/// site (each with its own ledger, audit, fault stats, and telemetry)
/// plus the routing rollup.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// Name of the router policy that distributed the load.
    pub router: String,
    /// Per-site reports; the index is the site id.
    pub sites: Vec<RunReport>,
    /// Arrival routing decisions taken (one per submitted job).
    pub routed_jobs: u64,
    /// Cross-site requeues: failed gangs extracted from their origin site
    /// and re-admitted elsewhere after the WAN migration delay.
    pub migrations: u64,
}

impl FederationReport {
    /// Jobs submitted to the federation. A migrated job is admitted at
    /// two sites (its origin closes it as migrated-out), so this subtracts
    /// the migrations from the per-site admission counts.
    pub fn jobs(&self) -> usize {
        let admitted: usize = self.sites.iter().map(|s| s.jobs).sum();
        admitted - self.migrations as usize
    }

    /// Total wind energy drawn across sites, kWh.
    pub fn wind_kwh(&self) -> f64 {
        self.sites.iter().map(|s| s.wind_kwh()).sum()
    }

    /// Total utility energy drawn across sites, kWh.
    pub fn utility_kwh(&self) -> f64 {
        self.sites.iter().map(|s| s.utility_kwh()).sum()
    }

    /// Fraction of federation energy served by renewables — the headline
    /// the geo-router optimizes.
    pub fn wind_fraction(&self) -> f64 {
        let total = self.wind_kwh() + self.utility_kwh();
        if total == 0.0 {
            0.0
        } else {
            self.wind_kwh() / total
        }
    }

    /// Deadline misses across all sites (migrated-then-abandoned jobs
    /// count once, at the site that abandoned them).
    pub fn deadline_misses(&self) -> usize {
        self.sites.iter().map(|s| s.deadline_misses).sum()
    }

    /// Federation miss rate over submitted jobs.
    pub fn miss_rate(&self) -> f64 {
        let jobs = self.jobs();
        if jobs == 0 {
            0.0
        } else {
            self.deadline_misses() as f64 / jobs as f64
        }
    }

    /// Completion time of the last job anywhere in the federation.
    pub fn makespan(&self) -> SimTime {
        self.sites
            .iter()
            .map(|s| s.makespan)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Utility cost across sites, USD.
    pub fn utility_cost_usd(&self) -> f64 {
        self.sites.iter().map(|s| s.utility_cost_usd()).sum()
    }

    /// Utility-mix emissions across sites, grams of CO2.
    pub fn gco2(&self) -> f64 {
        self.sites.iter().map(|s| s.gco2()).sum()
    }

    /// Time-integrated cost across sites, USD.
    pub fn integrated_cost_usd(&self) -> f64 {
        self.sites.iter().map(|s| s.integrated_cost_usd()).sum()
    }

    /// One-line rollup for logs and tables.
    pub fn summary(&self) -> String {
        format!(
            "{} | {} sites | {} jobs | wind {:.1}% | utility {:.1} kWh | misses {} | migrations {}",
            self.router,
            self.sites.len(),
            self.jobs(),
            100.0 * self.wind_fraction(),
            self.utility_kwh(),
            self.deadline_misses(),
            self.migrations,
        )
    }
}

/// What the run-wide invariant auditor measured and concluded (DESIGN.md
/// §4). Built only when [`crate::simulation::AuditConfig`] was set; a
/// strict audit panics before this report is ever observable, so a report
/// with violations implies `strict: false`.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Energy intervals independently integrated.
    pub intervals: u64,
    /// Demand-snapshot cross-checks performed (one per demand refresh).
    pub demand_checks: u64,
    /// The auditor's independently integrated wind energy (J).
    pub audit_wind_j: f64,
    /// The auditor's independently integrated utility energy (J).
    pub audit_utility_j: f64,
    /// `|audit total − ledger total| / max(1, ledger total)`.
    pub energy_rel_residual: f64,
    /// Whether every chip's integrated busy time matched the per-attempt
    /// usage sums exactly (integer milliseconds).
    pub busy_time_ok: bool,
    /// Whether the independent deadline recount matched the ledger.
    pub deadline_ok: bool,
    /// Breaches beyond the recorded-detail cap.
    pub suppressed_violations: u64,
    /// Recorded invariant breaches (empty on a clean run).
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether the run passed every invariant check.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed_violations == 0
    }
}

/// What the carbon/price-aware policy did to a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CarbonStats {
    /// Arrivals held back because the signal was above the deferral
    /// threshold (counted once, at arrival).
    pub deferrals: u64,
    /// Running gangs preempted because the signal crossed the suspension
    /// threshold (a gang may be suspended more than once).
    pub suspensions: u64,
    /// Energy burned by suspended attempts, kWh (already in the ledger;
    /// broken out here as the policy's waste).
    pub wasted_kwh: f64,
}

/// What the in-situ scanner accomplished during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingStats {
    /// Chips whose scan completed and whose plan entry was upgraded.
    pub chips_profiled: usize,
    /// Total chips in the fleet.
    pub fleet_size: usize,
    /// Energy drawn by chips under test, kWh (included in the ledger;
    /// broken out here as the overhead).
    pub profiling_energy_kwh: f64,
    /// Stability tests executed.
    pub tests_run: u64,
}

/// What runtime fault injection did to a run (the staleness loop's
/// cost side: failed work, recovery churn, and re-scan overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultStats {
    /// Timing failures raised (a job may fail more than once).
    pub timing_failures: u64,
    /// Retries scheduled after failures.
    pub retries: u64,
    /// Jobs abandoned after exhausting their retry budget (each also
    /// counts as a deadline miss).
    pub failed_jobs: usize,
    /// Chips still marked suspect at the end of the run.
    pub suspect_chips: usize,
    /// Chips re-scanned by the periodic re-profiling loop.
    pub chips_rescanned: u64,
    /// Energy burned by failed attempts, kWh (already in the ledger;
    /// broken out here as the waste).
    pub wasted_kwh: f64,
    /// Summed per-chip downtime spent in re-scans, hours.
    pub rescan_downtime_hours: f64,
    /// Energy drawn by chips under re-scan, kWh (in the ledger; broken
    /// out as the re-profiling overhead).
    pub rescan_energy_kwh: f64,
}

impl RunReport {
    /// Utility energy drawn, kWh.
    pub fn utility_kwh(&self) -> f64 {
        self.ledger.utility_kwh()
    }

    /// Wind energy drawn, kWh.
    pub fn wind_kwh(&self) -> f64 {
        self.ledger.wind_kwh()
    }

    /// Cost of the utility share, USD (flat book price; see
    /// [`RunReport::costs`] for the time-integrated booking).
    pub fn utility_cost_usd(&self) -> f64 {
        self.ledger.utility_cost_usd(&self.prices)
    }

    /// Total (wind + utility) energy cost, USD.
    pub fn total_cost_usd(&self) -> f64 {
        self.ledger.total_cost_usd(&self.prices)
    }

    /// Utility-mix emissions over the run, grams of CO2 (zero unless a
    /// carbon-intensity trace was attached to the supply).
    pub fn gco2(&self) -> f64 {
        self.costs.gco2
    }

    /// Time-integrated total cost, USD: the exactly-booked utility
    /// integral plus the flat-priced wind share.
    pub fn integrated_cost_usd(&self) -> f64 {
        self.costs.total_usd()
    }

    /// Variance of per-processor utilization time (hours²) — the Fig. 9
    /// lifetime-balance metric.
    pub fn usage_variance(&self) -> f64 {
        self.usage_stats().variance()
    }

    /// Mean per-processor utilization time (hours).
    pub fn usage_mean(&self) -> f64 {
        self.usage_stats().mean()
    }

    /// Streaming stats over per-processor usage.
    pub fn usage_stats(&self) -> Running {
        let mut r = Running::new();
        for &h in &self.usage_hours {
            r.push(h);
        }
        r
    }

    /// Fraction of jobs that missed their deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.jobs as f64
        }
    }

    /// A named series from the power trace, if recorded.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.power_series.iter().find(|s| s.name == name)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<9} utility {:>9.1} kWh  wind {:>9.1} kWh  cost ${:>8.2} (utility ${:>8.2})  \
             misses {}/{} ({:.1}%)  usage var {:.3} h^2  makespan {}",
            self.scheme,
            self.utility_kwh(),
            self.wind_kwh(),
            self.total_cost_usd(),
            self.utility_cost_usd(),
            self.deadline_misses,
            self.jobs,
            100.0 * self.miss_rate(),
            self.usage_variance(),
            self.makespan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            scheme: "ScanFair".into(),
            ledger: EnergyLedger {
                wind_j: 7.2e9,    // 2000 kWh
                utility_j: 3.6e9, // 1000 kWh
            },
            prices: PriceBook::paper_default(),
            costs: CostSplit {
                utility_usd: 130.0,
                wind_usd: 100.0,
                gco2: 420_000.0,
            },
            jobs: 100,
            deadline_misses: 3,
            makespan: SimTime::from_secs(86_400),
            usage_hours: vec![1.0, 2.0, 3.0],
            power_series: vec![],
            profiling: None,
            faults: None,
            carbon: None,
            audit: None,
            telemetry: None,
        }
    }

    #[test]
    fn cost_columns() {
        let r = report();
        assert!((r.utility_kwh() - 1000.0).abs() < 1e-9);
        assert!((r.wind_kwh() - 2000.0).abs() < 1e-9);
        assert!((r.utility_cost_usd() - 130.0).abs() < 1e-9);
        assert!((r.total_cost_usd() - 230.0).abs() < 1e-9);
        assert!((r.gco2() - 420_000.0).abs() < 1e-9);
        assert!((r.integrated_cost_usd() - 230.0).abs() < 1e-9);
    }

    #[test]
    fn usage_statistics() {
        let r = report();
        assert!((r.usage_mean() - 2.0).abs() < 1e-12);
        assert!((r.usage_variance() - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.miss_rate() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_the_scheme() {
        assert!(report().summary().contains("ScanFair"));
    }
}
