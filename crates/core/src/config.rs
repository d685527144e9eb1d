//! Fluent configuration for simulation runs.

use crate::report::RunReport;
use crate::simulation::{
    run_simulation, AuditConfig, DeferralConfig, DvfsMode, FaultInjectionConfig, InSituConfig,
    InputPlan, RunStats, SimDriver, SimInput, SurplusSignal,
};
use crate::telemetry::TelemetryConfig;
use iscope_dcsim::SimDuration;
use iscope_energy::Supply;
use iscope_pvmodel::{CoolingModel, DvfsConfig, Fleet, VariationParams};
use iscope_sched::{CarbonConfig, Scheme};
use iscope_workload::{Shaper, SyntheticTrace, Workload};

/// Builder for a [`run`](SimRun::run)-able green-datacenter simulation.
///
/// ```
/// use iscope::prelude::*;
///
/// let report = GreenDatacenterSim::builder()
///     .fleet_size(48)
///     .scheme(Scheme::ScanFair)
///     .synthetic_jobs(40)
///     .seed(7)
///     .build()
///     .run();
/// assert_eq!(report.jobs, 40);
/// ```
#[derive(Debug, Clone)]
pub struct GreenDatacenterSim {
    fleet_size: usize,
    variation: VariationParams,
    dvfs: DvfsConfig,
    scheme: Scheme,
    supply: Supply,
    cooling: CoolingModel,
    workload: Option<Workload>,
    synthetic: SyntheticTrace,
    shaper: Shaper,
    seed: u64,
    trace_interval: Option<SimDuration>,
    dvfs_mode: DvfsMode,
    deferral: Option<DeferralConfig>,
    in_situ: Option<InSituConfig>,
    fault_injection: Option<FaultInjectionConfig>,
    surplus_signal: SurplusSignal,
    per_core_domains: bool,
    audit: Option<AuditConfig>,
    telemetry: Option<TelemetryConfig>,
    carbon: Option<CarbonConfig>,
}

impl GreenDatacenterSim {
    /// Starts a builder with the paper's defaults (utility-only supply,
    /// COP 2.5, ScanFair, 480-processor fleet, 200 synthetic jobs).
    pub fn builder() -> GreenDatacenterSim {
        GreenDatacenterSim {
            fleet_size: 480,
            variation: VariationParams::default(),
            dvfs: DvfsConfig::paper_default(),
            scheme: Scheme::ScanFair,
            supply: Supply::utility_only(),
            cooling: CoolingModel::default(),
            workload: None,
            synthetic: SyntheticTrace {
                num_jobs: 200,
                max_cpus: 32,
                ..SyntheticTrace::default()
            },
            shaper: Shaper::default(),
            seed: 0,
            trace_interval: None,
            dvfs_mode: DvfsMode::default(),
            deferral: None,
            in_situ: None,
            fault_injection: None,
            surplus_signal: SurplusSignal::default(),
            per_core_domains: false,
            audit: None,
            telemetry: None,
            carbon: None,
        }
    }

    /// Number of processors in the fleet.
    pub fn fleet_size(mut self, n: usize) -> Self {
        assert!(n > 0, "fleet cannot be empty");
        self.fleet_size = n;
        self
    }

    /// Process-variation statistics.
    pub fn variation(mut self, v: VariationParams) -> Self {
        self.variation = v;
        self
    }

    /// The scheduling scheme (Table 2).
    pub fn scheme(mut self, s: Scheme) -> Self {
        self.scheme = s;
        self
    }

    /// The power supply.
    pub fn supply(mut self, s: Supply) -> Self {
        self.supply = s;
        self
    }

    /// The cooling model.
    pub fn cooling(mut self, c: CoolingModel) -> Self {
        self.cooling = c;
        self
    }

    /// Use an explicit workload (overrides the synthetic generator).
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = Some(w);
        self
    }

    /// Number of synthetic jobs (when no explicit workload is given).
    pub fn synthetic_jobs(mut self, n: usize) -> Self {
        self.synthetic.num_jobs = n;
        self
    }

    /// Full synthetic-trace configuration.
    pub fn synthetic_trace(mut self, t: SyntheticTrace) -> Self {
        self.synthetic = t;
        self
    }

    /// Fraction of high-urgency jobs (the Fig. 5/6 x-axis).
    pub fn hu_fraction(mut self, f: f64) -> Self {
        self.shaper.hu_fraction = f;
        self
    }

    /// Arrival-rate multiplier (the Fig. 5/6 x-axis; 5.0 ⇒ 5X).
    pub fn arrival_rate(mut self, r: f64) -> Self {
        self.shaper.arrival_rate = r;
        self
    }

    /// Full shaping configuration.
    pub fn shaper(mut self, s: Shaper) -> Self {
        self.shaper = s;
        self
    }

    /// Master seed (fleet, scan, workload, and placement all derive from
    /// it deterministically).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Record power traces at this interval (Fig. 7 uses 350 s).
    pub fn trace_interval(mut self, iv: SimDuration) -> Self {
        self.trace_interval = Some(iv);
        self
    }

    /// Supply/demand matching strategy (default: the paper's fleet-wide
    /// level stepping; [`DvfsMode::PerJobGreedy`] is the ablation).
    pub fn dvfs_mode(mut self, m: DvfsMode) -> Self {
        self.dvfs_mode = m;
        self
    }

    /// Enables GreenSlot-style job deferral (the macro-only green
    /// scheduling baseline of Goiri et al. \[5\]); composes with any scheme.
    pub fn deferral(mut self, cfg: DeferralConfig) -> Self {
        self.deferral = Some(cfg);
        self
    }

    /// Runs `Scan*` schemes with per-core voltage domains (§III.B): each
    /// core at its own measured Min Vdd instead of the worst sibling's.
    /// Ignored for `Bin*` schemes and in-situ runs.
    pub fn per_core_domains(mut self, on: bool) -> Self {
        self.per_core_domains = on;
        self
    }

    /// ScanFair's wind-surplus detector (default: the paper's
    /// instantaneous comparison; [`SurplusSignal::ForecastAware`] is the
    /// forecast extension).
    pub fn surplus_signal(mut self, s: SurplusSignal) -> Self {
        self.surplus_signal = s;
        self
    }

    /// Enables in-situ opportunistic profiling: the fleet starts on its
    /// factory-bin plan and upgrades chip by chip as the scanner completes
    /// (§III.C / Fig. 3). Pair with a `Scan*` scheme: the scheme's
    /// placement logic then exploits profiles as they appear.
    pub fn in_situ_profiling(mut self, cfg: InSituConfig) -> Self {
        self.in_situ = Some(cfg);
        self
    }

    /// Enables the run-wide invariant auditor (DESIGN.md §4): an
    /// independent shadow of the energy books that cross-checks the
    /// ledger, the incremental demand aggregates, per-chip busy time, and
    /// the deadline count. Observational only — runs are bit-identical
    /// with auditing on or off; a strict config panics on any breach.
    pub fn audit(mut self, cfg: AuditConfig) -> Self {
        self.audit = Some(cfg);
        self
    }

    /// Enables fixed-cadence telemetry recording: one
    /// [`crate::telemetry::TelemetryRecord`] per interval on the report
    /// (supply, demand, utility draw, queue depth, per-level DVFS
    /// occupancy, quarantined chips). Passive sample-and-hold — enabling
    /// it never perturbs the simulation.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Enables carbon/price-aware scheduling: flexible arrivals are
    /// deferred and/or running flexible gangs suspended while the
    /// utility's carbon intensity or spot price is above the configured
    /// thresholds ([`iscope_sched::carbon`]). A config with no threshold
    /// set is inert — the run is bit-identical to never calling this.
    pub fn carbon(mut self, cfg: CarbonConfig) -> Self {
        self.carbon = Some(cfg);
        self
    }

    /// Enables runtime fault injection (the closed staleness loop):
    /// running jobs age their chips, drifted Min Vdd raises timing
    /// failures, failed gangs retry with backoff, and an optional
    /// re-profiling policy refreshes the plan. Off by default; fault-free
    /// runs are bit-identical with or without this code compiled in.
    pub fn fault_injection(mut self, cfg: FaultInjectionConfig) -> Self {
        self.fault_injection = Some(cfg);
        self
    }

    /// Assembles the fleet, operating plan (or the scan that derives it),
    /// and workload.
    pub fn build(self) -> SimRun {
        let fleet = Fleet::generate(
            self.fleet_size,
            self.dvfs.clone(),
            &self.variation,
            self.seed,
        );
        // With in-situ profiling the datacenter has no scan yet: every
        // scheme starts from the factory-bin plan and earns its profile
        // during operation. A scan is deferred to the first site that
        // needs its plan: a restore runs on the snapshot's plan instead.
        let plan = if self.in_situ.is_some() {
            let binning = iscope_pvmodel::Binning::by_efficiency(&fleet, 3);
            iscope_pvmodel::OperatingPlan::from_binning(&fleet, &binning).into()
        } else if self.scheme.profiling() == iscope_sched::Profiling::Scan {
            InputPlan::scan(self.scheme, self.per_core_domains)
        } else {
            self.scheme.build_plan(&fleet, self.seed).into()
        };
        let workload = match self.workload {
            Some(w) => w,
            None => {
                let raw = self.synthetic.generate(self.seed);
                self.shaper.shape(&raw, self.seed)
            }
        };
        let mut input = SimInput {
            scheme_name: self.scheme.name().to_string(),
            fleet,
            plan,
            placement: self.scheme.placement(),
            supply: self.supply,
            cooling: self.cooling,
            workload,
            seed: self.seed,
            trace_interval: self.trace_interval,
            dvfs_mode: self.dvfs_mode,
            deferral: self.deferral,
            in_situ: self.in_situ,
            fault_injection: self.fault_injection,
            surplus_signal: self.surplus_signal,
            audit: self.audit,
            telemetry: self.telemetry,
            carbon: self.carbon,
        };
        // A job can never be wider than the fleet's guaranteed in-service
        // part (note that the paper's datacenter at 4800 CPUs also exceeds
        // its trace's widest job after scaling).
        let max = input.max_gang();
        let mut jobs = std::mem::take(&mut input.workload).into_jobs();
        for j in &mut jobs {
            j.cpus = j.cpus.min(max);
        }
        input.workload = Workload::new(jobs);
        SimRun { input }
    }
}

/// A fully assembled simulation, ready to run.
pub struct SimRun {
    input: SimInput,
}

impl SimRun {
    /// Runs the simulation to completion.
    pub fn run(self) -> RunReport {
        run_simulation(self.input)
    }

    /// Runs the simulation and also returns runtime counters (events,
    /// placements, wall-clock) for the performance harness.
    pub fn run_instrumented(self) -> (RunReport, RunStats) {
        SimDriver::new(self.input).finish()
    }

    /// The assembled fleet (for inspection before running).
    pub fn fleet(&self) -> &Fleet {
        &self.input.fleet
    }

    /// The assembled workload (for inspection before running).
    pub fn workload(&self) -> &Workload {
        &self.input.workload
    }

    /// Unwraps the assembled [`SimInput`] — the per-site configuration
    /// unit a [`crate::federation::FederationInput`] is built from.
    pub fn into_input(self) -> SimInput {
        self.input
    }
}
