//! The green-datacenter discrete-event simulation: run configuration
//! ([`SimInput`] and its option structs) and the thin single-site driver
//! wiring one [`crate::site::SiteState`] onto the `iscope-dcsim` engine.
//!
//! Event model (see [`crate::site`] for the state machine itself):
//!
//! * `Arrival(i)` — job `i` is submitted; the scheme's placement picks its
//!   processors and the job enters their FIFO queues.
//! * `Completion{job, gen}` — a running job finished (stale generations
//!   from cancelled reschedules are ignored).
//! * `WindSample` — the renewable budget changed (every 10 minutes);
//!   re-run the DVFS budget matcher.
//!
//! Energy is integrated exactly: demand is piecewise-constant between
//! events, wind is piecewise-constant between `WindSample`s, so the
//! ledger's wind/utility split is event-by-event exact.
//!
//! Multi-site runs reuse the same state type under one shared clock —
//! see [`crate::federation`].

use crate::report::RunReport;
use crate::site::{SiteEv, SiteState};
use crate::snapshot::SnapshotError;
use crate::telemetry::TelemetryConfig;
use iscope_dcsim::{Ctx, Engine, Model, SimDuration, SimTime, StopReason};
use iscope_energy::Supply;
use iscope_pvmodel::{CoolingModel, FailureModel, Fleet, OperatingPlan};
use iscope_scanner::{ReprofilePolicy, ScannerConfig};
use iscope_sched::{CarbonConfig, Placement, RetryPolicy};
use iscope_workload::{Job, JobSource, SourceError, Workload};

/// Inputs of one simulation run.
pub struct SimInput {
    /// Display name of the scheme driving placement.
    pub scheme_name: String,
    /// The processor fleet (hidden ground truth).
    pub fleet: Fleet,
    /// Operating plan (applied voltages + scheduler estimates).
    pub plan: OperatingPlan,
    /// Placement policy.
    pub placement: Box<dyn Placement>,
    /// Power supply (utility-only or hybrid).
    pub supply: Supply,
    /// Cooling model applied on top of IT power.
    pub cooling: CoolingModel,
    /// The jobs to run.
    pub workload: Workload,
    /// RNG seed for placement randomness.
    pub seed: u64,
    /// If set, sample the power traces at this interval (Fig. 7 uses
    /// 350 s); `None` disables tracing.
    pub trace_interval: Option<SimDuration>,
    /// How the supply/demand matcher applies DVFS.
    pub dvfs_mode: DvfsMode,
    /// Optional GreenSlot-style job deferral (macro-only green
    /// scheduling, after Goiri et al. \[5\]): hold submitted jobs back
    /// during wind deficit while their slack allows, releasing them when
    /// wind returns or the slack runs out.
    pub deferral: Option<DeferralConfig>,
    /// Optional in-situ profiling: the fleet starts on its factory-bin
    /// plan and the iScope scanner runs opportunistically *during*
    /// operation (§III.C / Fig. 3), upgrading chips to their measured
    /// operating points as their scans complete.
    pub in_situ: Option<InSituConfig>,
    /// Optional runtime fault injection: running jobs age their chips
    /// (accelerated), drifted Min Vdd raises `TimingFailure` events, and
    /// failed gangs are requeued under a bounded-retry policy — the
    /// §III.C staleness loop closed inside the simulator. `None` (the
    /// default everywhere) leaves every code path bit-identical to a
    /// fault-free build.
    pub fault_injection: Option<FaultInjectionConfig>,
    /// How ScanFair decides whether wind is in surplus at placement time.
    pub surplus_signal: SurplusSignal,
    /// Optional run-wide invariant auditor (DESIGN.md §4): independently
    /// re-integrates energy against wall-clock event intervals and
    /// cross-checks the ledger, the incremental demand aggregates,
    /// per-chip busy time, and the deadline ledger. Purely observational —
    /// `None` (the default) leaves every code path bit-identical.
    pub audit: Option<AuditConfig>,
    /// Optional fixed-cadence telemetry recording
    /// ([`crate::telemetry`]). Passive sample-and-hold — enabling it
    /// never perturbs event order, RNG streams, or the ledger.
    pub telemetry: Option<TelemetryConfig>,
    /// Optional carbon/price-aware scheduling policy
    /// ([`iscope_sched::carbon`]): defer flexible arrivals and/or
    /// suspend running flexible gangs while the utility signal is above
    /// its thresholds. `None` — or a config with no threshold set — leaves
    /// every code path bit-identical to a carbon-unaware run.
    pub carbon: Option<CarbonConfig>,
}

/// Switches the run-wide invariant auditor on.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Relative tolerance for the floating-point cross-checks (the
    /// demand snapshot per event and the energy residual at the end).
    /// Integer checks (µW aggregates, busy milliseconds, deadline
    /// counts) are always exact.
    pub tolerance: f64,
    /// Panic at the end of the run if any invariant was breached
    /// (default). With `false`, breaches are only reported through
    /// [`AuditReport::violations`].
    pub strict: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            tolerance: 1e-9,
            strict: true,
        }
    }
}

/// ScanFair's wind-surplus detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurplusSignal {
    /// The paper's signal: instantaneous wind vs instantaneous demand
    /// (plus the incoming job's own draw).
    #[default]
    Instantaneous,
    /// Extension: compare demand against the *forecast mean* wind over
    /// the incoming job's runtime (persistence-toward-climatology fitted
    /// on the trace's own past) — a surplus that will not outlive the job
    /// no longer counts.
    ForecastAware,
}

/// Configuration of in-situ (opportunistic) profiling.
#[derive(Debug, Clone)]
pub struct InSituConfig {
    /// Scanner settings (test kind, grid, domain size).
    pub scanner: ScannerConfig,
    /// Profile only while fleet utilization is below this fraction
    /// (the paper analyses a 30 % threshold in Fig. 10).
    pub utilization_threshold: f64,
    /// How often the master checks for profiling opportunities.
    pub check_interval: SimDuration,
    /// Never take chips out of service if doing so would leave fewer than
    /// this fraction of the fleet available (gang jobs need room).
    pub min_available_fraction: f64,
}

impl Default for InSituConfig {
    fn default() -> Self {
        InSituConfig {
            scanner: ScannerConfig::default(),
            utilization_threshold: 0.3,
            check_interval: SimDuration::from_mins(10),
            min_available_fraction: 0.6,
        }
    }
}

/// Configuration of runtime fault injection and recovery (the closed
/// staleness loop).
#[derive(Debug, Clone)]
pub struct FaultInjectionConfig {
    /// The timing-failure model (aging law, time acceleration, jitter).
    pub model: FailureModel,
    /// How failed gangs are requeued.
    pub retry: RetryPolicy,
    /// Cap on the fraction of the fleet that may sit out of service as
    /// suspect at once; beyond it, failing chips stay in rotation (and
    /// keep failing) until re-profiling clears the backlog.
    pub max_suspect_fraction: f64,
    /// Optional periodic re-profiling; without it, suspect chips stay
    /// out of service forever and stale plans are never refreshed.
    pub reprofile: Option<ReprofileConfig>,
}

impl Default for FaultInjectionConfig {
    fn default() -> Self {
        FaultInjectionConfig {
            model: FailureModel::default(),
            retry: RetryPolicy::default(),
            max_suspect_fraction: 0.25,
            reprofile: None,
        }
    }
}

/// Configuration of the periodic re-profiling loop: chips whose
/// accumulated voltage-stress hours pass the policy's cadence (or that
/// are marked suspect) are drained, re-scanned by SBFT, and return to
/// service with a refreshed plan entry — competing for fleet capacity
/// exactly like in-situ profiling does.
#[derive(Debug, Clone)]
pub struct ReprofileConfig {
    /// When a chip becomes due for a re-scan.
    pub policy: ReprofilePolicy,
    /// Scanner settings for the re-scans (test kind, grid, domain size).
    pub scanner: ScannerConfig,
    /// How often the master checks for due chips.
    pub check_interval: SimDuration,
    /// Never drain chips if doing so would leave fewer than this fraction
    /// of the fleet in service.
    pub min_available_fraction: f64,
}

impl Default for ReprofileConfig {
    fn default() -> Self {
        ReprofileConfig {
            policy: ReprofilePolicy::Adaptive { fraction: 0.5 },
            scanner: ScannerConfig {
                test_kind: iscope_scanner::TestKind::Sbft,
                ..ScannerConfig::default()
            },
            check_interval: SimDuration::from_mins(10),
            min_available_fraction: 0.6,
        }
    }
}

/// Configuration of the deferral baseline.
#[derive(Debug, Clone, Copy)]
pub struct DeferralConfig {
    /// Slack (beyond the nominal runtime) a job must retain when finally
    /// released; jobs are released no later than
    /// `deadline - runtime - margin`.
    pub slack_margin: SimDuration,
}

impl Default for DeferralConfig {
    fn default() -> Self {
        DeferralConfig {
            slack_margin: SimDuration::from_mins(15),
        }
    }
}

/// Supply/demand matching strategy (SV.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DvfsMode {
    /// The paper's policy: one fleet-wide frequency level, lowered step by
    /// step while renewable power is short, stopping as soon as *any*
    /// task would face a deadline violation.
    #[default]
    GlobalLevel,
    /// Ablation: per-job greedy matching (largest-saving job steps down
    /// first, each job floored at its own deadline-feasible level). Fits
    /// the budget tighter but erases the parallelism signal the paper's
    /// Fig. 6 trends rely on.
    PerJobGreedy,
}

/// Wall-clock nanoseconds spent in each scheduler hot-path phase,
/// accumulated over a whole run. Reported through [`RunStats`] so
/// `iscope-exp bench-report` can show where event time goes. The phases
/// do not cover the entire run (engine dispatch and completion handling
/// outside `try_start` are uncounted), so they sum to less than `wall`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimers {
    /// Job placement and start: surplus signal, availability refresh,
    /// policy call, queue appends, power-row freezing.
    pub placement_ns: u64,
    /// Supply/demand matching: level descent or greedy matching,
    /// deadline floors, completion rescheduling.
    pub rebalance_ns: u64,
    /// Demand refresh and trace sampling after each rebalance.
    pub demand_ns: u64,
    /// Energy-ledger integration at each event.
    pub accounting_ns: u64,
}

crate::to_val!(PhaseTimers, |p| {
    "placement_ns" => p.placement_ns,
    "rebalance_ns" => p.rebalance_ns,
    "demand_ns" => p.demand_ns,
    "accounting_ns" => p.accounting_ns,
});

/// Runtime counters of one simulation run, for the performance
/// harness (`iscope-exp bench-report`, `BENCH_sim.json`).
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Events processed by the discrete-event engine.
    pub events: u64,
    /// Placement decisions taken (deferred jobs count once, on release).
    pub placements: u64,
    /// Wall-clock time of the run.
    pub wall: std::time::Duration,
    /// Where the event-handling time went, by hot-path phase.
    pub phases: PhaseTimers,
}

impl RunStats {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Mean wall-clock nanoseconds per placement decision. This charges
    /// the whole run to placements, so it is an upper bound on the
    /// placement hot path itself — useful as a trend metric, not a
    /// microbenchmark.
    pub fn ns_per_placement(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.placements.max(1) as f64
    }
}

/// The thin single-site instantiation: one [`SiteState`] driven directly
/// by the engine with untagged events — no router, no federation. This is
/// all that remains of the old monolithic `Sim`.
struct SingleSite {
    site: SiteState,
}

impl Model<SiteEv> for SingleSite {
    fn on_event(&mut self, ctx: &mut Ctx<'_, SiteEv>, event: SiteEv) {
        let now = ctx.now();
        self.site.handle_event(ctx, now, event);
    }
}

impl SingleSite {
    /// Runs `engine` dry, checks that the run ended cleanly, and closes
    /// the books. `start` is when the driver began timing the run.
    fn finish(
        mut self,
        mut engine: Engine<SiteEv>,
        start: std::time::Instant,
    ) -> (RunReport, RunStats) {
        let stop = engine.run(&mut self);
        assert_eq!(
            stop,
            StopReason::Quiescent,
            "simulation exhausted its step budget"
        );
        assert_eq!(
            self.site.done_count,
            self.site.jobs.len(),
            "simulation ended with unfinished jobs"
        );
        let events = engine.steps();
        let outcome = self.site.finalize();
        let stats = RunStats {
            events,
            placements: outcome.placements,
            wall: start.elapsed(),
            phases: outcome.phases,
        };
        (outcome.report, stats)
    }
}

/// A fresh engine with the step budget every single-site driver runs under.
fn new_engine() -> Engine<SiteEv> {
    Engine::new().with_step_budget(200_000_000)
}

/// Runs one simulation to completion and returns the report.
pub fn run_simulation(input: SimInput) -> RunReport {
    run_simulation_instrumented(input).0
}

/// [`run_simulation`] plus runtime counters for the performance harness.
pub fn run_simulation_instrumented(input: SimInput) -> (RunReport, RunStats) {
    SimDriver::new(input).finish()
}

/// Interactive single-site driver: the same run [`run_simulation`]
/// performs, but steppable, checkpointable, and resumable. Stepping,
/// snapshotting, and resuming never perturb event order, RNG streams, or
/// the ledger, so `new(input) → run_until(t) → snapshot → resume →
/// finish` produces bit-identical reports and telemetry to
/// `new(input) → finish`.
pub struct SimDriver {
    sim: SingleSite,
    engine: Engine<SiteEv>,
    seed: u64,
    admitted: usize,
    start: std::time::Instant,
}

impl SimDriver {
    /// Builds the driver with the whole workload pre-admitted (exactly
    /// the [`run_simulation`] setup).
    pub fn new(input: SimInput) -> SimDriver {
        let seed = input.seed;
        let start = std::time::Instant::now();
        let (site, workload) = SiteState::new(input, 0, true, None);
        let sim = SingleSite { site };
        let mut engine = new_engine();
        // Arrivals before the periodic events: equal-time ties fire in
        // priming (sequence) order.
        for (i, j) in workload.jobs().iter().enumerate() {
            engine.prime(j.submit, SiteEv::Arrival(i));
        }
        for (at, ev) in sim.site.initial_events() {
            engine.prime(at, ev);
        }
        let admitted = sim.site.jobs.len();
        SimDriver {
            sim,
            engine,
            seed,
            admitted,
            start,
        }
    }

    /// Processes every event scheduled at or before `t`, then stops.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(te) = self.engine.peek_time() {
            if te > t {
                break;
            }
            self.engine.step(&mut self.sim);
        }
    }

    /// Current simulation clock (the time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Serializes the paused run as a snapshot document (see
    /// [`crate::snapshot`] for the format and v1 restrictions).
    pub fn snapshot(&self) -> Result<String, SnapshotError> {
        self.sim.site.capture(
            self.seed,
            self.engine.now(),
            self.engine.steps(),
            self.admitted,
            &self.engine.pending_events(),
        )
    }

    /// Rebuilds a paused run from a snapshot. `input` must describe the
    /// same run the snapshot was taken from (same scheme, seed, fleet,
    /// and instrument set — mismatches are [`SnapshotError::Mismatch`]);
    /// the continued run is bit-identical to never having stopped.
    pub fn resume(input: SimInput, snapshot: &str) -> Result<SimDriver, SnapshotError> {
        Self::from_snapshot(input, snapshot, false)
    }

    /// What-if branching: rebuilds the snapshotted mid-run state under a
    /// *different* input — scheme, placement, supply, and knobs come from
    /// `input`, while jobs, ledgers, wear, RNG streams, and pending
    /// events continue from the snapshot. Structural facts (fleet shape,
    /// instrument set) must still match.
    pub fn fork(input: SimInput, snapshot: &str) -> Result<SimDriver, SnapshotError> {
        Self::from_snapshot(input, snapshot, true)
    }

    fn from_snapshot(
        input: SimInput,
        snapshot: &str,
        fork: bool,
    ) -> Result<SimDriver, SnapshotError> {
        let seed = input.seed;
        let start = std::time::Instant::now();
        let (site, rp) = SiteState::restore_from(input, 0, snapshot, fork)?;
        let sim = SingleSite { site };
        let mut engine = new_engine();
        rp.prime(&mut engine);
        Ok(SimDriver {
            sim,
            engine,
            seed,
            admitted: rp.admitted,
            start,
        })
    }

    /// Runs the remaining events to completion and returns the report
    /// plus runtime counters. Counters span this driver's lifetime only
    /// (a resumed run reports post-resume wall time but cumulative event
    /// counts).
    pub fn finish(self) -> (RunReport, RunStats) {
        self.sim.finish(self.engine, self.start)
    }
}

/// Streaming counters of one [`StreamDriver`] run, for `BENCH_sim.json`.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Jobs the source emitted (== jobs simulated).
    pub emitted: u64,
    /// The source's memory high-water mark: peak number of
    /// parsed-but-not-yet-emitted jobs ever buffered, bounded by the
    /// reorder horizon. The simulation itself holds only admitted jobs.
    pub peak_buffered: usize,
}

/// The widest gang the builder would allow on this input's fleet — the
/// same clamp [`crate::config::GreenDatacenterSim`] applies to
/// materialized workloads, mirrored here for jobs admitted one by one
/// from a stream.
fn gang_clamp(input: &SimInput) -> u32 {
    let mut in_service_fraction: f64 = 1.0;
    if let Some(cfg) = &input.in_situ {
        in_service_fraction = in_service_fraction.min(cfg.min_available_fraction);
    }
    if let Some(cfg) = &input.fault_injection {
        in_service_fraction = in_service_fraction.min(1.0 - cfg.max_suspect_fraction);
        if let Some(r) = &cfg.reprofile {
            in_service_fraction = in_service_fraction.min(r.min_available_fraction);
        }
    }
    (if in_service_fraction < 1.0 {
        ((input.fleet.len() as f64) * in_service_fraction).floor() as u32
    } else {
        input.fleet.len() as u32
    })
    .max(1)
}

/// Single-site driver pulling jobs from a [`JobSource`] instead of a
/// materialized workload: memory holds the admitted-jobs table plus the
/// source's bounded reorder buffer, never the full trace.
///
/// The merge loop admits the source's next job whenever its submit
/// instant is not later than the next queued event and dispatches the
/// arrival directly — arrivals win equal-time ties exactly as
/// pre-admitted (lowest-sequence) arrivals do, so a streaming run of a
/// given job sequence processes events in the same order a pre-admitted
/// run of those jobs does.
///
/// `input.workload` should be empty; jobs come from the source, each
/// clamped to the same maximum gang width the builder applies, and the
/// fault machinery's availability floor is sized to that clamp (a
/// pre-admitted run sizes it to the workload's actual widest job, so
/// under fault injection the two modes only match when the stream
/// reaches the clamp).
pub struct StreamDriver<S: JobSource> {
    sim: SingleSite,
    engine: Engine<SiteEv>,
    source: S,
    seed: u64,
    max_gang: u32,
    start: std::time::Instant,
}

impl<S: JobSource> StreamDriver<S> {
    /// Builds the driver; no jobs are pulled yet.
    pub fn new(input: SimInput, source: S) -> StreamDriver<S> {
        let seed = input.seed;
        let max_gang = gang_clamp(&input);
        let (site, _workload) = SiteState::new(input, 0, false, Some(max_gang));
        let sim = SingleSite { site };
        let mut engine = new_engine();
        for (at, ev) in sim.site.initial_events() {
            engine.prime(at, ev);
        }
        StreamDriver {
            sim,
            engine,
            source,
            seed,
            max_gang,
            start: std::time::Instant::now(),
        }
    }

    fn admit(&mut self, at: SimTime, mut job: Job) {
        job.cpus = job.cpus.min(self.max_gang);
        let idx = self.sim.site.admit(job);
        self.engine
            .dispatch(&mut self.sim, at, SiteEv::Arrival(idx));
    }

    /// Runs the merged stream until every event at or before `t` is
    /// processed and every job submitting at or before `t` is admitted.
    pub fn run_until(&mut self, t: SimTime) -> Result<(), SourceError> {
        loop {
            match self.source.peek_submit()? {
                Some(ts) => {
                    self.sim.site.expect_more = true;
                    let te = self.engine.peek_time();
                    if ts <= t && te.is_none_or(|te| ts <= te) {
                        let job = self.source.next_job()?.expect("peeked a submit instant");
                        self.admit(ts, job);
                    } else if te.is_some_and(|te| te <= t && te < ts) {
                        self.engine.step(&mut self.sim);
                    } else {
                        return Ok(());
                    }
                }
                None => {
                    self.sim.site.expect_more = false;
                    match self.engine.peek_time() {
                        Some(te) if te <= t => {
                            self.engine.step(&mut self.sim);
                        }
                        _ => return Ok(()),
                    }
                }
            }
        }
    }

    /// Current simulation clock (the time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Serializes the paused run. Jobs not yet admitted are *not* in the
    /// snapshot — resuming re-creates the (deterministic) source and
    /// skips the `admitted` already-simulated jobs.
    pub fn snapshot(&self) -> Result<String, SnapshotError> {
        self.sim.site.capture(
            self.seed,
            self.engine.now(),
            self.engine.steps(),
            self.sim.site.jobs.len(),
            &self.engine.pending_events(),
        )
    }

    /// Rebuilds a paused streaming run: `source` must be a fresh source
    /// constructed with the original parameters; its first `admitted`
    /// jobs are discarded to land exactly where the snapshot left off.
    pub fn resume(
        input: SimInput,
        mut source: S,
        snapshot: &str,
    ) -> Result<StreamDriver<S>, SnapshotError> {
        let seed = input.seed;
        let max_gang = gang_clamp(&input);
        let (site, rp) = SiteState::restore_from(input, 0, snapshot, false)?;
        for k in 0..rp.admitted {
            source
                .next_job()
                .map_err(|e| {
                    SnapshotError::Mismatch(format!("source failed replaying job {k}: {e}"))
                })?
                .ok_or_else(|| {
                    SnapshotError::Mismatch(format!(
                        "source ended after {k} jobs, snapshot admitted {}",
                        rp.admitted
                    ))
                })?;
        }
        let sim = SingleSite { site };
        let mut engine = new_engine();
        rp.prime(&mut engine);
        Ok(StreamDriver {
            sim,
            engine,
            source,
            seed,
            max_gang,
            start: std::time::Instant::now(),
        })
    }

    /// Drains the source and the event queue to completion.
    pub fn run(mut self) -> Result<(RunReport, RunStats, StreamStats), SourceError> {
        self.run_until(SimTime::MAX)?;
        self.sim.site.expect_more = false;
        let stream = StreamStats {
            emitted: self.source.emitted(),
            peak_buffered: self.source.peak_buffered(),
        };
        let (report, stats) = self.sim.finish(self.engine, self.start);
        Ok((report, stats, stream))
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GreenDatacenterSim;
    use iscope_dcsim::{SimDuration, SimTime};
    use iscope_energy::{PowerTrace, Supply};
    use iscope_pvmodel::CpuBoundness;
    use iscope_sched::Scheme;
    use iscope_workload::{Job, JobId, Urgency, Workload};

    fn job(id: u32, submit_s: u64, cpus: u32, runtime_s: u64, deadline_factor: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit_s),
            cpus,
            runtime_at_fmax: SimDuration::from_secs(runtime_s),
            gamma: CpuBoundness::FULL,
            deadline: SimTime::from_secs(submit_s)
                + SimDuration::from_secs((runtime_s as f64 * deadline_factor) as u64),
            urgency: Urgency::Low,
        }
    }

    fn sim(jobs: Vec<Job>, supply: Supply) -> GreenDatacenterSim {
        GreenDatacenterSim::builder()
            .fleet_size(8)
            .workload(Workload::new(jobs))
            .scheme(Scheme::ScanFair)
            .supply(supply)
            .seed(1)
    }

    fn run(jobs: Vec<Job>, supply: Supply) -> crate::RunReport {
        sim(jobs, supply).build().run()
    }

    #[test]
    fn empty_workload_completes_instantly() {
        let r = run(vec![], Supply::utility_only());
        assert_eq!(r.jobs, 0);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.utility_kwh(), 0.0);
        assert_eq!(r.deadline_misses, 0);
    }

    #[test]
    fn single_job_runs_exactly_its_nominal_time_at_full_speed() {
        let r = run(vec![job(0, 100, 2, 600, 10.0)], Supply::utility_only());
        assert_eq!(r.jobs, 1);
        assert_eq!(
            r.makespan,
            SimTime::from_secs(700),
            "start + runtime at f_max"
        );
        assert_eq!(r.deadline_misses, 0);
        // Both chips busy exactly 600 s.
        let busy: f64 = r.usage_hours.iter().sum();
        assert!((busy - 2.0 * 600.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn effi_queues_on_the_efficient_prefix_when_slack_allows() {
        // 8 chips; four 4-wide jobs arriving together with 20x slack:
        // ScanFair (efficiency mode without wind) funnels all four through
        // the 4 most efficient chips — the paper's "queueing phenomenon".
        let jobs: Vec<Job> = (0..4).map(|i| job(i, 0, 4, 600, 20.0)).collect();
        let r = run(jobs, Supply::utility_only());
        assert_eq!(
            r.makespan,
            SimTime::from_secs(2400),
            "serialized on the best 4"
        );
        assert_eq!(r.deadline_misses, 0);
        // Half the fleet never ran.
        let idle = r.usage_hours.iter().filter(|&&h| h == 0.0).count();
        assert_eq!(idle, 4);
    }

    #[test]
    fn tight_deadlines_force_parallel_waves() {
        // The same four jobs with only 2.2x slack: queueing four-deep would
        // blow the deadlines, so the scheduler spreads onto both halves.
        let jobs: Vec<Job> = (0..4).map(|i| job(i, 0, 4, 600, 2.2)).collect();
        let r = run(jobs, Supply::utility_only());
        assert_eq!(r.makespan, SimTime::from_secs(1200), "two parallel waves");
        assert_eq!(r.deadline_misses, 0);
    }

    #[test]
    fn zero_wind_trace_draws_only_utility() {
        let supply = Supply::hybrid(PowerTrace::constant(SimDuration::from_mins(10), 0.0, 100));
        let r = run(vec![job(0, 0, 2, 600, 10.0)], supply);
        assert_eq!(r.wind_kwh(), 0.0);
        assert!(r.utility_kwh() > 0.0);
    }

    #[test]
    fn abundant_constant_wind_covers_everything_without_slowdown() {
        let supply = Supply::hybrid(PowerTrace::constant(SimDuration::from_mins(10), 1e9, 1000));
        let r = run(vec![job(0, 0, 2, 600, 10.0)], supply);
        assert!(r.utility_kwh() < 1e-9);
        assert!(r.wind_kwh() > 0.0);
        assert_eq!(
            r.makespan,
            SimTime::from_secs(600),
            "no DVFS slowdown needed"
        );
    }

    #[test]
    fn scarce_wind_slows_jobs_within_their_slack() {
        // A trickle of wind: the job crawls but must still meet a 4x
        // deadline. Slowest level is 0.75 GHz = f_max / 2.667.
        let supply = Supply::hybrid(PowerTrace::constant(SimDuration::from_mins(10), 1.0, 1000));
        let r = run(vec![job(0, 0, 2, 600, 4.0)], supply);
        assert_eq!(r.deadline_misses, 0);
        assert!(
            r.makespan > SimTime::from_secs(600),
            "scarce wind must stretch execution"
        );
        assert!(
            r.makespan <= SimTime::from_secs(2400),
            "within the deadline"
        );
    }

    #[test]
    fn impossible_deadline_is_recorded_not_dropped() {
        // Deadline equal to half the runtime: a guaranteed miss, but the
        // job still runs to completion.
        let mut j = job(0, 0, 2, 600, 1.0);
        j.deadline = SimTime::from_secs(300);
        let r = run(vec![j], Supply::utility_only());
        assert_eq!(r.jobs, 1);
        assert_eq!(r.deadline_misses, 1);
        assert_eq!(
            r.makespan,
            SimTime::from_secs(600),
            "still runs at full speed"
        );
    }

    #[test]
    fn cooling_overhead_multiplies_energy() {
        let base = run(vec![job(0, 0, 2, 3600, 10.0)], Supply::utility_only());
        let hot = GreenDatacenterSim::builder()
            .fleet_size(8)
            .workload(Workload::new(vec![job(0, 0, 2, 3600, 10.0)]))
            .scheme(Scheme::ScanFair)
            .cooling(iscope_pvmodel::CoolingModel::new(1.0)) // 2x factor
            .seed(1)
            .build()
            .run();
        // COP 2.5 => x1.4; COP 1.0 => x2.0. Energy ratio 2.0/1.4.
        let ratio = hot.utility_kwh() / base.utility_kwh();
        assert!((ratio - 2.0 / 1.4).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn simultaneous_arrivals_preserve_submission_order_fifo() {
        // Two jobs submitted at the same instant on the same pool size:
        // both complete; the earlier-id job is placed first (deterministic).
        let jobs = vec![job(0, 0, 8, 600, 20.0), job(1, 0, 8, 600, 20.0)];
        let r = run(jobs, Supply::utility_only());
        assert_eq!(r.jobs, 2);
        assert_eq!(r.makespan, SimTime::from_secs(1200));
    }

    /// The fast paths' equivalence with their reference implementations
    /// is proved only by debug-build cross-checks inside the simulator.
    /// Each test below pauses a run holding one running job (a second
    /// arrives at t = 100 s and drives the next placement and
    /// rebalance), corrupts one maintained value, and runs on: the
    /// matching cross-check must fire.
    #[cfg(debug_assertions)]
    fn paused_with_second_arrival(supply: Supply) -> super::SimDriver {
        let jobs = vec![job(0, 0, 2, 600, 20.0), job(1, 100, 2, 600, 20.0)];
        let mut driver = super::SimDriver::new(sim(jobs, supply).build().into_input());
        driver.run_until(SimTime::from_secs(50));
        assert_eq!(driver.sim.site.running.len(), 1);
        driver
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "incremental availability diverged from queue replay")]
    fn availability_cross_check_fires() {
        let mut driver = paused_with_second_arrival(Supply::utility_only());
        let site = &mut driver.sim.site;
        let chip = site.jobs[site.running[0]].chips[0].0 as usize;
        site.avail[chip] += SimDuration::from_hours(1000);
        driver.finish();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "incremental running-demand aggregate diverged")]
    fn running_demand_cross_check_fires() {
        let mut driver = paused_with_second_arrival(Supply::utility_only());
        driver.sim.site.running_demand_uw += 1;
        driver.finish();
    }

    /// Zero wind makes the matcher descend, so it reads every running
    /// job's deadline floor.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cached chain limit diverged")]
    fn chain_limit_cross_check_fires() {
        let supply = Supply::hybrid(PowerTrace::constant(SimDuration::from_mins(10), 0.0, 100));
        let mut driver = paused_with_second_arrival(supply);
        let site = &mut driver.sim.site;
        let idx = site.running[0];
        site.jobs[idx].chain_limit = SimTime::ZERO;
        driver.finish();
    }
}
