//! The green-datacenter discrete-event simulation: run configuration
//! ([`SimInput`] and its option structs) and the one [`Driver`] that runs
//! one site, N federated sites, or a stream on the `iscope-dcsim` engine.
//!
//! Event model (see `site/` for the state machine itself):
//!
//! * `Arrival(i)` — job `i` is submitted; the scheme's placement picks its
//!   processors and the job enters their FIFO queues.
//! * `Completion{job, gen}` — a running job finished (stale generations
//!   from superseded reschedules are ignored).
//! * `WindSample` — the renewable budget changed (every 10 minutes);
//!   re-run the DVFS budget matcher.
//!
//! Energy is integrated exactly: demand is piecewise-constant between
//! events, wind is piecewise-constant between `WindSample`s, so the
//! ledger's wind/utility split is event-by-event exact.
//!
//! [`SimDriver`] (a materialized workload), [`StreamDriver`] (one site
//! fed from a [`JobSource`]) and [`crate::run_federation`] are names over
//! the same driver; routing policies live in [`crate::federation`].

use crate::federation::{site_views, FederationInput, NullRouter, Router};
use crate::report::{FederationReport, RunReport};
use crate::site::{SiteCtx, SiteEv, SiteState};
use crate::snapshot::SnapshotError;
use crate::telemetry::TelemetryConfig;
use iscope_dcsim::{Ctx, Engine, Model, SimDuration, SimTime};
use iscope_energy::Supply;
use iscope_pvmodel::{CoolingModel, FailureModel, Fleet, OperatingPlan};
use iscope_scanner::{ReprofilePolicy, Scanner, ScannerConfig};
use iscope_sched::{CarbonConfig, Placement, RetryPolicy, Scheme};
use iscope_workload::{Job, JobSource, SourceError, Workload, WorkloadSource};
use std::cell::OnceCell;
use std::collections::VecDeque;

/// Inputs of one simulation run.
pub struct SimInput {
    /// Display name of the scheme driving placement.
    pub scheme_name: String,
    /// The processor fleet (hidden ground truth).
    pub fleet: Fleet,
    /// Operating plan (applied voltages + scheduler estimates), or the
    /// fleet scan that derives it when a site first needs it.
    pub plan: InputPlan,
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

/// A run's operating plan: built up front (factory bins, in-situ's
/// factory plan, a hand-built plan), or an SBFT fleet scan that runs from
/// `(fleet, seed)` when a site first needs the plan. A restore takes a
/// scanned plan from the snapshot, so it runs the scan only when adaptive
/// re-profiling needs the t = 0 plan for a cadence the snapshot did not
/// save: on a fork, or from a version 1 or 2 document. A snapshot names a
/// plan built up front by a digest of its rows and saves only the rows a
/// re-scan replaced; a restore lays those over this plan.
#[derive(Debug, Clone)]
pub struct InputPlan {
    /// The scan still to run; `None` for a plan built up front.
    scan: Option<FleetScan>,
    /// Set at most once: the built plan, or the scan's result.
    plan: OnceCell<OperatingPlan>,
}

/// The fleet scan behind a deferred plan.
#[derive(Debug, Clone, Copy)]
struct FleetScan {
    /// The scheme whose chip-wide plan [`Scheme::build_plan`] gives.
    scheme: Scheme,
    /// Per-core voltage domains: one row per core instead of the
    /// scheme's chip-wide rows.
    per_core: bool,
}

#[cfg(test)]
thread_local! {
    /// Fleet scans this thread's deferred plans have run.
    pub(crate) static SCANS_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl InputPlan {
    /// A fleet scan deferred until a site needs the plan: `scheme`'s plan
    /// ([`Scheme::build_plan`]), or with `per_core` the per-core plan of
    /// the same SBFT campaign.
    pub fn scan(scheme: Scheme, per_core: bool) -> InputPlan {
        InputPlan {
            scan: Some(FleetScan { scheme, per_core }),
            plan: OnceCell::new(),
        }
    }

    /// Whether the plan has per-core voltage domains; never scans.
    pub fn is_per_core(&self) -> bool {
        match self.scan {
            Some(scan) => scan.per_core,
            None => self.plan.get().is_some_and(OperatingPlan::is_per_core),
        }
    }

    /// The plan if it was built up front, not derived by a fleet scan.
    pub(crate) fn built(&self) -> Option<&OperatingPlan> {
        match self.scan {
            None => self.plan.get(),
            Some(_) => None,
        }
    }

    /// The plan, running the deferred scan of `fleet` under `seed` the
    /// first time it is asked for.
    pub fn get(&self, fleet: &Fleet, seed: u64) -> &OperatingPlan {
        self.plan.get_or_init(|| {
            let scan = self.scan.expect("a plan without a scan is built");
            #[cfg(test)]
            SCANS_RUN.with(|n| n.set(n.get() + 1));
            if scan.per_core {
                let report = Scanner::new(ScannerConfig::default()).profile_fleet(fleet, seed);
                OperatingPlan::from_scanned_per_core(fleet, &report.measured_vmin_per_core)
            } else {
                scan.scheme.build_plan(fleet, seed)
            }
        })
    }

    /// [`InputPlan::get`], by value.
    pub(crate) fn into_plan(self, fleet: &Fleet, seed: u64) -> OperatingPlan {
        self.get(fleet, seed);
        self.plan.into_inner().expect("just resolved")
    }
}

impl From<OperatingPlan> for InputPlan {
    fn from(plan: OperatingPlan) -> InputPlan {
        InputPlan {
            scan: None,
            plan: OnceCell::from(plan),
        }
    }
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
    /// [`AuditReport::violations`](crate::report::AuditReport::violations).
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

impl std::ops::AddAssign for PhaseTimers {
    fn add_assign(&mut self, o: PhaseTimers) {
        self.placement_ns += o.placement_ns;
        self.rebalance_ns += o.rebalance_ns;
        self.demand_ns += o.demand_ns;
        self.accounting_ns += o.accounting_ns;
    }
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
    /// Wall-clock time of the run, from the end of the driver's
    /// construction or restore to the end of `finish`/`run`: site setup
    /// and snapshot decoding are not counted.
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

/// Streaming counters of one [`Driver`] run, for `BENCH_sim.json`.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Jobs the source emitted (== jobs simulated).
    pub emitted: u64,
    /// The source's memory high-water mark: peak number of
    /// parsed-but-not-yet-emitted jobs ever buffered, bounded by the
    /// reorder horizon. The simulation itself holds only admitted jobs.
    pub peak_buffered: usize,
    /// The most jobs the sites held live at once (admitted, not yet
    /// finished, abandoned or migrated away), counted at each admission
    /// from the driver's construction or resume; a resumed driver starts
    /// from its restored live set. Observational: the simulation never
    /// reads it.
    pub peak_live_jobs: usize,
}

impl SimInput {
    /// The widest gang this input's fleet can always place: the fleet
    /// size, tightened to the in-service fraction that in-situ profiling
    /// and fault quarantine guarantee, so a gang fits even while chips are
    /// out of service. The builder clamps materialized workloads to it;
    /// the driver clamps every job it admits to its destination's value.
    pub(crate) fn max_gang(&self) -> u32 {
        let faults = self.fault_injection.as_ref();
        let in_service_fraction = [
            self.in_situ.as_ref().map(|c| c.min_available_fraction),
            faults.map(|c| 1.0 - c.max_suspect_fraction),
            faults.and_then(|c| c.reprofile.as_ref().map(|r| r.min_available_fraction)),
        ]
        .into_iter()
        .flatten()
        .fold(1.0, f64::min);
        let n = self.fleet.len();
        (if in_service_fraction < 1.0 {
            (n as f64 * in_service_fraction).floor() as u32
        } else {
            n as u32
        })
        .max(1)
    }
}

/// The driver's engine events: a site-local event with its site id, or
/// the landing of the oldest gang on the WAN.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Site(u32, SiteEv),
    /// Every migration pays the same WAN delay, so gangs land in the
    /// order they left: the event needs no payload, the gang waits in
    /// [`Federation::in_flight`].
    Landing,
}

/// The engine context seen by one site: everything the site schedules
/// comes back tagged with its id.
struct TaggedCtx<'a, 'q> {
    site: u32,
    inner: &'a mut Ctx<'q, Ev>,
}

impl SiteCtx for TaggedCtx<'_, '_> {
    fn schedule(&mut self, at: SimTime, ev: SiteEv) {
        self.inner.schedule(at, Ev::Site(self.site, ev));
    }
}

/// What the engine's events act on: the sites, the router between them,
/// and the gangs migrating over the WAN. A single-site run is the
/// one-site case under [`NullRouter`].
struct Federation {
    sites: Vec<SiteState>,
    /// Each site's widest admissible gang ([`SimInput::max_gang`]).
    max_gang: Vec<u32>,
    router: Box<dyn Router>,
    wan_delay: SimDuration,
    reroute_retries: bool,
    /// Gangs on the WAN, oldest first: destination, job, and the attempt
    /// count that keeps retry budgets global.
    in_flight: VecDeque<(u32, Job, u32)>,
    routed_jobs: u64,
    migrations: u64,
    /// The most jobs the sites held live at once ([`StreamStats`]).
    peak_live_jobs: usize,
}

impl Federation {
    /// `sites` under [`NullRouter`], with nothing in flight.
    fn new(sites: Vec<SiteState>, max_gang: Vec<u32>) -> Self {
        Federation {
            peak_live_jobs: sites.iter().map(SiteState::live_jobs).sum(),
            sites,
            max_gang,
            router: Box::new(NullRouter),
            wan_delay: SimDuration::ZERO,
            reroute_retries: false,
            in_flight: VecDeque::new(),
            routed_jobs: 0,
            migrations: 0,
        }
    }

    /// The one admission path: clamps `job` to site `to`'s widest gang
    /// and enters it in that site's job table.
    fn admit(&mut self, to: u32, mut job: Job, starts: u32) -> usize {
        job.cpus = job.cpus.min(self.max_gang[to as usize]);
        let idx = self.sites[to as usize].admit(job, starts);
        let live = self.sites.iter().map(SiteState::live_jobs).sum();
        self.peak_live_jobs = self.peak_live_jobs.max(live);
        idx
    }

    /// Asks the router where `job` goes: an arrival when `from` is
    /// `None`, else a failed gang's requeue.
    fn route(&mut self, job: &Job, from: Option<u32>, now: SimTime) -> u32 {
        let views = site_views(&self.sites);
        let to = match from {
            None => self.router.route_arrival(job, now, &views),
            Some(from) => self.router.route_retry(job, from, now, &views),
        };
        assert!(
            (to as usize) < self.sites.len(),
            "router returned site {to} of {}",
            self.sites.len()
        );
        to
    }

    /// Refreshes every site's `expect_more`: true while the source has
    /// jobs left, or while work other than the site's own is unfinished
    /// (a gang in flight, or jobs at another site that may fail over
    /// here). A lone site's flag is therefore exactly "the source has
    /// more", which is what its snapshot records.
    fn expect(&mut self, more: bool) {
        let total =
            self.in_flight.len() + self.sites.iter().map(SiteState::live_jobs).sum::<usize>();
        for s in &mut self.sites {
            s.expect_more = more || total > s.live_jobs();
        }
    }
}

impl Model<Ev> for Federation {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
        let now = ctx.now();
        let (site, event) = match event {
            Ev::Site(site, ev) => (site, ev),
            Ev::Landing => {
                let (to, job, starts) = self.in_flight.pop_front().expect("a gang in flight");
                let idx = self.admit(to, job, starts);
                let mut tctx = TaggedCtx {
                    site: to,
                    inner: ctx,
                };
                self.sites[to as usize].rerouted_arrival(idx, now, &mut tctx);
                return;
            }
        };
        if let SiteEv::Retry { job } = event {
            // A retry is the one moment a gang is liftable: it holds no
            // chips and is not running. Ask the router before the origin
            // re-places it.
            if self.reroute_retries && self.sites[site as usize].retry_pending(job) {
                let j = self.sites[site as usize].jobs[job].job.clone();
                let to = self.route(&j, Some(site), now);
                if to != site {
                    self.migrations += 1;
                    let (job, starts) = self.sites[site as usize].extract_for_migration(job);
                    self.in_flight.push_back((to, job, starts));
                    ctx.schedule(now + self.wan_delay, Ev::Landing);
                    // The Retry event still goes to the origin below: the
                    // extracted job has retired there, so placement is
                    // skipped, but the site's books and matcher advance
                    // at this instant.
                }
            }
        }
        let mut tctx = TaggedCtx { site, inner: ctx };
        self.sites[site as usize].handle_event(&mut tctx, now, event);
    }
}

/// Events a run may process before it is declared a runaway loop.
const STEP_BUDGET: u64 = 200_000_000;

/// The one simulation driver: N `SiteState`s (one for a plain run)
/// behind a [`Router`], under one engine clock, fed from a [`JobSource`].
///
/// Every arrival takes one path: pull from the source, route, clamp to
/// the destination's widest gang, admit, and dispatch. The merge loop
/// admits the source's next job whenever its submit instant is not later
/// than the next queued event, so arrivals win equal-time ties and the
/// engine queue never holds one: it is primed only with periodic events
/// and a restored snapshot's pending events. Memory holds a row per live
/// job and a slot per admitted one, plus what the source buffers, never
/// more of the trace.
///
/// Stepping never perturbs event order, RNG streams, or the ledger:
/// `run_until` in slices gives the same run as one uninterrupted drain.
/// Single-site runs also snapshot and resume ([`crate::snapshot`]).
///
/// The fault machinery's availability floor is sized to the widest job a
/// site can receive: the workload's widest job when the jobs are known up
/// front, the gang clamp when they stream in. Under fault injection a
/// streamed and a materialized run of the same jobs therefore only match
/// when the jobs reach the clamp.
pub struct Driver<S: JobSource> {
    fed: Federation,
    engine: Engine<Ev>,
    source: S,
    seed: u64,
    start: std::time::Instant,
}

/// Streaming single-site driver: a [`Driver`] over one site.
/// `input.workload` is not run; the jobs come from the source.
pub type StreamDriver<S> = Driver<S>;

impl<S: JobSource> Driver<S> {
    /// One site fed from `source`; no jobs are pulled yet.
    pub fn new(input: SimInput, source: S) -> Self {
        Self::build(vec![input], source, None)
    }

    /// `input.sites` behind `input.router`, fed from `source`.
    /// `input.workload` must be empty: the jobs come from the source.
    pub fn streamed_federation(input: FederationInput, source: S) -> Self {
        assert!(
            input.workload.is_empty(),
            "a streamed federation takes its jobs from its source"
        );
        Self::federated(input, source, None)
    }

    /// [`Driver::build`] for `input.sites` behind `input.router`.
    fn federated(input: FederationInput, source: S, widest: Option<u32>) -> Self {
        let mut driver = Self::build(input.sites, source, widest);
        driver.fed.router = input.router;
        driver.fed.wan_delay = input.wan_delay;
        driver.fed.reroute_retries = input.reroute_retries;
        driver
    }

    /// Builds the sites and primes every site's periodic events. `widest`
    /// is the widest job known up front (`None` for an open source); it
    /// sizes each site's fault floor, capped at that site's gang clamp.
    fn build(inputs: Vec<SimInput>, source: S, widest: Option<u32>) -> Self {
        assert!(!inputs.is_empty(), "a federation needs at least one site");
        let seed = inputs[0].seed;
        let mut sites = Vec::with_capacity(inputs.len());
        let mut max_gang = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.into_iter().enumerate() {
            let clamp = input.max_gang();
            let floor = widest.map_or(clamp, |w| w.min(clamp));
            sites.push(SiteState::new(input, None, i as u32, floor));
            max_gang.push(clamp);
        }
        let fed = Federation::new(sites, max_gang);
        Self::assemble(fed, source, seed, |fed, engine| {
            for s in &fed.sites {
                for (at, ev) in s.initial_events() {
                    engine.prime(at, Ev::Site(s.site_id, ev));
                }
            }
        })
    }

    /// Sets up a fresh engine with `prime`, then starts the wall clock
    /// ([`RunStats::wall`]).
    fn assemble(
        mut fed: Federation,
        source: S,
        seed: u64,
        prime: impl FnOnce(&mut Federation, &mut Engine<Ev>),
    ) -> Self {
        let mut engine = Engine::new();
        prime(&mut fed, &mut engine);
        Driver {
            fed,
            engine,
            source,
            seed,
            start: std::time::Instant::now(),
        }
    }

    /// Runs the merged stream until every event at or before `t` is
    /// processed and every job submitting at or before `t` is admitted.
    pub fn run_until(&mut self, t: SimTime) -> Result<(), SourceError> {
        loop {
            let next = self.source.peek_submit()?;
            self.fed.expect(next.is_some());
            let te = self.engine.peek_time();
            match next {
                Some(ts) if ts <= t && te.is_none_or(|te| ts <= te) => {
                    let job = self.source.next_job()?.expect("peeked a submit instant");
                    self.fed.routed_jobs += 1;
                    let to = self.fed.route(&job, None, ts);
                    let idx = self.fed.admit(to, job, 0);
                    let arrival = Ev::Site(to, SiteEv::Arrival(idx));
                    self.engine.dispatch(&mut self.fed, ts, arrival);
                }
                _ if te.is_some_and(|te| te <= t && next.is_none_or(|ts| te < ts)) => {
                    assert!(
                        self.engine.steps() < STEP_BUDGET,
                        "simulation exhausted its step budget"
                    );
                    self.engine.step(&mut self.fed);
                }
                _ => return Ok(()),
            }
        }
    }

    /// Current simulation clock (the time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Serializes the paused run (see [`crate::snapshot`] for the format
    /// and what it cannot hold). Jobs not yet admitted are *not* in the
    /// snapshot: resuming re-creates the (deterministic) source and skips
    /// the jobs already admitted. Federations are not snapshotted.
    pub fn snapshot(&self) -> Result<String, SnapshotError> {
        let [site] = &self.fed.sites[..] else {
            return Err(SnapshotError::Unsupported(
                "snapshots cannot hold federation state".to_string(),
            ));
        };
        let pending: Vec<(SimTime, SiteEv)> = self
            .engine
            .pending_events()
            .into_iter()
            .map(|(at, ev)| match ev {
                Ev::Site(_, ev) => (at, ev),
                Ev::Landing => unreachable!("a lone site has nowhere to migrate to"),
            })
            .collect();
        site.capture(self.seed, self.engine.now(), self.engine.steps(), &pending)
    }

    /// Rebuilds a paused streaming run: `source` must be a fresh source
    /// constructed with the original parameters; its first `admitted`
    /// jobs are discarded to land exactly where the snapshot left off.
    pub fn resume(input: SimInput, source: S, snapshot: &str) -> Result<Self, SnapshotError> {
        Self::restore(input, source, snapshot, false)
    }

    /// Rebuilds one site from `snapshot` (see [`SimDriver::fork`] for what
    /// `fork` relaxes) and discards the source's first `admitted` jobs,
    /// which the snapshot already holds. A source with fewer jobs than
    /// that is a [`SnapshotError::Mismatch`].
    fn restore(
        input: SimInput,
        mut source: S,
        snapshot: &str,
        fork: bool,
    ) -> Result<Self, SnapshotError> {
        let (seed, max_gang) = (input.seed, input.max_gang());
        let (site, rp) = SiteState::restore_from(input, 0, snapshot, fork)?;
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
        let fed = Federation::new(vec![site], vec![max_gang]);
        Ok(Self::assemble(fed, source, seed, |_, engine| {
            // Priming the live events in their serialized (time, seq)
            // order hands them consecutive fresh sequence numbers, so
            // equal-time ties replay exactly; later events draw higher
            // numbers, as they would have in the uninterrupted run.
            for (at, ev) in rp.pending {
                engine.prime(at, Ev::Site(0, ev));
            }
            engine.advance_to(rp.now);
            engine.set_steps(rp.steps);
        }))
    }

    /// Drains the source and the event queue, checks that every job
    /// finished, and closes every site's books. Counters span this
    /// driver's lifetime: a resumed run reports post-resume wall time but
    /// cumulative event counts.
    pub fn run_federated(
        mut self,
    ) -> Result<(FederationReport, RunStats, StreamStats), SourceError> {
        self.run_until(SimTime::MAX)?;
        let stream = StreamStats {
            emitted: self.source.emitted(),
            peak_buffered: self.source.peak_buffered(),
            peak_live_jobs: self.fed.peak_live_jobs,
        };
        let mut stats = RunStats {
            events: self.engine.steps(),
            placements: 0,
            wall: std::time::Duration::ZERO,
            phases: PhaseTimers::default(),
        };
        let mut reports = Vec::with_capacity(self.fed.sites.len());
        for s in self.fed.sites {
            assert_eq!(
                s.live_jobs(),
                0,
                "site {} ended with unfinished jobs",
                s.site_id
            );
            let outcome = s.finalize();
            stats.placements += outcome.placements;
            stats.phases += outcome.phases;
            reports.push(outcome.report);
        }
        stats.wall = self.start.elapsed();
        let report = FederationReport {
            router: self.fed.router.name().to_string(),
            sites: reports,
            routed_jobs: self.fed.routed_jobs,
            migrations: self.fed.migrations,
        };
        Ok((report, stats, stream))
    }

    /// [`Driver::run_federated`] for a single-site driver, returning the
    /// site's own report.
    pub fn run(self) -> Result<(RunReport, RunStats, StreamStats), SourceError> {
        assert_eq!(
            self.fed.sites.len(),
            1,
            "run() reports one site; finish a federation with run_federated()"
        );
        let (mut fed, stats, stream) = self.run_federated()?;
        Ok((fed.sites.remove(0), stats, stream))
    }
}

impl Driver<WorkloadSource> {
    /// `input.sites` behind `input.router`, routing `input.workload`'s
    /// jobs as they submit: the run [`crate::run_federation`] performs,
    /// but steppable.
    pub fn federation(mut input: FederationInput) -> Self {
        let (source, widest) = materialized(&mut input.workload);
        Self::federated(input, source, Some(widest))
    }
}

/// Takes `workload` out as a source, with its widest job.
fn materialized(workload: &mut Workload) -> (WorkloadSource, u32) {
    let jobs = std::mem::take(workload);
    let widest = jobs.max_cpus();
    (WorkloadSource::new(jobs), widest)
}

/// Runs one simulation to completion and returns the report.
pub fn run_simulation(input: SimInput) -> RunReport {
    SimDriver::new(input).finish().0
}

/// Interactive single-site driver streamed from `input.workload`: the
/// run [`run_simulation`] performs, but steppable, checkpointable, and
/// resumable. A thin name over [`Driver`]. Stepping, snapshotting, and
/// resuming never perturb event order, RNG streams, or the ledger, so
/// `new(input) → run_until(t) → snapshot → resume → finish` produces
/// bit-identical reports and telemetry to `new(input) → finish`.
pub struct SimDriver(Driver<WorkloadSource>);

/// A materialized workload's source cannot fail.
const NO_PULLS: &str = "a materialized workload cannot fail a pull";

impl SimDriver {
    /// Builds the driver; `input.workload` streams in as it submits.
    pub fn new(mut input: SimInput) -> SimDriver {
        let (source, widest) = materialized(&mut input.workload);
        SimDriver(Driver::build(vec![input], source, Some(widest)))
    }

    /// Processes every event scheduled at or before `t`, then stops.
    pub fn run_until(&mut self, t: SimTime) {
        self.0.run_until(t).expect(NO_PULLS);
    }

    /// Current simulation clock (the time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.0.now()
    }

    /// Serializes the paused run as a snapshot document.
    pub fn snapshot(&self) -> Result<String, SnapshotError> {
        self.0.snapshot()
    }

    /// Rebuilds a paused run from a snapshot. `input` must describe the
    /// same run the snapshot was taken from (same scheme, seed, fleet,
    /// plan, workload, and instrument set — mismatches are
    /// [`SnapshotError::Mismatch`]); the continued run is bit-identical
    /// to never having stopped.
    pub fn resume(mut input: SimInput, snapshot: &str) -> Result<SimDriver, SnapshotError> {
        let (source, _) = materialized(&mut input.workload);
        Driver::resume(input, source, snapshot).map(SimDriver)
    }

    /// What-if branching: rebuilds the snapshotted mid-run state under a
    /// *different* input — scheme name, placement, supply, and knobs come
    /// from `input`, while admitted jobs, ledgers, wear, RNG streams,
    /// pending events, and the operating plan continue from the snapshot:
    /// a fork onto a `Bin*` scheme keeps the scanned plan of a `Scan*`
    /// snapshot, and places by the `Bin*` policy. A `Bin*` snapshot saves
    /// its plan as a digest of the factory-bin rows plus the rows
    /// re-scans replaced; the fork lays those rows over `input`'s built
    /// plan or, if `input` would scan, over the snapshot scheme's bin plan
    /// rebuilt on `input`'s fleet. A digest that does not match that plan
    /// — a fork onto another seed, and so another fleet, or onto another
    /// hand-built plan — is a [`SnapshotError::Mismatch`]. An adaptive
    /// re-profile cadence comes from `input`'s own t = 0 plan, which runs
    /// its fleet scan, not from the snapshot's saved interval. As in a
    /// resume, the jobs not yet submitted come from `input.workload` past
    /// its first `admitted`. Structural facts (fleet shape, instrument
    /// set) must still match.
    pub fn fork(mut input: SimInput, snapshot: &str) -> Result<SimDriver, SnapshotError> {
        let (source, _) = materialized(&mut input.workload);
        Driver::restore(input, source, snapshot, true).map(SimDriver)
    }

    /// Runs the remaining events to completion and returns the report
    /// plus runtime counters (see [`Driver::run_federated`]).
    pub fn finish(self) -> (RunReport, RunStats) {
        let (report, stats, _) = self.0.run().expect(NO_PULLS);
        (report, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::AuditConfig;
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

    /// A run paused holding one running job; a second arrives at
    /// t = 100 s and drives the next placement and rebalance.
    fn paused_with_second_arrival(supply: Supply, audit: bool) -> super::SimDriver {
        let jobs = vec![job(0, 0, 2, 600, 20.0), job(1, 100, 2, 600, 20.0)];
        let mut sim = sim(jobs, supply);
        if audit {
            sim = sim.audit(AuditConfig {
                strict: false,
                ..AuditConfig::default()
            });
        }
        let mut driver = super::SimDriver::new(sim.build().into_input());
        driver.run_until(SimTime::from_secs(50));
        assert_eq!(driver.0.fed.sites[0].demand.running().len(), 1);
        driver
    }

    /// The auditor recounts demand from the plan, not from the engine's
    /// frozen rows: a running job's row raised by 1 µW at every level,
    /// with the aggregates rebuilt from it, leaves the engine consistent
    /// with itself but stale (a missed refreeze), and the audit says so.
    #[test]
    fn audit_catches_a_stale_but_consistent_engine() {
        let mut driver = paused_with_second_arrival(Supply::utility_only(), true);
        let site = &mut driver.0.fed.sites[0];
        let idx = site.demand.running()[0];
        for uw in &mut site.jobs[idx].power_uw_at {
            *uw += 1;
        }
        site.demand.rebuild(&site.jobs).expect("no overflow");
        let (report, _) = driver.finish();
        let audit = report.audit.expect("audited run carries a report");
        let stale = |v: &String| {
            v.starts_with("demand_uw_at_level[") && v.contains("independent recomputation")
        };
        assert!(
            audit.violations.iter().any(stale),
            "no demand recount breach in {:?}",
            audit.violations
        );
    }

    // The fast paths' equivalence with their reference implementations
    // is proved only by debug-build cross-checks inside the simulator.
    // Each test below corrupts one maintained value of a paused run and
    // runs on: the matching cross-check must fire.

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "incremental availability diverged from queue replay")]
    fn availability_cross_check_fires() {
        let mut driver = paused_with_second_arrival(Supply::utility_only(), false);
        let site = &mut driver.0.fed.sites[0];
        let chip = site.jobs[site.demand.running()[0]].chips[0].0 as usize;
        site.avail.delay_drain(chip, SimDuration::from_hours(1000));
        driver.finish();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "incremental running-demand aggregate diverged")]
    fn running_demand_cross_check_fires() {
        let mut driver = paused_with_second_arrival(Supply::utility_only(), false);
        driver.0.fed.sites[0].demand.skew_running_demand(1);
        driver.finish();
    }

    /// Zero wind makes the matcher descend, so it reads every running
    /// job's deadline floor.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cached chain limit diverged")]
    fn chain_limit_cross_check_fires() {
        let supply = Supply::hybrid(PowerTrace::constant(SimDuration::from_mins(10), 0.0, 100));
        let mut driver = paused_with_second_arrival(supply, false);
        let site = &mut driver.0.fed.sites[0];
        let idx = site.demand.running()[0];
        site.jobs[idx].chain_limit = SimTime::ZERO;
        driver.finish();
    }

    /// ScanFair on 48 chips and 40 synthetic jobs; with `faults`, under
    /// fault injection with the default (adaptive) re-profiling.
    fn scan_fair(faults: bool) -> GreenDatacenterSim {
        let sim = GreenDatacenterSim::builder()
            .fleet_size(48)
            .synthetic_jobs(40)
            .scheme(Scheme::ScanFair)
            .seed(7);
        if !faults {
            return sim;
        }
        sim.fault_injection(super::FaultInjectionConfig {
            reprofile: Some(super::ReprofileConfig::default()),
            ..super::FaultInjectionConfig::default()
        })
    }

    /// The driver of `sim`'s run, paused halfway through its makespan.
    fn paused_halfway(sim: &GreenDatacenterSim) -> super::SimDriver {
        let (whole, _) = sim.clone().build().run_instrumented();
        let mut driver = super::SimDriver::new(sim.clone().build().into_input());
        driver.run_until(SimTime::from_millis(whole.makespan.as_millis() / 2));
        driver
    }

    /// Deferred fleet scans `f` runs.
    fn scans(f: impl FnOnce()) -> usize {
        let count = || super::SCANS_RUN.with(std::cell::Cell::get);
        let before = count();
        f();
        count() - before
    }

    #[test]
    fn a_fleet_scan_runs_once_at_a_fresh_start_and_not_on_restore() {
        let sim = scan_fair(false);
        let mut input = None;
        assert_eq!(scans(|| input = Some(sim.clone().build().into_input())), 0);
        let input = input.expect("built");
        assert!(!input.plan.is_per_core());
        assert_eq!(scans(|| drop(super::SimDriver::new(input))), 1);

        let snapshot = paused_halfway(&sim).snapshot().expect("capture");
        let restores: [fn(super::SimInput, &str) -> _; 2] =
            [super::SimDriver::resume, super::SimDriver::fork];
        for restore in restores {
            let input = sim.clone().build().into_input();
            let restored = scans(|| drop(restore(input, &snapshot).expect("restore")));
            assert_eq!(restored, 0, "a restore runs on the snapshot's plan");
        }
    }

    /// A resume of `snapshot` under `sim`, with the scans it ran.
    fn resume_scans(sim: &GreenDatacenterSim, snapshot: &str) -> (usize, super::SimDriver) {
        let input = sim.clone().build().into_input();
        let mut resumed = None;
        let n = scans(|| resumed = Some(super::SimDriver::resume(input, snapshot)));
        (n, resumed.expect("ran").expect("resume"))
    }

    #[test]
    fn an_adaptive_cadence_resumes_without_a_scan() {
        let sim = scan_fair(true);
        let snapshot = paused_halfway(&sim).snapshot().expect("capture");
        assert!(snapshot.contains("\"version\":4,"));
        assert_eq!(
            resume_scans(&sim, &snapshot).0,
            0,
            "the safe interval is saved"
        );
    }

    /// A version-2 document saved no safe interval, so the resume takes it
    /// from the t = 0 plan, and runs the scan behind it; the interval it
    /// computes is the one a version-3 capture saves.
    #[test]
    fn a_v2_adaptive_document_scans_once_on_resume() {
        let sim = scan_fair(true);
        let snapshot = paused_halfway(&sim).snapshot().expect("capture");
        let key = "\"safe_reprofile_hours\":";
        let at = snapshot.find(key).expect("a saved safe interval");
        let end = at + snapshot[at..].find(',').expect("more fault fields") + 1;
        assert_ne!(&snapshot[at + key.len()..end - 1], "null");
        let v2 = format!("{}{}", &snapshot[..at], &snapshot[end..]);
        let v2 = v2.replacen("\"version\":4,", "\"version\":2,", 1);
        let (n, resumed) = resume_scans(&sim, &v2);
        assert_eq!(n, 1, "the cadence derives from the t = 0 plan");
        assert!(resumed.snapshot().expect("re-capture") == snapshot);
    }

    /// A fork takes its adaptive cadence from its own input's t = 0 plan,
    /// not from the snapshot's saved interval.
    #[test]
    fn a_fork_derives_an_adaptive_cadence_from_its_own_plan() {
        let sim = scan_fair(true);
        let snapshot = paused_halfway(&sim).snapshot().expect("capture");
        let input = sim.build().into_input();
        let forked = scans(|| drop(super::SimDriver::fork(input, &snapshot).expect("fork")));
        assert_eq!(forked, 1);
    }

    #[test]
    fn per_core_is_known_before_the_scan() {
        let input = scan_fair(false).per_core_domains(true).build().into_input();
        assert_eq!(scans(|| assert!(input.plan.is_per_core())), 0);
    }

    /// A fork restores the snapshot's plan section: a `Bin*` branch of a
    /// `Scan*` snapshot keeps the scanned rows, not the factory bins.
    #[test]
    fn a_fork_onto_a_bin_scheme_keeps_the_snapshots_scanned_plan() {
        let sim = scan_fair(false);
        let paused = paused_halfway(&sim);
        let snapshot = paused.snapshot().expect("capture");
        let bin = sim.scheme(Scheme::BinRan);
        let forked = super::SimDriver::fork(bin.clone().build().into_input(), &snapshot);
        let forked = forked.expect("fork");
        let rows = |d: &super::SimDriver| {
            let (voltages, est_power) = d.0.fed.sites[0].plan.rows();
            (voltages.to_vec(), est_power.to_vec())
        };
        assert_eq!(rows(&forked), rows(&paused));
        let fresh_bin = super::SimDriver::new(bin.build().into_input());
        assert_ne!(rows(&forked), rows(&fresh_bin), "bins differ from the scan");
    }

    /// The live rows of a site's table, as indexes with what names them.
    fn live_rows(site: &crate::site::SiteState) -> Vec<(usize, String)> {
        let rows = site.jobs.iter();
        rows.map(|(i, js)| {
            (
                i,
                format!("{:?} {:?} {} {}", js.phase, js.chips, js.gen, js.starts),
            )
        })
        .collect()
    }

    /// A streamed run keeps a row only for each live job: at every slice
    /// the table's live rows number `admitted − done_count`, and none
    /// remain once the run drains.
    #[test]
    fn retired_jobs_leave_the_table() {
        let input = scan_fair(true).workload(Workload::new(vec![]));
        let trace = iscope_workload::SyntheticTrace {
            num_jobs: 200,
            max_cpus: 16,
            ..iscope_workload::SyntheticTrace::default()
        };
        let source = iscope_workload::SyntheticSource::new(trace, Default::default(), 7);
        let mut driver = super::Driver::new(input.build().into_input(), source);
        let (mut peak, mut retired_while_busy) = (0, false);
        for half_hours in 1..=96 {
            driver
                .run_until(SimTime::from_secs(1800 * half_hours))
                .expect("synthetic");
            let site = &driver.fed.sites[0];
            let live = live_rows(site).len();
            assert_eq!(live, site.jobs.admitted() - site.done_count);
            assert_eq!(live, site.live_jobs());
            peak = peak.max(live);
            retired_while_busy |= live > 0 && site.done_count > 0;
        }
        assert!(retired_while_busy, "no slice held live and retired jobs");
        driver.run_until(SimTime::MAX).expect("synthetic");
        let site = &driver.fed.sites[0];
        assert_eq!((site.jobs.admitted(), site.done_count), (200, 200));
        assert!(live_rows(site).is_empty());
        let (report, _, stream) = driver.run().expect("synthetic");
        assert_eq!(report.jobs, 200);
        assert!(
            stream.peak_live_jobs >= peak,
            "{} < {peak}",
            stream.peak_live_jobs
        );
    }

    /// Schedules into a list instead of an engine.
    struct Sink(Vec<(SimTime, crate::site::SiteEv)>);

    impl crate::site::SiteCtx for Sink {
        fn schedule(&mut self, at: SimTime, ev: crate::site::SiteEv) {
            self.0.push((at, ev));
        }
    }

    /// A completion, a timing failure or a retry that names a retired job
    /// is ignored: the job stays retired and no count moves.
    #[test]
    fn events_naming_a_retired_job_are_ignored() {
        use crate::site::SiteEv::{Completion, Retry, TimingFailure};
        let mut driver = paused_halfway(&scan_fair(true));
        let now = driver.now();
        let site = &mut driver.0.fed.sites[0];
        let retired = (0..site.jobs.admitted()).find(|&i| site.jobs.get(i).is_none());
        let job = retired.expect("a job finished by half time");
        let before = (site.done_count, site.placements, live_rows(site));
        let mut sink = Sink(Vec::new());
        for ev in [
            Completion { job, gen: 1 },
            TimingFailure {
                job,
                attempt: 1,
                chip: 0,
            },
            Retry { job },
        ] {
            site.handle_event(&mut sink, now, ev);
        }
        assert!(site.jobs.get(job).is_none());
        assert_eq!((site.done_count, site.placements, live_rows(site)), before);
    }

    /// A snapshot taken mid-run, while some jobs have retired and others
    /// are live, restores the same admitted count, retired count and live
    /// rows.
    #[test]
    fn a_resume_restores_the_live_set() {
        let sim = scan_fair(true);
        let table = |d: &super::SimDriver| {
            let site = &d.0.fed.sites[0];
            (site.jobs.admitted(), site.done_count, live_rows(site))
        };
        let mut paused = super::SimDriver::new(sim.clone().build().into_input());
        for step in 1.. {
            paused.run_until(SimTime::from_secs(600 * step));
            let (_, done, live) = table(&paused);
            if done > 0 && !live.is_empty() {
                break;
            }
        }
        let snapshot = paused.snapshot().expect("capture");
        let resumed = super::SimDriver::resume(sim.build().into_input(), &snapshot);
        assert_eq!(table(&resumed.expect("resume")), table(&paused));
    }
}
