//! One site's state machine: the reusable core of the simulator.
//!
//! [`SiteState`] handles site-local events ([`SiteEv`]) against any clock
//! that can schedule follow-ups ([`SiteCtx`]). It holds the run's
//! identity, the fleet, plan, placement policy and supply, the job table
//! and the energy books, and five components that each own their state
//! and the code that maintains it:
//!
//! - `Availability`: the chip queues and usage, the drain-time
//!   projection, the chain lengths and the chip indexes placement walks;
//! - `Demand`: the running set, the demand aggregates and both DVFS
//!   matchers' level choices;
//! - `Service`: in-situ profiling, faults, wear, quarantine and
//!   re-profiling, and the blocked view derived from them;
//! - `Deferral`: the wind and carbon holds, suspension victims and
//!   release;
//! - `Instruments`: samplers, the auditor's shadow books and telemetry,
//!   which see the rest of the site only through shared references.
//!
//! No component method takes a `SiteState`: `handle_event` calls them in
//! order with the parts each reads. Each also checks and rebuilds its own
//! share of a restored site (`checkpoint.rs`).
//!
//! `crate::simulation::Driver` runs one or more sites under one engine;
//! the only seam between one site and many is [`SiteState::expect_more`],
//! which keeps a site's periodic chains alive while other sites or the
//! source may still send it work.

mod availability;
mod checkpoint;
mod deferral;
mod demand;
mod instruments;
mod jobs;
mod service;

use crate::report::RunReport;
use crate::simulation::{PhaseTimers, SimInput, SurplusSignal};
use availability::Availability;
use checkpoint::{BuiltPlan, Restored};
use deferral::Deferral;
use demand::Demand;
use instruments::{Instruments, Observed};
use iscope_dcsim::{SimDuration, SimRng, SimTime};
use iscope_energy::{BatteryState, CostMeter, CostSplit, EnergyLedger, Supply};
use iscope_pvmodel::{
    microwatts_to_watts, speed_factor, watts_to_microwatts, ChipId, CoolingModel, DvfsConfig,
    Fleet, FreqLevel, OperatingPlan, SCAN_GUARDBAND_V,
};
use iscope_sched::Placement;
use iscope_workload::Job;
use jobs::JobTable;
use service::Service;
use std::time::Instant;

/// Safety margin (s) the budget matcher keeps between a slowed job's
/// projected completion and its effective deadline.
const DVFS_SAFETY_MARGIN_S: f64 = 120.0;

/// A site-local simulation event; the driver's engine carries it with the
/// id of the site it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteEv {
    Arrival(usize),
    Completion {
        job: usize,
        gen: u64,
    },
    WindSample,
    /// Periodic opportunistic-profiling check (stage 1 of Fig. 3).
    ProfilingCheck,
    /// A chip finished its in-situ scan.
    ProfilingDone {
        chip: u32,
    },
    /// A running gang's worst chip crossed its drifted Min Vdd: the
    /// attempt dies mid-flight. `attempt` guards against stale events.
    TimingFailure {
        job: usize,
        attempt: u32,
        chip: u32,
    },
    /// A failed or suspended job's backoff expired: place it again.
    Retry {
        job: usize,
    },
    /// Periodic re-profiling check: drain due chips and start re-scans.
    ReprofileCheck,
    /// A re-scan finished.
    ReprofileDone {
        chip: u32,
    },
    /// Periodic carbon/price check, scheduled only under an *active*
    /// [`iscope_sched::CarbonConfig`], so carbon-off runs see an
    /// unchanged event stream.
    CarbonSample,
}

/// The scheduling capability a [`SiteState`] needs from its host clock.
/// Cancellation is never used — stale events are invalidated by
/// generation counters instead.
pub(crate) trait SiteCtx {
    /// Schedules `ev` for this site at absolute time `at`.
    fn schedule(&mut self, at: SimTime, ev: SiteEv);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Waiting,
    Running,
    /// Only a version-1 snapshot's record of a finished job reads as
    /// `Done`; restore retires it. No row in a [`JobTable`] is `Done`.
    Done,
}

/// A live job's row in the [`JobTable`], from admission until it
/// finishes, is abandoned or migrates away.
pub(crate) struct JobState {
    pub(crate) job: Job,
    pub(crate) chips: Vec<ChipId>,
    pub(crate) phase: Phase,
    pub(crate) level: FreqLevel,
    /// Remaining work in seconds-at-f_max.
    pub(crate) remaining_nominal_s: f64,
    pub(crate) last_progress: SimTime,
    pub(crate) started_at: SimTime,
    pub(crate) gen: u64,
    /// The instant the live `Completion` event fires (valid while
    /// running); projections anchor on it rather than re-deriving it.
    pub(crate) sched_end: SimTime,
    /// Facility power at each level on this job's chips under the plan,
    /// in integer µW (valid while running). Frozen at start, so demand
    /// sums over these rows are exact and order-independent.
    pub(crate) power_uw_at: Vec<i64>,
    /// The bound this job's direct queue successors impose (valid while
    /// running): it must be gone by the minimum over its chips of
    /// "successor k's deadline − chain through k". Seeded by one queue
    /// walk at start and tightened in O(1) as jobs queue behind it.
    pub(crate) chain_limit: SimTime,
    /// Times this job has entered `Running`; migrated jobs carry it
    /// across sites so retry budgets stay global.
    pub(crate) starts: u32,
    /// Energy (J) the current attempt has drawn, settled at each progress
    /// advance while an attempt can die mid-flight.
    pub(crate) attempt_energy_j: f64,
}

/// What one finalized site hands back: its run report plus the runtime
/// counters the instrumented entry points aggregate.
pub(crate) struct SiteOutcome {
    pub(crate) report: RunReport,
    pub(crate) placements: u64,
    pub(crate) phases: PhaseTimers,
}

pub(crate) struct SiteState {
    /// Which site of the federation this is (0 for single-site runs).
    pub(crate) site_id: u32,
    pub(crate) scheme_name: String,
    /// Set by the driver while the source or another site may still send
    /// work here.
    pub(crate) expect_more: bool,
    /// Jobs handed to another site on retry (locally `Done`).
    pub(crate) migrated_out: u64,
    pub(crate) fleet: Fleet,
    pub(crate) plan: OperatingPlan,
    /// The digest of the plan's t = 0 rows and the chips re-scanned since,
    /// when the input built the plan up front; a snapshot saves only those
    /// chips' rows. `None` for a scanned plan, which it saves whole.
    pub(crate) built_plan: Option<BuiltPlan>,
    pub(crate) placement: Box<dyn Placement>,
    pub(crate) supply: Supply,
    pub(crate) cooling: CoolingModel,
    pub(crate) rng: SimRng,
    /// Every admitted job by admission index: a row while it is live, an
    /// empty slot once it has finished, been abandoned or migrated away.
    pub(crate) jobs: JobTable,
    /// Jobs retired from the table.
    pub(crate) done_count: usize,
    pub(crate) deadline_misses: usize,
    pub(crate) ledger: EnergyLedger,
    pub(crate) last_account: SimTime,
    pub(crate) makespan: SimTime,
    pub(crate) surplus_signal: SurplusSignal,
    /// Placement decisions taken (deferred jobs once, when placed).
    pub(crate) placements: u64,
    /// Jobs submitted or requeued but not running: the telemetry queue
    /// depth and the federation routers' signal.
    pub(crate) queued_jobs: u64,
    /// Utility cost and carbon integrals; never read by scheduling.
    pub(crate) costs: CostMeter,
    /// On-site storage stepped against wind surplus; the ledger never
    /// sees it, the federation router reads its charge.
    pub(crate) battery: Option<BatteryState>,
    /// Wall-clock nanoseconds spent per hot-path phase.
    pub(crate) phase_ns: PhaseTimers,
    pub(crate) avail: Availability,
    pub(crate) demand: Demand,
    pub(crate) service: Service,
    pub(crate) deferral: Deferral,
    pub(crate) instruments: Instruments,
}

/// The facility power (integer µW) of `js` at each level, on its chips
/// under the plan: true chip power times the cooling overhead.
fn power_row<'a>(
    js: &'a JobState,
    (fleet, plan, cooling): (&'a Fleet, &'a OperatingPlan, &'a CoolingModel),
) -> impl Iterator<Item = i64> + 'a {
    fleet.dvfs.levels().map(move |l| {
        let it: f64 = js.chips.iter().map(|&c| plan.true_power(fleet, c, l)).sum();
        watts_to_microwatts(cooling.facility_power(it))
    })
}

/// Lowest level at which the job still meets its deadline from `now` and
/// is gone by `chain_limit`, its queue successors' bound (slowing a
/// running job delays everything queued behind it). The top level when
/// even full speed misses.
fn min_feasible_level(
    js: &JobState,
    chain_limit: SimTime,
    dvfs: &DvfsConfig,
    now: SimTime,
) -> FreqLevel {
    // Progress may lag by up to the current event: a safe overestimate.
    let rate = |l| speed_factor(js.job.gamma, dvfs.freq_ghz(l), dvfs.f_max());
    let dt = now.saturating_since(js.last_progress).as_secs_f64();
    let remaining = (js.remaining_nominal_s - dt * rate(js.level)).max(0.0);
    // The margin keeps rounding and start staggering from tipping an
    // exactly-fitting job past its deadline.
    let limit = js.job.deadline.min(chain_limit);
    let slack_s = (limit.saturating_since(now).as_secs_f64() - DVFS_SAFETY_MARGIN_S).max(0.0);
    let fits = |&l: &FreqLevel| remaining / rate(l) <= slack_s;
    dvfs.levels().find(fits).unwrap_or(dvfs.max_level())
}

impl SiteState {
    /// Builds a site from one run's inputs, with an empty job table: the
    /// driver admits every job. A site `restored` from a snapshot runs on
    /// the snapshot's plan, and takes an adaptive re-profile cadence from
    /// its saved safe interval when it has one; otherwise the input's
    /// deferred scan runs first, before the site's own tables are
    /// allocated. `widest_gang` is the widest job the site can receive
    /// (the fault machinery keeps room for it). `input.workload` is not
    /// read.
    pub(crate) fn new(
        input: SimInput,
        restored: Option<Restored>,
        site_id: u32,
        widest_gang: u32,
    ) -> SiteState {
        let (fleet, seed) = (&input.fleet, input.seed);
        let saved_safe_hours = restored.as_ref().and_then(|r| r.safe_reprofile_hours);
        let (restored, built_plan) = match restored {
            Some(r) => (Some(r.plan), r.built_plan),
            None => (None, input.plan.built().map(BuiltPlan::new)),
        };
        let plan = restored
            .as_ref()
            .unwrap_or_else(|| input.plan.get(fleet, seed));
        let avail = Availability::new(fleet.len(), plan.ranking());
        let service = Service::new(&input, saved_safe_hours, widest_gang);
        let instruments = Instruments::new(&input, plan);
        let plan = restored.unwrap_or_else(|| input.plan.into_plan(&input.fleet, seed));
        SiteState {
            site_id,
            expect_more: false,
            migrated_out: 0,
            rng: SimRng::derive(seed, "simulation"),
            jobs: JobTable::default(),
            done_count: 0,
            deadline_misses: 0,
            ledger: EnergyLedger::new(),
            last_account: SimTime::ZERO,
            makespan: SimTime::ZERO,
            surplus_signal: input.surplus_signal,
            placements: 0,
            queued_jobs: 0,
            costs: input.supply.cost_meter(),
            battery: input.supply.battery.map(BatteryState::empty),
            phase_ns: PhaseTimers::default(),
            avail,
            demand: Demand::new(input.fleet.dvfs.num_levels(), input.dvfs_mode),
            service,
            deferral: Deferral::new(input.deferral, input.carbon),
            instruments,
            scheme_name: input.scheme_name,
            fleet: input.fleet,
            plan,
            built_plan,
            placement: input.placement,
            supply: input.supply,
            cooling: input.cooling,
        }
    }

    /// The periodic events to prime before the run, in canonical order:
    /// wind sampling, profiling check, re-profile check, carbon check.
    pub(crate) fn initial_events(&self) -> Vec<(SimTime, SiteEv)> {
        let wind = self
            .supply
            .wind_interval()
            .filter(|_| self.supply.has_wind());
        let wind = wind.map(|iv| (iv, SiteEv::WindSample)).into_iter();
        let periodic = wind
            .chain(self.service.periodic())
            .chain(self.deferral.periodic());
        periodic.map(|(iv, ev)| (SimTime::ZERO + iv, ev)).collect()
    }

    /// Enters `job` in the job table, waiting, and returns its index.
    /// `starts` is the attempt count a migrating gang brings along.
    pub(crate) fn admit(&mut self, job: Job, starts: u32) -> usize {
        self.jobs.admit(JobState {
            chips: Vec::new(),
            phase: Phase::Waiting,
            level: self.fleet.dvfs.max_level(),
            remaining_nominal_s: job.runtime_at_fmax.as_secs_f64(),
            last_progress: job.submit,
            started_at: SimTime::ZERO,
            gen: 0,
            sched_end: SimTime::ZERO,
            power_uw_at: Vec::new(),
            chain_limit: SimTime::MAX,
            starts,
            attempt_energy_j: 0.0,
            job,
        })
    }

    /// Whether a `Retry { job }` would re-place this job: still waiting,
    /// and not already re-placed.
    pub(crate) fn retry_pending(&self, idx: usize) -> bool {
        let pending = |js: &JobState| js.phase == Phase::Waiting && js.chips.is_empty();
        self.jobs.get(idx).is_some_and(pending)
    }

    /// Hands a waiting, unplaced job to the federation: it retires from
    /// this site's table without a completion, and its description and
    /// attempt count travel on.
    pub(crate) fn extract_for_migration(&mut self, idx: usize) -> (Job, u32) {
        debug_assert!(
            self.retry_pending(idx),
            "only waiting, unplaced jobs can migrate"
        );
        let js = self.jobs.retire(idx);
        self.done_count += 1;
        self.migrated_out += 1;
        self.queued_jobs -= 1;
        (js.job, js.starts)
    }

    /// A job migrating in over the WAN: placed and started at once,
    /// bypassing deferral like a retry.
    pub(crate) fn rerouted_arrival(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        self.account(now);
        self.queued_jobs += 1;
        self.place_job(idx, now);
        self.try_start(&[idx], now, ctx);
        self.rebalance(now, ctx);
    }

    /// Admitted jobs that have not retired.
    pub(crate) fn live_jobs(&self) -> usize {
        self.jobs.admitted() - self.done_count
    }

    /// Whether work remains that keeps the periodic event chains alive.
    fn live(&self) -> bool {
        self.live_jobs() > 0 || self.expect_more
    }

    /// The instruments, and the rest of the site as they see it.
    fn observe(&mut self) -> (&mut Instruments, Observed<'_>) {
        let site = Observed {
            site_id: self.site_id,
            jobs: &self.jobs,
            fleet: &self.fleet,
            plan: &self.plan,
            cooling: &self.cooling,
            supply: &self.supply,
            avail: &self.avail,
            demand: &self.demand,
            service: &self.service,
            ledger: &self.ledger,
            costs: &self.costs,
            queued_jobs: self.queued_jobs,
            deadline_misses: self.deadline_misses,
        };
        (&mut self.instruments, site)
    }

    /// Integrates energy up to `now` at the current demand, splitting the
    /// draw between wind and utility.
    pub(crate) fn account(&mut self, now: SimTime) {
        let t0 = Instant::now();
        let from = self.last_account;
        let dt = now.saturating_since(from).as_secs_f64();
        if dt > 0.0 {
            let (wind, demand_w) = (self.supply.wind_power_at(from), self.demand.demand_w());
            self.ledger.draw(demand_w, wind, dt);
            // The utility share with the exact operands `draw` used, so a
            // constant price stays bit-identical to `utility_kwh × price`.
            let utility_w = demand_w - demand_w.min(wind);
            self.supply
                .book_utility(&mut self.costs, from, now, dt, utility_w);
            if let Some(b) = self.battery.as_mut() {
                b.step(wind - demand_w, dt);
            }
            self.service.book_scans(dt);
            let (instruments, site) = self.observe();
            instruments.account(&site, from, now, wind);
        }
        self.last_account = now;
        self.phase_ns.accounting_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Refreshes total demand and feeds the instruments the values active
    /// from `now`.
    fn refresh_demand(&mut self, now: SimTime) {
        let t0 = Instant::now();
        let demand = self.demand.refresh(&self.jobs, self.service.scan_power());
        let wind = self.supply.wind_power_at(now);
        let (instruments, site) = self.observe();
        instruments.refresh(&site, now, demand, wind);
        self.phase_ns.demand_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Advances a running job's remaining work to `now`, at the level it
    /// ran (callers advance before changing it).
    fn advance_progress(&mut self, idx: usize, now: SimTime) {
        // Attempt energy matters wherever an attempt can die mid-flight.
        let track_energy = self.service.has_faults() || self.deferral.suspends();
        let (js, dvfs) = (&mut self.jobs[idx], &self.fleet.dvfs);
        if js.phase != Phase::Running {
            return;
        }
        let dt = now.saturating_since(js.last_progress).as_secs_f64();
        if dt > 0.0 {
            let rate = speed_factor(js.job.gamma, dvfs.freq_ghz(js.level), dvfs.f_max());
            js.remaining_nominal_s = (js.remaining_nominal_s - dt * rate).max(0.0);
            if track_energy {
                let w = microwatts_to_watts(js.power_uw_at[js.level.0 as usize]);
                js.attempt_energy_j += dt * w;
            }
        }
        js.last_progress = now;
    }

    /// (Re)schedules the completion event from the current remaining work.
    fn schedule_completion(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        let (js, dvfs) = (&mut self.jobs[idx], &self.fleet.dvfs);
        js.gen += 1;
        let rate = speed_factor(js.job.gamma, dvfs.freq_ghz(js.level), dvfs.f_max());
        js.sched_end = now + SimDuration::from_secs_f64(js.remaining_nominal_s / rate);
        let (job, gen) = (idx, js.gen);
        ctx.schedule(js.sched_end, SiteEv::Completion { job, gen });
    }

    /// A scan of `chip` completed: its plan entry becomes the measured
    /// Min Vdd plus the scan guardband, with power estimates at those
    /// voltages, and the ranking and the auditor's table follow. No
    /// running job's power row changes: a chip is scanned only once its
    /// queue is empty and stays out of service until its scan ends, so
    /// no running job holds it.
    fn apply_scan(&mut self, chip: u32, measured_vmin: Vec<f64>, now: SimTime) {
        let (pm, dvfs) = (self.fleet.power_model(), &self.fleet.dvfs);
        let c = &self.fleet.chips[chip as usize];
        let voltages: Vec<f64> = measured_vmin
            .iter()
            .map(|&v| v + SCAN_GUARDBAND_V)
            .collect();
        let est =
            |l: FreqLevel| pm.power(c.alpha, c.beta, dvfs.freq_ghz(l), voltages[l.0 as usize]);
        let est = dvfs.levels().map(est).collect();
        let holds = |&i: &usize| self.jobs[i].chips.contains(&ChipId(chip));
        debug_assert!(
            !self.demand.running().iter().any(holds),
            "chip {chip} finished a scan while a running job held it"
        );
        self.plan.update_chip(ChipId(chip), voltages, est);
        if let Some(built) = &mut self.built_plan {
            built.replaced.set(chip as usize, true);
        }
        self.avail.set_ranking(self.plan.ranking());
        self.instruments
            .plan_updated((&self.fleet, &self.plan), ChipId(chip));
        // Under fault injection every scan completion settles the running
        // attempts' energy: the split points are part of those float sums.
        if self.service.has_faults() {
            for k in 0..self.demand.running().len() {
                self.advance_progress(self.demand.running()[k], now);
            }
        }
    }

    /// Releases deferred jobs whose wait is over and places them. Returns
    /// whether any was released.
    fn release_deferred(&mut self, now: SimTime, ctx: &mut impl SiteCtx) -> bool {
        let (deferral, demand_w) = (&mut self.deferral, self.demand.demand_w());
        let released = deferral.release(now, &self.jobs, &self.supply, demand_w);
        for &idx in &released {
            self.place_job(idx, now);
            self.try_start(&[idx], now, ctx);
        }
        !released.is_empty()
    }

    /// Whether renewable supply covers demand *plus* the job about to be
    /// placed (ScanFair's surplus signal), so surplus-mode placements do
    /// not spill their tails onto utility power.
    fn wind_surplus(&self, now: SimTime, idx: usize) -> bool {
        if !self.supply.has_wind() {
            return false;
        }
        let job = &self.jobs[idx].job;
        // The chips are not chosen yet: estimate from the plan's mean
        // busy power (its fleet sum is cached, so this is O(1)).
        let mean_est = self.plan.estimated_power_top_sum() / self.fleet.len() as f64;
        let job_w = self.cooling.facility_power(mean_est * job.cpus as f64);
        let wind = match (self.surplus_signal, &self.supply.wind) {
            (SurplusSignal::Instantaneous, _) => self.supply.wind_power_at(now),
            (SurplusSignal::ForecastAware, Some(trace)) => {
                iscope_energy::forecast_wind_over(trace, now, job.runtime_at_fmax)
            }
            (SurplusSignal::ForecastAware, None) => 0.0,
        };
        wind > self.demand.demand_w() + job_w
    }

    /// Places a job on processors and enqueues it. Holds release jobs out
    /// of arrival order and faults and suspensions kill attempts, so runs
    /// with either replay the availability projection every time.
    fn place_job(&mut self, idx: usize, now: SimTime) {
        let t0 = Instant::now();
        self.placements += 1;
        let surplus = self.wind_surplus(now, idx);
        let incremental = !self.deferral.active() && !self.service.has_faults();
        self.avail
            .refresh(&self.jobs, self.demand.running(), now, incremental);
        let (blocked, in_service) = (self.service.blocked(), self.service.in_service());
        let (avail, policy) = (&self.avail, &self.placement);
        let view = avail.view(now, (&self.plan, &self.fleet.dvfs), blocked, in_service);
        let decision = policy.place(&self.jobs[idx].job, &view, surplus, &mut self.rng);
        let chips = decision.chips().to_vec();
        self.avail.enqueue(idx, &chips, &mut self.jobs, now);
        self.service.chips_busy(&chips);
        self.jobs[idx].chips = chips;
        self.phase_ns.placement_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Starts every candidate that is waiting at the head of all its
    /// queues, at full speed with its power row frozen.
    fn try_start(&mut self, candidates: &[usize], now: SimTime, ctx: &mut impl SiteCtx) {
        let t0 = Instant::now();
        for &idx in candidates {
            let js = &self.jobs[idx];
            if js.phase != Phase::Waiting || !self.avail.heads(idx, &js.chips) {
                continue;
            }
            let row: Vec<i64> = power_row(js, (&self.fleet, &self.plan, &self.cooling)).collect();
            let chain_limit = self.avail.chain_limit_replay(idx, &self.jobs);
            let top = self.fleet.dvfs.max_level();
            self.demand.start(idx, &row, top);
            let js = &mut self.jobs[idx];
            js.phase = Phase::Running;
            js.level = top;
            js.started_at = now;
            js.last_progress = now;
            js.power_uw_at = row;
            js.chain_limit = chain_limit;
            js.starts += 1;
            js.attempt_energy_j = 0.0;
            self.queued_jobs -= 1;
            self.schedule_completion(idx, now, ctx);
            let started = (idx, &self.jobs[idx]);
            self.service
                .maybe_inject_failure(started, now, ctx, (&self.fleet, &self.plan));
        }
        self.phase_ns.placement_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Releases a running job's chips at `now`: settles its progress and
    /// books its demand, busy time and wear. Returns the new queue heads;
    /// the caller requeues or retires the job.
    fn release_chips(&mut self, idx: usize, now: SimTime) -> Vec<usize> {
        self.advance_progress(idx, now);
        self.demand.stop(idx, &self.jobs[idx]);
        let busy = now.saturating_since(self.jobs[idx].started_at);
        let chips = std::mem::take(&mut self.jobs[idx].chips);
        let heads = self.avail.release(idx, &chips, busy, &self.jobs);
        let parts = (&mut self.fleet, &self.plan);
        self.service
            .chips_released(&chips, busy, parts, &self.avail);
        heads
    }

    /// Kills a running attempt mid-flight — a timing failure on `chip`,
    /// or for `None` a carbon suspension — with its work lost. The job
    /// requeues after its backoff, or is abandoned once a failing job's
    /// retries run out; the lost energy goes on the fault or carbon
    /// waste books.
    fn kill(&mut self, idx: usize, chip: Option<u32>, now: SimTime, ctx: &mut impl SiteCtx) {
        let heads = self.release_chips(idx, now);
        let js = &mut self.jobs[idx];
        js.gen += 1; // invalidates the live Completion event
        js.phase = Phase::Waiting;
        js.remaining_nominal_s = js.job.runtime_at_fmax.as_secs_f64();
        js.chain_limit = SimTime::MAX;
        let (wasted, starts) = (std::mem::replace(&mut js.attempt_energy_j, 0.0), js.starts);
        let backoff = match chip {
            Some(chip) => self.service.timing_failure(chip as usize, starts, wasted),
            None => Some(self.deferral.suspended(starts, wasted)),
        };
        if let Some(delay) = backoff {
            self.queued_jobs += 1;
            ctx.schedule(now + delay, SiteEv::Retry { job: idx });
        } else {
            // An abandoned job can never finish in time.
            self.jobs.retire(idx);
            self.deadline_misses += 1;
            self.instruments.missed_deadline();
            self.done_count += 1;
            self.makespan = self.makespan.max(now);
        }
        self.try_start(&heads, now, ctx);
    }

    /// Applies the level changes the DVFS matcher picks under the
    /// renewable budget, then refreshes demand.
    fn rebalance(&mut self, now: SimTime, ctx: &mut impl SiteCtx) {
        let t0 = Instant::now();
        let has_wind = self.supply.has_wind();
        let budget = if has_wind {
            self.supply.wind_power_at(now)
        } else {
            f64::INFINITY
        };
        let (jobs, avail, dvfs) = (&self.jobs, &self.avail, &self.fleet.dvfs);
        let floor = |i| min_feasible_level(&jobs[i], avail.chain_limit(i, jobs), dvfs, now);
        let demand = &mut self.demand;
        let moves = demand.level_moves(watts_to_microwatts(budget), dvfs, jobs, floor);
        for &(idx, level) in &moves {
            self.advance_progress(idx, now);
            self.demand.move_level(&self.jobs[idx], level);
            self.jobs[idx].level = level;
            // The completion moves, and every start projected behind it.
            self.avail.invalidate();
            self.schedule_completion(idx, now, ctx);
        }
        self.demand.recycle(moves);
        self.phase_ns.rebalance_ns += t0.elapsed().as_nanos() as u64;
        self.refresh_demand(now);
    }

    fn finish_job(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        let heads = self.release_chips(idx, now);
        let js = self.jobs.retire(idx);
        debug_assert!(js.remaining_nominal_s < 1e-3, "completion with work left");
        if now > js.job.deadline {
            self.deadline_misses += 1;
            self.instruments.missed_deadline();
        }
        self.done_count += 1;
        self.makespan = self.makespan.max(now);
        self.try_start(&heads, now, ctx);
    }

    /// Dispatches one site-local event. `expect_more` only extends the
    /// periodic chains' rescheduling conditions; with it `false` each
    /// reduces to the single-site one.
    pub(crate) fn handle_event(&mut self, ctx: &mut impl SiteCtx, now: SimTime, event: SiteEv) {
        self.account(now);
        let scan_parts = (&self.fleet, &self.cooling);
        match event {
            SiteEv::Arrival(idx) => {
                self.queued_jobs += 1;
                let (job, demand_w) = (&self.jobs[idx].job, self.demand.demand_w());
                if !self.deferral.hold(idx, job, now, &self.supply, demand_w) {
                    self.place_job(idx, now);
                    self.try_start(&[idx], now, ctx);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::Completion { job, gen } => {
                let live = |js: &JobState| js.gen == gen && js.phase == Phase::Running;
                if !self.jobs.get(job).is_some_and(live) {
                    return; // stale reschedule, or the job has retired
                }
                self.finish_job(job, now, ctx);
                self.rebalance(now, ctx);
            }
            SiteEv::WindSample => {
                self.release_deferred(now, ctx);
                self.rebalance(now, ctx);
                if let Some(iv) = self.supply.wind_interval().filter(|_| self.live()) {
                    ctx.schedule(now + iv, SiteEv::WindSample);
                }
            }
            SiteEv::ProfilingCheck => {
                self.service
                    .profiling_check(now, ctx, scan_parts, &self.avail);
                if let Some(iv) = self.service.next_profiling_check(self.live()) {
                    ctx.schedule(now + iv, SiteEv::ProfilingCheck);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::ProfilingDone { chip } | SiteEv::ReprofileDone { chip } => {
                let rescan = matches!(event, SiteEv::ReprofileDone { .. });
                if let Some(row) = self.service.scan_done(chip as usize, rescan, scan_parts) {
                    self.apply_scan(chip, row, now);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::TimingFailure { job, attempt, chip } => {
                let live = |js: &JobState| js.phase == Phase::Running && js.starts == attempt;
                if self.jobs.get(job).is_some_and(live) {
                    self.kill(job, Some(chip), now, ctx);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::Retry { job } => {
                // Retries bypass deferral: the job already burned slack.
                if self.retry_pending(job) {
                    self.place_job(job, now);
                    self.try_start(&[job], now, ctx);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::ReprofileCheck => {
                if self.live() {
                    self.service
                        .reprofile_check(now, ctx, scan_parts, &self.avail);
                    if let Some(iv) = self.service.reprofile_interval() {
                        ctx.schedule(now + iv, SiteEv::ReprofileCheck);
                    }
                }
                self.rebalance(now, ctx);
            }
            SiteEv::CarbonSample => {
                // Rebalance only when the sample acted, so runs whose
                // thresholds are never crossed keep the carbon-off DVFS
                // trajectory.
                if self.carbon_sample(now, ctx) {
                    self.rebalance(now, ctx);
                }
                if let Some((iv, ev)) = self.deferral.periodic().filter(|_| self.live()) {
                    ctx.schedule(now + iv, ev);
                }
            }
        }
    }

    /// The periodic carbon/price re-evaluation: suspend the policy's
    /// victims, then release deferred arrivals whose hold is over.
    /// Returns whether anything was suspended or released.
    fn carbon_sample(&mut self, now: SimTime, ctx: &mut impl SiteCtx) -> bool {
        let running = self.demand.running();
        let (deferral, supply) = (&self.deferral, &self.supply);
        let Some(victims) = deferral.victims(now, supply, running, &self.jobs) else {
            return false;
        };
        let suspended = !victims.is_empty();
        for idx in victims {
            self.kill(idx, None, now, ctx);
        }
        self.release_deferred(now, ctx) | suspended
    }

    /// Closes the books at the site's final instant and assembles its
    /// [`RunReport`] (strict audits panic here on any breach).
    pub(crate) fn finalize(mut self) -> SiteOutcome {
        let end = self.makespan;
        self.account(end);
        let (utility_usd, gco2) = self.costs.finish();
        let wind_usd = self.ledger.wind_cost_usd(&self.supply.prices);
        let costs = CostSplit {
            utility_usd,
            wind_usd,
            gco2,
        };
        let (instruments, site) = self.observe();
        let (power_series, telemetry, audit) = instruments.finish(&site, end, &costs);
        let (profiling, faults) = self.service.stats();
        let report = RunReport {
            scheme: self.scheme_name,
            ledger: self.ledger,
            prices: self.supply.prices,
            costs,
            jobs: self.jobs.admitted(),
            deadline_misses: self.deadline_misses,
            makespan: self.makespan,
            usage_hours: self
                .avail
                .usage()
                .iter()
                .map(|u| u.as_hours_f64())
                .collect(),
            power_series,
            profiling,
            faults,
            carbon: self.deferral.stats(),
            audit,
            telemetry,
        };
        let (placements, phases) = (self.placements, self.phase_ns);
        SiteOutcome {
            report,
            placements,
            phases,
        }
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::checkpoint::check_job;
    use super::*;
    use crate::snapshot::{self, Persist, Reader, SnapshotError, ToVal};
    use iscope_dcsim::Sampler;
    use iscope_workload::{JobId, Urgency};
    use proptest::prelude::*;

    fn render(v: &impl ToVal) -> String {
        snapshot::render(v, "test").unwrap()
    }

    /// Reads one `T` from `text`, which it must consume.
    fn read<T: Persist>(text: &str, what: &str) -> Result<T, SnapshotError> {
        let mut r = Reader::new(text);
        let v = T::read(&mut r, what)?;
        r.end()?;
        Ok(v)
    }

    /// Decodes a job record and bounds-checks it against a 64-chip,
    /// 8-level fleet, as restore does.
    fn load_job(doc: &str) -> Result<JobState, SnapshotError> {
        let js: JobState = read(doc, "job")?;
        check_job(&js, 64, 8)?;
        Ok(js)
    }

    fn arb_time() -> impl Strategy<Value = SimTime> {
        prop_oneof![
            (0u64..1 << 40).prop_map(SimTime::from_millis),
            Just(SimTime::MAX),
        ]
    }

    fn arb_event() -> impl Strategy<Value = SiteEv> {
        prop_oneof![
            (0usize..1 << 20).prop_map(SiteEv::Arrival),
            ((0usize..1 << 20), any::<u64>())
                .prop_map(|(job, gen)| SiteEv::Completion { job, gen }),
            Just(SiteEv::WindSample),
            Just(SiteEv::ProfilingCheck),
            any::<u32>().prop_map(|chip| SiteEv::ProfilingDone { chip }),
            ((0usize..1 << 20), any::<u32>(), any::<u32>())
                .prop_map(|(job, attempt, chip)| SiteEv::TimingFailure { job, attempt, chip }),
            (0usize..1 << 20).prop_map(|job| SiteEv::Retry { job }),
            Just(SiteEv::ReprofileCheck),
            any::<u32>().prop_map(|chip| SiteEv::ReprofileDone { chip }),
            Just(SiteEv::CarbonSample),
        ]
    }

    /// Job states over a 64-chip, 8-level fleet — the bounds `load_job`
    /// enforces in the roundtrip below.
    fn arb_job_state() -> impl Strategy<Value = JobState> {
        let finite = any::<f64>().prop_filter("finite", |f| f.is_finite());
        (
            (
                any::<u32>(),
                0u64..1 << 39,
                1u32..4096,
                0u64..1 << 39,
                0.0f64..=1.0,
                0u64..1 << 39,
                any::<bool>(),
            ),
            (
                prop::collection::vec(0u32..64, 0..8),
                0u8..3,
                0u8..8,
                finite.clone(),
                0u64..1 << 39,
            ),
            (
                0u64..1 << 39,
                any::<u64>(),
                0u64..1 << 39,
                prop::collection::vec(any::<i64>(), 0..8),
                any::<u32>(),
                finite,
            ),
        )
            .prop_map(
                |(
                    (id, submit, cpus, runtime, gamma, deadline, high),
                    (chips, phase, level, remaining, last_progress),
                    (started, gen, sched_end, power, starts, energy),
                )| {
                    JobState {
                        job: Job {
                            id: JobId(id),
                            submit: SimTime::from_millis(submit),
                            // A placed job holds one chip per CPU.
                            cpus: if chips.is_empty() {
                                cpus
                            } else {
                                chips.len() as u32
                            },
                            runtime_at_fmax: SimDuration::from_millis(runtime),
                            gamma: iscope_pvmodel::CpuBoundness::new(gamma),
                            deadline: SimTime::from_millis(deadline),
                            urgency: if high { Urgency::High } else { Urgency::Low },
                        },
                        chips: chips.into_iter().map(ChipId).collect(),
                        phase: match phase {
                            0 => Phase::Waiting,
                            1 => Phase::Running,
                            _ => Phase::Done,
                        },
                        level: FreqLevel(level),
                        remaining_nominal_s: remaining,
                        last_progress: SimTime::from_millis(last_progress),
                        started_at: SimTime::from_millis(started),
                        gen,
                        sched_end: SimTime::from_millis(sched_end),
                        power_uw_at: power,
                        chain_limit: SimTime::MAX,
                        starts,
                        attempt_energy_j: energy,
                    }
                },
            )
    }

    proptest! {
        /// Pending events: encode → decode → encode is byte-stable.
        #[test]
        fn prop_event_roundtrip(t in arb_time(), ev in arb_event()) {
            let first = render(&(t, ev));
            let (t2, ev2) = read::<(SimTime, SiteEv)>(&first, "event").unwrap();
            prop_assert_eq!(t2, t);
            prop_assert_eq!(ev2, ev);
            prop_assert_eq!(render(&(t2, ev2)), first);
        }

        /// Job states: encode → decode → encode is byte-stable (floats
        /// bit-exact, times/ids/rows integer-exact).
        #[test]
        fn prop_job_roundtrip(js in arb_job_state()) {
            let first = render(&js);
            let back = load_job(&first).unwrap();
            prop_assert_eq!(render(&back), first);
        }

        /// RNG streams: the captured state resumes at exactly the next
        /// draw, and the value encoding is byte-stable.
        #[test]
        fn prop_rng_roundtrip(seed in any::<u64>(), draws in 0usize..40, odd in any::<bool>()) {
            let mut rng = SimRng::new(seed);
            for _ in 0..draws {
                rng.uniform();
            }
            if odd {
                // Leave a Box–Muller spare pending.
                rng.std_normal();
            }
            let first = render(&rng);
            let mut back: SimRng = read(&first, "test rng").unwrap();
            prop_assert_eq!(render(&back), first.clone());
            // The restored stream continues bit-identically.
            for _ in 0..8 {
                prop_assert_eq!(back.std_normal().to_bits(), rng.std_normal().to_bits());
            }
        }

        /// Samplers mid-stream: parts → value → parts is byte-stable.
        #[test]
        fn prop_sampler_roundtrip(
            interval_ms in 1u64..1 << 30,
            next_tick in 0u64..1 << 39,
            current in any::<f64>().prop_filter("finite", |f| f.is_finite()),
            values in prop::collection::vec(
                any::<f64>().prop_filter("finite", |f| f.is_finite()), 0..16),
        ) {
            let s = Sampler::from_parts(
                "demand",
                SimDuration::from_millis(interval_ms),
                SimTime::from_millis(next_tick),
                current,
                values,
            );
            let first = render(&s);
            let back: Sampler = read(&first, "sampler").unwrap();
            prop_assert_eq!(render(&back), first);
        }
    }

    #[test]
    fn event_decoder_rejects_unknown_tags() {
        assert!(read::<(SimTime, SiteEv)>("[5,[\"explode\"]]", "event").is_err());
    }

    #[test]
    fn job_decoder_rejects_out_of_range_chips_and_levels() {
        let mut js = JobState {
            job: Job {
                id: JobId(1),
                submit: SimTime::ZERO,
                cpus: 1,
                runtime_at_fmax: SimDuration::from_secs(1),
                gamma: iscope_pvmodel::CpuBoundness::FULL,
                deadline: SimTime::from_secs(10),
                urgency: Urgency::Low,
            },
            chips: vec![ChipId(99)],
            phase: Phase::Running,
            level: FreqLevel(0),
            remaining_nominal_s: 1.0,
            last_progress: SimTime::ZERO,
            started_at: SimTime::ZERO,
            gen: 0,
            sched_end: SimTime::ZERO,
            power_uw_at: vec![],
            chain_limit: SimTime::MAX,
            starts: 1,
            attempt_energy_j: 0.0,
        };
        let doc = render(&js);
        assert!(load_job(&doc).is_err(), "chip 99 must be rejected");
        js.chips = vec![ChipId(1)];
        js.level = FreqLevel(12);
        let doc = render(&js);
        assert!(load_job(&doc).is_err(), "level 12 must be rejected");
    }

    #[test]
    fn rng_decoder_rejects_all_zero_state() {
        let text = "{\"words\":[0,0,0,0],\"spare\":null}";
        assert!(matches!(
            read::<SimRng>(text, "test rng"),
            Err(SnapshotError::Mismatch(_))
        ));
    }
}
