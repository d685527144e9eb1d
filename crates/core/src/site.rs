//! Per-site simulation state: the reusable core of the green-datacenter
//! simulator.
//!
//! [`SiteState`] owns everything one datacenter site needs — fleet, plan,
//! placement policy, queues, energy ledger, demand aggregates, chip
//! indexes, fault/quarantine/re-profile machinery, audit and telemetry
//! instruments — and handles site-local events ([`SiteEv`]) against any
//! clock that can schedule follow-ups ([`SiteCtx`]).
//!
//! `crate::simulation::Driver` holds one or more sites under one engine,
//! tagging each site's events with its site id and routing arrivals
//! between sites; each site only ever sees `SiteEv`s.
//!
//! The only behavioural seam between one site and many is
//! [`SiteState::expect_more`]: it keeps a site's periodic chains (wind
//! sampling, profiling and re-profile checks) alive while the source or
//! *other* sites still have work that could come here. A lone site's
//! flag only says whether the source has more jobs.

use crate::report::{AuditReport, RunReport};
use crate::simulation::{
    AuditConfig, DeferralConfig, DvfsMode, FaultInjectionConfig, InSituConfig, PhaseTimers,
    SimInput, SurplusSignal,
};
use crate::snapshot::{
    self, optional_section, persist_struct, section, Doc, DocWriter, Fields, Persist, Reader,
    Section, SnapshotError, ToVal, Writer, SNAPSHOT_VERSION,
};
use crate::telemetry::{self};
use iscope_dcsim::{RowSampler, Sampler, SimDuration, SimRng, SimTime};
use iscope_energy::{BatteryState, CostMeter, CostSplit, EnergyLedger, Supply};
use iscope_pvmodel::{
    microwatts_to_watts, speed_factor, watts_to_microwatts, ChipId, CoolingModel, Fleet, FreqLevel,
    OperatingPlan,
};
use iscope_scanner::{with_nominal_fallback, Scanner, VoltageGrid};
use iscope_sched::{
    match_budget, validate_key_range, CarbonConfig, ChipIndexes, DvfsCandidate, Placement, ProcView,
};
use iscope_workload::{Job, JobId, Urgency};
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
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
    /// A chip finished its scan and rejoins service at its measured
    /// operating point.
    ProfilingDone {
        chip: u32,
    },
    /// A running gang's worst chip crossed its drifted Min Vdd: the
    /// attempt dies mid-flight. `attempt` guards against stale events
    /// after the job was already killed and restarted.
    TimingFailure {
        job: usize,
        attempt: u32,
        chip: u32,
    },
    /// A failed job's backoff expired: place it again.
    Retry {
        job: usize,
    },
    /// Periodic re-profiling check: drain due chips and start re-scans.
    ReprofileCheck,
    /// A re-scan finished; the chip rejoins service with a refreshed plan
    /// entry and a reset stress clock.
    ReprofileDone {
        chip: u32,
    },
    /// Periodic carbon/price signal check: suspend dirty-running gangs,
    /// release deferred jobs whose hold expired. Scheduled only when an
    /// *active* [`iscope_sched::CarbonConfig`] is present, so carbon-off
    /// runs see an unchanged event stream.
    CarbonSample,
}

/// The scheduling capability a [`SiteState`] needs from its host clock:
/// enqueue a site-local event at an absolute time (the driver tags it
/// with the site). Cancellation is never used — stale events are
/// invalidated by generation counters instead.
pub(crate) trait SiteCtx {
    /// Schedules `ev` for this site at absolute time `at`.
    fn schedule(&mut self, at: SimTime, ev: SiteEv);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Waiting,
    Running,
    Done,
}

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
    /// Absolute time of the live `Completion` event (valid while
    /// running): the exact instant the job will finish unless a DVFS
    /// change reschedules it. Availability projections anchor on this
    /// instead of re-deriving it from floats, so they match the event
    /// the engine will actually fire.
    pub(crate) sched_end: SimTime,
    /// Facility power of this job at each frequency level under the
    /// current plan (valid while running), in fixed-point integer
    /// microwatts. A job's chip set is fixed at placement, so the row only
    /// changes when an in-situ scan upgrades the plan; freezing it keeps
    /// `true_power`'s per-chip evaluation off the per-event demand path,
    /// and the integer representation makes every sum over rows exactly
    /// order-independent — the fleet-wide demand aggregates maintained
    /// from these rows match a from-scratch replay bit for bit.
    pub(crate) power_uw_at: Vec<i64>,
    /// Cached deadline bound imposed by this job's direct queue successors
    /// (valid while running): the minimum over its chips of "successor k
    /// must start by deadline_k − chain-through-k". `SimTime::MAX` when no
    /// successor constrains it. A successor set only grows by appends
    /// while this job runs (it is the head of all its queues), so the
    /// bound is initialized by one queue walk at start and tightened in
    /// O(1) per placement that lands behind this job — `min_feasible_level`
    /// never re-walks queues on the rebalance path.
    pub(crate) chain_limit: SimTime,
    /// Times this job has entered `Running` (the attempt counter under
    /// fault injection; stays 1 in fault-free runs). Migrated jobs carry
    /// their count across sites so retry budgets stay global.
    pub(crate) starts: u32,
    /// Energy (J) drawn by the current attempt so far, settled at each
    /// progress advance. Charged to the waste ledger when the attempt
    /// fails. Only maintained under fault injection.
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
    /// Which site of the federation this is (0 for single-site runs);
    /// stamped into telemetry records.
    pub(crate) site_id: u32,
    /// Display name of the scheme, carried into the final report.
    pub(crate) scheme_name: String,
    /// Liveness hint, refreshed by the driver before each step: `true`
    /// while the source has jobs left or work elsewhere is unfinished
    /// that could still arrive or migrate here, so this site's periodic
    /// event chains must not die just because its local jobs are done.
    /// A pre-admitted run leaves it `false`, and every rescheduling
    /// condition then reduces to its original single-site form.
    pub(crate) expect_more: bool,
    /// Jobs admitted here but handed to another site on retry (their
    /// `Done` phase at this site is a routing artifact, not a completion).
    pub(crate) migrated_out: u64,
    pub(crate) fleet: Fleet,
    pub(crate) plan: OperatingPlan,
    pub(crate) placement: Box<dyn Placement>,
    pub(crate) supply: Supply,
    pub(crate) cooling: CoolingModel,
    pub(crate) rng: SimRng,
    pub(crate) jobs: Vec<JobState>,
    pub(crate) queues: Vec<VecDeque<usize>>,
    pub(crate) usage: Vec<SimDuration>,
    pub(crate) running: Vec<usize>,
    /// How many running jobs sit at each DVFS level — maintained at
    /// start/finish/fail/level-change so `rebalance_global` can prove
    /// "nothing changed level" in O(1) and skip its O(running) filter
    /// (at scale with abundant wind that filter never finds work but
    /// runs on every periodic event — it was 1.6 s of the 50k run).
    pub(crate) running_at_level: Vec<usize>,
    pub(crate) done_count: usize,
    pub(crate) deadline_misses: usize,
    pub(crate) ledger: EnergyLedger,
    pub(crate) last_account: SimTime,
    pub(crate) current_demand_w: f64,
    pub(crate) makespan: SimTime,
    pub(crate) samplers: Option<[Sampler; 4]>,
    pub(crate) dvfs_mode: DvfsMode,
    pub(crate) deferral: Option<DeferralConfig>,
    pub(crate) deferred: Vec<usize>,
    pub(crate) in_situ: Option<InSituState>,
    pub(crate) faults: Option<FaultState>,
    /// The blocked view handed to the placement policy: the chips out of
    /// service (`chip_out_of_service`). Derived from the in-situ and fault
    /// sets by `sync_service` at each of their transitions; not serialized
    /// (`rebuild_derived` recomputes it).
    pub(crate) out_of_service: ChipSet,
    pub(crate) surplus_signal: SurplusSignal,
    /// Placement decisions taken (one per job, counting deferred jobs
    /// once, when finally placed). Reported through
    /// [`crate::simulation::RunStats`].
    pub(crate) placements: u64,
    /// Incrementally maintained per-chip availability: `avail[c]` is the
    /// absolute time chip `c` drains its queue under current knowledge
    /// (running jobs end at their scheduled completion, queued gangs at
    /// f_max behind them). Values may fall behind `now` for idle chips;
    /// the placement view clamps them. Invalidated by DVFS level changes
    /// (`avail_dirty`) and rebuilt by replay on the next placement.
    pub(crate) avail: Vec<SimTime>,
    /// Set when a DVFS level change moved running jobs' completions, so
    /// every downstream projection in `avail` is stale.
    pub(crate) avail_dirty: bool,
    /// Persistent tournament-tree indexes over the `(usage, id)` and
    /// clamped `(avail, id)` pool orderings (DESIGN.md §3d). Maintained
    /// at the same transition points as `avail`/`usage` — O(log F) per
    /// chip on place/finish — and rebuilt wholesale whenever the lazy
    /// queue replay rewrites `avail` (the epoch-invalidation rule).
    pub(crate) chip_index: ChipIndexes,
    /// Reusable candidate buffers for the placement policies.
    pub(crate) place_scratch: iscope_sched::PlaceScratch,
    /// `demand_uw_at_level[l]`: fleet demand (integer µW) if every running
    /// job sat at level `l` — the sum of the frozen `power_uw_at` rows over
    /// the running set. Maintained incrementally on start/finish/plan
    /// upgrade; `rebalance_global`'s level descent probes it in O(1).
    pub(crate) demand_uw_at_level: Vec<i64>,
    /// Fleet demand (integer µW) at the jobs' *current* levels (what the
    /// ledger actually charges, before cooling-free profiling overhead).
    /// Maintained incrementally on start/finish/level change/plan upgrade;
    /// `refresh_demand` reads it in O(1).
    pub(crate) running_demand_uw: i64,
    /// `chain_len_ms[c]`: summed nominal runtimes (ms) of everything
    /// queued on chip `c` *behind* its head job. Appends extend it, a
    /// completion re-bases it to the next head; it feeds the O(1) cached
    /// chain-limit tightening in `place_job`.
    pub(crate) chain_len_ms: Vec<u64>,
    /// Number of chips with a non-empty queue, maintained at the two queue
    /// transition points (`place_job` push, `release_chips` pop) so the
    /// in-situ profiling check stops recounting the fleet per event.
    pub(crate) busy_queues: usize,
    /// Scratch buffer for the level changes a rebalance applies, reused
    /// across invocations like `PlaceScratch`'s candidate buffers.
    pub(crate) level_scratch: Vec<usize>,
    /// Jobs submitted (or requeued for retry) but not yet running: the
    /// telemetry queue-depth signal. Integer-only bookkeeping at the
    /// three phase-transition points, so maintaining it unconditionally
    /// cannot perturb floats, RNG streams, or event order.
    pub(crate) queued_jobs: u64,
    /// Run-wide invariant auditor, when enabled.
    pub(crate) audit: Option<AuditState>,
    /// Fixed-cadence telemetry recorder, when enabled.
    pub(crate) telemetry: Option<TelemetryState>,
    /// Exact time integrators for utility cost and carbon: booked on the
    /// same event intervals as the ledger, observational (never read by
    /// scheduling decisions).
    pub(crate) costs: CostMeter,
    /// Carbon/price-aware policy state. `Some` only when the input config
    /// has at least one threshold set — an inert config is dropped at
    /// construction, so every carbon gate below reduces to the
    /// carbon-free form.
    pub(crate) carbon: Option<CarbonState>,
    /// On-site storage model, stepped against wind surplus/deficit each
    /// accounting interval. Observational: the ledger never sees it; the
    /// federation router reads its charge as dispatchable surplus.
    pub(crate) battery: Option<BatteryState>,
    /// Wall-clock nanoseconds spent per hot-path phase.
    pub(crate) phase_ns: PhaseTimers,
}

/// Runtime state of the carbon/price-aware policy (deferral +
/// suspend/resume counters around an active [`CarbonConfig`]).
pub(crate) struct CarbonState {
    pub(crate) config: CarbonConfig,
    /// Arrivals held in the deferred pool because the signal was dirty.
    pub(crate) deferrals: u64,
    /// Running gangs preempted by the suspend threshold.
    pub(crate) suspensions: u64,
    /// Energy (J) burned by suspended attempts.
    pub(crate) wasted_j: f64,
}

/// Runtime state of the invariant auditor: an independent shadow of the
/// energy books. `demand_w` is the auditor's own demand snapshot —
/// recomputed from the plan and fleet at every demand refresh, never read
/// from the incremental aggregates it cross-checks — and the energy
/// integrals accumulate `demand_w` against the same event intervals the
/// ledger sees.
pub(crate) struct AuditState {
    config: AuditConfig,
    /// The auditor's demand snapshot (W) for the interval now opening.
    demand_w: f64,
    /// Independently integrated wind energy (J).
    wind_j: f64,
    /// Independently integrated utility energy (J).
    utility_j: f64,
    /// Independently integrated per-chip busy time (ms): each accounting
    /// interval adds its length to every chip of every running job.
    /// Integer milliseconds, so the end-of-run comparison against the
    /// per-attempt `usage` sums is exact.
    busy_ms: Vec<u64>,
    /// Independent deadline recount (completion instant vs the job's own
    /// deadline; abandoned jobs count once).
    deadline_misses: usize,
    /// Energy intervals integrated.
    intervals: u64,
    /// Demand-snapshot cross-checks performed.
    demand_checks: u64,
    /// Scratch for the per-level recomputation.
    by_level_scratch: Vec<i64>,
    /// Independent re-integration of `∫ price(t) × draw_W(t) dt` and
    /// `∫ intensity(t) × utility_W(t) dt`, booked from the auditor's own
    /// demand snapshot — never from the engine meters it cross-checks.
    costs: CostMeter,
    /// Recorded invariant breaches (detail capped; see `suppressed`).
    violations: Vec<String>,
    /// Breaches beyond the detail cap.
    suppressed: u64,
}

/// Cap on recorded violation detail strings; further breaches only bump
/// the suppressed counter so a badly broken run cannot balloon memory.
const MAX_VIOLATION_DETAILS: usize = 16;

impl AuditState {
    fn violation(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATION_DETAILS {
            self.violations.push(msg);
        } else {
            self.suppressed += 1;
        }
    }
}

/// Runtime state of the telemetry recorder: one multi-channel
/// sample-and-hold sampler plus a reusable row buffer. Channel layout
/// (see [`crate::telemetry`]): supply W, demand W, utility W, queue
/// depth, one channel per DVFS level (running jobs at that level),
/// quarantined-chip count.
pub(crate) struct TelemetryState {
    sampler: RowSampler,
    row_scratch: Vec<f64>,
}

/// A set of chips: a membership flag per chip plus the member count,
/// kept in step by [`ChipSet::set`]. Saved as its flags; the count is
/// re-derived on load.
pub(crate) struct ChipSet {
    on: Vec<bool>,
    len: usize,
}

impl ChipSet {
    fn new(n: usize) -> ChipSet {
        ChipSet::from_flags(vec![false; n])
    }

    fn from_flags(on: Vec<bool>) -> ChipSet {
        let len = on.iter().filter(|&&b| b).count();
        ChipSet { on, len }
    }

    fn contains(&self, i: usize) -> bool {
        self.on[i]
    }

    /// Members now.
    fn len(&self) -> usize {
        debug_assert_eq!(self.len, self.iter().count(), "chip-set count diverged");
        self.len
    }

    fn set(&mut self, i: usize, on: bool) {
        if self.on[i] != on {
            self.on[i] = on;
            self.len = if on { self.len + 1 } else { self.len - 1 };
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.on.len()).filter(|&i| self.on[i])
    }
}

impl ToVal for ChipSet {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        self.on.write(w, what)
    }
}

impl Persist for ChipSet {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        Vec::<bool>::read(r, what).map(ChipSet::from_flags)
    }
}

/// One chip-scanning loop (stages 3-6 of Fig. 3): chips isolated and
/// under scan, the Min Vdd row each returns to service with, and the
/// facility power the scans draw. In-situ profiling and re-profiling
/// each own one; their scanner and grid stay with the owner.
pub(crate) struct ScanBay {
    /// Measurement-noise stream for this loop's scans.
    rng: SimRng,
    /// Chips under scan (out of service).
    scanning: ChipSet,
    /// Min Vdd measured at scan start, applied when the scan completes.
    /// (The chip is isolated and idle for the whole scan, so no wear can
    /// accrue in between — start and end measurements coincide.)
    pending_vmin: Vec<Option<Vec<f64>>>,
    /// Facility power drawn by chips under scan.
    power_w: f64,
    /// Accumulated scan energy (J) — part of demand but reported
    /// separately as the overhead.
    energy_j: f64,
}

impl ScanBay {
    fn new(rng: SimRng, n: usize) -> ScanBay {
        ScanBay {
            rng,
            scanning: ChipSet::new(n),
            pending_vmin: vec![None; n],
            power_w: 0.0,
            energy_j: 0.0,
        }
    }

    /// Isolates chip `ci` and scans it now, drawing `power` until
    /// [`ScanBay::finish`]. Returns the scan's duration and tests run.
    fn start(
        &mut self,
        scanner: &Scanner,
        grid: &VoltageGrid,
        fleet: &Fleet,
        ci: usize,
        power: f64,
    ) -> (SimDuration, u64) {
        let scan = scanner.scan_chip(&fleet.chips[ci], grid, &mut self.rng);
        self.pending_vmin[ci] = Some(with_nominal_fallback(&fleet.dvfs, |l| {
            scan.measured_vmin_chip(l)
        }));
        self.scanning.set(ci, true);
        self.power_w += power;
        (scan.duration, scan.tests_run)
    }

    /// Chip `ci`'s scan ended: it leaves the bay and its `power` stops.
    /// Returns the measured row to apply.
    fn finish(&mut self, ci: usize, power: f64) -> Vec<f64> {
        self.scanning.set(ci, false);
        self.power_w = (self.power_w - power).max(0.0);
        self.pending_vmin[ci]
            .take()
            .expect("scan finished without a measurement")
    }
}

pub(crate) struct InSituState {
    pub(crate) config: InSituConfig,
    scanner: Scanner,
    grid: VoltageGrid,
    bay: ScanBay,
    /// Chips whose scan completed and whose plan entry was upgraded.
    profiled: ChipSet,
    /// Stability tests the scans ran.
    tests_run: u64,
    /// Chips that are simultaneously idle, unprofiled, and not under
    /// scan — the candidate pool. Ordered (BTreeSet) so candidate
    /// selection matches the ascending-id scan it replaces bit for bit.
    idle_unprofiled: BTreeSet<u32>,
}

/// Runtime state of fault injection, recovery, and periodic re-profiling
/// (the closed staleness loop).
pub(crate) struct FaultState {
    pub(crate) config: FaultInjectionConfig,
    /// Jitter stream for the failure predicate; independent of every
    /// other stream, so enabling faults never perturbs placement or
    /// scanner randomness.
    rng: SimRng,
    /// The re-scans.
    bay: ScanBay,
    /// Re-scan scanner and grid (present only with a re-profiling config).
    rescan: Option<(Scanner, VoltageGrid)>,
    /// Stress hours a chip may accumulate before it is due for a re-scan
    /// (resolved once from the policy against the *initial* plan;
    /// `INFINITY` without re-profiling).
    stress_interval_hours: f64,
    /// Accumulated (accelerated) voltage-stress hours per chip since its
    /// last scan.
    stress_hours: Vec<f64>,
    /// Chips quarantined after a failure, awaiting a re-scan.
    suspect: ChipSet,
    /// Chips due for a re-scan: no new work is placed on them while
    /// their queued work drains.
    draining: Vec<bool>,
    /// Chips that must stay in service: the widest gang in the workload,
    /// or the re-profiling config's availability floor if larger.
    min_in_service: usize,
    timing_failures: u64,
    retries: u64,
    failed_jobs: usize,
    /// Energy (J) burned by failed attempts.
    wasted_j: f64,
    chips_rescanned: u64,
    /// Summed per-chip downtime spent in re-scans.
    rescan_downtime: SimDuration,
}

impl FaultState {
    /// Whether the fault machinery holds chip `i` out of service:
    /// draining toward a re-scan, under re-scan, or quarantined.
    fn holds(&self, i: usize) -> bool {
        self.bay.scanning.contains(i) || self.draining[i] || self.suspect.contains(i)
    }
}

impl SiteState {
    /// Builds a site from one run's inputs, with an empty job table: the
    /// driver admits every job. `widest_gang` is the widest job the site
    /// can receive; the fault machinery's availability floor keeps room
    /// for it. `input.workload` is not read.
    pub(crate) fn new(input: SimInput, site_id: u32, widest_gang: u32) -> SiteState {
        let n = input.fleet.len();
        let samplers = input.trace_interval.map(|iv| {
            [
                Sampler::new("demand", iv, 0.0),
                Sampler::new("wind", iv, input.supply.wind_power_at(SimTime::ZERO)),
                Sampler::new("utility_draw", iv, 0.0),
                Sampler::new("wind_draw", iv, 0.0),
            ]
        });
        let num_levels = input.fleet.dvfs.num_levels();
        let fault_cfg = input.fault_injection;
        let faults = fault_cfg.map(|config| {
            config.model.validate();
            config.retry.validate();
            assert!(
                (0.0..=1.0).contains(&config.max_suspect_fraction),
                "suspect fraction must be in [0, 1]"
            );
            let reprofile = config.reprofile.as_ref();
            if let Some(r) = reprofile {
                r.policy.validate();
            }
            let stress_interval_hours = reprofile.map_or(f64::INFINITY, |r| {
                r.policy
                    .stress_interval_hours(&input.fleet, &input.plan, &config.model.aging)
            });
            let rescan = reprofile.map(|r| {
                (
                    Scanner::new(r.scanner.clone()),
                    r.scanner.grid(&input.fleet.dvfs),
                )
            });
            let min_in_service = (widest_gang as usize).max(
                reprofile.map_or(0, |r| (n as f64 * r.min_available_fraction).ceil() as usize),
            );
            FaultState {
                rng: SimRng::derive(input.seed, "fault-injection"),
                bay: ScanBay::new(SimRng::derive(input.seed, "re-profiling"), n),
                rescan,
                stress_interval_hours,
                stress_hours: vec![0.0; n],
                suspect: ChipSet::new(n),
                draining: vec![false; n],
                min_in_service,
                timing_failures: 0,
                retries: 0,
                failed_jobs: 0,
                wasted_j: 0.0,
                chips_rescanned: 0,
                rescan_downtime: SimDuration::ZERO,
                config,
            }
        });
        let mut site = SiteState {
            site_id,
            scheme_name: input.scheme_name,
            expect_more: false,
            migrated_out: 0,
            rng: SimRng::derive(input.seed, "simulation"),
            jobs: Vec::new(),
            queues: vec![VecDeque::new(); n],
            usage: vec![SimDuration::ZERO; n],
            running: Vec::new(),
            running_at_level: vec![0; num_levels],
            done_count: 0,
            deadline_misses: 0,
            ledger: EnergyLedger::new(),
            last_account: SimTime::ZERO,
            current_demand_w: 0.0,
            makespan: SimTime::ZERO,
            samplers,
            dvfs_mode: input.dvfs_mode,
            deferral: input.deferral,
            deferred: Vec::new(),
            surplus_signal: input.surplus_signal,
            placements: 0,
            avail: vec![SimTime::ZERO; n],
            avail_dirty: false,
            chip_index: ChipIndexes::new(n),
            place_scratch: iscope_sched::PlaceScratch::default(),
            demand_uw_at_level: vec![0; num_levels],
            running_demand_uw: 0,
            chain_len_ms: vec![0; n],
            busy_queues: 0,
            level_scratch: Vec::new(),
            queued_jobs: 0,
            audit: input.audit.map(|config| {
                assert!(config.tolerance > 0.0, "audit tolerance must be positive");
                AuditState {
                    config,
                    demand_w: 0.0,
                    wind_j: 0.0,
                    utility_j: 0.0,
                    busy_ms: vec![0; n],
                    deadline_misses: 0,
                    intervals: 0,
                    demand_checks: 0,
                    by_level_scratch: vec![0; num_levels],
                    costs: input.supply.cost_meter(),
                    violations: Vec::new(),
                    suppressed: 0,
                }
            }),
            telemetry: input.telemetry.map(|config| {
                let channels = telemetry::CHANNELS_BEFORE_LEVELS + num_levels + 3;
                let mut sampler = RowSampler::new(config.interval, channels, 0.0);
                // Seed the t = 0 row: wind budget is live from the start,
                // everything else is zero until the first event.
                let mut row = vec![0.0; channels];
                row[0] = input.supply.wind_power_at(SimTime::ZERO);
                sampler.record(SimTime::ZERO, &row);
                TelemetryState {
                    sampler,
                    row_scratch: row,
                }
            }),
            costs: input.supply.cost_meter(),
            carbon: input.carbon.filter(CarbonConfig::active).map(|config| {
                config.validate();
                CarbonState {
                    config,
                    deferrals: 0,
                    suspensions: 0,
                    wasted_j: 0.0,
                }
            }),
            battery: input.supply.battery.map(BatteryState::empty),
            phase_ns: PhaseTimers::default(),
            faults,
            out_of_service: ChipSet::new(n),
            in_situ: input.in_situ.map(|config| InSituState {
                scanner: Scanner::new(config.scanner.clone()),
                grid: config.scanner.grid(&input.fleet.dvfs),
                bay: ScanBay::new(SimRng::derive(input.seed, "in-situ-scanner"), n),
                profiled: ChipSet::new(n),
                tests_run: 0,
                // Every chip starts idle, unprofiled, and in service, so
                // the candidate pool starts as the whole fleet.
                idle_unprofiled: (0..n as u32).collect(),
                config,
            }),
            fleet: input.fleet,
            plan: input.plan,
            placement: input.placement,
            supply: input.supply,
            cooling: input.cooling,
        };
        site.chip_index.set_ranking(site.plan.ranking());
        site
    }

    /// The periodic events this site needs primed before the run starts,
    /// in the canonical order (wind sampling, profiling check, re-profile
    /// check). The driver primes these for every site, in site order.
    pub(crate) fn initial_events(&self) -> Vec<(SimTime, SiteEv)> {
        let mut evs = Vec::new();
        if self.supply.has_wind() {
            if let Some(iv) = self.supply.wind_interval() {
                evs.push((SimTime::ZERO + iv, SiteEv::WindSample));
            }
        }
        if let Some(insitu) = &self.in_situ {
            evs.push((
                SimTime::ZERO + insitu.config.check_interval,
                SiteEv::ProfilingCheck,
            ));
        }
        if let Some(faults) = &self.faults {
            if let Some(r) = &faults.config.reprofile {
                evs.push((SimTime::ZERO + r.check_interval, SiteEv::ReprofileCheck));
            }
        }
        if let Some(carbon) = &self.carbon {
            evs.push((
                SimTime::ZERO + carbon.config.check_interval,
                SiteEv::CarbonSample,
            ));
        }
        evs
    }

    /// Enters `job` in this site's job table, waiting, and returns its
    /// site-local index (what `SiteEv::Arrival` carries). `starts` is the
    /// attempt count a gang migrating in brings from prior sites, so the
    /// bounded-retry budget stays global.
    pub(crate) fn admit(&mut self, job: Job, starts: u32) -> usize {
        let idx = self.jobs.len();
        let remaining_nominal_s = job.runtime_at_fmax.as_secs_f64();
        let last_progress = job.submit;
        self.jobs.push(JobState {
            job,
            chips: Vec::new(),
            phase: Phase::Waiting,
            level: self.fleet.dvfs.max_level(),
            remaining_nominal_s,
            last_progress,
            started_at: SimTime::ZERO,
            gen: 0,
            sched_end: SimTime::ZERO,
            power_uw_at: Vec::new(),
            chain_limit: SimTime::MAX,
            starts,
            attempt_energy_j: 0.0,
        });
        idx
    }

    /// Whether a `Retry { job }` event would actually re-place this job
    /// (the same guard the retry arm applies): still waiting, and not
    /// already re-placed by an earlier retry.
    pub(crate) fn retry_pending(&self, idx: usize) -> bool {
        self.jobs[idx].phase == Phase::Waiting && self.jobs[idx].chips.is_empty()
    }

    /// Hands a waiting, unplaced job over to the federation for
    /// migration: the job leaves this site's books as a routing artifact
    /// (`Done` without a completion — no makespan, miss, or audit entry)
    /// and its description plus attempt count travel to the new site.
    pub(crate) fn extract_for_migration(&mut self, idx: usize) -> (Job, u32) {
        debug_assert!(
            self.retry_pending(idx),
            "only waiting, unplaced jobs can migrate"
        );
        let js = &mut self.jobs[idx];
        js.phase = Phase::Done;
        self.done_count += 1;
        self.migrated_out += 1;
        self.queued_jobs -= 1;
        (js.job.clone(), js.starts)
    }

    /// Entry point for a job migrating in over the WAN: accounts energy
    /// up to `now`, then places and starts the job immediately — like the
    /// retry arm, it bypasses deferral (the job has already burned its
    /// schedule slack in backoff and transfer delay).
    pub(crate) fn rerouted_arrival(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        self.account(now);
        self.queued_jobs += 1;
        self.place_job(idx, now);
        self.try_start(&[idx], now, ctx);
        self.rebalance(now, ctx);
    }

    /// Facility power of `job` at `level`: true chip power under the plan,
    /// times the cooling overhead.
    fn job_power(&self, js: &JobState, level: FreqLevel) -> f64 {
        let it: f64 = js
            .chips
            .iter()
            .map(|&c| self.plan.true_power(&self.fleet, c, level))
            .sum();
        self.cooling.facility_power(it)
    }

    /// The per-level facility power row (integer µW) a job freezes while
    /// running: `job_power` at every level on its chips under the plan.
    fn power_row(&self, idx: usize) -> Vec<i64> {
        self.fleet
            .dvfs
            .levels()
            .map(|l| watts_to_microwatts(self.job_power(&self.jobs[idx], l)))
            .collect()
    }

    /// Facility power of chip `ci` under test: a scan runs its stress
    /// workload at nominal voltage and full clock.
    fn scan_power_w(&self, ci: usize) -> f64 {
        let top = self.fleet.dvfs.max_level();
        self.cooling
            .facility_power(self.fleet.power_model().chip_power(
                &self.fleet.chips[ci],
                &self.fleet.dvfs,
                top,
                self.fleet.dvfs.v_nom(top),
            ))
    }

    /// Whether work remains that keeps the periodic event chains alive:
    /// unfinished local jobs, or (in a federation) work that may still be
    /// routed here.
    fn live(&self) -> bool {
        self.done_count < self.jobs.len() || self.expect_more
    }

    /// Integrates energy up to `now` at the current demand, splitting the
    /// draw between wind and utility.
    pub(crate) fn account(&mut self, now: SimTime) {
        let t0 = Instant::now();
        let interval = now.saturating_since(self.last_account);
        let dt = interval.as_secs_f64();
        if dt > 0.0 {
            let wind = self.supply.wind_power_at(self.last_account);
            self.ledger.draw(self.current_demand_w, wind, dt);
            // Time-integrated cost/carbon over the identical interval and
            // utility share. The wind split is recomputed with the exact
            // operands `EnergyLedger::draw` used, so a constant price
            // signal stays bit-identical to `utility_kwh × price`.
            let wind_w = self.current_demand_w.min(wind);
            self.supply.book_utility(
                &mut self.costs,
                self.last_account,
                now,
                dt,
                self.current_demand_w - wind_w,
            );
            if let Some(b) = self.battery.as_mut() {
                b.step(wind - self.current_demand_w, dt);
            }
            for bay in self.bays_mut() {
                bay.energy_j += bay.power_w * dt;
            }
            if let Some(mut audit) = self.audit.take() {
                // Shadow integration over the same interval, but at the
                // auditor's own demand snapshot (recomputed from the plan
                // at the previous demand refresh, never read from the
                // engine's aggregates).
                let covered = audit.demand_w.min(wind);
                audit.wind_j += covered * dt;
                audit.utility_j += (audit.demand_w - covered) * dt;
                let audit_utility_w = audit.demand_w - covered;
                self.supply.book_utility(
                    &mut audit.costs,
                    self.last_account,
                    now,
                    dt,
                    audit_utility_w,
                );
                audit.intervals += 1;
                // Busy-time shadow: every chip of every running job was
                // busy for this whole interval (start/finish/fail are
                // events, so attempt boundaries coincide with interval
                // boundaries and integer milliseconds sum exactly).
                let dt_ms = interval.as_millis();
                for &i in &self.running {
                    for &c in &self.jobs[i].chips {
                        audit.busy_ms[c.0 as usize] += dt_ms;
                    }
                }
                self.audit = Some(audit);
            }
        }
        self.last_account = now;
        self.phase_ns.accounting_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Ground truth for [`SiteState::running_demand_uw`]: re-sums the
    /// frozen rows at each running job's current level. Integer µW, so the
    /// order of summation cannot matter.
    fn replay_running_demand_uw(&self) -> i64 {
        self.running
            .iter()
            .map(|&i| self.jobs[i].power_uw_at[self.jobs[i].level.0 as usize])
            .sum()
    }

    /// Ground truth for one [`SiteState::demand_uw_at_level`] entry:
    /// re-sums the frozen rows at a fixed candidate level.
    fn replay_demand_at_level_uw(&self, level: FreqLevel) -> i64 {
        self.running
            .iter()
            .map(|&i| self.jobs[i].power_uw_at[level.0 as usize])
            .sum()
    }

    /// Fleet demand (µW) if every running job sat at `level` — the value
    /// `rebalance_global`'s descent probes. O(1) from the incremental
    /// aggregate; debug builds check it against the O(running) replay.
    fn demand_at_level_uw(&self, level: FreqLevel) -> i64 {
        debug_assert_eq!(
            self.demand_uw_at_level[level.0 as usize],
            self.replay_demand_at_level_uw(level),
            "incremental per-level demand aggregate diverged from replay"
        );
        self.demand_uw_at_level[level.0 as usize]
    }

    /// Rebuilds both demand aggregates from scratch. Only needed after an
    /// in-situ plan upgrade rewrites the frozen rows under the running
    /// jobs (rare: once per chip per run); integer sums make the rebuild
    /// indistinguishable from incremental maintenance.
    fn rebuild_demand_aggregates(&mut self) {
        for l in self.fleet.dvfs.levels() {
            self.demand_uw_at_level[l.0 as usize] = self.replay_demand_at_level_uw(l);
        }
        self.running_demand_uw = self.replay_running_demand_uw();
    }

    /// Refreshes total demand and updates the trace samplers. Chips under
    /// in-situ test draw their profiling power on top of the job load. The
    /// job share is the incrementally maintained fixed-point aggregate —
    /// O(1) per event — converted to watts only here, at the ledger /
    /// sampler boundary.
    fn refresh_demand(&mut self, now: SimTime) {
        let t0 = Instant::now();
        debug_assert_eq!(
            self.running_demand_uw,
            self.replay_running_demand_uw(),
            "incremental running-demand aggregate diverged from replay"
        );
        let mut demand = microwatts_to_watts(self.running_demand_uw);
        for bay in self.bays() {
            demand += bay.power_w;
        }
        self.current_demand_w = demand;
        let wind = self.supply.wind_power_at(now);
        if let Some(s) = self.samplers.as_mut() {
            s[0].record(now, demand);
            s[1].record(now, wind);
            s[2].record(now, (demand - wind).max(0.0));
            s[3].record(now, demand.min(wind));
        }
        if self.audit.is_some() {
            self.audit_refresh_snapshot(demand);
        }
        if self.telemetry.is_some() {
            self.record_telemetry(now, demand, wind);
        }
        self.phase_ns.demand_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Recomputes the auditor's demand snapshot from the plan and fleet —
    /// per-job facility power from `job_power` (not the frozen rows),
    /// per-level sums from scratch (not the incremental aggregates) — and
    /// cross-checks the engine's state against it: the fixed-point
    /// aggregates exactly, the float demand within tolerance. The new
    /// snapshot becomes the power the shadow books integrate until the
    /// next refresh.
    fn audit_refresh_snapshot(&mut self, engine_demand_w: f64) {
        let Some(mut audit) = self.audit.take() else {
            return;
        };
        audit.by_level_scratch.fill(0);
        let mut running_uw: i64 = 0;
        for &i in &self.running {
            let js = &self.jobs[i];
            for l in self.fleet.dvfs.levels() {
                let uw = watts_to_microwatts(self.job_power(js, l));
                audit.by_level_scratch[l.0 as usize] += uw;
                if l == js.level {
                    running_uw += uw;
                }
            }
        }
        for l in self.fleet.dvfs.levels() {
            let li = l.0 as usize;
            if audit.by_level_scratch[li] != self.demand_uw_at_level[li] {
                audit.violation(format!(
                    "demand_uw_at_level[{li}] = {} but independent recomputation gives {}",
                    self.demand_uw_at_level[li], audit.by_level_scratch[li]
                ));
            }
        }
        if running_uw != self.running_demand_uw {
            audit.violation(format!(
                "running_demand_uw = {} but independent recomputation gives {running_uw}",
                self.running_demand_uw
            ));
        }
        // Overhead draw recomputed from the out-of-service sets, not the
        // incrementally add/subtracted running totals.
        let mut overhead_w = 0.0;
        for ci in self.bays().flat_map(|bay| bay.scanning.iter()) {
            overhead_w += self.scan_power_w(ci);
        }
        let audit_demand = microwatts_to_watts(running_uw) + overhead_w;
        let rel = (audit_demand - engine_demand_w).abs() / engine_demand_w.abs().max(1.0);
        if rel > audit.config.tolerance {
            audit.violation(format!(
                "demand snapshot diverged: engine {engine_demand_w} W, audit {audit_demand} W \
                 (rel {rel:e})"
            ));
        }
        audit.demand_w = audit_demand;
        audit.demand_checks += 1;
        self.audit = Some(audit);
    }

    /// Feeds the telemetry recorder the signal values active from `now`:
    /// supply, demand, utility draw, queue depth, per-level occupancy of
    /// the running set, and the quarantined-chip count. Pure
    /// sample-and-hold — nothing here schedules events or touches
    /// simulation state.
    fn record_telemetry(&mut self, now: SimTime, demand: f64, wind: f64) {
        let Some(mut tel) = self.telemetry.take() else {
            return;
        };
        let levels = self.fleet.dvfs.num_levels();
        let row = &mut tel.row_scratch;
        row.fill(0.0);
        row[0] = wind;
        row[1] = demand;
        row[2] = (demand - wind).max(0.0);
        row[3] = self.queued_jobs as f64;
        for &i in &self.running {
            row[telemetry::CHANNELS_BEFORE_LEVELS + self.jobs[i].level.0 as usize] += 1.0;
        }
        row[telemetry::CHANNELS_BEFORE_LEVELS + levels] =
            self.faults.as_ref().map_or(0.0, |f| f.suspect.len() as f64);
        // Cumulative cost/carbon previews (open segment included, meters
        // untouched) — the `site`-tagged channels the carbon sweep reads.
        row[telemetry::CHANNELS_BEFORE_LEVELS + levels + 1] = self.costs.carbon.preview();
        row[telemetry::CHANNELS_BEFORE_LEVELS + levels + 2] = self.costs.price.preview();
        tel.sampler.record(now, row);
        self.telemetry = Some(tel);
    }

    /// Advances a running job's remaining work to `now`.
    fn advance_progress(&mut self, idx: usize, now: SimTime) {
        // Attempt energy matters wherever an attempt can die mid-flight:
        // fault injection, and carbon suspension (which charges the lost
        // attempt to the policy's waste counter).
        let track_attempt_energy =
            self.faults.is_some() || self.carbon.as_ref().is_some_and(|c| c.config.suspends());
        let js = &mut self.jobs[idx];
        if js.phase != Phase::Running {
            return;
        }
        let dt = now.saturating_since(js.last_progress).as_secs_f64();
        if dt > 0.0 {
            let f = self.fleet.dvfs.freq_ghz(js.level);
            let rate = speed_factor(js.job.gamma, f, self.fleet.dvfs.f_max());
            js.remaining_nominal_s = (js.remaining_nominal_s - dt * rate).max(0.0);
            if track_attempt_energy {
                // Settle the attempt's energy at the level it actually ran
                // (callers advance before mutating the level), so a failed
                // attempt knows exactly what it burned.
                js.attempt_energy_j +=
                    dt * microwatts_to_watts(js.power_uw_at[js.level.0 as usize]);
            }
        }
        js.last_progress = now;
    }

    /// (Re)schedules the completion event from the current remaining work.
    fn schedule_completion(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        let js = &mut self.jobs[idx];
        js.gen += 1;
        let f = self.fleet.dvfs.freq_ghz(js.level);
        let rate = speed_factor(js.job.gamma, f, self.fleet.dvfs.f_max());
        let dur = SimDuration::from_secs_f64(js.remaining_nominal_s / rate);
        js.sched_end = now + dur;
        ctx.schedule(
            js.sched_end,
            SiteEv::Completion {
                job: idx,
                gen: js.gen,
            },
        );
    }

    /// Stage 1-4 of Fig. 3: when utilization is low, isolate idle,
    /// inadequately profiled chips and start their scans. Utilization
    /// comes from the maintained busy-queue counter and the candidate
    /// domain from the maintained idle/unprofiled pool — nothing here
    /// recounts queues or scans the fleet per check.
    fn profiling_check(&mut self, now: SimTime, ctx: &mut impl SiteCtx) {
        let n = self.fleet.len();
        debug_assert_eq!(
            self.busy_queues,
            self.queues.iter().filter(|q| !q.is_empty()).count(),
            "busy-queue counter diverged from the queues"
        );
        let busy = self.busy_queues;
        // Every out-of-service chip counts against the floor: in-situ
        // isolation and the fault machinery alike.
        let available_now = self.in_service();
        let Some(insitu) = &mut self.in_situ else {
            return;
        };
        let utilization = busy as f64 / n as f64;
        if utilization >= insitu.config.utilization_threshold {
            return; // stage 1: only profile at low utilization
        }
        let min_available = (n as f64 * insitu.config.min_available_fraction).ceil() as usize;
        let mut may_take = available_now.saturating_sub(min_available);
        may_take = may_take.min(insitu.scanner.config().domain_size);
        if may_take == 0 {
            return;
        }
        // Stage 2: choose idle, unprofiled chips not under scan (a
        // profiling domain). The pool is kept in ascending chip id, so the
        // domain is the same one the full-fleet filter scan used to pick.
        #[cfg(debug_assertions)]
        {
            let replay: Vec<u32> = (0..n as u32)
                .filter(|&c| {
                    let ci = c as usize;
                    !insitu.profiled.contains(ci)
                        && !insitu.bay.scanning.contains(ci)
                        && self.queues[ci].is_empty()
                })
                .collect();
            let pool: Vec<u32> = insitu.idle_unprofiled.iter().copied().collect();
            debug_assert_eq!(pool, replay, "idle-unprofiled pool diverged");
        }
        // The pool leaves out only the in-situ scans; the fault
        // machinery's out-of-service chips are filtered here.
        let candidates: Vec<u32> = insitu
            .idle_unprofiled
            .iter()
            .copied()
            .filter(|&c| !self.out_of_service.contains(c as usize))
            .take(may_take)
            .collect();
        for c in candidates {
            let ci = c as usize;
            let power = self.scan_power_w(ci);
            let insitu = self.in_situ.as_mut().expect("checked above");
            // Stages 3-6 run against the hidden silicon now; the chip is
            // out of service for the resulting test time. Each chip is
            // scanned once, so its own fresh records are the whole story.
            let (duration, tests_run) =
                insitu
                    .bay
                    .start(&insitu.scanner, &insitu.grid, &self.fleet, ci, power);
            insitu.tests_run += tests_run;
            insitu.idle_unprofiled.remove(&c);
            self.sync_service(ci);
            ctx.schedule(now + duration, SiteEv::ProfilingDone { chip: c });
        }
    }

    /// A chip's scan completed: return it to service at its measured
    /// operating point (the plan upgrade that makes `Scan*` scheduling
    /// possible chip by chip).
    fn profiling_done(&mut self, chip_idx: u32, now: SimTime) {
        let ci = chip_idx as usize;
        let scan_power = self.scan_power_w(ci);
        let Some(insitu) = &mut self.in_situ else {
            return;
        };
        // A profiled chip never re-enters the scan pool; it left it when
        // its scan started and stays out.
        insitu.profiled.set(ci, true);
        let measured = insitu.bay.finish(ci, scan_power);
        self.sync_service(ci);
        self.apply_scan(chip_idx, measured, now);
    }

    /// A scan of `chip` completed (in-situ or re-profile): its plan entry
    /// becomes the measured Min Vdd plus the scan guardband, with power
    /// estimates at those voltages, and the running jobs' rows follow.
    fn apply_scan(&mut self, chip: u32, measured_vmin: Vec<f64>, now: SimTime) {
        let pm = self.fleet.power_model();
        let c = &self.fleet.chips[chip as usize];
        let voltages: Vec<f64> = measured_vmin
            .iter()
            .map(|&v| v + iscope_pvmodel::SCAN_GUARDBAND_V)
            .collect();
        let est: Vec<f64> = self
            .fleet
            .dvfs
            .levels()
            .map(|l| {
                pm.power(
                    c.alpha,
                    c.beta,
                    self.fleet.dvfs.freq_ghz(l),
                    voltages[l.0 as usize],
                )
            })
            .collect();
        self.plan.update_chip(ChipId(chip), voltages, est);
        self.chip_index.set_ranking(self.plan.ranking());
        self.refreeze_running_rows(now);
    }

    /// The plan changed under the running jobs: refresh every cached
    /// power row and rebuild the demand aggregates from the new rows.
    /// Rows for jobs not touching the upgraded chip come out bit-identical
    /// (same inputs), so refreshing all is safe and plan upgrades are rare
    /// (once per chip per scan). Under fault injection, each job's progress
    /// — and hence its attempt energy — is settled at the old row first;
    /// fault-free runs skip that to keep their float segmentation (and
    /// bit-identity with pre-fault builds) untouched.
    fn refreeze_running_rows(&mut self, now: SimTime) {
        for k in 0..self.running.len() {
            let idx = self.running[k];
            if self.faults.is_some() {
                self.advance_progress(idx, now);
            }
            self.jobs[idx].power_uw_at = self.power_row(idx);
        }
        self.rebuild_demand_aggregates();
    }

    /// Whether chip `i` is out of service for placement: isolated by the
    /// in-situ scanner, or held out by the fault machinery. The ground
    /// truth the `out_of_service` view is derived from.
    fn chip_out_of_service(&self, i: usize) -> bool {
        self.in_situ
            .as_ref()
            .is_some_and(|s| s.bay.scanning.contains(i))
            || self.faults.as_ref().is_some_and(|f| f.holds(i))
    }

    /// Re-derives chip `i`'s entry in the blocked view after its in-situ
    /// or fault state changed.
    fn sync_service(&mut self, i: usize) {
        self.out_of_service.set(i, self.chip_out_of_service(i));
    }

    /// Chips in service now.
    fn in_service(&self) -> usize {
        self.fleet.len() - self.out_of_service.len()
    }

    /// The scan bays, in-situ first: every sum over them keeps one order.
    fn bays(&self) -> impl Iterator<Item = &ScanBay> {
        let insitu = self.in_situ.iter().map(|s| &s.bay);
        insitu.chain(self.faults.iter().map(|f| &f.bay))
    }

    fn bays_mut(&mut self) -> impl Iterator<Item = &mut ScanBay> {
        let insitu = self.in_situ.iter_mut().map(|s| &mut s.bay);
        insitu.chain(self.faults.iter_mut().map(|f| &mut f.bay))
    }

    /// Whether an arrival should wait in the deferred pool: either the
    /// GreenSlot-style wind test or the carbon/price threshold asks it to.
    fn should_defer(&self, idx: usize, now: SimTime) -> bool {
        self.wind_defer(idx, now) || self.carbon_defer(idx, now)
    }

    /// GreenSlot-style deferral test: hold the job back if wind is short
    /// right now and waiting one more budget interval still leaves it able
    /// to finish in time.
    fn wind_defer(&self, idx: usize, now: SimTime) -> bool {
        let Some(cfg) = self.deferral else {
            return false;
        };
        if !self.supply.has_wind() {
            return false;
        }
        if self.supply.wind_power_at(now) > self.current_demand_w {
            return false; // wind available: run now
        }
        let j = &self.jobs[idx].job;
        let latest_release = j
            .deadline
            .saturating_since(SimTime::ZERO + j.runtime_at_fmax + cfg.slack_margin);
        let next_check = now + self.supply.wind_interval().unwrap_or(SimDuration::ZERO);
        next_check <= SimTime::ZERO + latest_release
    }

    /// Carbon/price deferral test: hold a temporally-flexible job while
    /// the utility signal is above the deferral threshold, with a
    /// deadline-pressure release valve — the job is only held while it can
    /// wait one more check interval and still finish with `slack_margin`
    /// to spare.
    fn carbon_defer(&self, idx: usize, now: SimTime) -> bool {
        let Some(carbon) = &self.carbon else {
            return false;
        };
        let cfg = &carbon.config;
        if !cfg.defers() {
            return false;
        }
        let j = &self.jobs[idx].job;
        if j.urgency == Urgency::High {
            return false; // urgent jobs are not temporally flexible
        }
        if !cfg.should_defer(self.supply.intensity_at(now), self.supply.price_at(now)) {
            return false;
        }
        let latest_release = j
            .deadline
            .saturating_since(SimTime::ZERO + j.runtime_at_fmax + cfg.slack_margin);
        now + cfg.check_interval <= SimTime::ZERO + latest_release
    }

    /// Releases deferred jobs whose wait is over: wind returned, or their
    /// slack will not survive another interval.
    fn release_deferred(&mut self, now: SimTime, ctx: &mut impl SiteCtx) {
        if self.deferred.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.deferred);
        for idx in pending {
            if self.should_defer(idx, now) {
                self.deferred.push(idx);
            } else {
                self.place_job(idx, now);
                self.try_start(&[idx], now, ctx);
            }
        }
    }

    /// Whether renewable supply currently covers demand *plus* the job
    /// about to be placed (ScanFair's surplus signal). Requiring the new
    /// job to fit under the budget keeps surplus-mode placements from
    /// spilling their tails onto utility power.
    fn wind_surplus(&self, now: SimTime, idx: usize) -> bool {
        if !self.supply.has_wind() {
            return false;
        }
        let js = &self.jobs[idx];
        // Estimate the job's draw from the scheduler-visible mean busy
        // power (the exact chips are not chosen yet). The fleet sum is
        // cached on the plan (bit-identical to summing here) so this
        // check is O(1) per arrival instead of O(chips).
        let mean_est: f64 = self.plan.estimated_power_top_sum() / self.fleet.len() as f64;
        let job_w = self.cooling.facility_power(mean_est * js.job.cpus as f64);
        let wind = match self.surplus_signal {
            SurplusSignal::Instantaneous => self.supply.wind_power_at(now),
            SurplusSignal::ForecastAware => match &self.supply.wind {
                Some(trace) => {
                    iscope_energy::forecast_wind_over(trace, now, js.job.runtime_at_fmax)
                }
                None => 0.0,
            },
        };
        wind > self.current_demand_w + job_w
    }

    /// Projects when each chip frees up by replaying the current queues:
    /// running jobs complete at their scheduled completion instant (which
    /// already reflects their *current* DVFS level), queued gang jobs
    /// start when all their chips are free (stagger included) and run at
    /// f_max. This keeps placement honest when DVFS has slowed the fleet
    /// down — a stale estimate here accepts doomed placements.
    ///
    /// This is the ground truth the incrementally maintained `self.avail`
    /// must agree with (debug builds compare the two on every incremental
    /// placement); it runs on the hot path only when that state is dirty
    /// (after a DVFS level change), under deferral, under fault injection,
    /// or under an active carbon policy.
    ///
    /// The one-pass projection walks waiting jobs in index (= arrival)
    /// order, which is queue order on every chip only while placement
    /// follows arrival order. A `SiteEv::Retry` or a deferred/carbon
    /// release (`release_deferred`) calls `place_job` for an older job
    /// after newer arrivals are already queued on its chips; the replay
    /// then projects those chips in index order, not the queue order
    /// `try_start` uses. The incremental projection follows queue order,
    /// so the two agree only on runs `avail_incremental` admits.
    fn projected_avail_replay(&self, now: SimTime) -> Vec<SimTime> {
        let mut avail = vec![now; self.fleet.len()];
        for &i in &self.running {
            let js = &self.jobs[i];
            for &c in &js.chips {
                avail[c.0 as usize] = avail[c.0 as usize].max(js.sched_end);
            }
        }
        // Waiting jobs in index (= arrival) order. This matches queue
        // order on every shared chip only while placement follows arrival
        // order (see above).
        let mut waiting: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, js)| js.phase == Phase::Waiting && !js.chips.is_empty())
            .map(|(i, _)| i)
            .collect();
        waiting.sort_unstable();
        for idx in waiting {
            let js = &self.jobs[idx];
            let start = js
                .chips
                .iter()
                .map(|c| avail[c.0 as usize])
                .fold(now, SimTime::max);
            let end = start + js.job.runtime_at_fmax;
            for &c in &js.chips {
                avail[c.0 as usize] = end;
            }
        }
        avail
    }

    /// Whether `self.avail` can be maintained incrementally. Deferral
    /// releases jobs out of arrival order, so the replay projects their
    /// chips in index order rather than the queue order the incremental
    /// state follows: the two would differ, and deferral runs always
    /// replay (as they always have). Fault injection both kills running
    /// jobs mid-attempt and re-places retries out of arrival order, so it
    /// always replays too — and an active carbon policy can do both
    /// (deferral holds, suspension kills), so it joins them.
    fn avail_incremental(&self) -> bool {
        self.deferral.is_none() && self.faults.is_none() && self.carbon.is_none()
    }

    /// Refreshes the per-chip availability projection. On the incremental
    /// path this is a no-op; a full queue replay happens only when the
    /// state is dirty (after a DVFS level change) or never incremental
    /// (deferral, faults, carbon). Whenever a replay rewrites `avail`
    /// wholesale, the chip indexes keyed on it are stale for every chip
    /// at once, so they are rebuilt here too — the epoch-invalidation
    /// rule (DESIGN.md §3d). The placement view reads the raw `avail`
    /// values and clamps to `now` at the comparison sites.
    fn refresh_avail(&mut self, now: SimTime) {
        let replayed = if !self.avail_incremental() {
            self.avail = self.projected_avail_replay(now);
            true
        } else if self.avail_dirty {
            self.avail = self.projected_avail_replay(now);
            self.avail_dirty = false;
            true
        } else {
            false
        };
        if replayed {
            let queues = &self.queues;
            self.chip_index
                .rebuild_avail(&self.avail, |i| !queues[i].is_empty());
        }
        #[cfg(debug_assertions)]
        if self.avail_incremental() {
            let replay = self.projected_avail_replay(now);
            let clamped: Vec<SimTime> = self.avail.iter().map(|&t| t.max(now)).collect();
            debug_assert_eq!(
                clamped, replay,
                "incremental availability diverged from queue replay"
            );
        }
    }

    /// Places a newly arrived job on processors and enqueues it.
    fn place_job(&mut self, idx: usize, now: SimTime) {
        let t0 = Instant::now();
        self.placements += 1;
        let surplus = self.wind_surplus(now, idx);
        self.refresh_avail(now);
        debug_assert!(
            (0..self.fleet.len())
                .all(|i| self.out_of_service.contains(i) == self.chip_out_of_service(i)),
            "blocked view diverged from the in-situ and fault sets"
        );
        let decision = {
            let view = ProcView {
                now,
                avail: &self.avail,
                usage: &self.usage,
                plan: &self.plan,
                dvfs: &self.fleet.dvfs,
                blocked: &self.out_of_service.on,
                in_service: self.in_service(),
                index: Some(&self.chip_index),
                scratch: &self.place_scratch,
            };
            self.placement
                .place(&self.jobs[idx].job, &view, surplus, &mut self.rng)
        };
        let chips = decision.chips().to_vec();
        // Append the job to its chips' projections: it starts when the
        // last of them drains and holds all of them for its f_max runtime
        // — exactly what the replay would derive. Folding from `now`
        // clamps stale idle-chip drain times exactly like the view does.
        let start = chips
            .iter()
            .map(|&c| self.avail[c.0 as usize])
            .fold(now, SimTime::max);
        let end = start + self.jobs[idx].job.runtime_at_fmax;
        let runtime_ms = self.jobs[idx].job.runtime_at_fmax.as_millis();
        let deadline = self.jobs[idx].job.deadline;
        for &c in &chips {
            let ci = c.0 as usize;
            self.avail[ci] = end;
            // Index maintenance: the chip now drains at `end` (and is
            // certainly busy), whatever tree it sat in before.
            self.chip_index.chip_busy(c, end);
            if let Some(&head) = self.queues[ci].front() {
                // The job lands behind an existing chain: extend the
                // chain length and tighten the running head's cached
                // successor bound in O(1) — the exact constraint the
                // full queue walk would derive for this successor.
                self.chain_len_ms[ci] += runtime_ms;
                if self.jobs[head].phase == Phase::Running {
                    let gone_by = deadline.saturating_since(
                        SimTime::ZERO + SimDuration::from_millis(self.chain_len_ms[ci]),
                    );
                    let limit = SimTime::ZERO + gone_by;
                    if limit < self.jobs[head].chain_limit {
                        self.jobs[head].chain_limit = limit;
                    }
                }
            } else {
                // Queue transition empty -> busy.
                self.busy_queues += 1;
                if let Some(insitu) = &mut self.in_situ {
                    insitu.idle_unprofiled.remove(&c.0);
                }
            }
            self.queues[ci].push_back(idx);
        }
        self.jobs[idx].chips = chips;
        self.phase_ns.placement_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Starts every waiting job that has reached the head of all its
    /// queues, beginning from the given candidates.
    fn try_start(&mut self, candidates: &[usize], now: SimTime, ctx: &mut impl SiteCtx) {
        let t0 = Instant::now();
        for &idx in candidates {
            if self.jobs[idx].phase != Phase::Waiting {
                continue;
            }
            let at_head = self.jobs[idx]
                .chips
                .iter()
                .all(|c| self.queues[c.0 as usize].front() == Some(&idx));
            if !at_head {
                continue;
            }
            // The chip set is frozen now, so the per-level power row is
            // too (until a scan rewrites the plan).
            let row = self.power_row(idx);
            // Seed the cached successor deadline bound with one walk over
            // the job's queues (jobs already waiting behind it); every
            // later arrival tightens it in O(1) from `place_job`.
            let chain_limit = self.chain_limit_replay(idx);
            // The job starts at full speed: fold its frozen row into the
            // fleet demand aggregates.
            for (l, &uw) in row.iter().enumerate() {
                self.demand_uw_at_level[l] += uw;
            }
            let top = self.fleet.dvfs.max_level();
            self.running_demand_uw += row[top.0 as usize];
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
            self.running.push(idx);
            self.running_at_level[top.0 as usize] += 1;
            self.schedule_completion(idx, now, ctx);
            self.maybe_inject_failure(idx, now, ctx);
        }
        self.phase_ns.placement_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Ages a chip for `busy` hours of operation at its planned top-level
    /// voltage (time-accelerated by the failure model) and accrues the
    /// stress hours that drive the re-profiling cadence. No-op without
    /// fault injection, so fault-free runs never mutate the silicon.
    fn apply_wear(&mut self, ci: usize, busy: SimDuration) {
        let Some(faults) = &mut self.faults else {
            return;
        };
        let top = self.fleet.dvfs.max_level();
        let v = self.plan.applied_voltage(ChipId(ci as u32), top);
        let v_ref = self.fleet.dvfs.v_ref();
        let stress =
            faults
                .config
                .model
                .wear(&mut self.fleet.chips[ci], busy.as_hours_f64(), v, v_ref);
        faults.stress_hours[ci] += stress;
    }

    /// Decides at start time whether this attempt survives: the gang's
    /// worst chip (smallest end-of-attempt margin after the drift this
    /// attempt will add) is tested against a jitter draw. Exactly one
    /// draw is consumed per start regardless of outcome, so the failure
    /// sequence is a pure function of the seed. DVFS can only stretch an
    /// attempt (jobs start at the top level), so a failure scheduled
    /// inside the original attempt window always lands while the job is
    /// still running; the handler re-checks phase and attempt anyway.
    fn maybe_inject_failure(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        let Some(faults) = &mut self.faults else {
            return;
        };
        let js = &self.jobs[idx];
        let attempt = js.sched_end.saturating_since(now);
        let attempt_hours = attempt.as_hours_f64();
        let top = self.fleet.dvfs.max_level();
        let v_ref = self.fleet.dvfs.v_ref();
        let mut worst: Option<(u32, f64, f64)> = None; // (chip, margin, drift)
        let mut worst_end = f64::INFINITY;
        for &c in &js.chips {
            let chip = &self.fleet.chips[c.0 as usize];
            let margin = faults
                .config
                .model
                .worst_margin_v(&self.fleet, &self.plan, chip);
            let v = self.plan.applied_voltage(c, top);
            let drift = faults.config.model.attempt_drift_v(attempt_hours, v, v_ref);
            let end_margin = margin - drift;
            if end_margin < worst_end {
                worst_end = end_margin;
                worst = Some((c.0, margin, drift));
            }
        }
        let jitter = faults.rng.normal(0.0, faults.config.model.jitter_v_sd);
        let Some((chip, margin, drift)) = worst else {
            return;
        };
        if faults.config.model.attempt_fails(margin, drift, jitter) {
            let frac = faults.config.model.failure_fraction(margin, drift, jitter);
            let at = now + attempt.mul_f64(frac);
            ctx.schedule(
                at,
                SiteEv::TimingFailure {
                    job: idx,
                    attempt: js.starts,
                    chip,
                },
            );
        }
    }

    /// Releases a running job's chips at `now` — the teardown completion,
    /// timing failure and suspension share. Settles the job's progress
    /// (and attempt energy), drops its frozen row from the demand
    /// aggregates, books busy time and wear on each chip, and pops the job
    /// off the head of its queues, re-basing each chain length on the new
    /// head or marking the chip idle. Returns the chips and the new queue
    /// heads (the jobs that may start now); the caller sets the phase.
    fn release_chips(&mut self, idx: usize, now: SimTime) -> (Vec<ChipId>, Vec<usize>) {
        self.advance_progress(idx, now);
        let js = &self.jobs[idx];
        for (l, &uw) in js.power_uw_at.iter().enumerate() {
            self.demand_uw_at_level[l] -= uw;
        }
        self.running_demand_uw -= js.power_uw_at[js.level.0 as usize];
        self.running_at_level[js.level.0 as usize] -= 1;
        self.running.retain(|&i| i != idx);
        let busy = now.saturating_since(self.jobs[idx].started_at);
        let chips = std::mem::take(&mut self.jobs[idx].chips);
        let mut heads = Vec::with_capacity(chips.len());
        for &c in &chips {
            let ci = c.0 as usize;
            self.usage[ci] += busy;
            self.chip_index.set_usage(c, self.usage[ci]);
            self.apply_wear(ci, busy);
            let q = &mut self.queues[ci];
            debug_assert_eq!(q.front(), Some(&idx), "released job was not at head");
            q.pop_front();
            if let Some(&next) = q.front() {
                // Re-base the chain length to the new head: everything
                // still queued stays "behind the head" except the new
                // head itself.
                self.chain_len_ms[ci] -= self.jobs[next].job.runtime_at_fmax.as_millis();
                heads.push(next);
            } else {
                debug_assert_eq!(
                    self.chain_len_ms[ci], 0,
                    "drained queue with nonzero chain length"
                );
                // Queue transition busy -> empty.
                self.busy_queues -= 1;
                self.chip_index.chip_idle(c);
                if let Some(insitu) = &mut self.in_situ {
                    if !insitu.profiled.contains(ci) && !insitu.bay.scanning.contains(ci) {
                        insitu.idle_unprofiled.insert(c.0);
                    }
                }
            }
        }
        (chips, heads)
    }

    /// Kills a running attempt mid-flight (timing failure or carbon
    /// suspension): releases its chips and puts the job back to waiting
    /// with its work lost. Returns the new queue heads and the energy (J)
    /// the lost attempt burned.
    fn kill_attempt(&mut self, idx: usize, now: SimTime) -> (Vec<usize>, f64) {
        let (_, heads) = self.release_chips(idx, now);
        let js = &mut self.jobs[idx];
        js.gen += 1; // invalidates the live Completion event
        js.phase = Phase::Waiting;
        js.remaining_nominal_s = js.job.runtime_at_fmax.as_secs_f64(); // work is lost
        js.chain_limit = SimTime::MAX;
        (heads, std::mem::replace(&mut js.attempt_energy_j, 0.0))
    }

    /// A running gang hit a timing failure: kill the attempt, charge the
    /// lost work to the waste ledger, age (and, capacity permitting,
    /// quarantine) the chips, and requeue the job under the bounded-retry
    /// policy.
    fn fail_job(&mut self, idx: usize, failed_chip: u32, now: SimTime, ctx: &mut impl SiteCtx) {
        let (heads, wasted) = self.kill_attempt(idx, now);
        let n = self.fleet.len();
        let failures = self.jobs[idx].starts;
        let ci = failed_chip as usize;
        let in_service = self.in_service();
        let faults = self
            .faults
            .as_mut()
            .expect("fail_job without fault injection");
        faults.timing_failures += 1;
        faults.wasted_j += wasted;
        // Quarantine the failed chip if the availability floor and the
        // suspect cap allow (a chip already out of service costs no
        // capacity); otherwise it stays in rotation (and may keep
        // failing) until re-profiling clears the backlog.
        if !faults.suspect.contains(ci) {
            let cap = (n as f64 * faults.config.max_suspect_fraction).floor() as usize;
            let room = self.out_of_service.contains(ci) || in_service > faults.min_in_service;
            if faults.suspect.len() < cap && room {
                faults.suspect.set(ci, true);
            }
        }
        let retry_ok = faults.config.retry.may_retry(failures);
        if retry_ok {
            faults.retries += 1;
            self.queued_jobs += 1; // back to waiting until the retry fires
            let delay = faults.config.retry.backoff(failures);
            ctx.schedule(now + delay, SiteEv::Retry { job: idx });
        } else {
            faults.failed_jobs += 1;
            self.jobs[idx].phase = Phase::Done;
            self.deadline_misses += 1; // an abandoned job can never finish in time
            self.done_count += 1;
            self.makespan = self.makespan.max(now);
            if let Some(audit) = &mut self.audit {
                // Independent recount: abandonment is a miss by definition.
                audit.deadline_misses += 1;
            }
        }
        self.sync_service(ci);
        self.try_start(&heads, now, ctx);
    }

    /// The utility mix went dirty: checkpoint-free preempt a running gang
    /// so it re-runs under a cleaner signal. The same kill as a timing
    /// failure minus the fault bookkeeping — no quarantine, no retry cap
    /// (the deadline valve in the caller bounds re-entries), and the lost
    /// attempt's energy is charged to the carbon waste ledger.
    fn suspend_job(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        let (heads, wasted) = self.kill_attempt(idx, now);
        let starts = self.jobs[idx].starts;
        let carbon = self
            .carbon
            .as_mut()
            .expect("suspend_job without a carbon policy");
        carbon.suspensions += 1;
        carbon.wasted_j += wasted;
        self.queued_jobs += 1; // back to waiting until the resume fires
        let delay = carbon.config.retry.backoff(starts);
        ctx.schedule(now + delay, SiteEv::Retry { job: idx });
        self.try_start(&heads, now, ctx);
    }

    /// The periodic re-profiling loop (§III.C closed inside the run):
    /// chips whose accumulated stress passed the cadence — or that were
    /// quarantined after a failure — are drained, then re-scanned by SBFT
    /// once idle, competing for fleet capacity exactly like in-situ
    /// profiling does.
    fn reprofile_check(&mut self, now: SimTime, ctx: &mut impl SiteCtx) {
        if !self.live() {
            return;
        }
        let reprofile = self
            .faults
            .as_ref()
            .and_then(|f| f.config.reprofile.as_ref());
        let Some(domain_size) = reprofile.map(|r| r.scanner.domain_size) else {
            return;
        };
        let n = self.fleet.len();
        // Pass 1: mark due chips as draining (no new work lands on them;
        // queued work finishes first), respecting the availability floor.
        // Already-out chips (suspect, or isolated in-situ) drain for free.
        for i in 0..n {
            let faults = self.faults.as_ref().expect("checked above");
            if faults.bay.scanning.contains(i) || faults.draining[i] {
                continue;
            }
            let due = faults.suspect.contains(i)
                || faults.stress_hours[i] >= faults.stress_interval_hours;
            if due && (self.out_of_service.contains(i) || self.in_service() > faults.min_in_service)
            {
                self.faults.as_mut().expect("checked above").draining[i] = true;
                self.sync_service(i);
            }
        }
        // Pass 2: start scans on drained chips whose queues have emptied,
        // up to the scanner's domain size in flight at once.
        let faults = self.faults.as_ref().expect("checked above");
        let mut may_take = domain_size.saturating_sub(faults.bay.scanning.len());
        for i in 0..n {
            if may_take == 0 {
                break;
            }
            let drained = self.faults.as_ref().is_some_and(|f| f.draining[i])
                && self.queues[i].is_empty()
                && !self
                    .in_situ
                    .as_ref()
                    .is_some_and(|s| s.bay.scanning.contains(i));
            if !drained {
                continue;
            }
            let scan_power = self.scan_power_w(i);
            let faults = self.faults.as_mut().expect("checked above");
            let (scanner, grid) = faults
                .rescan
                .as_ref()
                .expect("re-profiling without a scanner");
            let (duration, _) = faults.bay.start(scanner, grid, &self.fleet, i, scan_power);
            faults.draining[i] = false;
            faults.chips_rescanned += 1;
            faults.rescan_downtime += duration;
            self.sync_service(i);
            ctx.schedule(now + duration, SiteEv::ReprofileDone { chip: i as u32 });
            may_take -= 1;
        }
    }

    /// A re-scan finished: the chip rejoins service with a plan entry
    /// rebuilt from the fresh measurement, cleared quarantine, and a
    /// reset stress clock.
    fn reprofile_done(&mut self, chip_idx: u32, now: SimTime) {
        let ci = chip_idx as usize;
        let scan_power = self.scan_power_w(ci);
        let faults = self
            .faults
            .as_mut()
            .expect("re-profile completion without fault injection");
        faults.suspect.set(ci, false);
        faults.stress_hours[ci] = 0.0;
        let measured = faults.bay.finish(ci, scan_power);
        self.sync_service(ci);
        self.apply_scan(chip_idx, measured, now);
    }

    fn rebalance(&mut self, now: SimTime, ctx: &mut impl SiteCtx) {
        let t0 = Instant::now();
        let budget = if self.supply.has_wind() {
            self.supply.wind_power_at(now)
        } else {
            f64::INFINITY
        };
        let budget_uw = watts_to_microwatts(budget);
        match self.dvfs_mode {
            DvfsMode::GlobalLevel => self.rebalance_global(budget_uw, now, ctx),
            DvfsMode::PerJobGreedy => self.rebalance_greedy(budget_uw, now, ctx),
        }
        self.phase_ns.rebalance_ns += t0.elapsed().as_nanos() as u64;
        self.refresh_demand(now);
    }

    /// The paper's matcher: lower one fleet-wide level at a time while
    /// demand exceeds the renewable budget, stopping when any task (running
    /// or queued behind one) would face a deadline violation.
    ///
    /// The budget-only descent target comes first — each probe is an O(1)
    /// read of the per-level demand aggregate — and the deadline-floor
    /// pass runs only if that target is below the top level. The final
    /// level is `max(budget target, tightest floor)`, exactly what the old
    /// step-by-step descent with a per-step floor check produced, but the
    /// floor scan can stop as soon as some job's floor reaches the top.
    fn rebalance_global(&mut self, budget_uw: i64, now: SimTime, ctx: &mut impl SiteCtx) {
        let top = self.fleet.dvfs.max_level();
        let bottom = self.fleet.dvfs.min_level();
        let mut want = top;
        while self.demand_at_level_uw(want) > budget_uw && want > bottom {
            want = want.down();
        }
        let mut level = want;
        if want < top {
            // "Stop lowering when some tasks face violation": clamp the
            // descent at the tightest deadline floor. Floors are level-
            // independent, so one pass over the running set suffices, and
            // a floor at the top ends the scan early (no change possible).
            for k in 0..self.running.len() {
                let floor = self.min_feasible_level(self.running[k], now);
                if floor > level {
                    level = floor;
                    if level == top {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(
            self.running_at_level[level.0 as usize],
            self.running
                .iter()
                .filter(|&&i| self.jobs[i].level == level)
                .count(),
            "running_at_level count diverged from the running set"
        );
        if self.running_at_level[level.0 as usize] == self.running.len() {
            // Every running job already sits at the target level: the
            // filter below would find nothing. Proven by the maintained
            // counts in O(1) instead of an O(running) scan — this is the
            // steady state on every periodic event when the budget is
            // abundant (the whole fleet pinned at top).
            return;
        }
        let mut to_change = std::mem::take(&mut self.level_scratch);
        to_change.clear();
        to_change.extend(
            self.running
                .iter()
                .copied()
                .filter(|&i| self.jobs[i].level != level),
        );
        for &idx in &to_change {
            self.set_level(idx, level, now, ctx);
        }
        to_change.clear();
        self.level_scratch = to_change;
    }

    /// Ablation matcher: per-job greedy budget fitting. Candidates borrow
    /// the frozen per-job rows — no per-candidate row clones.
    fn rebalance_greedy(&mut self, budget_uw: i64, now: SimTime, ctx: &mut impl SiteCtx) {
        let top = self.fleet.dvfs.max_level();
        let outcome = {
            let mut cands: Vec<DvfsCandidate<'_, usize>> = self
                .running
                .iter()
                .map(|&i| DvfsCandidate {
                    key: i,
                    level: self.jobs[i].level,
                    min_level: self.min_feasible_level(i, now),
                    power_uw_at: &self.jobs[i].power_uw_at,
                })
                .collect();
            match_budget(&mut cands, budget_uw, 0, top)
        };
        for (idx, level) in outcome.changes {
            self.set_level(idx, level, now, ctx);
        }
    }

    /// Moves a running job to DVFS `level` at `now`: settles its progress
    /// at the old level, moves its demand and level count, and reschedules
    /// its completion.
    fn set_level(&mut self, idx: usize, level: FreqLevel, now: SimTime, ctx: &mut impl SiteCtx) {
        self.advance_progress(idx, now);
        let js = &self.jobs[idx];
        let old = js.level.0 as usize;
        self.running_demand_uw += js.power_uw_at[level.0 as usize] - js.power_uw_at[old];
        self.running_at_level[old] -= 1;
        self.running_at_level[level.0 as usize] += 1;
        self.jobs[idx].level = level;
        // The completion moves: every queued start projected behind it is
        // stale. Rebuilt by replay on the next placement.
        self.avail_dirty = true;
        self.schedule_completion(idx, now, ctx);
    }

    /// Ground truth for [`JobState::chain_limit`]: re-walks the job's
    /// queues. Successor k must start by (deadline_k − sum of nominal
    /// runtimes of the chain up to and including k).
    fn chain_limit_replay(&self, idx: usize) -> SimTime {
        let js = &self.jobs[idx];
        let mut limit = SimTime::MAX;
        for &c in &js.chips {
            let mut chain = SimDuration::ZERO;
            for &succ in self.queues[c.0 as usize].iter().skip(1) {
                let sj = &self.jobs[succ].job;
                chain += sj.runtime_at_fmax;
                let must_be_gone_by = sj.deadline.saturating_since(SimTime::ZERO + chain);
                limit = limit.min(SimTime::ZERO + must_be_gone_by);
            }
        }
        limit
    }

    /// Lowest level at which the job still meets its deadline from `now` —
    /// and leaves its direct queue successors able to meet theirs (a
    /// one-step lookahead: slowing a running job delays everything queued
    /// behind it, so "tasks facing violation of their deadlines" includes
    /// the waiting ones). Returns the top level when even full speed
    /// misses (run flat out).
    ///
    /// The successor bound is the cached `chain_limit` (maintained by
    /// `try_start`/`place_job`), so this is O(levels) — no queue walks on
    /// the rebalance path.
    fn min_feasible_level(&self, idx: usize, now: SimTime) -> FreqLevel {
        let js = &self.jobs[idx];
        // Remaining work as of now (progress may lag by up to the current
        // event; the small overestimate is conservative).
        let dt = now.saturating_since(js.last_progress).as_secs_f64();
        let f_cur = self.fleet.dvfs.freq_ghz(js.level);
        let rate_cur = speed_factor(js.job.gamma, f_cur, self.fleet.dvfs.f_max());
        let remaining = (js.remaining_nominal_s - dt * rate_cur).max(0.0);
        debug_assert_eq!(
            js.chain_limit,
            self.chain_limit_replay(idx),
            "cached chain limit diverged from queue walk"
        );
        let limit = js.job.deadline.min(js.chain_limit);
        // Keep a safety margin so millisecond rounding and gang start
        // staggering cannot tip an exactly-fitting job past its deadline.
        let slack_s = (limit.saturating_since(now).as_secs_f64() - DVFS_SAFETY_MARGIN_S).max(0.0);
        for l in self.fleet.dvfs.levels() {
            let rate = speed_factor(
                js.job.gamma,
                self.fleet.dvfs.freq_ghz(l),
                self.fleet.dvfs.f_max(),
            );
            if remaining / rate <= slack_s {
                return l;
            }
        }
        self.fleet.dvfs.max_level()
    }

    fn finish_job(&mut self, idx: usize, now: SimTime, ctx: &mut impl SiteCtx) {
        let (chips, heads) = self.release_chips(idx, now);
        let js = &mut self.jobs[idx];
        debug_assert!(js.remaining_nominal_s < 1e-3, "completion with work left");
        js.phase = Phase::Done;
        // A finished job keeps its chips: the snapshot's job table carries
        // them.
        js.chips = chips;
        if now > js.job.deadline {
            self.deadline_misses += 1;
        }
        if let Some(audit) = &mut self.audit {
            // Independent recount against the job's own deadline, kept on
            // a separate counter from the ledger increment above.
            if now > self.jobs[idx].job.deadline {
                audit.deadline_misses += 1;
            }
        }
        self.done_count += 1;
        self.makespan = self.makespan.max(now);
        self.try_start(&heads, now, ctx);
    }

    /// Dispatches one site-local event; the driver's `Model::on_event`
    /// calls it with a context that tags what the site schedules.
    ///
    /// `expect_more` only extends the self-rescheduling conditions (a site
    /// that has drained its local jobs keeps its periodic loops alive while
    /// more work may still reach it); with `expect_more == false` every
    /// condition reduces to the original single-site one.
    pub(crate) fn handle_event(&mut self, ctx: &mut impl SiteCtx, now: SimTime, event: SiteEv) {
        self.account(now);
        match event {
            SiteEv::Arrival(idx) => {
                self.queued_jobs += 1;
                if self.should_defer(idx, now) {
                    if self.carbon_defer(idx, now) {
                        if let Some(carbon) = &mut self.carbon {
                            carbon.deferrals += 1;
                        }
                    }
                    self.deferred.push(idx);
                } else {
                    self.place_job(idx, now);
                    self.try_start(&[idx], now, ctx);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::Completion { job, gen } => {
                if self.jobs[job].gen != gen || self.jobs[job].phase != Phase::Running {
                    return; // stale reschedule
                }
                self.finish_job(job, now, ctx);
                self.rebalance(now, ctx);
            }
            SiteEv::WindSample => {
                self.release_deferred(now, ctx);
                self.rebalance(now, ctx);
                if self.live() {
                    if let Some(iv) = self.supply.wind_interval() {
                        ctx.schedule(now + iv, SiteEv::WindSample);
                    }
                }
            }
            SiteEv::ProfilingCheck => {
                self.profiling_check(now, ctx);
                let keep_going = self.live()
                    || self
                        .in_situ
                        .as_ref()
                        .is_some_and(|s| s.bay.scanning.len() > 0);
                if let Some(insitu) = &self.in_situ {
                    if keep_going && insitu.profiled.len() < self.fleet.len() {
                        ctx.schedule(now + insitu.config.check_interval, SiteEv::ProfilingCheck);
                    }
                }
                self.rebalance(now, ctx);
            }
            SiteEv::ProfilingDone { chip } => {
                self.profiling_done(chip, now);
                self.rebalance(now, ctx);
            }
            SiteEv::TimingFailure { job, attempt, chip } => {
                if self.jobs[job].phase == Phase::Running && self.jobs[job].starts == attempt {
                    self.fail_job(job, chip, now, ctx);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::Retry { job } => {
                // Retries bypass deferral: a failed job has already burned
                // schedule slack, so it goes straight back into placement.
                if self.retry_pending(job) {
                    self.place_job(job, now);
                    self.try_start(&[job], now, ctx);
                }
                self.rebalance(now, ctx);
            }
            SiteEv::ReprofileCheck => {
                self.reprofile_check(now, ctx);
                if self.live() {
                    if let Some(faults) = &self.faults {
                        if let Some(r) = &faults.config.reprofile {
                            ctx.schedule(now + r.check_interval, SiteEv::ReprofileCheck);
                        }
                    }
                }
                self.rebalance(now, ctx);
            }
            SiteEv::ReprofileDone { chip } => {
                self.reprofile_done(chip, now);
                self.rebalance(now, ctx);
            }
            SiteEv::CarbonSample => {
                // Rebalance only when the sample acted: an idle sample
                // must not perturb the DVFS trajectory, or runs whose
                // thresholds are never crossed would drift from the
                // carbon-off schedule.
                if self.carbon_sample(now, ctx) {
                    self.rebalance(now, ctx);
                }
                if self.live() {
                    if let Some(carbon) = &self.carbon {
                        ctx.schedule(now + carbon.config.check_interval, SiteEv::CarbonSample);
                    }
                }
            }
        }
    }

    /// The periodic carbon/price re-evaluation: preempt running flexible
    /// gangs if the signal crossed the suspend threshold (deadline valve:
    /// backoff + a fresh full run + `slack_margin` must still fit), then
    /// give deferred arrivals a chance to release if it dropped below the
    /// deferral threshold. Returns whether anything was suspended or
    /// released (callers rebalance only then).
    fn carbon_sample(&mut self, now: SimTime, ctx: &mut impl SiteCtx) -> bool {
        let Some(carbon) = &self.carbon else {
            return false;
        };
        let cfg = carbon.config;
        let mut acted = false;
        if cfg.suspends()
            && cfg.should_suspend(self.supply.intensity_at(now), self.supply.price_at(now))
        {
            let victims: Vec<usize> = self
                .running
                .iter()
                .copied()
                .filter(|&idx| {
                    let j = &self.jobs[idx].job;
                    if j.urgency != Urgency::Low {
                        return false;
                    }
                    let delay = cfg.retry.backoff(self.jobs[idx].starts);
                    now + delay + j.runtime_at_fmax + cfg.slack_margin <= j.deadline
                })
                .collect();
            acted |= !victims.is_empty();
            for idx in victims {
                self.suspend_job(idx, now, ctx);
            }
        }
        let held = self.deferred.len();
        self.release_deferred(now, ctx);
        acted | (self.deferred.len() != held)
    }

    /// Closes the books at the site's final instant and assembles its
    /// [`RunReport`]: final accounting, sampler/telemetry flush, the
    /// end-of-run audit cross-checks (strict mode panics here), and the
    /// profiling/fault summaries.
    pub(crate) fn finalize(mut self) -> SiteOutcome {
        let scheme = std::mem::take(&mut self.scheme_name);
        let prices = self.supply.prices;
        // Close the books at the final instant.
        let end = self.makespan;
        self.account(end);
        let power_series = self
            .samplers
            .take()
            .map(|s| s.into_iter().map(|smp| smp.finish(end)).collect())
            .unwrap_or_default();
        let num_levels = self.fleet.dvfs.num_levels();
        let site_id = self.site_id as u64;
        let telemetry_records = self.telemetry.take().map(|t| {
            t.sampler
                .finish(end)
                .into_iter()
                .map(|(at, row)| telemetry::record_from_row(at, &row, num_levels, site_id))
                .collect::<Vec<_>>()
        });
        let (utility_usd, gco2) = self.costs.finish();
        let costs = CostSplit {
            utility_usd,
            wind_usd: self.ledger.wind_cost_usd(&prices),
            gco2,
        };
        let audit = self.audit.take().map(|mut a| {
            // Final cross-checks against the closed books.
            let ledger_total = self.ledger.wind_j + self.ledger.utility_j;
            let audit_total = a.wind_j + a.utility_j;
            let scale = ledger_total.abs().max(1.0);
            let energy_rel_residual = (audit_total - ledger_total).abs() / scale;
            if energy_rel_residual > a.config.tolerance {
                a.violation(format!(
                    "energy total diverged: ledger {ledger_total} J, audit {audit_total} J \
                     (rel {energy_rel_residual:e})"
                ));
            }
            let wind_rel = (a.wind_j - self.ledger.wind_j).abs() / scale;
            if wind_rel > a.config.tolerance {
                a.violation(format!(
                    "wind split diverged: ledger {} J, audit {} J (rel {wind_rel:e})",
                    self.ledger.wind_j, a.wind_j
                ));
            }
            let utility_rel = (a.utility_j - self.ledger.utility_j).abs() / scale;
            if utility_rel > a.config.tolerance {
                a.violation(format!(
                    "utility split diverged: ledger {} J, audit {} J (rel {utility_rel:e})",
                    self.ledger.utility_j, a.utility_j
                ));
            }
            let mut busy_time_ok = true;
            let busy_ms = std::mem::take(&mut a.busy_ms);
            for (c, (&audit_ms, used)) in busy_ms.iter().zip(&self.usage).enumerate() {
                if audit_ms != used.as_millis() {
                    busy_time_ok = false;
                    a.violation(format!(
                        "chip {c} busy time diverged: usage {} ms, audit {audit_ms} ms",
                        used.as_millis()
                    ));
                }
            }
            let deadline_ok = a.deadline_misses == self.deadline_misses;
            if !deadline_ok {
                a.violation(format!(
                    "deadline ledger diverged: {} recorded, {} recounted",
                    self.deadline_misses, a.deadline_misses
                ));
            }
            // Re-integrated ∫ price(t) × draw_W(t) dt and
            // ∫ intensity(t) × utility_W(t) dt from the audit's own
            // demand recount must match the booked meters.
            let (audit_usd, audit_gco2) = a.costs.finish();
            let usd_rel = (audit_usd - costs.utility_usd).abs() / costs.utility_usd.abs().max(1.0);
            if usd_rel > a.config.tolerance {
                a.violation(format!(
                    "utility cost diverged: booked {} USD, audit {audit_usd} USD (rel {usd_rel:e})",
                    costs.utility_usd
                ));
            }
            let gco2_rel = (audit_gco2 - costs.gco2).abs() / costs.gco2.abs().max(1.0);
            if gco2_rel > a.config.tolerance {
                a.violation(format!(
                    "carbon ledger diverged: booked {} gCO2, audit {audit_gco2} gCO2 \
                     (rel {gco2_rel:e})",
                    costs.gco2
                ));
            }
            let report = AuditReport {
                intervals: a.intervals,
                demand_checks: a.demand_checks,
                audit_wind_j: a.wind_j,
                audit_utility_j: a.utility_j,
                energy_rel_residual,
                busy_time_ok,
                deadline_ok,
                suppressed_violations: a.suppressed,
                violations: a.violations,
            };
            if a.config.strict && !report.clean() {
                panic!(
                    "audit found {} invariant breach(es) ({} suppressed):\n{}",
                    report.violations.len(),
                    report.suppressed_violations,
                    report.violations.join("\n")
                );
            }
            report
        });
        let profiling = self
            .in_situ
            .as_ref()
            .map(|s| crate::report::ProfilingStats {
                chips_profiled: s.profiled.len(),
                fleet_size: s.profiled.on.len(),
                profiling_energy_kwh: s.bay.energy_j / 3.6e6,
                tests_run: s.tests_run,
            });
        let faults = self.faults.as_ref().map(|f| crate::report::FaultStats {
            timing_failures: f.timing_failures,
            retries: f.retries,
            failed_jobs: f.failed_jobs,
            suspect_chips: f.suspect.len(),
            chips_rescanned: f.chips_rescanned,
            wasted_kwh: f.wasted_j / 3.6e6,
            rescan_downtime_hours: f.rescan_downtime.as_hours_f64(),
            rescan_energy_kwh: f.bay.energy_j / 3.6e6,
        });
        let carbon = self.carbon.as_ref().map(|c| crate::report::CarbonStats {
            deferrals: c.deferrals,
            suspensions: c.suspensions,
            wasted_kwh: c.wasted_j / 3.6e6,
        });
        let report = RunReport {
            scheme,
            ledger: self.ledger,
            prices,
            costs,
            jobs: self.jobs.len(),
            deadline_misses: self.deadline_misses,
            makespan: self.makespan,
            usage_hours: self.usage.iter().map(|u| u.as_hours_f64()).collect(),
            power_series,
            profiling,
            faults,
            carbon,
            audit,
            telemetry: telemetry_records,
        };
        SiteOutcome {
            report,
            placements: self.placements,
            phases: self.phase_ns,
        }
    }
}

// ===========================================================================
// Checkpoint / restore (DESIGN.md §3g)
//
// A snapshot serializes the *mutable* simulation state; everything that is
// a pure function of the run inputs (configs, supply traces, placement
// policies, scanner machinery) is rebuilt by `SiteState::new` on restore
// and cross-checked against the snapshot header. Each serialized field is
// declared once, in the `section!` / `persist_struct!` lists below; capture
// and restore both expand from them. Derived caches (chain lengths, demand
// aggregates, chip indexes) are not serialized: `rebuild_derived` recomputes
// them from the restored ground truth — all integer arithmetic, so the
// rebuild is indistinguishable from having maintained them incrementally.
// ===========================================================================

/// Header key of the format version. Read before anything else, so a
/// document of another version is refused before its layout is parsed.
const VERSION_KEY: &str = "version";

/// Sections outside the site's field list: the header first, then the
/// pending events; the trace identities close the document.
const HEADER: &str = "header";
const EVENTS: &str = "events";
const TRACES: &str = "traces";

/// The header besides the version and the presence flags.
#[derive(Default)]
struct Header {
    scheme: String,
    seed: u64,
    site_id: u32,
    now: SimTime,
    steps: u64,
    admitted: usize,
    fleet_len: usize,
    num_levels: usize,
}

section!(Header, |h| {
    "scheme" => h.scheme,
    "seed" => h.seed,
    "site_id" => h.site_id,
    "now_ms" => h.now,
    "steps" => h.steps,
    "admitted" => h.admitted,
    "fleet_len" => h.fleet_len,
    "num_levels" => h.num_levels,
});

/// One header presence flag: its key, whether the live site carries the
/// component, and whether a run built from an input will. Capture writes
/// the first, restore compares it with the second.
type Presence = (&'static str, fn(&SiteState) -> bool, fn(&SimInput) -> bool);

#[rustfmt::skip]
const PRESENCE: [Presence; 8] = [
    ("has_faults", |s| s.faults.is_some(), |i| i.fault_injection.is_some()),
    ("has_audit", |s| s.audit.is_some(), |i| i.audit.is_some()),
    ("has_telemetry", |s| s.telemetry.is_some(), |i| i.telemetry.is_some()),
    ("has_samplers", |s| s.samplers.is_some(), |i| i.trace_interval.is_some()),
    ("has_carbon", |s| s.carbon.is_some(), |i| i.carbon.as_ref().is_some_and(CarbonConfig::active)),
    ("has_price_trace", |s| s.supply.utility_price.is_some(), |i| i.supply.utility_price.is_some()),
    ("has_carbon_trace", |s| s.supply.carbon.is_some(), |i| i.supply.carbon.is_some()),
    ("has_battery", |s| s.battery.is_some(), |i| i.supply.battery.is_some()),
];

/// Identity of a price/carbon signal trace: enough to reject a resume
/// against a different signal without serializing the whole trace (the
/// trace itself is a run input, rebuilt from the new `SimInput`).
#[derive(PartialEq)]
struct TraceId {
    interval: SimDuration,
    len: usize,
    fingerprint: u64,
}

persist_struct!(TraceId {
    "interval_ms" => interval,
    "len" => len,
    "fingerprint" => fingerprint,
});

struct Traces {
    price: Option<TraceId>,
    carbon: Option<TraceId>,
}

persist_struct!(Traces {
    "price" => price,
    "carbon" => carbon,
});

impl Traces {
    fn of(supply: &Supply) -> Traces {
        let id = |t: &iscope_energy::SignalTrace| TraceId {
            interval: t.interval,
            len: t.len(),
            fingerprint: t.fingerprint(),
        };
        Traces {
            price: supply.utility_price.as_ref().map(id),
            carbon: supply.carbon.as_ref().map(id),
        }
    }

    /// Like the wind trace, the price/carbon signals are run inputs: a
    /// resume against different ones would silently rewrite history, so
    /// only forks may swap them.
    fn check(&self, input: &Traces) -> Result<(), SnapshotError> {
        for (what, snap, live) in [
            ("utility price", &self.price, &input.price),
            ("carbon intensity", &self.carbon, &input.carbon),
        ] {
            match (snap, live) {
                (None, None) => {}
                (Some(a), Some(b)) if a == b => {}
                (Some(_), Some(_)) => {
                    return Err(SnapshotError::Mismatch(format!(
                        "snapshot was taken under a different {what} trace"
                    )))
                }
                _ => {
                    return Err(SnapshotError::Mismatch(format!(
                        "snapshot {what} trace presence differs from input"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// Pending events as `[tag, args...]` arrays. Each variant's tag and
/// argument order are declared once and drive both directions.
macro_rules! event_codec {
    ($($tag:literal => $var:ident $(($($t:ident),*))? $({$($f:ident),*})?),* $(,)?) => {
        impl ToVal for SiteEv {
            fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
                w.open_arr();
                match self {
                    $(SiteEv::$var $(($($t),*))? $({$($f),*})? => {
                        w.str($tag);
                        $($($t.write(w, what)?;)*)?
                        $($($f.write(w, what)?;)*)?
                    })*
                }
                w.close_arr();
                Ok(())
            }
        }

        impl Persist for SiteEv {
            fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
                r.open_arr(what)?;
                if !r.next_item()? {
                    return Err(SnapshotError::Parse("empty event body".into()));
                }
                let tag = r.str("event tag")?;
                let arg = |r: &mut Reader<'_>| -> Result<(), SnapshotError> {
                    if r.next_item()? {
                        Ok(())
                    } else {
                        Err(SnapshotError::Parse(format!("event {tag:?}: too few arguments")))
                    }
                };
                let ev = match &*tag {
                    $($tag => SiteEv::$var
                        $(($({ arg(r)?; let $t = Persist::read(r, $tag)?; $t }),*))?
                        $({$($f: { arg(r)?; Persist::read(r, $tag)? }),*})?,)*
                    other => {
                        return Err(SnapshotError::Parse(format!("unknown event tag {other:?}")))
                    }
                };
                if r.next_item()? {
                    return Err(SnapshotError::Parse(format!(
                        "event {tag:?}: too many arguments"
                    )));
                }
                Ok(ev)
            }
        }
    };
}

event_codec! {
    "arrival" => Arrival(job),
    "completion" => Completion { job, gen },
    "wind" => WindSample,
    "profiling_check" => ProfilingCheck,
    "profiling_done" => ProfilingDone { chip },
    "timing_failure" => TimingFailure { job, attempt, chip },
    "retry" => Retry { job },
    "reprofile_check" => ReprofileCheck,
    "reprofile_done" => ReprofileDone { chip },
    "carbon" => CarbonSample,
}

/// The job an event targets, if any.
fn event_job(ev: &SiteEv) -> Option<usize> {
    match *ev {
        SiteEv::Arrival(i) => Some(i),
        SiteEv::Completion { job, .. }
        | SiteEv::TimingFailure { job, .. }
        | SiteEv::Retry { job } => Some(job),
        _ => None,
    }
}

/// Fieldless enums as strings, each variant's name declared once.
macro_rules! persist_str_enum {
    ($ty:ident { $($var:ident => $s:literal),* $(,)? }) => {
        impl ToVal for $ty {
            fn write(&self, w: &mut Writer, _what: &str) -> Result<(), SnapshotError> {
                w.str(match self { $($ty::$var => $s,)* });
                Ok(())
            }
        }

        impl Persist for $ty {
            fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
                match &*r.str(what)? {
                    $($s => Ok($ty::$var),)*
                    other => Err(SnapshotError::Parse(format!("unknown {what} {other:?}"))),
                }
            }
        }
    };
}

persist_str_enum!(Urgency { High => "high", Low => "low" });
persist_str_enum!(Phase { Waiting => "waiting", Running => "running", Done => "done" });

/// Single-field tuple structs as their inner value.
macro_rules! persist_newtype {
    ($($ty:ident($inner:ty)),*) => {$(
        impl ToVal for $ty {
            fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
                self.0.write(w, what)
            }
        }

        impl Persist for $ty {
            fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
                <$inner>::read(r, what).map($ty)
            }
        }
    )*};
}

persist_newtype!(JobId(u32), ChipId(u32), FreqLevel(u8));

impl ToVal for iscope_pvmodel::CpuBoundness {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        self.value().write(w, what)
    }
}

/// Every written value is in `[0, 1]` (`CpuBoundness::new` clamps), so
/// one outside it is refused rather than silently clamped.
impl Persist for iscope_pvmodel::CpuBoundness {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        let gamma = f64::read(r, what)?;
        if !(0.0..=1.0).contains(&gamma) {
            return Err(SnapshotError::Mismatch(format!(
                "{what} {gamma} is outside [0, 1]"
            )));
        }
        Ok(Self::new(gamma))
    }
}

/// Declares the positional job record once: the [`Job`] fields, then the
/// [`JobState`] fields, in record order. Positional keeps the document
/// compact — the jobs section dominates snapshot size.
macro_rules! job_record {
    ($($g:ident),* ; $($f:ident),* $(,)?) => {
        impl ToVal for JobState {
            fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
                w.open_arr();
                $(self.job.$g.write(w, what)?;)*
                $(self.$f.write(w, what)?;)*
                w.close_arr();
                Ok(())
            }
        }

        impl Persist for JobState {
            fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
                const FIELDS: usize = [$(stringify!($g),)* $(stringify!($f),)*].len();
                let mut found = 0;
                let mut next = |r: &mut Reader<'_>| -> Result<(), SnapshotError> {
                    if !r.next_item()? {
                        return Err(SnapshotError::Parse(format!(
                            "{what} record must have {FIELDS} fields, found {found}"
                        )));
                    }
                    found += 1;
                    Ok(())
                };
                r.open_arr(what)?;
                let js = JobState {
                    job: Job {
                        $($g: { next(r)?; Persist::read(r, stringify!($g))? },)*
                    },
                    $($f: { next(r)?; Persist::read(r, stringify!($f))? },)*
                };
                if r.next_item()? {
                    return Err(SnapshotError::Parse(format!(
                        "{what} record must have {FIELDS} fields, found more"
                    )));
                }
                Ok(js)
            }
        }
    };
}

job_record!(
    id, submit, cpus, runtime_at_fmax, gamma, deadline, urgency;
    chips, phase, level, remaining_nominal_s, last_progress, started_at, gen, sched_end,
    power_uw_at, chain_limit, starts, attempt_energy_j,
);

/// Rejects a job record whose chips or level fall outside the fleet, or
/// whose chips (once placed) are not one per CPU.
fn check_job(js: &JobState, fleet_len: usize, num_levels: usize) -> Result<(), SnapshotError> {
    if let Some(bad) = js.chips.iter().find(|c| c.0 as usize >= fleet_len) {
        return Err(SnapshotError::Mismatch(format!(
            "job chip {} out of range (fleet {fleet_len})",
            bad.0
        )));
    }
    if !js.chips.is_empty() && js.chips.len() != js.job.cpus as usize {
        return Err(SnapshotError::Mismatch(format!(
            "job {} holds {} chips for {} CPUs",
            js.job.id.0,
            js.chips.len(),
            js.job.cpus
        )));
    }
    if js.level.0 as usize >= num_levels {
        return Err(SnapshotError::Mismatch(format!(
            "job level {} out of range ({num_levels} levels)",
            js.level.0
        )));
    }
    Ok(())
}

/// The operating plan's rows (they carry re-profile refreshes); capture
/// borrows them from the live plan.
struct PlanRows<'a> {
    voltages: Cow<'a, [Vec<f64>]>,
    est_power: Cow<'a, [Vec<f64>]>,
}

persist_struct!(PlanRows<'_> {
    "voltages" => voltages,
    "est_power" => est_power,
});

impl Section for OperatingPlan {
    fn save_section(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        let (voltages, est_power) = self.rows();
        PlanRows {
            voltages: voltages.into(),
            est_power: est_power.into(),
        }
        .write(w, what)
    }

    fn restore(&mut self, r: &mut Reader<'_>, what: &str) -> Result<(), SnapshotError> {
        let rows = PlanRows::read(r, what)?;
        // The input built this plan for the same fleet: every row keeps
        // its chip's level count.
        let (voltages, est_power) = self.rows();
        for (rows_of, got, want) in [
            ("voltages", &rows.voltages, voltages),
            ("est_power", &rows.est_power, est_power),
        ] {
            if got.len() != want.len() {
                return Err(SnapshotError::Mismatch(format!(
                    "plan {rows_of} cover {} chips, fleet has {}",
                    got.len(),
                    want.len()
                )));
            }
            if let Some(ci) = (0..got.len()).find(|&ci| got[ci].len() != want[ci].len()) {
                return Err(SnapshotError::Mismatch(format!(
                    "plan {rows_of} for chip {ci} has {} levels, expected {}",
                    got[ci].len(),
                    want[ci].len()
                )));
            }
        }
        *self = OperatingPlan::from_rows(rows.voltages.into_owned(), rows.est_power.into_owned());
        Ok(())
    }
}

/// Per-core Min Vdd drift only happens under fault injection (the aging
/// model); fault-free fleets are exactly their input fleet, so their wear
/// section is `null`.
fn save_wear(s: &SiteState, w: &mut Writer) -> Result<(), SnapshotError> {
    if s.faults.is_none() {
        w.null();
        return Ok(());
    }
    w.open_arr();
    for chip in &s.fleet.chips {
        w.open_arr();
        for core in &chip.cores {
            core.vmin.write(w, "core vmin")?;
        }
        w.close_arr();
    }
    w.close_arr();
    Ok(())
}

fn restore_wear(s: &mut SiteState, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
    let Some(wear) = Option::<Vec<Vec<Vec<f64>>>>::read(r, "wear")? else {
        return Ok(());
    };
    let fleet_len = s.fleet.len();
    if wear.len() != fleet_len {
        return Err(SnapshotError::Mismatch(format!(
            "wear covers {} chips, fleet has {fleet_len}",
            wear.len()
        )));
    }
    for (ci, (chip, cores)) in s.fleet.chips.iter_mut().zip(wear).enumerate() {
        if cores.len() != chip.cores.len() {
            return Err(SnapshotError::Mismatch(format!(
                "wear for chip {ci} covers {} cores, chip has {}",
                cores.len(),
                chip.cores.len()
            )));
        }
        for (k, (core, vmin)) in chip.cores.iter_mut().zip(cores).enumerate() {
            if vmin.len() != core.vmin.len() {
                return Err(SnapshotError::Mismatch(format!(
                    "vmin for chip {ci} core {k} has {} levels, expected {}",
                    vmin.len(),
                    core.vmin.len()
                )));
            }
            core.vmin = vmin;
        }
    }
    Ok(())
}

section!(FaultState, |f| {
    "rng" => f.rng,
    "scan_rng" => f.bay.rng,
    "stress_hours" => f.stress_hours,
    "suspect" => f.suspect,
    "draining" => f.draining,
    "scanning" => f.bay.scanning,
    "pending_vmin" => f.bay.pending_vmin,
    "min_in_service" => f.min_in_service,
    "reprofile_power_w" => f.bay.power_w,
    "reprofile_energy_j" => f.bay.energy_j,
    "timing_failures" => f.timing_failures,
    "retries" => f.retries,
    "failed_jobs" => f.failed_jobs,
    "wasted_j" => f.wasted_j,
    "chips_rescanned" => f.chips_rescanned,
    "rescan_downtime_ms" => f.rescan_downtime,
});

section!(AuditState, |a| {
    "demand_w" => a.demand_w,
    // The auditor's own meters, inline as `price_meter`/`carbon_meter`.
    ..a.costs,
    "wind_j" => a.wind_j,
    "utility_j" => a.utility_j,
    "busy_ms" => a.busy_ms,
    "deadline_misses" => a.deadline_misses,
    "intervals" => a.intervals,
    "demand_checks" => a.demand_checks,
    "violations" => a.violations,
    "suppressed" => a.suppressed,
});

section!(CarbonState, |c| {
    "deferrals" => c.deferrals,
    "suspensions" => c.suspensions,
    "wasted_j" => c.wasted_j,
});

/// The telemetry recorder's sampler mid-stream; capture borrows its rows.
struct RowParts<'a> {
    interval: SimDuration,
    next_tick: SimTime,
    current: Cow<'a, [f64]>,
    rows: Cow<'a, [(SimTime, Vec<f64>)]>,
}

persist_struct!(RowParts<'_> {
    "interval_ms" => interval,
    "next_tick_ms" => next_tick,
    "current" => current,
    "rows" => rows,
});

impl Section for TelemetryState {
    fn save_section(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        let (interval, next_tick, current, rows) = self.sampler.parts();
        RowParts {
            interval,
            next_tick,
            current: current.into(),
            rows: rows.into(),
        }
        .write(w, what)
    }

    fn restore(&mut self, r: &mut Reader<'_>, what: &str) -> Result<(), SnapshotError> {
        let p = RowParts::read(r, what)?;
        if p.interval.is_zero() {
            return Err(SnapshotError::Mismatch(
                "telemetry interval must be positive".to_string(),
            ));
        }
        // The input built the row buffer at this run's channel count.
        let channels = self.row_scratch.len();
        let rows = std::iter::once(&*p.current).chain(p.rows.iter().map(|(_, row)| &row[..]));
        if let Some(bad) = rows.map(<[f64]>::len).find(|&n| n != channels) {
            return Err(SnapshotError::Mismatch(format!(
                "telemetry rows have {bad} channels, this run needs {channels}"
            )));
        }
        self.sampler = RowSampler::from_parts(
            p.interval,
            p.next_tick,
            p.current.into_owned(),
            p.rows.into_owned(),
        );
        Ok(())
    }
}

optional_section!(TelemetryState);

// The site's snapshot document: every section after the header and the
// pending events, in document order.
section!(document SiteState, |s| {
    "site" => {
        "expect_more" => s.expect_more,
        "migrated_out" => s.migrated_out,
        "done_count" => s.done_count,
        "deadline_misses" => s.deadline_misses,
        "last_account_ms" => s.last_account,
        "current_demand_w" => s.current_demand_w,
        "makespan_ms" => s.makespan,
        "placements" => s.placements,
        "queued_jobs" => s.queued_jobs,
        // Rebuilt like the other derived caches; the stored count is
        // cross-checked against the restored queues.
        "busy_queues" => s.busy_queues,
        "avail_dirty" => s.avail_dirty,
        "rng" => s.rng,
    },
    "jobs" => s.jobs,
    "queues" => s.queues,
    "usage" => s.usage,
    "avail" => s.avail,
    "running" => s.running,
    "running_at_level" => s.running_at_level,
    "deferred" => s.deferred,
    "ledger" => s.ledger,
    "samplers" => s.samplers,
    "plan" => s.plan,
    "wear" => [save_wear, restore_wear],
    "faults" => s.faults,
    "audit" => s.audit,
    "telemetry" => s.telemetry,
    "costs" => s.costs,
    "carbon" => s.carbon,
    "battery" => s.battery,
});

/// Where a restored run resumes: the engine state that lives outside the
/// [`SiteState`] (clock, step counter, admission cursor, pending events).
pub(crate) struct ResumePoint {
    pub(crate) now: SimTime,
    pub(crate) steps: u64,
    pub(crate) admitted: usize,
    pub(crate) pending: Vec<(SimTime, SiteEv)>,
}

impl SiteState {
    /// Serializes this site's complete mutable state as a snapshot
    /// document (JSONL; see [`crate::snapshot`]). `seed` comes from the
    /// driver (the site does not know it), `now`/`steps`/`pending` from
    /// the engine; every job in the table counts as admitted.
    ///
    /// v1 restrictions: in-situ profiling state (chip sets, pending rows,
    /// candidate pool, scan stream) and per-core operating plans have no
    /// section — capturing either returns [`SnapshotError::Unsupported`].
    pub(crate) fn capture(
        &self,
        seed: u64,
        now: SimTime,
        steps: u64,
        pending: &[(SimTime, SiteEv)],
    ) -> Result<String, SnapshotError> {
        if self.in_situ.is_some() {
            return Err(SnapshotError::Unsupported(
                "in-situ profiling state is not serialized in snapshot v1".to_string(),
            ));
        }
        if self.plan.is_per_core() {
            return Err(SnapshotError::Unsupported(
                "per-core operating plans are not serialized in snapshot v1".to_string(),
            ));
        }
        let header = Header {
            scheme: self.scheme_name.clone(),
            seed,
            site_id: self.site_id,
            now,
            steps,
            admitted: self.jobs.len(),
            fleet_len: self.fleet.len(),
            num_levels: self.fleet.dvfs.num_levels(),
        };
        let mut doc = DocWriter::default();
        doc.entry(HEADER, |w| {
            w.obj(|w| {
                w.entry(VERSION_KEY, |w| SNAPSHOT_VERSION.write(w, VERSION_KEY))?;
                header.save_fields(w)?;
                for (key, live, _) in PRESENCE {
                    w.entry(key, |w| live(self).write(w, key))?;
                }
                Ok(())
            })
        })?;
        doc.entry(EVENTS, |w| pending.write(w, EVENTS))?;
        self.save_document(&mut doc)?;
        doc.entry(TRACES, |w| Traces::of(&self.supply).write(w, TRACES))?;
        Ok(doc.finish())
    }

    /// Rebuilds a site mid-run from a snapshot document, returning the
    /// state plus the [`ResumePoint`] the driver must re-prime the engine
    /// from.
    ///
    /// With `fork = false` (resume), the snapshot must match the input
    /// exactly — same scheme, same seed — and the continued run is
    /// bit-identical to never having stopped. With `fork = true` (what-if
    /// branching), scheme, placement, supply, and knobs come from the new
    /// input while the simulation state (jobs, ledgers, wear, RNG streams,
    /// pending events) continues from the snapshot. Structural facts
    /// (fleet shape, which instruments are on) must match in both modes.
    pub(crate) fn restore_from(
        input: SimInput,
        site_id: u32,
        text: &str,
        fork: bool,
    ) -> Result<(SiteState, ResumePoint), SnapshotError> {
        if input.in_situ.is_some() {
            return Err(SnapshotError::Unsupported(
                "cannot restore into a run with in-situ profiling (snapshot v1)".to_string(),
            ));
        }
        if input.plan.is_per_core() {
            return Err(SnapshotError::Unsupported(
                "cannot restore into a per-core operating plan (snapshot v1)".to_string(),
            ));
        }
        let doc = snapshot::decode_lines(text)?;
        let (header, presence) = doc.entry(HEADER, |r| {
            r.obj(HEADER, |r| {
                let version = r.entry(VERSION_KEY, |r| i64::read(r, "snapshot version"))?;
                if version != SNAPSHOT_VERSION {
                    return Err(SnapshotError::Mismatch(format!(
                        "snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
                    )));
                }
                let mut header = Header::default();
                header.restore_fields(r)?;
                let mut presence = [false; PRESENCE.len()];
                for ((key, ..), got) in PRESENCE.iter().zip(&mut presence) {
                    *got = r.entry(key, |r| bool::read(r, key))?;
                }
                Ok((header, presence))
            })
        })?;
        if !fork && header.scheme != input.scheme_name {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken under scheme {:?}, input is {:?} (use fork to branch)",
                header.scheme, input.scheme_name
            )));
        }
        if !fork && header.seed != input.seed {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken with seed {}, input has {} (use fork to branch)",
                header.seed, input.seed
            )));
        }
        let fleet_len = input.fleet.len();
        if header.fleet_len != fleet_len {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot fleet has {} chips, input has {fleet_len}",
                header.fleet_len
            )));
        }
        let num_levels = input.fleet.dvfs.num_levels();
        if header.num_levels != num_levels {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} DVFS levels, input has {num_levels}",
                header.num_levels
            )));
        }
        for ((key, _, wanted), got) in PRESENCE.iter().zip(presence) {
            let want = wanted(&input);
            if got != want {
                return Err(SnapshotError::Mismatch(format!(
                    "snapshot {key} = {got}, input has {want}"
                )));
            }
        }
        if !fork {
            doc.entry(TRACES, |r| Traces::read(r, TRACES))?
                .check(&Traces::of(&input.supply))?;
        }
        let pending: Vec<(SimTime, SiteEv)> = doc.entry(EVENTS, |r| Persist::read(r, EVENTS))?;

        let mut site = SiteState::new(input, site_id, 0);
        site.restore_document(&doc)?;
        site.check_restored(header.now, &pending)?;
        site.rebuild_derived()?;
        Ok((
            site,
            ResumePoint {
                now: header.now,
                steps: header.steps,
                admitted: header.admitted,
                pending,
            },
        ))
    }

    /// Checks restored state against the fleet and the job table before
    /// any derived cache is built from it. A snapshot is outside input, so
    /// every index and length is a checked error, never a panic.
    fn check_restored(
        &self,
        now: SimTime,
        pending: &[(SimTime, SiteEv)],
    ) -> Result<(), SnapshotError> {
        let fleet_len = self.fleet.len();
        let num_levels = self.fleet.dvfs.num_levels();
        let num_jobs = self.jobs.len();
        for js in &self.jobs {
            check_job(js, fleet_len, num_levels)?;
        }
        if let Some((t, _)) = pending.iter().find(|(t, _)| *t < now) {
            return Err(SnapshotError::Mismatch(format!(
                "pending event at {} precedes the snapshot clock {}",
                t.as_millis(),
                now.as_millis()
            )));
        }
        for (t, ev) in pending {
            if let Some(i) = event_job(ev).filter(|&i| i >= num_jobs) {
                return Err(SnapshotError::Mismatch(format!(
                    "pending event at {} targets job {i}, table has {num_jobs}",
                    t.as_millis()
                )));
            }
        }
        if self.done_count > num_jobs {
            return Err(SnapshotError::Mismatch(format!(
                "done_count {} exceeds job table size {num_jobs}",
                self.done_count
            )));
        }
        let mut per_chip = vec![
            ("chip queues", self.queues.len()),
            ("usage", self.usage.len()),
            ("avail", self.avail.len()),
        ];
        if let Some(f) = &self.faults {
            per_chip.extend([
                ("stress hours", f.stress_hours.len()),
                ("suspect set", f.suspect.on.len()),
                ("draining set", f.draining.len()),
                ("scanning set", f.bay.scanning.on.len()),
                ("pending vmin", f.bay.pending_vmin.len()),
            ]);
        }
        if let Some(a) = &self.audit {
            per_chip.push(("audit busy time", a.busy_ms.len()));
        }
        if let Some((what, n)) = per_chip.into_iter().find(|&(_, n)| n != fleet_len) {
            return Err(SnapshotError::Mismatch(format!(
                "{what} covers {n} chips, fleet has {fleet_len}"
            )));
        }
        if self.running_at_level.len() != num_levels {
            return Err(SnapshotError::Mismatch(format!(
                "running_at_level has {} entries, fleet has {num_levels} levels",
                self.running_at_level.len()
            )));
        }
        let indexes = self.queues.iter().flatten().chain(&self.running);
        if let Some(bad) = indexes.chain(&self.deferred).find(|&&i| i >= num_jobs) {
            return Err(SnapshotError::Mismatch(format!(
                "job index {bad} out of range (table has {num_jobs})"
            )));
        }
        // The running set as the run keeps it: each running job heads the
        // queue of every chip it holds, and `running_at_level` counts the
        // running jobs at each level.
        let mut at_level = vec![0; num_levels];
        for &i in &self.running {
            let js = &self.jobs[i];
            if js.chips.is_empty()
                || js
                    .chips
                    .iter()
                    .any(|c| self.queues[c.0 as usize].front() != Some(&i))
            {
                return Err(SnapshotError::Mismatch(format!(
                    "running job {i} does not head the queues of its chips"
                )));
            }
            at_level[js.level.0 as usize] += 1;
        }
        if at_level != self.running_at_level {
            return Err(SnapshotError::Mismatch(format!(
                "running_at_level {:?} disagrees with the running jobs' levels {at_level:?}",
                self.running_at_level
            )));
        }
        // The demand aggregates `rebuild_derived` sums over the running
        // jobs' power rows: each row covers every level, and no sum
        // overflows.
        if let Some(&i) = self
            .running
            .iter()
            .find(|&&i| self.jobs[i].power_uw_at.len() != num_levels)
        {
            return Err(SnapshotError::Mismatch(format!(
                "running job {i} has {} power levels, fleet has {num_levels}",
                self.jobs[i].power_uw_at.len()
            )));
        }
        let at_level = |l: Option<usize>| {
            self.running.iter().try_fold(0i64, |sum, &i| {
                let js = &self.jobs[i];
                sum.checked_add(js.power_uw_at[l.unwrap_or(js.level.0 as usize)])
            })
        };
        if (0..num_levels)
            .map(Some)
            .chain([None])
            .any(|l| at_level(l).is_none())
        {
            return Err(SnapshotError::Mismatch(
                "running jobs' power overflows the demand aggregate".to_string(),
            ));
        }
        Ok(())
    }

    /// Rebuilds the caches a snapshot does not carry — chain lengths, the
    /// busy-queue count, demand aggregates, the blocked view, chip indexes
    /// — from the restored ground truth.
    fn rebuild_derived(&mut self) -> Result<(), SnapshotError> {
        let jobs = &self.jobs;
        self.chain_len_ms = self
            .queues
            .iter()
            .map(|q| {
                q.iter().skip(1).try_fold(0u64, |sum, &i| {
                    sum.checked_add(jobs[i].job.runtime_at_fmax.as_millis())
                })
            })
            .collect::<Option<_>>()
            .ok_or_else(|| {
                SnapshotError::Mismatch("a chip queue's runtime overflows u64 ms".to_string())
            })?;
        let busy_queues = self.queues.iter().filter(|q| !q.is_empty()).count();
        if busy_queues != self.busy_queues {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot records {} busy queues but its queues hold {busy_queues}",
                self.busy_queues
            )));
        }
        self.rebuild_demand_aggregates();
        let out = (0..self.fleet.len()).map(|i| self.chip_out_of_service(i));
        self.out_of_service = ChipSet::from_flags(out.collect());
        // The chip indexes are keyed on packed (ms, id) integers whose
        // ranges debug builds assert; a snapshot is outside input, so the
        // restore path promotes those to checked errors before any key is
        // packed.
        self.chip_index.set_ranking(self.plan.ranking());
        for (ci, (usage, avail)) in self.usage.iter().zip(&self.avail).enumerate() {
            validate_key_range(usage.as_millis(), ci as u32)?;
            validate_key_range(avail.as_millis(), ci as u32)?;
            self.chip_index.set_usage(ChipId(ci as u32), *usage);
        }
        let queues = &self.queues;
        self.chip_index
            .rebuild_avail(&self.avail, |i| !queues[i].is_empty());
        Ok(())
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
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
