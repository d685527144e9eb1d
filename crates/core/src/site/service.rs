//! Which chips are in service: in-situ profiling, fault injection with
//! wear, quarantine and re-profiling, and the blocked view placement
//! reads, derived from them.

use super::availability::Availability;
use super::{JobState, SiteCtx, SiteEv};
use crate::report::{FaultStats, ProfilingStats};
use crate::simulation::{FaultInjectionConfig, InSituConfig, SimInput};
use crate::snapshot::{
    mismatch, section, Fields, Persist, Reader, Section, SnapshotError, ToVal, Writer,
};
use iscope_dcsim::{SimDuration, SimRng, SimTime};
use iscope_pvmodel::{ChipId, CoolingModel, Fleet, OperatingPlan};
use iscope_scanner::{
    safe_reprofile_interval_hours, with_nominal_fallback, ReprofilePolicy, Scanner, VoltageGrid,
};
use std::collections::BTreeSet;

/// A set of chips: a flag per chip plus the member count, kept in step
/// by [`ChipSet::set`]. Saved as its flags.
pub(crate) struct ChipSet {
    on: Vec<bool>,
    len: usize,
}

impl ChipSet {
    pub(super) fn new(n: usize) -> ChipSet {
        ChipSet::from_flags(vec![false; n])
    }

    fn from_flags(on: Vec<bool>) -> ChipSet {
        let len = on.iter().filter(|&&b| b).count();
        ChipSet { on, len }
    }

    fn contains(&self, i: usize) -> bool {
        self.on[i]
    }

    fn len(&self) -> usize {
        debug_assert_eq!(self.len, self.iter().count(), "chip-set count diverged");
        self.len
    }

    pub(super) fn set(&mut self, i: usize, on: bool) {
        if self.on[i] != on {
            self.on[i] = on;
            self.len = if on { self.len + 1 } else { self.len - 1 };
        }
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
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

/// Facility power of chip `ci` under test: a scan runs its stress
/// workload at nominal voltage and full clock.
fn scan_power_w((fleet, cooling): (&Fleet, &CoolingModel), ci: usize) -> f64 {
    let (dvfs, top) = (&fleet.dvfs, fleet.dvfs.max_level());
    let pm = fleet.power_model();
    cooling.facility_power(pm.chip_power(&fleet.chips[ci], dvfs, top, dvfs.v_nom(top)))
}

/// One chip-scanning loop (stages 3-6 of Fig. 3): the chips isolated
/// under scan, the Min Vdd row each returns to service with, and the
/// power the scans draw. In-situ profiling and re-profiling own one each.
struct ScanBay {
    /// Measurement-noise stream for this loop's scans.
    rng: SimRng,
    scanning: ChipSet,
    /// Min Vdd measured at scan start, applied when the scan completes
    /// (the chip is isolated and idle throughout, so no wear accrues).
    pending_vmin: Vec<Option<Vec<f64>>>,
    power_w: f64,
    /// Scan energy (J): part of demand, reported as the overhead.
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

    /// Isolates chip `ci` and scans it now, drawing its scan power until
    /// [`ScanBay::finish`]. Returns the scan's duration and tests run.
    fn start(
        &mut self,
        (scanner, grid): (&Scanner, &VoltageGrid),
        parts: (&Fleet, &CoolingModel),
        ci: usize,
    ) -> (SimDuration, u64) {
        let fleet = parts.0;
        let scan = scanner.scan_chip(&fleet.chips[ci], grid, &mut self.rng);
        let row = with_nominal_fallback(&fleet.dvfs, |l| scan.measured_vmin_chip(l));
        self.pending_vmin[ci] = Some(row);
        self.scanning.set(ci, true);
        self.power_w += scan_power_w(parts, ci);
        (scan.duration, scan.tests_run)
    }

    /// Chip `ci`'s scan ended: it leaves the bay and its power stops.
    /// Returns the measured row to apply.
    fn finish(&mut self, parts: (&Fleet, &CoolingModel), ci: usize) -> Vec<f64> {
        self.scanning.set(ci, false);
        self.power_w = (self.power_w - scan_power_w(parts, ci)).max(0.0);
        let row = self.pending_vmin[ci].take();
        row.expect("scan finished without a measurement")
    }
}

struct InSituState {
    config: InSituConfig,
    scanner: Scanner,
    grid: VoltageGrid,
    bay: ScanBay,
    /// Chips whose scan completed and whose plan entry was upgraded.
    profiled: ChipSet,
    tests_run: u64,
    /// The candidate pool: chips idle, unprofiled and not under scan,
    /// ordered so candidates come in ascending id as a fleet scan would.
    idle_unprofiled: BTreeSet<u32>,
}

/// Fault injection, recovery and periodic re-profiling (the closed
/// staleness loop).
pub(crate) struct FaultState {
    config: FaultInjectionConfig,
    /// Jitter stream for the failure predicate, independent of every
    /// other stream.
    rng: SimRng,
    /// The re-scans.
    bay: ScanBay,
    /// Re-scan scanner and grid (with a re-profiling config only).
    rescan: Option<(Scanner, VoltageGrid)>,
    /// Stress hours after which a chip is due for a re-scan (`INFINITY`
    /// without re-profiling).
    stress_interval_hours: f64,
    /// The t = 0 plan's safe re-profile interval (hours) the adaptive
    /// cadence is a fraction of; `None` under a fixed cadence.
    safe_reprofile_hours: Option<f64>,
    /// Accelerated voltage-stress hours per chip since its last scan.
    stress_hours: Vec<f64>,
    /// Chips quarantined after a failure, awaiting a re-scan.
    suspect: ChipSet,
    /// Chips due for a re-scan, taking no new work while theirs drains.
    draining: ChipSet,
    /// Chips that must stay in service: the widest gang, or the
    /// re-profiling availability floor if larger.
    min_in_service: usize,
    timing_failures: u64,
    retries: u64,
    failed_jobs: usize,
    /// Energy (J) burned by failed attempts.
    wasted_j: f64,
    chips_rescanned: u64,
    rescan_downtime: SimDuration,
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

/// The chips out of service and why.
pub(crate) struct Service {
    in_situ: Option<InSituState>,
    pub(super) faults: Option<FaultState>,
    /// The blocked view placement reads: the chips `holds` holds out,
    /// re-derived at each of their transitions.
    out_of_service: ChipSet,
}

impl FaultState {
    /// The safe re-profile interval a snapshot saves: `None` unless the
    /// cadence is adaptive and the interval finite and positive, so a
    /// resume from a `null` recomputes it from the t = 0 plan.
    pub(super) fn saved_safe_hours(&self) -> Option<f64> {
        self.safe_reprofile_hours
            .filter(|h| h.is_finite() && *h > 0.0)
    }
}

impl Service {
    /// `widest_gang` is the widest job the site can receive; the fault
    /// machinery's availability floor keeps room for it. An adaptive
    /// re-profile cadence is a fraction of the t = 0 plan's safe
    /// interval: `saved_safe_hours` when a resumed snapshot carries it,
    /// else computed from the input's plan, which runs its deferred scan.
    pub(super) fn new(
        input: &SimInput,
        saved_safe_hours: Option<f64>,
        widest_gang: u32,
    ) -> Service {
        let (fleet, n, seed) = (&input.fleet, input.fleet.len(), input.seed);
        let faults = input.fault_injection.clone().map(|config| {
            config.model.validate();
            config.retry.validate();
            let suspects = config.max_suspect_fraction;
            assert!(
                (0.0..=1.0).contains(&suspects),
                "suspect fraction must be in [0, 1]"
            );
            let reprofile = config.reprofile.as_ref();
            if let Some(r) = reprofile {
                r.policy.validate();
            }
            let aging = &config.model.aging;
            let (stress_interval_hours, safe_reprofile_hours) = match reprofile.map(|r| r.policy) {
                None => (f64::INFINITY, None),
                Some(ReprofilePolicy::Fixed { stress_hours }) => (stress_hours, None),
                Some(ReprofilePolicy::Adaptive { fraction }) => {
                    let safe = saved_safe_hours.unwrap_or_else(|| {
                        let plan = input.plan.get(fleet, seed);
                        safe_reprofile_interval_hours(fleet, plan, aging)
                    });
                    // One product whether `safe` was saved or computed,
                    // so a resume keeps the cadence bit for bit.
                    (fraction * safe, Some(safe))
                }
            };
            let rescan =
                reprofile.map(|r| (Scanner::new(r.scanner.clone()), r.scanner.grid(&fleet.dvfs)));
            let floor =
                reprofile.map_or(0, |r| (n as f64 * r.min_available_fraction).ceil() as usize);
            FaultState {
                rng: SimRng::derive(seed, "fault-injection"),
                bay: ScanBay::new(SimRng::derive(seed, "re-profiling"), n),
                rescan,
                stress_interval_hours,
                safe_reprofile_hours,
                stress_hours: vec![0.0; n],
                suspect: ChipSet::new(n),
                draining: ChipSet::new(n),
                min_in_service: (widest_gang as usize).max(floor),
                timing_failures: 0,
                retries: 0,
                failed_jobs: 0,
                wasted_j: 0.0,
                chips_rescanned: 0,
                rescan_downtime: SimDuration::ZERO,
                config,
            }
        });
        let in_situ = input.in_situ.clone().map(|config| InSituState {
            scanner: Scanner::new(config.scanner.clone()),
            grid: config.scanner.grid(&fleet.dvfs),
            bay: ScanBay::new(SimRng::derive(seed, "in-situ-scanner"), n),
            profiled: ChipSet::new(n),
            tests_run: 0,
            // Every chip starts idle, unprofiled and in service.
            idle_unprofiled: (0..n as u32).collect(),
            config,
        });
        let out_of_service = ChipSet::new(n);
        Service {
            in_situ,
            faults,
            out_of_service,
        }
    }

    pub(super) fn has_in_situ(&self) -> bool {
        self.in_situ.is_some()
    }

    pub(super) fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The periodic checks to prime: in-situ profiling, then re-profiling.
    pub(super) fn periodic(&self) -> impl Iterator<Item = (SimDuration, SiteEv)> {
        let profiling = self.in_situ.as_ref().map(|s| s.config.check_interval);
        let profiling = profiling.map(|iv| (iv, SiteEv::ProfilingCheck));
        let reprofile = self
            .reprofile_interval()
            .map(|iv| (iv, SiteEv::ReprofileCheck));
        profiling.into_iter().chain(reprofile)
    }

    pub(super) fn reprofile_interval(&self) -> Option<SimDuration> {
        let faults = self.faults.as_ref()?;
        faults.config.reprofile.as_ref().map(|r| r.check_interval)
    }

    /// The interval to the next in-situ profiling check while one is
    /// due: chips remain unprofiled, and work is `live` or a scan runs.
    pub(super) fn next_profiling_check(&self, live: bool) -> Option<SimDuration> {
        let s = self.in_situ.as_ref()?;
        let due = (live || s.bay.scanning.len() > 0) && s.profiled.len() < s.profiled.on.len();
        due.then_some(s.config.check_interval)
    }

    /// Whether chip `i` is held out of service: under an in-situ scan, or
    /// draining toward a re-scan, under re-scan, or quarantined.
    fn holds(&self, i: usize) -> bool {
        let fault = |f: &FaultState| {
            f.bay.scanning.contains(i) || f.draining.contains(i) || f.suspect.contains(i)
        };
        self.in_situ
            .as_ref()
            .is_some_and(|s| s.bay.scanning.contains(i))
            || self.faults.as_ref().is_some_and(fault)
    }

    fn sync(&mut self, i: usize) {
        self.out_of_service.set(i, self.holds(i));
    }

    /// The blocked view placement reads: a flag per chip.
    pub(super) fn blocked(&self) -> &[bool] {
        debug_assert!(
            (0..self.out_of_service.on.len())
                .all(|i| self.out_of_service.contains(i) == self.holds(i)),
            "blocked view diverged from the in-situ and fault sets"
        );
        &self.out_of_service.on
    }

    pub(super) fn in_service(&self) -> usize {
        self.out_of_service.on.len() - self.out_of_service.len()
    }

    /// Quarantined chips now.
    pub(super) fn suspects(&self) -> usize {
        self.faults.as_ref().map_or(0, |f| f.suspect.len())
    }

    /// The scan bays, in-situ first: every sum over them keeps one order.
    fn bays(&self) -> impl Iterator<Item = &ScanBay> {
        let insitu = self.in_situ.iter().map(|s| &s.bay);
        insitu.chain(self.faults.iter().map(|f| &f.bay))
    }

    /// The power each bay's scans draw now, in bay order.
    pub(super) fn scan_power(&self) -> impl Iterator<Item = f64> + '_ {
        self.bays().map(|bay| bay.power_w)
    }

    /// The same draw recounted from the chips under scan (the auditor's
    /// cross-check of the bays' running totals).
    pub(super) fn recount_scan_power(&self, parts: (&Fleet, &CoolingModel)) -> f64 {
        let chips = self.bays().flat_map(|bay| bay.scanning.iter());
        chips.fold(0.0, |sum, ci| sum + scan_power_w(parts, ci))
    }

    /// Books `dt` seconds of scan energy.
    pub(super) fn book_scans(&mut self, dt: f64) {
        let insitu = self.in_situ.iter_mut().map(|s| &mut s.bay);
        for bay in insitu.chain(self.faults.iter_mut().map(|f| &mut f.bay)) {
            bay.energy_j += bay.power_w * dt;
        }
    }

    /// A job was queued on `chips`: none of them is idle now.
    pub(super) fn chips_busy(&mut self, chips: &[ChipId]) {
        if let Some(insitu) = &mut self.in_situ {
            for c in chips {
                insitu.idle_unprofiled.remove(&c.0);
            }
        }
    }

    /// A job held `chips` for `busy`: under fault injection each ages at
    /// its planned top-level voltage and accrues stress hours, and each
    /// left idle and unprofiled rejoins the in-situ candidate pool.
    pub(super) fn chips_released(
        &mut self,
        chips: &[ChipId],
        busy: SimDuration,
        (fleet, plan): (&mut Fleet, &OperatingPlan),
        avail: &Availability,
    ) {
        if let Some(f) = &mut self.faults {
            let (top, v_ref) = (fleet.dvfs.max_level(), fleet.dvfs.v_ref());
            for &c in chips {
                let (chip, v) = (&mut fleet.chips[c.0 as usize], plan.applied_voltage(c, top));
                f.stress_hours[c.0 as usize] +=
                    f.config.model.wear(chip, busy.as_hours_f64(), v, v_ref);
            }
        }
        if let Some(s) = &mut self.in_situ {
            for ci in chips.iter().map(|c| c.0 as usize) {
                if avail.is_idle(ci) && !s.profiled.contains(ci) && !s.bay.scanning.contains(ci) {
                    s.idle_unprofiled.insert(ci as u32);
                }
            }
        }
    }

    /// Stages 1-4 of Fig. 3: at low utilization, isolate idle,
    /// unprofiled chips and start their scans. Utilization and the
    /// candidates come from maintained counts and the maintained pool, so
    /// nothing here scans the fleet.
    pub(super) fn profiling_check(
        &mut self,
        now: SimTime,
        ctx: &mut impl SiteCtx,
        parts: (&Fleet, &CoolingModel),
        avail: &Availability,
    ) {
        let n = parts.0.len();
        // Every out-of-service chip counts against the floor.
        let available_now = self.in_service();
        let Some(insitu) = &mut self.in_situ else {
            return;
        };
        let cfg = &insitu.config;
        if avail.busy_queues() as f64 / n as f64 >= cfg.utilization_threshold {
            return;
        }
        let min_available = (n as f64 * cfg.min_available_fraction).ceil() as usize;
        let may_take = available_now.saturating_sub(min_available);
        let may_take = may_take.min(insitu.scanner.config().domain_size);
        if may_take == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        {
            let (profiled, scanning) = (&insitu.profiled, &insitu.bay.scanning);
            let replay = (0..n as u32).filter(|&c| {
                let ci = c as usize;
                !profiled.contains(ci) && !scanning.contains(ci) && avail.is_idle(ci)
            });
            let pool = insitu.idle_unprofiled.iter().copied();
            debug_assert!(pool.eq(replay), "idle-unprofiled pool diverged");
        }
        // The pool leaves out only the in-situ scans; the fault
        // machinery's out-of-service chips are filtered here.
        let out = &self.out_of_service;
        let pool = insitu.idle_unprofiled.iter().copied();
        let candidates: Vec<u32> = pool
            .filter(|&c| !out.contains(c as usize))
            .take(may_take)
            .collect();
        for c in candidates {
            // Stages 3-6 run against the hidden silicon now; the chip is
            // out of service for the resulting test time.
            let tools = (&insitu.scanner, &insitu.grid);
            let (duration, tests_run) = insitu.bay.start(tools, parts, c as usize);
            insitu.tests_run += tests_run;
            insitu.idle_unprofiled.remove(&c);
            self.out_of_service.set(c as usize, true);
            ctx.schedule(now + duration, SiteEv::ProfilingDone { chip: c });
        }
    }

    /// A scan of chip `ci` ended — a re-scan if `rescan`, else an
    /// in-situ scan — and it rejoins service: re-scanned chips leave
    /// quarantine with a reset stress clock, profiled ones never re-enter
    /// the scan pool. Returns the measured row its plan entry takes.
    pub(super) fn scan_done(
        &mut self,
        ci: usize,
        rescan: bool,
        parts: (&Fleet, &CoolingModel),
    ) -> Option<Vec<f64>> {
        let bay = if rescan {
            let f = self
                .faults
                .as_mut()
                .expect("re-profile completion without fault injection");
            f.suspect.set(ci, false);
            f.stress_hours[ci] = 0.0;
            &mut f.bay
        } else {
            let insitu = self.in_situ.as_mut()?;
            insitu.profiled.set(ci, true);
            &mut insitu.bay
        };
        let measured = bay.finish(parts, ci);
        self.sync(ci);
        Some(measured)
    }

    /// Decides at start whether this attempt survives: the gang's worst
    /// chip (smallest margin after this attempt's drift) is tested against
    /// one jitter draw, taken whatever the outcome, so failures are a pure
    /// function of the seed.
    pub(super) fn maybe_inject_failure(
        &mut self,
        (idx, js): (usize, &JobState),
        now: SimTime,
        ctx: &mut impl SiteCtx,
        (fleet, plan): (&Fleet, &OperatingPlan),
    ) {
        let Some(faults) = &mut self.faults else {
            return;
        };
        let attempt = js.sched_end.saturating_since(now);
        let (top, v_ref) = (fleet.dvfs.max_level(), fleet.dvfs.v_ref());
        let model = &faults.config.model;
        let mut worst: Option<(u32, f64, f64)> = None; // (chip, margin, drift)
        let mut worst_end = f64::INFINITY;
        for &c in &js.chips {
            let margin = model.worst_margin_v(fleet, plan, &fleet.chips[c.0 as usize]);
            let v = plan.applied_voltage(c, top);
            let drift = model.attempt_drift_v(attempt.as_hours_f64(), v, v_ref);
            if margin - drift < worst_end {
                worst_end = margin - drift;
                worst = Some((c.0, margin, drift));
            }
        }
        let jitter = faults.rng.normal(0.0, model.jitter_v_sd);
        let Some((chip, margin, drift)) = worst else {
            return;
        };
        if model.attempt_fails(margin, drift, jitter) {
            let at = now + attempt.mul_f64(model.failure_fraction(margin, drift, jitter));
            let (job, attempt) = (idx, js.starts);
            ctx.schedule(at, SiteEv::TimingFailure { job, attempt, chip });
        }
    }

    /// Books a timing failure on chip `ci` of a job's `failures`-th
    /// attempt, which burned `wasted` J, quarantining the chip if the
    /// suspect cap and the availability floor allow. Returns the retry
    /// backoff, or `None` when the job is abandoned.
    pub(super) fn timing_failure(
        &mut self,
        ci: usize,
        failures: u32,
        wasted: f64,
    ) -> Option<SimDuration> {
        let (n, in_service) = (self.out_of_service.on.len(), self.in_service());
        let out = self.out_of_service.contains(ci);
        let f = self
            .faults
            .as_mut()
            .expect("timing failure without fault injection");
        f.timing_failures += 1;
        f.wasted_j += wasted;
        let cap = (n as f64 * f.config.max_suspect_fraction).floor() as usize;
        if !f.suspect.contains(ci)
            && f.suspect.len() < cap
            && (out || in_service > f.min_in_service)
        {
            f.suspect.set(ci, true);
        }
        let retry = &f.config.retry;
        let backoff = retry.may_retry(failures).then(|| retry.backoff(failures));
        match backoff {
            Some(_) => f.retries += 1,
            None => f.failed_jobs += 1,
        }
        self.sync(ci);
        backoff
    }

    /// The periodic re-profiling loop (§III.C closed inside the run):
    /// chips past their stress cadence, or quarantined, are drained, then
    /// re-scanned once idle, competing for capacity like in-situ
    /// profiling.
    pub(super) fn reprofile_check(
        &mut self,
        now: SimTime,
        ctx: &mut impl SiteCtx,
        parts: (&Fleet, &CoolingModel),
        avail: &Availability,
    ) {
        let reprofile = self
            .faults
            .as_ref()
            .and_then(|f| f.config.reprofile.as_ref());
        let Some(domain_size) = reprofile.map(|r| r.scanner.domain_size) else {
            return;
        };
        let n = parts.0.len();
        // Pass 1: due chips start draining, respecting the availability
        // floor; chips already out drain for free.
        for i in 0..n {
            let f = self.faults.as_ref().expect("checked above");
            if f.bay.scanning.contains(i) || f.draining.contains(i) {
                continue;
            }
            let due = f.suspect.contains(i) || f.stress_hours[i] >= f.stress_interval_hours;
            if due && (self.out_of_service.contains(i) || self.in_service() > f.min_in_service) {
                self.faults
                    .as_mut()
                    .expect("checked above")
                    .draining
                    .set(i, true);
                self.sync(i);
            }
        }
        // Pass 2: drained chips whose queues emptied start their scans,
        // up to the scanner's domain size in flight.
        let in_situ_scans = self.in_situ.as_ref().map(|s| &s.bay.scanning);
        let f = self.faults.as_mut().expect("checked above");
        let mut may_take = domain_size.saturating_sub(f.bay.scanning.len());
        for i in 0..n {
            if may_take == 0 {
                break;
            }
            if !f.draining.contains(i)
                || !avail.is_idle(i)
                || in_situ_scans.is_some_and(|s| s.contains(i))
            {
                continue;
            }
            let (scanner, grid) = f.rescan.as_ref().expect("re-profiling without a scanner");
            let (duration, _) = f.bay.start((scanner, grid), parts, i);
            f.draining.set(i, false);
            f.chips_rescanned += 1;
            f.rescan_downtime += duration;
            ctx.schedule(now + duration, SiteEv::ReprofileDone { chip: i as u32 });
            may_take -= 1;
        }
    }

    /// The in-situ and fault summaries of the run report.
    pub(super) fn stats(&self) -> (Option<ProfilingStats>, Option<FaultStats>) {
        let profiling = self.in_situ.as_ref().map(|s| ProfilingStats {
            chips_profiled: s.profiled.len(),
            fleet_size: s.profiled.on.len(),
            profiling_energy_kwh: s.bay.energy_j / 3.6e6,
            tests_run: s.tests_run,
        });
        let faults = self.faults.as_ref().map(|f| FaultStats {
            timing_failures: f.timing_failures,
            retries: f.retries,
            failed_jobs: f.failed_jobs,
            suspect_chips: f.suspect.len(),
            chips_rescanned: f.chips_rescanned,
            wasted_kwh: f.wasted_j / 3.6e6,
            rescan_downtime_hours: f.rescan_downtime.as_hours_f64(),
            rescan_energy_kwh: f.bay.energy_j / 3.6e6,
        });
        (profiling, faults)
    }

    /// Checks the restored fault state against the fleet, and each
    /// pending event naming a chip against the state that handles it,
    /// then rebuilds the blocked view.
    pub(super) fn restored(
        &mut self,
        num_levels: usize,
        pending: &[(SimTime, SiteEv)],
    ) -> Result<(), SnapshotError> {
        let n = self.out_of_service.on.len();
        if let Some(f) = &self.faults {
            let lens = [
                ("stress hours", f.stress_hours.len()),
                ("suspect set", f.suspect.on.len()),
                ("draining set", f.draining.on.len()),
                ("scanning set", f.bay.scanning.on.len()),
                ("pending vmin", f.bay.pending_vmin.len()),
            ];
            if let Some((what, len)) = lens.into_iter().find(|&(_, len)| len != n) {
                mismatch!("{what} covers {len} chips, fleet has {n}");
            }
        }
        let mut finishing = ChipSet::new(n);
        for (t, ev) in pending {
            let (chip, rescan) = match *ev {
                SiteEv::ProfilingDone { chip } => (chip, None),
                SiteEv::TimingFailure { chip, .. } => (chip, Some(false)),
                SiteEv::ReprofileDone { chip } => (chip, Some(true)),
                _ => continue,
            };
            let ci = chip as usize;
            let measured =
                |f: &FaultState| f.bay.pending_vmin[ci].as_ref().map(Vec::len) == Some(num_levels);
            let why = match (&self.faults, rescan) {
                (_, None) => "snapshots hold no in-situ scan",
                (None, _) => "the run has no fault injection",
                (Some(_), _) if ci >= n => "it is outside the fleet",
                (Some(f), Some(true))
                    if !f.bay.scanning.contains(ci) || finishing.contains(ci) || !measured(f) =>
                {
                    "it has no re-scan in flight"
                }
                (Some(_), Some(true)) => {
                    finishing.set(ci, true);
                    continue;
                }
                _ => continue,
            };
            mismatch!(
                "pending event at {} names chip {chip}, but {why}",
                t.as_millis()
            );
        }
        self.out_of_service = ChipSet::from_flags((0..n).map(|i| self.holds(i)).collect());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::Service;
    use crate::prelude::*;
    use crate::{FaultInjectionConfig, ReprofileConfig};
    use iscope_scanner::{safe_reprofile_interval_hours, ReprofilePolicy};

    /// A site re-scans a chip after a fixed policy's stress hours, or after
    /// an adaptive fraction of its t = 0 plan's safe interval.
    #[test]
    fn the_site_cadence_follows_the_reprofile_policy() {
        let adaptive = ReprofilePolicy::Adaptive { fraction: 0.5 };
        for policy in [ReprofilePolicy::Fixed { stress_hours: 42.0 }, adaptive] {
            let input = GreenDatacenterSim::builder()
                .fleet_size(24)
                .synthetic_jobs(4)
                .scheme(Scheme::BinEffi)
                .fault_injection(FaultInjectionConfig {
                    reprofile: Some(ReprofileConfig {
                        policy,
                        ..ReprofileConfig::default()
                    }),
                    ..FaultInjectionConfig::default()
                })
                .build()
                .into_input();
            let faults = Service::new(&input, None, 0).faults.expect("fault state");
            let want = match policy {
                ReprofilePolicy::Fixed { stress_hours } => stress_hours,
                ReprofilePolicy::Adaptive { fraction } => {
                    let plan = input.plan.get(&input.fleet, input.seed);
                    let aging = &input.fault_injection.as_ref().expect("faults").model.aging;
                    fraction * safe_reprofile_interval_hours(&input.fleet, plan, aging)
                }
            };
            assert!(want.is_finite() && want > 0.0, "{policy:?}: {want}");
            assert_eq!(faults.stress_interval_hours, want, "{policy:?}");
        }
    }
}
