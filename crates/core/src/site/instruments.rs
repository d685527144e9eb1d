//! The power-trace samplers, the auditor's shadow books and telemetry.
//! They see the rest of the site only through [`Observed`]'s shared
//! references, so enabling one changes no event, draw or ledger bit.

use super::availability::Availability;
use super::demand::Demand;
use super::service::Service;
use super::JobTable;
use crate::report::AuditReport;
use crate::simulation::{AuditConfig, SimInput};
use crate::snapshot::{
    mismatch, optional_section, persist_struct, section, Fields, Persist, Reader, Section,
    SnapshotError, ToVal, Writer,
};
use crate::telemetry::{self, TelemetryRecord, CHANNELS_BEFORE_LEVELS as LEVEL0};
use iscope_dcsim::{RowSampler, Sampler, SimDuration, SimTime, TimeSeries};
use iscope_energy::{CostMeter, CostSplit, EnergyLedger, Supply};
use iscope_pvmodel::{
    microwatts_to_watts, watts_to_microwatts, ChipId, CoolingModel, Fleet, FreqLevel, OperatingPlan,
};
use std::borrow::Cow;

/// The rest of the site as the instruments read it.
pub(super) struct Observed<'a> {
    pub(super) site_id: u32,
    pub(super) jobs: &'a JobTable,
    pub(super) fleet: &'a Fleet,
    pub(super) plan: &'a OperatingPlan,
    pub(super) cooling: &'a CoolingModel,
    pub(super) supply: &'a Supply,
    pub(super) avail: &'a Availability,
    pub(super) demand: &'a Demand,
    pub(super) service: &'a Service,
    pub(super) ledger: &'a EnergyLedger,
    pub(super) costs: &'a CostMeter,
    pub(super) queued_jobs: u64,
    pub(super) deadline_misses: usize,
}

/// The invariant auditor: an independent shadow of the energy books,
/// integrating its own demand snapshot — recomputed at every refresh
/// from its own table of the plan's true chip power, never from the
/// engine's frozen job rows — over the ledger's event intervals.
pub(crate) struct AuditState {
    config: AuditConfig,
    /// `true_w[chip × levels + level]`: the plan's true power (W) of
    /// each chip at each level. Built from the plan at construction and
    /// on restore (it is not saved), and one chip's row is rewritten
    /// whenever a scan changes that chip's plan entry.
    true_w: Vec<f64>,
    /// One job's chip power (W) at each level, summed from `true_w`.
    job_w: Vec<f64>,
    /// The auditor's demand (W) for the interval now opening.
    demand_w: f64,
    wind_j: f64,
    utility_j: f64,
    /// Per-chip busy time (ms) of every running job's chips, exact
    /// against the per-attempt `usage` sums.
    busy_ms: Vec<u64>,
    /// Deadline misses recounted against each job's own deadline.
    deadline_misses: usize,
    intervals: u64,
    demand_checks: u64,
    by_level_scratch: Vec<i64>,
    /// The auditor's own price and carbon integrals.
    costs: CostMeter,
    /// Breaches recorded in detail, and those past the detail cap.
    violations: Vec<String>,
    suppressed: u64,
}

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

/// Cap on recorded violation details, so a broken run cannot balloon.
const MAX_VIOLATION_DETAILS: usize = 16;

impl AuditState {
    fn violation(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATION_DETAILS {
            self.violations.push(msg);
        } else {
            self.suppressed += 1;
        }
    }

    /// The one tolerance check: `audit` must match the engine's `value`
    /// within the configured tolerance relative to `norm` (at least 1).
    /// A breach is recorded as "`what` diverged: `by` value `unit`, …".
    /// Returns the relative residual.
    fn close(&mut self, [what, by, unit]: [&str; 3], value: f64, audit: f64, norm: f64) -> f64 {
        let rel = (audit - value).abs() / norm.abs().max(1.0);
        if rel > self.config.tolerance {
            self.violation(format!(
                "{what} diverged: {by} {value} {unit}, audit {audit} {unit} (rel {rel:e})"
            ));
        }
        rel
    }

    /// Rewrites chip `c`'s row of the true-power table from `plan`.
    fn set_row(&mut self, (fleet, plan): (&Fleet, &OperatingPlan), c: ChipId) {
        let levels = self.job_w.len();
        let row = &mut self.true_w[c.0 as usize * levels..][..levels];
        for (w, l) in row.iter_mut().zip(fleet.dvfs.levels()) {
            *w = plan.true_power(fleet, c, l);
        }
    }

    /// Retakes the auditor's demand snapshot — each running job's chips
    /// summed per level from the true-power table in chip order (the
    /// additions the engine's `power_row` makes), per-level sums from
    /// scratch — and checks the engine's aggregates against it exactly
    /// and its float demand within tolerance.
    fn refresh_snapshot(&mut self, site: &Observed, engine_w: f64) {
        self.by_level_scratch.fill(0);
        let (levels, mut running_uw) = (self.job_w.len(), 0i64);
        for js in site.demand.running().iter().map(|&i| &site.jobs[i]) {
            self.job_w.fill(0.0);
            for &c in &js.chips {
                let row = &self.true_w[c.0 as usize * levels..][..levels];
                for (l, (sum, &w)) in self.job_w.iter_mut().zip(row).enumerate() {
                    debug_assert_eq!(
                        w.to_bits(),
                        site.plan
                            .true_power(site.fleet, c, FreqLevel(l as u8))
                            .to_bits(),
                        "audit true-power table diverged from the plan"
                    );
                    *sum += w;
                }
            }
            for (l, &it) in self.job_w.iter().enumerate() {
                let uw = watts_to_microwatts(site.cooling.facility_power(it));
                self.by_level_scratch[l] += uw;
                if l == js.level.0 as usize {
                    running_uw += uw;
                }
            }
        }
        let (at_level, engine_uw) = site.demand.aggregates();
        for (li, &engine) in at_level.iter().enumerate() {
            let recount = self.by_level_scratch[li];
            if engine != recount {
                self.violation(format!(
                    "demand_uw_at_level[{li}] = {engine} but independent recomputation gives {recount}"
                ));
            }
        }
        if running_uw != engine_uw {
            self.violation(format!(
                "running_demand_uw = {engine_uw} but independent recomputation gives {running_uw}"
            ));
        }
        // Scan draw recounted from the chips under scan.
        let overhead_w = site.service.recount_scan_power((site.fleet, site.cooling));
        let audit_w = microwatts_to_watts(running_uw) + overhead_w;
        self.close(
            ["demand snapshot", "engine", "W"],
            engine_w,
            audit_w,
            engine_w,
        );
        self.demand_w = audit_w;
        self.demand_checks += 1;
    }

    /// Final cross-checks against the closed books; strict mode panics
    /// on any breach.
    fn finish(mut self, site: &Observed, costs: &CostSplit) -> AuditReport {
        let ledger = site.ledger;
        let total = ledger.wind_j + ledger.utility_j;
        let audit_total = self.wind_j + self.utility_j;
        let residual = self.close(["energy total", "ledger", "J"], total, audit_total, total);
        self.close(
            ["wind split", "ledger", "J"],
            ledger.wind_j,
            self.wind_j,
            total,
        );
        self.close(
            ["utility split", "ledger", "J"],
            ledger.utility_j,
            self.utility_j,
            total,
        );
        let mut busy_time_ok = true;
        let busy_ms = std::mem::take(&mut self.busy_ms);
        for (c, (&audit_ms, used)) in busy_ms.iter().zip(site.avail.usage()).enumerate() {
            if audit_ms != used.as_millis() {
                busy_time_ok = false;
                let used = used.as_millis();
                self.violation(format!(
                    "chip {c} busy time diverged: usage {used} ms, audit {audit_ms} ms"
                ));
            }
        }
        let (recorded, recounted) = (site.deadline_misses, self.deadline_misses);
        let deadline_ok = recorded == recounted;
        if !deadline_ok {
            self.violation(format!(
                "deadline ledger diverged: {recorded} recorded, {recounted} recounted"
            ));
        }
        let (usd, gco2) = self.costs.finish();
        self.close(
            ["utility cost", "booked", "USD"],
            costs.utility_usd,
            usd,
            costs.utility_usd,
        );
        self.close(
            ["carbon ledger", "booked", "gCO2"],
            costs.gco2,
            gco2,
            costs.gco2,
        );
        let report = AuditReport {
            intervals: self.intervals,
            demand_checks: self.demand_checks,
            audit_wind_j: self.wind_j,
            audit_utility_j: self.utility_j,
            energy_rel_residual: residual,
            busy_time_ok,
            deadline_ok,
            suppressed_violations: self.suppressed,
            violations: self.violations,
        };
        if self.config.strict && !report.clean() {
            panic!(
                "audit found {} invariant breach(es) ({} suppressed):\n{}",
                report.violations.len(),
                report.suppressed_violations,
                report.violations.join("\n")
            );
        }
        report
    }
}

/// The telemetry recorder's sampler and reusable row. Channels (see
/// [`crate::telemetry`]): supply, demand and utility W, queue depth, jobs
/// per DVFS level, quarantined chips, cumulative gCO2 and USD.
pub(crate) struct TelemetryState {
    sampler: RowSampler,
    row_scratch: Vec<f64>,
}

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
        let (current, rows) = (current.into(), rows.into());
        RowParts {
            interval,
            next_tick,
            current,
            rows,
        }
        .write(w, what)
    }

    fn restore(&mut self, r: &mut Reader<'_>, what: &str) -> Result<(), SnapshotError> {
        let p = RowParts::read(r, what)?;
        if p.interval.is_zero() {
            mismatch!("telemetry interval must be positive");
        }
        // The input built the row buffer at this run's channel count.
        let channels = self.row_scratch.len();
        let rows = std::iter::once(&*p.current).chain(p.rows.iter().map(|(_, row)| &row[..]));
        if let Some(bad) = rows.map(<[f64]>::len).find(|&n| n != channels) {
            mismatch!("telemetry rows have {bad} channels, this run needs {channels}");
        }
        let (current, rows) = (p.current.into_owned(), p.rows.into_owned());
        self.sampler = RowSampler::from_parts(p.interval, p.next_tick, current, rows);
        Ok(())
    }
}

optional_section!(TelemetryState);

/// The observational instruments, each present only when enabled.
pub(crate) struct Instruments {
    /// Demand, wind, utility-draw and wind-draw power traces.
    pub(super) samplers: Option<[Sampler; 4]>,
    pub(super) audit: Option<AuditState>,
    pub(super) telemetry: Option<TelemetryState>,
}

impl Instruments {
    /// `plan` is the one the site runs on.
    pub(super) fn new(input: &SimInput, plan: &OperatingPlan) -> Instruments {
        let (n, levels) = (input.fleet.len(), input.fleet.dvfs.num_levels());
        let wind0 = input.supply.wind_power_at(SimTime::ZERO);
        let samplers = input.trace_interval.map(|iv| {
            let names = ["demand", "wind", "utility_draw", "wind_draw"];
            names.map(|name| Sampler::new(name, iv, if name == "wind" { wind0 } else { 0.0 }))
        });
        let audit = input.audit.map(|config| {
            assert!(config.tolerance > 0.0, "audit tolerance must be positive");
            let mut audit = AuditState {
                config,
                true_w: vec![0.0; n * levels],
                job_w: vec![0.0; levels],
                demand_w: 0.0,
                wind_j: 0.0,
                utility_j: 0.0,
                busy_ms: vec![0; n],
                deadline_misses: 0,
                intervals: 0,
                demand_checks: 0,
                by_level_scratch: vec![0; levels],
                costs: input.supply.cost_meter(),
                violations: Vec::new(),
                suppressed: 0,
            };
            for c in &input.fleet.chips {
                audit.set_row((&input.fleet, plan), c.id);
            }
            audit
        });
        let telemetry = input.telemetry.map(|config| {
            let channels = LEVEL0 + levels + 3;
            let mut sampler = RowSampler::new(config.interval, channels, 0.0);
            // The t = 0 row: the wind budget is live from the start.
            let mut row_scratch = vec![0.0; channels];
            row_scratch[0] = wind0;
            sampler.record(SimTime::ZERO, &row_scratch);
            TelemetryState {
                sampler,
                row_scratch,
            }
        });
        Instruments {
            samplers,
            audit,
            telemetry,
        }
    }

    /// The auditor's shadow integration of `[from, now)` at its own
    /// demand snapshot, with `wind` W available.
    pub(super) fn account(&mut self, site: &Observed, from: SimTime, now: SimTime, wind: f64) {
        let Some(audit) = &mut self.audit else {
            return;
        };
        let interval = now.saturating_since(from);
        let dt = interval.as_secs_f64();
        let covered = audit.demand_w.min(wind);
        audit.wind_j += covered * dt;
        audit.utility_j += (audit.demand_w - covered) * dt;
        let utility_w = audit.demand_w - covered;
        site.supply
            .book_utility(&mut audit.costs, from, now, dt, utility_w);
        audit.intervals += 1;
        // Attempt boundaries are events, so every running job's chips
        // were busy for the whole interval.
        for js in site.demand.running().iter().map(|&i| &site.jobs[i]) {
            for &c in &js.chips {
                audit.busy_ms[c.0 as usize] += interval.as_millis();
            }
        }
    }

    /// Records the values active from `now` — total `demand` and `wind`
    /// W — and retakes the auditor's demand snapshot.
    pub(super) fn refresh(&mut self, site: &Observed, now: SimTime, demand: f64, wind: f64) {
        if let Some(s) = &mut self.samplers {
            s[0].record(now, demand);
            s[1].record(now, wind);
            s[2].record(now, (demand - wind).max(0.0));
            s[3].record(now, demand.min(wind));
        }
        if let Some(audit) = &mut self.audit {
            audit.refresh_snapshot(site, demand);
        }
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let (row, levels) = (&mut tel.row_scratch, site.fleet.dvfs.num_levels());
        row.fill(0.0);
        row[..4].copy_from_slice(&[
            wind,
            demand,
            (demand - wind).max(0.0),
            site.queued_jobs as f64,
        ]);
        for &i in site.demand.running() {
            row[LEVEL0 + site.jobs[i].level.0 as usize] += 1.0;
        }
        row[LEVEL0 + levels] = site.service.suspects() as f64;
        // Cumulative cost and carbon previews (the open segment included,
        // the meters untouched).
        row[LEVEL0 + levels + 1] = site.costs.carbon.preview();
        row[LEVEL0 + levels + 2] = site.costs.price.preview();
        tel.sampler.record(now, row);
    }

    /// A scan changed chip `c`'s plan entry: the auditor's true-power
    /// table follows.
    pub(super) fn plan_updated(&mut self, parts: (&Fleet, &OperatingPlan), c: ChipId) {
        if let Some(audit) = &mut self.audit {
            audit.set_row(parts, c);
        }
    }

    /// The auditor's deadline recount: a job finished late or was
    /// abandoned.
    pub(super) fn missed_deadline(&mut self) {
        if let Some(audit) = &mut self.audit {
            audit.deadline_misses += 1;
        }
    }

    /// Flushes the samplers and the recorder at `end` and runs the
    /// auditor's end-of-run checks: the power series, the telemetry
    /// records and the audit report.
    pub(super) fn finish(
        &mut self,
        site: &Observed,
        end: SimTime,
        costs: &CostSplit,
    ) -> (
        Vec<TimeSeries>,
        Option<Vec<TelemetryRecord>>,
        Option<AuditReport>,
    ) {
        let (levels, site_id) = (site.fleet.dvfs.num_levels(), site.site_id as u64);
        let record =
            |(at, row): (SimTime, Vec<f64>)| telemetry::record_from_row(at, &row, levels, site_id);
        let telemetry = self.telemetry.take();
        let telemetry = telemetry.map(|t| t.sampler.finish(end).into_iter().map(record).collect());
        let series = self
            .samplers
            .take()
            .into_iter()
            .flatten()
            .map(|s| s.finish(end));
        let audit = self.audit.take().map(|a| a.finish(site, costs));
        (series.collect(), telemetry, audit)
    }

    /// Checks the restored shadow books against the fleet and rebuilds
    /// the true-power table from the restored plan.
    pub(super) fn restored(
        &mut self,
        parts: (&Fleet, &OperatingPlan),
    ) -> Result<(), SnapshotError> {
        let Some(audit) = &mut self.audit else {
            return Ok(());
        };
        let (n, fleet_len) = (audit.busy_ms.len(), parts.0.len());
        if n != fleet_len {
            mismatch!("audit busy time covers {n} chips, fleet has {fleet_len}");
        }
        for c in &parts.0.chips {
            audit.set_row(parts, c.id);
        }
        Ok(())
    }
}
