//! Checkpoint / restore (DESIGN.md §3g). A snapshot serializes the
//! *mutable* simulation state; whatever is a pure function of the run
//! inputs is rebuilt by `SiteState::new` and cross-checked against the
//! header. Each field is declared once, in a `section!` or
//! `persist_struct!` list — the components' in their own modules, the
//! document's below, naming component fields by path — and capture and
//! restore both expand from it. Derived caches are not serialized: each
//! component rebuilds its own from the restored ground truth.

use super::service::ChipSet;
use super::{JobState, JobTable, Phase, SiteEv, SiteState};
use crate::simulation::SimInput;
use crate::snapshot::{
    self, mismatch, persist_struct, section, Doc, DocWriter, Fields, Persist, Reader, Section,
    SnapshotError, ToVal, Writer, SNAPSHOT_VERSION,
};
use iscope_dcsim::{SimDuration, SimTime};
use iscope_energy::Supply;
use iscope_pvmodel::{ChipId, FreqLevel, OperatingPlan};
use iscope_sched::{CarbonConfig, Profiling, Scheme};
use iscope_workload::{Job, JobId, Urgency};
use std::borrow::Cow;

/// Header key of the format version. Read before anything else, so a
/// document of another version is refused before its layout is parsed.
const VERSION_KEY: &str = "version";

/// Sections outside the site's field list: the header first, then the
/// pending events; the trace identities close the document.
const HEADER: &str = "header";
const EVENTS: &str = "events";
const TRACES: &str = "traces";
/// Section keys, as the document list below spells them.
const PLAN: &str = "plan";
const FAULTS: &str = "faults";
/// The key a `faults` object opens with from [`SAFE_HOURS_SINCE`] on:
/// the t = 0 plan's safe re-profile interval in hours, `null` unless the
/// cadence is adaptive.
const SAFE_HOURS: &str = "safe_reprofile_hours";
const SAFE_HOURS_SINCE: i64 = 3;
/// The key a `plan` object opens with from [`BUILT_PLAN_SINCE`] on when
/// the input built the plan up front; a scanned plan's opens with
/// `voltages`.
const DIGEST: &str = "digest";
const BUILT_PLAN_SINCE: i64 = 4;

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
    ("has_faults", |s| s.service.has_faults(), |i| i.fault_injection.is_some()),
    ("has_audit", |s| s.instruments.audit.is_some(), |i| i.audit.is_some()),
    ("has_telemetry", |s| s.instruments.telemetry.is_some(), |i| i.telemetry.is_some()),
    ("has_samplers", |s| s.instruments.samplers.is_some(), |i| i.trace_interval.is_some()),
    ("has_carbon", |s| s.deferral.carbon.is_some(), |i| i.carbon.as_ref().is_some_and(CarbonConfig::active)),
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
            if snap.is_some() != live.is_some() {
                mismatch!("snapshot {what} trace presence differs from input");
            }
            if snap != live {
                mismatch!("snapshot was taken under a different {what} trace");
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
                r.item(what, "[tag, args...]")?;
                let tag = r.str("event tag")?;
                let ev = match &*tag {
                    $($tag => SiteEv::$var
                        $(($({ r.item($tag, ARITY)?; let $t = Persist::read(r, $tag)?; $t }),*))?
                        $({$($f: { r.item($tag, ARITY)?; Persist::read(r, $tag)? }),*})?,)*
                    other => {
                        return Err(SnapshotError::Parse(format!("unknown event tag {other:?}")))
                    }
                };
                r.last_item(&tag, ARITY)?;
                Ok(ev)
            }
        }
    };
}

/// What an event body with the wrong argument count is told.
const ARITY: &str = "an event with its tag's arguments";

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
            mismatch!("{what} {gamma} is outside [0, 1]");
        }
        Ok(Self::new(gamma))
    }
}

/// Declares the positional job record once: the [`Job`] fields, then the
/// [`JobState`] fields, in record order. Positional keeps the document
/// compact: live jobs' records are most of the jobs section, which is
/// most of a snapshot. A retired job has no record (`save_jobs`).
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
                const SHAPE: &str = "a job record of every field";
                r.open_arr(what)?;
                let js = JobState {
                    job: Job {
                        $($g: { r.item(what, SHAPE)?; Persist::read(r, stringify!($g))? },)*
                    },
                    $($f: { r.item(what, SHAPE)?; Persist::read(r, stringify!($f))? },)*
                };
                r.last_item(what, SHAPE)?;
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
pub(super) fn check_job(
    js: &JobState,
    fleet_len: usize,
    num_levels: usize,
) -> Result<(), SnapshotError> {
    if let Some(bad) = js.chips.iter().find(|c| c.0 as usize >= fleet_len) {
        mismatch!("job chip {} out of range (fleet {fleet_len})", bad.0);
    }
    if !js.chips.is_empty() && js.chips.len() != js.job.cpus as usize {
        mismatch!(
            "job {} holds {} chips for {} CPUs",
            js.job.id.0,
            js.chips.len(),
            js.job.cpus
        );
    }
    if js.level.0 as usize >= num_levels {
        mismatch!(
            "job level {} out of range ({num_levels} levels)",
            js.level.0
        );
    }
    Ok(())
}

/// Refuses `holder`'s reference to job `i` unless it names a live row:
/// queues, the running set, the deferred list and pending arrivals and
/// retries never hold a retired job.
pub(super) fn check_live(jobs: &JobTable, holder: &str, i: usize) -> Result<(), SnapshotError> {
    match jobs.get(i) {
        Some(_) => Ok(()),
        None if i >= jobs.admitted() => {
            mismatch!("{holder} names job {i}, table has {}", jobs.admitted())
        }
        None => mismatch!("{holder} names job {i}, which has finished"),
    }
}

/// The job table, one array entry per admitted job: a live job's record,
/// or `null` for a retired one, so the section's size follows the live
/// set rather than the run's history.
fn save_jobs(s: &SiteState, w: &mut Writer) -> Result<(), SnapshotError> {
    w.open_arr();
    for row in (0..s.jobs.admitted()).map(|i| s.jobs.get(i)) {
        match row {
            None => w.null(),
            Some(js) => js.write(w, "jobs")?,
        }
    }
    w.close_arr();
    Ok(())
}

/// Reads the job table back, checking each record against the fleet. A
/// `null` restores as a retired slot; a v1 document's `"done"` record is
/// checked like any other, then retired too.
fn restore_jobs(s: &mut SiteState, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
    let (fleet_len, num_levels) = (s.fleet.len(), s.fleet.dvfs.num_levels());
    r.open_arr("jobs")?;
    while r.next_item()? {
        let row = Option::<JobState>::read(r, "jobs")?;
        if let Some(js) = &row {
            check_job(js, fleet_len, num_levels)?;
        }
        s.jobs.push(row.filter(|js| js.phase != Phase::Done));
    }
    Ok(())
}

/// A scanned plan's rows, saved whole: one row pair per chip (they carry
/// re-profile refreshes). Capture borrows them from the live plan.
struct PlanRows<'a> {
    voltages: Cow<'a, [Vec<f64>]>,
    est_power: Cow<'a, [Vec<f64>]>,
}

persist_struct!(PlanRows<'_> {
    "voltages" => voltages,
    "est_power" => est_power,
});

/// A plan built up front, saved from [`BUILT_PLAN_SINCE`] on as the digest
/// of its t = 0 rows, then the chips a re-scan has replaced since, in
/// ascending order, and their rows.
struct ReplacedRows<'a> {
    digest: u64,
    replaced: Vec<usize>,
    voltages: Vec<Cow<'a, [f64]>>,
    est_power: Vec<Cow<'a, [f64]>>,
}

persist_struct!(ReplacedRows<'_> {
    "digest" => digest,
    "replaced" => replaced,
    "voltages" => voltages,
    "est_power" => est_power,
});

/// FNV-1a over a plan's rows, voltages then estimates, one 64-bit word
/// per value: equal digests mean bit-equal rows, short of a collision.
fn rows_digest(plan: &OperatingPlan) -> u64 {
    let (voltages, est_power) = plan.rows();
    let words = voltages
        .iter()
        .chain(est_power)
        .flatten()
        .map(|v| v.to_bits());
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A plan the input built up front: the digest of its t = 0 rows, taken
/// once per site, and the chips whose rows a re-scan has replaced since.
pub(crate) struct BuiltPlan {
    digest: u64,
    pub(super) replaced: ChipSet,
}

impl BuiltPlan {
    /// `plan` as built, no row replaced.
    pub(super) fn new(plan: &OperatingPlan) -> BuiltPlan {
        BuiltPlan {
            digest: rows_digest(plan),
            replaced: ChipSet::new(plan.len()),
        }
    }

    /// `t0` with every chip whose rows in `plan` differ from it in any bit
    /// counted as replaced.
    fn differing(t0: &OperatingPlan, plan: &OperatingPlan) -> BuiltPlan {
        fn same(a: &[f64], b: &[f64]) -> bool {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|y| y.to_bits()))
        }
        let mut built = BuiltPlan::new(t0);
        let ((v, p), (v0, p0)) = (plan.rows(), t0.rows());
        for c in 0..t0.len() {
            built
                .replaced
                .set(c, !(same(&v[c], &v0[c]) && same(&p[c], &p0[c])));
        }
        built
    }
}

/// Writes the plan: a built plan's digest and replaced rows, or a scanned
/// plan's every row. [`read_plan`] reads either back.
fn save_plan(s: &SiteState, w: &mut Writer) -> Result<(), SnapshotError> {
    let (voltages, est_power) = s.plan.rows();
    let Some(built) = &s.built_plan else {
        let rows = PlanRows {
            voltages: voltages.into(),
            est_power: est_power.into(),
        };
        return rows.write(w, PLAN);
    };
    let replaced: Vec<usize> = built.replaced.iter().collect();
    let rows = ReplacedRows {
        digest: built.digest,
        voltages: replaced
            .iter()
            .map(|&c| voltages[c].as_slice().into())
            .collect(),
        est_power: replaced
            .iter()
            .map(|&c| est_power[c].as_slice().into())
            .collect(),
        replaced,
    };
    rows.write(w, PLAN)
}

/// Refuses plan rows that are not `count` rows of one entry per DVFS
/// level; `chip` names the chip of each row in the message.
fn check_rows<R: AsRef<[f64]>>(
    rows_of: &str,
    rows: &[R],
    (count, levels): (usize, usize),
    chip: impl Fn(usize) -> usize,
) -> Result<(), SnapshotError> {
    if rows.len() != count {
        mismatch!("plan {rows_of} hold {} rows for {count} chips", rows.len());
    }
    if let Some(i) = rows.iter().position(|row| row.as_ref().len() != levels) {
        mismatch!(
            "plan {rows_of} for chip {} has {} levels, expected {levels}",
            chip(i),
            rows[i].as_ref().len()
        );
    }
    Ok(())
}

/// `t0` with the saved rows of the chips a re-scan replaced laid over it,
/// and the set of those chips.
fn overlay(
    t0: &OperatingPlan,
    rows: ReplacedRows<'_>,
    (chips, levels): (usize, usize),
) -> Result<(OperatingPlan, ChipSet), SnapshotError> {
    let replaced = &rows.replaced;
    if let Some(&c) = replaced.iter().find(|&&c| c >= chips) {
        mismatch!("plan replaced chip {c} out of range (fleet {chips})");
    }
    if let Some(w) = replaced.windows(2).find(|w| w[0] >= w[1]) {
        mismatch!("plan replaced chips {} then {}, not ascending", w[0], w[1]);
    }
    let shape = (replaced.len(), levels);
    check_rows("voltages", &rows.voltages, shape, |i| replaced[i])?;
    check_rows("est_power", &rows.est_power, shape, |i| replaced[i])?;
    let (voltages, est_power) = t0.rows();
    let (mut voltages, mut est_power) = (voltages.to_vec(), est_power.to_vec());
    let mut set = ChipSet::new(chips);
    let saved = rows.voltages.into_iter().zip(rows.est_power);
    for (c, (v, p)) in rows.replaced.into_iter().zip(saved) {
        voltages[c] = v.into_owned();
        est_power[c] = p.into_owned();
        set.set(c, true);
    }
    Ok((OperatingPlan::from_rows(voltages, est_power), set))
}

/// Reads the plan section, which a restore builds the site from, with the
/// [`BuiltPlan`] its captures save against when `input` built its plan up
/// front.
///
/// A plan saved whole must cover the input's fleet. Where the input built
/// a plan, the rows that differ from it count as replaced; this is how
/// version 1 to 3 documents resume. A built plan's replaced rows overlay
/// the input's built plan or, on a fork whose input would scan, the
/// snapshot scheme's bin plan rebuilt on the input's fleet, which needs no
/// scan. Either must match the saved digest, so a fork onto another fleet
/// is refused rather than run on the old fleet's rows.
fn read_plan(
    doc: &Doc<'_>,
    input: &SimInput,
    scheme: &str,
    (version, fork): (i64, bool),
) -> Result<(OperatingPlan, Option<BuiltPlan>), SnapshotError> {
    let shape = (input.fleet.len(), input.fleet.dvfs.num_levels());
    let input_built = input.plan.built();
    let has_digest = doc.head(PLAN, |r| {
        r.open_obj(PLAN)?;
        Ok(r.next_key()?.as_deref() == Some(DIGEST))
    })?;
    if !has_digest {
        let rows = doc.entry(PLAN, |r| PlanRows::read(r, PLAN))?;
        check_rows("voltages", &rows.voltages, shape, |i| i)?;
        check_rows("est_power", &rows.est_power, shape, |i| i)?;
        let (voltages, est_power) = (rows.voltages.into_owned(), rows.est_power.into_owned());
        let plan = OperatingPlan::from_rows(voltages, est_power);
        let built = input_built.map(|t0| BuiltPlan::differing(t0, &plan));
        return Ok((plan, built));
    }
    if version < BUILT_PLAN_SINCE {
        mismatch!("a version {version} document holds a plan digest");
    }
    let rows = doc.entry(PLAN, |r| ReplacedRows::read(r, PLAN))?;
    let rebuilt;
    let t0 = match input_built {
        Some(t0) => t0,
        None if fork => {
            let bin = Scheme::ALL.into_iter().find(|s| s.name() == scheme);
            let Some(bin) = bin.filter(|s| s.profiling() == Profiling::Bin) else {
                mismatch!(
                    "snapshot plan was built up front, {scheme:?} has no bin plan to rebuild"
                );
            };
            rebuilt = bin.build_plan(&input.fleet, input.seed);
            &rebuilt
        }
        None => mismatch!("snapshot plan was built up front, the input's plan is a fleet scan"),
    };
    let digest = rows_digest(t0);
    if rows.digest != digest {
        mismatch!(
            "snapshot plan digest {:#018x} differs from the input's built plan {digest:#018x}",
            rows.digest
        );
    }
    let (plan, replaced) = overlay(t0, rows, shape)?;
    Ok((plan, input_built.map(|_| BuiltPlan { digest, replaced })))
}

/// Writes the `faults` section: `null` without fault injection, else the
/// fault state, opened by the safe re-profile interval.
fn save_faults(s: &SiteState, w: &mut Writer) -> Result<(), SnapshotError> {
    let Some(f) = &s.service.faults else {
        w.null();
        return Ok(());
    };
    w.obj(|w| {
        w.entry(SAFE_HOURS, |w| f.saved_safe_hours().write(w, SAFE_HOURS))?;
        f.save_fields(w)
    })
}

/// Reads the safe re-profile interval before the site is built: `None`
/// for a document older than [`SAFE_HOURS_SINCE`], a fault-free run or a
/// saved `null`, and a checked error for a value that is not positive.
fn read_safe_hours(doc: &Doc<'_>, version: i64) -> Result<Option<f64>, SnapshotError> {
    if version < SAFE_HOURS_SINCE {
        return Ok(None);
    }
    doc.head(FAULTS, |r| {
        if r.null() {
            return Ok(None);
        }
        r.open_obj(FAULTS)?;
        let hours = r.entry(SAFE_HOURS, |r| Option::<f64>::read(r, SAFE_HOURS))?;
        match hours {
            Some(h) if h <= 0.0 => mismatch!("safe re-profile interval {h} h is not positive"),
            _ => Ok(hours),
        }
    })
}

/// Restores the `faults` section into the fault state the input built.
/// Its safe re-profile interval, read by [`read_safe_hours`], is passed
/// over: the site's cadence already came from it or from the input.
fn restore_faults(s: &mut SiteState, doc: &Doc<'_>, version: i64) -> Result<(), SnapshotError> {
    doc.entry(FAULTS, |r| match &mut s.service.faults {
        None => r.expect_null(FAULTS),
        Some(f) => r.obj(FAULTS, |r| {
            if version >= SAFE_HOURS_SINCE {
                r.entry(SAFE_HOURS, |r| Option::<f64>::read(r, SAFE_HOURS))?;
            }
            f.restore_fields(r)
        }),
    })
}

/// Per-core Min Vdd drifts only under fault injection (the aging model);
/// a fault-free fleet is its input fleet, so its wear section is `null`.
fn save_wear(s: &SiteState, w: &mut Writer) -> Result<(), SnapshotError> {
    let chips = s.fleet.chips.iter();
    let vmin = chips.map(|c| c.cores.iter().map(|k| &k.vmin).collect::<Vec<_>>());
    let wear = s.service.has_faults().then(|| vmin.collect::<Vec<_>>());
    wear.write(w, "core vmin")
}

fn restore_wear(s: &mut SiteState, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
    let Some(wear) = Option::<Vec<Vec<Vec<f64>>>>::read(r, "wear")? else {
        return Ok(());
    };
    let fleet_len = s.fleet.len();
    if wear.len() != fleet_len {
        mismatch!("wear covers {} chips, fleet has {fleet_len}", wear.len());
    }
    for (ci, (chip, cores)) in s.fleet.chips.iter_mut().zip(wear).enumerate() {
        if cores.len() != chip.cores.len() {
            mismatch!(
                "wear for chip {ci} covers {} cores, chip has {}",
                cores.len(),
                chip.cores.len()
            );
        }
        for (k, (core, vmin)) in chip.cores.iter_mut().zip(cores).enumerate() {
            if vmin.len() != core.vmin.len() {
                mismatch!(
                    "vmin for chip {ci} core {k} has {} levels, expected {}",
                    vmin.len(),
                    core.vmin.len()
                );
            }
            core.vmin = vmin;
        }
    }
    Ok(())
}

// The site's snapshot document: every section after the header and the
// pending events, in document order.
section!(document SiteState, |s| {
    "site" => {
        "expect_more" => s.expect_more,
        "migrated_out" => s.migrated_out,
        "done_count" => s.done_count,
        "deadline_misses" => s.deadline_misses,
        "last_account_ms" => s.last_account,
        "current_demand_w" => s.demand.current_demand_w,
        "makespan_ms" => s.makespan,
        "placements" => s.placements,
        "queued_jobs" => s.queued_jobs,
        // Rebuilt like the other derived caches; the stored count is
        // cross-checked against the restored queues.
        "busy_queues" => s.avail.busy_queues,
        "avail_dirty" => s.avail.avail_dirty,
        "rng" => s.rng,
    },
    "jobs" => [save_jobs, restore_jobs],
    "queues" => s.avail.queues,
    "usage" => s.avail.usage,
    "avail" => s.avail.avail,
    "running" => s.demand.running,
    "running_at_level" => s.demand.running_at_level,
    "deferred" => s.deferral.deferred,
    "ledger" => s.ledger,
    "samplers" => s.instruments.samplers,
    // Read by `restore_from` before it builds the site.
    "plan" => [save_plan],
    "wear" => [save_wear, restore_wear],
    // Restored by `restore_from`, whose reads depend on the version.
    "faults" => [save_faults],
    "audit" => s.instruments.audit,
    "telemetry" => s.instruments.telemetry,
    "costs" => s.costs,
    "carbon" => s.deferral.carbon,
    "battery" => s.battery,
});

/// No snapshot version has a section for in-situ profiling state or
/// per-core operating plans, so a run with either is neither captured nor
/// restored into.
fn check_supported(in_situ: bool, per_core: bool) -> Result<(), SnapshotError> {
    let refused = [
        (in_situ, "in-situ profiling state"),
        (per_core, "a per-core plan"),
    ];
    match refused.into_iter().find(|&(on, _)| on) {
        Some((_, what)) => Err(SnapshotError::Unsupported(format!(
            "snapshots cannot hold {what}"
        ))),
        None => Ok(()),
    }
}

/// What a restored site is built from in place of its input: the
/// snapshot's plan with what its captures save against, and on a resume
/// the safe re-profile interval it saved.
pub(crate) struct Restored {
    pub(super) plan: OperatingPlan,
    pub(super) built_plan: Option<BuiltPlan>,
    pub(super) safe_reprofile_hours: Option<f64>,
}

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
    /// driver, `now`/`steps`/`pending` from the engine.
    pub(crate) fn capture(
        &self,
        seed: u64,
        now: SimTime,
        steps: u64,
        pending: &[(SimTime, SiteEv)],
    ) -> Result<String, SnapshotError> {
        check_supported(self.service.has_in_situ(), self.plan.is_per_core())?;
        let header = Header {
            scheme: self.scheme_name.clone(),
            seed,
            site_id: self.site_id,
            now,
            steps,
            admitted: self.jobs.admitted(),
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

    /// Rebuilds a site mid-run from a snapshot document, with the
    /// [`ResumePoint`] the driver re-primes the engine from. A resume
    /// (`fork = false`) must match the input's scheme and seed and runs
    /// on bit-identically; a fork takes scheme name, placement, supply
    /// and knobs from the input and the simulation state from the
    /// snapshot. Either way the site runs on the snapshot's plan: saved
    /// whole, or a built plan's replaced rows laid over the input's
    /// built plan, or on a fork whose input would scan, over the snapshot
    /// scheme's bin plan rebuilt on the input's fleet ([`read_plan`]). A
    /// built plan whose digest differs from the plan it would overlay —
    /// a fork onto another seed's fleet, another hand-built plan — is a
    /// [`SnapshotError::Mismatch`]. A resume takes an adaptive re-profile
    /// cadence from the saved safe interval, and a fork from its input's
    /// t = 0 plan, so the input's deferred scan runs only for a fork
    /// under that cadence, or for a document that saved no interval
    /// (version 2 and older, or a `null`). Fleet shape and the instrument
    /// set must match either way.
    pub(crate) fn restore_from(
        input: SimInput,
        site_id: u32,
        text: &str,
        fork: bool,
    ) -> Result<(SiteState, ResumePoint), SnapshotError> {
        check_supported(input.in_situ.is_some(), input.plan.is_per_core())?;
        let doc = snapshot::decode_lines(text)?;
        let (version, header, presence) = doc.entry(HEADER, |r| {
            r.obj(HEADER, |r| {
                let version = r.entry(VERSION_KEY, |r| i64::read(r, "snapshot version"))?;
                // v1 writes finished jobs as `"done"` records, which
                // `restore_jobs` also reads; v1 and v2 save no safe
                // re-profile interval; v1 to v3 save every plan row.
                if !(1..=SNAPSHOT_VERSION).contains(&version) {
                    mismatch!(
                        "snapshot version {version} (this build reads 1 to {SNAPSHOT_VERSION})"
                    );
                }
                let mut header = Header::default();
                header.restore_fields(r)?;
                let mut presence = [false; PRESENCE.len()];
                for ((key, ..), got) in PRESENCE.iter().zip(&mut presence) {
                    *got = r.entry(key, |r| bool::read(r, key))?;
                }
                Ok((version, header, presence))
            })
        })?;
        if !fork && header.scheme != input.scheme_name {
            mismatch!(
                "snapshot was taken under scheme {:?}, input is {:?} (use fork to branch)",
                header.scheme,
                input.scheme_name
            );
        }
        if !fork && header.seed != input.seed {
            mismatch!(
                "snapshot was taken with seed {}, input has {} (use fork to branch)",
                header.seed,
                input.seed
            );
        }
        let fleet_len = input.fleet.len();
        if header.fleet_len != fleet_len {
            mismatch!(
                "snapshot fleet has {} chips, input has {fleet_len}",
                header.fleet_len
            );
        }
        let num_levels = input.fleet.dvfs.num_levels();
        if header.num_levels != num_levels {
            mismatch!(
                "snapshot has {} DVFS levels, input has {num_levels}",
                header.num_levels
            );
        }
        for ((key, _, wanted), got) in PRESENCE.iter().zip(presence) {
            let want = wanted(&input);
            if got != want {
                mismatch!("snapshot {key} = {got}, input has {want}");
            }
        }
        if !fork {
            doc.entry(TRACES, |r| Traces::read(r, TRACES))?
                .check(&Traces::of(&input.supply))?;
        }
        let pending: Vec<(SimTime, SiteEv)> = doc.entry(EVENTS, |r| Persist::read(r, EVENTS))?;
        let (plan, built_plan) = read_plan(&doc, &input, &header.scheme, (version, fork))?;
        let safe_hours = read_safe_hours(&doc, version)?;
        let restored = Restored {
            plan,
            built_plan,
            safe_reprofile_hours: safe_hours.filter(|_| !fork),
        };

        let mut site = SiteState::new(input, Some(restored), site_id, 0);
        site.restore_document(&doc)?;
        restore_faults(&mut site, &doc, version)?;
        site.restored(header.now, &pending, header.admitted)?;
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

    /// Checks restored state against the fleet, the job table and the
    /// header's `admitted` count — the site's own share here, then each
    /// component's, which also rebuilds the caches a snapshot does not
    /// carry. A snapshot is outside input, so every index and length is a
    /// checked error, never a panic.
    fn restored(
        &mut self,
        now: SimTime,
        pending: &[(SimTime, SiteEv)],
        admitted: usize,
    ) -> Result<(), SnapshotError> {
        let num_levels = self.fleet.dvfs.num_levels();
        let num_jobs = self.jobs.admitted();
        for (t, ev) in pending {
            let (at, clock) = (t.as_millis(), now.as_millis());
            if at < clock {
                mismatch!("pending event at {at} precedes the snapshot clock {clock}");
            }
            // Stale completions and timing failures may name a retired
            // job (their handlers skip it); retries, and the queued
            // arrivals of documents that admitted a whole workload up
            // front, only ever name waiting ones.
            use SiteEv::{Arrival, Completion, Retry, TimingFailure};
            match *ev {
                Arrival(i) => check_live(&self.jobs, "a pending arrival", i)?,
                Retry { job: i } => check_live(&self.jobs, "a pending retry", i)?,
                Completion { job: i, .. } | TimingFailure { job: i, .. } if i >= num_jobs => {
                    mismatch!("pending event at {at} targets job {i}, table has {num_jobs}");
                }
                _ => {}
            }
        }
        self.instruments.restored((&self.fleet, &self.plan))?;
        self.deferral.check_restored(&self.jobs)?;
        self.service.restored(num_levels, pending)?;
        self.avail.restored(&self.jobs, self.plan.ranking())?;
        let heads = |i, js: &JobState| self.avail.heads(i, &js.chips);
        self.demand.restored(&self.jobs, num_levels, heads)?;
        if admitted != num_jobs {
            mismatch!("header admitted {admitted} jobs, the job table has {num_jobs}");
        }
        let finished = num_jobs - self.jobs.iter().count();
        if self.done_count != finished {
            mismatch!(
                "done_count {} disagrees with the job table's {finished} finished jobs",
                self.done_count
            );
        }
        Ok(())
    }
}
