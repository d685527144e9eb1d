//! Checkpoint/restore substrate: a hand-rolled JSON value codec and the
//! JSONL snapshot document format (DESIGN.md §3g).
//!
//! A snapshot captures one site's complete mutable simulation state —
//! pending events, RNG streams, job table, queues, ledgers, fault and
//! quarantine machinery, sampler cursors — so a run can be stopped,
//! serialized, and resumed **bit-identically**: the resumed run's report
//! and telemetry bytes match an uninterrupted run of the same input.
//!
//! This is the workspace's one JSON codec: a small value tree ([`Val`])
//! with [`render`] and [`parse`], shared by snapshots, the telemetry
//! JSONL, and every artifact the experiment harness writes (`results/`,
//! `BENCH_sim.json`), whose types derive [`ToVal`] from field lists
//! ([`to_val!`](crate::to_val)). Floats are written with `Display`'s
//! shortest-round-trip decimal form, which parses back to the identical
//! bits — encode → decode → encode is byte-stable, and the property tests
//! below pin that.
//!
//! Document layout: one JSON object per line, `{"section":"<name>",
//! "data":<value>}`. The first section is always `header` (version,
//! scheme, seed, clock, step and admission counters); the remaining
//! sections follow the field lists in `site.rs`, which own the
//! field-level schema. Each field is declared once, in a `section!` or
//! `persist_struct!` list built on the `Persist` / `Section` traits
//! below; `SiteState::capture` and `SiteState::restore_from` both expand
//! from those lists. Section order is fixed, so equal states produce
//! equal bytes.

use iscope_dcsim::{RngSnapshot, Sampler, SimDuration, SimRng, SimTime, TimeSeries};
use iscope_energy::{BatteryState, CostMeter, EnergyLedger, SignalMeter};
use iscope_scanner::{CampaignEstimate, ProfilingCost, WindowReport};
use iscope_workload::WorkloadStats;
use rayon::PoolStats;
use std::collections::VecDeque;
use std::fmt;

/// Current snapshot document version. Bumped on any schema change; the
/// decoder rejects versions it does not know.
pub const SNAPSHOT_VERSION: i64 = 1;

/// Why a snapshot could not be taken, parsed, or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The live state uses a feature the v1 format does not carry (in-situ
    /// profiling records, per-core operating plans).
    Unsupported(String),
    /// The document is not valid snapshot JSONL.
    Parse(String),
    /// The document is well-formed but inconsistent with the inputs it is
    /// being restored against (wrong seed, fleet shape, counters out of
    /// range, packed-key overflow).
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported(m) => write!(f, "snapshot unsupported: {m}"),
            SnapshotError::Parse(m) => write!(f, "snapshot parse error: {m}"),
            SnapshotError::Mismatch(m) => write!(f, "snapshot mismatch: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<iscope_sched::KeyRangeError> for SnapshotError {
    fn from(e: iscope_sched::KeyRangeError) -> Self {
        SnapshotError::Mismatch(e.to_string())
    }
}

/// A JSON value. Integers and floats are kept apart so integer state
/// (times in ms, counters, fixed-point µW) round-trips exactly without
/// passing through f64.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent in its rendered form.
    Int(i128),
    /// A finite floating-point number (non-finite values are rejected at
    /// construction — JSON cannot carry them).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object with preserved key order (render order is authoring
    /// order, so equal trees render to equal bytes).
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Wraps a float, rejecting non-finite values at the boundary.
    pub(crate) fn float(v: f64, what: &str) -> Result<Val, SnapshotError> {
        if !v.is_finite() {
            return Err(SnapshotError::Unsupported(format!(
                "{what} is {v} (non-finite floats cannot be serialized)"
            )));
        }
        Ok(Val::Float(v))
    }

    fn kind(&self) -> &'static str {
        match self {
            Val::Null => "null",
            Val::Bool(_) => "bool",
            Val::Int(_) => "int",
            Val::Float(_) => "float",
            Val::Str(_) => "string",
            Val::Arr(_) => "array",
            Val::Obj(_) => "object",
        }
    }

    /// Looks up `key` in an object, with a path-carrying error.
    pub fn get(&self, key: &str) -> Result<&Val, SnapshotError> {
        self.opt(key)
            .ok_or_else(|| SnapshotError::Parse(format!("missing key {key:?}")))
    }

    /// Looks up `key` in an object, `None` when absent (or not an object).
    pub(crate) fn opt(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_int(&self, what: &str) -> Result<i128, SnapshotError> {
        match self {
            Val::Int(v) => Ok(*v),
            other => Err(type_err(what, "int", other)),
        }
    }

    pub(crate) fn as_i64(&self, what: &str) -> Result<i64, SnapshotError> {
        i64::try_from(self.as_int(what)?)
            .map_err(|_| SnapshotError::Mismatch(format!("{what} out of i64 range")))
    }

    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, SnapshotError> {
        u64::try_from(self.as_int(what)?)
            .map_err(|_| SnapshotError::Mismatch(format!("{what} out of u64 range")))
    }

    pub(crate) fn as_f64(&self, what: &str) -> Result<f64, SnapshotError> {
        match self {
            Val::Float(v) => Ok(*v),
            other => Err(type_err(what, "float", other)),
        }
    }

    pub(crate) fn as_bool(&self, what: &str) -> Result<bool, SnapshotError> {
        match self {
            Val::Bool(v) => Ok(*v),
            other => Err(type_err(what, "bool", other)),
        }
    }

    pub(crate) fn as_str(&self, what: &str) -> Result<&str, SnapshotError> {
        match self {
            Val::Str(s) => Ok(s),
            other => Err(type_err(what, "string", other)),
        }
    }

    pub(crate) fn as_arr(&self, what: &str) -> Result<&[Val], SnapshotError> {
        match self {
            Val::Arr(items) => Ok(items),
            other => Err(type_err(what, "array", other)),
        }
    }

    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Val::Null)
    }

    /// The key/value pairs of an object built by a field list.
    pub(crate) fn into_fields(self) -> Vec<(String, Val)> {
        match self {
            Val::Obj(fields) => fields,
            other => unreachable!("field lists build objects, not {}", other.kind()),
        }
    }
}

fn type_err(what: &str, want: &str, got: &Val) -> SnapshotError {
    SnapshotError::Parse(format!("{what}: expected {want}, found {}", got.kind()))
}

// ---------------------------------------------------------------------------
// Field-list persistence
//
// Every serialized field is declared exactly once, in a `"key" => field`
// list (`section!` / `persist_struct!`); capture and restore both expand
// from that list, so the two directions cannot drift apart.
// ---------------------------------------------------------------------------

/// A value that renders to a [`Val`]: snapshot state and result
/// artifacts alike.
pub trait ToVal {
    /// The value as a JSON tree. `what` labels errors (it is the field's
    /// key); a non-finite float is an error naming it.
    fn to_val(&self, what: &str) -> Result<Val, SnapshotError>;
}

/// A [`ToVal`] value that also loads back: leaf types and containers of
/// them.
pub(crate) trait Persist: ToVal + Sized {
    fn load(v: &Val, what: &str) -> Result<Self, SnapshotError>;
}

/// State restored *in place*: a component rebuilt from the run input
/// whose snapshot fields are then overwritten, keeping whatever the input
/// configures and the snapshot does not carry (a meter's flat rate, a
/// component's config). Every [`Persist`] value is a `Section` that
/// restores by replacement.
pub(crate) trait Section {
    fn save_section(&self, what: &str) -> Result<Val, SnapshotError>;
    fn restore(&mut self, v: &Val, what: &str) -> Result<(), SnapshotError>;
}

impl<T: Persist> Section for T {
    fn save_section(&self, what: &str) -> Result<Val, SnapshotError> {
        self.to_val(what)
    }

    fn restore(&mut self, v: &Val, what: &str) -> Result<(), SnapshotError> {
        *self = T::load(v, what)?;
        Ok(())
    }
}

/// Declares a component's snapshot object as one `"key" => place` list
/// and derives [`Section`] for it and for `Option<T>` (see
/// [`optional_section!`]). A value may be a nested `{ ... }` list (an
/// inline object of the same component) or `[save_fn, restore_fn]` for a
/// section computed from several fields; `..place` splices another
/// component's fields into this object.
/// Expects `Val`, `SnapshotError` and `Section` in scope.
macro_rules! section {
    ($ty:ty, |$s:ident| { $($body:tt)* }) => {
        impl Section for $ty {
            // The list expands to one push per entry.
            #[allow(clippy::vec_init_then_push)]
            fn save_section(&self, _what: &str) -> Result<Val, SnapshotError> {
                let $s = self;
                let mut fields = Vec::new();
                $crate::snapshot::section!(@save $s fields $($body)*);
                Ok(Val::Obj(fields))
            }

            fn restore(&mut self, v: &Val, _what: &str) -> Result<(), SnapshotError> {
                let $s = self;
                $crate::snapshot::section!(@restore $s v $($body)*);
                Ok(())
            }
        }

        $crate::snapshot::optional_section!($ty);
    };
    (@save $s:ident $out:ident) => {};
    (@save $s:ident $out:ident .. $e:expr $(, $($rest:tt)*)?) => {
        $out.extend(Section::save_section(&$e, "")?.into_fields());
        $crate::snapshot::section!(@save $s $out $($($rest)*)?);
    };
    (@save $s:ident $out:ident $key:literal => { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        let mut inner = Vec::new();
        $crate::snapshot::section!(@save $s inner $($inner)*);
        $out.push(($key.to_string(), Val::Obj(inner)));
        $crate::snapshot::section!(@save $s $out $($($rest)*)?);
    };
    (@save $s:ident $out:ident $key:literal => [$save:path, $restore:path]
        $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), $save($s)?));
        $crate::snapshot::section!(@save $s $out $($($rest)*)?);
    };
    (@save $s:ident $out:ident $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), Section::save_section(&$e, $key)?));
        $crate::snapshot::section!(@save $s $out $($($rest)*)?);
    };
    (@restore $s:ident $v:ident) => {};
    (@restore $s:ident $v:ident .. $e:expr $(, $($rest:tt)*)?) => {
        Section::restore(&mut $e, $v, "")?;
        $crate::snapshot::section!(@restore $s $v $($($rest)*)?);
    };
    (@restore $s:ident $v:ident $key:literal => { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        let inner = $v.get($key)?;
        $crate::snapshot::section!(@restore $s inner $($inner)*);
        $crate::snapshot::section!(@restore $s $v $($($rest)*)?);
    };
    (@restore $s:ident $v:ident $key:literal => [$save:path, $restore:path]
        $(, $($rest:tt)*)?) => {
        $restore($s, $v.get($key)?)?;
        $crate::snapshot::section!(@restore $s $v $($($rest)*)?);
    };
    (@restore $s:ident $v:ident $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        Section::restore(&mut $e, $v.get($key)?, $key)?;
        $crate::snapshot::section!(@restore $s $v $($($rest)*)?);
    };
}
pub(crate) use section;

/// Derives [`Section`] for an optional component: `None` saves as `null`
/// and restores nothing (the header's presence flags have already matched
/// the input against the snapshot).
macro_rules! optional_section {
    ($ty:ty) => {
        impl Section for Option<$ty> {
            fn save_section(&self, what: &str) -> Result<Val, SnapshotError> {
                self.as_ref()
                    .map_or(Ok(Val::Null), |c| c.save_section(what))
            }

            fn restore(&mut self, v: &Val, what: &str) -> Result<(), SnapshotError> {
                self.as_mut().map_or(Ok(()), |c| c.restore(v, what))
            }
        }
    };
}
pub(crate) use optional_section;

/// Declares a type's JSON object as one `"key" => value` list over `|s|`
/// and derives [`ToVal`] for it: the save-only form, for result types
/// that are written but never read back. A value may be a nested
/// `{ ... }` list (an inline object).
#[macro_export]
macro_rules! to_val {
    ($ty:ty, |$s:ident| { $($body:tt)* }) => {
        impl $crate::snapshot::ToVal for $ty {
            // The list expands to one push per entry.
            #[allow(clippy::vec_init_then_push)]
            fn to_val(
                &self,
                _what: &str,
            ) -> Result<$crate::snapshot::Val, $crate::snapshot::SnapshotError> {
                let $s = self;
                let mut fields = Vec::new();
                $crate::to_val!(@fields fields $($body)*);
                Ok($crate::snapshot::Val::Obj(fields))
            }
        }
    };
    (@fields $out:ident) => {};
    (@fields $out:ident $key:literal => { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        let mut inner = Vec::new();
        $crate::to_val!(@fields inner $($inner)*);
        $out.push(($key.to_string(), $crate::snapshot::Val::Obj(inner)));
        $crate::to_val!(@fields $out $($($rest)*)?);
    };
    (@fields $out:ident $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), $crate::snapshot::ToVal::to_val(&$e, $key)?));
        $crate::to_val!(@fields $out $($($rest)*)?);
    };
}

/// Declares a plain value struct's snapshot object as one
/// `"key" => field` list and derives [`ToVal`] and [`Persist`] for it
/// (every field is listed, so `load` builds the struct outright). Expects
/// `Val`, `SnapshotError` and `Persist` in scope.
macro_rules! persist_struct {
    ($ty:ident { $($key:literal => $field:ident),* $(,)? }) => {
        $crate::to_val!($ty, |s| { $($key => s.$field),* });

        impl Persist for $ty {
            fn load(v: &Val, _what: &str) -> Result<Self, SnapshotError> {
                Ok($ty {
                    $($field: Persist::load(v.get($key)?, $key)?,)*
                })
            }
        }
    };
}
pub(crate) use persist_struct;

macro_rules! persist_int {
    ($($t:ty),*) => {$(
        impl ToVal for $t {
            fn to_val(&self, _what: &str) -> Result<Val, SnapshotError> {
                Ok(Val::Int(*self as i128))
            }
        }

        impl Persist for $t {
            fn load(v: &Val, what: &str) -> Result<Self, SnapshotError> {
                <$t>::try_from(v.as_int(what)?).map_err(|_| {
                    SnapshotError::Mismatch(format!(
                        "{what} out of {} range",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
persist_int!(u8, u32, u64, usize, i64);

/// Leaf values, each declared once as `Type => save, load`: `save` maps
/// the value `x`, `load` the parsed value `v`, both naming the field in
/// errors through their second parameter.
macro_rules! persist_leaf {
    ($($t:ty => |$x:ident, $ws:pat_param| $save:expr,
        |$v:ident, $wl:pat_param| $load:expr;)*) => {$(
        impl ToVal for $t {
            fn to_val(&self, $ws: &str) -> Result<Val, SnapshotError> {
                let $x = self;
                $save
            }
        }

        impl Persist for $t {
            fn load($v: &Val, $wl: &str) -> Result<Self, SnapshotError> {
                $load
            }
        }
    )*};
}

// Times and durations are integer milliseconds.
persist_leaf! {
    bool => |x, _| Ok(Val::Bool(*x)), |v, what| v.as_bool(what);
    f64 => |x, what| Val::float(*x, what), |v, what| v.as_f64(what);
    String => |x, _| Ok(Val::Str(x.clone())), |v, what| v.as_str(what).map(str::to_string);
    SimTime => |x, _| Ok(Val::Int(x.as_millis() as i128)),
        |v, what| Ok(SimTime::from_millis(v.as_u64(what)?));
    SimDuration => |x, _| Ok(Val::Int(x.as_millis() as i128)),
        |v, what| Ok(SimDuration::from_millis(v.as_u64(what)?));
}

/// String literals, for fixed entries in [`to_val!`](crate::to_val) lists.
impl ToVal for &str {
    fn to_val(&self, _what: &str) -> Result<Val, SnapshotError> {
        Ok(Val::Str(self.to_string()))
    }
}

/// Saves a sequence as a JSON array.
pub(crate) fn save_all<'a, T: ToVal + 'a>(
    items: impl IntoIterator<Item = &'a T>,
    what: &str,
) -> Result<Val, SnapshotError> {
    Ok(Val::Arr(
        items
            .into_iter()
            .map(|x| x.to_val(what))
            .collect::<Result<_, _>>()?,
    ))
}

fn load_all<T: Persist, C: FromIterator<T>>(v: &Val, what: &str) -> Result<C, SnapshotError> {
    v.as_arr(what)?.iter().map(|x| T::load(x, what)).collect()
}

macro_rules! persist_seq {
    ($($seq:ident),*) => {$(
        impl<T: ToVal> ToVal for $seq<T> {
            fn to_val(&self, what: &str) -> Result<Val, SnapshotError> {
                save_all(self, what)
            }
        }

        impl<T: Persist> Persist for $seq<T> {
            fn load(v: &Val, what: &str) -> Result<Self, SnapshotError> {
                load_all(v, what)
            }
        }
    )*};
}
persist_seq!(Vec, VecDeque);

impl<T: ToVal, const N: usize> ToVal for [T; N] {
    fn to_val(&self, what: &str) -> Result<Val, SnapshotError> {
        save_all(self, what)
    }
}

/// A fixed-length array; any other length is a mismatch.
impl<T: Persist, const N: usize> Persist for [T; N] {
    fn load(v: &Val, what: &str) -> Result<Self, SnapshotError> {
        let items: Vec<T> = load_all(v, what)?;
        let found = items.len();
        items.try_into().map_err(|_| {
            SnapshotError::Mismatch(format!("{what}: expected {N} entries, found {found}"))
        })
    }
}

/// `None` is `null`.
impl<T: ToVal> ToVal for Option<T> {
    fn to_val(&self, what: &str) -> Result<Val, SnapshotError> {
        self.as_ref().map_or(Ok(Val::Null), |x| x.to_val(what))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn load(v: &Val, what: &str) -> Result<Self, SnapshotError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::load(v, what).map(Some)
        }
    }
}

/// A pair is a two-element array, a triple a three-element one.
impl<A: ToVal, B: ToVal> ToVal for (A, B) {
    fn to_val(&self, what: &str) -> Result<Val, SnapshotError> {
        Ok(Val::Arr(vec![self.0.to_val(what)?, self.1.to_val(what)?]))
    }
}

impl<A: ToVal, B: ToVal, C: ToVal> ToVal for (A, B, C) {
    fn to_val(&self, what: &str) -> Result<Val, SnapshotError> {
        let (a, b, c) = self;
        Ok(Val::Arr(vec![
            a.to_val(what)?,
            b.to_val(what)?,
            c.to_val(what)?,
        ]))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn load(v: &Val, what: &str) -> Result<Self, SnapshotError> {
        match v.as_arr(what)? {
            [a, b] => Ok((A::load(a, what)?, B::load(b, what)?)),
            _ => Err(SnapshotError::Parse(format!("{what} must be a pair"))),
        }
    }
}

/// The xoshiro state words plus the pending Box–Muller spare.
struct RngParts {
    words: Vec<u64>,
    spare: Option<f64>,
}

persist_struct!(RngParts {
    "words" => words,
    "spare" => spare,
});

impl ToVal for SimRng {
    fn to_val(&self, what: &str) -> Result<Val, SnapshotError> {
        let s = self.snapshot();
        RngParts {
            words: s.words.to_vec(),
            spare: s.spare_normal,
        }
        .to_val(what)
    }
}

impl Persist for SimRng {
    fn load(v: &Val, what: &str) -> Result<Self, SnapshotError> {
        let parts = RngParts::load(v, what)?;
        let words: [u64; 4] = parts.words.as_slice().try_into().map_err(|_| {
            SnapshotError::Parse(format!(
                "{what}: expected 4 state words, found {}",
                parts.words.len()
            ))
        })?;
        if words == [0; 4] {
            return Err(SnapshotError::Mismatch(format!(
                "{what}: all-zero xoshiro state is invalid"
            )));
        }
        Ok(SimRng::restore(&RngSnapshot {
            words,
            spare_normal: parts.spare,
        }))
    }
}

/// A power sampler mid-stream.
struct SamplerParts {
    name: String,
    interval: SimDuration,
    next_tick: SimTime,
    current: f64,
    values: Vec<f64>,
}

persist_struct!(SamplerParts {
    "name" => name,
    "interval_ms" => interval,
    "next_tick_ms" => next_tick,
    "current" => current,
    "values" => values,
});

impl ToVal for Sampler {
    fn to_val(&self, what: &str) -> Result<Val, SnapshotError> {
        let (name, interval, next_tick, current, values) = self.parts();
        SamplerParts {
            name: name.to_string(),
            interval,
            next_tick,
            current,
            values: values.to_vec(),
        }
        .to_val(what)
    }
}

impl Persist for Sampler {
    fn load(v: &Val, what: &str) -> Result<Self, SnapshotError> {
        let p = SamplerParts::load(v, what)?;
        if p.interval.is_zero() {
            return Err(SnapshotError::Mismatch(format!(
                "{what}: sampler interval must be positive"
            )));
        }
        Ok(Sampler::from_parts(
            p.name,
            p.interval,
            p.next_tick,
            p.current,
            p.values,
        ))
    }
}

// A cost meter's open segment and total; its flat rate comes from the
// run input (a fork may change it).
section!(SignalMeter, |m| {
    "seg_value" => m.seg_value,
    "seg_j" => m.seg_j,
    "total" => m.total,
});

section!(CostMeter, |c| {
    "price_meter" => c.price,
    "carbon_meter" => c.carbon,
});

persist_struct!(EnergyLedger {
    "wind_j" => wind_j,
    "utility_j" => utility_j,
});

// The battery's charge; its ratings come from the run input.
section!(BatteryState, |b| {
    "stored_j" => b.stored_j,
});

// Result types of the model crates, as the experiment harness writes them
// to `results/`.
to_val!(TimeSeries, |t| {
    "name" => t.name,
    "interval" => t.interval,
    "values" => t.values,
});

to_val!(WorkloadStats, |w| {
    "jobs" => w.jobs,
    "core_hours" => w.core_hours,
    "runtime_quantiles_s" => w.runtime_quantiles_s,
    "cpus_quantiles" => w.cpus_quantiles,
    "size_histogram" => w.size_histogram,
    "mean_deadline_factor" => w.mean_deadline_factor,
    "hu_fraction" => w.hu_fraction,
    "span_hours" => w.span_hours,
});

to_val!(WindowReport, |w| {
    "fraction_below" => w.fraction_below,
    "window_lengths" => w.window_lengths,
    "idle_proc_seconds" => w.idle_proc_seconds,
});

to_val!(CampaignEstimate, |c| {
    "required_proc_seconds" => c.required_proc_seconds,
    "available_proc_seconds" => c.available_proc_seconds,
    "periods_to_complete" => c.periods_to_complete,
    "longest_window_fits_one_chip" => c.longest_window_fits_one_chip,
});

to_val!(ProfilingCost, |p| {
    "energy_kwh" => p.energy_kwh,
    "cost_wind_usd" => p.cost_wind_usd,
    "cost_utility_usd" => p.cost_utility_usd,
});

// The work-stealing pool's counters, reported in `BENCH_sim.json`.
to_val!(PoolStats, |p| {
    "par_calls" => p.par_calls,
    "seq_calls" => p.seq_calls,
    "tasks" => p.tasks,
    "steals" => p.steals,
    "splits" => p.splits,
    "max_workers" => p.max_workers,
});

/// Renders a value as compact JSON (no whitespace). Deterministic: object
/// keys stay in authoring order, floats use the shortest decimal that
/// parses back to the same bits.
pub fn render(v: &Val, out: &mut String) {
    match v {
        Val::Null => out.push_str("null"),
        Val::Bool(true) => out.push_str("true"),
        Val::Bool(false) => out.push_str("false"),
        Val::Int(n) => out.push_str(&n.to_string()),
        Val::Float(f) => {
            debug_assert!(f.is_finite(), "Val::float rejects non-finite values");
            let s = format!("{f}");
            out.push_str(&s);
            if !(s.contains('.') || s.contains('e') || s.contains('E')) {
                out.push_str(".0");
            }
        }
        Val::Str(s) => render_string(s, out),
        Val::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Val::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(k, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum nesting the parser accepts; snapshot documents nest a handful
/// of levels, so this only guards against hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document (a full value; trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Val, SnapshotError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(SnapshotError::Parse(format!(
            "trailing garbage at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), SnapshotError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SnapshotError::Parse(format!(
                "expected {what} at byte {}",
                self.pos
            )))
        }
    }

    fn lit(&mut self, word: &str, v: Val) -> Result<Val, SnapshotError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(SnapshotError::Parse(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Val, SnapshotError> {
        if depth > MAX_DEPTH {
            return Err(SnapshotError::Parse("nesting too deep".into()));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Val::Null),
            Some(b't') => self.lit("true", Val::Bool(true)),
            Some(b'f') => self.lit("false", Val::Bool(false)),
            Some(b'"') => self.string().map(Val::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(SnapshotError::Parse(format!(
                "unexpected byte at {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Val, SnapshotError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => {
                    return Err(SnapshotError::Parse(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Val, SnapshotError> {
        self.eat(b'{', "'{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                _ => {
                    return Err(SnapshotError::Parse(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| SnapshotError::Parse("invalid UTF-8 in string".into()))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| {
                        SnapshotError::Parse("unterminated escape at end of input".into())
                    })?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.eat(b'\\', "'\\' of surrogate pair")?;
                                self.eat(b'u', "'u' of surrogate pair")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(SnapshotError::Parse(
                                        "invalid low surrogate".into(),
                                    ));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                SnapshotError::Parse("invalid unicode escape".into())
                            })?);
                        }
                        _ => {
                            return Err(SnapshotError::Parse(format!(
                                "invalid escape at byte {}",
                                self.pos - 1
                            )))
                        }
                    }
                }
                _ => {
                    return Err(SnapshotError::Parse(
                        "unterminated or control byte in string".into(),
                    ))
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, SnapshotError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(SnapshotError::Parse("truncated \\u escape".into()));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| SnapshotError::Parse("invalid \\u escape".into()))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| SnapshotError::Parse("invalid \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Val, SnapshotError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    // '+' / '-' only continue a number inside an exponent;
                    // a '-' starting the next array element must not be
                    // swallowed. The exponent markers set the float flag.
                    if (b == b'+' || b == b'-')
                        && !matches!(self.bytes.get(self.pos - 1), Some(b'e') | Some(b'E'))
                    {
                        break;
                    }
                    if b == b'.' || b == b'e' || b == b'E' {
                        is_float = true;
                    }
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| SnapshotError::Parse("invalid number".into()))?;
        if is_float {
            let v: f64 = s
                .parse()
                .map_err(|_| SnapshotError::Parse(format!("invalid float {s:?}")))?;
            if !v.is_finite() {
                return Err(SnapshotError::Parse(format!("float {s:?} overflows f64")));
            }
            Ok(Val::Float(v))
        } else {
            let v: i128 = s
                .parse()
                .map_err(|_| SnapshotError::Parse(format!("invalid integer {s:?}")))?;
            Ok(Val::Int(v))
        }
    }
}

/// Renders named sections as the snapshot JSONL document (one
/// `{"section":name,"data":value}` object per line, trailing newline).
pub(crate) fn encode_lines(sections: &[(String, Val)]) -> String {
    let mut out = String::new();
    for (name, data) in sections {
        out.push_str("{\"section\":");
        render_string(name, &mut out);
        out.push_str(",\"data\":");
        render(data, &mut out);
        out.push_str("}\n");
    }
    out
}

/// Parses a snapshot JSONL document back into one object keyed by section
/// name. Blank lines are skipped; section names must be unique.
pub(crate) fn decode_lines(text: &str) -> Result<Val, SnapshotError> {
    let mut sections: Vec<(String, Val)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at_line = |e: SnapshotError| SnapshotError::Parse(format!("line {}: {e}", i + 1));
        let v = parse(line).map_err(at_line)?;
        let name = v
            .get("section")
            .and_then(|s| s.as_str("section"))
            .map_err(at_line)?
            .to_string();
        let Val::Obj(fields) = v else {
            unreachable!("`get` found a key, so the line is an object")
        };
        let data = fields
            .into_iter()
            .find_map(|(k, d)| (k == "data").then_some(d))
            .ok_or_else(|| at_line(SnapshotError::Parse("missing key \"data\"".into())))?;
        if sections.iter().any(|(n, _)| *n == name) {
            return Err(SnapshotError::Parse(format!(
                "line {}: duplicate section {name:?}",
                i + 1
            )));
        }
        sections.push((name, data));
    }
    if sections.is_empty() {
        return Err(SnapshotError::Parse("empty snapshot document".into()));
    }
    Ok(Val::Obj(sections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn render_str(v: &Val) -> String {
        let mut s = String::new();
        render(v, &mut s);
        s
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Val::Null,
            Val::Bool(true),
            Val::Bool(false),
            Val::Int(0),
            Val::Int(-7),
            Val::Int(u64::MAX as i128),
            Val::Float(0.5),
            Val::Float(-0.0),
            Val::Float(1.0 / 3.0),
            Val::Float(1e-300),
            Val::Str("hello \"quoted\" \\ line\nbreak\ttab".into()),
            Val::Str("unicode: ✓ €".into()),
        ] {
            let s = render_str(&v);
            let back = parse(&s).unwrap();
            assert_eq!(back, v, "round trip of {s}");
            assert_eq!(render_str(&back), s, "re-render of {s}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [
            0.1,
            1.0 / 3.0,
            -98_765.432_1,
            1e300,
            5.0,
            -0.0,
            f64::MIN_POSITIVE,
        ] {
            let s = render_str(&Val::Float(f));
            match parse(&s).unwrap() {
                Val::Float(b) => assert_eq!(b.to_bits(), f.to_bits(), "bits of {s}"),
                other => panic!("{s} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let s = render_str(&Val::Float(5.0));
        assert_eq!(s, "5.0");
        assert_eq!(parse(&s).unwrap(), Val::Float(5.0));
        // ... and integers stay integers.
        assert_eq!(parse("5").unwrap(), Val::Int(5));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Val::Obj(vec![
            ("a".into(), Val::Arr(vec![Val::Int(1), Val::Null])),
            (
                "b".into(),
                Val::Obj(vec![("c".into(), Val::Arr(vec![Val::Float(2.5)]))]),
            ),
            ("empty_arr".into(), Val::Arr(vec![])),
            ("empty_obj".into(), Val::Obj(vec![])),
        ]);
        let s = render_str(&v);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_are_rejected_at_construction() {
        assert!(Val::float(f64::NAN, "x").is_err());
        assert!(Val::float(f64::INFINITY, "x").is_err());
        assert!(Val::float(1.5, "x").is_ok());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"unterminated",
            "1 2",
            "[1]]",
            "{\"a\":1,}",
            "--1",
            "\"bad \\x escape\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn negative_numbers_in_arrays_do_not_merge() {
        assert_eq!(
            parse("[1,-2,-3.5]").unwrap(),
            Val::Arr(vec![Val::Int(1), Val::Int(-2), Val::Float(-3.5)])
        );
    }

    #[test]
    fn exponent_signs_parse() {
        assert_eq!(parse("1e-3").unwrap(), Val::Float(1e-3));
        assert_eq!(parse("1E+3").unwrap(), Val::Float(1e3));
        assert_eq!(
            parse("[1e-3,2]").unwrap(),
            Val::Arr(vec![Val::Float(1e-3), Val::Int(2)])
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Val::Str("A".into()));
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Val::Str("😀".into()));
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    #[test]
    fn document_sections_round_trip() {
        let sections = vec![
            (
                "header".to_string(),
                Val::Obj(vec![("version".into(), Val::Int(1))]),
            ),
            ("events".to_string(), Val::Arr(vec![Val::Int(3)])),
        ];
        let doc = encode_lines(&sections);
        assert_eq!(doc.lines().count(), 2);
        let back = decode_lines(&doc).unwrap();
        assert_eq!(
            back.get("header").unwrap().get("version").unwrap(),
            &Val::Int(1)
        );
        assert!(back.get("missing").is_err());
        let Val::Obj(back) = back else {
            panic!("a document decodes to an object")
        };
        assert_eq!(back, sections);
        assert_eq!(
            encode_lines(&back),
            doc,
            "encode -> decode -> encode is byte-stable"
        );
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let doc = encode_lines(&[("a".into(), Val::Null), ("a".into(), Val::Null)]);
        assert!(decode_lines(&doc).is_err());
    }

    /// Strategy over arbitrary JSON trees with finite floats — the value
    /// space the snapshot writer can emit.
    fn arb_val() -> impl Strategy<Value = Val> {
        let leaf = prop_oneof![
            Just(Val::Null),
            any::<bool>().prop_map(Val::Bool),
            // The writer's integer sources are u64/i64/usize counters.
            any::<i64>().prop_map(|v| Val::Int(v as i128)),
            any::<u64>().prop_map(|v| Val::Int(v as i128)),
            // Finite floats only; the writer rejects the rest.
            any::<f64>()
                .prop_filter("finite", |f| f.is_finite())
                .prop_map(Val::Float),
            "[ -~]*".prop_map(Val::Str),
            "\\PC*".prop_map(Val::Str),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..8).prop_map(Val::Arr),
                prop::collection::vec(("[a-z_]{1,8}", inner), 0..8).prop_map(Val::Obj),
            ]
        })
    }

    proptest! {
        /// encode → decode → encode is byte-stable for every tree the
        /// writer can produce (the snapshot determinism contract).
        #[test]
        fn prop_encode_decode_encode_is_byte_stable(v in arb_val()) {
            let first = render_str(&v);
            let back = parse(&first).unwrap();
            prop_assert_eq!(&back, &v, "structural round trip");
            let second = render_str(&back);
            prop_assert_eq!(first, second, "byte-stable re-encode");
        }

        /// Float bits survive the decimal round trip exactly.
        #[test]
        fn prop_float_bits_survive(f in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
            let s = render_str(&Val::Float(f));
            match parse(&s).unwrap() {
                Val::Float(b) => prop_assert_eq!(b.to_bits(), f.to_bits()),
                other => prop_assert!(false, "parsed as {:?}", other),
            }
        }
    }
}
