//! Placement policies: Ran, Effi, and Fair (§IV.B).
//!
//! A placement chooses the `n` processors a rigid job gang-schedules on.
//! All three policies respect deadlines when they can:
//!
//! * **Ran** — uniformly random feasible sets ("workloads are assigned to
//!   CPUs randomly ... as long as the processors can meet the deadlines").
//! * **Effi** — the most energy-efficient feasible set. Jobs queue up on
//!   efficient processors as long as deadlines hold; the candidate pool
//!   widens along the efficiency ranking only when it must, which produces
//!   the paper's "queueing phenomenon" (§VI.B).
//! * **Fair** — ScanFair's adaptive rule: with abundant wind, pick the
//!   historically least-used processors (possibly inefficient — wind is
//!   cheap and efficient chips get to rest); with scarce wind, fall back
//!   to the efficiency ranking to save expensive utility power.
//!
//! When no feasible set exists the policy returns its best effort (the
//! earliest-available processors) and the simulator records a deadline
//! miss.

use crate::index::ChipIndexes;
use crate::view::ProcView;
use iscope_dcsim::SimRng;
use iscope_pvmodel::ChipId;
use iscope_workload::Job;

/// Outcome of a placement decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementDecision {
    /// The chosen set meets the job's deadline (by the scheduler's
    /// estimate).
    Feasible(Vec<ChipId>),
    /// No examined set met the deadline; this is the best-effort set.
    BestEffort(Vec<ChipId>),
}

impl PlacementDecision {
    /// The chosen processors regardless of feasibility.
    pub fn chips(&self) -> &[ChipId] {
        match self {
            PlacementDecision::Feasible(c) | PlacementDecision::BestEffort(c) => c,
        }
    }

    /// True if the deadline is expected to hold.
    pub fn is_feasible(&self) -> bool {
        matches!(self, PlacementDecision::Feasible(_))
    }
}

/// A placement policy.
pub trait Placement: Send + Sync {
    /// Chooses `job.cpus` processors. `wind_surplus` tells adaptive
    /// policies whether renewable power currently exceeds demand.
    fn place(
        &self,
        job: &Job,
        view: &ProcView<'_>,
        wind_surplus: bool,
        rng: &mut SimRng,
    ) -> PlacementDecision;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Number of random redraws before Ran falls back to best effort.
const RANDOM_RETRIES: usize = 8;

/// Uniformly random feasible placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomPlacement;

impl Placement for RandomPlacement {
    fn place(
        &self,
        job: &Job,
        view: &ProcView<'_>,
        _wind_surplus: bool,
        rng: &mut SimRng,
    ) -> PlacementDecision {
        let n = job.cpus as usize;
        let in_service = view.available_count();
        assert!(n <= in_service, "job wider than the in-service fleet");
        // Sample from the unblocked index set: rejecting whole draws that
        // touch a blocked chip wastes retries and, with enough chips out
        // for in-situ profiling, spuriously falls back to best effort
        // even though feasible sets exist. When nothing is blocked the
        // draw stream is unchanged.
        let all_in_service = in_service == view.len();
        {
            let mut bufs = view.scratch.borrow_mut();
            let unblocked = &mut bufs.pool;
            unblocked.clear();
            if !all_in_service {
                unblocked.extend(
                    (0..view.len() as u32)
                        .map(ChipId)
                        .filter(|&c| !view.is_blocked(c)),
                );
            }
            for _ in 0..RANDOM_RETRIES {
                let pick: Vec<ChipId> = if all_in_service {
                    rng.sample_indices(view.len(), n)
                        .into_iter()
                        .map(|i| ChipId(i as u32))
                        .collect()
                } else {
                    rng.sample_indices(unblocked.len(), n)
                        .into_iter()
                        .map(|i| unblocked[i])
                        .collect()
                };
                if view.meets_deadline(job, &pick) {
                    return PlacementDecision::Feasible(pick);
                }
            }
        }
        best_effort(job, view)
    }

    fn name(&self) -> &'static str {
        "Ran"
    }
}

/// Most-energy-efficient feasible placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct EfficiencyPlacement;

impl Placement for EfficiencyPlacement {
    fn place(
        &self,
        job: &Job,
        view: &ProcView<'_>,
        _wind_surplus: bool,
        _rng: &mut SimRng,
    ) -> PlacementDecision {
        prefix_place(view.plan.ranking(), job, view)
    }

    fn name(&self) -> &'static str {
        "Effi"
    }
}

/// ScanFair's adaptive placement: least-used under wind surplus,
/// efficiency-ranked under scarcity.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairPlacement;

impl Placement for FairPlacement {
    fn place(
        &self,
        job: &Job,
        view: &ProcView<'_>,
        wind_surplus: bool,
        _rng: &mut SimRng,
    ) -> PlacementDecision {
        if wind_surplus {
            fair_surplus_place(job, view)
        } else {
            prefix_place(view.plan.ranking(), job, view)
        }
    }

    fn name(&self) -> &'static str {
        "Fair"
    }
}

/// Restores the max-heap property upward from `pos` (a freshly pushed
/// leaf) in a binary max-heap laid out in `v`.
fn sift_up(v: &mut [u64], mut pos: usize) {
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if v[pos] <= v[parent] {
            break;
        }
        v.swap(pos, parent);
        pos = parent;
    }
}

/// Restores the max-heap property downward from the root (after the root
/// key was replaced) in a binary max-heap laid out in `v`.
fn sift_down(v: &mut [u64]) {
    let len = v.len();
    let mut pos = 0;
    loop {
        let mut biggest = pos;
        let (l, r) = (2 * pos + 1, 2 * pos + 2);
        if l < len && v[l] > v[biggest] {
            biggest = l;
        }
        if r < len && v[r] > v[biggest] {
            biggest = r;
        }
        if biggest == pos {
            break;
        }
        v.swap(pos, biggest);
        pos = biggest;
    }
}

/// Whether `key` can enter `top`, the bounded max-heap of the `n`
/// smallest admissible keys seen so far: it is within the latest-start
/// `bound` and, once the heap is full, below its root. The check only
/// tightens as a walk admits keys, so a walk over ascending keys may stop
/// at the first key it fails.
fn admissible(top: &[u64], n: usize, bound: u64, key: u64) -> bool {
    key <= bound && (top.len() < n || (n > 0 && key < top[0]))
}

/// Puts an [`admissible`] `key` into `top`, evicting the root once the
/// heap is full.
fn admit(top: &mut Vec<u64>, n: usize, key: u64) {
    if top.len() < n {
        top.push(key);
        let last = top.len() - 1;
        sift_up(top, last);
    } else {
        top[0] = key;
        sift_down(top);
    }
}

/// Admits ascending `keys` that `wanted` accepts, up to the first key
/// that is not [`admissible`]: no later key could be either.
fn admit_ascending(
    keys: impl Iterator<Item = u64>,
    n: usize,
    bound: u64,
    top: &mut Vec<u64>,
    wanted: impl Fn(u64) -> bool,
) {
    for key in keys {
        if !admissible(top, n, bound, key) {
            break;
        }
        if wanted(key) {
            admit(top, n, key);
        }
    }
}

/// One doubling round shared by the prefix walkers: admits `chips` (the
/// newly widened part of the preference order) into `bufs.top`, a bounded
/// max-heap holding the `n` earliest-available candidates seen so far
/// under the `(clamped_avail, id)` order, then checks feasibility in
/// O(1): the heap root *is* the gang's estimated start (the latest drain
/// among the n earliest-available chips). Each admitted chip costs one
/// packed-key build and one u64 root comparison — no per-round sort, no
/// sorted-run merge — and only the winning round pays an `n log n` sort
/// to emit the head in `(clamped_avail, id)` order, exactly the set and
/// order the sorted-run formulation produced (the packed integer orders
/// identically to the tuple). A chip whose clamped key is above `bound`
/// is not admitted (see [`latest_start_bound`]; the plain walks pass
/// `u64::MAX`).
fn admit_and_try(
    chips: impl IntoIterator<Item = ChipId>,
    n: usize,
    bound: u64,
    job: &Job,
    view: &ProcView<'_>,
    bufs: &mut crate::view::ScratchBufs,
) -> Option<PlacementDecision> {
    admit_chips(chips, n, bound, view, &mut bufs.top);
    try_emit(n, job, view, bufs)
}

/// The admission half of [`admit_and_try`]: each in-service chip of
/// `chips` enters `top` under its clamped key if it is [`admissible`].
fn admit_chips(
    chips: impl IntoIterator<Item = ChipId>,
    n: usize,
    bound: u64,
    view: &ProcView<'_>,
    top: &mut Vec<u64>,
) {
    let now_ms = view.now.as_millis();
    for c in chips {
        if view.is_blocked(c) {
            continue;
        }
        let avail_ms = view.avail[c.0 as usize].as_millis();
        let key = crate::index::pack(avail_ms.max(now_ms), c.0);
        if admissible(top, n, bound, key) {
            admit(top, n, key);
        }
    }
}

/// The largest clamped `(max(avail, now), id)` key a chip may carry and
/// still be part of a feasible set for `job`: `pack(T, max id)` for the
/// job's latest start `T = deadline − runtime_at_fmax` (`u64::MAX` when
/// `T` is past the packable range). `None` when `T` is before `now`, so
/// no set is feasible.
///
/// Bounding a doubling walk by it changes no decision. A round is
/// feasible exactly when its prefix holds `n` in-service chips that
/// drain by `T`, and the `n` smallest keys of such a prefix all drain by
/// `T`; every chip that drains by `T` has a smaller key than every chip
/// that drains later. So a heap that admits only keys `<= bound` fills
/// in the same round the unbounded heap turns feasible, and then holds
/// the same `n` keys.
fn latest_start_bound(job: &Job, now_ms: u64) -> Option<u64> {
    let latest = job
        .deadline
        .as_millis()
        .checked_sub(job.runtime_at_fmax.as_millis())
        .filter(|&t| t >= now_ms)?;
    Some(if latest >> (64 - crate::index::ID_BITS) != 0 {
        u64::MAX
    } else {
        (latest << crate::index::ID_BITS) | ((1 << crate::index::ID_BITS) - 1)
    })
}

/// The feasibility-and-emit half of [`admit_and_try`].
fn try_emit(
    n: usize,
    job: &Job,
    view: &ProcView<'_>,
    bufs: &mut crate::view::ScratchBufs,
) -> Option<PlacementDecision> {
    let now_ms = view.now.as_millis();
    let top = &mut bufs.top;
    if top.len() >= n {
        let est_start_ms = if n == 0 {
            now_ms
        } else {
            top[0] >> crate::index::ID_BITS
        };
        if est_start_ms + job.runtime_at_fmax.as_millis() <= job.deadline.as_millis() {
            top.sort_unstable();
            let head: Vec<ChipId> = top
                .iter()
                .map(|&k| ChipId(crate::index::unpack_id(k)))
                .collect();
            debug_assert!(
                view.meets_deadline(job, &head),
                "heap-root feasibility diverged from the set fold"
            );
            return Some(PlacementDecision::Feasible(head));
        }
    }
    None
}

/// Walks growing prefixes of `order`, choosing within each prefix the `n`
/// earliest-available processors, and returns the first feasible set. The
/// prefix doubles each round, so the result is (close to) the most
/// preferred feasible set while examining O(log) candidate pools. Every
/// doubling walk starts from at least one chip, so a zero-wide job's
/// prefix still grows.
///
/// Dispatches to the block-skipping walk when the view carries
/// [`ChipIndexes`] with this ranking registered; the plain walk stays as
/// ground truth (cross-checked on every decision in debug builds) and
/// serves views without indexes and foreign orderings.
fn prefix_place(order: &[ChipId], job: &Job, view: &ProcView<'_>) -> PlacementDecision {
    if let Some(blocks) = view.index.and_then(|idx| idx.ranked_prefix(order)) {
        let d = prefix_place_blocks(order, job, view, blocks);
        debug_assert_eq!(
            d,
            prefix_place_plain(order, job, view),
            "block-skipping prefix walk diverged from the plain walk"
        );
        d
    } else {
        prefix_place_plain(order, job, view)
    }
}

/// The plain prefix walk: admits every chip of every round's slice.
fn prefix_place_plain(order: &[ChipId], job: &Job, view: &ProcView<'_>) -> PlacementDecision {
    let n = job.cpus as usize;
    assert!(
        n <= view.available_count(),
        "job wider than the in-service fleet"
    );
    {
        let mut bufs = view.scratch.borrow_mut();
        bufs.top.clear();
        let mut taken = 0;
        let mut k = n.max(1);
        loop {
            let k_now = k.min(order.len());
            let slice = order[taken..k_now].iter().copied();
            if let Some(d) = admit_and_try(slice, n, u64::MAX, job, view, &mut bufs) {
                return d;
            }
            taken = k_now;
            if k_now == order.len() {
                break;
            }
            k = k_now.saturating_mul(2);
        }
    }
    best_effort(job, view)
}

/// The block-skipping prefix walk. Identical decisions to
/// [`prefix_place_plain`]. It reads only chips that can enter its top-n
/// heap: it admits no chip whose clamped key is above the job's
/// [`latest_start_bound`] (which leaves every round's outcome as it was,
/// see there), and goes straight to best effort when the latest start
/// is already past. Each round walks its new ranking positions one
/// [`RankedPrefix::BLOCK`]-aligned chunk at a time, through the block's
/// drained ids and then its occupied keys ([`RankedPrefix::block`]), each
/// list ascending, and stops a list at its first key that cannot enter
/// the heap: keys only grow along a list and the admission limit only
/// tightens, so no later key could either. A block none of whose list
/// heads can enter is passed over after two reads. A chunk that covers
/// part of its block filters the lists by ranking position, unless the
/// lists' admissible heads (found by binary search) are at least as long
/// as the chunk, which then reads its own positions instead. Each round
/// therefore ends with the `n` smallest admissible keys of the same
/// prefix as the plain walk, which decides the same way.
///
/// Measured with `iscope-exp bench-report`'s `scaling` scenario
/// (ScanFair, 4 jobs per chip, gangs up to 512 wide, 2-vCPU Xeon,
/// medians of six alternating runs), reading only the admissible heads
/// of exact per-block lists instead of whole blocks behind stale-low
/// bounds took the placement phase from 8.0 to 4.9 µs per placement at
/// 6.25k chips, 14.4 to 9.4 at 25k and 21.4 to 14.0 at 50k.
/// `BENCH_sim.json` records the current trajectory.
fn prefix_place_blocks(
    order: &[ChipId],
    job: &Job,
    view: &ProcView<'_>,
    blocks: crate::index::RankedPrefix<'_>,
) -> PlacementDecision {
    const BLOCK: usize = crate::index::RankedPrefix::BLOCK;
    let n = job.cpus as usize;
    assert!(
        n <= view.available_count(),
        "job wider than the in-service fleet"
    );
    let Some(bound) = latest_start_bound(job, view.now.as_millis()) else {
        return best_effort(job, view);
    };
    {
        let mut bufs = view.scratch.borrow_mut();
        bufs.top.clear();
        let now_floor = crate::index::pack(view.now.as_millis(), 0);
        let mut taken = 0;
        let mut k = n.max(1);
        loop {
            let k_now = k.min(order.len());
            let mut pos = taken;
            while pos < k_now {
                let b = pos / BLOCK;
                let block_end = ((b + 1) * BLOCK).min(order.len());
                let chunk = pos..block_end.min(k_now);
                pos = chunk.end;
                let top = &mut bufs.top;
                let (mut idle, mut busy) = blocks.block(b);
                let whole = chunk.start == b * BLOCK && chunk.end == block_end;
                if !whole {
                    // Only the lists' admissible heads can be read; when
                    // they are longer than the chunk, its own positions are
                    // fewer reads.
                    idle = &idle
                        [..idle.partition_point(|&id| admissible(top, n, bound, now_floor | id))];
                    busy = &busy[..busy.partition_point(|&raw| admissible(top, n, bound, raw))];
                    if idle.len() + busy.len() >= chunk.len() {
                        admit_chips(order[chunk].iter().copied(), n, bound, view, top);
                        continue;
                    }
                }
                let wanted = |key: u64| {
                    let id = crate::index::unpack_id(key);
                    (whole || chunk.contains(&blocks.rank(id))) && !view.is_blocked(ChipId(id))
                };
                // Drained chips clamp to `now`; occupied ones drain at or
                // after it while the index is current.
                debug_assert!(busy.first().is_none_or(|&key| key >= now_floor));
                let drained = idle.iter().map(|&id| now_floor | id);
                admit_ascending(drained, n, bound, top, wanted);
                admit_ascending(busy.iter().copied(), n, bound, top, wanted);
            }
            if let Some(d) = try_emit(n, job, view, &mut bufs) {
                return d;
            }
            taken = k_now;
            if k_now == order.len() {
                break;
            }
            k = k_now.saturating_mul(2);
        }
    }
    best_effort(job, view)
}

/// Fair's surplus mode: a doubling walk over the least-used `(usage,
/// id)` ordering. Dispatches to the indexed extraction when the view
/// carries [`ChipIndexes`], with the linear partial-selection path kept
/// as ground truth (cross-checked on every decision in debug builds).
fn fair_surplus_place(job: &Job, view: &ProcView<'_>) -> PlacementDecision {
    if let Some(idx) = view.index {
        let d = fair_surplus_place_indexed(job, view, idx);
        debug_assert_eq!(
            d,
            fair_surplus_place_linear(job, view),
            "indexed Fair surplus diverged from the linear ground truth"
        );
        d
    } else {
        fair_surplus_place_linear(job, view)
    }
}

/// Indexed surplus walk: each round reads the next block of least-used
/// chips straight out of the persistent `(usage, id)` sorted index
/// (lazily repaired on acquisition), instead of re-materializing and
/// partially selecting a fleet-sized pool. The index holds exactly the
/// order the linear `select_nth` + block sort produces, and admissions
/// are bounded by the job's [`latest_start_bound`] (which leaves every
/// round's outcome as it was), so the decisions match bit for bit.
fn fair_surplus_place_indexed(
    job: &Job,
    view: &ProcView<'_>,
    idx: &ChipIndexes,
) -> PlacementDecision {
    let n = job.cpus as usize;
    assert!(
        n <= view.available_count(),
        "job wider than the in-service fleet"
    );
    let Some(bound) = latest_start_bound(job, view.now.as_millis()) else {
        return best_effort(job, view);
    };
    {
        let mut bufs = view.scratch.borrow_mut();
        bufs.top.clear();
        let order = idx.least_used();
        let total = view.len();
        debug_assert_eq!(order.len(), total);
        let mut sel = 0;
        let mut k = n.max(1);
        loop {
            let k_now = k.min(total);
            if k_now > sel {
                let slice = order.chips(sel..k_now);
                if let Some(d) = admit_and_try(slice, n, bound, job, view, &mut bufs) {
                    return d;
                }
                sel = k_now;
            }
            if k_now == total {
                break;
            }
            k = k_now.saturating_mul(2);
        }
    }
    best_effort(job, view)
}

/// Linear surplus walk (the pre-index ground truth): the least-used
/// ordering is materialized lazily — each round selects the next block of
/// `(usage, id)`-smallest chips with a partial `select_nth` over a
/// fleet-sized pool.
fn fair_surplus_place_linear(job: &Job, view: &ProcView<'_>) -> PlacementDecision {
    let n = job.cpus as usize;
    assert!(
        n <= view.available_count(),
        "job wider than the in-service fleet"
    );
    {
        let mut bufs = view.scratch.borrow_mut();
        let mut pool = std::mem::take(&mut bufs.pool);
        pool.clear();
        pool.extend((0..view.len() as u32).map(ChipId));
        bufs.top.clear();
        let usage_key = |c: &ChipId| (view.usage[c.0 as usize], *c);
        // Invariant: pool[..sel] are the `sel` least-used chips, sorted.
        let mut sel = 0;
        let mut k = n.max(1);
        loop {
            let k_now = k.min(pool.len());
            if k_now > sel {
                if k_now < pool.len() {
                    pool[sel..].select_nth_unstable_by_key(k_now - sel - 1, usage_key);
                }
                pool[sel..k_now].sort_unstable_by_key(usage_key);
                let slice = pool[sel..k_now].iter().copied();
                let decision = admit_and_try(slice, n, u64::MAX, job, view, &mut bufs);
                sel = k_now;
                if let Some(d) = decision {
                    bufs.pool = pool;
                    return d;
                }
            }
            if k_now == pool.len() {
                break;
            }
            k = k_now.saturating_mul(2);
        }
        bufs.pool = pool;
    }
    best_effort(job, view)
}

/// The `n` earliest-available processors overall (deadline already known
/// to be missed). Dispatches to the indexed extraction when the view
/// carries [`ChipIndexes`]; the linear partial selection stays as ground
/// truth (cross-checked on every decision in debug builds).
fn best_effort(job: &Job, view: &ProcView<'_>) -> PlacementDecision {
    if let Some(idx) = view.index {
        let d = best_effort_indexed(job, view, idx);
        debug_assert_eq!(
            d,
            best_effort_linear(job, view),
            "indexed best effort diverged from the linear ground truth"
        );
        d
    } else {
        best_effort_linear(job, view)
    }
}

/// Indexed best effort: pull chips off the merged clamped-`(avail, id)`
/// cursor in ascending order, skip out-of-service chips, stop at `n` —
/// O(n log F) instead of a fleet-sized selection.
fn best_effort_indexed(job: &Job, view: &ProcView<'_>, idx: &ChipIndexes) -> PlacementDecision {
    let n = job.cpus as usize;
    let picked = {
        let mut bufs = view.scratch.borrow_mut();
        let mut picked = std::mem::take(&mut bufs.pool);
        picked.clear();
        picked.extend(
            idx.earliest_available(view.now)
                .filter(|&c| !view.is_blocked(c))
                .take(n),
        );
        picked
    };
    finish_best_effort(job, view, picked)
}

/// Linear best effort (the pre-index ground truth): materialize the
/// unblocked pool, partially select the `n` earliest, sort the kept
/// prefix.
fn best_effort_linear(job: &Job, view: &ProcView<'_>) -> PlacementDecision {
    let n = job.cpus as usize;
    let picked = {
        let mut bufs = view.scratch.borrow_mut();
        let mut all = std::mem::take(&mut bufs.pool);
        all.clear();
        all.extend(
            (0..view.len() as u32)
                .map(ChipId)
                .filter(|&c| !view.is_blocked(c)),
        );
        let key = |c: &ChipId| (view.clamped_avail(*c), *c);
        if n > 0 && all.len() > n {
            all.select_nth_unstable_by_key(n - 1, key);
        }
        all.truncate(n);
        all.sort_unstable_by_key(key);
        all
    };
    finish_best_effort(job, view, picked)
}

/// Shared tail: both extraction paths hand their result set out of the
/// scratch buffer itself (no per-call clone; the buffer regrows on the
/// next placement that needs it).
fn finish_best_effort(job: &Job, view: &ProcView<'_>, picked: Vec<ChipId>) -> PlacementDecision {
    if view.meets_deadline(job, &picked) {
        // Possible when retries were unlucky (Ran): the earliest set works.
        PlacementDecision::Feasible(picked)
    } else {
        PlacementDecision::BestEffort(picked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_dcsim::{SimDuration, SimTime};
    use iscope_pvmodel::{CpuBoundness, DvfsConfig, Fleet, OperatingPlan, VariationParams};
    use iscope_workload::{JobId, Urgency};

    struct Fixture {
        fleet: Fleet,
        plan: OperatingPlan,
        avail: Vec<SimTime>,
        usage: Vec<SimDuration>,
        blocked: Vec<bool>,
        index: Option<ChipIndexes>,
        scratch: crate::view::PlaceScratch,
    }

    impl Fixture {
        fn new(n: usize) -> Fixture {
            let fleet = Fleet::generate(
                n,
                DvfsConfig::paper_default(),
                &VariationParams::default(),
                41,
            );
            let plan = OperatingPlan::oracle(&fleet);
            Fixture {
                avail: vec![SimTime::ZERO; n],
                usage: vec![SimDuration::ZERO; n],
                blocked: vec![false; n],
                index: None,
                scratch: crate::view::PlaceScratch::default(),
                fleet,
                plan,
            }
        }

        /// Builds chip indexes matching the fixture's current state, so
        /// `view()` exercises the indexed path (which in debug builds
        /// cross-checks itself against the linear one on every call).
        fn build_index(&mut self) {
            let mut idx = ChipIndexes::new(self.avail.len());
            for (i, &u) in self.usage.iter().enumerate() {
                idx.set_usage(ChipId(i as u32), u);
            }
            // Fixture views run at now = 0, so every chip's stored avail
            // is `>= now` and the busy tree alone reproduces the clamped
            // ordering.
            let avail = &self.avail;
            idx.rebuild_avail(avail, |i| avail[i] > SimTime::ZERO);
            // Register the plan's ranking, as the simulator does, so the
            // prefix walks take the block-skipping path.
            idx.set_ranking(self.plan.ranking());
            assert!(idx.ranked_prefix(self.plan.ranking()).is_some());
            self.index = Some(idx);
        }

        fn view(&self) -> ProcView<'_> {
            ProcView {
                now: SimTime::ZERO,
                avail: &self.avail,
                usage: &self.usage,
                plan: &self.plan,
                dvfs: &self.fleet.dvfs,
                blocked: &self.blocked,
                in_service: self.blocked.iter().filter(|&&b| !b).count(),
                index: self.index.as_ref(),
                scratch: &self.scratch,
            }
        }
    }

    fn job(cpus: u32, runtime_s: u64, deadline_s: u64) -> Job {
        Job {
            id: JobId(0),
            submit: SimTime::ZERO,
            cpus,
            runtime_at_fmax: SimDuration::from_secs(runtime_s),
            gamma: CpuBoundness::FULL,
            deadline: SimTime::from_secs(deadline_s),
            urgency: Urgency::Low,
        }
    }

    #[test]
    fn efficiency_picks_top_of_ranking_when_idle() {
        let fx = Fixture::new(50);
        let mut rng = SimRng::new(1);
        let j = job(4, 100, 10_000);
        let d = EfficiencyPlacement.place(&j, &fx.view(), false, &mut rng);
        assert!(d.is_feasible());
        let mut expected: Vec<ChipId> = fx.plan.ranking()[..4].to_vec();
        expected.sort_by_key(|c| (SimTime::ZERO, *c));
        let mut got = d.chips().to_vec();
        got.sort();
        expected.sort();
        assert_eq!(got, expected, "idle pool: exactly the 4 most efficient");
    }

    #[test]
    fn efficiency_queues_until_deadline_forces_widening() {
        let mut fx = Fixture::new(50);
        // Make the 10 most efficient chips busy for 1000 s.
        for c in &fx.plan.ranking().to_vec()[..10] {
            fx.avail[c.0 as usize] = SimTime::from_secs(1000);
        }
        let mut rng = SimRng::new(2);
        // Loose deadline: queueing on the efficient chips is fine.
        let loose = job(4, 100, 5000);
        let d = EfficiencyPlacement.place(&loose, &fx.view(), false, &mut rng);
        assert!(d.is_feasible());
        assert!(
            d.chips()
                .iter()
                .all(|c| fx.plan.ranking()[..10].contains(c)),
            "loose deadline should queue on the efficient busy chips"
        );
        // Tight deadline: must widen to idle, less-efficient chips.
        let tight = job(4, 100, 200);
        let d = EfficiencyPlacement.place(&tight, &fx.view(), false, &mut rng);
        assert!(d.is_feasible());
        assert!(
            d.chips()
                .iter()
                .all(|c| fx.avail[c.0 as usize] == SimTime::ZERO),
            "tight deadline must use idle chips"
        );
    }

    #[test]
    fn random_spreads_across_the_pool() {
        let fx = Fixture::new(50);
        let mut rng = SimRng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let d = RandomPlacement.place(&job(2, 10, 10_000), &fx.view(), false, &mut rng);
            assert!(d.is_feasible());
            seen.extend(d.chips().iter().copied());
        }
        assert!(
            seen.len() > 40,
            "random placement touched only {} chips",
            seen.len()
        );
    }

    #[test]
    fn fair_prefers_least_used_under_surplus() {
        let mut fx = Fixture::new(50);
        for i in 0..50 {
            fx.usage[i] = SimDuration::from_secs(1000 + i as u64 * 100);
        }
        fx.usage[17] = SimDuration::ZERO;
        fx.usage[33] = SimDuration::from_secs(1);
        let mut rng = SimRng::new(4);
        let d = FairPlacement.place(&job(2, 10, 10_000), &fx.view(), true, &mut rng);
        assert!(d.is_feasible());
        let mut got = d.chips().to_vec();
        got.sort();
        assert_eq!(got, vec![ChipId(17), ChipId(33)], "least-used chips first");
    }

    #[test]
    fn fair_matches_efficiency_under_scarcity() {
        let fx = Fixture::new(50);
        let mut rng = SimRng::new(5);
        let j = job(4, 100, 10_000);
        let fair = FairPlacement.place(&j, &fx.view(), false, &mut rng);
        let effi = EfficiencyPlacement.place(&j, &fx.view(), false, &mut rng);
        let mut a = fair.chips().to_vec();
        let mut b = effi.chips().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "no surplus: Fair degenerates to Effi");
    }

    #[test]
    fn impossible_deadline_returns_best_effort() {
        let mut fx = Fixture::new(10);
        for a in fx.avail.iter_mut() {
            *a = SimTime::from_secs(10_000);
        }
        let mut rng = SimRng::new(6);
        let j = job(4, 100, 50); // deadline long past any feasible start
        for policy in [
            &RandomPlacement as &dyn Placement,
            &EfficiencyPlacement,
            &FairPlacement,
        ] {
            let d = policy.place(&j, &fx.view(), false, &mut rng);
            assert!(
                !d.is_feasible(),
                "{} accepted the impossible",
                policy.name()
            );
            assert_eq!(d.chips().len(), 4);
        }
    }

    #[test]
    fn decisions_always_return_distinct_chips() {
        let fx = Fixture::new(30);
        let mut rng = SimRng::new(7);
        for policy in [
            &RandomPlacement as &dyn Placement,
            &EfficiencyPlacement,
            &FairPlacement,
        ] {
            for cpus in [1u32, 7, 30] {
                let d = policy.place(&job(cpus, 60, 100_000), &fx.view(), true, &mut rng);
                let mut chips = d.chips().to_vec();
                chips.sort();
                chips.dedup();
                assert_eq!(chips.len(), cpus as usize, "{}", policy.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "wider than the in-service fleet")]
    fn job_wider_than_fleet_panics() {
        let fx = Fixture::new(4);
        let mut rng = SimRng::new(8);
        EfficiencyPlacement.place(&job(8, 10, 100), &fx.view(), false, &mut rng);
    }

    #[test]
    fn blocked_chips_are_never_chosen() {
        let mut fx = Fixture::new(20);
        // Block the 5 most efficient chips (the ones Effi would want) and
        // a scattering of others.
        for c in &fx.plan.ranking().to_vec()[..5] {
            fx.blocked[c.0 as usize] = true;
        }
        fx.blocked[13] = true;
        let mut rng = SimRng::new(9);
        for policy in [
            &RandomPlacement as &dyn Placement,
            &EfficiencyPlacement,
            &FairPlacement,
        ] {
            for _ in 0..50 {
                let d = policy.place(&job(4, 60, 100_000), &fx.view(), true, &mut rng);
                assert!(
                    d.chips().iter().all(|&c| !fx.blocked[c.0 as usize]),
                    "{} picked a blocked chip",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn best_effort_avoids_blocked_chips_too() {
        let mut fx = Fixture::new(8);
        for a in fx.avail.iter_mut() {
            *a = SimTime::from_secs(10_000);
        }
        fx.blocked[0] = true;
        fx.blocked[1] = true;
        let mut rng = SimRng::new(10);
        let d = EfficiencyPlacement.place(&job(4, 100, 50), &fx.view(), false, &mut rng);
        assert!(!d.is_feasible());
        assert!(d.chips().iter().all(|&c| !fx.blocked[c.0 as usize]));
    }

    /// A mixed pool (busy, idle, blocked, skewed usage) driven through
    /// every policy with and without indexes: the decisions must be
    /// identical. In debug builds the indexed run additionally
    /// cross-checks itself against the linear path inside the dispatch.
    #[test]
    fn indexed_views_match_linear_decisions() {
        let mut fx = Fixture::new(40);
        for i in 0..40 {
            fx.avail[i] = SimTime::from_secs((i as u64 * 37) % 900);
            fx.usage[i] = SimDuration::from_secs((i as u64 * 71) % 5000);
        }
        fx.usage[13] = SimDuration::ZERO;
        fx.blocked[5] = true;
        fx.blocked[21] = true;
        let linear: Vec<PlacementDecision> = {
            let mut rng = SimRng::new(12);
            [1u32, 4, 9]
                .iter()
                .flat_map(|&cpus| {
                    [
                        RandomPlacement.place(&job(cpus, 300, 600), &fx.view(), true, &mut rng),
                        EfficiencyPlacement.place(&job(cpus, 300, 600), &fx.view(), true, &mut rng),
                        FairPlacement.place(&job(cpus, 300, 600), &fx.view(), true, &mut rng),
                        FairPlacement.place(&job(cpus, 300, 600), &fx.view(), false, &mut rng),
                    ]
                })
                .collect()
        };
        fx.build_index();
        let mut rng = SimRng::new(12);
        let indexed: Vec<PlacementDecision> = [1u32, 4, 9]
            .iter()
            .flat_map(|&cpus| {
                [
                    RandomPlacement.place(&job(cpus, 300, 600), &fx.view(), true, &mut rng),
                    EfficiencyPlacement.place(&job(cpus, 300, 600), &fx.view(), true, &mut rng),
                    FairPlacement.place(&job(cpus, 300, 600), &fx.view(), true, &mut rng),
                    FairPlacement.place(&job(cpus, 300, 600), &fx.view(), false, &mut rng),
                ]
            })
            .collect();
        assert_eq!(linear, indexed);
    }

    /// Impossible deadlines force the best-effort tail; indexed and
    /// linear extraction must agree there too, including when blocked
    /// chips sit at the front of the earliest-available order.
    #[test]
    fn indexed_best_effort_matches_linear() {
        let mut fx = Fixture::new(16);
        for i in 0..16 {
            fx.avail[i] = SimTime::from_secs(5_000 + (i as u64 * 97) % 1000);
        }
        fx.blocked[2] = true;
        let mut rng = SimRng::new(13);
        let linear = FairPlacement.place(&job(5, 100, 10), &fx.view(), true, &mut rng);
        fx.build_index();
        let indexed = FairPlacement.place(&job(5, 100, 10), &fx.view(), true, &mut rng);
        assert!(!indexed.is_feasible());
        assert_eq!(linear, indexed);
    }

    /// A zero-wide job gets the same decision from the plain, linear and
    /// indexed walks (the indexed ones cross-check the others in debug
    /// builds), both when its latest start is already past and when it
    /// can still start on time.
    #[test]
    fn zero_width_jobs_place_alike_on_every_walk() {
        let mut fx = Fixture::new(40);
        for i in 0..40 {
            fx.avail[i] = SimTime::from_secs((i as u64 * 37) % 900);
            fx.usage[i] = SimDuration::from_secs((i as u64 * 71) % 5000);
        }
        fx.blocked[5] = true;
        // Latest start 200 s before now, and a latest start 300 s after it.
        let jobs = [job(0, 300, 100), job(0, 300, 600)];
        let place = |fx: &Fixture| -> Vec<PlacementDecision> {
            let view = fx.view();
            let mut rng = SimRng::new(14);
            jobs.iter()
                .flat_map(|j| {
                    [
                        EfficiencyPlacement.place(j, &view, false, &mut rng),
                        FairPlacement.place(j, &view, true, &mut rng),
                        FairPlacement.place(j, &view, false, &mut rng),
                    ]
                })
                .collect()
        };
        let linear = place(&fx);
        fx.build_index();
        let indexed = place(&fx);
        assert_eq!(linear, indexed);
        assert!(linear[..3].iter().all(|d| !d.is_feasible()));
        assert!(linear[3..].iter().all(|d| d.is_feasible()));
    }
}
