//! Persistent chip indexes over the pool orderings the placement
//! policies walk, so a decision extracts its candidates without
//! re-materializing and partially sorting a fleet-sized pool on every
//! arrival.
//!
//! Three orderings matter (§IV.B), and they get different structures
//! because their update/query mix differs by orders of magnitude:
//!
//! * `(usage, id)` — Fair's surplus mode walks the least-used chips.
//!   Usage changes on every job finish (one update per gang chip, ~100×
//!   more updates than queries), so a tree paying O(log F) per update is
//!   the wrong shape, and tournament-tree extraction wanders the node
//!   array in usage order — one cache miss per yielded chip. Instead the
//!   index keeps the fleet as **bucketed sorted runs** of packed keys
//!   (~`BUCKET_TARGET` keys each, split at 2×) with a dirty set: an
//!   update is a flag mark plus a list push (O(1)), and acquiring the
//!   ordering repairs lazily by relocating *only the dirty chips* — a
//!   bucket lookup over the run minima plus one short memmove inside the
//!   run, O(dirt · (log #runs + run len)) instead of the O(fleet) merge
//!   pass a flat array forces. Rank reads then go through a prefix-count
//!   directory rebuilt once per acquisition. Repairs must be O(dirt):
//!   at 50k chips a fleet-wide pass per acquisition is ~75 µs of every
//!   placement, and dirt (the chips a gang finish re-keys) does not grow
//!   with the fleet — the flat-array variant is superlinear end to end.
//! * clamped `(max(avail, now), id)` — best effort takes the earliest-
//!   available chips. `now` varies per decision, so this ordering cannot
//!   be stored directly; it is split into a **busy** tournament tree
//!   (chips with queued work, keyed by their raw drain time, `>= now`
//!   whenever the index is current) and an **idle** tree (keyed by id
//!   only — every idle chip clamps to exactly `now`), merged at query
//!   time by adding `now` to the idle keys. Transitions record the new
//!   state and push the chip onto a dirty list; the next cursor
//!   acquisition rewrites just those chips' leaves and their root paths,
//!   O(dirt · log F), falling back to a full O(F) rebuild only when the
//!   dirt is fleet-sized or an epoch invalidation rewrote every slot.
//!   Identical leaves produce identical trees, so the point-update path
//!   is bit-identical to the rebuild it replaces.
//! * the efficiency ranking — already a precomputed rank array on the
//!   [`OperatingPlan`](iscope_pvmodel::OperatingPlan); the prefix walk
//!   over it was never O(fleet) and needs no index.
//!
//! Keys are packed integers (`millis << 24 | id`, 40 bits of
//! milliseconds and 24 bits of chip id — enough for 34 simulated years
//! over 16 million chips), so one u64 comparison decides the full
//! ordering tuple and the extracted order is bit-identical to what
//! sorting the linear pool by the same tuple produces — determinism
//! falls out of the packing, not of any float tolerance. The owner (the
//! simulator) maintains the indexes at the same transition points that
//! maintain `avail`/`usage`, and refreshes the availability pair
//! wholesale whenever the lazy queue replay rewrites `avail` (the
//! epoch-invalidation rule; see DESIGN.md §3d).

use iscope_dcsim::{SimDuration, SimTime};
use iscope_pvmodel::ChipId;
use std::cell::{RefCell, RefMut};

/// Bits reserved for the chip id in a packed key.
pub(crate) const ID_BITS: u32 = 24;

/// Sentinel for "chip absent from this tree".
const NONE_KEY: u64 = u64::MAX;

/// Packs an ordering tuple `(millis, id)` into one comparable integer.
pub(crate) fn pack(ms: u64, id: u32) -> u64 {
    debug_assert!(ms < 1 << (64 - ID_BITS), "timestamp overflows packed key");
    debug_assert!(id < 1 << ID_BITS, "chip id overflows packed key");
    (ms << ID_BITS) | id as u64
}

/// A `(timestamp, chip id)` pair that cannot be packed without wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRangeError {
    /// Timestamp in milliseconds that was checked.
    pub ms: u64,
    /// Chip id that was checked.
    pub id: u32,
    /// Which half of the pair overflowed.
    pub what: &'static str,
}

impl std::fmt::Display for KeyRangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} overflows the packed index key (ms = {}, id = {}): \
             limits are {} ms and {} chips",
            self.what,
            self.ms,
            self.id,
            (1u64 << (64 - ID_BITS)) - 1,
            1u64 << ID_BITS,
        )
    }
}

impl std::error::Error for KeyRangeError {}

/// Release-mode checked variant of the `pack` range test, for
/// *untrusted* inputs — snapshot restore in particular. The hot placement
/// path keeps its `debug_assert!`s (the simulator constructs those keys
/// from values it already bounded); a corrupt or hand-edited snapshot
/// instead fails loudly here rather than silently wrapping a chip id or
/// timestamp into someone else's key space.
pub fn validate_key_range(ms: u64, id: u32) -> Result<(), KeyRangeError> {
    if ms >= 1 << (64 - ID_BITS) {
        return Err(KeyRangeError {
            ms,
            id,
            what: "timestamp",
        });
    }
    if u64::from(id) >= 1 << ID_BITS {
        return Err(KeyRangeError {
            ms,
            id,
            what: "chip id",
        });
    }
    Ok(())
}

pub(crate) fn unpack_id(key: u64) -> u32 {
    (key & ((1 << ID_BITS) - 1)) as u32
}

fn unpack_ms(key: u64) -> u64 {
    key >> ID_BITS
}

/// An array-backed tournament (min segment) tree over chip slots. Leaf
/// `i` holds chip `i`'s packed key or [`NONE_KEY`]; every internal node
/// holds the minimum of its children.
#[derive(Debug)]
struct MinTree {
    /// Number of leaves in use (the fleet size).
    leaves: usize,
    /// Power-of-two leaf span; leaf `i` lives at `nodes[base + i]`.
    base: usize,
    /// 1-based heap layout, `nodes[1]` is the root.
    nodes: Vec<u64>,
}

impl MinTree {
    fn new(leaves: usize) -> MinTree {
        let base = leaves.next_power_of_two().max(1);
        MinTree {
            leaves,
            base,
            nodes: vec![NONE_KEY; 2 * base],
        }
    }

    /// Rebuilds every leaf from `key(i)` and all internal nodes bottom-up.
    fn rebuild(&mut self, key: impl Fn(usize) -> u64) {
        for i in 0..self.leaves {
            self.nodes[self.base + i] = key(i);
        }
        for node in (1..self.base).rev() {
            self.nodes[node] = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
        }
    }

    /// Point update: rewrites leaf `i` and recomputes its root path.
    /// O(log F); produces exactly the tree `rebuild` would from the same
    /// leaves (min is deterministic), so point updates and full rebuilds
    /// are interchangeable without observable difference.
    fn set(&mut self, i: usize, key: u64) {
        let mut node = self.base + i;
        if self.nodes[node] == key {
            return;
        }
        self.nodes[node] = key;
        node /= 2;
        while node >= 1 {
            let merged = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
            if self.nodes[node] == merged {
                return;
            }
            self.nodes[node] = merged;
            node /= 2;
        }
    }
}

/// Target keys per sorted run; runs split when they reach 2× this.
/// Small enough that a dirty-chip relocation's memmove stays within a
/// few cache lines' worth of work, large enough that the run directory
/// (`mins`/`cum`) stays tiny (≈ fleet/256 entries).
const BUCKET_TARGET: usize = 256;

/// The exact least-used ordering plus its pending re-keys, stored as
/// bucketed sorted runs so a repair touches only the dirty chips.
#[derive(Debug)]
struct UsageIndex {
    /// Sorted runs, each ascending, concatenation ascending; every run
    /// non-empty and at most `2 * BUCKET_TARGET` long (except a lone
    /// run in a tiny fleet may sit below target).
    runs: Vec<Vec<u64>>,
    /// `mins[b] == runs[b][0]` — the binary-searchable run directory.
    mins: Vec<u64>,
    /// Prefix counts: `cum[b]` = keys in `runs[..b]`, `cum.len() ==
    /// runs.len() + 1`. Rebuilt lazily at acquisition (`cum_fresh`);
    /// rank reads binary-search it.
    cum: Vec<usize>,
    cum_fresh: bool,
    /// Current usage per chip, the source of truth for repairs.
    usage_ms: Vec<u64>,
    /// The key chip `c` is currently filed under (so a repair can find
    /// and remove it without knowing its history).
    cur_key: Vec<u64>,
    /// `dirty[c]`: chip `c`'s filed key is stale.
    dirty: Vec<bool>,
    /// The dirty chips, unordered, each exactly once.
    dirty_list: Vec<u32>,
}

impl UsageIndex {
    fn new(n: usize) -> UsageIndex {
        let keys: Vec<u64> = (0..n as u32).map(|i| pack(0, i)).collect();
        let mut idx = UsageIndex {
            runs: keys.chunks(BUCKET_TARGET).map(|c| c.to_vec()).collect(),
            mins: Vec::new(),
            cum: Vec::new(),
            cum_fresh: false,
            usage_ms: vec![0; n],
            cur_key: keys,
            dirty: vec![false; n],
            dirty_list: Vec::new(),
        };
        idx.mins = idx.runs.iter().map(|r| r[0]).collect();
        idx.rebuild_cum();
        idx
    }

    /// The run whose span covers `key` (the last run with `min <= key`;
    /// run 0 when `key` precedes everything).
    fn run_of(&self, key: u64) -> usize {
        self.mins.partition_point(|&m| m <= key).saturating_sub(1)
    }

    /// Removes `key` (which must be filed) from its run; drops the run
    /// if it empties.
    fn remove_key(&mut self, key: u64) {
        self.cum_fresh = false;
        let b = self.run_of(key);
        let run = &mut self.runs[b];
        let pos = run.partition_point(|&k| k < key);
        debug_assert_eq!(run.get(pos), Some(&key), "removing unfiled key");
        run.remove(pos);
        if run.is_empty() {
            self.runs.remove(b);
            self.mins.remove(b);
        } else if pos == 0 {
            self.mins[b] = self.runs[b][0];
        }
    }

    /// Files `key` into its run, splitting the run in half if it grew
    /// past `2 * BUCKET_TARGET`.
    fn insert_key(&mut self, key: u64) {
        self.cum_fresh = false;
        if self.runs.is_empty() {
            self.runs.push(vec![key]);
            self.mins.push(key);
            return;
        }
        let b = self.run_of(key);
        let run = &mut self.runs[b];
        let pos = run.partition_point(|&k| k < key);
        run.insert(pos, key);
        if pos == 0 {
            self.mins[b] = key;
        }
        if run.len() > 2 * BUCKET_TARGET {
            let tail = run.split_off(run.len() / 2);
            self.mins.insert(b + 1, tail[0]);
            self.runs.insert(b + 1, tail);
        }
    }

    fn rebuild_cum(&mut self) {
        self.cum.clear();
        self.cum.push(0);
        let mut total = 0;
        for r in &self.runs {
            total += r.len();
            self.cum.push(total);
        }
        self.cum_fresh = true;
    }

    /// Relocates every dirty chip to its fresh key — O(dirt) run
    /// lookups and short memmoves, never a fleet-wide pass — then
    /// refreshes the rank directory.
    fn repair(&mut self) {
        for di in 0..self.dirty_list.len() {
            let c = self.dirty_list[di];
            let old = self.cur_key[c as usize];
            let new = pack(self.usage_ms[c as usize], c);
            if new != old {
                self.remove_key(old);
                self.insert_key(new);
                self.cur_key[c as usize] = new;
            }
            self.dirty[c as usize] = false;
        }
        self.dirty_list.clear();
        if !self.cum_fresh {
            self.rebuild_cum();
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Debug ground truth: the runs hold every chip's current key, in
    /// ascending order, with a consistent directory — i.e. exactly the
    /// flat sorted array the old merge-repair maintained.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        assert_eq!(self.cum.len(), self.runs.len() + 1);
        assert_eq!(*self.cum.last().unwrap(), self.usage_ms.len());
        let mut prev = None;
        for (b, run) in self.runs.iter().enumerate() {
            assert!(!run.is_empty(), "empty run survived");
            assert_eq!(self.mins[b], run[0], "stale run min");
            assert_eq!(self.cum[b + 1] - self.cum[b], run.len());
            for &k in run {
                assert!(prev < Some(k), "keys out of order");
                assert_eq!(
                    k,
                    pack(self.usage_ms[unpack_id(k) as usize], unpack_id(k)),
                    "filed key does not match current usage"
                );
                prev = Some(k);
            }
        }
    }

    /// The key at `rank` in ascending order (directory must be fresh).
    fn key_at(&self, rank: usize) -> u64 {
        debug_assert!(self.cum_fresh && self.dirty_list.is_empty());
        let b = self.cum.partition_point(|&c| c <= rank) - 1;
        self.runs[b][rank - self.cum[b]]
    }
}

/// The availability state plus the busy/idle tree pair built from it.
#[derive(Debug)]
struct AvailIndex {
    /// Last recorded drain time per chip (meaningful while busy).
    avail_ms: Vec<u64>,
    /// Whether the chip has queued work.
    is_busy: Vec<bool>,
    /// Every slot is suspect (epoch invalidation or initial state):
    /// the next refresh rebuilds both trees wholesale.
    rebuild_all: bool,
    /// `dirty[c]`: chip `c` transitioned since the last refresh; its
    /// leaves get point-updated. Subsumed by `rebuild_all`.
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Raw `(avail, id)` over busy chips.
    busy: MinTree,
    /// `(0, id)` over idle chips; `now` is added at query time.
    idle: MinTree,
}

impl AvailIndex {
    /// Brings the trees current: point updates for recorded transitions
    /// (O(dirt · log F)), a full rebuild after an epoch invalidation or
    /// when the dirt is fleet-sized and the rebuild is simply cheaper.
    /// Either path writes the same leaves, hence the same trees.
    fn refresh(&mut self) {
        let n = self.avail_ms.len();
        let log_f = usize::BITS - self.busy.base.leading_zeros();
        if self.rebuild_all || self.dirty_list.len() * (log_f as usize + 1) > 2 * n {
            let (avail_ms, is_busy) = (&self.avail_ms, &self.is_busy);
            self.busy.rebuild(|i| {
                if is_busy[i] {
                    pack(avail_ms[i], i as u32)
                } else {
                    NONE_KEY
                }
            });
            self.idle.rebuild(|i| {
                if is_busy[i] {
                    NONE_KEY
                } else {
                    pack(0, i as u32)
                }
            });
            self.rebuild_all = false;
            for &c in &self.dirty_list {
                self.dirty[c as usize] = false;
            }
            self.dirty_list.clear();
            return;
        }
        for di in 0..self.dirty_list.len() {
            let i = self.dirty_list[di] as usize;
            if self.is_busy[i] {
                self.busy.set(i, pack(self.avail_ms[i], i as u32));
                self.idle.set(i, NONE_KEY);
            } else {
                self.busy.set(i, NONE_KEY);
                self.idle.set(i, pack(0, i as u32));
            }
            self.dirty[i] = false;
        }
        self.dirty_list.clear();
    }

    /// Records a transition on chip `i` for the next refresh.
    fn mark(&mut self, i: usize) {
        if !self.rebuild_all && !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(i as u32);
        }
    }
}

/// The exact fleet ordering by `(usage, id)`, acquired from
/// [`ChipIndexes::least_used`]. Holds the interior borrow (one live
/// acquisition at a time); pending re-keys were repaired on acquisition,
/// so ranks read straight out of the sorted array.
pub struct LeastUsed<'a>(RefMut<'a, UsageIndex>);

impl LeastUsed<'_> {
    /// Number of chips in the ordering (the fleet size).
    pub fn len(&self) -> usize {
        self.0.usage_ms.len()
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.0.usage_ms.is_empty()
    }

    /// The chip at `rank` in ascending `(usage, id)` order.
    pub fn chip(&self, rank: usize) -> ChipId {
        ChipId(unpack_id(self.0.key_at(rank)))
    }
}

/// Live borrow of the ranking block-min bounds, acquired from
/// [`ChipIndexes::ranked_prefix`] for the duration of one prefix walk.
pub struct RankedPrefix<'a>(RefMut<'a, RankBlocks>);

impl RankedPrefix<'_> {
    /// Ranking positions covered by one block.
    pub const BLOCK: usize = RANK_BLOCK;

    /// The lower bound on block `b`'s minimum **clamped** `(max(avail,
    /// now), id)` key, given `now_floor = pack(now_ms, 0)`: the min of
    /// the drained-chip bound `pack(now, idle_lb)` and the occupied-chip
    /// raw bound (floored at `now_floor`, since an occupied chip never
    /// drains in the past while the index is current).
    pub fn block_lb(&self, b: usize, now_floor: u64) -> u64 {
        let busy = self.0.busy_lb[b].max(now_floor);
        let idle = self.0.idle_lb[b];
        if idle == NO_IDLE {
            busy
        } else {
            busy.min(now_floor | idle as u64)
        }
    }

    /// The current raw `pack(avail_ms, id)` keys, one per ranking
    /// position — contiguous, so a block scan is a linear pass.
    pub fn keys(&self) -> &[u64] {
        &self.0.keys
    }

    /// Records the exact minima the walk just observed while scanning
    /// block `b` in full (all chips, blocked included): the min raw key
    /// over chips draining at or after `now` and the min id over chips
    /// already drained — tightening stale-low bounds so the next walk
    /// can skip the block.
    pub fn note_block(&mut self, b: usize, busy_min: u64, idle_min_id: u32) {
        self.0.busy_lb[b] = busy_min;
        self.0.idle_lb[b] = idle_min_id;
    }
}

/// A heap entry of an [`IndexCursor`]: the entry's adjusted key plus a
/// packed node pointer (tree tag in the top bit, node index below).
/// Entries alive at any moment root disjoint subtrees whose leaf sets
/// are disjoint chip sets, so their keys are distinct and the pop order
/// is fully deterministic.
type HeapEntry = (u64, u32);

/// Tag bit marking an entry of the busy tree.
const TAG_BIT: u32 = 1 << 31;

/// Ascending-order iterator over the merged busy/idle availability pair,
/// acquired from [`ChipIndexes::earliest_available`].
///
/// Extraction is heap-guided descent: pop the smallest live entry; a
/// leaf is yielded, an internal node is replaced by its non-empty
/// children. The trees are never mutated, so a cursor costs O(k log F)
/// for k items and nothing to abandon — exactly what the best-effort
/// head extraction needs, since it consumes only `n` chips.
pub struct IndexCursor<'a> {
    avail: RefMut<'a, AvailIndex>,
    /// Reusable binary-heap storage, borrowed from the owning
    /// [`ChipIndexes`] for the cursor's lifetime (one cursor at a time).
    heap: RefMut<'a, Vec<HeapEntry>>,
    /// Added to every idle-tree key: idle chips clamp to exactly `now`.
    idle_offset: u64,
    /// Debug floor on the millis half of busy yields: busy chips must
    /// never drain before `now` while the index is current.
    now_ms: u64,
}

impl<'a> IndexCursor<'a> {
    fn new(
        mut avail: RefMut<'a, AvailIndex>,
        mut heap: RefMut<'a, Vec<HeapEntry>>,
        now_ms: u64,
    ) -> IndexCursor<'a> {
        avail.refresh();
        heap.clear();
        let idle_offset = pack(now_ms, 0);
        let mut cursor = IndexCursor {
            avail,
            heap,
            idle_offset,
            now_ms,
        };
        for (tag, offset) in [(0u32, idle_offset), (TAG_BIT, 0)] {
            let tree = if tag == 0 {
                &cursor.avail.idle
            } else {
                &cursor.avail.busy
            };
            match tree.nodes.get(1) {
                Some(&root) if root != NONE_KEY => cursor.push((root + offset, tag | 1)),
                _ => {}
            }
        }
        cursor
    }

    fn push(&mut self, entry: HeapEntry) {
        self.heap.push(entry);
        let heap = &mut *self.heap;
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent].0 <= heap[i].0 {
                break;
            }
            heap.swap(parent, i);
            i = parent;
        }
    }

    /// Replaces the heap root with `entry` and restores the heap
    /// property downward.
    fn replace_root(&mut self, entry: HeapEntry) {
        let heap = &mut *self.heap;
        heap[0] = entry;
        let len = heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < len && heap[l].0 < heap[smallest].0 {
                smallest = l;
            }
            if r < len && heap[r].0 < heap[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            heap.swap(i, smallest);
            i = smallest;
        }
    }

    /// Removes the heap root and restores the heap property.
    fn pop_root(&mut self) {
        if let Some(last) = self.heap.pop() {
            if !self.heap.is_empty() {
                self.replace_root(last);
            }
        }
    }
}

impl Iterator for IndexCursor<'_> {
    type Item = ChipId;

    fn next(&mut self) -> Option<ChipId> {
        loop {
            let &(key, packed) = self.heap.first()?;
            let busy = packed & TAG_BIT != 0;
            let node = (packed & !TAG_BIT) as usize;
            let (tree, offset) = if busy {
                (&self.avail.busy, 0)
            } else {
                (&self.avail.idle, self.idle_offset)
            };
            if node >= tree.base {
                debug_assert!(
                    !busy || unpack_ms(key) >= self.now_ms,
                    "stale index: busy chip drains before now"
                );
                debug_assert_eq!(unpack_id(key) as usize, node - tree.base);
                self.pop_root();
                return Some(ChipId(unpack_id(key)));
            }
            // Internal node: replace it by its smaller-indexed live child
            // in place (one sift instead of a pop + push), pushing the
            // other child if it is live too.
            let tag = packed & TAG_BIT;
            let l = tree.nodes[2 * node];
            let r = tree.nodes[2 * node + 1];
            if l != NONE_KEY {
                let right = (r != NONE_KEY).then(|| (r + offset, tag | (2 * node + 1) as u32));
                self.replace_root((l + offset, tag | (2 * node) as u32));
                if let Some(entry) = right {
                    self.push(entry);
                }
            } else {
                debug_assert_ne!(r, NONE_KEY, "internal key without a live child");
                self.replace_root((r + offset, tag | (2 * node + 1) as u32));
            }
        }
    }
}

/// Ranking positions per block of [`RankBlocks`].
pub(crate) const RANK_BLOCK: usize = 64;

/// Sentinel for "no chip of this block is known idle".
pub(crate) const NO_IDLE: u32 = u32::MAX;

/// The registered preference ranking chunked into [`RANK_BLOCK`]-position
/// blocks, each carrying a **lower bound** on the minimum clamped
/// `(max(avail, now), id)` key among its chips, split by queue state —
/// which is what makes the bound usable at any future `now`:
///
/// - an **occupied** chip's clamped key equals its raw `(avail, id)`
///   key (its drain is in the future), so `busy_lb` bounds it directly;
/// - a **drained** chip clamps to `pack(now, id)`, so `pack(now,
///   idle_lb)` bounds it whatever `now` has advanced to;
/// - a chip that drains *between* refreshes gets `chip_idle`d at its
///   drain event — before any later placement can observe it idle — so
///   `idle_lb` already covers it, and until then its raw key (counted
///   in `busy_lb`) is itself `<=` its clamped key.
///
/// A walk skips block `b` once its top-n heap is full and
/// `min(pack(now, idle_lb[b]), max(busy_lb[b], pack(now, 0))) >=
/// root`: no chip in the block can displace a heap entry. The bounds
/// stay sound with O(1) maintenance because keys only move one way
/// between refreshes: a placement pushes a chip's drain later
/// (`chip_busy` still folds the new key in, which also covers a key
/// that drops), a drain lowers `idle_lb` via `chip_idle`, an epoch
/// invalidation (`rebuild_avail`) and a re-registered ranking recompute
/// every bound exactly, and walks refresh the bounds of each block they
/// actually scan (over all chips in the block — blocked ones included,
/// since quarantined chips can return). A stale-low bound only costs
/// one wasted scan of that block, which refreshes it.
#[derive(Debug, Default)]
struct RankBlocks {
    /// Snapshot of the registered ranking (chip ids in preference order).
    order: Vec<u32>,
    /// Chip id → position in `order` (so transitions find their block).
    pos: Vec<u32>,
    /// Per block: lower bound on min `pack(avail_ms, id)` over its chips
    /// whose queues are occupied (their clamped keys equal their raw
    /// keys, so this bounds their contribution directly).
    busy_lb: Vec<u64>,
    /// Per block: lower bound on the min chip id among its **drained**
    /// chips — those clamp to `pack(now, id)`, so at walk time the
    /// bound `pack(now, idle_lb)` covers them no matter what `now` is.
    /// [`NO_IDLE`] when no chip of the block is known drained.
    idle_lb: Vec<u32>,
    /// Per position: the current raw `pack(avail_ms, id)` key of the chip
    /// at that ranking position. Mirrors `AvailIndex::avail_ms` (updated
    /// in lock-step by `chip_busy` / `rebuild_avail`), laid out in
    /// ranking order so a block scan is one linear pass over packed
    /// `u64`s instead of a gather over the fleet-sized avail array.
    keys: Vec<u64>,
}

impl RankBlocks {
    fn rebuild_mins(&mut self, avail_ms: &[u64], is_busy: &[bool]) {
        self.keys.clear();
        self.keys
            .extend(self.order.iter().map(|&c| pack(avail_ms[c as usize], c)));
        self.busy_lb.clear();
        self.idle_lb.clear();
        for block in self.order.chunks(RANK_BLOCK) {
            let mut busy = NONE_KEY;
            let mut idle = NO_IDLE;
            for &c in block {
                if is_busy[c as usize] {
                    busy = busy.min(pack(avail_ms[c as usize], c));
                } else {
                    idle = idle.min(c);
                }
            }
            self.busy_lb.push(busy);
            self.idle_lb.push(idle);
        }
    }
}

/// The persistent per-fleet indexes the indexed placement path consumes:
/// the least-used ordering over all chips and the busy/idle availability
/// pair (see the module docs for the structures behind each).
#[derive(Debug)]
pub struct ChipIndexes {
    /// Fleet size.
    n: usize,
    /// `(usage, id)` over every chip, blocked or not — consumers filter
    /// blocked chips exactly like the linear pool they replace.
    usage: RefCell<UsageIndex>,
    /// Clamped `(avail, id)` state and trees.
    avail: RefCell<AvailIndex>,
    /// Shared cursor heap storage; borrowing enforces one live cursor.
    heap: RefCell<Vec<HeapEntry>>,
    /// Block-min bounds over the registered preference ranking (empty
    /// until [`ChipIndexes::set_ranking`]).
    rank: RefCell<RankBlocks>,
}

impl ChipIndexes {
    /// A fleet of `n` chips, all idle with zero usage (the start state).
    pub fn new(n: usize) -> ChipIndexes {
        ChipIndexes {
            n,
            usage: RefCell::new(UsageIndex::new(n)),
            avail: RefCell::new(AvailIndex {
                avail_ms: vec![0; n],
                is_busy: vec![false; n],
                rebuild_all: true,
                dirty: vec![false; n],
                dirty_list: Vec::new(),
                busy: MinTree::new(n),
                idle: MinTree::new(n),
            }),
            heap: RefCell::new(Vec::new()),
            rank: RefCell::new(RankBlocks::default()),
        }
    }

    /// Registers the preference ranking the prefix walks traverse (the
    /// plan's efficiency order) and computes exact block minima from the
    /// current availability state. Call at construction time and again
    /// whenever the ranking changes (a plan upgrade re-sorts it) — a
    /// walk over an unregistered or mismatched ranking falls back to the
    /// plain unskipped path.
    pub fn set_ranking(&mut self, ranking: &[ChipId]) {
        assert_eq!(ranking.len(), self.n, "ranking must cover the fleet");
        let a = self.avail.get_mut();
        let r = self.rank.get_mut();
        r.order.clear();
        r.order.extend(ranking.iter().map(|c| c.0));
        r.pos.resize(self.n, 0);
        for (p, &c) in r.order.iter().enumerate() {
            r.pos[c as usize] = p as u32;
        }
        r.rebuild_mins(&a.avail_ms, &a.is_busy);
    }

    /// Number of chips indexed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Records `chip`'s new cumulative busy time (call on job finish).
    /// O(1): marks the chip's sorted entry stale; the next
    /// [`ChipIndexes::least_used`] acquisition repairs in one pass.
    pub fn set_usage(&mut self, chip: ChipId, usage: SimDuration) {
        let u = self.usage.get_mut();
        let i = chip.0 as usize;
        u.usage_ms[i] = usage.as_millis();
        if !u.dirty[i] {
            u.dirty[i] = true;
            u.dirty_list.push(chip.0);
        }
    }

    /// Records that `chip` has queued work draining at `drains_at` (call
    /// when a placement lands on the chip). O(1): the busy/idle trees
    /// rebuild on the next [`ChipIndexes::earliest_available`].
    pub fn chip_busy(&mut self, chip: ChipId, drains_at: SimTime) {
        let a = self.avail.get_mut();
        let i = chip.0 as usize;
        a.avail_ms[i] = drains_at.as_millis();
        a.is_busy[i] = true;
        a.mark(i);
        // Keep the ranking block's bound a lower bound: drain times
        // normally only move later (leaving the bound stale-low, which
        // is sound), but if this key dropped below the bound, follow it.
        let r = self.rank.get_mut();
        if !r.order.is_empty() {
            let p = r.pos[i] as usize;
            let key = pack(a.avail_ms[i], chip.0);
            r.keys[p] = key;
            let b = p / RANK_BLOCK;
            if key < r.busy_lb[b] {
                r.busy_lb[b] = key;
            }
        }
    }

    /// Records that `chip`'s queue drained. O(1), like
    /// [`ChipIndexes::chip_busy`].
    pub fn chip_idle(&mut self, chip: ChipId) {
        let a = self.avail.get_mut();
        let i = chip.0 as usize;
        a.is_busy[i] = false;
        a.mark(i);
        // The chip's clamped key now tracks `pack(now, id)`: fold its id
        // into the block's drained-min bound.
        let r = self.rank.get_mut();
        if !r.order.is_empty() {
            let b = r.pos[i] as usize / RANK_BLOCK;
            if chip.0 < r.idle_lb[b] {
                r.idle_lb[b] = chip.0;
            }
        }
    }

    /// Epoch invalidation: re-records the whole availability state from
    /// fresh `avail` values and the queue-occupancy predicate. The owner
    /// calls this whenever a queue replay rewrote `avail` (DVFS
    /// rebalance, deferral, faults, or carbon).
    pub fn rebuild_avail(&mut self, avail: &[SimTime], busy: impl Fn(usize) -> bool) {
        let a = self.avail.get_mut();
        debug_assert_eq!(avail.len(), a.avail_ms.len());
        for (i, &t) in avail.iter().enumerate() {
            a.avail_ms[i] = t.as_millis();
            a.is_busy[i] = busy(i);
        }
        a.rebuild_all = true;
        for &c in &a.dirty_list {
            a.dirty[c as usize] = false;
        }
        a.dirty_list.clear();
        let r = self.rank.get_mut();
        if !r.order.is_empty() {
            r.rebuild_mins(&a.avail_ms, &a.is_busy);
        }
    }

    /// Acquires the exact ascending `(usage, id)` ordering — the
    /// least-used ordering Fair's surplus mode walks — repairing any
    /// pending re-keys first. Panics if another acquisition is live.
    pub fn least_used(&self) -> LeastUsed<'_> {
        let mut u = self.usage.borrow_mut();
        u.repair();
        LeastUsed(u)
    }

    /// Acquires the block-min bounds for a prefix walk over `ranking`.
    /// Returns `None` when no ranking is registered or the registered
    /// one has a different length (a foreign ranking — the walk must
    /// use the plain path). Panics if another acquisition is live.
    pub fn ranked_prefix(&self, ranking: &[ChipId]) -> Option<RankedPrefix<'_>> {
        let r = self.rank.borrow_mut();
        if r.order.len() != ranking.len() || r.order.is_empty() {
            return None;
        }
        debug_assert!(
            r.order.iter().zip(ranking).all(|(&a, b)| a == b.0),
            "walked ranking is not the registered one"
        );
        Some(RankedPrefix(r))
    }

    /// Cursor over every chip in ascending clamped `(max(avail, now),
    /// id)` order — the earliest-available ordering best effort takes.
    /// Busy chips compare by their raw drain time (necessarily `>= now`
    /// while the index is current, asserted in debug builds); idle chips
    /// clamp to exactly `now` and order by id. Rebuilds the tree pair
    /// first if any transition was recorded since the last cursor.
    /// Panics if another cursor is live.
    pub fn earliest_available(&self, now: SimTime) -> IndexCursor<'_> {
        IndexCursor::new(
            self.avail.borrow_mut(),
            self.heap.borrow_mut(),
            now.as_millis(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(ms: &[u64]) -> Vec<SimTime> {
        ms.iter()
            .map(|&m| SimTime::ZERO + SimDuration::from_millis(m))
            .collect()
    }

    fn least_used_ids(idx: &ChipIndexes) -> Vec<u32> {
        let lu = idx.least_used();
        (0..lu.len()).map(|r| lu.chip(r).0).collect()
    }

    #[test]
    fn least_used_yields_usage_then_id_order() {
        let mut idx = ChipIndexes::new(5);
        idx.set_usage(ChipId(0), SimDuration::from_millis(30));
        idx.set_usage(ChipId(1), SimDuration::from_millis(10));
        idx.set_usage(ChipId(2), SimDuration::from_millis(30));
        idx.set_usage(ChipId(3), SimDuration::ZERO);
        idx.set_usage(ChipId(4), SimDuration::from_millis(10));
        assert_eq!(least_used_ids(&idx), vec![3, 1, 4, 0, 2]);
    }

    #[test]
    fn lazy_repair_matches_full_sort() {
        let mut idx = ChipIndexes::new(32);
        let mut usage = vec![0u64; 32];
        // Interleave bursts of re-keys (including repeat touches of the
        // same chip between queries) with ordering acquisitions.
        for step in 0..100u64 {
            let c = ((step * 17) % 32) as usize;
            usage[c] += (step % 7) * 1000 + 1;
            idx.set_usage(ChipId(c as u32), SimDuration::from_millis(usage[c]));
            if step % 9 == 0 {
                let mut expect: Vec<u32> = (0..32).collect();
                expect.sort_by_key(|&i| (usage[i as usize], i));
                assert_eq!(least_used_ids(&idx), expect, "step {step}");
            }
        }
    }

    #[test]
    fn earliest_available_merges_idle_and_busy() {
        let mut idx = ChipIndexes::new(6);
        // Chips 1 and 4 busy until 500/200 ms; the rest idle.
        idx.chip_busy(ChipId(1), SimTime::ZERO + SimDuration::from_millis(500));
        idx.chip_busy(ChipId(4), SimTime::ZERO + SimDuration::from_millis(200));
        let now = SimTime::ZERO + SimDuration::from_millis(100);
        let order: Vec<u32> = idx.earliest_available(now).map(|c| c.0).collect();
        // Idle chips clamp to now=100 and order by id, then busy by drain.
        assert_eq!(order, vec![0, 2, 3, 5, 4, 1]);
    }

    #[test]
    fn busy_chip_draining_at_now_ties_by_id_with_idle() {
        let mut idx = ChipIndexes::new(4);
        let now = SimTime::ZERO + SimDuration::from_millis(100);
        idx.chip_busy(ChipId(0), now);
        idx.chip_busy(ChipId(2), now + SimDuration::from_millis(1));
        let order: Vec<u32> = idx.earliest_available(now).map(|c| c.0).collect();
        // Chip 0 drains exactly at now: it ranks among the idle chips by
        // id, exactly like the clamped linear sort would place it.
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn transitions_and_rekeying_track_the_linear_sort() {
        let mut idx = ChipIndexes::new(8);
        let avail = times(&[0, 900, 0, 300, 300, 0, 50, 700]);
        let busy = [false, true, false, true, true, false, true, true];
        idx.rebuild_avail(&avail, |i| busy[i]);
        let now = SimTime::ZERO + SimDuration::from_millis(40);
        let got: Vec<u32> = idx.earliest_available(now).map(|c| c.0).collect();
        let mut expect: Vec<u32> = (0..8).collect();
        expect.sort_by_key(|&i| (avail[i as usize].max(now), i));
        assert_eq!(got, expect);
        // Chip 1 drains; chip 0 picks up work until 1200 ms. `now` stays
        // below every busy chip's drain time (the index invariant).
        idx.chip_idle(ChipId(1));
        idx.chip_busy(ChipId(0), SimTime::ZERO + SimDuration::from_millis(1200));
        let now = SimTime::ZERO + SimDuration::from_millis(45);
        let got: Vec<u32> = idx.earliest_available(now).map(|c| c.0).collect();
        let new_avail = times(&[1200, 900, 0, 300, 300, 0, 50, 700]);
        let busy = [true, false, false, true, true, false, true, true];
        let mut expect: Vec<u32> = (0..8).collect();
        expect.sort_by_key(|&i| {
            let a = if busy[i as usize] {
                new_avail[i as usize]
            } else {
                SimTime::ZERO
            };
            (a.max(now), i)
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn cursor_is_abandonable_and_reusable() {
        let mut idx = ChipIndexes::new(16);
        for i in 0..16 {
            idx.chip_busy(
                ChipId(i),
                SimTime::ZERO + SimDuration::from_millis(1600 - i as u64 * 100),
            );
        }
        {
            let mut c = idx.earliest_available(SimTime::ZERO);
            assert_eq!(c.next(), Some(ChipId(15)));
            // Abandon after one item; nothing to undo.
        }
        let order: Vec<u32> = idx.earliest_available(SimTime::ZERO).map(|c| c.0).collect();
        assert_eq!(order.len(), 16);
        assert_eq!(order[0], 15);
        assert_eq!(order[15], 0);
    }

    #[test]
    #[should_panic]
    fn two_live_cursors_panic() {
        let idx = ChipIndexes::new(4);
        let _a = idx.earliest_available(SimTime::ZERO);
        let _b = idx.earliest_available(SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn two_live_least_used_acquisitions_panic() {
        let idx = ChipIndexes::new(4);
        let _a = idx.least_used();
        let _b = idx.least_used();
    }

    #[test]
    fn single_chip_fleet() {
        let mut idx = ChipIndexes::new(1);
        assert_eq!(least_used_ids(&idx), vec![0]);
        idx.chip_busy(ChipId(0), SimTime::from_secs(5));
        let got: Vec<u32> = idx.earliest_available(SimTime::ZERO).map(|c| c.0).collect();
        assert_eq!(got, vec![0]);
    }

    /// Splitmix-style generator for the adversarial patterns below —
    /// deterministic, no external deps.
    fn next(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z ^ (z >> 27)
    }

    #[test]
    fn all_dirty_repair_matches_full_sort_at_scale() {
        const N: usize = 50_000;
        let mut idx = ChipIndexes::new(N);
        let mut usage = vec![0u64; N];
        let mut rng = 0xC0FFEEu64;
        // Three rounds of re-keying EVERY chip between acquisitions —
        // the worst case for a dirt-proportional repair.
        for round in 0..3 {
            for (c, u) in usage.iter_mut().enumerate() {
                *u += next(&mut rng) % 100_000;
                idx.set_usage(ChipId(c as u32), SimDuration::from_millis(*u));
            }
            let mut expect: Vec<u32> = (0..N as u32).collect();
            expect.sort_by_key(|&i| (usage[i as usize], i));
            assert_eq!(least_used_ids(&idx), expect, "round {round}");
        }
    }

    #[test]
    fn interleaved_rekeys_match_full_sort_at_scale() {
        const N: usize = 50_000;
        let mut idx = ChipIndexes::new(N);
        let mut usage = vec![0u64; N];
        let mut rng = 7u64;
        // Gang-finish-shaped dirt: small bursts of re-keys (with repeat
        // touches of the same chip) between ordering acquisitions.
        for step in 0..30 {
            let burst = 1 + (next(&mut rng) % 600) as usize;
            for _ in 0..burst {
                let c = (next(&mut rng) as usize) % N;
                usage[c] += 1 + next(&mut rng) % 50_000;
                idx.set_usage(ChipId(c as u32), SimDuration::from_millis(usage[c]));
            }
            let lu = idx.least_used();
            let mut expect: Vec<u32> = (0..N as u32).collect();
            expect.sort_by_key(|&i| (usage[i as usize], i));
            // Spot-check ranks across the whole range (full materialize
            // ×30 would dominate the test) plus the exact head block.
            for r in (0..N).step_by(997) {
                assert_eq!(lu.chip(r).0, expect[r], "step {step} rank {r}");
            }
            for (r, &want) in expect.iter().enumerate().take(64) {
                assert_eq!(lu.chip(r).0, want, "step {step} head {r}");
            }
        }
    }

    #[test]
    fn single_chip_fleet_rekey_cycles() {
        let mut idx = ChipIndexes::new(1);
        for ms in [5u64, 0, 120, 120, 3] {
            idx.set_usage(ChipId(0), SimDuration::from_millis(ms));
            assert_eq!(least_used_ids(&idx), vec![0]);
            idx.chip_busy(ChipId(0), SimTime::ZERO + SimDuration::from_millis(ms + 1));
            let got: Vec<u32> = idx.earliest_available(SimTime::ZERO).map(|c| c.0).collect();
            assert_eq!(got, vec![0]);
            idx.chip_idle(ChipId(0));
        }
    }

    #[test]
    fn avail_point_updates_match_full_rebuild_at_scale() {
        const N: usize = 50_000;
        let mut idx = ChipIndexes::new(N);
        let mut rng = 99u64;
        let mut avail = vec![SimTime::ZERO; N];
        let mut busy = vec![false; N];
        let mut now_ms = 0u64;
        for step in 0..12 {
            // A burst of transitions (the dirty point-update path)...
            for _ in 0..1 + (next(&mut rng) % 800) {
                let c = (next(&mut rng) as usize) % N;
                if busy[c] && next(&mut rng).is_multiple_of(3) {
                    busy[c] = false;
                    idx.chip_idle(ChipId(c as u32));
                } else {
                    busy[c] = true;
                    avail[c] = SimTime::ZERO
                        + SimDuration::from_millis(now_ms + 1 + next(&mut rng) % 10_000);
                    idx.chip_busy(ChipId(c as u32), avail[c]);
                }
            }
            let now = SimTime::ZERO + SimDuration::from_millis(now_ms);
            let got: Vec<u32> = idx
                .earliest_available(now)
                .take(2_000)
                .map(|c| c.0)
                .collect();
            // ...must order exactly like a freshly rebuilt index over the
            // same state (the full-rebuild ground truth)...
            let mut fresh = ChipIndexes::new(N);
            fresh.rebuild_avail(&avail, |i| busy[i]);
            let want: Vec<u32> = fresh
                .earliest_available(now)
                .take(2_000)
                .map(|c| c.0)
                .collect();
            assert_eq!(got, want, "step {step}");
            // ...and like the clamped linear sort.
            let mut expect: Vec<u32> = (0..N as u32).collect();
            expect.sort_by_key(|&i| {
                let a = if busy[i as usize] {
                    avail[i as usize]
                } else {
                    SimTime::ZERO
                };
                (a.max(now), i)
            });
            assert_eq!(got, expect[..2_000], "step {step} vs linear");
            // Advance time, draining any queue that finishes before the
            // new `now` (the invariant the simulator maintains: a busy
            // chip never drains in the past).
            now_ms += next(&mut rng) % 500;
            for c in 0..N {
                if busy[c] && avail[c].as_millis() < now_ms {
                    busy[c] = false;
                    idx.chip_idle(ChipId(c as u32));
                }
            }
        }
    }

    #[test]
    fn epoch_invalidation_overrides_pending_point_updates() {
        let mut idx = ChipIndexes::new(8);
        // Record transitions, then invalidate the epoch with different
        // state: the rebuild must win, not the stale point updates.
        idx.chip_busy(ChipId(3), SimTime::from_secs(100));
        idx.chip_busy(ChipId(5), SimTime::from_secs(200));
        let avail = times(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let busy = [true; 8];
        idx.rebuild_avail(&avail, |i| busy[i]);
        let got: Vec<u32> = idx.earliest_available(SimTime::ZERO).map(|c| c.0).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
