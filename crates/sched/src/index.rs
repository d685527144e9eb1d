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
//!   pass a flat array forces. A read of a rank range finds its first
//!   rank through a prefix-count directory rebuilt once per acquisition
//!   and then walks the runs in order. Repairs must be O(dirt):
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
//!   dirt is fleet-sized. Identical leaves produce identical trees, so
//!   the point-update path is bit-identical to the rebuild it replaces.
//! * the efficiency ranking — a precomputed rank array on the
//!   [`OperatingPlan`](iscope_pvmodel::OperatingPlan), cut into 64-position
//!   blocks that each keep their drained ids and their occupied chips'
//!   raw keys as two ascending lists, so a prefix walk reads only the
//!   chips that can enter its top-n heap.
//!
//! Keys are packed integers (`millis << 24 | id`, 40 bits of
//! milliseconds and 24 bits of chip id — enough for 34 simulated years
//! over 16 million chips), so one u64 comparison decides the full
//! ordering tuple and the extracted order is bit-identical to what
//! sorting the linear pool by the same tuple produces — determinism
//! falls out of the packing, not of any float tolerance. The owner (the
//! simulator) maintains the indexes at the same transition points that
//! maintain `avail`/`usage`, and re-records the availability state
//! whenever the lazy queue replay rewrites `avail`; only the chips whose
//! state changed move (see DESIGN.md §3d).

use iscope_dcsim::{SimDuration, SimTime};
use iscope_pvmodel::ChipId;
use std::cell::{Ref, RefCell, RefMut};

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
    /// a range read binary-searches it once for its first rank.
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
}

/// The availability state plus the busy/idle tree pair built from it.
#[derive(Debug)]
struct AvailIndex {
    /// Last recorded drain time per chip (meaningful while busy).
    avail_ms: Vec<u64>,
    /// Whether the chip has queued work.
    is_busy: Vec<bool>,
    /// The trees were never built: the first refresh builds both
    /// wholesale.
    rebuild_all: bool,
    /// `dirty[c]`: chip `c`'s busy state or busy key changed since the
    /// last refresh; its leaves get point-updated. Subsumed by
    /// `rebuild_all`.
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Raw `(avail, id)` over busy chips.
    busy: MinTree,
    /// `(0, id)` over idle chips; `now` is added at query time.
    idle: MinTree,
}

impl AvailIndex {
    /// Brings the trees current: point updates for recorded transitions
    /// (O(dirt · log F)), a full rebuild on first use or when the dirt is
    /// fleet-sized and the rebuild is simply cheaper.
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

    /// Chip `i`'s raw `pack(avail_ms, id)` key while its queue is
    /// occupied, `None` once it drained.
    fn busy_key(&self, i: usize) -> Option<u64> {
        self.is_busy[i].then(|| pack(self.avail_ms[i], i as u32))
    }

    /// Records chip `i`'s queue state. When its busy state or busy key
    /// changed, marks its leaves for the next refresh and moves its
    /// ranking-block entry; otherwise neither structure moves.
    fn record(&mut self, rank: &mut RankBlocks, i: usize, busy: bool, ms: u64) {
        let old = self.busy_key(i);
        self.avail_ms[i] = ms;
        self.is_busy[i] = busy;
        let new = self.busy_key(i);
        if old != new {
            if !self.rebuild_all && !self.dirty[i] {
                self.dirty[i] = true;
                self.dirty_list.push(i as u32);
            }
            rank.relocate(i as u32, old, new);
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
    pub(crate) fn len(&self) -> usize {
        self.0.usage_ms.len()
    }

    /// The chips at `ranks` in ascending `(usage, id)` order: one
    /// directory search for the first rank, then a sequential read
    /// through the runs.
    pub fn chips(&self, ranks: std::ops::Range<usize>) -> impl Iterator<Item = ChipId> + '_ {
        let u = &*self.0;
        debug_assert!(u.cum_fresh && u.dirty_list.is_empty());
        let b = u.cum.partition_point(|&c| c <= ranks.start) - 1;
        let (first, rest) = match u.runs.get(b) {
            Some(run) => (&run[ranks.start - u.cum[b]..], &u.runs[b + 1..]),
            None => (&[][..], &[][..]),
        };
        first
            .iter()
            .chain(rest.iter().flatten())
            .take(ranks.len())
            .map(|&k| ChipId(unpack_id(k)))
    }
}

/// Live borrow of the ranking blocks, acquired from
/// [`ChipIndexes::ranked_prefix`] for the duration of one prefix walk.
pub struct RankedPrefix<'a>(Ref<'a, RankBlocks>);

impl RankedPrefix<'_> {
    /// Ranking positions covered by one block.
    pub const BLOCK: usize = RANK_BLOCK;

    /// Block `b`'s chips as two ascending lists: the ids of its drained
    /// chips (each clamps to `pack(now, id)`), and the raw `pack(avail_ms,
    /// id)` keys of its occupied chips.
    pub fn block(&self, b: usize) -> (&[u64], &[u64]) {
        let r = &*self.0;
        r.slots[r.span(b)].split_at(r.idle[b] as usize)
    }

    /// The ranking position of chip `id`.
    pub fn rank(&self, id: u32) -> usize {
        self.0.pos[id as usize] as usize
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

/// The registered preference ranking chunked into [`RANK_BLOCK`]-position
/// blocks, each holding the exact availability of its chips as two
/// ascending lists, split by queue state — which is what makes them
/// usable at any future `now`:
///
/// - a **drained** chip clamps to `pack(now, id)`, so its id alone
///   orders it among the block's drained chips whatever `now` is;
/// - an **occupied** chip's clamped key is its raw `pack(avail_ms, id)`
///   key (its drain is at or after `now` while the index is current).
///
/// A walk reads each list from its head and stops at the first key that
/// cannot enter its top-n heap, so it reads only chips that can. The
/// lists follow every transition exactly: `chip_busy`, `chip_idle` and
/// `rebuild_avail` move a chip whose busy state or busy key changed with
/// two binary searches and one memmove inside its block, and
/// `set_ranking` rebuilds only the blocks whose membership changed. A
/// drained chip is kept apart from the occupied ones because an occupied
/// chip draining exactly at `now` ties the drained chips at `pack(now,
/// id)`: neither list alone is ordered by clamped key across both.
#[derive(Debug, Default)]
struct RankBlocks {
    /// Snapshot of the registered ranking (chip ids in preference order).
    order: Vec<u32>,
    /// Chip id → position in `order` (so transitions find their block).
    pos: Vec<u32>,
    /// One slot per ranking position; block `b` owns `span(b)`: the ids
    /// of its drained chips ascending, then the raw keys of its occupied
    /// chips ascending.
    slots: Vec<u64>,
    /// Per block: how many drained ids lead its slots.
    idle: Vec<u8>,
}

impl RankBlocks {
    /// The slots of block `b` (the last block may be short).
    fn span(&self, b: usize) -> std::ops::Range<usize> {
        b * RANK_BLOCK..((b + 1) * RANK_BLOCK).min(self.slots.len())
    }

    /// Rebuilds block `b`'s lists from the availability state.
    fn fill(&mut self, b: usize, avail: &AvailIndex) {
        let span = self.span(b);
        let slots = &mut self.slots[span.clone()];
        let (mut idle, mut busy) = (0, slots.len());
        for &c in &self.order[span] {
            match avail.busy_key(c as usize) {
                Some(key) => {
                    busy -= 1;
                    slots[busy] = key;
                }
                None => {
                    slots[idle] = u64::from(c);
                    idle += 1;
                }
            }
        }
        slots[..idle].sort_unstable();
        slots[idle..].sort_unstable();
        self.idle[b] = idle as u8;
    }

    /// Moves chip `c` from its old list entry to its new one, where
    /// `None` is drained and `Some(key)` occupied: one binary search for
    /// each end and one memmove of the entries between them.
    fn relocate(&mut self, c: u32, old: Option<u64>, new: Option<u64>) {
        if self.order.is_empty() {
            return;
        }
        let b = self.pos[c as usize] as usize / RANK_BLOCK;
        let ni = self.idle[b] as usize;
        let span = self.span(b);
        let slots = &mut self.slots[span];
        let find = |v: Option<u64>| match v {
            None => slots[..ni].partition_point(|&x| x < u64::from(c)),
            Some(key) => ni + slots[ni..].partition_point(|&x| x < key),
        };
        let from = find(old);
        debug_assert_eq!(slots[from], old.unwrap_or(u64::from(c)));
        // Where the new entry goes once the old one is out.
        let to = find(new);
        let to = to - usize::from(from < to);
        if from < to {
            slots.copy_within(from + 1..=to, from);
        } else {
            slots.copy_within(to..from, to + 1);
        }
        slots[to] = new.unwrap_or(u64::from(c));
        self.idle[b] = (ni + usize::from(new.is_none()) - usize::from(old.is_none())) as u8;
    }

    /// Debug ground truth: every block holds exactly its chips, each in
    /// the list and under the key its `(is_busy, avail_ms)` state gives,
    /// both lists strictly ascending.
    #[cfg(debug_assertions)]
    fn check(&self, avail: &AvailIndex) {
        for b in 0..self.idle.len() {
            let span = self.span(b);
            let (idle, busy) = self.slots[span.clone()].split_at(self.idle[b] as usize);
            assert!(
                idle.windows(2).all(|w| w[0] < w[1]),
                "block {b}: drained ids out of order"
            );
            assert!(
                busy.windows(2).all(|w| w[0] < w[1]),
                "block {b}: busy keys out of order"
            );
            let entries = idle.iter().map(|&id| (id as usize, None));
            let entries = entries.chain(busy.iter().map(|&k| (unpack_id(k) as usize, Some(k))));
            for (c, key) in entries {
                assert!(
                    span.contains(&(self.pos[c] as usize)),
                    "block {b} lists chip {c} of another block"
                );
                assert_eq!(
                    key,
                    avail.busy_key(c),
                    "block {b}: chip {c}'s entry is stale"
                );
            }
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
    /// Per-block availability lists over the registered preference
    /// ranking (empty until [`ChipIndexes::set_ranking`]).
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
    /// plan's efficiency order) and fills its blocks from the current
    /// availability state. Call at construction time and again whenever
    /// the ranking changes (a plan upgrade moves a chip in it): only the
    /// blocks whose membership changed are rebuilt. A walk over an
    /// unregistered or mismatched ranking falls back to the plain
    /// unskipped path.
    pub fn set_ranking(&mut self, ranking: &[ChipId]) {
        assert_eq!(ranking.len(), self.n, "ranking must cover the fleet");
        let a = self.avail.get_mut();
        let r = self.rank.get_mut();
        let fresh = r.order.is_empty();
        if fresh {
            r.order.resize(self.n, 0);
            r.pos.resize(self.n, 0);
            r.slots.resize(self.n, 0);
            r.idle.resize(self.n.div_ceil(RANK_BLOCK), 0);
        }
        for (b, chunk) in ranking.chunks(RANK_BLOCK).enumerate() {
            let start = b * RANK_BLOCK;
            let order = &mut r.order[start..start + chunk.len()];
            if !fresh && order.iter().zip(chunk).all(|(&o, c)| o == c.0) {
                continue;
            }
            // Every chip of the new chunk already in block `b` means the
            // block holds the same chips, whose lists do not follow rank.
            let moved = fresh
                || chunk
                    .iter()
                    .any(|c| r.pos[c.0 as usize] as usize / RANK_BLOCK != b);
            for (p, (o, c)) in order.iter_mut().zip(chunk).enumerate() {
                *o = c.0;
                r.pos[c.0 as usize] = (start + p) as u32;
            }
            if moved {
                r.fill(b, a);
            }
        }
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
    /// when a placement lands on the chip). O(1) for the trees, which
    /// repair on the next [`ChipIndexes::earliest_available`]; one move
    /// inside the chip's ranking block.
    pub fn chip_busy(&mut self, chip: ChipId, drains_at: SimTime) {
        let i = chip.0 as usize;
        let rank = self.rank.get_mut();
        self.avail
            .get_mut()
            .record(rank, i, true, drains_at.as_millis());
    }

    /// Records that `chip`'s queue drained. Same cost as
    /// [`ChipIndexes::chip_busy`].
    pub fn chip_idle(&mut self, chip: ChipId) {
        let i = chip.0 as usize;
        let a = self.avail.get_mut();
        let ms = a.avail_ms[i];
        a.record(self.rank.get_mut(), i, false, ms);
    }

    /// Re-records the whole availability state from fresh `avail` values
    /// and the queue-occupancy predicate. The owner calls this whenever a
    /// queue replay rewrote `avail` (DVFS rebalance, deferral, faults, or
    /// carbon). Only the chips whose busy state or busy key changed are
    /// marked for the trees and moved in their ranking blocks, so a replay
    /// that moved nothing costs one pass over the fleet.
    pub fn rebuild_avail(&mut self, avail: &[SimTime], busy: impl Fn(usize) -> bool) {
        let a = self.avail.get_mut();
        let r = self.rank.get_mut();
        debug_assert_eq!(avail.len(), a.avail_ms.len());
        for (i, &t) in avail.iter().enumerate() {
            let (busy, ms) = (busy(i), t.as_millis());
            // An idle chip's drain time orders nothing: it is rewritten
            // only when the chip turns busy.
            if busy != a.is_busy[i] || (busy && ms != a.avail_ms[i]) {
                a.record(r, i, busy, ms);
            }
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

    /// Acquires the ranking blocks for a prefix walk over `ranking`.
    /// Returns `None` when no ranking is registered or the registered
    /// one has a different length (a foreign ranking — the walk must
    /// use the plain path). Debug builds check every block against the
    /// availability state first.
    pub fn ranked_prefix(&self, ranking: &[ChipId]) -> Option<RankedPrefix<'_>> {
        let r = self.rank.borrow();
        if r.order.len() != ranking.len() || r.order.is_empty() {
            return None;
        }
        debug_assert!(
            r.order.iter().zip(ranking).all(|(&a, b)| a == b.0),
            "walked ranking is not the registered one"
        );
        #[cfg(debug_assertions)]
        r.check(&self.avail.borrow());
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
        lu.chips(0..lu.len()).map(|c| c.0).collect()
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
                let end = (r + 700).min(N);
                let got: Vec<u32> = lu.chips(r..end).map(|c| c.0).collect();
                assert_eq!(got, expect[r..end], "step {step} ranks {r}..{end}");
            }
            let head: Vec<u32> = lu.chips(0..64).map(|c| c.0).collect();
            assert_eq!(head, expect[..64], "step {step} head");
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
        // Record transitions, then re-record the state from a replay
        // that differs: the replay must win, not the earlier updates.
        idx.chip_busy(ChipId(3), SimTime::from_secs(100));
        idx.chip_busy(ChipId(5), SimTime::from_secs(200));
        let avail = times(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let busy = [true; 8];
        idx.rebuild_avail(&avail, |i| busy[i]);
        let got: Vec<u32> = idx.earliest_available(SimTime::ZERO).map(|c| c.0).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
