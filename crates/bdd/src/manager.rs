//! The BDD manager: node store, unique table, computed cache, garbage
//! collection.

use std::fmt;

use obs::json::Json;

use crate::hash::{self, FxHashMap};
use crate::varset::MAX_VARS;

/// Index of a BDD variable (`x0, x1, ..`).
pub type VarId = u32;

/// Sentinel `var` field marking the two terminal nodes.
const TERMINAL_VAR: u32 = u32::MAX;

/// Sentinel `var` field marking a freed slot awaiting reuse. Freed slots are
/// not in the unique table; the sentinel lets GC and table walks skip them
/// without a side lookup. Safe because variables are capped at
/// [`MAX_VARS`] (256), far below both sentinels.
const FREE_VAR: u32 = u32::MAX - 1;

/// End-of-chain marker in the intrusive unique table.
const NIL: u32 = u32::MAX;

/// Smallest unique-table bucket array; always a power of two.
const MIN_BUCKETS: usize = 256;

/// Default size of the lossy computed cache, in entries (16-byte slots, so
/// 256 KiB). Larger caches barely raise the hit rate and slow every probe
/// once they crowd a 2 MiB L2 (EXPERIMENTS.md, "Kernel tuning").
pub const DEFAULT_CACHE_ENTRIES: usize = 1 << 14;

/// Most nodes (terminals included) one manager can hold. Node indices
/// stay below `1 << TAG_SHIFT`, which leaves the top four bits of a
/// computed-cache slot's words free for the operation tag and the epoch.
pub const MAX_NODES: usize = 1 << TAG_SHIFT;

/// Bit position of the 4-bit tags in a computed-cache slot.
const TAG_SHIFT: u32 = 28;

/// The node-index bits of a computed-cache slot word.
const INDEX_MASK: u32 = (1 << TAG_SHIFT) - 1;

/// Level of the terminals: below every variable in any order.
const TERMINAL_LEVEL: u32 = u32::MAX;

/// A handle to a Boolean function stored in a [`Bdd`] manager.
///
/// Handles are plain indices: cheap to copy, but only meaningful together
/// with the manager that produced them. Mixing handles across managers is a
/// logic error (caught by debug assertions where practical).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Func(pub(crate) u32);

impl Func {
    /// The constant-false function. Valid in every manager.
    pub const ZERO: Func = Func(0);
    /// The constant-true function. Valid in every manager.
    pub const ONE: Func = Func(1);

    /// Returns `true` if this is the constant-false function.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Returns `true` if this is the constant-true function.
    #[inline]
    pub fn is_one(self) -> bool {
        self == Self::ONE
    }

    /// Returns `true` if this is one of the two constant functions.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// The raw node index, for use as a stable key in external tables.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Func::ZERO => write!(f, "Func(0=⊥)"),
            Func::ONE => write!(f, "Func(1=⊤)"),
            Func(i) => write!(f, "Func({i})"),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub var: u32,
    pub low: Func,
    pub high: Func,
    /// Next node in the same unique-table bucket (intrusive chaining,
    /// BuDDy-style); [`NIL`] terminates the chain.
    pub(crate) next: u32,
}

/// Operation tags for the computed cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum CacheOp {
    And,
    Or,
    Xor,
    Diff,
    Not,
    Ite,
    Exists,
    Forall,
    AndExists,
    CofPos,
    CofNeg,
    Implies,
    Disjoint3,
    PickPerClass,
}

impl CacheOp {
    /// Number of operation kinds (sizes the per-op analytics arrays).
    pub(crate) const COUNT: usize = 14;

    /// Every operation kind, in declaration order (= discriminant order).
    pub(crate) const ALL: [CacheOp; CacheOp::COUNT] = [
        CacheOp::And,
        CacheOp::Or,
        CacheOp::Xor,
        CacheOp::Diff,
        CacheOp::Not,
        CacheOp::Ite,
        CacheOp::Exists,
        CacheOp::Forall,
        CacheOp::AndExists,
        CacheOp::CofPos,
        CacheOp::CofNeg,
        CacheOp::Implies,
        CacheOp::Disjoint3,
        CacheOp::PickPerClass,
    ];

    /// Stable lower-case name used in analytics JSON.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CacheOp::And => "and",
            CacheOp::Or => "or",
            CacheOp::Xor => "xor",
            CacheOp::Diff => "diff",
            CacheOp::Not => "not",
            CacheOp::Ite => "ite",
            CacheOp::Exists => "exists",
            CacheOp::Forall => "forall",
            CacheOp::AndExists => "and_exists",
            CacheOp::CofPos => "cof_pos",
            CacheOp::CofNeg => "cof_neg",
            CacheOp::Implies => "implies",
            CacheOp::Disjoint3 => "disjoint3",
            CacheOp::PickPerClass => "pick_per_class",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct CacheKey {
    pub op: CacheOp,
    pub a: u32,
    pub b: u32,
    pub c: u32,
}

/// Operation counters of a manager (see [`Bdd::op_stats`]), accumulated
/// over the manager's lifetime. Subtract two snapshots for a per-phase
/// delta.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OpStats {
    /// `mk` invocations (node constructions requested).
    pub mk_calls: u64,
    /// `mk` calls satisfied by the unique table (shared nodes).
    pub unique_hits: u64,
    /// Fresh unique-table insertions (new nodes). `mk` calls that are
    /// neither hits nor insertions were reductions (`low == high`).
    pub inserts: u64,
    /// Computed-cache lookups across all operators: the sum of the
    /// per-operator counts in [`Analytics::cache_by_op`](crate::Analytics).
    pub cache_lookups: u64,
    /// Computed-cache hits, summed the same way.
    pub cache_hits: u64,
    /// Live computed-cache entries dropped by an insert into a full
    /// bucket.
    pub cache_evictions: u64,
    /// Recursive `apply` steps across the binary operators.
    pub apply_steps: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Nodes reclaimed by those collections.
    pub gc_nodes_reclaimed: u64,
    /// Live nodes at the start of each collection, summed over the
    /// collections: `gc_nodes_reclaimed / gc_nodes_before` is the share
    /// they reclaimed.
    pub gc_nodes_before: u64,
}

impl OpStats {
    /// Fraction of cache lookups that hit, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Nodes actually constructed: fresh unique-table insertions.
    pub fn nodes_allocated(&self) -> u64 {
        self.inserts
    }

    /// Adds `other`'s counters into `self` (aggregating several runs).
    pub fn merge(&mut self, other: &OpStats) {
        self.mk_calls += other.mk_calls;
        self.unique_hits += other.unique_hits;
        self.inserts += other.inserts;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_evictions += other.cache_evictions;
        self.apply_steps += other.apply_steps;
        self.gc_runs += other.gc_runs;
        self.gc_nodes_reclaimed += other.gc_nodes_reclaimed;
        self.gc_nodes_before += other.gc_nodes_before;
    }
}

/// Heap footprint of the manager's three dominant allocations, in bytes
/// (see [`Bdd::mem_report`]).
///
/// All figures are *capacity*-based: they count what the allocator holds
/// for the manager, not just the live entries, because retained capacity is
/// exactly what an out-of-memory investigation needs to see. The unique
/// table is intrusive — chains live inside the node slab — so
/// `unique_table_bytes` covers only the bucket-head array (4 bytes per
/// bucket); the chain links are part of `node_slab_bytes`. The computed
/// cache is a flat array of 64-byte buckets. `peak_bytes` is the largest total ever
/// *sampled* — the manager samples at every GC and callers may add samples
/// at their own pressure points ([`Bdd::sample_mem`]) — so a spike between
/// samples can be missed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemReport {
    /// Bytes held by the unique table (hash-consing map).
    pub unique_table_bytes: usize,
    /// Bytes held by the computed cache.
    pub computed_cache_bytes: usize,
    /// Bytes held by the node slab and its free list.
    pub node_slab_bytes: usize,
    /// Sum of the three components right now.
    pub total_bytes: usize,
    /// Largest `total_bytes` sampled so far (≥ `total_bytes`).
    pub peak_bytes: usize,
}

impl MemReport {
    /// The report as a JSON object (the `mem` section of run reports).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("unique_table_bytes", self.unique_table_bytes)
            .field("computed_cache_bytes", self.computed_cache_bytes)
            .field("node_slab_bytes", self.node_slab_bytes)
            .field("total_bytes", self.total_bytes)
            .field("peak_bytes", self.peak_bytes)
    }
}

/// One computed-cache entry, 16 bytes. The [`CacheOp`] sits in the top
/// four bits of `a` and the epoch that wrote the entry in the top four bits
/// of `res`; the low 28 bits hold node indices (see [`MAX_NODES`]).
#[derive(Clone, Copy, Default)]
struct CacheSlot {
    a: u32,
    b: u32,
    c: u32,
    res: u32,
}

impl CacheSlot {
    /// Whether the slot holds the tagged key `(a, b, c)`, written in the
    /// epoch whose shifted tag is `live`.
    #[inline]
    fn holds(&self, a: u32, b: u32, c: u32, live: u32) -> bool {
        self.a == a && self.b == b && self.c == c && self.res & !INDEX_MASK == live
    }
}

/// Entries per bucket: four 16-byte slots fill one 64-byte cache line.
const WAYS: usize = 4;

/// Epochs cycle through `1..EPOCHS`; epoch 0 marks a slot not written
/// since the last fill, so it never matches.
const EPOCHS: u32 = 16;

/// One cache line of the computed cache: a 4-way set, newest entry first.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Bucket([CacheSlot; WAYS]);

/// The computed cache: fixed-size and lossy, 4-way set-associative over
/// cache-line buckets.
///
/// An entry is live only while its epoch tag equals the cache's epoch, so
/// [`clear`](ComputedCache::clear) just bumps the epoch; the buckets are
/// zeroed only when the epoch wraps, once every 15 clears. Within a bucket
/// live entries always precede stale ones and are kept newest first, so an
/// insert that finds no matching slot shifts the bucket down one slot and
/// drops the last: a stale slot if there is one, otherwise the oldest live
/// entry. Replacement is therefore a deterministic function of the
/// operation sequence.
pub(crate) struct ComputedCache {
    /// Allocated on the first insert, so idle managers stay small.
    buckets: Vec<Bucket>,
    /// Entries (`WAYS` × buckets); a power of two.
    capacity: usize,
    /// Current epoch, in `1..EPOCHS`.
    epoch: u32,
    /// Live entries.
    len: usize,
}

impl ComputedCache {
    fn new(entries: usize) -> Self {
        ComputedCache {
            buckets: Vec::new(),
            capacity: entries.max(WAYS).next_power_of_two(),
            epoch: 1,
            len: 0,
        }
    }

    /// Drops every entry in O(1) by bumping the epoch.
    fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.len = 0;
        self.epoch += 1;
        if self.epoch == EPOCHS {
            self.buckets.fill(Bucket::default());
            self.epoch = 1;
        }
    }

    /// The key's `a` word with the operation tag, and its bucket index.
    #[inline]
    fn locate(&self, key: &CacheKey) -> (u32, usize) {
        debug_assert!(key.a <= INDEX_MASK);
        let a = key.a | (key.op as u32) << TAG_SHIFT;
        (a, hash::hash3(a, key.b, key.c) as usize & (self.buckets.len() - 1))
    }

    #[inline]
    fn get(&self, key: &CacheKey) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let (a, i) = self.locate(key);
        let live = self.epoch << TAG_SHIFT;
        self.buckets[i]
            .0
            .iter()
            .find(|s| s.holds(a, key.b, key.c, live))
            .map(|s| s.res & INDEX_MASK)
    }

    /// Inserts `key → value`; returns `true` when a live entry with a
    /// different key was dropped (an eviction).
    #[inline]
    fn put(&mut self, key: CacheKey, value: u32) -> bool {
        debug_assert!(value <= INDEX_MASK);
        if self.buckets.is_empty() {
            self.buckets = vec![Bucket::default(); self.capacity / WAYS];
        }
        let (a, i) = self.locate(&key);
        let live = self.epoch << TAG_SHIFT;
        let res = value | live;
        let slots = &mut self.buckets[i].0;
        if let Some(slot) = slots.iter_mut().find(|s| s.holds(a, key.b, key.c, live)) {
            slot.res = res;
            return false;
        }
        let evicted = slots[WAYS - 1].res & !INDEX_MASK == live;
        slots.copy_within(..WAYS - 1, 1);
        slots[0] = CacheSlot { a, b: key.b, c: key.c, res };
        if !evicted {
            self.len += 1;
        }
        evicted
    }

    fn bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Bucket>()
    }
}

/// A reduced ordered BDD manager.
///
/// Owns the shared node store for any number of functions. See the
/// [crate-level documentation](crate) for an overview and example.
///
/// # Garbage collection
///
/// Nodes are never freed implicitly. Long-running clients should
/// [`protect`](Bdd::protect) the handles they intend to keep and call
/// [`gc`](Bdd::gc) between operations; everything not reachable from a
/// protected root is recycled. Handles to collected nodes become invalid.
pub struct Bdd {
    nodes: Vec<Node>,
    /// Bucket heads of the intrusive unique table (power-of-two length);
    /// chains run through [`Node::next`].
    heads: Vec<u32>,
    /// Live unique-table entries (non-terminal, non-freed nodes).
    unique_entries: usize,
    pub(crate) cache: ComputedCache,
    var2level: Vec<u32>,
    level2var: Vec<u32>,
    protected: FxHashMap<u32, u32>,
    free: Vec<u32>,
    /// Kernel counters except the cache lookups and hits, which live per
    /// operator in `analytics` (see [`Bdd::op_stats`]).
    op_stats: OpStats,
    /// Largest sampled heap footprint (see [`Bdd::sample_mem`]).
    peak_mem_bytes: usize,
    /// Always-on analytics counters (per-op cache traffic);
    /// see [`crate::analytics`].
    analytics: crate::analytics::AnalyticsState,
}

impl Bdd {
    /// Creates a manager with `num_vars` variables `x0 .. x{n-1}`, initially
    /// ordered by index.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 256` (the [`crate::VarSet`] width).
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        let mut mgr = Bdd {
            nodes: Vec::with_capacity(1024),
            heads: vec![NIL; MIN_BUCKETS],
            unique_entries: 0,
            cache: ComputedCache::new(DEFAULT_CACHE_ENTRIES),
            var2level: (0..num_vars as u32).collect(),
            level2var: (0..num_vars as u32).collect(),
            protected: FxHashMap::default(),
            free: Vec::new(),
            op_stats: OpStats::default(),
            peak_mem_bytes: 0,
            analytics: crate::analytics::AnalyticsState::default(),
        };
        // Slots 0 and 1 are the terminals.
        mgr.nodes.push(Node { var: TERMINAL_VAR, low: Func::ZERO, high: Func::ZERO, next: NIL });
        mgr.nodes.push(Node { var: TERMINAL_VAR, low: Func::ONE, high: Func::ONE, next: NIL });
        mgr
    }

    /// Number of variables in the manager.
    pub fn num_vars(&self) -> usize {
        self.var2level.len()
    }

    /// The constant-false function.
    pub fn zero(&self) -> Func {
        Func::ZERO
    }

    /// The constant-true function.
    pub fn one(&self) -> Func {
        Func::ONE
    }

    /// Converts a `bool` into the corresponding constant function.
    pub fn constant(&self, value: bool) -> Func {
        if value {
            Func::ONE
        } else {
            Func::ZERO
        }
    }

    /// The projection function of variable `v` (the function `x_v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a variable of this manager.
    pub fn var(&mut self, v: VarId) -> Func {
        assert!((v as usize) < self.num_vars(), "variable x{v} out of range");
        self.mk(v, Func::ZERO, Func::ONE)
    }

    /// The negated projection function `¬x_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a variable of this manager.
    pub fn nvar(&mut self, v: VarId) -> Func {
        assert!((v as usize) < self.num_vars(), "variable x{v} out of range");
        self.mk(v, Func::ONE, Func::ZERO)
    }

    /// A single literal: `x_v` if `positive`, else `¬x_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a variable of this manager.
    pub fn literal(&mut self, v: VarId, positive: bool) -> Func {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// Returns the variable labelling the root node of `f`.
    ///
    /// Returns `None` for the constant functions.
    pub fn root_var(&self, f: Func) -> Option<VarId> {
        if f.is_const() {
            None
        } else {
            Some(self.node(f).var)
        }
    }

    /// Low (else) child of a non-constant function's root node.
    ///
    /// # Panics
    ///
    /// Panics if `f` is constant.
    pub fn low(&self, f: Func) -> Func {
        assert!(!f.is_const(), "constants have no cofactors");
        self.node(f).low
    }

    /// High (then) child of a non-constant function's root node.
    ///
    /// # Panics
    ///
    /// Panics if `f` is constant.
    pub fn high(&self, f: Func) -> Func {
        assert!(!f.is_const(), "constants have no cofactors");
        self.node(f).high
    }

    /// The level (depth in the current order) at which variable `v` sits.
    pub fn level_of_var(&self, v: VarId) -> u32 {
        self.var2level[v as usize]
    }

    /// The variable sitting at `level` in the current order.
    pub fn var_at_level(&self, level: u32) -> VarId {
        self.level2var[level as usize]
    }

    /// Current variable order, as the sequence of variables from top level
    /// to bottom.
    pub fn order(&self) -> &[VarId] {
        &self.level2var
    }

    #[inline]
    pub(crate) fn node(&self, f: Func) -> &Node {
        &self.nodes[f.0 as usize]
    }

    /// Level of the root of `f` in the current order (terminals are below
    /// everything).
    #[inline]
    pub(crate) fn level(&self, f: Func) -> u32 {
        let v = self.nodes[f.0 as usize].var;
        if v == TERMINAL_VAR {
            TERMINAL_LEVEL
        } else {
            self.var2level[v as usize]
        }
    }

    /// Hash-conses the node `(var, low, high)`, applying the reduction rules.
    ///
    /// # Panics
    ///
    /// Panics if a new node would exceed [`MAX_NODES`].
    pub(crate) fn mk(&mut self, var: VarId, low: Func, high: Func) -> Func {
        self.op_stats.mk_calls += 1;
        if low == high {
            return low;
        }
        debug_assert!(
            self.var2level[var as usize] < self.level(low)
                && self.var2level[var as usize] < self.level(high),
            "mk: children must be below x{var} in the variable order"
        );
        let bucket = hash::hash3(var, low.0, high.0) as usize & (self.heads.len() - 1);
        let mut cur = self.heads[bucket];
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            if node.var == var && node.low == low && node.high == high {
                self.op_stats.unique_hits += 1;
                return Func(cur);
            }
            cur = node.next;
        }
        let node = Node { var, low, high, next: self.heads[bucket] };
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                assert!(
                    self.nodes.len() < MAX_NODES,
                    "BDD node limit of {MAX_NODES} nodes exceeded"
                );
                let id = self.nodes.len() as u32;
                self.nodes.push(node);
                id
            }
        };
        self.heads[bucket] = id;
        self.unique_entries += 1;
        self.op_stats.inserts += 1;
        if self.unique_entries * 4 > self.heads.len() * 3 {
            self.relink_unique(self.heads.len() * 2);
        }
        Func(id)
    }

    /// Replaces the bucket array with `buckets` empty heads and relinks
    /// every live node in increasing id order, all at once, as BuDDy does.
    /// The table shape is then a deterministic function of the live node
    /// set. Used to double the table when it fills and to resize it to
    /// the survivors after a collection.
    fn relink_unique(&mut self, buckets: usize) {
        if self.heads.len() == buckets {
            self.heads.fill(NIL);
        } else {
            self.heads = vec![NIL; buckets];
        }
        let mask = buckets - 1;
        for id in 2..self.nodes.len() {
            let node = self.nodes[id];
            if node.var != FREE_VAR {
                let bucket = hash::hash3(node.var, node.low.0, node.high.0) as usize & mask;
                self.nodes[id].next = self.heads[bucket];
                self.heads[bucket] = id as u32;
            }
        }
    }

    /// Number of live (allocated, not freed) nodes including terminals.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Number of entries currently in the computed cache.
    pub fn cache_entries(&self) -> usize {
        self.cache.len
    }

    /// Marks `f` as an external root: `f` and everything it references
    /// survives [`gc`](Bdd::gc). Protection is counted; each call must be
    /// matched by one [`unprotect`](Bdd::unprotect).
    pub fn protect(&mut self, f: Func) {
        *self.protected.entry(f.0).or_insert(0) += 1;
    }

    /// Releases one protection of `f` (see [`protect`](Bdd::protect)).
    ///
    /// Unprotecting a handle that is not protected is a no-op.
    pub fn unprotect(&mut self, f: Func) {
        if let Some(count) = self.protected.get_mut(&f.0) {
            *count -= 1;
            if *count == 0 {
                self.protected.remove(&f.0);
            }
        }
    }

    /// Mark-and-sweep garbage collection from the protected roots.
    ///
    /// Returns the number of nodes freed. All unprotected handles become
    /// invalid; the computed cache is cleared. Never call while holding
    /// unprotected intermediates you still need.
    pub fn gc(&mut self) -> usize {
        let nodes_before = self.total_nodes();
        // GC entry is the moment of maximum table pressure: sample memory
        // here so `peak_bytes` captures it.
        self.sample_mem();
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<u32> = self.protected.keys().copied().collect();
        while let Some(id) = stack.pop() {
            if marked[id as usize] {
                continue;
            }
            marked[id as usize] = true;
            let node = self.nodes[id as usize];
            if node.var != TERMINAL_VAR {
                stack.push(node.low.0);
                stack.push(node.high.0);
            }
        }
        let mut freed = 0;
        for id in 2..self.nodes.len() as u32 {
            let node = &mut self.nodes[id as usize];
            if !marked[id as usize] && node.var != FREE_VAR {
                node.var = FREE_VAR;
                self.free.push(id);
                freed += 1;
            }
        }
        self.unique_entries -= freed;
        self.relink_unique((self.unique_entries * 2).next_power_of_two().max(MIN_BUCKETS));
        self.cache.clear();
        self.op_stats.gc_runs += 1;
        self.op_stats.gc_nodes_reclaimed += freed as u64;
        self.op_stats.gc_nodes_before += nodes_before as u64;
        freed
    }

    /// Clears the computed cache in O(1), by bumping its epoch; benchmarks
    /// use it to measure cold-cache performance. Results never depend on
    /// the cache's contents.
    pub fn clear_computed_cache(&mut self) {
        self.cache.clear();
    }

    /// Resizes the computed cache to `entries` slots (rounded up to a
    /// power of two, at least one 4-entry bucket), clearing it.
    pub fn set_cache_capacity(&mut self, entries: usize) {
        self.cache = ComputedCache::new(entries);
    }

    /// Capacity of the computed cache in entries.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity
    }

    pub(crate) fn set_order_raw(&mut self, var2level: Vec<u32>, level2var: Vec<VarId>) {
        debug_assert_eq!(var2level.len(), level2var.len());
        self.var2level = var2level;
        self.level2var = level2var;
    }

    #[inline]
    pub(crate) fn note_apply_step(&mut self) {
        self.op_stats.apply_steps += 1;
    }

    #[inline]
    pub(crate) fn cache_get(&mut self, key: &CacheKey) -> Option<Func> {
        let hit = self.cache.get(key);
        self.analytics.note_lookup(key.op, hit.is_some());
        hit.map(Func)
    }

    #[inline]
    pub(crate) fn cache_put(&mut self, key: CacheKey, value: Func) {
        if self.cache.put(key, value.0) {
            self.op_stats.cache_evictions += 1;
        }
    }

    /// Operation counters accumulated since construction. The cache
    /// lookup and hit totals are the sums of the per-operator counts.
    pub fn op_stats(&self) -> OpStats {
        let mut stats = self.op_stats;
        for [lookups, hits] in self.analytics.cache_by_op {
            stats.cache_lookups += lookups;
            stats.cache_hits += hits;
        }
        stats
    }

    /// The always-on per-op cache counters.
    pub(crate) fn analytics_state(&self) -> &crate::analytics::AnalyticsState {
        &self.analytics
    }

    /// Exact unique-table probe-length distribution, from walking the real
    /// intrusive chains (see [`crate::analytics::ProbeStats`]).
    pub(crate) fn unique_probe_stats(&self) -> crate::analytics::ProbeStats {
        let mut occupancy = vec![0u32; self.heads.len()];
        for (bucket, &head) in self.heads.iter().enumerate() {
            let mut cur = head;
            while cur != NIL {
                occupancy[bucket] += 1;
                cur = self.nodes[cur as usize].next;
            }
        }
        crate::analytics::probe_stats_from_occupancy(&occupancy)
    }

    /// Current heap footprint of the three dominant allocations, in bytes
    /// (capacity-based; see [`MemReport`]).
    pub fn current_mem_bytes(&self) -> usize {
        self.mem_report().total_bytes
    }

    /// Samples the current footprint into the running peak and returns it.
    ///
    /// The manager samples automatically on every [`gc`](Bdd::gc); callers
    /// with other pressure points (end of a build phase, per-output loop)
    /// should sample there too, since `peak_bytes` can only see what was
    /// sampled.
    pub fn sample_mem(&mut self) -> usize {
        let current = self.current_mem_bytes();
        self.peak_mem_bytes = self.peak_mem_bytes.max(current);
        current
    }

    /// The memory report: per-table byte estimates plus the sampled peak.
    ///
    /// The peak is at least the *current* total, so a caller that never
    /// triggered a GC still gets a meaningful figure.
    pub fn mem_report(&self) -> MemReport {
        let unique_table_bytes = self.heads.capacity() * std::mem::size_of::<u32>();
        let computed_cache_bytes = self.cache.bytes();
        let node_slab_bytes = self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.free.capacity() * std::mem::size_of::<u32>();
        let total_bytes = unique_table_bytes + computed_cache_bytes + node_slab_bytes;
        MemReport {
            unique_table_bytes,
            computed_cache_bytes,
            node_slab_bytes,
            total_bytes,
            peak_bytes: self.peak_mem_bytes.max(total_bytes),
        }
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bdd")
            .field("num_vars", &self.num_vars())
            .field("total_nodes", &self.total_nodes())
            .field("cache_entries", &self.cache.len)
            .field("protected_roots", &self.protected.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let mgr = Bdd::new(2);
        assert!(mgr.zero().is_zero());
        assert!(mgr.one().is_one());
        assert!(mgr.zero().is_const());
        assert_eq!(mgr.constant(true), mgr.one());
        assert_eq!(mgr.constant(false), mgr.zero());
        assert_eq!(mgr.total_nodes(), 2);
    }

    #[test]
    fn mk_is_canonical() {
        let mut mgr = Bdd::new(2);
        let a1 = mgr.var(0);
        let a2 = mgr.var(0);
        assert_eq!(a1, a2, "hash consing must return identical handles");
        assert_eq!(mgr.total_nodes(), 3);
        // Reduction: equal children collapse.
        let c = mgr.mk(1, a1, a1);
        assert_eq!(c, a1);
    }

    #[test]
    fn var_structure() {
        let mut mgr = Bdd::new(3);
        let b = mgr.var(1);
        assert_eq!(mgr.root_var(b), Some(1));
        assert_eq!(mgr.low(b), Func::ZERO);
        assert_eq!(mgr.high(b), Func::ONE);
        let nb = mgr.nvar(1);
        assert_eq!(mgr.low(nb), Func::ONE);
        assert_eq!(mgr.high(nb), Func::ZERO);
        assert_eq!(mgr.literal(1, true), b);
        assert_eq!(mgr.literal(1, false), nb);
        assert_eq!(mgr.root_var(Func::ONE), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let mut mgr = Bdd::new(2);
        let _ = mgr.var(2);
    }

    #[test]
    fn gc_frees_unprotected_nodes() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let keep = mgr.and(a, b);
        let _scratch = {
            let c = mgr.var(2);
            let d = mgr.var(3);
            mgr.or(c, d)
        };
        mgr.protect(keep);
        let before = mgr.total_nodes();
        let freed = mgr.gc();
        assert!(freed > 0, "scratch nodes must be collected");
        assert!(mgr.total_nodes() < before);
        let ops = mgr.op_stats();
        assert_eq!((ops.gc_runs, ops.gc_nodes_reclaimed), (1, freed as u64));
        assert_eq!(ops.gc_nodes_before, before as u64, "the live nodes it started with");
        // The protected function still works.
        assert!(mgr.eval(keep, &[true, true, false, false]));
        assert!(!mgr.eval(keep, &[true, false, false, false]));
        mgr.unprotect(keep);
    }

    #[test]
    fn gc_reuses_slots() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        mgr.protect(a);
        mgr.protect(b);
        let f_index = f.index();
        mgr.gc();
        // Rebuilding the same function reuses a freed slot.
        let g = mgr.and(a, b);
        assert_eq!(g.index(), f_index);
    }

    #[test]
    fn op_stats_count_work() {
        let mut mgr = Bdd::new(3);
        assert_eq!(mgr.op_stats(), OpStats::default());
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let stats = mgr.op_stats();
        assert!(stats.mk_calls >= 3, "two vars and one AND node");
        assert!(stats.apply_steps >= 1, "the AND recursed at least once");
        // Repeating the same operation hits the computed cache.
        let lookups_before = mgr.op_stats().cache_lookups;
        let g = mgr.and(a, b);
        assert_eq!(f, g);
        let stats = mgr.op_stats();
        assert!(stats.cache_lookups > lookups_before);
        assert!(stats.cache_hits >= 1);
        assert!(stats.cache_hit_rate() > 0.0);
        // The totals are the per-operator counts, summed.
        let by_op = mgr.analytics().cache_by_op;
        assert_eq!(stats.cache_lookups, by_op.iter().map(|op| op.lookups).sum::<u64>());
        assert_eq!(stats.cache_hits, by_op.iter().map(|op| op.hits).sum::<u64>());
        assert_eq!(OpStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn gc_counters_accumulate() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let keep = mgr.and(a, b);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let _scratch = mgr.or(c, d);
        mgr.protect(keep);
        let freed = mgr.gc();
        assert!(freed > 0);
        let stats = mgr.op_stats();
        assert_eq!(stats.gc_runs, 1);
        assert_eq!(stats.gc_nodes_reclaimed, freed as u64);
        // A second collection finds nothing new to free.
        assert_eq!(mgr.gc(), 0);
        let stats = mgr.op_stats();
        assert_eq!(stats.gc_runs, 2);
        assert_eq!(stats.gc_nodes_reclaimed, freed as u64);
        mgr.unprotect(keep);
    }

    #[test]
    fn mem_report_components_add_up_and_peak_tracks_gc() {
        let mut mgr = Bdd::new(8);
        let mem = mgr.mem_report();
        assert_eq!(
            mem.total_bytes,
            mem.unique_table_bytes + mem.computed_cache_bytes + mem.node_slab_bytes
        );
        assert!(mem.node_slab_bytes > 0, "the node slab is pre-allocated");
        assert!(mem.peak_bytes >= mem.total_bytes);
        // Build something, then GC: the peak must cover the pre-GC footprint.
        let mut f = mgr.one();
        for v in 0..8 {
            let x = mgr.var(v);
            f = mgr.and(f, x);
        }
        let before_gc = mgr.current_mem_bytes();
        mgr.protect(f);
        mgr.gc();
        let mem = mgr.mem_report();
        assert!(mem.peak_bytes >= before_gc, "GC-point sample must feed the peak");
        assert!(mem.unique_table_bytes > 0);
        let json = mem.to_json();
        assert_eq!(
            json.get("peak_bytes").and_then(Json::as_f64),
            Some(mem.peak_bytes as f64),
            "mem JSON must mirror the struct"
        );
        mgr.unprotect(f);
    }

    #[test]
    fn unique_table_stays_canonical_across_growth() {
        // The 512 minterms of 9 variables form a trie of ~1000 distinct
        // nodes — several doublings past MIN_BUCKETS, each relinking every
        // node built so far.
        let mut mgr = Bdd::new(9);
        let mut triples = Vec::new();
        let mut minterms = Vec::new();
        for i in 0..512u32 {
            let mut f = mgr.one();
            for v in 0..9 {
                let x = mgr.literal(v, (i >> v) & 1 == 1);
                f = mgr.and(x, f);
            }
            if !f.is_const() {
                let n = *mgr.node(f);
                triples.push((n.var, n.low, n.high, f));
            }
            minterms.push((i, f));
        }
        assert!(mgr.total_nodes() > MIN_BUCKETS, "test must outgrow the initial table");
        // Re-making any recorded node returns the identical handle and
        // allocates nothing.
        let allocated_before = mgr.op_stats().nodes_allocated();
        for (var, low, high, expect) in triples {
            assert_eq!(mgr.mk(var, low, high), expect);
        }
        assert_eq!(mgr.op_stats().nodes_allocated(), allocated_before);
        // Every minterm still evaluates to exactly its assignment.
        for (i, f) in minterms.iter().step_by(37) {
            let assignment: Vec<bool> = (0..9).map(|v| (i >> v) & 1 == 1).collect();
            assert!(mgr.eval(*f, &assignment));
        }
        assert_eq!(
            mgr.unique_entries,
            mgr.total_nodes() - 2,
            "every live non-terminal is an entry"
        );
        let probe = mgr.unique_probe_stats();
        assert_eq!(probe.entries, mgr.unique_entries, "chains cover every entry exactly once");
        let lf = probe.entries as f64 / probe.buckets as f64;
        assert!(lf > 0.0 && lf <= 1.0, "load factor bounded by the grow policy, got {lf}");
    }

    fn key(op: CacheOp, a: u32, b: u32, c: u32) -> CacheKey {
        CacheKey { op, a, b, c }
    }

    #[test]
    fn lossy_cache_evicts_and_counts() {
        let mut mgr = Bdd::new(8);
        mgr.set_cache_capacity(1);
        assert_eq!(mgr.cache_capacity(), 4, "one 4-way bucket");
        // Four distinct keys fill the bucket without evicting.
        let keys: Vec<CacheKey> = (0..5).map(|k| key(CacheOp::And, k + 2, k + 3, 0)).collect();
        for (k, &kk) in keys[..4].iter().enumerate() {
            mgr.cache_put(kk, Func(k as u32));
        }
        assert_eq!(mgr.op_stats().cache_evictions, 0);
        assert_eq!(mgr.cache_entries(), 4);
        // Re-inserting a live key overwrites it in place.
        mgr.cache_put(keys[1], Func(1));
        assert_eq!(mgr.op_stats().cache_evictions, 0);
        // The fifth distinct key drops the oldest entry (FIFO).
        mgr.cache_put(keys[4], Func(4));
        assert_eq!(mgr.op_stats().cache_evictions, 1);
        assert_eq!(mgr.cache_entries(), 4);
        assert_eq!(mgr.cache_get(&keys[0]), None, "the oldest entry is gone");
        for (k, kk) in keys.iter().enumerate().skip(1) {
            assert_eq!(mgr.cache_get(kk), Some(Func(k as u32)));
        }
        // Results stay correct regardless.
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let _ = mgr.or(b, c);
        let _ = mgr.xor(a, c);
        let f = mgr.and(a, b);
        assert!(mgr.eval(f, &[true, true, false, false, false, false, false, false]));
    }

    #[test]
    fn no_lookup_hits_across_a_clear_or_an_epoch_wrap() {
        let mut mgr = Bdd::new(4);
        let mut keys = Vec::new();
        let mut wraps = 0;
        for round in 0..40u32 {
            for &old in &keys {
                assert_eq!(mgr.cache_get(&old), None, "round {round}: {old:?} survived a clear");
            }
            let k = key(CacheOp::ALL[round as usize % CacheOp::COUNT], round + 2, round, 7);
            mgr.cache_put(k, Func(round));
            assert_eq!(mgr.cache_get(&k), Some(Func(round)));
            keys.push(k);
            if round % 5 == 0 {
                mgr.gc();
            } else {
                mgr.clear_computed_cache();
            }
            assert_eq!(mgr.cache_entries(), 0);
            if mgr.cache.epoch == 1 {
                wraps += 1;
            }
        }
        assert!(wraps >= 2, "40 clears must wrap the 4-bit epoch");
    }

    #[test]
    fn operation_and_epoch_tags_do_not_alias_the_largest_index() {
        let mut mgr = Bdd::new(2);
        let a = INDEX_MASK;
        assert_eq!(a as usize, MAX_NODES - 1);
        for (k, &op) in CacheOp::ALL.iter().enumerate() {
            mgr.cache_put(key(op, a, 5, a), Func(INDEX_MASK - k as u32));
        }
        assert_eq!(mgr.op_stats().cache_evictions, 0);
        for (k, &op) in CacheOp::ALL.iter().enumerate() {
            assert_eq!(mgr.cache_get(&key(op, a, 5, a)), Some(Func(INDEX_MASK - k as u32)));
        }
        mgr.clear_computed_cache();
        for &op in &CacheOp::ALL {
            assert_eq!(mgr.cache_get(&key(op, a, 5, a)), None);
        }
    }

    #[test]
    fn default_computed_cache_is_256_kib() {
        // Sized to the hit-rate plateau of the EXPERIMENTS "Kernel tuning"
        // sweep; a larger cache only adds L2 misses.
        let mut mgr = Bdd::new(4);
        assert_eq!(mgr.mem_report().computed_cache_bytes, 0, "allocated on first insert");
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _ = mgr.and(a, b);
        assert_eq!(mgr.mem_report().computed_cache_bytes, 256 * 1024);
    }

    #[test]
    fn clear_computed_cache_drops_entries_but_not_nodes() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        assert!(mgr.cache_entries() > 0);
        let nodes = mgr.total_nodes();
        mgr.clear_computed_cache();
        assert_eq!(mgr.cache_entries(), 0);
        assert_eq!(mgr.total_nodes(), nodes);
        // Same op re-runs (a cache miss) but returns the canonical handle.
        let g = mgr.and(a, b);
        assert_eq!(f, g);
    }

    #[test]
    fn gc_compacts_and_stays_canonical() {
        let mut mgr = Bdd::new(12);
        // Grow the table well past MIN_BUCKETS, keep one root, collect.
        let mut keep = mgr.one();
        for v in 0..12 {
            let x = mgr.var(v);
            keep = mgr.and(keep, x);
        }
        let mut scratch = mgr.zero();
        for round in 0..30 {
            for v in 0..12 {
                let x = mgr.var(v);
                let t = if round % 2 == 0 { mgr.or(scratch, x) } else { mgr.xor(scratch, x) };
                scratch = t;
            }
        }
        mgr.protect(keep);
        let freed = mgr.gc();
        assert!(freed > 0);
        assert_eq!(mgr.unique_entries, mgr.total_nodes() - 2);
        let probe = mgr.unique_probe_stats();
        assert_eq!(probe.entries, mgr.unique_entries);
        // The kept conjunction still resolves node-by-node via mk hits.
        let mut expect = mgr.one();
        for v in (0..12).rev() {
            expect = mgr.mk(v, Func::ZERO, expect);
        }
        assert_eq!(expect, keep);
        mgr.unprotect(keep);
    }

    #[test]
    fn op_stats_merge_sums_every_counter() {
        let mut a = OpStats {
            mk_calls: 1,
            unique_hits: 2,
            inserts: 3,
            cache_lookups: 3,
            cache_hits: 4,
            cache_evictions: 5,
            apply_steps: 6,
            gc_runs: 7,
            gc_nodes_reclaimed: 8,
            gc_nodes_before: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.mk_calls, 2);
        assert_eq!(a.cache_evictions, 10);
        assert_eq!(a.inserts, 6);
        assert_eq!(a.nodes_allocated(), 6, "allocations are the insertion count");
    }

    #[test]
    fn nodes_allocated_counts_exactly_the_inserted_nodes() {
        // A GC-free script full of reductions (x ∧ x, x ∨ ¬x, mk with equal
        // children) and unique-table hits: allocations must equal the
        // growth of the node store, not mk calls minus hits.
        let mut mgr = Bdd::new(6);
        let start = mgr.total_nodes();
        let mut f = mgr.zero();
        for v in 0..6 {
            let x = mgr.var(v);
            let nx = mgr.nvar(v);
            let taut = mgr.or(x, nx);
            let same = mgr.and(x, x);
            let t = mgr.xor(f, same);
            f = mgr.and(t, taut);
            let _ = mgr.mk(v, f, f);
        }
        let _ = mgr.mk(0, Func::ONE, Func::ONE);
        let stats = mgr.op_stats();
        assert!(
            stats.mk_calls > stats.unique_hits + stats.inserts,
            "the script must include reductions"
        );
        assert_eq!(stats.nodes_allocated(), (mgr.total_nodes() - start) as u64);
    }

    #[test]
    fn protect_is_counted() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        mgr.protect(f);
        mgr.protect(f);
        mgr.unprotect(f);
        mgr.gc();
        // Still protected: must survive.
        assert!(mgr.eval(f, &[true, true]));
        mgr.unprotect(f);
        mgr.unprotect(f); // extra unprotect is a no-op
    }
}
