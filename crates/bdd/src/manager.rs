//! The BDD manager: node store, unique table, computed cache, garbage
//! collection.

use std::fmt;
use std::time::{Duration, Instant};

use obs::json::Json;
use obs::{Histogram, Recorder};

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

/// Old buckets moved per `mk` call while an incremental rehash is pending.
const MIGRATE_STEP: usize = 4;

/// Default size of the lossy computed cache, in entries.
pub const DEFAULT_CACHE_ENTRIES: usize = 1 << 16;

/// Level of the terminals: below every variable in any order.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

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
    Restrict,
    Compose,
    CofPos,
    CofNeg,
    PickSlice,
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
        CacheOp::Restrict,
        CacheOp::Compose,
        CacheOp::CofPos,
        CacheOp::CofNeg,
        CacheOp::PickSlice,
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
            CacheOp::Restrict => "restrict",
            CacheOp::Compose => "compose",
            CacheOp::CofPos => "cof_pos",
            CacheOp::CofNeg => "cof_neg",
            CacheOp::PickSlice => "pick_slice",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CacheKey {
    pub op: CacheOp,
    pub a: u32,
    pub b: u32,
    pub c: u32,
}

/// Operation counters of a manager (see [`Bdd::op_stats`]).
///
/// Everything here resets with [`Bdd::reset_op_stats`] — including the GC
/// counters, which makes per-phase deltas easy. The manager's *lifetime*
/// GC count stays available through [`Bdd::gc_runs`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OpStats {
    /// `mk` invocations (node constructions requested).
    pub mk_calls: u64,
    /// `mk` calls satisfied by the unique table (shared nodes).
    pub unique_hits: u64,
    /// Computed-cache lookups across all operators.
    pub cache_lookups: u64,
    /// Computed-cache hits.
    pub cache_hits: u64,
    /// Live computed-cache entries overwritten by a colliding insert (only
    /// the lossy cache evicts; the unbounded shim never does).
    pub cache_evictions: u64,
    /// Recursive `apply` steps across the binary operators.
    pub apply_steps: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Nodes reclaimed by those collections.
    pub gc_nodes_reclaimed: u64,
    /// Wall-clock time spent collecting.
    pub gc_time: Duration,
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

    /// Nodes actually constructed: `mk` calls minus unique-table hits (the
    /// same proxy the trace costing uses).
    pub fn nodes_allocated(&self) -> u64 {
        self.mk_calls.saturating_sub(self.unique_hits)
    }

    /// Adds `other`'s counters into `self` (combining per-worker managers
    /// into one run-level report).
    pub fn merge(&mut self, other: &OpStats) {
        self.mk_calls += other.mk_calls;
        self.unique_hits += other.unique_hits;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_evictions += other.cache_evictions;
        self.apply_steps += other.apply_steps;
        self.gc_runs += other.gc_runs;
        self.gc_nodes_reclaimed += other.gc_nodes_reclaimed;
        self.gc_time += other.gc_time;
    }
}

/// Heap footprint of the manager's three dominant allocations, in bytes
/// (see [`Bdd::mem_report`]).
///
/// All figures are *capacity*-based: they count what the allocator holds
/// for the manager, not just the live entries, because retained capacity is
/// exactly what an out-of-memory investigation needs to see. The unique
/// table is intrusive — chains live inside the node slab — so
/// `unique_table_bytes` covers only the bucket-head arrays (4 bytes per
/// bucket, both generations during an incremental rehash); the chain links
/// are part of `node_slab_bytes`. The computed cache is a flat slot array
/// (or a hashbrown map costed at `size_of::<(K, V)>() + 1` per slot when
/// the unbounded shim is active). `peak_bytes` is the largest total ever
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

    /// Sums two reports component-wise. Peaks sum as well: per-worker
    /// managers live concurrently, so the summed peak is an upper bound on
    /// the true process-wide peak.
    pub fn merge(&mut self, other: &MemReport) {
        self.unique_table_bytes += other.unique_table_bytes;
        self.computed_cache_bytes += other.computed_cache_bytes;
        self.node_slab_bytes += other.node_slab_bytes;
        self.total_bytes += other.total_bytes;
        self.peak_bytes += other.peak_bytes;
    }
}

/// Capacity-based byte estimate of a hashbrown-backed map: one flat slot
/// of `(K, V)` plus one control byte per usable slot. Since the unique
/// table went intrusive this only costs the unbounded-cache shim and the
/// protected-roots map.
fn map_bytes<K, V, S>(map: &std::collections::HashMap<K, V, S>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// One direct-mapped computed-cache slot. `op == SLOT_EMPTY_OP` marks an
/// empty slot; real ops are the [`CacheOp`] discriminants (< 13).
#[derive(Clone, Copy)]
pub(crate) struct CacheSlot {
    op: u8,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

const SLOT_EMPTY_OP: u8 = u8::MAX;

const EMPTY_SLOT: CacheSlot = CacheSlot { op: SLOT_EMPTY_OP, a: 0, b: 0, c: 0, result: 0 };

/// The computed cache: lossy and fixed-size by default, with an unbounded
/// hash-map shim kept for differential testing
/// ([`Bdd::set_unbounded_cache`]).
pub(crate) enum ComputedCache {
    /// Direct-mapped: one slot per hash bucket, overwrite on collision.
    /// `slots` is allocated lazily on the first insert so idle managers
    /// stay small; `capacity` is a power of two.
    Lossy { slots: Vec<CacheSlot>, capacity: usize, len: usize },
    /// Unbounded map — the pre-kernel behaviour.
    Unbounded(FxHashMap<CacheKey, u32>),
}

impl ComputedCache {
    fn lossy(entries: usize) -> Self {
        ComputedCache::Lossy {
            slots: Vec::new(),
            capacity: entries.max(1).next_power_of_two(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        match self {
            ComputedCache::Lossy { len, .. } => *len,
            ComputedCache::Unbounded(map) => map.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            // Dropping to length 0 keeps the allocation; `put` re-fills it.
            ComputedCache::Lossy { slots, len, .. } => {
                slots.clear();
                *len = 0;
            }
            ComputedCache::Unbounded(map) => map.clear(),
        }
    }

    #[inline]
    fn get(&self, key: &CacheKey) -> Option<u32> {
        match self {
            ComputedCache::Lossy { slots, capacity, .. } => {
                if slots.is_empty() {
                    return None;
                }
                let op = key.op as u8;
                let slot = &slots[hash::hash4(op, key.a, key.b, key.c) as usize & (capacity - 1)];
                (slot.op == op && slot.a == key.a && slot.b == key.b && slot.c == key.c)
                    .then_some(slot.result)
            }
            ComputedCache::Unbounded(map) => map.get(key).copied(),
        }
    }

    /// Inserts `key → value`; returns `true` when a *different* live entry
    /// was overwritten (an eviction).
    #[inline]
    fn put(&mut self, key: CacheKey, value: u32) -> bool {
        match self {
            ComputedCache::Lossy { slots, capacity, len } => {
                if slots.is_empty() {
                    slots.resize(*capacity, EMPTY_SLOT);
                }
                let op = key.op as u8;
                let slot =
                    &mut slots[hash::hash4(op, key.a, key.b, key.c) as usize & (*capacity - 1)];
                let evicted = slot.op != SLOT_EMPTY_OP
                    && !(slot.op == op && slot.a == key.a && slot.b == key.b && slot.c == key.c);
                if slot.op == SLOT_EMPTY_OP {
                    *len += 1;
                }
                *slot = CacheSlot { op, a: key.a, b: key.b, c: key.c, result: value };
                evicted
            }
            ComputedCache::Unbounded(map) => {
                map.insert(key, value);
                false
            }
        }
    }

    fn bytes(&self) -> usize {
        match self {
            ComputedCache::Lossy { slots, .. } => {
                slots.capacity() * std::mem::size_of::<CacheSlot>()
            }
            ComputedCache::Unbounded(map) => map_bytes(map),
        }
    }

    fn same_config(&self, other: &ComputedCache) -> bool {
        match (self, other) {
            (
                ComputedCache::Lossy { capacity: a, .. },
                ComputedCache::Lossy { capacity: b, .. },
            ) => a == b,
            (ComputedCache::Unbounded(_), ComputedCache::Unbounded(_)) => true,
            _ => false,
        }
    }

    /// An empty cache with the same configuration (used to carry sizing
    /// across reorder rebuilds).
    fn fresh_like(&self) -> ComputedCache {
        match self {
            ComputedCache::Lossy { capacity, .. } => ComputedCache::lossy(*capacity),
            ComputedCache::Unbounded(_) => ComputedCache::Unbounded(FxHashMap::default()),
        }
    }
}

/// A point-in-time view of the manager's tables (see
/// [`Bdd::telemetry_snapshot`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ManagerSnapshot {
    /// Live nodes (allocated minus freed), including the two terminals.
    pub total_nodes: usize,
    /// Freed slots awaiting reuse.
    pub free_nodes: usize,
    /// Entries in the unique table.
    pub unique_entries: usize,
    /// Unique-table load factor (entries over allocated capacity).
    pub unique_load_factor: f64,
    /// Entries in the computed cache.
    pub cache_entries: usize,
    /// Operation counters at snapshot time.
    pub op_stats: OpStats,
}

impl ManagerSnapshot {
    /// The snapshot as a JSON object (the shape embedded in run reports).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("total_nodes", self.total_nodes)
            .field("free_nodes", self.free_nodes)
            .field("unique_entries", self.unique_entries)
            .field("unique_load_factor", self.unique_load_factor)
            .field("cache_entries", self.cache_entries)
            .field("mk_calls", self.op_stats.mk_calls)
            .field("unique_hits", self.op_stats.unique_hits)
            .field("apply_steps", self.op_stats.apply_steps)
            .field("cache_lookups", self.op_stats.cache_lookups)
            .field("cache_hits", self.op_stats.cache_hits)
            .field("cache_hit_rate", self.op_stats.cache_hit_rate())
            .field("cache_evictions", self.op_stats.cache_evictions)
            .field("gc_runs", self.op_stats.gc_runs)
            .field("gc_nodes_reclaimed", self.op_stats.gc_nodes_reclaimed)
            .field("gc_time_s", self.op_stats.gc_time.as_secs_f64())
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
    /// Bucket heads of the previous, smaller table while an incremental
    /// rehash is in flight (empty otherwise). Buckets below `migrated`
    /// have already been moved into `heads`.
    old_heads: Vec<u32>,
    migrated: usize,
    /// Live unique-table entries (non-terminal, non-freed nodes).
    unique_entries: usize,
    pub(crate) cache: ComputedCache,
    var2level: Vec<u32>,
    level2var: Vec<u32>,
    protected: FxHashMap<u32, u32>,
    free: Vec<u32>,
    gc_runs: usize,
    op_stats: OpStats,
    recorder: Option<Recorder>,
    /// Largest sampled heap footprint (see [`Bdd::sample_mem`]).
    peak_mem_bytes: usize,
    /// Per-operation latency histogram; `None` (the default) costs one
    /// branch per public operator call.
    op_timing: Option<Box<Histogram>>,
    /// Always-on analytics counters (per-op cache traffic, GC samples,
    /// reorder count); see [`crate::analytics`].
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
            old_heads: Vec::new(),
            migrated: 0,
            unique_entries: 0,
            cache: ComputedCache::lossy(DEFAULT_CACHE_ENTRIES),
            var2level: (0..num_vars as u32).collect(),
            level2var: (0..num_vars as u32).collect(),
            protected: FxHashMap::default(),
            free: Vec::new(),
            gc_runs: 0,
            op_stats: OpStats::default(),
            recorder: None,
            peak_mem_bytes: 0,
            op_timing: None,
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

    /// Appends a fresh variable at the bottom of the order and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the manager already holds 256 variables.
    pub fn add_var(&mut self) -> VarId {
        let v = self.var2level.len() as u32;
        assert!((v as usize) < MAX_VARS, "at most {MAX_VARS} variables supported");
        self.var2level.push(v);
        self.level2var.push(v);
        v
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
        if !self.old_heads.is_empty() {
            self.migrate_buckets(MIGRATE_STEP);
        }
        let hash = hash::hash3(var, low.0, high.0);
        let bucket = hash as usize & (self.heads.len() - 1);
        let mut cur = self.heads[bucket];
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            if node.var == var && node.low == low && node.high == high {
                self.op_stats.unique_hits += 1;
                return Func(cur);
            }
            cur = node.next;
        }
        // During an incremental rehash the node may still sit in its
        // not-yet-migrated old bucket.
        if !self.old_heads.is_empty() {
            let old_bucket = hash as usize & (self.old_heads.len() - 1);
            if old_bucket >= self.migrated {
                let mut cur = self.old_heads[old_bucket];
                while cur != NIL {
                    let node = &self.nodes[cur as usize];
                    if node.var == var && node.low == low && node.high == high {
                        self.op_stats.unique_hits += 1;
                        return Func(cur);
                    }
                    cur = node.next;
                }
            }
        }
        let node = Node { var, low, high, next: self.heads[bucket] };
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(node);
                id
            }
        };
        self.heads[bucket] = id;
        self.unique_entries += 1;
        if self.old_heads.is_empty() && self.unique_entries * 4 > self.heads.len() * 3 {
            self.grow_unique();
        }
        Func(id)
    }

    /// Doubles the bucket array and starts an incremental rehash: old
    /// buckets are drained [`MIGRATE_STEP`] at a time by subsequent `mk`
    /// calls, so no single operation pays the full rehash. New inserts go
    /// straight into the new table; lookups probe both until done.
    fn grow_unique(&mut self) {
        debug_assert!(self.old_heads.is_empty());
        let new_len = self.heads.len() * 2;
        self.old_heads = std::mem::replace(&mut self.heads, vec![NIL; new_len]);
        self.migrated = 0;
    }

    fn migrate_buckets(&mut self, step: usize) {
        let mask = self.heads.len() - 1;
        for _ in 0..step {
            if self.migrated == self.old_heads.len() {
                break;
            }
            let mut cur = self.old_heads[self.migrated];
            while cur != NIL {
                let node = self.nodes[cur as usize];
                let bucket = hash::hash3(node.var, node.low.0, node.high.0) as usize & mask;
                self.nodes[cur as usize].next = self.heads[bucket];
                self.heads[bucket] = cur;
                cur = node.next;
            }
            self.migrated += 1;
        }
        if self.migrated == self.old_heads.len() {
            self.old_heads = Vec::new();
            self.migrated = 0;
        }
    }

    /// Number of live (allocated, not freed) nodes including terminals.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Number of entries currently in the computed cache.
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
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
        let start = Instant::now();
        let nodes_before = self.total_nodes();
        let cache_entries = self.cache.len();
        // GC entry is the moment of maximum table pressure: sample memory
        // here so `peak_bytes` captures it.
        let mem_before = self.sample_mem();
        self.gc_runs += 1;
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
        self.rebuild_unique(&marked);
        self.cache.clear();
        let elapsed = start.elapsed();
        self.op_stats.gc_runs += 1;
        self.op_stats.gc_nodes_reclaimed += freed as u64;
        self.op_stats.gc_time += elapsed;
        self.analytics.note_gc(crate::analytics::GcSample {
            nodes_before: nodes_before as u64,
            freed: freed as u64,
            cache_entries_dropped: cache_entries as u64,
            elapsed_ns: elapsed.as_nanos() as u64,
        });
        if let Some(rec) = &self.recorder {
            rec.count("bdd.gc.runs", 1);
            rec.count("bdd.gc.nodes_reclaimed", freed as u64);
            rec.point(
                "bdd.gc",
                Json::obj()
                    .field("nodes_before", nodes_before)
                    .field("nodes_after", nodes_before - freed)
                    .field("freed", freed)
                    .field("cache_entries_dropped", cache_entries)
                    .field("mem_bytes_before", mem_before)
                    .field("elapsed_s", elapsed.as_secs_f64()),
            );
            self.emit_mem_gauges(rec);
        }
        freed
    }

    /// GC-time compaction: rebuilds the bucket array sized to the
    /// survivors (abandoning any in-flight incremental rehash) and relinks
    /// every live node in increasing id order, so the table shape after a
    /// collection is a deterministic function of the live node set.
    fn rebuild_unique(&mut self, marked: &[bool]) {
        self.old_heads = Vec::new();
        self.migrated = 0;
        let target = (self.unique_entries * 2).next_power_of_two().max(MIN_BUCKETS);
        if self.heads.len() == target {
            self.heads.fill(NIL);
        } else {
            self.heads = vec![NIL; target];
        }
        let mask = target - 1;
        for (id, &live) in marked.iter().enumerate().skip(2) {
            if live {
                let node = self.nodes[id];
                let bucket = hash::hash3(node.var, node.low.0, node.high.0) as usize & mask;
                self.nodes[id].next = self.heads[bucket];
                self.heads[bucket] = id as u32;
            }
        }
    }

    /// Number of completed [`gc`](Bdd::gc) runs (diagnostics).
    pub fn gc_runs(&self) -> usize {
        self.gc_runs
    }

    /// Clears the computed cache: between decomposition outputs (so one
    /// output's entries cannot alias the next output's work), and in
    /// benchmarks to measure cold-cache performance.
    pub fn clear_computed_cache(&mut self) {
        self.cache.clear();
    }

    /// Resizes the lossy computed cache to `entries` slots (rounded up to a
    /// power of two, minimum 1), clearing it.
    pub fn set_cache_capacity(&mut self, entries: usize) {
        self.cache = ComputedCache::lossy(entries);
    }

    /// Replaces the lossy cache with an unbounded hash map — the
    /// pre-kernel behaviour, kept as a differential-testing shim.
    pub fn set_unbounded_cache(&mut self) {
        self.cache = ComputedCache::Unbounded(FxHashMap::default());
    }

    /// Capacity of the lossy computed cache in entries, or `None` when the
    /// unbounded shim is active.
    pub fn cache_capacity(&self) -> Option<usize> {
        match &self.cache {
            ComputedCache::Lossy { capacity, .. } => Some(*capacity),
            ComputedCache::Unbounded(_) => None,
        }
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
        self.op_stats.cache_lookups += 1;
        let hit = self.cache.get(key);
        if hit.is_some() {
            self.op_stats.cache_hits += 1;
        }
        self.analytics.note_lookup(key.op, hit.is_some());
        hit.map(Func)
    }

    #[inline]
    pub(crate) fn cache_put(&mut self, key: CacheKey, value: Func) {
        if self.cache.put(key, value.0) {
            self.op_stats.cache_evictions += 1;
        }
    }

    /// Operation counters accumulated since construction (or the last
    /// [`reset_op_stats`](Bdd::reset_op_stats)).
    pub fn op_stats(&self) -> OpStats {
        self.op_stats
    }

    /// Resets the operation counters (the lifetime [`gc_runs`](Bdd::gc_runs)
    /// count is not affected).
    pub fn reset_op_stats(&mut self) {
        self.op_stats = OpStats::default();
    }

    /// Attaches a telemetry recorder; GC events stream to it and
    /// [`emit_gauges`](Bdd::emit_gauges) publishes table gauges. Pass `None`
    /// to detach. Without a recorder the manager emits nothing.
    pub fn set_recorder(&mut self, recorder: Option<Recorder>) {
        self.recorder = recorder;
    }

    /// The attached telemetry recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Adopts the instrumentation state of `old` after a rebuild: the
    /// attached recorder and the accumulated operation/GC counters survive
    /// [`reorder`](Bdd::reorder) even though the node store does not.
    pub(crate) fn carry_instrumentation_from(&mut self, old: &Bdd) {
        self.recorder = old.recorder.clone();
        self.gc_runs += old.gc_runs;
        self.peak_mem_bytes = self.peak_mem_bytes.max(old.peak_mem_bytes);
        match (&mut self.op_timing, &old.op_timing) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.op_timing = Some(theirs.clone()),
            _ => {}
        }
        let fresh = std::mem::take(&mut self.op_stats);
        self.op_stats = old.op_stats;
        self.op_stats.merge(&fresh);
        self.analytics.absorb(&old.analytics);
        // The rebuilt manager must keep the configured cache geometry
        // (size-1 cache, unbounded shim, …) across a reorder.
        if !self.cache.same_config(&old.cache) {
            self.cache = old.cache.fresh_like();
        }
    }

    /// The always-on analytics counters (per-op cache traffic, GC sample
    /// log, reorder count).
    pub(crate) fn analytics_state(&self) -> &crate::analytics::AnalyticsState {
        &self.analytics
    }

    /// Counts one reorder-by-rebuild run (called by
    /// [`reorder`](Bdd::reorder) on the freshly built manager).
    pub(crate) fn note_reorder(&mut self) {
        self.analytics.reorders += 1;
    }

    /// Exact unique-table probe-length distribution, from walking the real
    /// intrusive chains (see [`crate::analytics::ProbeStats`]). Nodes still
    /// sitting in not-yet-migrated old buckets are counted toward the new
    /// bucket they will land in.
    pub(crate) fn unique_probe_stats(&self) -> crate::analytics::ProbeStats {
        let mask = self.heads.len() - 1;
        let mut occupancy = vec![0u32; self.heads.len()];
        for (bucket, &head) in self.heads.iter().enumerate() {
            let mut cur = head;
            while cur != NIL {
                occupancy[bucket] += 1;
                cur = self.nodes[cur as usize].next;
            }
        }
        if !self.old_heads.is_empty() {
            for &head in &self.old_heads[self.migrated..] {
                let mut cur = head;
                while cur != NIL {
                    let node = &self.nodes[cur as usize];
                    let bucket = hash::hash3(node.var, node.low.0, node.high.0) as usize & mask;
                    occupancy[bucket] += 1;
                    cur = node.next;
                }
            }
        }
        crate::analytics::probe_stats_from_occupancy(&occupancy)
    }

    /// Current heap footprint of the three dominant allocations, in bytes
    /// (capacity-based; see [`MemReport`]).
    pub fn current_mem_bytes(&self) -> usize {
        (self.heads.capacity() + self.old_heads.capacity()) * std::mem::size_of::<u32>()
            + self.cache.bytes()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.free.capacity() * std::mem::size_of::<u32>()
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
        let unique_table_bytes =
            (self.heads.capacity() + self.old_heads.capacity()) * std::mem::size_of::<u32>();
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

    fn emit_mem_gauges(&self, rec: &Recorder) {
        let mem = self.mem_report();
        rec.gauge("bdd.mem.unique_table_bytes", mem.unique_table_bytes as f64);
        rec.gauge("bdd.mem.computed_cache_bytes", mem.computed_cache_bytes as f64);
        rec.gauge("bdd.mem.node_slab_bytes", mem.node_slab_bytes as f64);
        rec.gauge("bdd.mem.total_bytes", mem.total_bytes as f64);
        rec.gauge("bdd.mem.peak_bytes", mem.peak_bytes as f64);
    }

    /// Turns on the per-operation latency histogram: every public operator
    /// call ([`apply`](Bdd::apply), [`not`](Bdd::not), [`ite`](Bdd::ite) and
    /// the named wrappers) records its wall-clock duration. Off by default;
    /// the disabled path costs one branch per call.
    pub fn enable_op_timing(&mut self) {
        if self.op_timing.is_none() {
            self.op_timing = Some(Box::default());
        }
    }

    #[inline]
    pub(crate) fn op_timing_enabled(&self) -> bool {
        self.op_timing.is_some()
    }

    #[inline]
    pub(crate) fn record_op_duration(&mut self, d: Duration) {
        if let Some(h) = &mut self.op_timing {
            h.record(d);
        }
    }

    /// The per-operation latency histogram, if
    /// [`enable_op_timing`](Bdd::enable_op_timing) was called.
    pub fn op_latency(&self) -> Option<&Histogram> {
        self.op_timing.as_deref()
    }

    /// Unique-table load factor: entries over bucket count, in `[0, 1]`
    /// in steady state (grows are triggered at 3/4).
    pub fn unique_load_factor(&self) -> f64 {
        if self.unique_entries == 0 {
            0.0
        } else {
            self.unique_entries as f64 / self.heads.len() as f64
        }
    }

    /// A point-in-time view of the manager's tables and counters.
    pub fn telemetry_snapshot(&self) -> ManagerSnapshot {
        ManagerSnapshot {
            total_nodes: self.total_nodes(),
            free_nodes: self.free.len(),
            unique_entries: self.unique_entries,
            unique_load_factor: self.unique_load_factor(),
            cache_entries: self.cache.len(),
            op_stats: self.op_stats,
        }
    }

    /// Publishes the snapshot as gauges on the attached recorder (no-op
    /// without one).
    pub fn emit_gauges(&self) {
        let Some(rec) = &self.recorder else { return };
        let snap = self.telemetry_snapshot();
        rec.gauge("bdd.total_nodes", snap.total_nodes as f64);
        rec.gauge("bdd.free_nodes", snap.free_nodes as f64);
        rec.gauge("bdd.unique.entries", snap.unique_entries as f64);
        rec.gauge("bdd.unique.load_factor", snap.unique_load_factor);
        rec.gauge("bdd.cache.entries", snap.cache_entries as f64);
        rec.gauge("bdd.cache.hit_rate", snap.op_stats.cache_hit_rate());
        rec.gauge("bdd.cache.evictions", snap.op_stats.cache_evictions as f64);
        self.emit_mem_gauges(rec);
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bdd")
            .field("num_vars", &self.num_vars())
            .field("total_nodes", &self.total_nodes())
            .field("cache_entries", &self.cache.len())
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
    fn add_var_extends_order() {
        let mut mgr = Bdd::new(1);
        let v = mgr.add_var();
        assert_eq!(v, 1);
        assert_eq!(mgr.num_vars(), 2);
        let _ = mgr.var(1);
        assert_eq!(mgr.level_of_var(1), 1);
        assert_eq!(mgr.var_at_level(1), 1);
        assert_eq!(mgr.order(), &[0, 1]);
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
        mgr.reset_op_stats();
        assert_eq!(mgr.op_stats(), OpStats::default());
        assert_eq!(OpStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn gc_counters_accumulate_and_reset_independently_of_lifetime_count() {
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
        assert_eq!(mgr.gc_runs(), 1);
        // reset_op_stats clears the per-phase GC counters…
        mgr.reset_op_stats();
        let stats = mgr.op_stats();
        assert_eq!(stats.gc_runs, 0);
        assert_eq!(stats.gc_nodes_reclaimed, 0);
        assert_eq!(stats.gc_time, Duration::ZERO);
        // …but the lifetime count survives, and the next GC starts a fresh
        // delta.
        assert_eq!(mgr.gc_runs(), 1);
        mgr.gc();
        assert_eq!(mgr.op_stats().gc_runs, 1);
        assert_eq!(mgr.gc_runs(), 2);
        mgr.unprotect(keep);
    }

    #[test]
    fn gc_streams_events_to_the_recorder() {
        let mut mgr = Bdd::new(4);
        let rec = Recorder::new();
        let sink = obs::MemorySink::new();
        rec.add_sink(Box::new(sink.clone()));
        mgr.set_recorder(Some(rec.clone()));
        assert!(mgr.recorder().is_some());
        let a = mgr.var(0);
        let b = mgr.var(1);
        let keep = mgr.and(a, b);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let _scratch = mgr.or(c, d);
        mgr.protect(keep);
        let freed = mgr.gc();
        assert_eq!(rec.counter("bdd.gc.runs"), 1);
        assert_eq!(rec.counter("bdd.gc.nodes_reclaimed"), freed as u64);
        let point = sink
            .events()
            .into_iter()
            .find_map(|e| match e {
                obs::Event::Point { name, fields } if name == "bdd.gc" => Some(fields),
                _ => None,
            })
            .expect("a bdd.gc point event");
        let before = point.get("nodes_before").and_then(Json::as_f64).unwrap();
        let after = point.get("nodes_after").and_then(Json::as_f64).unwrap();
        assert_eq!(before - after, freed as f64);
        mgr.unprotect(keep);
    }

    #[test]
    fn snapshot_and_gauges_reflect_tables() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _f = mgr.and(a, b);
        let snap = mgr.telemetry_snapshot();
        assert_eq!(snap.total_nodes, mgr.total_nodes());
        assert_eq!(snap.free_nodes, 0);
        assert!(snap.unique_entries >= 3);
        assert!(snap.unique_load_factor > 0.0 && snap.unique_load_factor <= 1.0);
        assert!(snap.cache_entries >= 1);
        let json = snap.to_json();
        assert_eq!(json.get("total_nodes").and_then(Json::as_f64), Some(mgr.total_nodes() as f64));
        // Gauges publish the same values.
        let rec = Recorder::new();
        mgr.set_recorder(Some(rec.clone()));
        mgr.emit_gauges();
        assert_eq!(rec.gauge_value("bdd.total_nodes"), Some(mgr.total_nodes() as f64));
        assert_eq!(rec.gauge_value("bdd.unique.load_factor"), Some(mgr.unique_load_factor()));
        // Fresh managers report a zero load factor, not NaN.
        assert_eq!(Bdd::new(1).unique_load_factor(), 0.0);
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
    fn mem_gauges_are_published_with_the_table_gauges() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _f = mgr.and(a, b);
        let rec = Recorder::new();
        mgr.set_recorder(Some(rec.clone()));
        mgr.emit_gauges();
        let mem = mgr.mem_report();
        assert_eq!(rec.gauge_value("bdd.mem.total_bytes"), Some(mem.total_bytes as f64));
        assert_eq!(rec.gauge_value("bdd.mem.peak_bytes"), Some(mem.peak_bytes as f64));
        assert_eq!(
            rec.gauge_value("bdd.mem.unique_table_bytes"),
            Some(mem.unique_table_bytes as f64)
        );
    }

    #[test]
    fn op_timing_is_off_by_default_and_records_when_enabled() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _ = mgr.and(a, b);
        assert!(mgr.op_latency().is_none(), "timing must be opt-in");
        mgr.enable_op_timing();
        mgr.enable_op_timing(); // idempotent: must not clear samples below
        let c = mgr.var(2);
        let f = mgr.not(c);
        let g = mgr.or(f, a);
        let _ = mgr.ite(g, b, c);
        let h = mgr.op_latency().expect("enabled");
        assert!(h.count() >= 3, "not/or/ite calls all record, got {}", h.count());
    }

    #[test]
    fn reorder_carries_peak_mem_and_op_timing() {
        let mut mgr = Bdd::new(6);
        mgr.enable_op_timing();
        let mut f = mgr.zero();
        for v in 0..6 {
            let x = mgr.var(v);
            f = mgr.or(f, x);
        }
        mgr.sample_mem();
        let peak_before = mgr.mem_report().peak_bytes;
        let samples_before = mgr.op_latency().unwrap().count();
        assert!(samples_before > 0);
        let reversed: Vec<VarId> = (0..6).rev().collect();
        let roots = mgr.reorder(&reversed, &[f]);
        assert!(mgr.mem_report().peak_bytes >= peak_before, "peak survives reorder");
        let h = mgr.op_latency().expect("op timing survives reorder");
        assert!(h.count() >= samples_before, "samples survive reorder");
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn unique_table_stays_canonical_across_growth() {
        // The 512 minterms of 9 variables form a trie of ~1000 distinct
        // nodes — several doublings past MIN_BUCKETS — with lookups of old
        // nodes landing mid-rehash throughout.
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
        let snap_entries = mgr.telemetry_snapshot().unique_entries;
        assert_eq!(snap_entries, mgr.total_nodes() - 2, "every live non-terminal is an entry");
        let probe = mgr.unique_probe_stats();
        assert_eq!(probe.entries, snap_entries, "chains cover every entry exactly once");
        let lf = mgr.unique_load_factor();
        assert!(lf > 0.0 && lf <= 1.0, "load factor bounded by the grow policy, got {lf}");
    }

    #[test]
    fn lossy_cache_evicts_and_counts() {
        let mut mgr = Bdd::new(8);
        mgr.set_cache_capacity(1);
        assert_eq!(mgr.cache_capacity(), Some(1));
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let _ = mgr.and(a, b);
        let _ = mgr.or(b, c);
        let _ = mgr.xor(a, c);
        let stats = mgr.op_stats();
        assert!(stats.cache_evictions > 0, "a one-slot cache must evict");
        assert!(mgr.cache_entries() <= 1);
        // Results stay correct regardless.
        let f = mgr.and(a, b);
        assert!(mgr.eval(f, &[true, true, false, false, false, false, false, false]));
    }

    #[test]
    fn unbounded_shim_never_evicts() {
        let mut mgr = Bdd::new(8);
        mgr.set_unbounded_cache();
        assert_eq!(mgr.cache_capacity(), None);
        let mut f = mgr.zero();
        for v in 0..8 {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        assert_eq!(mgr.op_stats().cache_evictions, 0);
        assert!(mgr.cache_entries() > 0);
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
        let snap = mgr.telemetry_snapshot();
        assert_eq!(snap.unique_entries, mgr.total_nodes() - 2);
        let probe = mgr.unique_probe_stats();
        assert_eq!(probe.entries, snap.unique_entries);
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
            cache_lookups: 3,
            cache_hits: 4,
            cache_evictions: 5,
            apply_steps: 6,
            gc_runs: 7,
            gc_nodes_reclaimed: 8,
            gc_time: Duration::from_millis(9),
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.mk_calls, 2);
        assert_eq!(a.cache_evictions, 10);
        assert_eq!(a.gc_time, Duration::from_millis(18));
        assert_eq!(b.nodes_allocated(), 0, "hits exceed calls saturates to zero");
        assert_eq!(
            OpStats { mk_calls: 9, unique_hits: 4, ..OpStats::default() }.nodes_allocated(),
            5
        );
    }

    #[test]
    fn mem_report_merge_sums_components_and_peaks() {
        let a = MemReport {
            unique_table_bytes: 1,
            computed_cache_bytes: 2,
            node_slab_bytes: 3,
            total_bytes: 6,
            peak_bytes: 10,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(m.total_bytes, 12);
        assert_eq!(m.peak_bytes, 20);
        assert_eq!(m.unique_table_bytes + m.computed_cache_bytes + m.node_slab_bytes, 12);
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
