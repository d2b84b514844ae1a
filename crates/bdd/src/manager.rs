//! The BDD node table and basic constructors: complement-edge node
//! representation, the external root set, and mark-and-sweep garbage
//! collection with node recycling.

use crate::hash::{FxHashMap, FxHashSet};
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::mem::{size_of, take};

/// Identifier of a BDD node within a [`BddManager`] — a *complement
/// edge*: bit 0 is the complement tag, the remaining bits index the node
/// table. `!id` (see the [`std::ops::Not`] impl) is therefore the O(1)
/// negation of the function `id` denotes, with no manager access and no
/// allocation.
///
/// There is a single terminal node (index 0); [`NodeId::TRUE`] is its
/// regular edge and [`NodeId::FALSE`] its complemented edge. Canonical
/// form: stored nodes always have a *regular* (non-complemented) hi
/// edge, so `f` and `¬f` share every node and equality of `NodeId`s is
/// equality of functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The true terminal (the regular edge to the terminal node).
    pub const TRUE: NodeId = NodeId(0);
    /// The false terminal (the complemented edge to the terminal node).
    pub const FALSE: NodeId = NodeId(1);

    /// True if this edge points at the terminal node.
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// True if the edge carries the complement tag.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Index of the referenced node in the manager's table.
    pub(crate) fn index(self) -> u32 {
        self.0 >> 1
    }

    pub(crate) fn from_index(index: u32) -> NodeId {
        NodeId(index << 1)
    }
}

impl std::ops::Not for NodeId {
    type Output = NodeId;

    /// Complement edge: negation is a tag-bit flip, independent of the
    /// manager. `!NodeId::TRUE == NodeId::FALSE`.
    fn not(self) -> NodeId {
        NodeId(self.0 ^ 1)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeId::FALSE => write!(f, "F"),
            NodeId::TRUE => write!(f, "T"),
            n if n.is_complemented() => write!(f, "~#{}", n.index()),
            n => write!(f, "#{}", n.index()),
        }
    }
}

/// The node budget was exhausted.
///
/// This is the deterministic stand-in for a model-checker time-out: the
/// same input always overflows at the same point, making the paper's
/// "property too big, partition it" flow (Fig. 7) reproducible in tests.
///
/// The quota counts **live** nodes: when a root set is declared (see
/// [`BddManager::protect`]), the manager garbage-collects dead nodes
/// under quota pressure before raising this error, so overflow means the
/// *live* working set genuinely does not fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfNodes {
    /// The configured quota that was hit.
    pub quota: usize,
}

impl fmt::Display for OutOfNodes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BDD node quota exhausted ({} live nodes)", self.quota)
    }
}

impl Error for OutOfNodes {}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub var: u32,
    /// Else-edge; may be complemented.
    pub lo: NodeId,
    /// Then-edge; always regular (canonical form).
    pub hi: NodeId,
}

pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// A Reduced Ordered BDD manager with complement edges: owns the node
/// table, unique table, computed caches, the external root set, and the
/// free list of recycled slots. Variables are identified by `u32` ids;
/// a var↔level indirection ([`BddManager::level_of`]) maps each id to
/// its current position in the order — smaller levels are nearer the
/// root (tested first). The order starts as the identity and changes
/// only through dynamic reordering ([`BddManager::sift`] /
/// [`BddManager::swap_adjacent_levels`]), which rewires the table in
/// place: every external `NodeId` keeps denoting the same function
/// across a reorder.
///
/// All operations that may allocate return `Result<NodeId, OutOfNodes>`.
///
/// # Roots and garbage collection
///
/// Operation results are initially *unrooted*: they stay valid until the
/// next garbage collection, which only runs under quota pressure (or via
/// an explicit [`BddManager::gc`] call). Any `NodeId` held across later
/// allocating calls must be registered with [`BddManager::protect`] and
/// released with [`BddManager::unprotect`]; operands of the currently
/// executing operation are protected automatically. As a safety valve
/// for clients that never declare roots, automatic collection stays
/// disabled until the first `protect` — such clients keep the historical
/// fail-fast quota behavior instead of risking dangling ids.
#[derive(Clone, Debug)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: FxHashMap<(u32, NodeId, NodeId), NodeId>,
    pub(crate) ite_cache: FxHashMap<(NodeId, NodeId, NodeId), (NodeId, u32)>,
    pub(crate) exists_cache: FxHashMap<(NodeId, NodeId), (NodeId, u32)>,
    pub(crate) and_exists_cache: FxHashMap<(NodeId, NodeId, NodeId), (NodeId, u32)>,
    pub(crate) rename_cache: FxHashMap<(NodeId, u64), (NodeId, u32)>,
    pub(crate) and_cache: FxHashMap<(NodeId, NodeId), (NodeId, u32)>,
    /// Reusable work stack of the iterative ITE (empty between calls).
    pub(crate) ite_tasks: Vec<crate::ops::IteFrame>,
    /// Reusable result stack of the iterative ITE (empty between calls).
    pub(crate) ite_results: Vec<NodeId>,
    /// Collection counter; op-cache entries are stamped with it on
    /// insert (and re-stamped on hit), so the cache-aging sweep can
    /// tell entries untouched for N collections from hot ones.
    pub(crate) cache_epoch: u32,
    /// Recycled node-table slots available for reuse by `mk`.
    pub(crate) free_list: Vec<u32>,
    /// External references: node index → reference count.
    pub(crate) roots: FxHashMap<u32, u32>,
    pub(crate) max_nodes: usize,
    pub(crate) peak_live: usize,
    pub(crate) total_allocated: u64,
    pub(crate) total_freed: u64,
    /// Variable id → current level (position in the order). Extended
    /// lazily by `mk`; the identity until a reorder changes it.
    pub(crate) var2level: Vec<u32>,
    /// Current level → variable id (inverse of `var2level`).
    pub(crate) level2var: Vec<u32>,
    /// If set, sifting fires automatically at operation entry whenever
    /// the live count has grown by this many nodes since the last
    /// reorder (see [`BddManager::set_auto_reorder`]).
    pub(crate) auto_reorder_threshold: Option<usize>,
    /// Live-node count right after the last reorder; baseline for the
    /// auto-reorder trigger.
    pub(crate) last_reorder_live: usize,
    /// Variable pairs that must stay adjacent (in this relative order)
    /// through reordering — sifted as 2-blocks. The interleaved
    /// current/next encoding of the mc engines depends on this.
    pub(crate) reorder_pairs: Vec<(u32, u32)>,
    /// Number of sifting passes run (explicit or auto-triggered).
    pub(crate) reorders_run: u64,
    /// Sum of live-node counts entering each sift.
    pub(crate) reorder_nodes_before: u64,
    /// Sum of live-node counts leaving each sift.
    pub(crate) reorder_nodes_after: u64,
    /// Live-node count at the end of the last collection; baseline for
    /// the growth-threshold heuristic.
    pub(crate) last_gc_live: usize,
    /// If set, collect whenever the live count has grown by this many
    /// nodes since the last collection (checked at operation entry, a
    /// safe point). `None` (the default) keeps the historical
    /// quota-pressure-only policy.
    gc_growth_threshold: Option<usize>,
    /// If set, the sweep after each collection also evicts op-cache
    /// entries not touched for more than this many collections.
    /// `None` (the default) keeps entries until a referenced node dies.
    cache_max_age: Option<u32>,
}

/// The containers of a dropped manager, emptied with their capacity
/// kept, so the next manager built on the same thread starts with
/// grown tables instead of asking the allocator (and, for large
/// tables, the kernel) for fresh memory.
///
/// Reuse cannot change a result: the tables are only probed by key,
/// and the only walks over them — `roots.keys()` in GC marking and in
/// the sift's pinned set — feed order-free set computations, so a
/// recycled manager performs exactly the operations, allocations and
/// collections of a fresh one.
#[derive(Default)]
struct Tables {
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, NodeId, NodeId), NodeId>,
    ite_cache: FxHashMap<(NodeId, NodeId, NodeId), (NodeId, u32)>,
    exists_cache: FxHashMap<(NodeId, NodeId), (NodeId, u32)>,
    and_exists_cache: FxHashMap<(NodeId, NodeId, NodeId), (NodeId, u32)>,
    rename_cache: FxHashMap<(NodeId, u64), (NodeId, u32)>,
    and_cache: FxHashMap<(NodeId, NodeId), (NodeId, u32)>,
    free_list: Vec<u32>,
    roots: FxHashMap<u32, u32>,
}

/// Tables bigger than this (by [`BddManager::table_bytes`]) are freed
/// on drop rather than parked: a thread keeps at most this much memory
/// between checks, so the spare cannot add a quota-sized run's tables
/// to every campaign thread's footprint.
const SPARE_MAX_BYTES: usize = 32 << 20;

thread_local! {
    /// One spare set of tables per thread: the last dropped manager's,
    /// taken by the next [`BddManager::new`] on the thread.
    static SPARE: Cell<Option<Tables>> = const { Cell::new(None) };
}

impl Drop for BddManager {
    fn drop(&mut self) {
        if self.table_bytes() > SPARE_MAX_BYTES {
            return;
        }
        let mut t = Tables {
            nodes: take(&mut self.nodes),
            unique: take(&mut self.unique),
            ite_cache: take(&mut self.ite_cache),
            exists_cache: take(&mut self.exists_cache),
            and_exists_cache: take(&mut self.and_exists_cache),
            rename_cache: take(&mut self.rename_cache),
            and_cache: take(&mut self.and_cache),
            free_list: take(&mut self.free_list),
            roots: take(&mut self.roots),
        };
        t.nodes.clear();
        t.unique.clear();
        t.ite_cache.clear();
        t.exists_cache.clear();
        t.and_exists_cache.clear();
        t.rename_cache.clear();
        t.and_cache.clear();
        t.free_list.clear();
        t.roots.clear();
        // During thread teardown the slot may already be gone; the
        // tables are then simply freed.
        let _ = SPARE.try_with(|spare| spare.set(Some(t)));
    }
}

impl BddManager {
    /// Creates a manager with the given quota on **live** nodes.
    pub fn new(max_nodes: usize) -> Self {
        let mut t = SPARE.try_with(Cell::take).ok().flatten().unwrap_or_default();
        t.nodes.push(Node { var: TERMINAL_VAR, lo: NodeId::TRUE, hi: NodeId::TRUE });
        BddManager {
            nodes: t.nodes,
            unique: t.unique,
            ite_cache: t.ite_cache,
            exists_cache: t.exists_cache,
            and_exists_cache: t.and_exists_cache,
            rename_cache: t.rename_cache,
            and_cache: t.and_cache,
            ite_tasks: Vec::new(),
            ite_results: Vec::new(),
            cache_epoch: 0,
            free_list: t.free_list,
            roots: t.roots,
            max_nodes,
            peak_live: 1,
            total_allocated: 0,
            total_freed: 0,
            var2level: Vec::new(),
            level2var: Vec::new(),
            auto_reorder_threshold: None,
            last_reorder_live: 1,
            reorder_pairs: Vec::new(),
            reorders_run: 0,
            reorder_nodes_before: 0,
            reorder_nodes_after: 0,
            last_gc_live: 1,
            gc_growth_threshold: None,
            cache_max_age: None,
        }
    }

    /// Current level of variable `var` — its position in the order,
    /// smaller = nearer the root. Variables the manager has not seen
    /// yet (and the terminal, `TERMINAL_VAR`) sit at their own id,
    /// which keeps them below every reordered level.
    #[inline]
    pub fn level_of(&self, var: u32) -> u32 {
        match self.var2level.get(var as usize) {
            Some(&l) => l,
            None => var,
        }
    }

    /// The variable currently at `level` (identity for levels beyond
    /// the tracked order).
    pub fn var_at_level(&self, level: u32) -> u32 {
        match self.level2var.get(level as usize) {
            Some(&v) => v,
            None => level,
        }
    }

    /// The current variable order, root-first: `order[level] = var`.
    /// Covers every variable the manager has tracked so far.
    pub fn current_order(&self) -> Vec<u32> {
        self.level2var.clone()
    }

    /// Installs a variable order wholesale — typically another
    /// manager's [`current_order`](Self::current_order) carried by an
    /// [`ExportedBdd`](crate::transfer::ExportedBdd), so a fresh
    /// receiver rebuilds an imported cone at exactly its exported size
    /// instead of paying ITE re-normalization. `order[level] = var`,
    /// and `order` must be a permutation of `0..order.len()`; variables
    /// the manager later meets beyond that range get identity levels as
    /// usual.
    ///
    /// Only legal while the manager holds no decision nodes (fresh, or
    /// everything collected): with live nodes an order change must go
    /// through [`swap_adjacent_levels`](Self::swap_adjacent_levels) /
    /// [`sift`](Self::sift), which rewrite the nodes to match.
    ///
    /// # Panics
    ///
    /// Panics if the manager holds decision nodes or `order` is not a
    /// permutation of `0..order.len()`.
    pub fn adopt_order(&mut self, order: &[u32]) {
        assert_eq!(
            self.nodes.len() - self.free_list.len(),
            1,
            "adopt_order requires a manager without decision nodes"
        );
        let n = order.len();
        let mut var2level = vec![u32::MAX; n];
        for (level, &var) in order.iter().enumerate() {
            assert!(
                (var as usize) < n && var2level[var as usize] == u32::MAX,
                "order must be a permutation of 0..{n}"
            );
            var2level[var as usize] = level as u32;
        }
        // Keep coverage of vars already tracked (e.g. via
        // `set_reorder_pairs` on a fresh manager) with the identity
        // tail `ensure_var` would have given them.
        for v in n as u32..self.var2level.len() as u32 {
            var2level.push(v);
        }
        let mut level2var: Vec<u32> = order.to_vec();
        level2var.extend(n as u32..self.level2var.len() as u32);
        self.var2level = var2level;
        self.level2var = level2var;
    }

    /// Extends the var↔level maps (identity at the tail) so that `var`
    /// is tracked. Called by `mk` for every decision variable, so any
    /// variable with a node always has a level.
    #[inline]
    pub(crate) fn ensure_var(&mut self, var: u32) {
        if (var as usize) < self.var2level.len() || var == TERMINAL_VAR {
            return;
        }
        let old = self.var2level.len() as u32;
        self.var2level.extend(old..=var);
        self.level2var.extend(old..=var);
    }

    /// Enables (or disables, with `None`) automatic dynamic reordering:
    /// once armed, a sifting pass fires at operation entry whenever the
    /// live count has grown by `threshold` nodes — *and* to at least
    /// twice its size — since the last reorder (same safe point as the
    /// growth-threshold GC, and likewise only once a root set exists).
    /// The doubling term is the classic geometric backoff: reorders
    /// happen at exponentially spaced table sizes, so their total cost
    /// stays proportional to the work that grew the table. Tables past
    /// a sixteenth of the node quota are never auto-sifted: a table
    /// that big mid-computation is either headed for a memout — where
    /// a better order only *delays* the inevitable quota death (it
    /// compresses the intermediates, so strictly more image work fits
    /// under the quota before the engine gives up; measured 4× slower
    /// on the Fig. 7 blowup) — or already holds a workable order from
    /// the passes that fired while it was small. Arming re-baselines
    /// the trigger at the current live count.
    pub fn set_auto_reorder(&mut self, threshold: Option<usize>) {
        self.auto_reorder_threshold = threshold;
        self.last_reorder_live = self.nodes.len() - self.free_list.len();
    }

    /// Declares variable pairs that must stay adjacent (in the given
    /// relative order) through every reorder; sifting moves each pair
    /// as one 2-block. Pairs must be adjacent in the current order when
    /// declared. The mc engines pair each current-state variable with
    /// its next-state twin so `rename`'s order-preservation contract
    /// survives reordering.
    pub fn set_reorder_pairs(&mut self, pairs: Vec<(u32, u32)>) {
        for &(a, b) in &pairs {
            self.ensure_var(a);
            self.ensure_var(b);
            debug_assert_eq!(
                self.level_of(a) + 1,
                self.level_of(b),
                "reorder pair ({a},{b}) must be adjacent when declared"
            );
        }
        self.reorder_pairs = pairs;
    }

    /// `(reorders run, Σ live nodes before, Σ live nodes after)` over
    /// the manager's lifetime — the raw material for `CheckStats`.
    pub fn reorder_stats(&self) -> (u64, u64, u64) {
        (self.reorders_run, self.reorder_nodes_before, self.reorder_nodes_after)
    }

    /// Enables (or disables, with `None`) table-growth-threshold
    /// collection: once armed, the manager collects whenever the live
    /// count has grown by `threshold` nodes since the last collection,
    /// checked at operation entry — a safe point, since operands are
    /// rooted for the operation and anything else the caller holds must
    /// already be protected. Like quota-pressure collection this only
    /// fires once a root set exists.
    ///
    /// The point is steady-state hygiene for long-lived workers: with
    /// quota-pressure-only collection a worker first fills its entire
    /// quota with garbage, then pays one huge collect-and-retry per
    /// operation at the ceiling. A growth threshold keeps the dead
    /// fraction bounded instead.
    pub fn set_gc_growth_threshold(&mut self, threshold: Option<usize>) {
        self.gc_growth_threshold = threshold;
    }

    /// Enables (or disables, with `None`) cache-aged sweeping: each
    /// collection evicts op-cache entries not inserted or hit for more
    /// than `age` collections (in addition to the usual eviction of
    /// entries mentioning dead nodes). `Some(0)` clears the op caches
    /// wholesale at every collection.
    ///
    /// Aged entries pin no nodes (the sweep already drops dead-node
    /// entries) but do cost memory and hash-table pressure; workers
    /// that run many images through one manager use this to keep the
    /// caches sized to the current wavefront.
    pub fn set_cache_max_age(&mut self, age: Option<u32>) {
        self.cache_max_age = age;
    }

    /// Approximate heap bytes held by the node table, the unique table,
    /// the op caches, the free list and the root set, by capacity.
    fn table_bytes(&self) -> usize {
        fn map<K, V>(m: &FxHashMap<K, V>) -> usize {
            // One control byte per bucket besides the entry itself.
            m.capacity() * (size_of::<(K, V)>() + 1)
        }
        self.nodes.capacity() * size_of::<Node>()
            + self.free_list.capacity() * size_of::<u32>()
            + map(&self.unique)
            + map(&self.ite_cache)
            + map(&self.exists_cache)
            + map(&self.and_exists_cache)
            + map(&self.rename_cache)
            + map(&self.and_cache)
            + map(&self.roots)
    }

    /// Number of **live** nodes (including the terminal): allocated slots
    /// minus recycled ones. This is what the quota is measured against.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - self.free_list.len()
    }

    /// High-water mark of [`BddManager::num_nodes`] over the manager's
    /// lifetime — the honest "peak memory" figure now that collection can
    /// shrink the table.
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live
    }

    /// Total nodes ever allocated (monotonic; unaffected by collection).
    /// `total_allocated - peak live` bounds how much garbage collection
    /// reclaimed; a run with `total_allocated > quota` that completed
    /// *needed* collection to fit.
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Total nodes reclaimed by garbage collection (monotonic).
    pub fn total_freed(&self) -> u64 {
        self.total_freed
    }

    /// The configured quota on live nodes.
    pub fn quota(&self) -> usize {
        self.max_nodes
    }

    /// The variable id of a node (`u32::MAX` for the terminal). For the
    /// node's position in the current order see [`BddManager::level_of`].
    pub fn node_var(&self, n: NodeId) -> u32 {
        self.nodes[n.index() as usize].var
    }

    /// Else-cofactor edge of `n` with `n`'s complement tag pushed through
    /// (the cofactor of `¬f` is the complement of the cofactor of `f`).
    pub(crate) fn lo(&self, n: NodeId) -> NodeId {
        NodeId(self.nodes[n.index() as usize].lo.0 ^ (n.0 & 1))
    }

    /// Then-cofactor edge of `n`, complement tag pushed through.
    pub(crate) fn hi(&self, n: NodeId) -> NodeId {
        NodeId(self.nodes[n.index() as usize].hi.0 ^ (n.0 & 1))
    }

    pub(crate) fn var_of(&self, n: NodeId) -> u32 {
        self.nodes[n.index() as usize].var
    }

    /// Raw node-table entry by index (for the transfer serializer, which
    /// needs the stored edges rather than the tag-adjusted cofactors).
    pub(crate) fn node(&self, index: u32) -> Node {
        self.nodes[index as usize]
    }

    /// Pure-read unique-table probe: the regular edge of the node
    /// `(var, lo, hi)` if the manager currently holds it, else `None`.
    /// `hi` must be regular (the canonical stored form). The delta
    /// exporter uses this to recognize baseline nodes in the source
    /// manager without allocating.
    pub(crate) fn lookup(&self, var: u32, lo: NodeId, hi: NodeId) -> Option<NodeId> {
        self.unique.get(&(var, lo, hi)).copied()
    }

    /// The reduced node `(var, lo, hi)`; applies the redundancy rule, the
    /// regular-hi-edge canonicalization, and the unique table.
    pub(crate) fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> Result<NodeId, OutOfNodes> {
        if lo == hi {
            return Ok(lo);
        }
        self.ensure_var(var);
        // Canonical form: the stored hi edge is regular. A complemented
        // hi is factored out of both children and onto the result edge.
        let neg = hi.is_complemented() as u32;
        let (lo, hi) = (NodeId(lo.0 ^ neg), NodeId(hi.0 ^ neg));
        debug_assert!(
            self.level_of(var) < self.level_of(self.nodes[lo.index() as usize].var)
                && self.level_of(var) < self.level_of(self.nodes[hi.index() as usize].var),
            "order violation in mk"
        );
        // One hash probe for both the hit and the miss path.
        match self.unique.entry((var, lo, hi)) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(NodeId(e.get().0 ^ neg)),
            std::collections::hash_map::Entry::Vacant(e) => {
                if self.nodes.len() - self.free_list.len() >= self.max_nodes {
                    return Err(OutOfNodes { quota: self.max_nodes });
                }
                let index = match self.free_list.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = Node { var, lo, hi };
                        i
                    }
                    None => {
                        self.nodes.push(Node { var, lo, hi });
                        (self.nodes.len() - 1) as u32
                    }
                };
                let id = NodeId::from_index(index);
                e.insert(id);
                self.total_allocated += 1;
                let live = self.nodes.len() - self.free_list.len();
                if live > self.peak_live {
                    self.peak_live = live;
                }
                Ok(NodeId(id.0 ^ neg))
            }
        }
    }

    /// Registers `n`'s node as an external root (reference-counted): it
    /// and everything reachable from it survive garbage collection.
    /// Protecting `f` also protects `¬f` (they share every node).
    /// Terminals need no protection. The first `protect` call also arms
    /// automatic collection under quota pressure.
    pub fn protect(&mut self, n: NodeId) {
        if !n.is_terminal() {
            *self.roots.entry(n.index()).or_insert(0) += 1;
        }
    }

    /// Releases one [`BddManager::protect`] registration of `n`.
    pub fn unprotect(&mut self, n: NodeId) {
        if n.is_terminal() {
            return;
        }
        match self.roots.get_mut(&n.index()) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.roots.remove(&n.index());
            }
            None => debug_assert!(false, "unprotect of a non-root {n:?}"),
        }
    }

    /// Atomically re-points one protection from `old` to `new` — the
    /// idiom for updating a held accumulator (`reached`, `frontier`, …).
    pub fn reroot(&mut self, old: NodeId, new: NodeId) {
        self.protect(new);
        self.unprotect(old);
    }

    /// Number of distinct protected node indices (diagnostic).
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Mark-and-sweep garbage collection: frees every node not reachable
    /// from the root set, recycles the slots, and drops computed-cache
    /// and unique-table entries that mention a dead node. Returns the
    /// number of nodes freed.
    ///
    /// Any unprotected `NodeId` obtained before this call dangles after
    /// it (unless reachable from a root); see the struct-level contract.
    pub fn gc(&mut self) -> usize {
        self.gc_with_temps(&[])
    }

    /// GC with additional temporary roots (the operands of an in-flight
    /// operation that is retrying under quota pressure).
    pub(crate) fn gc_with_temps(&mut self, temps: &[NodeId]) -> usize {
        let n = self.nodes.len();
        let mut marked = vec![false; n];
        marked[0] = true; // the terminal is immortal
        let mut stack: Vec<u32> = self.roots.keys().copied().collect();
        stack.extend(temps.iter().filter(|t| !t.is_terminal()).map(|t| t.index()));
        while let Some(i) = stack.pop() {
            let i = i as usize;
            if marked[i] {
                continue;
            }
            marked[i] = true;
            let node = self.nodes[i];
            stack.push(node.lo.index());
            stack.push(node.hi.index());
        }
        // Already-recycled slots must not be freed twice.
        for &i in &self.free_list {
            marked[i as usize] = true;
        }
        let mut freed = 0usize;
        for (i, m) in marked.iter().enumerate().skip(1) {
            if !m {
                let node = self.nodes[i];
                self.unique.remove(&(node.var, node.lo, node.hi));
                self.nodes[i] = Node { var: TERMINAL_VAR, lo: NodeId::TRUE, hi: NodeId::TRUE };
                self.free_list.push(i as u32);
                freed += 1;
            }
        }
        self.total_freed += freed as u64;
        self.cache_epoch = self.cache_epoch.wrapping_add(1);
        let epoch = self.cache_epoch;
        let max_age = self.cache_max_age;
        if freed > 0 || max_age.is_some() {
            let live = |id: NodeId| marked[id.index() as usize];
            self.retain_op_caches(&mut |key, r, stamp| {
                key.iter().all(|&k| live(k))
                    && live(r)
                    && max_age.map_or(true, |a| epoch.wrapping_sub(stamp) <= a)
            });
        }
        self.last_gc_live = self.nodes.len() - self.free_list.len();
        freed
    }

    /// The one enumeration of the five op caches: retains entries for
    /// which `keep(key-nodes, result, age-stamp)` holds. The GC sweep
    /// (liveness + age) and [`BddManager::clear_op_caches`] both go
    /// through here, so a cache added later cannot be missed by one of
    /// them. The `rename` cache passes only its function operand (its
    /// second key component is a map hash, not a node).
    pub(crate) fn retain_op_caches(
        &mut self,
        keep: &mut dyn FnMut(&[NodeId], NodeId, u32) -> bool,
    ) {
        self.ite_cache.retain(|&(f, g, h), &mut (r, s)| keep(&[f, g, h], r, s));
        self.and_cache.retain(|&(f, g), &mut (r, s)| keep(&[f, g], r, s));
        self.exists_cache.retain(|&(f, c), &mut (r, s)| keep(&[f, c], r, s));
        self.and_exists_cache.retain(|&(f, g, c), &mut (r, s)| keep(&[f, g, c], r, s));
        self.rename_cache.retain(|&(f, _), &mut (r, s)| keep(&[f], r, s));
    }

    /// Drops every computed-cache entry (keeps the node table). This is
    /// the deduplicated "clear them all" the sweep and
    /// [`BddManager::clear_caches`] share.
    pub fn clear_op_caches(&mut self) {
        self.retain_op_caches(&mut |_, _, _| false);
    }

    /// Runs `op`; on quota exhaustion, garbage-collects (with `temps` as
    /// extra roots) and retries once. Collection under pressure is only
    /// armed once a root set exists — a client that declared no roots
    /// gets the plain fail-fast behavior, because without roots the
    /// manager cannot tell its held ids from garbage.
    ///
    /// Hopeless retries are cut off: the failed attempt's own partial
    /// results are garbage (nothing roots them), so the retry must
    /// re-allocate roughly everything the attempt did *and then keep
    /// going*. The retry runs only when the post-GC live set plus the
    /// attempt's allocation count fits within 7/8 of the quota — the
    /// reserved eighth is continuation headroom, so a retry that merely
    /// re-reaches the attempt's death point is not paid for twice, while
    /// failures caused by since-collected inter-op garbage (superseded
    /// frontiers, abandoned accumulators) still get their second chance.
    pub(crate) fn run_with_gc<T>(
        &mut self,
        temps: &[NodeId],
        mut op: impl FnMut(&mut Self) -> Result<T, OutOfNodes>,
    ) -> Result<T, OutOfNodes> {
        // Auto-reorder trigger: operation entry is the same safe point
        // the growth-threshold GC uses (operands are in `temps`,
        // everything else the caller holds is protected by contract).
        // Sifting starts with its own collection, so it runs before —
        // and updates `last_gc_live` for — the GC heuristic below.
        if let Some(t) = self.auto_reorder_threshold {
            let live = self.nodes.len() - self.free_list.len();
            if !self.roots.is_empty()
                && live >= self.last_reorder_live.saturating_add(t)
                && live >= self.last_reorder_live.saturating_mul(2)
                && live <= self.max_nodes / 16
            {
                self.sift_with_temps(temps);
            }
        }
        // Growth-threshold heuristic: operation entry is a safe point
        // (operands are in `temps`, everything else the caller holds is
        // protected by contract), so collect proactively when the table
        // has grown past the configured threshold since the last sweep.
        if let Some(t) = self.gc_growth_threshold {
            if !self.roots.is_empty()
                && self.nodes.len() - self.free_list.len() >= self.last_gc_live.saturating_add(t)
            {
                self.gc_with_temps(temps);
            }
        }
        let allocated_before = self.total_allocated;
        match op(self) {
            Err(e) => {
                if self.roots.is_empty() || self.gc_with_temps(temps) == 0 {
                    return Err(e);
                }
                let attempt = (self.total_allocated - allocated_before) as usize;
                let live = self.nodes.len() - self.free_list.len();
                let headroom = self.max_nodes - self.max_nodes / 8;
                if live.saturating_add(attempt) > headroom {
                    return Err(e);
                }
                op(self)
            }
            ok => ok,
        }
    }

    /// The BDD for a single positive variable.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] if the quota is exhausted even after
    /// garbage collection.
    pub fn var(&mut self, v: u32) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[], |m| m.mk(v, NodeId::FALSE, NodeId::TRUE))
    }

    /// The BDD for a negated variable (the complement edge of
    /// [`BddManager::var`]).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] if the quota is exhausted even after
    /// garbage collection.
    pub fn nvar(&mut self, v: u32) -> Result<NodeId, OutOfNodes> {
        Ok(!self.var(v)?)
    }

    /// Constant BDD from a boolean.
    pub fn constant(&self, b: bool) -> NodeId {
        if b {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    /// Counts the nodes reachable from `f` (its size), terminal included.
    /// With complement edges there is exactly one terminal node, and
    /// every function — constants included — reaches it, so
    /// `size(TRUE) == 1` and `size(var) == 2`.
    ///
    /// Exactly [`BddManager::size_restricted`] with nothing fixed.
    pub fn size(&self, f: NodeId) -> usize {
        self.size_restricted(f, &|_| None)
    }

    /// Counts the nodes of `f` still reachable when some variables are
    /// fixed (`fixed(var)` = `Some(value)`): at a fixed variable's node
    /// only the chosen branch is followed, everywhere else both. Pure
    /// traversal — nothing is allocated, so unlike building the actual
    /// cofactor this can neither fail nor eat the quota.
    ///
    /// The count is an upper bound on [`BddManager::size`] of the
    /// generalized cofactor (restriction can merge nodes this walk still
    /// counts separately), which makes it a cheap, deterministic proxy
    /// for "how much of `f` survives inside this window" — the threaded
    /// POBDD engine uses it to estimate per-window load for its
    /// longest-processing-time worker assignment.
    pub fn size_restricted(&self, f: NodeId, fixed: &dyn Fn(u32) -> Option<bool>) -> usize {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n.index()) {
                continue;
            }
            match fixed(self.var_of(n)) {
                Some(true) => stack.push(self.hi(n)),
                Some(false) => stack.push(self.lo(n)),
                None => {
                    stack.push(self.lo(n));
                    stack.push(self.hi(n));
                }
            }
        }
        seen.len() + 1
    }

    /// Evaluates `f` under a full assignment (`assign(var)` = value).
    pub fn eval(&self, f: NodeId, assign: &dyn Fn(u32) -> bool) -> bool {
        let mut n = f;
        while !n.is_terminal() {
            let v = self.var_of(n);
            n = if assign(v) { self.hi(n) } else { self.lo(n) };
        }
        n == NodeId::TRUE
    }

    /// Clears the computed caches (keeps the node table). Useful between
    /// phases with different operand distributions.
    pub fn clear_caches(&mut self) {
        self.clear_op_caches();
    }

    /// Number of satisfying assignments of `f` over `nvars` variables
    /// (variables `0..nvars`), as `f64` (exact for small counts).
    pub fn count_sat(&self, f: NodeId, nvars: u32) -> f64 {
        let mut memo: FxHashMap<NodeId, f64> = FxHashMap::default();
        // count(n) = number of solutions below n, over the levels from
        // level(var(n)) to nvars — with dynamic reordering the "skipped
        // variables" exponent is a level gap, not a var-id gap. The memo
        // is keyed on the full edge (complement tag included), so f and
        // ¬f each get their own entry.
        fn go(
            m: &BddManager,
            n: NodeId,
            nvars: u32,
            memo: &mut FxHashMap<NodeId, f64>,
        ) -> f64 {
            if n == NodeId::FALSE {
                return 0.0;
            }
            if n == NodeId::TRUE {
                return 1.0;
            }
            if let Some(&c) = memo.get(&n) {
                return c;
            }
            let v = m.level_of(m.var_of(n));
            let lo = m.lo(n);
            let hi = m.hi(n);
            let lo_l = if lo.is_terminal() { nvars } else { m.level_of(m.var_of(lo)) };
            let hi_l = if hi.is_terminal() { nvars } else { m.level_of(m.var_of(hi)) };
            let c = go(m, lo, nvars, memo) * 2f64.powi((lo_l - v - 1) as i32)
                + go(m, hi, nvars, memo) * 2f64.powi((hi_l - v - 1) as i32);
            memo.insert(n, c);
            c
        }
        let top = if f.is_terminal() { nvars } else { self.level_of(self.var_of(f)) };
        go(self, f, nvars, &mut memo) * 2f64.powi(top as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_exist() {
        let m = BddManager::new(100);
        assert!(NodeId::FALSE.is_terminal());
        assert!(NodeId::TRUE.is_terminal());
        // One shared terminal node; FALSE is its complement edge.
        assert_eq!(m.num_nodes(), 1);
        assert_eq!(!NodeId::TRUE, NodeId::FALSE);
        assert_eq!(m.constant(true), NodeId::TRUE);
    }

    #[test]
    fn mk_is_reduced_and_unique() {
        let mut m = BddManager::new(100);
        let a1 = m.var(0).unwrap();
        let a2 = m.var(0).unwrap();
        assert_eq!(a1, a2);
        // Redundancy: mk(v, x, x) == x
        let r = m.mk(3, a1, a1).unwrap();
        assert_eq!(r, a1);
        // Complement canonicalization: nvar shares var's node.
        let na = m.nvar(0).unwrap();
        assert_eq!(na, !a1);
        assert_eq!(m.num_nodes(), 2, "x and ¬x share one node");
    }

    #[test]
    fn quota_enforced() {
        let mut m = BddManager::new(2); // terminal + 1 node
        assert!(m.var(0).is_ok());
        assert!(matches!(m.var(1), Err(OutOfNodes { quota: 2 })));
    }

    #[test]
    fn eval_walks_paths() {
        let mut m = BddManager::new(100);
        let a = m.var(0).unwrap();
        assert!(m.eval(a, &|_| true));
        assert!(!m.eval(a, &|_| false));
        let na = m.nvar(0).unwrap();
        assert!(!m.eval(na, &|_| true));
    }

    #[test]
    fn size_counts_reachable_nodes_exactly() {
        // Regression: size used to report `seen + 2` unconditionally,
        // over-counting constants and every function by one terminal.
        let mut m = BddManager::new(100);
        assert_eq!(m.size(NodeId::TRUE), 1);
        assert_eq!(m.size(NodeId::FALSE), 1);
        let a = m.var(0).unwrap();
        assert_eq!(m.size(a), 2, "one decision node + the terminal");
        assert_eq!(m.size(!a), 2, "complement shares the node");
        let b = m.var(1).unwrap();
        let x = m.ite(a, !b, b).unwrap(); // a XOR b
        assert_eq!(m.size(x), 3, "xor is linear with complement edges");
    }

    #[test]
    fn count_sat_single_var() {
        let mut m = BddManager::new(100);
        let a = m.var(0).unwrap();
        assert_eq!(m.count_sat(a, 1), 1.0);
        assert_eq!(m.count_sat(a, 2), 2.0);
        assert_eq!(m.count_sat(NodeId::TRUE, 3), 8.0);
        assert_eq!(m.count_sat(NodeId::FALSE, 3), 0.0);
    }

    #[test]
    fn count_sat_deeper_var() {
        let mut m = BddManager::new(100);
        let b = m.var(1).unwrap(); // var 1 out of vars {0,1}
        assert_eq!(m.count_sat(b, 2), 2.0);
    }

    #[test]
    fn gc_frees_unrooted_keeps_rooted() {
        let mut m = BddManager::new(1 << 16);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let keep = m.and(a, b).unwrap();
        let dead = m.xor(a, b).unwrap();
        m.protect(keep);
        m.protect(a);
        m.protect(b);
        let live_before = m.num_nodes();
        let freed = m.gc();
        assert!(freed > 0, "the xor node must be collected");
        assert_eq!(m.num_nodes(), live_before - freed);
        // Rooted functions still evaluate correctly.
        assert!(m.eval(keep, &|_| true));
        assert!(!m.eval(keep, &|_| false));
        let _ = dead; // dangling by contract — must not be used again
        // Slots are recycled: rebuilding allocates into freed space.
        let len_before = m.nodes.len();
        let x2 = m.xor(a, b).unwrap();
        assert_eq!(m.nodes.len(), len_before, "mk must reuse freed slots");
        assert!(m.eval(x2, &|v| v == 0));
    }

    #[test]
    fn gc_under_quota_pressure_recovers() {
        // Quota sized so building junk then the target only fits if the
        // junk is collected: roots armed => automatic GC inside ops.
        let mut m = BddManager::new(24);
        let vars: Vec<NodeId> = (0..6).map(|v| m.var(v).unwrap()).collect();
        for &v in &vars {
            m.protect(v);
        }
        // Junk: a chain of xors, immediately dropped.
        let mut junk = m.xor(vars[0], vars[1]).unwrap();
        m.protect(junk);
        for &v in &vars[2..] {
            let j2 = m.xor(junk, v).unwrap();
            m.reroot(junk, j2);
            junk = j2;
        }
        m.unprotect(junk);
        let allocated_before = m.total_allocated();
        // A conjunction chain that needs the junk's slots back.
        let mut acc = vars[0];
        m.protect(acc);
        for &v in &vars[1..] {
            let a2 = m.and(acc, v).unwrap();
            m.reroot(acc, a2);
            acc = a2;
        }
        assert!(m.total_freed() > 0, "quota pressure must have triggered GC");
        assert!(m.total_allocated() > allocated_before);
        assert!(m.eval(acc, &|_| true));
        assert!(!m.eval(acc, &|v| v != 3));
    }

    #[test]
    fn unrooted_manager_keeps_fail_fast_quota() {
        // Without any protect() call the manager must not GC on pressure
        // (it cannot know which ids the caller still holds).
        let mut m = BddManager::new(8);
        let mut f = m.var(0).unwrap();
        let mut overflowed = false;
        for v in 1..20 {
            match m.var(v).and_then(|x| m.xor(f, x)) {
                Ok(g) => f = g,
                Err(_) => {
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed, "tiny quota must overflow without roots");
        assert_eq!(m.total_freed(), 0, "no GC without a root set");
    }

    /// Builds a chain of immediately-dropped xors over `vars`, leaving
    /// `count` dead cones behind (roots only on the vars themselves).
    fn churn(m: &mut BddManager, vars: &[NodeId], count: usize) {
        for i in 0..count {
            let junk = m.xor(vars[i % vars.len()], vars[(i + 1) % vars.len()]).unwrap();
            let j2 = m.xor(junk, vars[(i + 2) % vars.len()]).unwrap();
            let _ = j2; // dropped: garbage once the op returns
        }
    }

    #[test]
    fn growth_threshold_collects_without_quota_pressure() {
        // Generous quota: the historical policy would never collect.
        let mut m = BddManager::new(1 << 16);
        let vars: Vec<NodeId> = (0..8).map(|v| m.var(v).unwrap()).collect();
        for &v in &vars {
            m.protect(v);
        }
        m.set_gc_growth_threshold(Some(16));
        churn(&mut m, &vars, 64);
        assert!(m.total_freed() > 0, "growth threshold must trigger collection");
        // The live set stays near the rooted cone, far from the garbage total.
        assert!(m.num_nodes() < m.total_allocated() as usize);
        for &v in &vars {
            assert!(m.eval(v, &|x| x == m.var_of(v)), "roots survive threshold GC");
        }
    }

    #[test]
    fn growth_threshold_does_not_fire_below_threshold() {
        let mut m = BddManager::new(1 << 16);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        m.protect(a);
        m.protect(b);
        m.set_gc_growth_threshold(Some(1 << 10));
        let x = m.xor(a, b).unwrap();
        let _ = m.and(a, b).unwrap();
        let _ = x;
        assert_eq!(m.total_freed(), 0, "small growth must not collect");
    }

    #[test]
    fn growth_threshold_stays_disarmed_without_roots() {
        // Same safety valve as quota-pressure GC: no root set, no sweeps
        // (the manager cannot tell held ids from garbage).
        let mut m = BddManager::new(1 << 16);
        let vars: Vec<NodeId> = (0..8).map(|v| m.var(v).unwrap()).collect();
        m.set_gc_growth_threshold(Some(4));
        churn(&mut m, &vars, 32);
        assert_eq!(m.total_freed(), 0, "no GC without a root set");
    }

    #[test]
    fn cache_aged_sweep_evicts_stale_entries_only() {
        let mut m = BddManager::new(1 << 16);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        for &v in [a, b, c].iter() {
            m.protect(v);
        }
        m.set_cache_max_age(Some(1));
        let ab = m.and(a, b).unwrap();
        m.protect(ab);
        assert!(!m.and_cache.is_empty());
        // One collection: age 1, within max_age — the entry survives.
        m.gc();
        assert!(
            m.and_cache.contains_key(&(a.min(b), a.max(b))),
            "entry within max_age survives the sweep"
        );
        // Touching the entry re-stamps it; an untouched second collection
        // then ages it past the limit.
        m.gc();
        assert!(
            !m.and_cache.contains_key(&(a.min(b), a.max(b))),
            "entry two collections stale is evicted"
        );
        // Eviction is about the cache only: the function itself is rooted
        // and still correct, and recomputing repopulates the cache.
        assert!(m.eval(ab, &|_| true));
        let ab2 = m.and(a, b).unwrap();
        assert_eq!(ab2, ab, "hash-consing rebuilds the same node");
        assert!(m.and_cache.contains_key(&(a.min(b), a.max(b))));
    }

    #[test]
    fn cache_hits_refresh_the_age_stamp() {
        let mut m = BddManager::new(1 << 16);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        m.protect(a);
        m.protect(b);
        m.set_cache_max_age(Some(1));
        let ab = m.and(a, b).unwrap();
        m.protect(ab); // keep the result live so only aging could evict
        m.gc(); // entry now one collection old
        let _ = m.and(a, b).unwrap(); // hit: re-stamps to the current epoch
        m.gc();
        assert!(
            m.and_cache.contains_key(&(a.min(b), a.max(b))),
            "a hot entry must not age out"
        );
    }

    #[test]
    fn heuristics_keep_live_quota_semantics() {
        // The quota still measures live nodes and peak_live still tracks
        // the high-water mark when both heuristics are on.
        let mut m = BddManager::new(64);
        let vars: Vec<NodeId> = (0..6).map(|v| m.var(v).unwrap()).collect();
        for &v in &vars {
            m.protect(v);
        }
        m.set_gc_growth_threshold(Some(8));
        m.set_cache_max_age(Some(0));
        churn(&mut m, &vars, 48);
        let mut acc = vars[0];
        m.protect(acc);
        for &v in &vars[1..] {
            let a2 = m.and(acc, v).unwrap();
            m.reroot(acc, a2);
            acc = a2;
        }
        assert!(m.num_nodes() <= 64, "quota bounds live nodes");
        assert!(m.peak_live_nodes() >= m.num_nodes());
        assert!(m.peak_live_nodes() <= 64, "peak live cannot exceed the quota");
        assert!(m.total_allocated() > m.peak_live_nodes() as u64, "churn exceeded the peak");
        assert!(m.eval(acc, &|_| true));
        assert!(!m.eval(acc, &|v| v != 3));
    }

    /// A manager built on a thread that dropped one before starts from
    /// the dropped tables — capacity kept, contents gone — and performs
    /// exactly the allocations and collections of a fresh one, down to
    /// the node ids it hands out.
    #[test]
    fn dropped_tables_are_recycled_without_changing_results() {
        fn workload(m: &mut BddManager) -> (Vec<NodeId>, usize, usize, u64, u64) {
            let vars: Vec<NodeId> = (0..8).map(|v| m.var(v).unwrap()).collect();
            for &v in &vars {
                m.protect(v);
            }
            m.set_gc_growth_threshold(Some(8));
            churn(m, &vars, 64);
            let mut acc = vars[0];
            m.protect(acc);
            for &v in &vars[1..] {
                let a2 = m.xor(acc, v).unwrap();
                m.reroot(acc, a2);
                acc = a2;
            }
            let ex = m.exists(acc, vars[3]).unwrap();
            (vec![acc, ex], m.num_nodes(), m.peak_live_nodes(), m.total_allocated(), m.total_freed())
        }
        drop(SPARE.with(Cell::take)); // whatever an earlier test parked here
        let mut fresh = BddManager::new(1 << 10);
        let expected = workload(&mut fresh);
        assert!(expected.4 > 0, "the workload must collect");
        let capacity = fresh.nodes.capacity();
        drop(fresh);
        let mut recycled = BddManager::new(1 << 10);
        assert_eq!(recycled.nodes.capacity(), capacity, "the dropped node table is reused");
        assert_eq!(recycled.num_nodes(), 1);
        assert!(recycled.unique.is_empty() && recycled.roots.is_empty());
        assert!(recycled.ite_cache.is_empty() && recycled.and_cache.is_empty());
        assert_eq!(workload(&mut recycled), expected);
    }

    #[test]
    fn protect_is_refcounted() {
        let mut m = BddManager::new(100);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.and(a, b).unwrap();
        m.protect(a);
        m.protect(b);
        m.protect(f);
        m.protect(f);
        m.unprotect(f);
        assert_eq!(m.num_roots(), 3, "f's registration must remain");
        let live = m.num_nodes();
        m.gc();
        assert_eq!(m.num_nodes(), live, "all roots and cones stay live");
        m.unprotect(f);
        m.gc();
        assert_eq!(m.num_nodes(), live - 1, "f's node is now collectable");
    }
}
