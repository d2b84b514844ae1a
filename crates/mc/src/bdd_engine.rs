//! BDD-based unbounded model checking: clustered transition relations,
//! early quantification, forward reachability.
//!
//! [`TransitionSystem`] builds the symbolic model every BDD engine
//! images through. The monolithic engine ([`bdd_umc`],
//! [`bdd_umc_session`]) is the window-partitioned reachability kernel
//! (`crate::reach`) over an empty split — one `TRUE` window — run in
//! the calling thread. With `image_workers ≥ 2` the kernel keeps its
//! one window but swaps its image step for a fan-out across private
//! lane managers (`LaneImage`), whose per-lane images it OR-merges in
//! lane order.
//!
//! Variable order interleaves current and next state: latch `i` gets
//! current variable `2i` and next variable `2i+1`; primary inputs follow
//! after all state variables. Interleaving keeps the current→next rename
//! order-preserving, so renaming is a linear rebuild.

use crate::checkpoint::ReachCheckpoint;
use crate::engine::Budget;
use crate::pobdd::choose_split_vars;
use crate::reach::{
    accounting, fold, run_crew, serial_image, window_cube, BuildResult, Crew, Fail, Kernel, Setup,
    Worker,
};
use crate::{BddWorkerStats, CheckOptions, CheckStats};
use veridic_aig::{Aig, Lit, Var};
use veridic_bdd::transfer::{self, DeltaBdd, ExportedBdd};
use veridic_bdd::{BddManager, FxHashMap, NodeId, OutOfNodes};

/// Outcome of a BDD reachability engine.
#[derive(Clone, Debug, PartialEq)]
pub enum BddEngineOutcome {
    /// Bad is unreachable: property proved.
    Proved,
    /// Bad intersects the states reachable in exactly `k` steps.
    FalsifiedAtDepth(usize),
    /// Node quota or iteration limit exhausted.
    ResourceOut,
    /// The cooperative round [`Budget`] stopped the run between rounds;
    /// the checkpoint carries the reached/frontier sets serialized
    /// through [`veridic_bdd::transfer`] so the fixpoint resumes in a
    /// fresh manager. Never returned by the unbudgeted entry points
    /// ([`bdd_umc`], [`crate::pobdd_reach`]).
    Suspended(ReachCheckpoint),
    /// A slot-local round cap stopped the run
    /// ([`Budget::checkpoint_worthwhile`] said no): the scheduler will
    /// hand over to the next engine and discard any state, so no
    /// checkpoint was built — the reached-set export is skipped
    /// entirely. Never returned by the unbudgeted entry points.
    Yielded,
}

/// A transition-system build that exhausted the node quota, carrying the
/// manager's accounting so callers can record honest statistics on the
/// failure path.
#[derive(Clone, Copy, Debug)]
pub struct BuildError {
    /// The underlying quota error.
    pub err: OutOfNodes,
    /// Peak live nodes at the point of failure.
    pub peak_live_nodes: usize,
    /// Total nodes ever allocated (GC-independent).
    pub total_allocated: u64,
}

/// A symbolic transition system: per-latch next-state functions, the
/// constraint and bad relations, initial state and quantification cubes.
///
/// Every field holding a `NodeId` is registered in the manager's root
/// set for the struct's lifetime, so garbage collection under quota
/// pressure only reclaims dead intermediates (old frontiers, image
/// temporaries, superseded accumulators).
#[derive(Debug)]
pub struct TransitionSystem {
    /// The manager owning all nodes below.
    pub mgr: BddManager,
    /// `T_i = (next_i ↔ f_i)` conjuncts, clustered.
    pub clusters: Vec<NodeId>,
    /// Early-quantification cube for each cluster (variables whose last
    /// use is that cluster).
    pub cluster_cubes: Vec<NodeId>,
    /// Variables not used by any cluster, quantified up front.
    pub residual_cube: NodeId,
    /// Initial state predicate (over current vars).
    pub init: NodeId,
    /// Constraint predicate (over current + input vars).
    pub constraint: NodeId,
    /// Bad predicate (over current + input vars).
    pub bad: NodeId,
    /// Precomputed `bad ∧ constraint`, the target of reachability tests.
    pub bad_constraint: NodeId,
    /// Rename map next→current.
    pub next_to_cur: Vec<(u32, u32)>,
    num_latches: usize,
    num_inputs: usize,
}

/// Maximum BDD size of a cluster before a new one is started. Halved
/// when complement edges landed: `size` dropped by roughly 2x for the
/// same logical content, and this keeps the image-step granularity of
/// the tuned non-complemented engine.
const CLUSTER_LIMIT: usize = 1_250;

impl TransitionSystem {
    /// Builds the transition system of `aig` in a fresh manager with the
    /// given node quota. Persistent parts are rooted as they are built,
    /// so construction itself can garbage-collect its dead intermediates
    /// under quota pressure.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] — the quota error plus the manager's node
    /// accounting — if construction exceeds the quota even after GC.
    pub fn build(aig: &Aig, node_quota: usize) -> Result<Self, BuildError> {
        Self::build_with_order(aig, node_quota, None)
    }

    /// [`TransitionSystem::build`] with the manager's variable order
    /// seeded before any node exists. `order` is a permutation of the
    /// full BDD variable space (see `static_bdd_order`); `None` keeps
    /// the natural interleaved order, which is [`TransitionSystem::build`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] — the quota error plus the manager's node
    /// accounting — if construction exceeds the quota even after GC.
    pub fn build_with_order(
        aig: &Aig,
        node_quota: usize,
        order: Option<&[u32]>,
    ) -> Result<Self, BuildError> {
        let mut mgr = BddManager::new(node_quota);
        if let Some(order) = order {
            mgr.adopt_order(order);
        }
        match Self::build_parts(aig, &mut mgr) {
            Ok(parts) => Ok(parts.into_system(mgr, aig)),
            Err(err) => Err(BuildError {
                err,
                peak_live_nodes: mgr.peak_live_nodes(),
                total_allocated: mgr.total_allocated(),
            }),
        }
    }

    fn build_parts(aig: &Aig, mgr: &mut BddManager) -> Result<Parts, OutOfNodes> {
        let n = aig.num_latches();
        // var mapping: latch i cur = 2i, next = 2i+1; input j = 2n + j.
        let cur_var = |i: usize| 2 * i as u32;
        let next_var = |i: usize| 2 * i as u32 + 1;
        let input_var = |j: usize| (2 * n + j) as u32;

        // Node → BDD over (cur, input) vars. Every entry is rooted until
        // the end of construction: these are the values held across
        // allocating calls (and the first protect arms automatic GC).
        let mut node_bdd: FxHashMap<Var, NodeId> = FxHashMap::default();
        node_bdd.insert(Var(0), NodeId::FALSE);
        for (j, (v, _)) in aig.inputs().iter().enumerate() {
            let b = mgr.var(input_var(j))?;
            mgr.protect(b);
            node_bdd.insert(*v, b);
        }
        for (i, l) in aig.latches().iter().enumerate() {
            let b = mgr.var(cur_var(i))?;
            mgr.protect(b);
            node_bdd.insert(l.var, b);
        }
        for v in aig.and_order() {
            let (a, b) = aig.and_fanins(v).expect("AND node"); // lint: allow
            let ba = lit_bdd(&node_bdd, a);
            let bb = lit_bdd(&node_bdd, b);
            let r = mgr.and(ba, bb)?;
            mgr.protect(r);
            node_bdd.insert(v, r);
        }

        // Per-latch relations T_i = next_i ↔ f_i, clustered. The running
        // accumulator and the finished clusters stay rooted.
        let mut clusters = Vec::new();
        let mut current: Option<NodeId> = None;
        for (i, l) in aig.latches().iter().enumerate() {
            let f = lit_bdd(&node_bdd, l.next);
            let nv = mgr.var(next_var(i))?;
            let t = mgr.xnor(nv, f)?;
            current = Some(match current {
                None => {
                    mgr.protect(t);
                    t
                }
                Some(c) => {
                    let merged = mgr.and(c, t)?;
                    if mgr.size(merged) > CLUSTER_LIMIT {
                        clusters.push(c); // keeps c's root registration
                        mgr.protect(t);
                        t
                    } else {
                        mgr.reroot(c, merged);
                        merged
                    }
                }
            });
        }
        if let Some(c) = current {
            clusters.push(c);
        }

        // Constraint and bad.
        let mut constraint = NodeId::TRUE;
        for c in aig.constraints() {
            let b = lit_bdd(&node_bdd, c.lit);
            constraint = mgr.and(constraint, b)?;
        }
        mgr.protect(constraint);
        let mut bad = NodeId::FALSE;
        for b in aig.bads() {
            let bb = lit_bdd(&node_bdd, b.lit);
            bad = mgr.or(bad, bb)?;
        }
        mgr.protect(bad);
        let bad_constraint = mgr.and(bad, constraint)?;
        mgr.protect(bad_constraint);

        // Initial state cube.
        let mut init = NodeId::TRUE;
        for (i, l) in aig.latches().iter().enumerate().rev() {
            let v = if l.init {
                mgr.var(cur_var(i))?
            } else {
                mgr.nvar(cur_var(i))?
            };
            let ni = mgr.and(init, v)?;
            mgr.reroot(init, ni);
            init = ni;
        }

        // Quantification schedule: a (cur|input) variable is quantified at
        // the last cluster whose support contains it; variables in no
        // cluster go to the residual cube (quantified before cluster 0).
        let quantifiable: Vec<u32> = (0..n)
            .map(cur_var)
            .chain((0..aig.num_inputs()).map(input_var))
            .collect();
        let mut last_use: FxHashMap<u32, usize> = FxHashMap::default();
        for (k, c) in clusters.iter().enumerate() {
            for v in mgr.support(*c) {
                if v % 2 == 0 || v >= 2 * n as u32 {
                    last_use.insert(v, k);
                }
            }
        }
        let mut cluster_vars: Vec<Vec<u32>> = vec![Vec::new(); clusters.len()];
        let mut residual_vars: Vec<u32> = Vec::new();
        for v in quantifiable {
            match last_use.get(&v) {
                Some(&k) => cluster_vars[k].push(v),
                None => residual_vars.push(v),
            }
        }
        let mut cluster_cubes = Vec::with_capacity(cluster_vars.len());
        for vs in cluster_vars {
            let cb = mgr.cube(&vs)?;
            mgr.protect(cb);
            cluster_cubes.push(cb);
        }
        let residual_cube = mgr.cube(&residual_vars)?;
        mgr.protect(residual_cube);

        // Release the construction temporaries; the returned parts keep
        // their registrations for the manager's lifetime.
        for b in node_bdd.values() {
            mgr.unprotect(*b);
        }

        Ok(Parts {
            clusters,
            cluster_cubes,
            residual_cube,
            init,
            constraint,
            bad,
            bad_constraint,
        })
    }

    /// Image: states reachable in one constrained step from `s`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] if the node quota is exhausted.
    pub fn image(&mut self, s: NodeId) -> Result<NodeId, OutOfNodes> {
        let mut acc = self.mgr.and(s, self.constraint)?;
        acc = self.mgr.exists(acc, self.residual_cube)?;
        for k in 0..self.clusters.len() {
            acc = self
                .mgr
                .and_exists(acc, self.clusters[k], self.cluster_cubes[k])?;
        }
        self.mgr.rename(acc, &self.next_to_cur)
    }

    /// True if `s` intersects `bad ∧ constraint` (bad may depend on
    /// inputs, which are quantified existentially). Pure traversal: no
    /// nodes are allocated, so this can neither fail nor eat the quota.
    pub fn intersects_bad(&self, s: NodeId) -> bool {
        self.mgr.intersects(s, self.bad_constraint)
    }

    /// Number of latches (state variables).
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }
}

/// The rooted pieces of a transition system, before the manager is moved
/// into the struct.
struct Parts {
    clusters: Vec<NodeId>,
    cluster_cubes: Vec<NodeId>,
    residual_cube: NodeId,
    init: NodeId,
    constraint: NodeId,
    bad: NodeId,
    bad_constraint: NodeId,
}

impl Parts {
    fn into_system(self, mgr: BddManager, aig: &Aig) -> TransitionSystem {
        let n = aig.num_latches();
        let next_to_cur: Vec<(u32, u32)> =
            (0..n).map(|i| (2 * i as u32 + 1, 2 * i as u32)).collect();
        TransitionSystem {
            mgr,
            clusters: self.clusters,
            cluster_cubes: self.cluster_cubes,
            residual_cube: self.residual_cube,
            init: self.init,
            constraint: self.constraint,
            bad: self.bad,
            bad_constraint: self.bad_constraint,
            next_to_cur,
            num_latches: n,
            num_inputs: aig.num_inputs(),
        }
    }
}

/// AIG literal → BDD: with complement edges the complemented literal is
/// a free tag flip, so this neither allocates nor fails.
fn lit_bdd(node_bdd: &FxHashMap<Var, NodeId>, l: Lit) -> NodeId {
    let base = node_bdd[&l.var()];
    if l.is_compl() {
        !base
    } else {
        base
    }
}

/// Forward-reachability UMC: returns Proved if the bad never intersects
/// the reachable set, the violation depth otherwise.
///
/// `reached` and `frontier` are registered as garbage-collection roots,
/// so quota pressure reclaims dead image intermediates and superseded
/// frontiers instead of counting them against the budget. Statistics
/// (peak live nodes, total allocations, quota hits) are recorded on
/// every exit path, including build failure.
pub fn bdd_umc(
    aig: &Aig,
    node_quota: usize,
    max_iterations: usize,
    stats: &mut CheckStats,
) -> BddEngineOutcome {
    let opts = CheckOptions { bdd_nodes: node_quota, max_iterations, ..CheckOptions::default() };
    bdd_umc_session(aig, &opts, stats, &mut Budget::unlimited(), None)
}

/// A FORCE static variable order translated into the BDD variable
/// space, plus the span accounting recorded into
/// [`CheckStats::static_order_span_before`] /
/// [`CheckStats::static_order_span_after`].
pub(crate) struct StaticOrder {
    /// Permutation of the full BDD variable space `0..2n+i`: each
    /// latch's `(2i, 2i+1)` twin stays adjacent (so the interleaved
    /// rename and the dynamic-reorder pair pinning keep working),
    /// placed at the latch slot's FORCE position; inputs follow their
    /// own FORCE positions.
    pub order: Vec<u32>,
    /// Total hyperedge span of the natural order.
    pub span_before: u64,
    /// Total hyperedge span of the adopted order.
    pub span_after: u64,
}

/// Computes the FORCE static order for `aig`
/// (`veridic_aig::structure::force_order`) and translates the
/// latch/input slot permutation into a BDD variable order. Purely
/// structural — a function of the AIG alone, identical for every
/// worker count, lane and window.
pub(crate) fn static_bdd_order(aig: &Aig) -> StaticOrder {
    let fo = veridic_aig::structure::force_order(aig);
    let n = aig.num_latches();
    let mut order = Vec::with_capacity(2 * n + aig.num_inputs());
    for &slot in &fo.slots {
        if (slot as usize) < n {
            order.push(2 * slot);
            order.push(2 * slot + 1);
        } else {
            order.push((2 * n) as u32 + (slot - n as u32));
        }
    }
    StaticOrder { order, span_before: fo.span_before, span_after: fo.span_after }
}

/// Arms in-place dynamic reordering on a manager holding a transition
/// system: every latch's current/next twin `(2i, 2i+1)` is pinned as a
/// 2-block so the interleaved rename stays order-preserving through
/// sifting, and the growth trigger scales with the quota the same way
/// the lane GC threshold does. Verdict-neutral by construction — a
/// reorder changes node placement, never the functions the rooted ids
/// denote.
pub(crate) fn arm_dynamic_reorder(mgr: &mut BddManager, num_latches: usize, node_quota: usize) {
    mgr.set_reorder_pairs((0..num_latches as u32).map(|i| (2 * i, 2 * i + 1)).collect());
    // Fire the first sift while the table is still small (1/32 of the
    // quota): the order learned early on the design's structure rides
    // through any later blowup, and the manager's geometric backoff +
    // quota/16 ceiling keep the total reorder cost bounded — and keep
    // sifting away from memout-bound runs, where a better order only
    // delays the quota death.
    mgr.set_auto_reorder(Some((node_quota / 32).max(1 << 12)));
}

/// [`bdd_umc`] under the options `opts` and a cooperative round
/// [`Budget`], optionally resumed from a [`ReachCheckpoint`] of an
/// earlier suspended run on the same AIG.
///
/// The engine is the reachability kernel over a single `TRUE` window.
/// One budget round is consumed per image. When the budget trips
/// *between* rounds, the engine exports its reached and frontier sets
/// through [`veridic_bdd::transfer`] (the frontier delta-encoded
/// against the reached export — it is a subset, so the delta is small)
/// and returns [`BddEngineOutcome::Suspended`]; resuming imports them
/// into a fresh manager and continues at round `depth + 1`, so verdict,
/// falsification depth and the completed-round count in
/// [`CheckStats::iterations`] are identical to an uninterrupted run
/// (manager accounting — allocations, peaks — naturally differs: the
/// fresh manager never built the dead intermediates of the first
/// session).
///
/// The options the engine reads:
///
/// * [`CheckOptions::bdd_nodes`] and [`CheckOptions::max_iterations`]
///   bound the run.
/// * [`CheckOptions::image_workers`] selects the image step: `1` images
///   in the kernel's own manager; any other value fans each round's
///   image out across lane threads (`0` = one per available CPU) as
///   described on `LaneImage` (private) — verdict, depth and iteration
///   count are identical to serial for every worker count, and all
///   manager-level statistics are identical across parallel worker
///   counts.
/// * [`CheckOptions::dynamic_reorder`] arms automatic in-place variable
///   sifting (see [`veridic_bdd::BddManager::sift`]) on every manager
///   the session creates — the kernel's and each image lane's.
///   Verdict, depth and iteration count are unaffected; only node
///   counts and wall-clock move.
/// * [`CheckOptions::static_order`] seeds every manager the session
///   creates with the FORCE static variable order (see
///   `static_bdd_order`) before any node is built. Also
///   verdict/depth/iteration-neutral.
///
/// # Panics
///
/// If `resume` is a partitioned-engine checkpoint.
pub fn bdd_umc_session(
    aig: &Aig,
    opts: &CheckOptions,
    stats: &mut CheckStats,
    budget: &mut Budget,
    resume: Option<&ReachCheckpoint>,
) -> BddEngineOutcome {
    let setup = Setup::new(aig, opts, 0, resume, stats);
    let mut ts = match setup.system() {
        Ok(ts) => ts,
        Err(ws) => {
            fold(stats, &ws);
            return BddEngineOutcome::ResourceOut;
        }
    };
    setup.arm(&mut ts);
    // The lane split is derived from the transition system alone, so
    // the lane structure — and with it every lane manager's op
    // sequence — is independent of the worker count. No entangled
    // variables means no way to partition the state space: the kernel
    // images in its own manager.
    let workers = effective_image_workers(opts.image_workers);
    let lanes = if workers > 1 { choose_split_vars(&ts, IMAGE_LANE_VARS) } else { Vec::new() };
    let mut kernel = Kernel::new(ts, Vec::new(), 1, 0);
    let run = if lanes.is_empty() {
        setup.run_local(&mut kernel, stats, budget, &mut serial_image)
    } else {
        lane_session(&setup, &mut kernel, &lanes, workers, stats, budget)
    };
    kernel.finish(stats, run).0
}

// ---------------------------------------------------------------------
// Parallel image: disjunctive lane decomposition.
// ---------------------------------------------------------------------

/// Number of lane-splitting variables for the parallel image: the
/// current-state space is partitioned into `2^IMAGE_LANE_VARS` window
/// lanes (fewer when fewer variables are structurally entangled), fixed
/// by the transition system alone — never by the worker count — so
/// every manager's op sequence, and with it all statistics, is
/// worker-count-invariant.
const IMAGE_LANE_VARS: u32 = 2;

/// Resolves [`CheckOptions::image_workers`]: `0` means one per
/// available CPU.
fn effective_image_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Runs the monolithic kernel with its image step fanned out across
/// `workers` lane threads over the lane split `split`; lane `l` runs on
/// thread `l mod threads`. The build barrier fails the run (without a
/// quota hit of the kernel's own) if any lane could not be built.
fn lane_session(
    setup: &Setup<'_>,
    kernel: &mut Kernel,
    split: &[u32],
    workers: usize,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> Result<BddEngineOutcome, Fail> {
    let nlanes = 1usize << split.len();
    let threads = workers.min(nlanes);
    let build = |tid: usize| -> BuildResult<LaneWorker> {
        let mut lanes = Vec::new();
        let mut failed = Vec::new();
        for lane in (tid..nlanes).step_by(threads) {
            match ImageLane::build(setup, split, lane) {
                Ok(la) => lanes.push(la),
                Err(ws) => failed.push((lane, ws)),
            }
        }
        if failed.is_empty() {
            return Ok((LaneWorker { lanes, failed: Vec::new() }, Vec::new()));
        }
        failed.extend(lanes.iter().map(|la| (la.lane, accounting(&la.ts.mgr, false))));
        Err(failed)
    };
    run_crew(threads, build, stats, |crew, built, stats| {
        if built.iter().any(Option::is_none) {
            return Err(Fail::Worker);
        }
        // Both sides of the frontier broadcast start from the empty
        // baseline and rebase on the identical delta every round.
        let baseline = transfer::export(&kernel.ts.mgr, NodeId::FALSE);
        let mut fan_out = LaneImage { crew, baseline };
        setup.run_local(kernel, stats, budget, &mut |ts, s| fan_out.image(ts, s))
    })
}

/// The lane fan-out as the monolithic kernel's image step.
///
/// # The determinism contract
///
/// The current-state space is partitioned by window cubes over
/// [`IMAGE_LANE_VARS`] splitting variables (the same most-entangled
/// selection the POBDD engine uses) into `L <= 2^IMAGE_LANE_VARS`
/// *lanes*, fixed by the transition system alone. Since `∃` and `∧`
/// distribute over `∨`, the image decomposes disjunctively:
///
/// ```text
/// image(s) = ⋃_l image(s ∧ w_l)
/// ```
///
/// and each lane runs the serial early-quantification schedule — the
/// schedule depends only on the clusters, never on the accumulator, so
/// it stays valid for any conjunct of `s`. Each lane owns a private
/// [`TransitionSystem`]/manager built once at session start. Per round
/// the kernel broadcasts its frontier as a [`DeltaBdd`] against a
/// chained baseline (both sides rebase on the same delta, so the
/// baselines agree without ever being shipped), and OR-merges the
/// returned lane images into its own manager in ascending lane order.
/// Consequences:
///
/// * verdict, falsification depth and completed-round count equal the
///   serial engine's for every worker count (same set-level fixpoint,
///   same round structure);
/// * every manager's op sequence is lane- or kernel-local and
///   worker-count-independent, so *all* manager statistics — peak live
///   nodes, allocations, the per-lane entries in
///   [`CheckStats::worker_bdd`] — are identical across parallel worker
///   counts (serial peak-live naturally differs: the kernel's manager
///   never builds image intermediates here);
/// * quota exhaustion in any lane aborts the round exactly like a
///   serial mid-image quota failure: the round does not count toward
///   [`CheckStats::iterations`] and the engine reports resource-out.
struct LaneImage<'c> {
    crew: &'c Crew<DeltaBdd, Vec<(usize, ExportedBdd)>>,
    baseline: ExportedBdd,
}

impl LaneImage<'_> {
    fn image(&mut self, ts: &mut TransitionSystem, frontier: NodeId) -> Result<NodeId, Fail> {
        let delta = transfer::export_delta(&ts.mgr, frontier, &self.baseline);
        self.baseline = delta.rebase(&self.baseline);
        self.crew.broadcast(|| delta.clone());
        let mut images = Vec::new();
        for reply in self.crew.gather() {
            images.extend(reply.ok_or(Fail::Worker)?);
        }
        // Merge in ascending lane order — the fixed order keeps the
        // kernel's op sequence worker-count-independent.
        images.sort_unstable_by_key(|(lane, _)| *lane);
        let mut img = NodeId::FALSE;
        for (_, e) in &images {
            let part = transfer::import(e, &mut ts.mgr)?; // arrives rooted
            let merged = ts.mgr.or(img, part)?;
            ts.mgr.reroot(img, merged);
            ts.mgr.unprotect(part);
            img = merged;
        }
        // The kernel consumes the image in its next operation.
        ts.mgr.unprotect(img);
        Ok(img)
    }
}

/// One lane of the parallel image: a private transition system, the
/// lane's window cube, and the chained frontier baseline mirroring the
/// kernel's.
struct ImageLane {
    ts: TransitionSystem,
    window: NodeId,
    baseline: ExportedBdd,
    lane: usize,
}

impl ImageLane {
    /// Builds one lane's private transition system and window cube, and
    /// arms the GC heuristics: a lane lives across many rounds against
    /// the full quota, so collecting on table growth — and aging out
    /// cache entries no round has touched in a while — beats thrashing
    /// the quota-triggered collect-and-retry path. The heuristic
    /// parameters depend only on the quota, keeping lane managers
    /// deterministic for any worker count.
    fn build(setup: &Setup<'_>, split: &[u32], lane: usize) -> Result<ImageLane, BddWorkerStats> {
        let mut ts = setup.system()?;
        let window = window_cube(&mut ts.mgr, split, lane).map_err(|_| accounting(&ts.mgr, true))?;
        ts.mgr.set_gc_growth_threshold(Some((setup.node_quota / 8).max(1 << 12)));
        ts.mgr.set_cache_max_age(Some(8));
        setup.arm(&mut ts);
        let baseline = transfer::export(&ts.mgr, NodeId::FALSE);
        Ok(ImageLane { ts, window, baseline, lane })
    }

    /// One round: rebuild the frontier from the broadcast delta,
    /// restrict it to the lane's window, image it through the serial
    /// early-quantification schedule and export the result (a pure
    /// read, so the unrooted image cannot be collected under it).
    fn round(&mut self, delta: &DeltaBdd) -> Result<ExportedBdd, OutOfNodes> {
        let fr = transfer::import_delta(delta, &self.baseline, &mut self.ts.mgr)?;
        self.baseline = delta.rebase(&self.baseline);
        let s = self.ts.mgr.and(fr, self.window)?;
        self.ts.mgr.reroot(fr, s); // the import's registration moves to s
        if s == NodeId::FALSE {
            return Ok(transfer::export(&self.ts.mgr, NodeId::FALSE));
        }
        let img = self.ts.image(s)?;
        let export = transfer::export(&self.ts.mgr, img);
        self.ts.mgr.unprotect(s);
        Ok(export)
    }
}

/// One lane thread: owns lanes `tid, tid + threads, …` and answers each
/// round for them in ascending lane order.
///
/// A quota failure in one lane never short-circuits its siblings:
/// every owned lane still attempts the build and every round, because
/// each lane's work is a function of the round history alone. That
/// keeps the set of lane executions — and with it every per-lane and
/// aggregate statistic of a quota-death run — identical for every
/// worker count and thread layout.
struct LaneWorker {
    lanes: Vec<ImageLane>,
    /// Lanes whose manager exhausted its quota.
    failed: Vec<usize>,
}

impl Worker for LaneWorker {
    type Cmd = DeltaBdd;
    type Reply = Vec<(usize, ExportedBdd)>;

    fn answer(&mut self, delta: DeltaBdd) -> Option<Self::Reply> {
        let mut images = Vec::with_capacity(self.lanes.len());
        for la in &mut self.lanes {
            match la.round(&delta) {
                Ok(e) => images.push((la.lane, e)),
                Err(_) => self.failed.push(la.lane),
            }
        }
        self.failed.is_empty().then_some(images)
    }

    fn accounting(&self) -> Vec<(usize, BddWorkerStats)> {
        let quota_hit = |lane| self.failed.contains(&lane);
        self.lanes.iter().map(|la| (la.lane, accounting(&la.ts.mgr, quota_hit(la.lane)))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::Aig;

    fn counter(bits: u32) -> (Aig, Vec<Lit>) {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        let lits = qs.iter().map(|(_, q)| *q).collect();
        (g, lits)
    }

    /// The quota-semantics acceptance check: a reachability run whose
    /// total allocations are an order of magnitude beyond the quota —
    /// which therefore exhausted the quota before garbage collection
    /// existed — now completes under that same quota, because the quota
    /// counts *live* nodes and GC reclaims dead image intermediates.
    #[test]
    fn gc_lets_check_complete_under_tight_quota() {
        let (mut g, qs) = counter(10);
        let bad = g.and_many(qs.iter().copied());
        g.add_bad("all_ones", bad);
        let quota = 400;
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, quota, 1 << 20, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(1023)
        );
        assert!(stats.bdd_nodes <= quota, "peak live stays within the quota");
        assert!(
            stats.bdd_allocated > 10 * quota as u64,
            "allocations far beyond the quota prove GC carried the run: {}",
            stats.bdd_allocated
        );
    }

    /// Regression: quota-exhausted builds used to report 0 peak nodes.
    #[test]
    fn quota_exhausted_build_records_stats() {
        let (mut g, qs) = counter(16);
        let bad = g.and_many(qs.iter().copied());
        g.add_bad("all_ones", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 300, 1 << 20, &mut stats),
            BddEngineOutcome::ResourceOut
        );
        assert!(stats.bdd_nodes > 0, "failure path must record peak live nodes");
        assert!(stats.bdd_allocated > 0);
        assert_eq!(stats.bdd_quota_hits, 1);
    }

    #[test]
    fn reachability_depth_matches_count() {
        let (mut g, qs) = counter(3);
        // bad: counter == 5 (101)
        let t = g.and(qs[0], !qs[1]);
        let bad = g.and(t, qs[2]);
        g.add_bad("five", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 1 << 20, 100, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(5)
        );
    }

    #[test]
    fn full_space_fixpoint_proves() {
        let (mut g, qs) = counter(3);
        // bad: impossible pattern — q0 & !q0 is constant false; use an
        // extra stuck latch instead.
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        let bad = g.and(qs[0], s);
        g.add_bad("never", bad);
        let mut stats = CheckStats::default();
        assert_eq!(bdd_umc(&g, 1 << 20, 100, &mut stats), BddEngineOutcome::Proved);
        // An 3-bit counter explores 8 states: fixpoint in <= 9 iterations.
        assert!(stats.iterations <= 9);
    }

    #[test]
    fn constraint_restricts_reachability() {
        // Latch loads input; constraint pins input low; bad = latch high.
        let mut g = Aig::new();
        let a = g.input("a");
        let (id, q) = g.latch("q", false);
        g.set_next(id, a);
        g.add_constraint("a_low", !a);
        g.add_bad("q_high", q);
        let mut stats = CheckStats::default();
        assert_eq!(bdd_umc(&g, 1 << 20, 100, &mut stats), BddEngineOutcome::Proved);
    }

    #[test]
    fn quota_exhaustion_reports_resource_out() {
        let (mut g, qs) = counter(16);
        let bad = g.and_many(qs.iter().copied());
        g.add_bad("all_ones", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 300, 1 << 20, &mut stats),
            BddEngineOutcome::ResourceOut
        );
    }

    /// Maximal-period 16-bit Fibonacci LFSR (taps 16,14,13,11) whose
    /// live working set genuinely outgrows a tight quota mid-run (see
    /// the twin helper in the POBDD tests).
    fn lfsr16() -> Aig {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..16).map(|i| g.latch(format!("s{i}"), i == 0)).collect();
        let fb = [16usize, 14, 13, 11]
            .iter()
            .map(|t| qs[*t - 1].1)
            .reduce(|a, b| g.xor(a, b))
            .unwrap();
        for i in (1..16).rev() {
            g.set_next(qs[i].0, qs[i - 1].1);
        }
        g.set_next(qs[0].0, fb);
        let nz: Vec<_> = qs.iter().map(|(_, q)| !*q).collect();
        let bad = g.and_many(nz);
        g.add_bad("zero", bad);
        g
    }

    /// The lane-parallel image must agree with the serial engine on
    /// verdict, falsification depth and completed-round count for every
    /// worker count — and every manager-level statistic must be
    /// identical across parallel worker counts, because the lane
    /// structure is fixed by the transition system, not by the thread
    /// count.
    #[test]
    fn parallel_image_matches_serial_verdicts() {
        let (mut g, qs) = counter(6);
        // bad: counter == 44
        let hit: Vec<Lit> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| if 44 >> i & 1 == 1 { *q } else { !*q })
            .collect();
        let bad = g.and_many(hit);
        g.add_bad("hit", bad);
        let mut serial = CheckStats::default();
        let base = bdd_umc(&g, 1 << 20, 1000, &mut serial);
        assert_eq!(base, BddEngineOutcome::FalsifiedAtDepth(44));
        let mut parallel: Vec<CheckStats> = Vec::new();
        for workers in [2usize, 3, 0] {
            let mut stats = CheckStats::default();
            let got = bdd_umc_session(
                &g,
                &CheckOptions {
                    bdd_nodes: 1 << 20,
                    max_iterations: 1000,
                    image_workers: workers,
                    ..CheckOptions::default()
                },
                &mut stats,
                &mut Budget::unlimited(),
                None,
            );
            assert_eq!(base, got, "workers={workers}");
            assert_eq!(serial.iterations, stats.iterations, "workers={workers}");
            if workers != 0 {
                // `0` resolves to the CPU count, which on a single-core
                // host is the serial path (no lane accounting).
                assert!(!stats.worker_bdd.is_empty(), "lanes must report accounting");
                for ws in &stats.worker_bdd {
                    assert!(ws.peak_live_nodes > 0);
                    assert!(!ws.quota_hit);
                }
                parallel.push(stats);
            }
        }
        for s in &parallel[1..] {
            assert_eq!(parallel[0].bdd_nodes, s.bdd_nodes, "peak live is worker-count-invariant");
            assert_eq!(parallel[0].bdd_allocated, s.bdd_allocated);
            assert_eq!(parallel[0].worker_bdd, s.worker_bdd);
        }
    }

    #[test]
    fn parallel_image_proves_fixpoints() {
        let (mut g, qs) = counter(4);
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        let bad = g.and(qs[0], s);
        g.add_bad("never", bad);
        let mut serial = CheckStats::default();
        assert_eq!(bdd_umc(&g, 1 << 20, 100, &mut serial), BddEngineOutcome::Proved);
        for workers in [2usize, 4] {
            let mut stats = CheckStats::default();
            assert_eq!(
                bdd_umc_session(
                    &g,
                    &CheckOptions {
                        bdd_nodes: 1 << 20,
                        max_iterations: 100,
                        image_workers: workers,
                        ..CheckOptions::default()
                    },
                    &mut stats,
                    &mut Budget::unlimited(),
                    None,
                ),
                BddEngineOutcome::Proved,
                "workers={workers}"
            );
            assert_eq!(serial.iterations, stats.iterations, "workers={workers}");
        }
    }

    /// PR 4's iteration-count pin, extended to the parallel image: a
    /// quota death mid-image leaves `stats.iterations` at the completed
    /// rounds only, and the whole failure — outcome, round count, peak
    /// accounting, per-lane quota flags — is deterministic across
    /// parallel worker counts.
    #[test]
    fn parallel_quota_death_is_deterministic_mid_image() {
        let g = lfsr16();
        let quota = 1_500;
        let mut base: Option<CheckStats> = None;
        for workers in [2usize, 3, 4] {
            let mut stats = CheckStats::default();
            let got = bdd_umc_session(
                &g,
                &CheckOptions {
                    bdd_nodes: quota,
                    max_iterations: 1 << 20,
                    image_workers: workers,
                    ..CheckOptions::default()
                },
                &mut stats,
                &mut Budget::unlimited(),
                None,
            );
            assert_eq!(got, BddEngineOutcome::ResourceOut, "workers={workers}");
            assert!(stats.iterations > 0, "failure must be mid-run, not at build");
            assert!(stats.bdd_quota_hits >= 1, "workers={workers}");
            match &base {
                None => base = Some(stats),
                Some(b) => {
                    assert_eq!(b.iterations, stats.iterations, "workers={workers}");
                    assert_eq!(b.bdd_nodes, stats.bdd_nodes, "workers={workers}");
                    assert_eq!(b.bdd_quota_hits, stats.bdd_quota_hits, "workers={workers}");
                    assert_eq!(b.worker_bdd, stats.worker_bdd, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn input_in_bad_is_quantified() {
        // bad = input & latch; latch counts 0,1,0,1...; falsified at depth
        // 1 when the latch first goes high.
        let mut g = Aig::new();
        let a = g.input("a");
        let (id, q) = g.latch("q", false);
        g.set_next(id, !q);
        let bad = g.and(a, q);
        g.add_bad("a_and_q", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 1 << 20, 100, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(1)
        );
    }
}
