//! Partitioned-OBDD reachability — the paper's in-house engine
//! \[Jain, IWLS 2004\]: the state space is split by window functions
//! (cubes over chosen state variables) and reachability fixpoints run per
//! partition with cross-partition frontier exchange. Each partition's
//! reached-set BDD stays smaller than the monolithic one, postponing node
//! blow-up.
//!
//! The engine is the window-partitioned reachability kernel
//! (`crate::reach`) over [`choose_split_vars`]'s split. With one worker
//! a single kernel owns every window and runs in the calling thread;
//! with `workers > 1` each worker thread runs its own kernel — a private
//! [`TransitionSystem`]/manager built from the shared AIG — owning a
//! deterministic subset of the windows, and image pieces cross kernel
//! boundaries between synchronous rounds through the
//! [`veridic_bdd::transfer`] layer. Verdicts, falsification depths and
//! iteration counts are identical for any worker count (see the
//! determinism notes on [`pobdd_reach`]).

use crate::bdd_engine::{BddEngineOutcome, TransitionSystem};
use crate::checkpoint::ReachCheckpoint;
use crate::engine::Budget;
use crate::reach::{
    accounting, fold, run_crew, serial_image, BuildResult, CheckpointPiece, Crew, Fail, Kernel,
    RemotePiece, Rounds, Setup, Step, Worker,
};
use crate::{BddWorkerStats, CheckOptions, CheckStats};
use veridic_aig::Aig;

/// Partitioned forward reachability with `window_vars` splitting
/// variables (up to 2^k windows) across `workers` threads (`0` = one
/// per available CPU, `1` = serial in the calling thread).
///
/// Splitting variables are the current-state variables with the highest
/// occurrence count across transition-relation clusters — a cheap proxy
/// for "most entangled", which is where partitioning pays off.
/// Variables that occur in *no* cluster are never selected: a
/// zero-occurrence split variable would double the window count (and
/// the thread fan-out) with zero reached-set-size benefit, so the
/// effective window count is clamped to 2^(entangled variables) even
/// when `window_vars` asks for more.
///
/// # Determinism
///
/// Rounds are globally synchronous: depth `d` ends only when every
/// window's depth-`d` image has been distributed and absorbed, so the
/// outcome, the falsification depth and [`CheckStats::iterations`] are
/// the same for any worker count — threads change *where* each window's
/// fixpoint runs, never *what* a round computes. The per-window bad
/// checks commute (the set of states first reached at depth `d` is
/// schedule-independent), and a falsifying round always reports its own
/// depth. The one caveat is quota exhaustion: each worker's manager
/// gets the full `node_quota`, so a run that exhausts the quota under
/// one worker layout may fit under another; runs that conclude within
/// quota agree everywhere. Per-worker manager accounting lands in
/// [`CheckStats::worker_bdd`] (one entry for the serial engine).
pub fn pobdd_reach(
    aig: &Aig,
    window_vars: u32,
    workers: usize,
    node_quota: usize,
    max_iterations: usize,
    stats: &mut CheckStats,
) -> BddEngineOutcome {
    let opts = CheckOptions {
        pobdd_window_vars: window_vars,
        pobdd_workers: workers,
        bdd_nodes: node_quota,
        max_iterations,
        ..CheckOptions::default()
    };
    pobdd_reach_session(aig, &opts, stats, &mut Budget::unlimited(), None)
}

/// [`pobdd_reach`] under the options `opts` and a cooperative round
/// [`Budget`], optionally resumed from a [`ReachCheckpoint`] of an
/// earlier suspended run on the same AIG.
///
/// One budget round is consumed per global reachability round. When the
/// budget trips between rounds, every window's reached and frontier set
/// is exported through [`veridic_bdd::transfer`] (the threaded engine
/// collects its workers' owned windows through the same round protocol)
/// and the run suspends. Resume re-derives the identical window split
/// from the AIG, imports the per-window sets, and continues at the next
/// round — with any worker count: rounds are globally synchronous, so a
/// checkpoint taken under one worker layout resumes under another with
/// the same verdict, depth and completed-round count.
///
/// The options the engine reads:
///
/// * [`CheckOptions::pobdd_window_vars`] and
///   [`CheckOptions::pobdd_workers`] are `pobdd_reach`'s `window_vars`
///   and `workers`.
/// * [`CheckOptions::bdd_nodes`] and [`CheckOptions::max_iterations`]
///   bound the run.
/// * [`CheckOptions::dynamic_reorder`] arms automatic in-place variable
///   sifting (see [`veridic_bdd::BddManager::sift`]) on every manager
///   the session creates — the serial kernel's or each worker's.
///   Verdict, depth and iteration count are unaffected; only node
///   counts and wall-clock move.
/// * [`CheckOptions::static_order`] seeds every manager the session
///   creates with the FORCE static variable order (see
///   [`veridic_aig::structure::force_order`]) before its transition
///   system is built — computed once from the AIG, identical across
///   workers, and composable with `dynamic_reorder` (sifting starts
///   from the seeded order). Like reordering, it moves only node counts
///   and wall-clock, never verdicts, depths or iteration counts.
///
/// # Panics
///
/// If `resume` was taken under a different window-variable count.
pub fn pobdd_reach_session(
    aig: &Aig,
    opts: &CheckOptions,
    stats: &mut CheckStats,
    budget: &mut Budget,
    resume: Option<&ReachCheckpoint>,
) -> BddEngineOutcome {
    let window_vars = opts.pobdd_window_vars;
    let setup = Setup::new(aig, opts, window_vars, resume, stats);
    let workers = effective_workers(opts.pobdd_workers, window_vars, aig);
    if workers > 1 {
        return threaded(&setup, workers, stats, budget);
    }
    let mut kernel = match setup.window_kernel(1, 0) {
        Ok(kernel) => kernel,
        Err(ws) => {
            fold(stats, &ws);
            stats.worker_bdd = vec![ws];
            return BddEngineOutcome::ResourceOut;
        }
    };
    let run = setup.run_local(&mut kernel, stats, budget, &mut serial_image);
    let (outcome, ws) = kernel.finish(stats, run);
    stats.worker_bdd = vec![ws];
    outcome
}

/// Resolves the requested worker count: `0` means one per available
/// CPU, and the result is clamped to an upper bound on the window count
/// (`2^min(window_vars, structurally entangled latches)`) so spawning a
/// worker that cannot possibly own a window is avoided without building
/// any BDDs. The bound uses the *structural* entanglement count — BDD
/// support is a subset of structural support — so in rare cases where
/// semantic cancellation drops further split variables a worker can
/// still end up owning no windows; it then builds its transition system
/// once and idles through the barriers.
fn effective_workers(requested: usize, window_vars: u32, aig: &Aig) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    if requested <= 1 {
        return 1;
    }
    // Cap the shift well below usize bits; 2^16 windows is already far
    // beyond any sensible fan-out.
    let entangled = structurally_entangled_latches(aig) as u32;
    let max_parts = 1usize << window_vars.min(entangled).min(16);
    requested.clamp(1, max_parts)
}

/// Number of latches whose output appears in the combinational cone of
/// some latch's next-state function — a cheap structural upper bound on
/// the variables [`choose_split_vars`] can select (its cluster-support
/// counts see the BDD support, a subset of the structural one). Costs
/// one AIG walk, no BDDs.
fn structurally_entangled_latches(aig: &Aig) -> usize {
    use veridic_aig::hash::FxHashSet;
    let latch_vars: FxHashSet<veridic_aig::Var> =
        aig.latches().iter().map(|l| l.var).collect();
    let mut seen: FxHashSet<veridic_aig::Var> = FxHashSet::default();
    let mut entangled: FxHashSet<veridic_aig::Var> = FxHashSet::default();
    let mut stack: Vec<veridic_aig::Var> =
        aig.latches().iter().map(|l| l.next.var()).collect();
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        if latch_vars.contains(&v) {
            entangled.insert(v);
            continue; // cones stop at state variables
        }
        if let Some((a, b)) = aig.and_fanins(v) {
            stack.push(a.var());
            stack.push(b.var());
        }
    }
    entangled.len()
}

/// Picks the current-state variables that occur in the most clusters.
///
/// Zero-occurrence variables are dropped even when that yields fewer
/// than `want` split variables: a variable no cluster mentions cannot
/// shrink any partition's reached set, and each padded variable would
/// double the window count for nothing (regression-tested in
/// `zero_occurrence_vars_are_not_split_on`).
pub(crate) fn choose_split_vars(ts: &TransitionSystem, want: u32) -> Vec<u32> {
    let n = ts.num_latches() as u32;
    let mut counts: Vec<(u32, usize)> = (0..n).map(|i| (2 * i, 0)).collect();
    for c in &ts.clusters {
        for v in ts.mgr.support(*c) {
            if v % 2 == 0 && v < 2 * n {
                counts[(v / 2) as usize].1 += 1;
            }
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
        .into_iter()
        .filter(|(_, count)| *count > 0)
        .take(want.min(n) as usize)
        .map(|(v, _)| v)
        .collect()
}

/// Estimated per-window load: for each window cube, the node count
/// every transition-relation cluster retains when the split variables
/// are fixed to the window's polarity ([`veridic_bdd::BddManager::size_restricted`]
/// — a pure traversal, no allocation). Windows that kill most of a
/// cluster's nodes are cheap; windows that keep a cluster intact pay
/// its full image cost every round. Deterministic for a given
/// transition system, so every worker computes the identical vector.
pub(crate) fn window_costs(ts: &TransitionSystem, split: &[u32], nparts: usize) -> Vec<u64> {
    (0..nparts)
        .map(|w| {
            let fixed = |v: u32| -> Option<bool> {
                split.iter().position(|&s| s == v).map(|bit| w >> bit & 1 == 1)
            };
            ts.clusters
                .iter()
                .map(|c| ts.mgr.size_restricted(*c, &fixed) as u64)
                .sum()
        })
        .collect()
}

/// Longest-processing-time greedy bin-pack: windows sorted by cost
/// (descending, ties by window index) are assigned one at a time to the
/// least-loaded worker (ties to the lowest id). Replaces the old static
/// round-robin (`w % workers`), which put the heaviest windows on the
/// same worker whenever costs were skewed by position.
///
/// Fully deterministic, so every worker derives the identical map with
/// no coordination; with all costs positive and at least as many
/// windows as workers, every worker receives at least one window.
/// Returns the window→worker map.
pub(crate) fn assign_windows_lpt(costs: &[u64], workers: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_unstable_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    let mut owner = vec![0usize; costs.len()];
    let mut load = vec![0u64; workers];
    for w in order {
        let wid = (0..workers).min_by_key(|&i| (load[i], i)).expect("workers >= 1"); // lint: allow
        load[wid] += costs[w];
        owner[w] = wid;
    }
    owner
}

// ---------------------------------------------------------------------
// Threaded engine: one kernel per worker thread.
// ---------------------------------------------------------------------

/// Coordinator → worker commands, one round phase at a time.
enum Cmd {
    /// First half of a round ([`Kernel::images`]).
    Images,
    /// Second half ([`Kernel::absorb`]) with the routed pieces, sorted
    /// by `(dst, src)`.
    Absorb(Vec<RemotePiece>),
    /// Export the owned windows (the budget suspended the run).
    Checkpoint,
}

/// Worker → coordinator answers, one per command.
enum Reply {
    /// Setup done. `owner` is the kernel's window→worker assignment —
    /// identical from every worker; the coordinator routes by it.
    Built { falsified: bool, owner: Vec<usize> },
    /// Pieces for other workers' windows, and whether an inline-absorbed
    /// piece hit bad.
    Images { remote: Vec<RemotePiece>, falsified: bool },
    Absorbed(Step),
    Checkpointed(Vec<CheckpointPiece>),
}

/// One worker thread's kernel.
struct WindowWorker {
    kernel: Kernel,
    wid: usize,
    quota_hit: bool,
}

impl Worker for WindowWorker {
    type Cmd = Cmd;
    type Reply = Reply;

    fn answer(&mut self, cmd: Cmd) -> Option<Reply> {
        let reply = match cmd {
            Cmd::Images => {
                let mut remote = Vec::new();
                self.kernel
                    .images(&mut serial_image, &mut remote)
                    .map(|falsified| Reply::Images { remote, falsified })
            }
            Cmd::Absorb(pieces) => {
                self.kernel.absorb(&pieces).map(Reply::Absorbed).map_err(Fail::from)
            }
            Cmd::Checkpoint => Ok(Reply::Checkpointed(self.kernel.checkpoint())),
        };
        self.quota_hit |= reply.is_err();
        reply.ok()
    }

    fn accounting(&self) -> Vec<(usize, BddWorkerStats)> {
        vec![(self.wid, accounting(&self.kernel.ts.mgr, self.quota_hit))]
    }
}

/// The threaded engine: `workers` kernels, one per thread, driven by
/// the coordinator's round protocol. Falsification takes precedence
/// over quota failure in a mixed phase — a found intersection with bad
/// is sound regardless of what other workers ran out of.
fn threaded(
    setup: &Setup<'_>,
    workers: usize,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> BddEngineOutcome {
    let build = |wid: usize| -> BuildResult<WindowWorker> {
        let mut kernel = setup.window_kernel(workers, wid).map_err(|ws| vec![(wid, ws)])?;
        let falsified = kernel
            .start(setup.resume)
            .map_err(|_| vec![(wid, accounting(&kernel.ts.mgr, true))])?;
        let owner = kernel.owner.clone();
        Ok((WindowWorker { kernel, wid, quota_hit: false }, Reply::Built { falsified, owner }))
    };
    run_crew(workers, build, stats, |crew, built, stats| {
        // Every worker derived the identical window→worker map; route by
        // the first. The barrier has already gathered every reply, so
        // concluding early leaves no worker unanswered.
        let (mut owner, mut ok) = (None, true);
        for reply in built {
            match reply {
                Some(Reply::Built { falsified: true, .. }) => {
                    return BddEngineOutcome::FalsifiedAtDepth(0);
                }
                Some(Reply::Built { owner: map, .. }) => {
                    owner.get_or_insert(map);
                }
                _ => ok = false,
            }
        }
        match owner.filter(|_| ok) {
            Some(owner) => setup
                .run_rounds(&mut Coordinator { crew, owner }, stats, budget)
                .unwrap_or(BddEngineOutcome::ResourceOut),
            None => BddEngineOutcome::ResourceOut,
        }
    })
}

/// The coordinator's side of the threaded rounds.
struct Coordinator<'c> {
    crew: &'c Crew<Cmd, Reply>,
    /// Window → owning worker, for routing.
    owner: Vec<usize>,
}

impl Rounds for Coordinator<'_> {
    fn round(&mut self) -> Result<Step, Fail> {
        self.crew.broadcast(|| Cmd::Images);
        let mut inbox: Vec<Vec<RemotePiece>> = (0..self.crew.len()).map(|_| Vec::new()).collect();
        let mut ok = true;
        for reply in self.crew.gather() {
            match reply {
                Some(Reply::Images { falsified: true, .. }) => return Ok(Step::Falsified),
                Some(Reply::Images { remote, .. }) => {
                    for piece in remote {
                        inbox[self.owner[piece.0]].push(piece);
                    }
                }
                _ => ok = false,
            }
        }
        if !ok {
            return Err(Fail::Worker);
        }
        // Sorting each inbox by (dst, src) makes absorption order — and
        // therefore node allocation — schedule-independent.
        for (wid, mut pieces) in inbox.into_iter().enumerate() {
            pieces.sort_unstable_by_key(|(dst, src, _)| (*dst, *src));
            self.crew.send(wid, Cmd::Absorb(pieces));
        }
        let mut step = Step::Fixpoint;
        for reply in self.crew.gather() {
            match reply {
                Some(Reply::Absorbed(Step::Falsified)) => return Ok(Step::Falsified),
                Some(Reply::Absorbed(Step::Grew)) => step = Step::Grew,
                Some(Reply::Absorbed(Step::Fixpoint)) => {}
                _ => ok = false,
            }
        }
        if ok {
            Ok(step)
        } else {
            Err(Fail::Worker)
        }
    }

    fn checkpoint(&mut self) -> Option<Vec<CheckpointPiece>> {
        self.crew.broadcast(|| Cmd::Checkpoint);
        let mut pieces = Vec::new();
        for reply in self.crew.gather() {
            match reply {
                Some(Reply::Checkpointed(p)) => pieces.extend(p),
                _ => return None,
            }
        }
        Some(pieces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::{Aig, Lit};
    use crate::bdd_engine::{bdd_umc, bdd_umc_session};

    fn counter_with_bad(bits: u32, bad_at: u64) -> Aig {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        let hit: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, (_, q))| if bad_at >> i & 1 == 1 { *q } else { !*q })
            .collect();
        let bad = g.and_many(hit);
        g.add_bad("hit", bad);
        g
    }

    #[test]
    fn pobdd_agrees_with_monolithic_on_depth() {
        for bad_at in [1u64, 6, 11] {
            let g = counter_with_bad(4, bad_at);
            let mut s1 = CheckStats::default();
            let mut s2 = CheckStats::default();
            let mono = bdd_umc(&g, 1 << 20, 1000, &mut s1);
            let part = pobdd_reach(&g, 2, 1, 1 << 20, 1000, &mut s2);
            assert_eq!(mono, part, "bad_at={bad_at}");
            assert_eq!(s1.iterations, s2.iterations, "bad_at={bad_at}");
        }
    }

    #[test]
    fn threaded_pobdd_matches_serial_verdicts() {
        for bad_at in [0u64, 5, 9, 14] {
            let g = counter_with_bad(4, bad_at);
            let mut serial = CheckStats::default();
            let base = pobdd_reach(&g, 2, 1, 1 << 20, 1000, &mut serial);
            for workers in [2usize, 3, 4, 0] {
                let mut stats = CheckStats::default();
                let got = pobdd_reach(&g, 2, workers, 1 << 20, 1000, &mut stats);
                assert_eq!(base, got, "bad_at={bad_at} workers={workers}");
                assert_eq!(
                    serial.iterations, stats.iterations,
                    "iteration counts must agree at bad_at={bad_at} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn threaded_pobdd_records_per_worker_stats() {
        let g = counter_with_bad(4, 9);
        let mut stats = CheckStats::default();
        let outcome = pobdd_reach(&g, 2, 2, 1 << 20, 1000, &mut stats);
        assert_eq!(outcome, BddEngineOutcome::FalsifiedAtDepth(9));
        assert_eq!(stats.worker_bdd.len(), 2, "one entry per worker");
        for (i, ws) in stats.worker_bdd.iter().enumerate() {
            assert!(ws.peak_live_nodes > 0, "worker {i} must report a peak");
            assert!(ws.allocated > 0, "worker {i} must report allocations");
            assert!(!ws.quota_hit);
            assert!(stats.bdd_nodes >= ws.peak_live_nodes);
        }
        assert_eq!(
            stats.bdd_allocated,
            stats.worker_bdd.iter().map(|w| w.allocated).sum::<u64>()
        );
    }

    #[test]
    fn pobdd_proves_unreachable() {
        let mut g2 = Aig::new();
        // Counter + stuck latch bad.
        let qs: Vec<_> = (0..4).map(|i| g2.latch(format!("c{i}"), false)).collect();
        let mut carry = Lit::TRUE;
        for (id, q) in &qs {
            let next = g2.xor(*q, carry);
            carry = g2.and(*q, carry);
            g2.set_next(*id, next);
        }
        let (l2, s2) = g2.latch("stuck", false);
        g2.set_next(l2, s2);
        g2.add_bad("never", s2);
        for workers in [1usize, 2] {
            let mut stats = CheckStats::default();
            assert_eq!(
                pobdd_reach(&g2, 2, workers, 1 << 20, 1000, &mut stats),
                BddEngineOutcome::Proved,
                "workers={workers}"
            );
        }
    }

    /// Regression: `pobdd_reach` returned early on a quota-exhausted
    /// `TransitionSystem::build` without recording peak `bdd_nodes`, so
    /// Table 2/3 stats showed 0 nodes for exactly the runs that hit the
    /// quota hardest.
    #[test]
    fn quota_exhausted_build_records_stats() {
        let g = counter_with_bad(16, (1 << 16) - 1);
        for workers in [1usize, 2] {
            let mut stats = CheckStats::default();
            assert_eq!(
                pobdd_reach(&g, 2, workers, 300, 1 << 20, &mut stats),
                BddEngineOutcome::ResourceOut,
                "workers={workers}"
            );
            assert!(stats.bdd_nodes > 0, "failure path must record peak live nodes");
            assert!(stats.bdd_allocated > 0);
            assert!(stats.bdd_quota_hits >= 1);
            assert!(stats.worker_bdd.iter().any(|w| w.quota_hit));
        }
    }

    #[test]
    fn window_count_exceeding_latches_is_clamped() {
        let g = counter_with_bad(2, 3);
        let mut stats = CheckStats::default();
        // 6 window vars requested, only 2 latches exist.
        assert_eq!(
            pobdd_reach(&g, 6, 1, 1 << 20, 1000, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(3)
        );
    }

    /// Regression: `choose_split_vars` used to pad the split with
    /// variables that occur in zero clusters whenever `window_vars`
    /// exceeded the number of entangled variables — each useless split
    /// variable doubled the window count (and now the thread fan-out)
    /// with zero reached-set-size benefit.
    #[test]
    fn zero_occurrence_vars_are_not_split_on() {
        // Latch a loads an input (its current var occurs in no cluster);
        // latch b toggles against another input. Only b's current var is
        // entangled, so a 2-var split request must clamp to 1 variable
        // (2 windows, not 4).
        let mut g = Aig::new();
        let i1 = g.input("i1");
        let i2 = g.input("i2");
        let (la, _qa) = g.latch("a", false);
        g.set_next(la, i1);
        let (lb, qb) = g.latch("b", false);
        let nb = g.xor(qb, i2);
        g.set_next(lb, nb);
        g.add_bad("b_high", qb);
        let ts = TransitionSystem::build(&g, 1 << 16).unwrap();
        let split = choose_split_vars(&ts, 2);
        assert_eq!(split, vec![2], "only latch b's current var is entangled");
        // And the engine still concludes correctly with the clamp.
        let mut stats = CheckStats::default();
        assert_eq!(
            pobdd_reach(&g, 2, 1, 1 << 20, 100, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(1)
        );
    }

    /// Maximal-period 16-bit Fibonacci LFSR (taps 16,14,13,11), seeded
    /// with a single one bit. Its reached set after d rounds is d
    /// pseudo-random states whose BDD grows with d, so the **live**
    /// working set genuinely outgrows a tight quota mid-run — unlike a
    /// counter, whose reached set stays small and sails through under
    /// garbage collection.
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
        // Bad: the all-zero state, unreachable from a nonzero seed.
        let nz: Vec<_> = qs.iter().map(|(_, q)| !*q).collect();
        let bad = g.and_many(nz);
        g.add_bad("zero", bad);
        g
    }

    /// The LPT bin-pack itself: heaviest window first, always onto the
    /// least-loaded worker, deterministic tie-breaks (lower window
    /// index sorts first, lower worker id wins load ties).
    #[test]
    fn lpt_assignment_balances_skewed_costs() {
        // One dominant window: it gets a worker to itself, the three
        // small ones share the other — round-robin would have paired
        // the giant with a small one and idled half of worker 1.
        assert_eq!(assign_windows_lpt(&[10, 1, 1, 1], 2), vec![0, 1, 1, 1]);
        // Two heavies split across workers, lighter ones balance.
        assert_eq!(assign_windows_lpt(&[8, 7, 3, 2], 2), vec![0, 1, 1, 0]);
        // Uniform costs degenerate to round-robin-like fairness: every
        // worker gets two of the four windows.
        let owner = assign_windows_lpt(&[5, 5, 5, 5], 2);
        assert_eq!(owner.iter().filter(|&&w| w == 0).count(), 2);
        assert_eq!(owner.iter().filter(|&&w| w == 1).count(), 2);
        // With positive costs and nparts >= workers, nobody idles.
        let owner = assign_windows_lpt(&[9, 1, 1, 1, 1, 1, 1, 1], 3);
        for wid in 0..3 {
            assert!(owner.contains(&wid), "worker {wid} must own a window");
        }
        // Determinism: same input, same output.
        assert_eq!(assign_windows_lpt(&[8, 7, 3, 2], 2), assign_windows_lpt(&[8, 7, 3, 2], 2));
    }

    /// Window costs come from the pure-read restricted-size walk and
    /// must be positive and deterministic.
    #[test]
    fn window_costs_are_positive_and_deterministic() {
        let g = counter_with_bad(4, 9);
        let ts = TransitionSystem::build(&g, 1 << 16).unwrap();
        let split = choose_split_vars(&ts, 2);
        let nparts = 1 << split.len();
        let c1 = window_costs(&ts, &split, nparts);
        let c2 = window_costs(&ts, &split, nparts);
        assert_eq!(c1, c2);
        assert_eq!(c1.len(), nparts);
        assert!(c1.iter().all(|&c| c > 0), "every window keeps at least the terminals: {c1:?}");
    }

    /// The load-balancing regression pin: with the LPT assignment the
    /// threaded engine still reports verdicts, depths and iteration
    /// counts identical to serial on a design with deliberately skewed
    /// windows (an LFSR's windows differ in reached-set growth), for
    /// every worker count.
    #[test]
    fn lpt_threaded_engine_stays_serial_identical() {
        let g = lfsr16();
        let mut serial = CheckStats::default();
        let base = pobdd_reach(&g, 2, 1, 1 << 20, 40, &mut serial);
        for workers in [2usize, 3, 4] {
            let mut stats = CheckStats::default();
            let got = pobdd_reach(&g, 2, workers, 1 << 20, 40, &mut stats);
            assert_eq!(base, got, "workers={workers}");
            assert_eq!(serial.iterations, stats.iterations, "workers={workers}");
        }
    }

    /// Kill-at-round-k → resume equality for the POBDD engine, serial
    /// and threaded: the resumed run must reach the identical outcome,
    /// falsification depth and completed-round count, and a checkpoint
    /// taken under one worker layout must resume under another.
    #[test]
    fn suspended_pobdd_resumes_identically() {
        use crate::engine::Budget;
        let g = counter_with_bad(5, 19);
        let mut full = CheckStats::default();
        let uninterrupted = pobdd_reach(&g, 2, 1, 1 << 20, 1000, &mut full);
        assert_eq!(uninterrupted, BddEngineOutcome::FalsifiedAtDepth(19));
        assert_eq!(full.iterations, 19);

        for (kill_workers, resume_workers) in [(1usize, 1usize), (2, 2), (1, 3), (2, 1)] {
            let mut s1 = CheckStats::default();
            let mut budget = Budget::rounds(7);
            let opts = |workers| CheckOptions {
                pobdd_window_vars: 2,
                pobdd_workers: workers,
                bdd_nodes: 1 << 20,
                max_iterations: 1000,
                ..CheckOptions::default()
            };
            let suspended =
                pobdd_reach_session(&g, &opts(kill_workers), &mut s1, &mut budget, None);
            let ck = match suspended {
                BddEngineOutcome::Suspended(ck) => ck,
                other => panic!("7 rounds must suspend, got {other:?}"),
            };
            assert_eq!(ck.depth, 7, "kill_workers={kill_workers}");
            assert_eq!(ck.reached.len(), 4, "2 window vars -> 4 windows");
            let mut s2 = CheckStats::default();
            let resumed = pobdd_reach_session(
                &g,
                &opts(resume_workers),
                &mut s2,
                &mut Budget::unlimited(),
                Some(&ck),
            );
            assert_eq!(
                resumed, uninterrupted,
                "kill={kill_workers} resume={resume_workers}"
            );
            assert_eq!(
                s2.iterations, full.iterations,
                "completed-round count must survive the kill (kill={kill_workers} resume={resume_workers})"
            );
        }
    }

    /// Regression for the cross-engine iteration-count off-by-one:
    /// `bdd_umc` used to set `stats.iterations` only after a round's
    /// image succeeded while `pobdd_reach` set it at the round's
    /// *start*, so a quota failure during the image at depth d reported
    /// d-1 from one engine and d from the other in Tables 2/3. With
    /// zero split variables the partitioned engine degenerates to the
    /// monolithic algorithm (one TRUE window, identical op sequence),
    /// so both engines fail at the same point and must report the same
    /// completed-round count.
    #[test]
    fn iteration_counts_agree_between_engines_on_quota_failure() {
        let g = lfsr16();
        for quota in [1500usize, 2000] {
            let mut s1 = CheckStats::default();
            let mut s2 = CheckStats::default();
            let mono = bdd_umc(&g, quota, 1 << 20, &mut s1);
            let part = pobdd_reach(&g, 0, 1, quota, 1 << 20, &mut s2);
            assert_eq!(mono, BddEngineOutcome::ResourceOut, "quota={quota}");
            assert_eq!(part, BddEngineOutcome::ResourceOut, "quota={quota}");
            assert!(s1.iterations > 0, "failure must be mid-run, not at build");
            assert_eq!(
                s1.iterations, s2.iterations,
                "engines must count completed rounds identically at quota={quota}"
            );
        }
    }

    /// Serial accounting pin: exact outcome, completed rounds, peak live
    /// nodes, allocations, quota hits and worker-entry count of the
    /// serial engines — `bdd_umc` and `pobdd_reach(.., workers = 1)` at
    /// 0 and 2 window variables — on one run that exhausts the quota
    /// and one that stays within it, per design. Every value is a
    /// function of the manager's op sequence, so this fails on any
    /// change to the serial engines' order of BDD operations, root
    /// registrations or accounting. The values are natural-order
    /// figures, so the runs set `static_order` off explicitly.
    #[test]
    fn serial_engine_accounting_is_pinned() {
        type Pin = (BddEngineOutcome, usize, usize, u64, usize, usize);
        let ro = BddEngineOutcome::ResourceOut;
        let fa = BddEngineOutcome::FalsifiedAtDepth;
        // (design, quota, max_iterations, [bdd_umc, pobdd wv=0, pobdd wv=2])
        let cases: [(&str, Aig, usize, usize, [Pin; 3]); 4] = [
            // Quota death mid-run, hundreds of rounds in.
            (
                "lfsr16",
                lfsr16(),
                1500,
                1 << 20,
                [
                    (ro.clone(), 577, 1500, 19689, 1, 0),
                    (ro.clone(), 577, 1500, 19689, 1, 1),
                    (ro.clone(), 565, 1500, 19311, 1, 1),
                ],
            ),
            // Within quota, stopped by the round limit.
            (
                "lfsr16",
                lfsr16(),
                1 << 20,
                40,
                [
                    (ro.clone(), 40, 2584, 2583, 0, 0),
                    (ro.clone(), 40, 2584, 2583, 0, 1),
                    (ro.clone(), 40, 2582, 2581, 0, 1),
                ],
            ),
            // Quota death while building the transition system.
            (
                "counter_with_bad",
                counter_with_bad(12, 3000),
                470,
                1 << 20,
                [
                    (ro.clone(), 0, 470, 663, 1, 0),
                    (ro.clone(), 0, 470, 663, 1, 1),
                    (ro.clone(), 0, 470, 663, 1, 1),
                ],
            ),
            // Concludes under a quota only garbage collection makes fit.
            (
                "counter_with_bad",
                counter_with_bad(12, 3000),
                510,
                1 << 20,
                [
                    (fa(3000), 3000, 510, 16009, 0, 0),
                    (fa(3000), 3000, 510, 16009, 0, 1),
                    (fa(3000), 3000, 510, 18260, 0, 1),
                ],
            ),
        ];
        for (name, g, quota, max_iterations, pins) in &cases {
            for (engine, pin) in pins.iter().enumerate() {
                let mut s = CheckStats::default();
                let opts = |window_vars| {
                    CheckOptions::builder()
                        .bdd_nodes(*quota)
                        .max_iterations(*max_iterations)
                        .pobdd_window_vars(window_vars)
                        .static_order(false)
                        .build()
                };
                let unlimited = &mut Budget::unlimited();
                let outcome = match engine {
                    0 => bdd_umc_session(g, &opts(0), &mut s, unlimited, None),
                    1 => pobdd_reach_session(g, &opts(0), &mut s, unlimited, None),
                    _ => pobdd_reach_session(g, &opts(2), &mut s, unlimited, None),
                };
                let got = (
                    outcome,
                    s.iterations,
                    s.bdd_nodes,
                    s.bdd_allocated,
                    s.bdd_quota_hits,
                    s.worker_bdd.len(),
                );
                assert_eq!(&got, pin, "{name} quota={quota} engine={engine}");
            }
        }
    }
}
