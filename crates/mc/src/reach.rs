//! The window-partitioned reachability kernel both BDD engines run on,
//! and the worker harness that fans kernels and image lanes out across
//! threads.
//!
//! A [`Kernel`] owns a private [`TransitionSystem`], the window cubes
//! over a set of splitting variables, and a reached/frontier pair for
//! each window it owns. The engines are cases of it:
//!
//! * **Monolithic BDD UMC** — one kernel over an empty split (a single
//!   `TRUE` window), run in the calling thread.
//! * **Lane-parallel image** — the same kernel with its image step
//!   replaced by a fan-out over image lanes (see
//!   `bdd_engine::LaneImage`).
//! * **Serial POBDD** — one kernel owning every window, run in the
//!   calling thread.
//! * **Threaded POBDD** — one kernel per worker thread, each owning the
//!   windows the shared longest-processing-time assignment gives it.
//!
//! A round is two halves. [`Kernel::images`] images every owned
//! frontier and cuts the image by every window: pieces for owned
//! windows are absorbed on the spot in source-major order, the rest are
//! exported for their owners. [`Kernel::absorb`] takes the imported
//! pieces in `(dst, src)` order and promotes the round's fresh states
//! to the frontier. A kernel that owns every window never exports, so
//! its round is the classic serial fixpoint step.
//!
//! [`Setup::run_rounds`] is the one round loop: budget ticks, yield and
//! suspend (through [`Rounds::checkpoint`]), completed-round counting
//! and the Proved / Falsified / ResourceOut decision. [`run_crew`] is
//! the one worker-thread harness: scoped spawn, fixed-count barrier,
//! panic guard with drain, and the fold of per-manager accounting into
//! [`CheckStats::worker_bdd`].

use crate::bdd_engine::{
    arm_dynamic_reorder, static_bdd_order, BddEngineOutcome, TransitionSystem,
};
use crate::checkpoint::ReachCheckpoint;
use crate::engine::Budget;
use crate::pobdd::{assign_windows_lpt, window_costs};
use crate::{BddWorkerStats, CheckOptions, CheckStats};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use veridic_aig::Aig;
use veridic_bdd::transfer::{self, DeltaBdd, ExportedBdd};
use veridic_bdd::{BddManager, NodeId, OutOfNodes};

/// An image piece bound for a window another kernel owns:
/// `(dst, src, piece)` — the image of window `src` cut by window `dst`.
pub(crate) type RemotePiece = (usize, usize, ExportedBdd);

/// One window's checkpoint export: `(window, reached, frontier)`, the
/// frontier delta-encoded against the same window's reached export.
pub(crate) type CheckpointPiece = (usize, ExportedBdd, DeltaBdd);

/// A kernel's image step: the states reachable in one constrained step
/// from a frontier, in the kernel's manager.
pub(crate) type ImageFn<'a> = dyn FnMut(&mut TransitionSystem, NodeId) -> Result<NodeId, Fail> + 'a;

/// Why a round could not complete.
#[derive(Debug)]
pub(crate) enum Fail {
    /// The calling thread's manager ran out of nodes.
    Quota,
    /// A worker's manager did; the worker's own accounting records it.
    Worker,
}

impl From<OutOfNodes> for Fail {
    fn from(_: OutOfNodes) -> Self {
        Fail::Quota
    }
}

/// What a completed round found.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    /// New states were reached.
    Grew,
    /// Nothing new: the reached sets are a fixpoint.
    Fixpoint,
    /// Newly reached states intersect bad.
    Falsified,
}

/// The serial image step: [`TransitionSystem::image`] in the kernel's
/// own manager.
pub(crate) fn serial_image(ts: &mut TransitionSystem, s: NodeId) -> Result<NodeId, Fail> {
    Ok(ts.image(s)?)
}

/// One manager's accounting as a [`BddWorkerStats`] entry.
pub(crate) fn accounting(mgr: &BddManager, quota_hit: bool) -> BddWorkerStats {
    let (reorders, reorder_nodes_before, reorder_nodes_after) = mgr.reorder_stats();
    BddWorkerStats {
        peak_live_nodes: mgr.peak_live_nodes(),
        allocated: mgr.total_allocated(),
        quota_hit,
        reorders,
        reorder_nodes_before,
        reorder_nodes_after,
    }
}

/// Folds one manager's accounting into the check's aggregate
/// statistics.
pub(crate) fn fold(stats: &mut CheckStats, ws: &BddWorkerStats) {
    stats.bdd_nodes = stats.bdd_nodes.max(ws.peak_live_nodes);
    stats.bdd_allocated += ws.allocated;
    stats.bdd_quota_hits += usize::from(ws.quota_hit);
    stats.reorders += ws.reorders;
    stats.reorder_nodes_before += ws.reorder_nodes_before;
    stats.reorder_nodes_after += ws.reorder_nodes_after;
}

/// Window `w`'s cube: bit `i` of `w` fixes the polarity of `split[i]`.
/// The cube carries one root registration (none for the `TRUE` cube of
/// an empty split, which as a terminal needs none).
pub(crate) fn window_cube(
    mgr: &mut BddManager,
    split: &[u32],
    w: usize,
) -> Result<NodeId, OutOfNodes> {
    let mut cube = NodeId::TRUE;
    for (bit, var) in split.iter().enumerate() {
        let lit = if w >> bit & 1 == 1 { mgr.var(*var)? } else { mgr.nvar(*var)? };
        let c = mgr.and(cube, lit)?;
        mgr.reroot(cube, c);
        cube = c;
    }
    Ok(cube)
}

/// `s` restricted to `window`; the `TRUE` window of an unsplit kernel
/// costs no operation at all.
fn cut(mgr: &mut BddManager, s: NodeId, window: NodeId) -> Result<NodeId, OutOfNodes> {
    if window == NodeId::TRUE {
        Ok(s)
    } else {
        mgr.and(s, window)
    }
}

/// Everything a session's kernels and lanes are built from, resolved
/// once from the [`CheckOptions`] and shared read-only with every
/// worker thread.
pub(crate) struct Setup<'a> {
    aig: &'a Aig,
    pub node_quota: usize,
    max_iterations: usize,
    /// Window variables the session asked for; labels its checkpoints.
    window_vars: u32,
    pub resume: Option<&'a ReachCheckpoint>,
    dynamic_reorder: bool,
    /// The FORCE static order every manager is seeded with, if enabled.
    order: Option<Vec<u32>>,
}

impl<'a> Setup<'a> {
    /// Resolves the session options. With
    /// [`CheckOptions::static_order`] on, the FORCE order is computed
    /// once here and its spans recorded; with it off no extra call of
    /// any kind is made.
    ///
    /// # Panics
    ///
    /// If `resume` was taken under a different window split.
    pub fn new(
        aig: &'a Aig,
        opts: &CheckOptions,
        window_vars: u32,
        resume: Option<&'a ReachCheckpoint>,
        stats: &mut CheckStats,
    ) -> Self {
        if let Some(ck) = resume {
            assert_eq!(
                ck.window_vars, window_vars,
                "resumed with a checkpoint from a different window split"
            );
        }
        let order = opts.static_order.then(|| {
            let so = static_bdd_order(aig);
            stats.static_order_span_before = so.span_before;
            stats.static_order_span_after = so.span_after;
            so.order
        });
        Setup {
            aig,
            node_quota: opts.bdd_nodes,
            max_iterations: opts.max_iterations,
            window_vars,
            resume,
            dynamic_reorder: opts.dynamic_reorder,
            order,
        }
    }

    /// Builds one private transition system (without dynamic
    /// reordering; see [`Setup::arm`]). On quota exhaustion returns the
    /// failed build's accounting.
    pub fn system(&self) -> Result<TransitionSystem, BddWorkerStats> {
        TransitionSystem::build_with_order(self.aig, self.node_quota, self.order.as_deref())
            .map_err(|e| BddWorkerStats {
                peak_live_nodes: e.peak_live_nodes,
                allocated: e.total_allocated,
                quota_hit: true,
                ..Default::default()
            })
    }

    /// Arms dynamic reordering on `ts` if the session asked for it.
    pub fn arm(&self, ts: &mut TransitionSystem) {
        if self.dynamic_reorder {
            let n = ts.num_latches();
            arm_dynamic_reorder(&mut ts.mgr, n, self.node_quota);
        }
    }

    /// Builds and arms the kernel of worker `me` out of `workers` over
    /// the session's window split. Every worker derives the identical
    /// split, costs and assignment from its identically built
    /// transition system — no coordination needed.
    pub fn window_kernel(&self, workers: usize, me: usize) -> Result<Kernel, BddWorkerStats> {
        let mut ts = self.system()?;
        self.arm(&mut ts);
        let split = crate::pobdd::choose_split_vars(&ts, self.window_vars);
        Ok(Kernel::new(ts, split, workers, me))
    }

    /// Starts `kernel` and runs it to a conclusion in the calling
    /// thread with `image` as its image step.
    pub fn run_local(
        &self,
        kernel: &mut Kernel,
        stats: &mut CheckStats,
        budget: &mut Budget,
        image: &mut ImageFn<'_>,
    ) -> Result<BddEngineOutcome, Fail> {
        if kernel.start(self.resume)? {
            return Ok(BddEngineOutcome::FalsifiedAtDepth(0));
        }
        self.run_rounds(&mut Local { kernel, image }, stats, budget)
    }

    /// The round loop. One budget round is consumed per reachability
    /// round; when the budget trips between rounds the run yields (the
    /// scheduler discards its state, so nothing is exported) or
    /// suspends with every window's reached/frontier export.
    ///
    /// `stats.iterations` counts *completed* rounds: a round that
    /// concludes the check (fixpoint or falsification) counts, a round
    /// aborted by a quota failure does not, so a quota failure during
    /// the depth-d image reports d-1 from every engine. A resumed run
    /// continues at round `depth + 1` of its checkpoint.
    pub fn run_rounds(
        &self,
        rounds: &mut dyn Rounds,
        stats: &mut CheckStats,
        budget: &mut Budget,
    ) -> Result<BddEngineOutcome, Fail> {
        let start = self.resume.map_or(0, |ck| ck.depth);
        for depth in start + 1..=self.max_iterations {
            if !budget.tick() {
                if !budget.checkpoint_worthwhile() {
                    return Ok(BddEngineOutcome::Yielded);
                }
                // A worker that cannot export (it died on a quota
                // failure) degrades the run to resource-out: a partial
                // checkpoint would resume unsoundly.
                let Some(mut pieces) = rounds.checkpoint() else {
                    return Ok(BddEngineOutcome::ResourceOut);
                };
                pieces.sort_unstable_by_key(|(w, _, _)| *w);
                let (reached, frontier) = pieces.into_iter().map(|(_, r, f)| (r, f)).unzip();
                return Ok(BddEngineOutcome::Suspended(ReachCheckpoint {
                    depth: depth - 1,
                    reached,
                    frontier,
                    window_vars: self.window_vars,
                }));
            }
            let step = rounds.round()?;
            stats.iterations = depth;
            match step {
                Step::Grew => {}
                Step::Fixpoint => return Ok(BddEngineOutcome::Proved),
                Step::Falsified => return Ok(BddEngineOutcome::FalsifiedAtDepth(depth)),
            }
        }
        Ok(BddEngineOutcome::ResourceOut)
    }
}

/// One window-partitioned reachability kernel.
pub(crate) struct Kernel {
    /// The kernel's private transition system and manager.
    pub ts: TransitionSystem,
    split: Vec<u32>,
    /// Every window cube (any kernel can cut an image by any window).
    windows: Vec<NodeId>,
    /// Window → owning kernel, identical across a session's kernels.
    pub owner: Vec<usize>,
    /// The windows this kernel owns, ascending.
    owned: Vec<usize>,
    me: usize,
    reached: Vec<NodeId>,
    frontier: Vec<NodeId>,
    /// States first reached this round, per window: the next frontier.
    fresh: Vec<NodeId>,
    any_new: bool,
}

impl Kernel {
    /// Kernel `me` of `workers` over `ts`, cut by `split`. One worker
    /// owns every window; several share them by a longest-processing-
    /// time bin-pack over the windows' estimated image cost.
    pub fn new(ts: TransitionSystem, split: Vec<u32>, workers: usize, me: usize) -> Kernel {
        let nparts = 1usize << split.len();
        let owner = if workers == 1 {
            vec![0; nparts]
        } else {
            assign_windows_lpt(&window_costs(&ts, &split, nparts), workers)
        };
        let owned = (0..nparts).filter(|&w| owner[w] == me).collect();
        Kernel {
            ts,
            split,
            windows: Vec::with_capacity(nparts),
            owner,
            owned,
            me,
            reached: vec![NodeId::FALSE; nparts],
            frontier: vec![NodeId::FALSE; nparts],
            fresh: vec![NodeId::FALSE; nparts],
            any_new: false,
        }
    }

    /// Builds the window cubes and seeds the owned windows, from the
    /// initial states or from `resume` (the frontier through the delta
    /// path, against its paired reached export). Each slot owns one
    /// root registration. `Ok(true)` means bad intersects an owned
    /// window's initial states; a resumed run's depth-0 check already
    /// happened in the original session.
    ///
    /// # Panics
    ///
    /// If `resume` has a different window count than the re-derived
    /// split.
    pub fn start(&mut self, resume: Option<&ReachCheckpoint>) -> Result<bool, OutOfNodes> {
        let nparts = self.owner.len();
        for w in 0..nparts {
            let cube = window_cube(&mut self.ts.mgr, &self.split, w)?;
            self.windows.push(cube);
        }
        if let Some(ck) = resume {
            assert_eq!(
                ck.reached.len(),
                nparts,
                "checkpoint window count must match the re-derived split"
            );
            for &w in &self.owned {
                // Imports arrive rooted: exactly the slot's registration.
                self.reached[w] = transfer::import(&ck.reached[w], &mut self.ts.mgr)?;
                self.frontier[w] =
                    transfer::import_delta(&ck.frontier[w], &ck.reached[w], &mut self.ts.mgr)?;
            }
            return Ok(false);
        }
        for &w in &self.owned {
            let part = cut(&mut self.ts.mgr, self.ts.init, self.windows[w])?;
            self.ts.mgr.protect(part); // reached slot
            self.ts.mgr.protect(part); // frontier slot
            self.reached[w] = part;
            self.frontier[w] = part;
            if part != NodeId::FALSE && self.ts.intersects_bad(part) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// First half of a round: images every owned frontier through
    /// `image` and cuts it by every window. Pieces for owned windows
    /// are absorbed on the spot; pieces for other kernels' windows are
    /// exported into `remote` before any further allocation could
    /// collect them. `Ok(true)` means an absorbed piece hit bad.
    pub fn images(
        &mut self,
        image: &mut ImageFn<'_>,
        remote: &mut Vec<RemotePiece>,
    ) -> Result<bool, Fail> {
        // With one window the image is consumed by the next operation;
        // with several it is held across the whole window loop.
        let hold = self.windows.len() > 1;
        for i in 0..self.owned.len() {
            let src = self.owned[i];
            let fr = self.frontier[src];
            if fr == NodeId::FALSE {
                continue;
            }
            let img = image(&mut self.ts, fr)?;
            if hold {
                self.ts.mgr.protect(img);
            }
            for dst in 0..self.windows.len() {
                let part = cut(&mut self.ts.mgr, img, self.windows[dst])?;
                if part == NodeId::FALSE {
                    continue;
                }
                if self.owner[dst] != self.me {
                    remote.push((dst, src, transfer::export(&self.ts.mgr, part)));
                } else if self.absorb_piece(dst, part)? {
                    return Ok(true);
                }
            }
            if hold {
                self.ts.mgr.unprotect(img);
            }
        }
        Ok(false)
    }

    /// Second half of a round: absorbs the imported pieces (sorted by
    /// `(dst, src)`, so allocation order is schedule-independent), then
    /// promotes the round's fresh states to the frontier.
    pub fn absorb(&mut self, remote: &[RemotePiece]) -> Result<Step, OutOfNodes> {
        for (dst, _, piece) in remote {
            let part = transfer::import(piece, &mut self.ts.mgr)?; // arrives rooted
            let hit = self.absorb_piece(*dst, part)?;
            self.ts.mgr.unprotect(part);
            if hit {
                return Ok(Step::Falsified);
            }
        }
        for &w in &self.owned {
            self.ts.mgr.unprotect(self.frontier[w]);
            self.frontier[w] = std::mem::replace(&mut self.fresh[w], NodeId::FALSE);
        }
        Ok(if std::mem::take(&mut self.any_new) { Step::Grew } else { Step::Fixpoint })
    }

    /// Merges one piece into window `dst`'s reached set and this
    /// round's fresh states; `Ok(true)` if its fresh states hit bad.
    fn absorb_piece(&mut self, dst: usize, part: NodeId) -> Result<bool, OutOfNodes> {
        let fresh = self.ts.mgr.and_not(part, self.reached[dst])?;
        if fresh == NodeId::FALSE {
            return Ok(false);
        }
        if self.ts.intersects_bad(fresh) {
            return Ok(true);
        }
        let mgr = &mut self.ts.mgr;
        let r = mgr.or(self.reached[dst], fresh)?;
        mgr.reroot(self.reached[dst], r);
        self.reached[dst] = r;
        let acc = self.fresh[dst];
        let nf = if acc == NodeId::FALSE { fresh } else { mgr.or(acc, fresh)? };
        mgr.reroot(acc, nf);
        self.fresh[dst] = nf;
        self.any_new = true;
        Ok(false)
    }

    /// Exports the owned windows' reached/frontier sets for a
    /// [`ReachCheckpoint`]. Pure read: allocates nothing, cannot fail.
    pub fn checkpoint(&self) -> Vec<CheckpointPiece> {
        self.owned
            .iter()
            .map(|&w| {
                let reached = transfer::export(&self.ts.mgr, self.reached[w]);
                let frontier = transfer::export_delta(&self.ts.mgr, self.frontier[w], &reached);
                (w, reached, frontier)
            })
            .collect()
    }

    /// Folds this kernel's manager accounting into `stats` and maps the
    /// round loop's result to an outcome. Returns the accounting entry
    /// for callers that list it in [`CheckStats::worker_bdd`].
    pub fn finish(
        &self,
        stats: &mut CheckStats,
        run: Result<BddEngineOutcome, Fail>,
    ) -> (BddEngineOutcome, BddWorkerStats) {
        let ws = accounting(&self.ts.mgr, matches!(run, Err(Fail::Quota)));
        fold(stats, &ws);
        (run.unwrap_or(BddEngineOutcome::ResourceOut), ws)
    }
}

/// How a session advances its reachability rounds.
pub(crate) trait Rounds {
    /// Runs one globally synchronous round.
    fn round(&mut self) -> Result<Step, Fail>;
    /// Exports every window, or `None` if some worker cannot.
    fn checkpoint(&mut self) -> Option<Vec<CheckpointPiece>>;
}

/// One kernel owning every window, run in the calling thread.
struct Local<'k, 'i> {
    kernel: &'k mut Kernel,
    image: &'k mut ImageFn<'i>,
}

impl Rounds for Local<'_, '_> {
    fn round(&mut self) -> Result<Step, Fail> {
        let mut remote = Vec::new();
        if self.kernel.images(self.image, &mut remote)? {
            return Ok(Step::Falsified);
        }
        debug_assert!(remote.is_empty(), "a local kernel owns every window");
        Ok(self.kernel.absorb(&remote)?)
    }

    fn checkpoint(&mut self) -> Option<Vec<CheckpointPiece>> {
        Some(self.kernel.checkpoint())
    }
}

// ---------------------------------------------------------------------
// The worker harness.
// ---------------------------------------------------------------------

/// One worker thread's state: built once, then answers the
/// coordinator's commands until it is told to stop.
pub(crate) trait Worker {
    /// A coordinator command.
    type Cmd: Send;
    /// The answer to one command.
    type Reply: Send;
    /// Answers `cmd`; `None` on a quota failure, which the worker
    /// records in its own accounting.
    fn answer(&mut self, cmd: Self::Cmd) -> Option<Self::Reply>;
    /// Accounting of every manager the worker owns, keyed by a
    /// session-wide index (lane or worker).
    fn accounting(&self) -> Vec<(usize, BddWorkerStats)>;
}

/// What [`run_crew`] builds a worker with: `Ok((worker, first
/// reply))`, or on a quota failure the keyed accounting of every
/// manager the worker managed to build.
pub(crate) type BuildResult<W> = Result<(W, <W as Worker>::Reply), Vec<(usize, BddWorkerStats)>>;

/// The coordinator's end of a running crew.
pub(crate) struct Crew<C, R> {
    to: Vec<Sender<Option<C>>>,
    from: Receiver<(usize, Option<R>)>,
}

impl<C, R> Crew<C, R> {
    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.to.len()
    }

    /// Sends `cmd` to worker `tid`.
    pub fn send(&self, tid: usize, cmd: C) {
        let _ = self.to[tid].send(Some(cmd));
    }

    /// Sends a fresh `cmd()` to every worker.
    pub fn broadcast(&self, cmd: impl Fn() -> C) {
        for tx in &self.to {
            let _ = tx.send(Some(cmd()));
        }
    }

    /// The fixed-count barrier: exactly one reply per worker, indexed
    /// by worker; `None` marks a worker that failed this phase or an
    /// earlier one.
    pub fn gather(&self) -> Vec<Option<R>> {
        let mut replies: Vec<Option<R>> = (0..self.to.len()).map(|_| None).collect();
        for _ in 0..self.to.len() {
            let (tid, reply) = self.from.recv().expect("BDD worker hung up"); // lint: allow
            replies[tid] = reply;
        }
        replies
    }
}

/// Runs `threads` workers built by `build` under `drive`, which gets
/// the crew and the build barrier's replies. Afterwards every worker
/// manager's accounting is folded into `stats`, and
/// [`CheckStats::worker_bdd`] is replaced by one entry per manager in
/// key order.
pub(crate) fn run_crew<W: Worker, T>(
    threads: usize,
    build: impl Fn(usize) -> BuildResult<W> + Sync,
    stats: &mut CheckStats,
    drive: impl FnOnce(&Crew<W::Cmd, W::Reply>, Vec<Option<W::Reply>>, &mut CheckStats) -> T,
) -> T {
    let (up, from) = channel();
    let (outcome, mut managers) = std::thread::scope(|s| {
        let mut to = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for tid in 0..threads {
            let (tx, rx) = channel();
            to.push(tx);
            let (up, build) = (up.clone(), &build);
            handles.push(s.spawn(move || serve(tid, build, &rx, &up)));
        }
        // Only the workers hold senders now: if every worker died, the
        // coordinator's recv errors out instead of blocking forever.
        drop(up);
        let crew = Crew { to, from };
        let built = crew.gather();
        let outcome = drive(&crew, built, stats);
        for tx in &crew.to {
            let _ = tx.send(None);
        }
        let managers: Vec<(usize, BddWorkerStats)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("BDD worker panicked")) // lint: allow
            .collect();
        (outcome, managers)
    });
    managers.sort_unstable_by_key(|(k, _)| *k);
    for (_, ws) in &managers {
        fold(stats, ws);
    }
    stats.worker_bdd = managers.into_iter().map(|(_, ws)| ws).collect();
    outcome
}

/// The one worker-thread loop. Every phase is panic-guarded: a
/// panicking worker would otherwise deadlock the coordinator's
/// fixed-count barrier (its reply never arrives, and the other
/// workers' live senders keep `recv` from erroring out). After a quota
/// failure or a panic the worker answers every command with `None`
/// until told to stop, so no barrier ever blocks on it; a panic is
/// re-raised only then, surfacing through the coordinator's join
/// instead of hanging the check.
fn serve<W: Worker>(
    tid: usize,
    build: &impl Fn(usize) -> BuildResult<W>,
    rx: &Receiver<Option<W::Cmd>>,
    tx: &Sender<(usize, Option<W::Reply>)>,
) -> Vec<(usize, BddWorkerStats)> {
    // `Err` holds a failed build's accounting; the build is phase zero.
    let mut worker: Result<W, Vec<(usize, BddWorkerStats)>> = Err(Vec::new());
    let mut cmd = None;
    let (mut alive, mut panic) = (true, None);
    loop {
        let phase = AssertUnwindSafe(|| match cmd.take() {
            None => match build(tid) {
                Ok((w, reply)) => {
                    worker = Ok(w);
                    Some(reply)
                }
                Err(managers) => {
                    worker = Err(managers);
                    None
                }
            },
            Some(cmd) => worker.as_mut().ok()?.answer(cmd),
        });
        let reply = if alive {
            catch_unwind(phase).unwrap_or_else(|payload| {
                panic = Some(payload);
                None
            })
        } else {
            None
        };
        alive &= reply.is_some();
        let _ = tx.send((tid, reply));
        match rx.recv() {
            Ok(Some(next)) => cmd = Some(next),
            _ => break,
        }
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    worker.map_or_else(|managers| managers, |w| w.accounting())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that echoes commands, fails on `0` and panics on `99`.
    struct Echo {
        tid: usize,
        failed: bool,
    }

    impl Worker for Echo {
        type Cmd = u32;
        type Reply = u32;

        fn answer(&mut self, cmd: u32) -> Option<u32> {
            assert_ne!(cmd, 99, "worker bug");
            self.failed |= cmd == 0;
            (cmd != 0).then_some(cmd + self.tid as u32)
        }

        fn accounting(&self) -> Vec<(usize, BddWorkerStats)> {
            vec![(self.tid, BddWorkerStats { quota_hit: self.failed, ..Default::default() })]
        }
    }

    fn echo(tid: usize) -> BuildResult<Echo> {
        Ok((Echo { tid, failed: false }, 0))
    }

    /// A failed worker answers every later phase with `None` until
    /// stopped, so the barrier keeps its count; accounting comes back in
    /// key order whatever order the threads finish in.
    #[test]
    fn failed_workers_keep_answering_until_stopped() {
        let mut stats = CheckStats::default();
        let replies = run_crew(3, echo, &mut stats, |crew, built, _| {
            assert_eq!(built, vec![Some(0), Some(0), Some(0)]);
            crew.broadcast(|| 10);
            let first = crew.gather();
            crew.send(1, 0);
            crew.send(0, 5);
            crew.send(2, 5);
            let second = crew.gather();
            crew.broadcast(|| 20);
            (first, second, crew.gather())
        });
        assert_eq!(replies.0, vec![Some(10), Some(11), Some(12)]);
        assert_eq!(replies.1, vec![Some(5), None, Some(7)]);
        assert_eq!(replies.2, vec![Some(20), None, Some(22)]);
        let hits: Vec<bool> = stats.worker_bdd.iter().map(|w| w.quota_hit).collect();
        assert_eq!(hits, vec![false, true, false]);
        assert_eq!(stats.bdd_quota_hits, 1);
    }

    /// A failed build answers with `None` from the first barrier on and
    /// reports the accounting it returned.
    #[test]
    fn failed_builds_report_their_accounting() {
        let build = |tid: usize| -> BuildResult<Echo> {
            if tid == 1 {
                return Err(vec![(1, BddWorkerStats { allocated: 7, ..Default::default() })]);
            }
            echo(tid)
        };
        let mut stats = CheckStats::default();
        let replies = run_crew(2, build, &mut stats, |crew, built, _| {
            crew.broadcast(|| 3);
            (built, crew.gather())
        });
        assert_eq!(replies, (vec![Some(0), None], vec![Some(3), None]));
        assert_eq!(stats.bdd_allocated, 7);
        assert_eq!(stats.worker_bdd.len(), 2);
    }

    /// A panicking worker answers `None`, keeps the barrier alive until
    /// stopped, and the panic resurfaces through the coordinator.
    #[test]
    #[should_panic(expected = "BDD worker panicked")]
    fn worker_panics_resurface_after_the_run() {
        let mut stats = CheckStats::default();
        run_crew(2, echo, &mut stats, |crew, _, _| {
            crew.send(0, 99);
            crew.send(1, 1);
            assert_eq!(crew.gather(), vec![None, Some(2)]);
            crew.broadcast(|| 4);
            assert_eq!(crew.gather(), vec![None, Some(5)]);
        });
    }
}
