//! The adaptive engine scheduler for daemon runs.
//!
//! The default portfolio is a fixed cascade: each engine runs to its
//! own limits before the next starts. That is the right default for a
//! single interactive check (and it stays byte-for-byte untouched when
//! the campaign spec's `adaptive` flag is off — daemon workers then
//! call the ordinary [`Portfolio`] cascade), but a campaign daemon
//! holding hundreds of properties can afford to *time-slice*: run every
//! enabled engine a slice of budget rounds, watch which one's progress
//! cursor actually moved, and re-budget the next round toward it.
//!
//! The scheduler is built entirely from the existing suspension
//! machinery — each lane is a single-engine [`Portfolio`] driven
//! through [`Portfolio::check_bad_with_budget`] /
//! [`Portfolio::resume_bad_with_budget`], so a lane's in-flight state
//! is an ordinary [`RunCheckpoint`] and the whole scheduler state
//! ([`AdaptiveCheckpoint`]) persists through
//! [`crate::codec::CheckpointFile`] like any other checkpoint.
//!
//! Determinism: one [`AdaptiveScheduler::step`] call runs exactly one
//! lane slice, and every input to the grant computation (per-lane
//! progress cursors, the round cursor, granted budgets) lives inside
//! the checkpoint. A run killed after slice *n* and resumed replays
//! slice *n + 1* with the same grants the uninterrupted run used —
//! which is what the crash-recovery test pins.

use veridic_aig::Aig;
use veridic_mc::{
    BddUmcEngine, BmcEngine, Budget, CancelToken, CheckOptions, CheckResult, CheckStats, Engine,
    EngineCheckpoint, EngineId, InductionEngine, PobddEngine, PortfolioOutcome, Portfolio,
    RunCheckpoint, Verdict,
};

/// Budget multiplier for the lane whose progress cursor advanced the
/// most in the previous round.
pub const PROGRESS_BOOST: u64 = 4;

/// Where one engine lane stands.
#[derive(Clone, Debug)]
pub enum LaneStatus {
    /// Not yet run; the first slice starts the engine from scratch.
    Fresh,
    /// Suspended mid-run with resumable state.
    Suspended(RunCheckpoint),
    /// The engine concluded nothing and is out of the race; its
    /// statistics are kept for the final merge.
    Retired {
        /// The engine's own account of what ran out.
        reason: String,
        /// Statistics accumulated over the lane's slices.
        stats: CheckStats,
    },
}

/// One engine lane of an adaptive run.
#[derive(Clone, Debug)]
pub struct LaneCheckpoint {
    /// The lane's engine.
    pub engine: EngineId,
    /// Budget rounds granted for the current scheduling round.
    pub granted: u64,
    /// The lane's progress score at the end of the previous scheduling
    /// round; the grant computation budgets by the delta against it.
    pub prev_progress: u64,
    /// Where the lane stands.
    pub status: LaneStatus,
}

/// The complete, persistable state of one property's adaptive run.
#[derive(Clone, Debug)]
pub struct AdaptiveCheckpoint {
    /// Index of the property's bad output.
    pub bad_index: usize,
    /// Index of the next lane to slice in the current round.
    pub cursor: usize,
    /// The engine lanes, in the default cascade's order.
    pub lanes: Vec<LaneCheckpoint>,
}

/// Result of one [`AdaptiveScheduler::step`].
#[derive(Debug)]
pub enum AdaptiveStep {
    /// The run continues; persist this state and step again.
    Continue(AdaptiveCheckpoint),
    /// A lane concluded (or every lane retired); statistics are merged
    /// across lanes.
    Done(CheckResult),
}

/// The slice-and-rebudget scheduler. Stateless itself — all run state
/// lives in the [`AdaptiveCheckpoint`] so it can be persisted between
/// any two steps.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveScheduler {
    /// Budget rounds per unboosted slice.
    pub slice_rounds: u64,
}

/// The built-in engine for a lane id; `None` for custom ids (which the
/// scheduler never creates — they can only arrive via a tampered
/// checkpoint, and the lane is then retired, not trusted).
fn builtin_engine(id: EngineId) -> Option<Box<dyn Engine>> {
    match id {
        EngineId::Bmc => Some(Box::new(BmcEngine)),
        EngineId::Induction => Some(Box::new(InductionEngine)),
        EngineId::BddUmc => Some(Box::new(BddUmcEngine)),
        EngineId::PobddUmc => Some(Box::new(PobddEngine)),
        EngineId::Custom(_) => None,
    }
}

/// A lane's scalar progress score: the engine's progress cursor,
/// sub-weighted for reachability lanes by how many nodes the frontier
/// delta is still shipping (a growing frontier is an engine still
/// discovering states even when its depth ticks slowly).
fn lane_score(status: &LaneStatus) -> u64 {
    match status {
        LaneStatus::Suspended(ck) => {
            let frontier = match &ck.state {
                EngineCheckpoint::Reach(r) => (r.frontier_nodes() as u64).min(999_999),
                _ => 0,
            };
            ck.state.progress() * 1_000_000 + frontier
        }
        LaneStatus::Fresh | LaneStatus::Retired { .. } => 0,
    }
}

fn is_active(lane: &LaneCheckpoint) -> bool {
    !matches!(lane.status, LaneStatus::Retired { .. })
}

impl AdaptiveScheduler {
    /// A scheduler slicing `slice_rounds` budget rounds at a time
    /// (clamped to ≥ 1).
    pub fn new(slice_rounds: u64) -> Self {
        AdaptiveScheduler { slice_rounds: slice_rounds.max(1) }
    }

    /// The initial state for one property: one lane per enabled engine,
    /// in the default cascade's order (BMC, induction, BDD UMC, POBDD),
    /// each granted one unboosted slice.
    pub fn start(&self, aig: &Aig, bad_index: usize, opts: &CheckOptions) -> AdaptiveCheckpoint {
        let candidates: [Box<dyn Engine>; 4] = [
            Box::new(BmcEngine),
            Box::new(InductionEngine),
            Box::new(BddUmcEngine),
            Box::new(PobddEngine),
        ];
        let lanes = candidates
            .into_iter()
            .filter(|e| e.enabled(opts) && e.supports(aig))
            .map(|e| LaneCheckpoint {
                engine: e.id(),
                granted: self.slice_rounds,
                prev_progress: 0,
                status: LaneStatus::Fresh,
            })
            .collect();
        AdaptiveCheckpoint { bad_index, cursor: 0, lanes }
    }

    /// Runs exactly one lane slice and returns either the advanced
    /// state (persist it, step again) or the merged conclusion.
    ///
    /// `cancel` is threaded into the slice's budget, so a SIGTERM
    /// arriving mid-slice suspends the lane at its next cooperative
    /// tick and surfaces here as an ordinary `Continue` — the caller
    /// persists the state and exits.
    pub fn step(
        &self,
        aig: &Aig,
        opts: &CheckOptions,
        mut ck: AdaptiveCheckpoint,
        cancel: Option<&CancelToken>,
    ) -> AdaptiveStep {
        loop {
            if !ck.lanes.iter().any(is_active) {
                return AdaptiveStep::Done(conclude_all_retired(&ck.lanes));
            }
            let Some(lane_index) =
                (ck.cursor..ck.lanes.len()).find(|i| is_active(&ck.lanes[*i]))
            else {
                // Round complete: re-budget from the progress deltas,
                // then move the cursors up for the next round.
                self.regrant(&mut ck.lanes);
                ck.cursor = 0;
                continue;
            };
            let lane = &mut ck.lanes[lane_index];
            let Some(engine) = builtin_engine(lane.engine) else {
                lane.status = LaneStatus::Retired {
                    reason: "unknown engine lane in checkpoint".into(),
                    stats: CheckStats::default(),
                };
                continue;
            };
            let portfolio = Portfolio::empty().with(engine);
            let mut budget = Budget::rounds(lane.granted.max(1));
            if let Some(token) = cancel {
                budget = budget.with_cancel(token);
            }
            let status = std::mem::replace(&mut lane.status, LaneStatus::Fresh);
            let outcome = match status {
                LaneStatus::Fresh => portfolio.check_bad_with_budget(
                    aig,
                    ck.bad_index,
                    opts,
                    CheckStats::default(),
                    &mut budget,
                ),
                LaneStatus::Suspended(run_ck) => {
                    portfolio.resume_bad_with_budget(aig, opts, run_ck, &mut budget)
                }
                LaneStatus::Retired { .. } => unreachable!("retired lanes are skipped"),
            };
            ck.cursor = lane_index + 1;
            match outcome {
                PortfolioOutcome::Suspended(run_ck) => {
                    ck.lanes[lane_index].status = LaneStatus::Suspended(run_ck);
                    return AdaptiveStep::Continue(ck);
                }
                PortfolioOutcome::Done(result) => match result.verdict {
                    Verdict::ResourceOut { reason } => {
                        ck.lanes[lane_index].status =
                            LaneStatus::Retired { reason, stats: result.stats };
                        if ck.lanes.iter().any(is_active) {
                            return AdaptiveStep::Continue(ck);
                        }
                        return AdaptiveStep::Done(conclude_all_retired(&ck.lanes));
                    }
                    verdict @ (Verdict::Proved { .. } | Verdict::Falsified(_)) => {
                        let stats =
                            merged_stats(&ck.lanes, Some((lane_index, &result.stats)));
                        return AdaptiveStep::Done(CheckResult { verdict, stats });
                    }
                },
            }
        }
    }

    /// End-of-round re-budgeting: every active lane gets one base
    /// slice; the lane whose progress score advanced the most (ties to
    /// the earliest lane) gets [`PROGRESS_BOOST`] slices. Progress
    /// cursors are then rolled forward for the next round's deltas.
    fn regrant(&self, lanes: &mut [LaneCheckpoint]) {
        let deltas: Vec<u64> = lanes
            .iter()
            .map(|lane| lane_score(&lane.status).saturating_sub(lane.prev_progress))
            .collect();
        let best = deltas
            .iter()
            .enumerate()
            .filter(|(i, d)| is_active(&lanes[*i]) && **d > 0)
            .max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)))
            .map(|(i, _)| i);
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane.granted =
                if best == Some(i) { self.slice_rounds * PROGRESS_BOOST } else { self.slice_rounds };
            lane.prev_progress = lane_score(&lane.status);
        }
    }
}

/// The lane's accumulated statistics, if it has any.
fn lane_stats(lane: &LaneCheckpoint) -> Option<&CheckStats> {
    match &lane.status {
        LaneStatus::Fresh => None,
        LaneStatus::Suspended(ck) => Some(&ck.stats),
        LaneStatus::Retired { stats, .. } => Some(stats),
    }
}

/// Merges per-lane statistics into one [`CheckStats`].
///
/// The concluding lane (or lane 0 when everything retired) is the
/// *base*: structural per-run fields — COI sizes, pre-analysis
/// counters (each lane runs its own sweep on the same cone; counting
/// it once keeps campaign totals comparable to cascade runs),
/// iterations, worker tables, reorder-span figures — are taken from it
/// alone. Cross-lane *resource* fields are summed (SAT conflicts, BDD
/// allocation, quota hits, reorder passes) or maxed (peak live nodes),
/// and the event logs are concatenated in lane order so the merged log
/// remains deterministic.
fn merged_stats(lanes: &[LaneCheckpoint], concluding: Option<(usize, &CheckStats)>) -> CheckStats {
    let base_index = concluding.map_or(0, |(i, _)| i);
    let stats_of = |i: usize| -> Option<&CheckStats> {
        match concluding {
            Some((ci, stats)) if ci == i => Some(stats),
            _ => lane_stats(&lanes[i]),
        }
    };
    let mut merged = stats_of(base_index).cloned().unwrap_or_default();
    merged.events.clear();
    for (i, _) in lanes.iter().enumerate() {
        let Some(stats) = stats_of(i) else { continue };
        merged.events.extend(stats.events.iter().cloned());
        if i != base_index {
            merged.sat_conflicts += stats.sat_conflicts;
            merged.bdd_allocated += stats.bdd_allocated;
            merged.bdd_quota_hits += stats.bdd_quota_hits;
            merged.reorders += stats.reorders;
            merged.reorder_nodes_before += stats.reorder_nodes_before;
            merged.reorder_nodes_after += stats.reorder_nodes_after;
            merged.bdd_nodes = merged.bdd_nodes.max(stats.bdd_nodes);
        }
    }
    merged
}

/// The verdict when every lane retired: a `ResourceOut` whose reason
/// names each lane's account, statistics merged with lane 0 as base.
fn conclude_all_retired(lanes: &[LaneCheckpoint]) -> CheckResult {
    let mut accounts = Vec::new();
    for lane in lanes {
        if let LaneStatus::Retired { reason, .. } = &lane.status {
            accounts.push(format!("{}: {}", lane.engine.as_str(), reason));
        }
    }
    let reason = if accounts.is_empty() {
        "no engine lanes were enabled".to_string()
    } else {
        accounts.join("; ")
    };
    CheckResult { verdict: Verdict::ResourceOut { reason }, stats: merged_stats(lanes, None) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_mc::CheckOptions;

    /// An n-bit counter with a bad that fires when it reaches `target`.
    fn counter_aig(bits: u32, target: u64) -> Aig {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = veridic_aig::Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        let hit: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, (_, q))| if target >> i & 1 == 1 { *q } else { !*q })
            .collect();
        let bad = g.and_many(hit);
        g.add_bad(format!("count_is_{target}"), bad);
        g
    }

    #[test]
    fn adaptive_concludes_like_the_cascade_on_a_reachable_bad() {
        let aig = counter_aig(3, 7);
        let opts = CheckOptions::default();
        let scheduler = AdaptiveScheduler::new(2);
        let mut state = scheduler.start(&aig, 0, &opts);
        let result = loop {
            match scheduler.step(&aig, &opts, state, None) {
                AdaptiveStep::Continue(next) => state = next,
                AdaptiveStep::Done(result) => break result,
            }
        };
        assert!(result.verdict.is_falsified(), "counter reaches 7: {:?}", result.verdict);
        let cascade = Portfolio::default().check(&aig, &opts);
        assert_eq!(result.verdict.is_falsified(), cascade.verdict.is_falsified());
    }

    #[test]
    fn adaptive_run_is_deterministic_across_restarts() {
        let aig = counter_aig(3, 5);
        let opts = CheckOptions::default();
        let scheduler = AdaptiveScheduler::new(1);
        // Run A: straight through.
        let mut state = scheduler.start(&aig, 0, &opts);
        let straight = loop {
            match scheduler.step(&aig, &opts, state, None) {
                AdaptiveStep::Continue(next) => state = next,
                AdaptiveStep::Done(result) => break result,
            }
        };
        // Run B: every intermediate state round-trips the codec (the
        // kill-at-every-slice simulation).
        let mut state = scheduler.start(&aig, 0, &opts);
        let restarted = loop {
            match scheduler.step(&aig, &opts, state, None) {
                AdaptiveStep::Continue(next) => {
                    let file = crate::codec::CheckpointFile {
                        aig_fingerprint: aig.fingerprint(),
                        options_fingerprint: opts.fingerprint(),
                        state: crate::codec::PersistedState::Adaptive(next),
                    };
                    let bytes = file.encode();
                    let back = crate::codec::CheckpointFile::decode(
                        &bytes,
                        Some((aig.fingerprint(), opts.fingerprint())),
                    )
                    .unwrap(); // lint: allow
                    let crate::codec::PersistedState::Adaptive(next) = back.state else {
                        panic!("variant changed in flight") // lint: allow
                    };
                    state = next;
                }
                AdaptiveStep::Done(result) => break result,
            }
        };
        assert_eq!(straight.verdict, restarted.verdict);
        assert_eq!(straight.stats, restarted.stats);
    }

    /// The induction lane is sound on its own: on a 2-bit saturating
    /// counter (bad = `count == 3`, step UNSAT at k = 4) it reaches
    /// k = 4 before the BMC lane reaches depth 3, and must answer with
    /// the depth-3 counterexample rather than a proof.
    #[test]
    fn induction_lane_does_not_prove_a_reachable_bad() {
        let mut aig = Aig::new();
        let (i0, q0) = aig.latch("c0", false);
        let (i1, q1) = aig.latch("c1", false);
        let full = aig.and(q0, q1);
        let n0 = aig.or(!q0, full);
        let n1 = aig.or(q1, q0);
        aig.set_next(i0, n0);
        aig.set_next(i1, n1);
        aig.add_bad("count_is_3", full);
        let opts = CheckOptions::default();
        let scheduler = AdaptiveScheduler::new(1);
        let mut state = scheduler.start(&aig, 0, &opts);
        let result = loop {
            match scheduler.step(&aig, &opts, state, None) {
                AdaptiveStep::Continue(next) => state = next,
                AdaptiveStep::Done(result) => break result,
            }
        };
        let Verdict::Falsified(trace) = &result.verdict else {
            panic!("count 3 is reachable: {:?}", result.verdict) // lint: allow
        };
        assert_eq!(trace.len(), 4);
        assert!(trace.replays_on(&aig));
    }

    #[test]
    fn all_lanes_retire_to_a_named_resource_out() {
        // An unreachable bad with budgets too small for any proof.
        let aig = counter_aig(3, 7);
        let opts = CheckOptions::builder()
            .bmc_depth(1)
            .induction_depth(0)
            .max_iterations(1)
            .pobdd_window_vars(0)
            .preanalysis(false)
            .build();
        let scheduler = AdaptiveScheduler::new(1);
        let mut state = scheduler.start(&aig, 0, &opts);
        let result = loop {
            match scheduler.step(&aig, &opts, state, None) {
                AdaptiveStep::Continue(next) => state = next,
                AdaptiveStep::Done(result) => break result,
            }
        };
        let Verdict::ResourceOut { reason } = &result.verdict else {
            panic!("tiny budgets cannot conclude: {:?}", result.verdict) // lint: allow
        };
        assert!(reason.contains("bmc:"), "per-lane accounts expected: {reason}");
    }
}
