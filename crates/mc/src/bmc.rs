//! SAT-based bounded model checking and k-induction.
//!
//! Both engines run on one incremental [`Unroller`] over two kinds of
//! persistent solver:
//!
//! * the **base** unrolling starts in the initial state — it answers
//!   "is a bad reachable at depth k?";
//! * the **step** unrolling starts in a free state, keeps every frame
//!   before the newest bad-free (and, with `simple_path`, distinct from
//!   the newest) — it answers "can k bad-free steps lead into a bad?".
//!
//! BMC drives the base unrolling and uses the step as a stopping rule:
//! once depths `0..=d` are clean and the step at `k = d + 1` is UNSAT,
//! no deeper counterexample exists and unrolling further is wasted
//! work. k-induction drives the step unrolling and checks its own base
//! case before it claims a proof.

use crate::engine::Budget;
use crate::{CheckOptions, CheckStats, Trace};
use veridic_aig::Aig;
use veridic_sat::{CnfBuilder, Frame, Lit as SLit, SolveResult, Solver};

/// Outcome of a BMC run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcOutcome {
    /// A counterexample was found.
    Falsified(Trace),
    /// No counterexample through `depth`: either the depth bound, or —
    /// under [`bmc_check_budgeted`] — the shallower depth at which the
    /// induction step showed that no deeper counterexample exists.
    NoCounterexample {
        /// The deepest depth queried clean.
        depth: usize,
    },
    /// The conflict budget ran out.
    ResourceOut,
    /// The cooperative round [`Budget`] stopped the run before this
    /// depth was queried; resume with `min_depth = next_depth` (the
    /// solver re-encodes the earlier frames deterministically but does
    /// not re-query them). Never returned by [`bmc_check`], which runs
    /// unbudgeted.
    Suspended {
        /// First depth the resumed run should query.
        next_depth: usize,
    },
}

/// Outcome of a k-induction run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InductionOutcome {
    /// Proved at the contained induction depth: the step is UNSAT at
    /// this k and the base case is clean at depths `0..k`.
    Proved(usize),
    /// The step held at some k but the base case did not: a real
    /// counterexample shallower than that k.
    Falsified(Trace),
    /// Not k-inductive up to the depth bound (property may still hold).
    Unknown,
    /// The conflict budget ran out.
    ResourceOut,
    /// The cooperative round [`Budget`] stopped the run before this k
    /// was attempted; resume from `next_k`. Never returned by
    /// [`induction_check`], which runs unbudgeted.
    Suspended {
        /// First induction depth the resumed run should attempt.
        next_k: usize,
    },
}

/// How an [`Unroller`] starts and what each new frame asserts about the
/// earlier ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unrolling {
    /// Frame 0 in the initial state; nothing is assumed about earlier
    /// frames (a cleared depth is blocked through its selector).
    Base,
    /// Frame 0 free; every frame before the newest is bad-free and,
    /// with `simple_path`, differs from the newest in some latch.
    Step { simple_path: bool },
}

/// An incremental unrolling of an AIG into one persistent solver, with
/// constraints asserted on every frame. Frames are encoded on demand by
/// [`Unroller::bad_at`], so a resumed run re-encodes the frames below
/// its cursor deterministically without querying them.
struct Unroller<'a> {
    aig: &'a Aig,
    kind: Unrolling,
    solver: Solver,
    frames: Vec<Frame>,
    /// The base solver spends this budget over its whole life, the step
    /// solver once per query.
    conflict_budget: u64,
}

impl<'a> Unroller<'a> {
    fn new(aig: &'a Aig, kind: Unrolling, conflict_budget: u64) -> Self {
        let mut solver = Solver::new();
        if kind == Unrolling::Base {
            solver.set_conflict_budget(Some(conflict_budget));
        }
        Unroller { aig, kind, solver, frames: Vec::new(), conflict_budget }
    }

    /// Encodes frames up to and including `k`.
    fn unroll_to(&mut self, k: usize) {
        let aig = self.aig;
        while self.frames.len() <= k {
            let mut cb = CnfBuilder::new(&mut self.solver);
            let frame = match self.frames.last() {
                None => {
                    let f0 = cb.encode_frame(aig, None);
                    if self.kind == Unrolling::Base {
                        cb.assert_initial(aig, &f0);
                    }
                    f0
                }
                Some(prev) => cb.encode_frame(aig, Some(&prev.next_state)),
            };
            cb.assert_constraints(aig, &frame);
            if let (Unrolling::Step { simple_path }, Some(prev)) = (self.kind, self.frames.last()) {
                for b in aig.bads() {
                    self.solver.add_clause(&[!prev.lit(b.lit)]);
                }
                if simple_path && aig.num_latches() > 0 {
                    let newest = latch_state(aig, &frame);
                    for earlier in &self.frames {
                        add_distinct(&mut self.solver, &newest, &latch_state(aig, earlier));
                    }
                }
            }
            self.frames.push(frame);
        }
    }

    /// Asks whether some bad fires in frame `k`, through a selector
    /// literal. A base-case SAT answer leaves its model readable for
    /// [`Unroller::trace`]; every other answer retires the selector
    /// (for the base case that blocks the cleared depth permanently).
    fn bad_at(&mut self, k: usize) -> SolveResult {
        self.unroll_to(k);
        if let Unrolling::Step { .. } = self.kind {
            let spent = self.solver.num_conflicts();
            self.solver.set_conflict_budget(Some(spent.saturating_add(self.conflict_budget)));
        }
        let sel = SLit::pos(self.solver.new_var());
        // sel -> (b1 | b2 | ...): clause (!sel, b1, b2, ...)
        let mut clause = vec![!sel];
        clause.extend(self.aig.bads().iter().map(|b| self.frames[k].lit(b.lit)));
        self.solver.add_clause(&clause);
        let result = self.solver.solve(&[sel]);
        if result != SolveResult::Sat || self.kind != Unrolling::Base {
            self.solver.add_clause(&[!sel]);
        }
        result
    }

    /// The counterexample of a base-case SAT answer at depth `k`.
    fn trace(&self, k: usize) -> Trace {
        let model = |l: &SLit| self.solver.value(l.var()).map(|v| v ^ l.is_neg());
        let bad_index = self
            .aig
            .bads()
            .iter()
            .position(|b| model(&self.frames[k].lit(b.lit)) == Some(true))
            .expect("some bad literal is true in the model"); // lint: allow
        let inputs = self.frames[..=k]
            .iter()
            .map(|frame| frame.inputs.iter().map(|l| model(l).unwrap_or(false)).collect())
            .collect();
        Trace { inputs, bad_index }
    }

    fn conflicts(&self) -> u64 {
        self.solver.num_conflicts()
    }
}

/// The latch-in literals of `frame`.
fn latch_state(aig: &Aig, frame: &Frame) -> Vec<SLit> {
    aig.latches().iter().map(|l| frame.lit(veridic_aig::Lit::new(l.var, false))).collect()
}

/// Requires the two state vectors to differ in at least one bit.
fn add_distinct(solver: &mut Solver, a: &[SLit], b: &[SLit]) {
    let mut diff_clause = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let d = SLit::pos(solver.new_var());
        // d -> (x != y): (!d, x, y), (!d, !x, !y)
        solver.add_clause(&[!d, x, y]);
        solver.add_clause(&[!d, !x, !y]);
        diff_clause.push(d);
    }
    solver.add_clause(&diff_clause);
}

/// Bounded model checking of all bads of `aig` between depths
/// `min_depth..=max_depth` (cycle indices: a violation "at depth k" fires
/// in cycle k of a k+1-cycle trace), with no induction cutoff: every
/// depth in the range is queried.
///
/// Returns on the first (shallowest) counterexample.
pub fn bmc_check(
    aig: &Aig,
    min_depth: usize,
    max_depth: usize,
    conflict_budget: u64,
    stats: &mut CheckStats,
) -> BmcOutcome {
    bmc_run(aig, min_depth, max_depth, conflict_budget, None, stats, &mut Budget::unlimited())
}

/// BMC from `min_depth` to [`CheckOptions::bmc_depth`] under a
/// cooperative round [`Budget`], with the induction step as a cutoff.
///
/// One budget round is consumed per depth actually queried (depths
/// below `min_depth` are encoded for free); when the budget trips, the
/// run suspends with the next depth as its checkpoint. After each clean
/// depth `d` with `d + 1 <= induction_depth`, the step is asked at
/// `k = d + 1` (with [`CheckOptions::simple_path`]); an UNSAT answer
/// means no deeper counterexample exists, so the run stops with
/// [`BmcOutcome::NoCounterexample`] at depth `d`. A step query that
/// runs out of conflicts switches the cutoff off for the rest of the
/// run.
pub fn bmc_check_budgeted(
    aig: &Aig,
    min_depth: usize,
    opts: &CheckOptions,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> BmcOutcome {
    let cutoff = Some((opts.induction_depth, opts.simple_path));
    bmc_run(aig, min_depth, opts.bmc_depth, opts.sat_conflicts, cutoff, stats, budget)
}

/// The BMC loop; `cutoff` is `(max k, simple_path)` of the step.
fn bmc_run(
    aig: &Aig,
    min_depth: usize,
    max_depth: usize,
    conflict_budget: u64,
    cutoff: Option<(usize, bool)>,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> BmcOutcome {
    let (mut max_k, simple_path) = cutoff.unwrap_or((0, false));
    let mut base = Unroller::new(aig, Unrolling::Base, conflict_budget);
    let mut step = Unroller::new(aig, Unrolling::Step { simple_path }, conflict_budget);
    let outcome = 'run: {
        for k in min_depth..=max_depth {
            if !budget.tick() {
                break 'run BmcOutcome::Suspended { next_depth: k };
            }
            match base.bad_at(k) {
                SolveResult::Sat => break 'run BmcOutcome::Falsified(base.trace(k)),
                SolveResult::Unknown => break 'run BmcOutcome::ResourceOut,
                SolveResult::Unsat => {}
            }
            if k < max_depth && k < max_k {
                match step.bad_at(k + 1) {
                    SolveResult::Unsat => break 'run BmcOutcome::NoCounterexample { depth: k },
                    SolveResult::Unknown => max_k = 0,
                    SolveResult::Sat => {}
                }
            }
        }
        BmcOutcome::NoCounterexample { depth: max_depth }
    };
    stats.sat_conflicts += base.conflicts() + step.conflicts();
    outcome
}

/// k-induction for `k` in `1..=max_k`: proves `never bad` once the step
/// — `k` consecutive bad-free, constraint-satisfying cycles from an
/// arbitrary state followed by a bad — is UNSAT and the base case
/// (no bad at depths `0..k` from the initial state) is clean. A dirty
/// base case is returned as [`InductionOutcome::Falsified`].
///
/// `simple_path` adds loop-free (all-states-distinct) constraints, which
/// makes the method complete for large enough `k` at quadratic clause
/// cost.
pub fn induction_check(
    aig: &Aig,
    max_k: usize,
    simple_path: bool,
    conflict_budget: u64,
    stats: &mut CheckStats,
) -> InductionOutcome {
    induction_run(aig, 1, max_k, simple_path, conflict_budget, stats, &mut Budget::unlimited())
}

/// [`induction_check`] to [`CheckOptions::induction_depth`] under a
/// cooperative round [`Budget`], starting from `min_k` (a resumed run's
/// checkpoint): one budget round per k attempted. When the budget
/// trips, the run suspends with the next k.
pub fn induction_check_budgeted(
    aig: &Aig,
    min_k: usize,
    opts: &CheckOptions,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> InductionOutcome {
    induction_run(
        aig,
        min_k,
        opts.induction_depth,
        opts.simple_path,
        opts.sat_conflicts,
        stats,
        budget,
    )
}

/// The k-induction loop. The step solver spends `conflict_budget` per
/// k, the base solver once over the base-case check.
fn induction_run(
    aig: &Aig,
    min_k: usize,
    max_k: usize,
    simple_path: bool,
    conflict_budget: u64,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> InductionOutcome {
    let mut step = Unroller::new(aig, Unrolling::Step { simple_path }, conflict_budget);
    let mut base = Unroller::new(aig, Unrolling::Base, conflict_budget);
    let outcome = 'run: {
        for k in min_k.max(1)..=max_k {
            if !budget.tick() {
                break 'run InductionOutcome::Suspended { next_k: k };
            }
            match step.bad_at(k) {
                SolveResult::Sat => continue, // not k-inductive; try larger k
                SolveResult::Unknown => break 'run InductionOutcome::ResourceOut,
                SolveResult::Unsat => {}
            }
            for depth in 0..k {
                match base.bad_at(depth) {
                    SolveResult::Sat => break 'run InductionOutcome::Falsified(base.trace(depth)),
                    SolveResult::Unknown => break 'run InductionOutcome::ResourceOut,
                    SolveResult::Unsat => {}
                }
            }
            break 'run InductionOutcome::Proved(k);
        }
        InductionOutcome::Unknown
    };
    stats.sat_conflicts += step.conflicts() + base.conflicts();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::Aig;

    fn toggle() -> Aig {
        let mut g = Aig::new();
        let (id, q) = g.latch("q", false);
        g.set_next(id, !q);
        g.add_bad("q_and_next", q); // q is true every odd cycle
        g
    }

    /// A `bits`-wide counter whose bad fires at `bad_at`.
    fn counter(bits: u32, bad_at: u64) -> Aig {
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
            .map(|(i, (_, q))| if bad_at >> i & 1 == 1 { *q } else { !*q })
            .collect();
        let bad = g.and_many(hit);
        g.add_bad(format!("count_is_{bad_at}"), bad);
        g
    }

    #[test]
    fn bmc_finds_shallow_bug() {
        let g = toggle();
        let mut stats = CheckStats::default();
        match bmc_check(&g, 0, 5, 1_000_000, &mut stats) {
            BmcOutcome::Falsified(t) => {
                assert_eq!(t.len(), 2, "q first true in cycle 1");
                assert!(t.replays_on(&g));
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn bmc_min_depth_skips_shallow() {
        // Force extraction at exactly depth 3 (q true at odd depths).
        let g = toggle();
        let mut stats = CheckStats::default();
        match bmc_check(&g, 3, 3, 1_000_000, &mut stats) {
            BmcOutcome::Falsified(t) => assert_eq!(t.len(), 4),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn bmc_clean_design_reports_none() {
        let mut g = Aig::new();
        let (id, q) = g.latch("q", false);
        g.set_next(id, q);
        g.add_bad("never", q);
        let mut stats = CheckStats::default();
        assert_eq!(
            bmc_check(&g, 0, 10, 1_000_000, &mut stats),
            BmcOutcome::NoCounterexample { depth: 10 }
        );
    }

    /// The cutoff stops BMC as soon as the step proves no deeper bad
    /// exists: a stuck latch is 1-inductive, so depth 0 is the last
    /// one unrolled.
    #[test]
    fn bmc_cutoff_stops_at_the_inductive_depth() {
        let mut g = Aig::new();
        let (id, q) = g.latch("q", false);
        g.set_next(id, q);
        g.add_bad("never", q);
        let mut stats = CheckStats::default();
        let mut budget = Budget::unlimited();
        let out = bmc_check_budgeted(&g, 0, &CheckOptions::default(), &mut stats, &mut budget);
        assert_eq!(out, BmcOutcome::NoCounterexample { depth: 0 });
        assert_eq!(budget.used(), 1, "one depth queried");
        // Without the cutoff every depth is queried.
        let opts = CheckOptions::builder().induction_depth(0).build();
        let mut budget = Budget::unlimited();
        let out = bmc_check_budgeted(&g, 0, &opts, &mut stats, &mut budget);
        assert_eq!(out, BmcOutcome::NoCounterexample { depth: opts.bmc_depth });
        assert_eq!(budget.used(), opts.bmc_depth as u64 + 1);
    }

    /// The cutoff never stops BMC before a real bug: a counter whose bad
    /// sits at depth 9, deeper than `induction_depth`, still falsifies
    /// at depth 9.
    #[test]
    fn bmc_cutoff_never_hides_a_deeper_bug() {
        let g = counter(4, 9);
        let opts = CheckOptions::builder().induction_depth(6).build();
        let mut stats = CheckStats::default();
        match bmc_check_budgeted(&g, 0, &opts, &mut stats, &mut Budget::unlimited()) {
            BmcOutcome::Falsified(t) => {
                assert_eq!(t.len(), 10);
                assert!(t.replays_on(&g));
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn induction_proves_stuck_latch() {
        let mut g = Aig::new();
        let (id, q) = g.latch("q", false);
        g.set_next(id, q);
        g.add_bad("never", q);
        let mut stats = CheckStats::default();
        match induction_check(&g, 5, true, 1_000_000, &mut stats) {
            InductionOutcome::Proved(k) => assert_eq!(k, 1),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn induction_needs_simple_path_for_counters() {
        // 3-bit counter that wraps at 6 (never reaches 7): plain induction
        // fails at small k, simple-path proves it.
        let mut g = Aig::new();
        let qs: Vec<_> = (0..3).map(|i| g.latch(format!("c{i}"), false)).collect();
        let (q0, q1, q2) = (qs[0].1, qs[1].1, qs[2].1);
        // at5 = q2 & !q1 & q0 (value 5) -> wrap to 0
        let n01 = g.and(q2, !q1);
        let at5 = g.and(n01, q0);
        let mut carry = veridic_aig::Lit::TRUE;
        let mut nexts = Vec::new();
        for (_, q) in &qs {
            let inc = g.xor(*q, carry);
            carry = g.and(*q, carry);
            nexts.push(inc);
        }
        for (i, (id, _)) in qs.iter().enumerate() {
            let nx = g.and(nexts[i], !at5);
            g.set_next(*id, nx);
        }
        // bad: value 7
        let b01 = g.and(q0, q1);
        let bad = g.and(b01, q2);
        g.add_bad("seven", bad);
        let mut stats = CheckStats::default();
        // With simple path it proves within k <= 8.
        match induction_check(&g, 8, true, 1_000_000, &mut stats) {
            InductionOutcome::Proved(_) => {}
            other => panic!("expected proof with simple-path, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A zero conflict budget on a bad that needs some search: the
        // parity of 12 inputs, latched.
        let mut g = Aig::new();
        let ins: Vec<_> = (0..12).map(|i| g.input(format!("x{i}"))).collect();
        let mut parity = veridic_aig::Lit::FALSE;
        for l in &ins {
            parity = g.xor(parity, *l);
        }
        let (id, q) = g.latch("q", false);
        g.set_next(id, parity);
        g.add_bad("parity_high", q);
        let mut stats = CheckStats::default();
        let out = bmc_check(&g, 0, 3, 0, &mut stats);
        // The solver gives up at once unless propagation alone solves it.
        assert!(
            matches!(out, BmcOutcome::ResourceOut | BmcOutcome::Falsified(_)),
            "got {out:?}"
        );
    }
}
