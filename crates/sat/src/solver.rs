//! The CDCL search core.

use crate::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The instance is unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Assign {
    Undef,
    True,
    False,
}

impl Assign {
    fn from_bool(b: bool) -> Assign {
        if b {
            Assign::True
        } else {
            Assign::False
        }
    }
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
}

type ClauseRef = usize;

/// Marks a variable that is not in the [`VarHeap`].
const ABSENT: u32 = u32::MAX;

/// The decision order: a binary max-heap of variables by activity, ties
/// to the lower index. Every unassigned variable is in the heap
/// (assigned ones leave lazily when popped and return on backtrack), so
/// the first unassigned variable popped is the highest-activity,
/// lowest-index one — the choice of a linear scan over all variables,
/// at logarithmic instead of linear cost per decision.
#[derive(Clone, Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        let v = v.0;
        if self.pos.len() <= v as usize {
            self.pos.resize(v as usize + 1, ABSENT);
        }
        if self.pos[v as usize] == ABSENT {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores the order after `v`'s activity grew.
    fn increased(&mut self, v: Var, activity: &[f64]) {
        if let Some(&i) = self.pos.get(v.0 as usize) {
            if i != ABSENT {
                self.sift_up(i as usize, activity);
            }
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop()?;
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(Var(top))
    }

    /// Re-establishes the heap order from scratch (after a rescale,
    /// which can turn distinct activities into ties).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(activity, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::before(activity, self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A CDCL SAT solver with incremental assumptions and a conflict budget.
///
/// See the crate docs for the feature list; construction is [`Solver::new`],
/// variables come from [`Solver::new_var`], clauses from
/// [`Solver::add_clause`], and queries run through [`Solver::solve`].
#[derive(Clone, Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    free_list: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<Assign>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    order: VarHeap,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    conflicts: u64,
    budget: Option<u64>,
    learnt_refs: Vec<ClauseRef>,
    max_learnts: f64,
    seen: Vec<bool>,
    /// Statistics: total decisions.
    pub decisions: u64,
    /// Statistics: total propagations.
    pub propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            free_list: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            order: VarHeap::default(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            conflicts: 0,
            budget: None,
            learnt_refs: Vec::new(),
            max_learnts: 1000.0,
            seen: Vec::new(),
            decisions: 0,
            propagations: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.order.insert(v, &self.activity);
        self.level.push(0);
        self.reason.push(None);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Total conflicts encountered so far (across all solve calls).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Limits the *total* number of conflicts; [`Solver::solve`] returns
    /// [`SolveResult::Unknown`] once `self.num_conflicts()` reaches the
    /// budget. `None` removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at level zero (callers may stop adding).
    ///
    /// The solver first backtracks to level zero, which discards the
    /// model of a previous [`SolveResult::Sat`] answer: read it with
    /// [`Solver::value`] before adding clauses.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        // Normalise: sort, dedup, drop tautologies and false literals.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: contains l and !l
            }
            match self.lit_value(l) {
                Assign::True => return true, // satisfied at level 0
                Assign::False => continue,   // drop false literal
                Assign::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(out, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = if let Some(r) = self.free_list.pop() {
            self.clauses[r] = Clause { lits, learnt, activity: 0.0 };
            r
        } else {
            self.clauses.push(Clause { lits, learnt, activity: 0.0 });
            self.clauses.len() - 1
        };
        let c = &self.clauses[cref];
        let (w0, w1) = (c.lits[0], c.lits[1]);
        self.watches[(!w0).index()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).index()].push(Watcher { cref, blocker: w0 });
        if learnt {
            self.learnt_refs.push(cref);
        }
        cref
    }

    fn lit_value(&self, l: Lit) -> Assign {
        match self.assigns[l.var().0 as usize] {
            Assign::Undef => Assign::Undef,
            Assign::True => {
                if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
            Assign::False => {
                if l.is_neg() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer; `None`
    /// if the variable was irrelevant (never assigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.0 as usize] {
            Assign::Undef => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), Assign::Undef);
        let v = l.var().0 as usize;
        self.assigns[v] = Assign::from_bool(!l.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Quick check: blocker satisfied?
                if self.lit_value(w.blocker) == Assign::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is lits[1].
                let false_lit = !p;
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.lit_value(first) == Assign::True {
                    ws[i] = Watcher { cref, blocker: first };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref].lits[k];
                    if self.lit_value(lk) != Assign::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[(!lk).index()].push(Watcher { cref, blocker: first });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[i] = Watcher { cref, blocker: first };
                i += 1;
                if self.lit_value(first) == Assign::False {
                    // Conflict: keep remaining watchers, stop.
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            // Entries removed by swap_remove are gone; everything left in
            // `ws` (kept prefix + unprocessed tail on conflict) stays
            // watched. No watcher for `p` can have been added meanwhile:
            // a new watch targets a non-false literal, and `!p` is false.
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v, &self.activity);
        }
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        self.clauses[cref].activity += self.cla_inc;
        if self.clauses[cref].activity > 1e20 {
            for &r in &self.learnt_refs {
                self.clauses[r].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backtrack level).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);
        loop {
            let cref = confl.expect("analysis must have a reason"); // lint: allow
            self.cla_bump(cref);
            let start = if p.is_some() { 1 } else { 0 };
            let lits: Vec<Lit> = self.clauses[cref].lits[start..].to_vec();
            for q in lits {
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.var_bump(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal to expand.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var().0 as usize; // lint: allow
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.unwrap(); // lint: allow
                break;
            }
            confl = self.reason[pv];
        }
        // Clause minimisation (cheap local check): remove literals whose
        // reason clause is entirely subsumed by the learnt set.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.redundant(l, &learnt))
            .collect();
        let mut out = vec![learnt[0]];
        out.extend(keep);
        // Compute backtrack level = max level among out[1..].
        let bt = if out.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..out.len() {
                if self.level[out[i].var().0 as usize] > self.level[out[max_i].var().0 as usize] {
                    max_i = i;
                }
            }
            out.swap(1, max_i);
            self.level[out[1].var().0 as usize]
        };
        for l in &learnt[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        (out, bt)
    }

    /// A literal is redundant if its reason's literals are all already in
    /// the learnt clause (single-step self-subsumption).
    fn redundant(&self, l: Lit, learnt: &[Lit]) -> bool {
        match self.reason[l.var().0 as usize] {
            None => false,
            Some(cref) => self.clauses[cref].lits[1..].iter().all(|&q| {
                learnt.contains(&q) || self.level[q.var().0 as usize] == 0
            }),
        }
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var().0 as usize;
            self.polarity[v] = self.assigns[v] == Assign::True;
            self.assigns[v] = Assign::Undef;
            self.reason[v] = None;
            self.order.insert(Var(v as u32), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        // Highest-activity unassigned variable, ties to the lower index.
        let v = loop {
            let v = self.order.pop(&self.activity)?;
            if self.assigns[v.0 as usize] == Assign::Undef {
                break v;
            }
        };
        Some(if self.polarity[v.0 as usize] { Lit::pos(v) } else { Lit::neg(v) })
    }

    fn reduce_db(&mut self) {
        self.learnt_refs.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: veridic_aig::hash::FxHashSet<ClauseRef> =
            self.reason.iter().flatten().copied().collect();
        let half = self.learnt_refs.len() / 2;
        let mut removed = Vec::new();
        let mut kept = Vec::new();
        for (i, &cref) in self.learnt_refs.iter().enumerate() {
            if i < half && self.clauses[cref].learnt && !locked.contains(&cref) && self.clauses[cref].lits.len() > 2 {
                removed.push(cref);
            } else {
                kept.push(cref);
            }
        }
        for cref in removed {
            self.detach_clause(cref);
        }
        self.learnt_refs = kept;
    }

    fn detach_clause(&mut self, cref: ClauseRef) {
        let (w0, w1) = (self.clauses[cref].lits[0], self.clauses[cref].lits[1]);
        self.watches[(!w0).index()].retain(|w| w.cref != cref);
        self.watches[(!w1).index()].retain(|w| w.cref != cref);
        self.clauses[cref].lits.clear();
        self.free_list.push(cref);
    }

    /// Solves under the given assumptions.
    ///
    /// Returns [`SolveResult::Sat`] with a model readable via
    /// [`Solver::value`], [`SolveResult::Unsat`] if no model exists under
    /// the assumptions, or [`SolveResult::Unknown`] if the conflict budget
    /// ran out. The solver remains usable (incrementally) afterwards.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut luby_idx = 0u32;
        let mut restart_budget = 100.0 * luby(luby_idx);
        let mut conflicts_this_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                // All assumption-level conflicts below the assumption count
                // mean UNSAT under assumptions: handled by re-deciding below.
                let (learnt, bt) = self.analyze(confl);
                // Never backtrack above the assumption prefix: if the
                // asserting level is inside the assumptions, re-propagating
                // will re-derive the conflict and eventually hit level 0 or
                // fail an assumption.
                self.backtrack(bt);
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) == Assign::False {
                        // Asserting literal contradicts an assumption level
                        // assignment at or below bt: unsat under assumptions.
                        return SolveResult::Unsat;
                    }
                    if self.lit_value(learnt[0]) == Assign::Undef {
                        self.unchecked_enqueue(learnt[0], None);
                    }
                } else {
                    let cref = self.attach_clause(learnt.clone(), true);
                    self.cla_bump(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.var_decay();
                if let Some(b) = self.budget {
                    if self.conflicts >= b {
                        self.backtrack(0);
                        return SolveResult::Unknown;
                    }
                }
                if self.learnt_refs.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                if conflicts_this_restart as f64 >= restart_budget
                    && self.decision_level() > assumptions.len() as u32
                {
                    // Restart, keeping assumption decisions.
                    self.backtrack(assumptions.len() as u32);
                    luby_idx += 1;
                    restart_budget = 100.0 * luby(luby_idx);
                    conflicts_this_restart = 0;
                }
                // Take the next assumption, if any.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        Assign::True => {
                            // Already satisfied: open an empty decision level.
                            self.trail_lim.push(self.trail.len());
                        }
                        Assign::False => {
                            return SolveResult::Unsat;
                        }
                        Assign::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return SolveResult::Sat,
                    Some(l) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (base 2), indexed from 0:
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
fn luby(x: u32) -> f64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < (x as u64) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x as u64;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    2f64.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, pos: bool) -> Lit {
        if pos {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert!(!s.add_clause(&[Lit::neg(a)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]); // v_i -> v_{i+1}
        }
        s.add_clause(&[Lit::pos(vs[0])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for v in vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes. Var p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for j in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_results() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(&[Lit::neg(a)]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.solve(&[Lit::neg(a), Lit::neg(b)]), SolveResult::Unsat);
        // Solver still usable, and SAT without assumptions.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn budget_returns_unknown_on_hard_instance() {
        // PHP(6,5) is non-trivial for a CDCL solver; with a 5-conflict
        // budget it must give up.
        let mut s = Solver::new();
        let n = 6;
        let m = 5;
        let mut p = vec![vec![Var(0); m]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            let cls: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&cls);
        }
        for j in 0..m {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        // Raising the budget resolves it.
        s.set_conflict_budget(Some(1_000_000));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_vs_brute_force() {
        // Deterministic xorshift for reproducibility.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for iter in 0..200 {
            let nvars = 6usize;
            let nclauses = 3 + (rnd() % 24) as usize;
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut cls = Vec::new();
                for _ in 0..3 {
                    let v = (rnd() % nvars as u64) as u32;
                    let neg = rnd() % 2 == 0;
                    cls.push(lit(Var(v), !neg));
                }
                clauses.push(cls);
            }
            // Brute force.
            let mut bf_sat = false;
            'outer: for asg in 0..(1u32 << nvars) {
                for c in &clauses {
                    let ok = c.iter().any(|l| {
                        let val = asg >> l.var().0 & 1 == 1;
                        val != l.is_neg()
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                bf_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve(&[]);
            let want = if bf_sat { SolveResult::Sat } else { SolveResult::Unsat };
            assert_eq!(got, want, "iteration {iter} clauses {clauses:?}");
            if got == SolveResult::Sat {
                // Verify the model.
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(!l.is_neg())),
                        "model does not satisfy {c:?}"
                    );
                }
            }
        }
    }

    /// The heap pops in the linear scan's order — highest activity
    /// first, ties to the lower index — through bumps, rescale-style
    /// rebuilds and re-insertions.
    #[test]
    fn var_heap_matches_the_linear_scan_order() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 200u32;
        let mut activity: Vec<f64> = (0..n).map(|_| (rnd() % 8) as f64).collect();
        let mut heap = VarHeap::default();
        for v in 0..n {
            heap.insert(Var(v), &activity);
        }
        for v in (0..n).step_by(3) {
            activity[v as usize] += 2.5;
            heap.increased(Var(v), &activity);
        }
        for a in &mut activity {
            *a = (*a / 4.0).floor(); // ties appear, as after a rescale
        }
        heap.rebuild(&activity);
        let mut first: Vec<Var> = (0..20).filter_map(|_| heap.pop(&activity)).collect();
        for v in first.drain(..10) {
            heap.insert(v, &activity);
        }
        let mut want: Vec<u32> = (0..n).filter(|v| !first.contains(&Var(*v))).collect();
        want.sort_by(|&a, &b| activity[b as usize].total_cmp(&activity[a as usize]).then(a.cmp(&b)));
        let got: Vec<u32> = std::iter::from_fn(|| heap.pop(&activity)).map(|v| v.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1., 1., 2., 1., 1., 2., 4., 1., 1., 2., 1., 1., 2., 4., 8.]);
    }
}
