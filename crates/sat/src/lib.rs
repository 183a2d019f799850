//! A CDCL SAT solver, the decision-procedure substrate of the Leapfrog
//! reproduction.
//!
//! The paper discharges bitvector verification conditions with off-the-shelf
//! SMT solvers (Z3, CVC4, Boolector). Those are unavailable in this offline
//! environment, so the reproduction ships its own solver stack: this crate
//! implements conflict-driven clause learning with the standard modern
//! machinery — two-watched-literal propagation with blocking literals,
//! dedicated binary-clause implication lists, first-UIP conflict analysis
//! with clause minimization, exponential VSIDS decision heuristics, phase
//! saving, Luby restarts and Glucose-style two-tier learnt-clause
//! management keyed on LBD (literal block distance).
//! [`leapfrog_smt`](https://docs.rs/leapfrog-smt) bit-blasts bitvector
//! formulas down to CNF over this solver.
//!
//! # Clause storage
//!
//! Clauses live in a single flat `u32` arena rather than a `Vec` of
//! heap-allocated literal vectors: each clause is a three-word header
//! (packed length + learnt flag, `f32` activity bits, LBD) followed by its
//! literals inline, and a clause reference is the arena offset of the
//! header.
//! Propagation therefore walks contiguous memory instead of chasing
//! per-clause pointers. Database reduction compacts the arena in place —
//! deleted clauses are physically reclaimed and every watcher list and
//! reason index is remapped, so long-lived incremental solvers do not grow
//! monotonically between reductions.
//!
//! # Learnt-clause management
//!
//! At learn time each clause's LBD — the number of distinct decision
//! levels among its literals — is recorded. Clauses with LBD ≤ 2 form the
//! "core" tier and are never deleted (alongside clauses currently locked
//! as propagation reasons and all binary clauses); the remainder are
//! reduced by LBD first, activity second. [`SolverConfig::lbd`] set to
//! `false` falls back to activity-only deletion for ablation runs.
//!
//! The solver is incremental: clauses may be added between [`Solver::solve`]
//! calls, and each call may pass *assumptions* (literals forced true for
//! that call only), which is how the CEGAR loop in the SMT layer refines
//! quantifier instantiations without rebuilding the CNF.
//!
//! # Examples
//!
//! ```
//! use leapfrog_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

use std::fmt;

pub mod dimacs;

/// A propositional variable, identified by a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable or its negation.
///
/// Encoded as `2 * var + sign` where `sign == 1` means negated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// The literal of `v` with the given polarity (`true` = positive).
    pub fn with_polarity(v: Var, polarity: bool) -> Lit {
        if polarity {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_neg() { "-" } else { "" },
            self.var().0
        )
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it back with [`Solver::value`].
    Sat,
    /// The clause set (under the given assumptions) is unsatisfiable.
    Unsat,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unassigned,
    True,
    False,
}

/// An arena offset naming a clause (the offset of its header word).
#[derive(Clone, Copy, PartialEq, Eq)]
struct ClauseRef(u32);

const REASON_NONE: u32 = u32::MAX;
const REASON_DECISION: u32 = u32::MAX - 1;

/// Arena words per clause before the inline literals: packed
/// length/learnt-flag, activity (`f32` bits), LBD.
const HEADER_WORDS: usize = 3;

/// A watcher entry: the clause plus a *blocking literal* — some other
/// literal of the clause. If the blocker is already true the clause is
/// satisfied and the visit resolves without touching clause memory.
#[derive(Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A binary-clause implication: when the watched literal becomes false,
/// `other` must hold (with `cref` as the reason clause).
#[derive(Clone, Copy)]
struct BinWatcher {
    other: Lit,
    cref: ClauseRef,
}

/// Number of buckets in the learnt-clause LBD histogram: buckets for
/// LBD 1..=7, with the last bucket collecting LBD ≥ 8.
pub const LBD_BUCKETS: usize = 8;

/// Buckets an LBD value into the histogram index.
pub fn lbd_bucket(lbd: u32) -> usize {
    (lbd.clamp(1, LBD_BUCKETS as u32) - 1) as usize
}

/// Statistics accumulated across all `solve` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of clauses learnt from conflicts (all lengths).
    pub learnt_clauses: u64,
    /// Histogram of learn-time LBD values: index `i` counts learnt clauses
    /// with LBD `i + 1` (last bucket: LBD ≥ [`LBD_BUCKETS`]).
    pub lbd_histogram: [u64; LBD_BUCKETS],
}

impl SolverStats {
    /// Adds another solver's counters into this one — used by warm
    /// sessions to carry totals across context rebuilds.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.deleted_clauses += other.deleted_clauses;
        self.learnt_clauses += other.learnt_clauses;
        for (a, b) in self.lbd_histogram.iter_mut().zip(other.lbd_histogram) {
            *a += b;
        }
    }

    /// The counters accumulated since `base` was snapshotted from the same
    /// accumulator — the per-run share of counters that survive across
    /// warm runs (mirrors `QueryStats::delta_since` one layer up).
    pub fn delta_since(&self, base: &SolverStats) -> SolverStats {
        let mut hist = [0u64; LBD_BUCKETS];
        for (i, h) in hist.iter_mut().enumerate() {
            *h = self.lbd_histogram[i] - base.lbd_histogram[i];
        }
        SolverStats {
            decisions: self.decisions - base.decisions,
            propagations: self.propagations - base.propagations,
            conflicts: self.conflicts - base.conflicts,
            restarts: self.restarts - base.restarts,
            deleted_clauses: self.deleted_clauses - base.deleted_clauses,
            learnt_clauses: self.learnt_clauses - base.learnt_clauses,
            lbd_histogram: hist,
        }
    }
}

/// Solver construction knobs. Read from no environment variable: the
/// engine's `EngineConfig` carries the one setting down to every solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Glucose-style two-tier LBD learnt-clause management (default on).
    /// Off falls back to activity-only deletion — the ablation baseline.
    pub lbd: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { lbd: true }
    }
}

/// A conflict-driven clause-learning SAT solver.
pub struct Solver {
    cfg: SolverConfig,
    /// The clause arena: every clause is `HEADER_WORDS` header words
    /// followed by its literals, allocated back to back.
    arena: Vec<u32>,
    watches: Vec<Vec<Watcher>>, // indexed by literal: clauses with that literal's negation watched
    bin_watches: Vec<Vec<BinWatcher>>, // indexed by literal: binary implications
    assigns: Vec<Assign>,       // indexed by var
    levels: Vec<u32>,           // indexed by var
    reasons: Vec<u32>, // indexed by var: clause arena offset, REASON_NONE or REASON_DECISION
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_index: Vec<i32>,
    // Phase saving
    saved_phase: Vec<bool>,
    // Clause activity
    cla_inc: f32,
    // Status
    unsat_at_root: bool,
    n_clauses: usize,
    n_learnt: usize,
    max_learnt: f64,
    root_clauses_added: u64,
    stats: SolverStats,
    /// Seen marks reused by conflict analysis.
    seen: Vec<bool>,
    /// Per-decision-level stamps reused by LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_stamp_gen: u64,
    /// Scratch buffer reused by `add_clause` (the template-replay hot
    /// path adds thousands of clauses per query; no per-call allocation).
    add_buf: Vec<Lit>,
    /// Scratch buffers reused by conflict analysis / learning.
    learnt_buf: Vec<Lit>,
    minimize_buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with the default configuration.
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with an explicit configuration.
    pub fn with_config(cfg: SolverConfig) -> Self {
        Solver {
            cfg,
            arena: Vec::new(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            unsat_at_root: false,
            n_clauses: 0,
            n_learnt: 0,
            max_learnt: 2000.0,
            root_clauses_added: 0,
            stats: SolverStats::default(),
            seen: Vec::new(),
            lbd_stamp: vec![0],
            lbd_stamp_gen: 0,
            add_buf: Vec::new(),
            learnt_buf: Vec::new(),
            minimize_buf: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> SolverConfig {
        self.cfg
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Unassigned);
        self.levels.push(0);
        self.reasons.push(REASON_NONE);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.heap_index.push(-1);
        self.heap_insert(v);
        v
    }

    /// The number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// The number of live clauses (original + learnt). O(1): database
    /// reduction compacts the arena, so every stored clause is live.
    pub fn num_clauses(&self) -> usize {
        self.n_clauses
    }

    /// The number of root-level [`Solver::add_clause`] calls so far — a
    /// monotone O(1) growth meter (unlike [`Solver::num_clauses`], which
    /// counts live clauses); incremental sessions budget their contexts
    /// against it.
    pub fn clauses_added(&self) -> u64 {
        self.root_clauses_added
    }

    /// Solver statistics across all calls so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Lowers the learnt-DB reduction threshold so tests can exercise
    /// database reduction on small instances.
    #[cfg(test)]
    fn set_max_learnt(&mut self, v: f64) {
        self.max_learnt = v;
    }

    // ----- arena accessors -----

    #[inline]
    fn clause_len(&self, c: ClauseRef) -> usize {
        (self.arena[c.0 as usize] >> 1) as usize
    }

    #[inline]
    fn clause_learnt(&self, c: ClauseRef) -> bool {
        self.arena[c.0 as usize] & 1 == 1
    }

    #[inline]
    fn clause_activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.arena[c.0 as usize + 1])
    }

    #[inline]
    fn set_clause_activity(&mut self, c: ClauseRef, a: f32) {
        self.arena[c.0 as usize + 1] = a.to_bits();
    }

    #[inline]
    fn clause_lbd(&self, c: ClauseRef) -> u32 {
        self.arena[c.0 as usize + 2]
    }

    #[inline]
    fn lit_at(&self, c: ClauseRef, i: usize) -> Lit {
        Lit(self.arena[c.0 as usize + HEADER_WORDS + i])
    }

    #[inline]
    fn set_lit_at(&mut self, c: ClauseRef, i: usize, l: Lit) {
        self.arena[c.0 as usize + HEADER_WORDS + i] = l.0;
    }

    /// Adds a clause. May be called between `solve` calls; the solver
    /// backtracks to the root level first. Returns `false` if the clause set
    /// is now known unsatisfiable at the root.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if self.unsat_at_root {
            return false;
        }
        self.root_clauses_added += 1;
        // Simplify: remove duplicates and false literals; detect tautology.
        // The scratch buffer keeps the template-replay path allocation-free.
        let mut cl = std::mem::take(&mut self.add_buf);
        cl.clear();
        let mut skip = false; // satisfied at root or tautological
        for &l in lits {
            debug_assert!(
                (l.var().0 as usize) < self.num_vars(),
                "literal uses unallocated var"
            );
            match self.lit_value(l) {
                Some(true) => {
                    skip = true;
                    break;
                }
                Some(false) => continue,
                None => {}
            }
            if cl.contains(&l.negate()) {
                skip = true; // tautology
                break;
            }
            if !cl.contains(&l) {
                cl.push(l);
            }
        }
        let ok = if skip {
            true
        } else {
            match cl.len() {
                0 => {
                    self.unsat_at_root = true;
                    false
                }
                1 => {
                    self.enqueue(cl[0], REASON_NONE);
                    if self.propagate().is_some() {
                        self.unsat_at_root = true;
                        false
                    } else {
                        true
                    }
                }
                _ => {
                    self.attach_clause(&cl, false, 0);
                    true
                }
            }
        };
        self.add_buf = cl;
        ok
    }

    /// Solves under the given assumptions. Assumptions are literals that
    /// must hold for this call only.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.backtrack(0);
        if self.unsat_at_root {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat_at_root = true;
            return SolveResult::Unsat;
        }

        let mut conflicts_until_restart = luby(self.stats.restarts) * 100;

        loop {
            match self.propagate() {
                Some(confl) => {
                    self.stats.conflicts += 1;
                    if self.decision_level() == 0 {
                        self.unsat_at_root = true;
                        return SolveResult::Unsat;
                    }
                    // If the conflict is at or below the assumption levels we
                    // must be careful: analyze can still learn and backjump;
                    // if it wants to backjump into assumption territory we
                    // re-establish assumptions afterwards.
                    let backjump = self.analyze(confl);
                    self.backtrack(backjump);
                    self.learn();
                    self.decay_activities();
                    conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                }
                None => {
                    if conflicts_until_restart == 0 {
                        self.stats.restarts += 1;
                        conflicts_until_restart = luby(self.stats.restarts) * 100;
                        self.backtrack(0);
                    }
                    if self.n_learnt as f64 >= self.max_learnt {
                        self.reduce_db();
                        self.max_learnt *= 1.3;
                    }
                    // Re-establish assumptions that are not yet on the trail.
                    let mut all_assumed = true;
                    for &a in assumptions {
                        match self.lit_value(a) {
                            Some(true) => continue,
                            Some(false) => return SolveResult::Unsat,
                            None => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue_decision(a);
                                all_assumed = false;
                                break;
                            }
                        }
                    }
                    if !all_assumed {
                        continue;
                    }
                    // Pick a branching variable.
                    match self.pick_branch() {
                        Some(v) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let phase = self.saved_phase[v.0 as usize];
                            self.enqueue_decision(Lit::with_polarity(v, phase));
                        }
                        None => return SolveResult::Sat,
                    }
                }
            }
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer, or `None`
    /// if the variable was irrelevant (never assigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.0 as usize] {
            Assign::True => Some(true),
            Assign::False => Some(false),
            Assign::Unassigned => None,
        }
    }

    /// The model value of a literal.
    pub fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b != l.is_neg())
    }

    // ----- internals -----

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Allocates a clause in the arena and hooks up its watchers. Binary
    /// clauses go to the implication lists; longer clauses get two
    /// blocking-literal watchers.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef(self.arena.len() as u32);
        self.arena
            .push(((lits.len() as u32) << 1) | u32::from(learnt));
        self.arena.push(self.cla_inc.to_bits());
        self.arena.push(lbd);
        self.arena.extend(lits.iter().map(|l| l.0));
        if lits.len() == 2 {
            self.bin_watches[lits[0].negate().index()].push(BinWatcher {
                other: lits[1],
                cref,
            });
            self.bin_watches[lits[1].negate().index()].push(BinWatcher {
                other: lits[0],
                cref,
            });
        } else {
            self.watches[lits[0].negate().index()].push(Watcher {
                cref,
                blocker: lits[1],
            });
            self.watches[lits[1].negate().index()].push(Watcher {
                cref,
                blocker: lits[0],
            });
        }
        self.n_clauses += 1;
        if learnt {
            self.n_learnt += 1;
        }
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.lit_value(l).is_none());
        let v = l.var().0 as usize;
        self.assigns[v] = if l.is_neg() {
            Assign::False
        } else {
            Assign::True
        };
        self.levels[v] = self.decision_level();
        self.reasons[v] = reason;
        self.saved_phase[v] = !l.is_neg();
        self.trail.push(l);
    }

    fn enqueue_decision(&mut self, l: Lit) {
        self.enqueue(l, REASON_DECISION);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Binary implications first: no clause memory touched at all.
            for k in 0..self.bin_watches[p.index()].len() {
                let bw = self.bin_watches[p.index()][k];
                match self.lit_value(bw.other) {
                    Some(true) => {}
                    Some(false) => {
                        self.qhead = self.trail.len();
                        return Some(bw.cref);
                    }
                    None => {
                        // Analyze/minimize rely on a reason clause keeping
                        // its implied literal in slot 0.
                        if self.lit_at(bw.cref, 0) != bw.other {
                            let l0 = self.lit_at(bw.cref, 0);
                            self.set_lit_at(bw.cref, 0, bw.other);
                            self.set_lit_at(bw.cref, 1, l0);
                        }
                        self.enqueue(bw.other, bw.cref.0);
                    }
                }
            }

            // Long clauses through the blocking-literal watchers.
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            let not_p = p.negate();
            'watchers: while i < watch_list.len() {
                let w = watch_list[i];
                // Satisfied through the blocker: done without touching the
                // clause.
                if self.lit_value(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // Ensure lits[1] is the false literal (~p).
                if self.lit_at(cref, 0) == not_p {
                    let l1 = self.lit_at(cref, 1);
                    self.set_lit_at(cref, 0, l1);
                    self.set_lit_at(cref, 1, not_p);
                }
                let first = self.lit_at(cref, 0);
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    watch_list[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clause_len(cref);
                for k in 2..len {
                    let lk = self.lit_at(cref, k);
                    if self.lit_value(lk) != Some(false) {
                        self.set_lit_at(cref, 1, lk);
                        self.set_lit_at(cref, k, not_p);
                        self.watches[lk.negate().index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        watch_list.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                watch_list[i].blocker = first;
                if self.lit_value(first) == Some(false) {
                    conflict = Some(cref);
                    break;
                }
                self.enqueue(first, cref.0);
                i += 1;
            }
            // Put back the (possibly shrunk) watch list, preserving any
            // watchers appended while we processed (none are, since we only
            // push to *other* literals' lists, but be defensive).
            let appended = std::mem::take(&mut self.watches[p.index()]);
            self.watches[p.index()] = watch_list;
            self.watches[p.index()].extend(appended);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the backjump level; the learnt
    /// clause (asserting literal first) is left in `self.learnt_buf` for
    /// [`Solver::learn`] — buffers are reused across conflicts, so the
    /// conflict loop does not allocate.
    fn analyze(&mut self, confl: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit(0)); // placeholder for asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut trail_idx = self.trail.len();
        let level = self.decision_level();

        loop {
            // Bump clause activity on learnt clauses (the reduction tier).
            if self.clause_learnt(confl) {
                let a = self.clause_activity(confl) + self.cla_inc;
                self.set_clause_activity(confl, a);
            }
            let len = self.clause_len(confl);
            let start = usize::from(p.is_some());
            for k in start..len {
                let q = self.lit_at(confl, k);
                let v = q.var().0 as usize;
                if !self.seen[v] && self.levels[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.levels[v] >= level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.unwrap().negate();
                break;
            }
            let r = self.reasons[pv];
            debug_assert!(r != REASON_NONE && r != REASON_DECISION);
            confl = ClauseRef(r);
        }

        // Clause minimization: drop literals implied by the rest. The
        // redundancy check consults the seen marks of the *full* pre-
        // minimization clause, so filter from a snapshot and only clear
        // the marks afterwards.
        let mut snapshot = std::mem::take(&mut self.minimize_buf);
        snapshot.clear();
        snapshot.extend_from_slice(&learnt);
        learnt.truncate(1);
        for &l in &snapshot[1..] {
            if !self.redundant(l) {
                learnt.push(l);
            }
        }

        // Clear seen marks.
        for l in &snapshot {
            self.seen[l.var().0 as usize] = false;
        }
        self.minimize_buf = snapshot;

        // Compute backjump level: second-highest level in clause.
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var().0 as usize]
                    > self.levels[learnt[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var().0 as usize]
        };
        self.learnt_buf = learnt;
        backjump
    }

    /// A literal is redundant in a learnt clause if its reason clause's
    /// literals are all already in the clause (single-step minimization).
    fn redundant(&self, l: Lit) -> bool {
        let v = l.var().0 as usize;
        let r = self.reasons[v];
        if r == REASON_NONE || r == REASON_DECISION {
            return false;
        }
        let c = ClauseRef(r);
        (1..self.clause_len(c)).all(|k| {
            let qv = self.lit_at(c, k).var().0 as usize;
            self.seen[qv] || self.levels[qv] == 0
        })
    }

    /// The LBD (literal block distance) of a clause: the number of
    /// distinct nonzero decision levels among its literals. Computed at
    /// learn time, when every literal is assigned.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp_gen += 1;
        let gen = self.lbd_stamp_gen;
        let mut lbd = 0u32;
        for &l in lits {
            let lev = self.levels[l.var().0 as usize] as usize;
            if lev > 0 && self.lbd_stamp[lev] != gen {
                self.lbd_stamp[lev] = gen;
                lbd += 1;
            }
        }
        lbd
    }

    /// Attaches the clause left in `learnt_buf` by [`Solver::analyze`] and
    /// enqueues its asserting literal.
    fn learn(&mut self) {
        let clause = std::mem::take(&mut self.learnt_buf);
        self.stats.learnt_clauses += 1;
        let asserting = clause[0];
        if clause.len() == 1 {
            self.enqueue(asserting, REASON_NONE);
        } else {
            let lbd = self.compute_lbd(&clause);
            self.stats.lbd_histogram[lbd_bucket(lbd)] += 1;
            let cref = self.attach_clause(&clause, true, lbd);
            self.enqueue(asserting, cref.0);
        }
        self.learnt_buf = clause;
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var().0 as usize;
                self.assigns[v] = Assign::Unassigned;
                self.reasons[v] = REASON_NONE;
                if self.heap_index[v] < 0 {
                    self.heap_insert(l.var());
                }
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
        if level == 0 {
            self.qhead = self.qhead.min(self.trail.len());
        }
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.0 as usize] == Assign::Unassigned {
                return Some(v);
            }
        }
        None
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
        if self.var_inc > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.cla_inc > 1e20 {
            // Rescale every stored clause activity in the arena.
            let mut off = 0usize;
            while off < self.arena.len() {
                let c = ClauseRef(off as u32);
                let a = self.clause_activity(c) * 1e-20;
                self.set_clause_activity(c, a);
                off += HEADER_WORDS + self.clause_len(c);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn bump_var(&mut self, v: Var) {
        let i = v.0 as usize;
        self.activity[i] += self.var_inc;
        if self.activity[i] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_index[i] >= 0 {
            self.heap_sift_up(self.heap_index[i] as usize);
        }
    }

    /// Whether a clause is currently a propagation reason (and therefore
    /// must survive reduction). Reasons keep their implied literal at
    /// position 0, so the check is O(1).
    fn locked(&self, c: ClauseRef) -> bool {
        let first = self.lit_at(c, 0);
        self.lit_value(first) == Some(true) && self.reasons[first.var().0 as usize] == c.0
    }

    /// Deletes the worst half of the deletable learnt clauses and compacts
    /// the arena. With LBD management on, the deletable tier excludes
    /// "core" clauses (LBD ≤ 2) and sorts by LBD first, activity second;
    /// with it off, the tier is all long learnt clauses sorted by activity
    /// alone. Binary and locked (reason) clauses always survive.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<ClauseRef> = Vec::new();
        let mut off = 0usize;
        while off < self.arena.len() {
            let c = ClauseRef(off as u32);
            let len = self.clause_len(c);
            if self.clause_learnt(c)
                && len > 2
                && !(self.cfg.lbd && self.clause_lbd(c) <= 2)
                && !self.locked(c)
            {
                candidates.push(c);
            }
            off += HEADER_WORDS + len;
        }
        if self.cfg.lbd {
            // Worst first: highest LBD, then lowest activity; arena offset
            // as the deterministic tiebreak.
            candidates.sort_by(|&a, &b| {
                self.clause_lbd(b)
                    .cmp(&self.clause_lbd(a))
                    .then(self.clause_activity(a).total_cmp(&self.clause_activity(b)))
                    .then(a.0.cmp(&b.0))
            });
        } else {
            candidates.sort_by(|&a, &b| {
                self.clause_activity(a)
                    .total_cmp(&self.clause_activity(b))
                    .then(a.0.cmp(&b.0))
            });
        }
        let half = candidates.len() / 2;
        if half == 0 {
            return;
        }
        let mut doomed: Vec<u32> = candidates[..half].iter().map(|c| c.0).collect();
        doomed.sort_unstable();
        self.n_learnt -= half;
        self.n_clauses -= half;
        self.stats.deleted_clauses += half as u64;
        self.compact(&doomed);
    }

    /// Physically reclaims the clauses at the given (sorted) arena offsets:
    /// slides every surviving clause down in one pass, then remaps watcher
    /// lists (order-preserving — determinism depends on it), binary
    /// implication lists and reason indices.
    fn compact(&mut self, doomed: &[u32]) {
        // One forward pass: move survivors down, recording (old, new)
        // offsets in increasing order for binary-search remapping.
        let mut live: Vec<(u32, u32)> = Vec::with_capacity(self.n_clauses);
        let mut src = 0usize;
        let mut dst = 0usize;
        let mut di = 0usize;
        while src < self.arena.len() {
            let sz = HEADER_WORDS + self.clause_len(ClauseRef(src as u32));
            if di < doomed.len() && doomed[di] == src as u32 {
                di += 1;
                src += sz;
                continue;
            }
            live.push((src as u32, dst as u32));
            if src != dst {
                self.arena.copy_within(src..src + sz, dst);
            }
            src += sz;
            dst += sz;
        }
        self.arena.truncate(dst);
        let remap = |old: u32| -> Option<u32> {
            live.binary_search_by_key(&old, |&(o, _)| o)
                .ok()
                .map(|i| live[i].1)
        };
        for list in &mut self.watches {
            list.retain_mut(|w| match remap(w.cref.0) {
                Some(n) => {
                    w.cref.0 = n;
                    true
                }
                None => false,
            });
        }
        // Binary clauses are never deleted; their refs just shift.
        for list in &mut self.bin_watches {
            for bw in list.iter_mut() {
                bw.cref.0 = remap(bw.cref.0).expect("binary clause deleted");
            }
        }
        // Reason clauses are locked during reduction, so every remaining
        // reason index maps to a live clause.
        for r in &mut self.reasons {
            if *r != REASON_NONE && *r != REASON_DECISION {
                *r = remap(*r).expect("reason clause deleted");
            }
        }
    }

    // ----- binary heap ordered by activity (max-heap) -----

    fn heap_insert(&mut self, v: Var) {
        self.heap.push(v);
        let i = self.heap.len() - 1;
        self.heap_index[v.0 as usize] = i as i32;
        self.heap_sift_up(i);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_index[top.0 as usize] = -1;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_index[last.0 as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i].0 as usize] > self.activity[self.heap[parent].0 as usize]
            {
                self.heap.swap(i, parent);
                self.heap_index[self.heap[i].0 as usize] = i as i32;
                self.heap_index[self.heap[parent].0 as usize] = parent as i32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].0 as usize]
                    > self.activity[self.heap[best].0 as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].0 as usize]
                    > self.activity[self.heap[best].0 as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            self.heap_index[self.heap[i].0 as usize] = i as i32;
            self.heap_index[self.heap[best].0 as usize] = best as i32;
            i = best;
        }
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ... (`i` is 0-based).
fn luby(i: u64) -> u64 {
    let mut i = i + 1;
    loop {
        let mut k = 1u64;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivially_sat_empty() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(true));
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::pos(v)]));
        assert!(!s.add_clause(&[Lit::neg(v)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn simple_conflict_requires_learning() {
        // (a | b) & (a | !b) & (!a | b) & (!a | !b) is unsat.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let (a, b) = (v[0], v[1]);
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::pos(a), Lit::neg(b)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, ... encoded as CNF; satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        for w in v.windows(2) {
            let (a, b) = (w[0], w[1]);
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for w in v.windows(2) {
            assert_ne!(s.value(w[0]), s.value(w[1]));
        }
    }

    /// Pigeonhole principle: n+1 pigeons in n holes is unsat.
    fn pigeonhole(pigeons: usize, holes: usize) -> (Solver, Vec<Vec<Var>>) {
        let mut s = Solver::new();
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &grid {
            let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for row2 in grid.iter().skip(p1 + 1) {
                    s.add_clause(&[Lit::neg(grid[p1][h]), Lit::neg(row2[h])]);
                }
            }
        }
        (s, grid)
    }

    #[test]
    fn pigeonhole_4_in_3_unsat() {
        let (mut s, _) = pigeonhole(4, 3);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_in_4_unsat() {
        let (mut s, _) = pigeonhole(5, 4);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_in_3_sat() {
        let (mut s, grid) = pigeonhole(3, 3);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Verify the model is a valid assignment of pigeons to distinct holes.
        let mut used = [false; 3];
        for row in &grid {
            let hole = row.iter().position(|&v| s.value(v) == Some(true)).unwrap();
            assert!(!used[hole]);
            used[hole] = true;
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(
            s.solve(&[Lit::neg(v[0]), Lit::neg(v[1])]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(&[Lit::neg(v[0])]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // Solver is reusable after assumption-unsat.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause(&[Lit::neg(v[0])]);
        s.add_clause(&[Lit::neg(v[1])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        s.add_clause(&[Lit::neg(v[2])]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        // Once root-unsat, stays unsat.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn tautology_and_duplicates_handled() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert!(s.add_clause(&[Lit::pos(v[1]), Lit::pos(v[1])]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    /// Brute-force CNF evaluation for differential testing.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
        for m in 0u32..(1 << num_vars) {
            let assign = |v: usize| (m >> v) & 1 == 1;
            if clauses
                .iter()
                .all(|c| c.iter().any(|&(v, pos)| assign(v) == pos))
            {
                return true;
            }
        }
        false
    }

    #[test]
    fn random_3sat_matches_brute_force() {
        // Deterministic LCG so the test is reproducible.
        let mut state = 0xdeadbeefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..60 {
            let n = 4 + (next() as usize % 5); // 4..8 vars
            let m = 6 + (next() as usize % 25); // 6..30 clauses
            let clauses: Vec<Vec<(usize, bool)>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| (next() as usize % n, next() & 1 == 0))
                        .collect()
                })
                .collect();
            let expected = brute_force_sat(n, &clauses);
            let mut s = Solver::new();
            let vars = lits(&mut s, n);
            for c in &clauses {
                let cl: Vec<Lit> = c
                    .iter()
                    .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                    .collect();
                s.add_clause(&cl);
            }
            let got = s.solve(&[]) == SolveResult::Sat;
            assert_eq!(
                got, expected,
                "round {round}: solver disagrees with brute force"
            );
            if got {
                // Verify the model actually satisfies every clause, reading
                // unassigned (irrelevant) variables as false.
                for c in &clauses {
                    assert!(
                        c.iter()
                            .any(|&(v, pos)| s.value(vars[v]).unwrap_or(false) == pos),
                        "model does not satisfy clause"
                    );
                }
            }
        }
    }

    /// Walks the arena and counts stored clauses; cross-checks the O(1)
    /// live count and that every watcher references a valid header.
    fn check_arena_consistency(s: &Solver) {
        let mut starts = Vec::new();
        let mut off = 0usize;
        while off < s.arena.len() {
            starts.push(off as u32);
            off += HEADER_WORDS + s.clause_len(ClauseRef(off as u32));
        }
        assert_eq!(off, s.arena.len(), "arena has trailing garbage");
        assert_eq!(starts.len(), s.n_clauses, "live count diverged");
        for list in &s.watches {
            for w in list {
                assert!(starts.binary_search(&w.cref.0).is_ok());
            }
        }
        for list in &s.bin_watches {
            for bw in list {
                assert!(starts.binary_search(&bw.cref.0).is_ok());
            }
        }
    }

    #[test]
    fn reduce_db_reclaims_deleted_clauses() {
        // Force frequent DB reductions on an instance that learns plenty of
        // clauses, then check the arena was actually compacted: every
        // stored clause is live, so allocated words shrink when clauses are
        // deleted. Before compaction existed, deleted clauses stayed in the
        // store and in the watcher lists forever.
        let (mut s, _) = pigeonhole(5, 4);
        s.set_max_learnt(20.0);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let st = s.stats();
        assert!(
            st.deleted_clauses > 0,
            "test did not exercise DB reduction (deleted={})",
            st.deleted_clauses
        );
        check_arena_consistency(&s);
        assert_eq!(s.num_clauses(), s.n_clauses);
    }

    #[test]
    fn reduce_db_preserves_verdicts_incrementally() {
        // A solver that reduced its DB mid-run must keep answering
        // correctly on later incremental calls.
        let mut s2 = Solver::new();
        let vars = lits(&mut s2, 8);
        s2.set_max_learnt(4.0);
        // Random-ish 3-SAT over 8 vars, solved repeatedly with clause
        // additions in between; brute force checks each verdict.
        let mut state = 0x5eed5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
        for _ in 0..40 {
            let c: Vec<(usize, bool)> = (0..3)
                .map(|_| (next() as usize % 8, next() & 1 == 0))
                .collect();
            let cl: Vec<Lit> = c
                .iter()
                .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                .collect();
            clauses.push(c);
            s2.add_clause(&cl);
            let got = s2.solve(&[]) == SolveResult::Sat;
            let expected = brute_force_sat(8, &clauses);
            assert_eq!(got, expected, "incremental verdict diverged");
            check_arena_consistency(&s2);
        }
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, _) = pigeonhole(4, 3);
        s.solve(&[]);
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.propagations > 0);
        assert!(st.learnt_clauses > 0);
        assert!(
            st.lbd_histogram.iter().sum::<u64>() > 0,
            "LBD histogram not populated"
        );
    }

    // ----- differential testing against a naive reference DPLL -----

    /// A deliberately simple reference solver: recursive DPLL with unit
    /// propagation and no learning. Returns a model on SAT.
    fn reference_dpll(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Option<Vec<bool>> {
        fn go(assign: &mut Vec<Option<bool>>, clauses: &[Vec<(usize, bool)>]) -> bool {
            // Unit propagation to fixpoint; detect conflicts.
            loop {
                let mut changed = false;
                for c in clauses {
                    let mut unassigned: Option<(usize, bool)> = None;
                    let mut n_unassigned = 0;
                    let mut satisfied = false;
                    for &(v, pos) in c {
                        match assign[v] {
                            Some(b) if b == pos => {
                                satisfied = true;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                n_unassigned += 1;
                                unassigned = Some((v, pos));
                            }
                        }
                    }
                    if satisfied {
                        continue;
                    }
                    match n_unassigned {
                        0 => return false, // conflict
                        1 => {
                            let (v, pos) = unassigned.unwrap();
                            assign[v] = Some(pos);
                            changed = true;
                        }
                        _ => {}
                    }
                }
                if !changed {
                    break;
                }
            }
            // Branch on the first unassigned variable.
            match assign.iter().position(|a| a.is_none()) {
                None => true,
                Some(v) => {
                    for b in [true, false] {
                        let saved = assign.clone();
                        assign[v] = Some(b);
                        if go(assign, clauses) {
                            return true;
                        }
                        *assign = saved;
                    }
                    false
                }
            }
        }
        let mut assign = vec![None; num_vars];
        if go(&mut assign, clauses) {
            Some(assign.into_iter().map(|a| a.unwrap_or(false)).collect())
        } else {
            None
        }
    }

    /// Fixed-seed CNF generator shared by the property loops below.
    fn random_cnf(next: &mut impl FnMut() -> u32) -> (usize, Vec<Vec<(usize, bool)>>) {
        let n = 5 + (next() as usize % 8); // 5..12 vars
        let m = 10 + (next() as usize % 40); // 10..49 clauses
        let clauses = (0..m)
            .map(|_| {
                let width = 2 + (next() as usize % 3); // 2..4 literals
                (0..width)
                    .map(|_| (next() as usize % n, next() & 1 == 0))
                    .collect()
            })
            .collect();
        (n, clauses)
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    #[test]
    fn property_cdcl_matches_reference_dpll() {
        // SAT/UNSAT agreement with an independent reference solver, and
        // model validity on SAT, for both LBD settings of the CDCL core.
        let mut next = lcg(0xc0ffee11);
        for round in 0..120 {
            let (n, clauses) = random_cnf(&mut next);
            let reference = reference_dpll(n, &clauses);
            for lbd in [true, false] {
                let mut s = Solver::with_config(SolverConfig { lbd });
                s.set_max_learnt(8.0); // exercise reduction constantly
                let vars = lits(&mut s, n);
                for c in &clauses {
                    let cl: Vec<Lit> = c
                        .iter()
                        .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                        .collect();
                    s.add_clause(&cl);
                }
                let got = s.solve(&[]) == SolveResult::Sat;
                assert_eq!(
                    got,
                    reference.is_some(),
                    "round {round} (lbd={lbd}): CDCL disagrees with reference DPLL"
                );
                if got {
                    for c in &clauses {
                        assert!(
                            c.iter()
                                .any(|&(v, pos)| s.value(vars[v]).unwrap_or(false) == pos),
                            "round {round} (lbd={lbd}): invalid model"
                        );
                    }
                }
                check_arena_consistency(&s);
            }
        }
    }

    #[test]
    fn property_assumption_paths_match_reference() {
        // solve(assumptions) must agree with the reference DPLL run on the
        // CNF extended by the assumption units, and leave the solver
        // reusable afterwards.
        let mut next = lcg(0xab5eed42);
        for round in 0..60 {
            let (n, clauses) = random_cnf(&mut next);
            let mut s = Solver::new();
            let vars = lits(&mut s, n);
            for c in &clauses {
                let cl: Vec<Lit> = c
                    .iter()
                    .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                    .collect();
                s.add_clause(&cl);
            }
            let base_sat = s.solve(&[]) == SolveResult::Sat;
            for _trial in 0..4 {
                let n_assumps = 1 + (next() as usize % 3);
                let assumps: Vec<(usize, bool)> = (0..n_assumps)
                    .map(|_| (next() as usize % n, next() & 1 == 0))
                    .collect();
                let lits_a: Vec<Lit> = assumps
                    .iter()
                    .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                    .collect();
                let mut extended = clauses.clone();
                // Contradictory assumptions make the extension trivially
                // unsat; the unit clauses encode that too.
                extended.extend(assumps.iter().map(|&a| vec![a]));
                let expected = reference_dpll(n, &extended).is_some();
                let got = s.solve(&lits_a) == SolveResult::Sat;
                assert_eq!(
                    got, expected,
                    "round {round}: assumption verdict diverged (assumps {assumps:?})"
                );
            }
            // The solver answers the unassumed query identically after
            // arbitrary assumption probes.
            assert_eq!(
                s.solve(&[]) == SolveResult::Sat,
                base_sat,
                "round {round}: solver state corrupted by assumption probes"
            );
        }
    }

    #[test]
    fn property_incremental_add_solve_interleaving() {
        // add-solve-add-solve: growing the CNF between calls must match
        // the reference on every prefix.
        let mut next = lcg(0x1234_fedc);
        for round in 0..30 {
            let (n, clauses) = random_cnf(&mut next);
            let mut s = Solver::new();
            s.set_max_learnt(6.0);
            let vars = lits(&mut s, n);
            let mut so_far: Vec<Vec<(usize, bool)>> = Vec::new();
            for chunk in clauses.chunks(5) {
                for c in chunk {
                    let cl: Vec<Lit> = c
                        .iter()
                        .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                        .collect();
                    s.add_clause(&cl);
                    so_far.push(c.clone());
                }
                let expected = reference_dpll(n, &so_far).is_some();
                let got = s.solve(&[]) == SolveResult::Sat;
                assert_eq!(
                    got,
                    expected,
                    "round {round}: prefix verdict diverged at {} clauses",
                    so_far.len()
                );
                if !got {
                    break; // root-unsat is absorbing
                }
            }
        }
    }

    #[test]
    fn lbd_toggle_preserves_verdicts() {
        // The ablation knob may change models and search order but never
        // verdicts.
        let mut next = lcg(0x9e3779b9);
        for round in 0..60 {
            let (n, clauses) = random_cnf(&mut next);
            let mut verdicts = Vec::new();
            for lbd in [true, false] {
                let mut s = Solver::with_config(SolverConfig { lbd });
                s.set_max_learnt(8.0);
                let vars = lits(&mut s, n);
                for c in &clauses {
                    let cl: Vec<Lit> = c
                        .iter()
                        .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                        .collect();
                    s.add_clause(&cl);
                }
                verdicts.push(s.solve(&[]));
            }
            assert_eq!(
                verdicts[0], verdicts[1],
                "round {round}: LBD toggle changed the verdict"
            );
        }
    }
}
