//! The checker's own entailment decision procedure: bit-blasting to CNF
//! plus a small conflict-learning SAT solver written from scratch — no
//! code shared with the engine's CDCL core or SMT layer.
//!
//! An entailment `⋀ᵢ (t ⇒ ψᵢ) ⊨ (t ⇒ ψ)` between template-guarded
//! relations (all guards equal after template filtering — guards are
//! mutually exclusive, so premises at other guards are vacuous) reduces to
//! a validity query over bitvectors: the two buffers (at the guard's
//! widths), one variable per `(side, header)`, and the conclusion's packet
//! variables are free (validity quantifies them universally); each
//! premise's packet variables are universally quantified *inside* the
//! goal.
//!
//! Because the formula language has no arithmetic — expressions are
//! literals, variables, slices, and concatenations — every expression bit
//! resolves statically to either a constant or a single free-variable bit.
//! Equalities therefore blast to per-bit XNORs and only the propositional
//! skeleton needs Tseitin encoding.
//!
//! The inner universal quantifiers are discharged by model-based
//! instantiation: search for a countermodel of `premises ∧ ¬conclusion`
//! treating each quantified premise only through its ground
//! instantiations; when a candidate model appears, verify each quantified
//! premise under the model with a nested search over the premise's
//! packet bits alone; a violating witness `x*` refutes the candidate and
//! its ground instantiation `ψᵢ[x := x*]` joins the clause set. Every
//! round eliminates at least the candidate model, and the model space is
//! finite, so the loop terminates.

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::Automaton;

use crate::rel::{BitExpr, ConfRel, Pure, Side};
use crate::CheckStats;

// ---------------------------------------------------------------------------
// CNF + CDCL

/// A propositional literal: variable index plus sign (`2v` positive,
/// `2v+1` negated).
type Lit = usize;

fn pos(v: usize) -> Lit {
    v << 1
}

fn neg_lit(l: Lit) -> Lit {
    l ^ 1
}

fn lit_var(l: Lit) -> usize {
    l >> 1
}

fn lit_sign(l: Lit) -> bool {
    l & 1 == 0
}

/// A CNF formula under construction.
struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    /// Set when an asserted constraint is constant-false: the formula is
    /// trivially unsatisfiable.
    contradiction: bool,
}

impl Cnf {
    fn new() -> Cnf {
        Cnf {
            num_vars: 0,
            clauses: Vec::new(),
            contradiction: false,
        }
    }

    fn fresh(&mut self) -> usize {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    fn clause(&mut self, lits: Vec<Lit>) {
        self.clauses.push(lits);
    }
}

/// A literal or a known constant, for Tseitin encoding.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PLit {
    Const(bool),
    Lit(Lit),
}

impl PLit {
    fn negate(self) -> PLit {
        match self {
            PLit::Const(b) => PLit::Const(!b),
            PLit::Lit(l) => PLit::Lit(neg_lit(l)),
        }
    }
}

/// The branching order: a binary max-heap of variables keyed on activity,
/// ties to the lower index (MiniSat's variable order, Eén & Sörensson
/// 2003). Deletion is lazy: assigned variables stay until popped, and
/// backjumping re-inserts what it unassigns.
struct VarHeap {
    heap: Vec<usize>,
    /// Each variable's slot in `heap`, `usize::MAX` when absent.
    slot: Vec<usize>,
}

impl VarHeap {
    fn new(num_vars: usize) -> VarHeap {
        VarHeap {
            heap: Vec::new(),
            slot: vec![usize::MAX; num_vars],
        }
    }

    /// Whether `a` is branched on before `b`.
    fn before(act: &[f64], a: usize, b: usize) -> bool {
        act[a] > act[b] || (act[a] == act[b] && a < b)
    }

    fn contains(&self, v: usize) -> bool {
        self.slot[v] != usize::MAX
    }

    fn place(&mut self, i: usize, v: usize) {
        self.heap[i] = v;
        self.slot[v] = i;
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !VarHeap::before(act, v, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len()
                && VarHeap::before(act, self.heap[child + 1], self.heap[child])
            {
                child += 1;
            }
            if !VarHeap::before(act, self.heap[child], v) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, v);
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if !self.contains(v) {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, act);
        }
    }

    /// Restores `v`'s position after its activity grew.
    fn raised(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.slot[v], act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is nonempty");
        self.slot[top] = usize::MAX;
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0, act);
        }
        Some(top)
    }

    /// Re-establishes the heap order from scratch (after every activity
    /// was rescaled, which can merge distinct keys into ties).
    fn rebuild(&mut self, act: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }
}

/// The conflict-driven search state. A small CDCL solver, written from
/// scratch for the trust root: two-watched-literal propagation, first-UIP
/// clause learning with non-chronological backjumping, activity-driven
/// branching from a variable heap with phase saving, and geometric
/// restarts.
///
/// Clause learning is load-bearing here, not an optimisation: the wide
/// header-to-header equalities of relational certificates make plain
/// chronological DPLL re-explore the same conflicting sub-assignments
/// exponentially often.
struct Solver {
    clauses: Vec<Vec<Lit>>,
    /// Clause indices watching each literal.
    watches: Vec<Vec<usize>>,
    /// 0 = unassigned, 1 = true, 2 = false.
    assign: Vec<u8>,
    /// The decision level each variable was assigned at.
    level: Vec<usize>,
    /// The clause that implied each variable (`None` for decisions).
    reason: Vec<Option<usize>>,
    /// The last polarity each variable held — retried first on the next
    /// decision (phase saving).
    phase: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    /// Every unassigned variable that occurs in some clause (plus, lazily,
    /// some assigned ones), by activity. Variables no clause mentions are
    /// never branched on.
    order: VarHeap,
    trail: Vec<Lit>,
    /// Trail height at each decision.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// Conflict-analysis scratch marks.
    seen: Vec<bool>,
}

impl Solver {
    fn lit_true(&self, l: Lit) -> bool {
        self.assign[lit_var(l)] == if lit_sign(l) { 1 } else { 2 }
    }

    fn lit_false(&self, l: Lit) -> bool {
        self.assign[lit_var(l)] == if lit_sign(l) { 2 } else { 1 }
    }

    /// Assigns `l` at the current decision level. Returns `false` when it
    /// contradicts the assignment already in force.
    fn enqueue(&mut self, l: Lit, why: Option<usize>) -> bool {
        let v = lit_var(l);
        match self.assign[v] {
            0 => {
                self.assign[v] = if lit_sign(l) { 1 } else { 2 };
                self.level[v] = self.trail_lim.len();
                self.reason[v] = why;
                self.trail.push(l);
                true
            }
            a => a == if lit_sign(l) { 1 } else { 2 },
        }
    }

    /// Propagates every queued assignment; returns the conflicting clause
    /// if one arises.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let falsified = neg_lit(self.trail[self.qhead]);
            self.qhead += 1;
            let mut i = 0;
            'watch: while i < self.watches[falsified].len() {
                let ci = self.watches[falsified][i];
                // Ensure the falsified literal sits in slot 1.
                if self.clauses[ci][0] == falsified {
                    self.clauses[ci].swap(0, 1);
                }
                if self.lit_true(self.clauses[ci][0]) {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for j in 2..self.clauses[ci].len() {
                    if !self.lit_false(self.clauses[ci][j]) {
                        self.clauses[ci].swap(1, j);
                        let new_watch = self.clauses[ci][1];
                        self.watches[falsified].swap_remove(i);
                        self.watches[new_watch].push(ci);
                        continue 'watch;
                    }
                }
                // No replacement: the clause is unit on slot 0 (or false).
                let unit = self.clauses[ci][0];
                if !self.enqueue(unit, Some(ci)) {
                    return Some(ci);
                }
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(v, &self.activity);
        }
    }

    /// First-UIP conflict analysis: walks the implication graph backwards
    /// from the conflicting clause until a single literal of the current
    /// level remains, bumping every variable it visits. Returns the learnt
    /// clause (asserting literal in slot 0) and the backjump level.
    fn analyze(&mut self, confl: usize) -> (Vec<Lit>, usize) {
        let dl = self.trail_lim.len();
        let mut learnt: Vec<Lit> = vec![0];
        // Current-level literals marked but not yet expanded.
        let mut pending = 0usize;
        let mut expanded = false;
        let mut idx = self.trail.len();
        let mut c = confl;
        let uip = loop {
            // Reason clauses keep the implied literal in slot 0; skip it —
            // it is the literal being expanded.
            for j in usize::from(expanded)..self.clauses[c].len() {
                let q = self.clauses[c][j];
                let v = lit_var(q);
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= dl {
                        pending += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                if self.seen[lit_var(self.trail[idx])] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[lit_var(p)] = false;
            pending -= 1;
            if pending == 0 {
                break p;
            }
            c = self.reason[lit_var(p)].expect("implied literals have reasons");
            expanded = true;
        };
        learnt[0] = neg_lit(uip);
        for &q in &learnt[1..] {
            self.seen[lit_var(q)] = false;
        }
        self.var_inc /= 0.95;
        let back = learnt[1..]
            .iter()
            .map(|&q| self.level[lit_var(q)])
            .max()
            .unwrap_or(0);
        (learnt, back)
    }

    /// Unassigns everything above decision level `back`, saving phases.
    fn backjump(&mut self, back: usize) {
        if self.trail_lim.len() <= back {
            return;
        }
        while self.trail.len() > self.trail_lim[back] {
            let l = self.trail.pop().unwrap();
            let v = lit_var(l);
            self.phase[v] = lit_sign(l);
            self.assign[v] = 0;
            self.reason[v] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(back);
        self.qhead = self.trail.len();
    }

    /// Installs a learnt clause (after backjumping to its second-highest
    /// level) and asserts its UIP literal, which is unit by construction.
    fn learn(&mut self, mut learnt: Vec<Lit>) {
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.enqueue(asserting, None);
            return;
        }
        // Slot 1 must watch a literal of the backjump level so the clause
        // wakes up exactly when that level is undone.
        let back = self.trail_lim.len();
        let wi = learnt[1..]
            .iter()
            .position(|&q| self.level[lit_var(q)] == back)
            .expect("some literal sits at the backjump level")
            + 1;
        learnt.swap(1, wi);
        let ci = self.clauses.len();
        self.watches[learnt[0]].push(ci);
        self.watches[learnt[1]].push(ci);
        self.clauses.push(learnt);
        self.enqueue(asserting, Some(ci));
    }

    /// Picks the unassigned clause variable with the highest activity
    /// (lowest index among ties) and assigns its saved phase at a new
    /// decision level. Returns `false` when every clause variable is
    /// assigned (the current trail is a model).
    fn decide(&mut self) -> bool {
        let v = loop {
            match self.order.pop(&self.activity) {
                None => return false,
                Some(v) if self.assign[v] == 0 => break v,
                Some(_) => {}
            }
        };
        self.trail_lim.push(self.trail.len());
        let l = if self.phase[v] {
            pos(v)
        } else {
            neg_lit(pos(v))
        };
        self.enqueue(l, None);
        true
    }
}

/// Decides satisfiability of a [`Cnf`], adding the search's decisions and
/// conflicts to `stats`. Returns a full assignment when satisfiable,
/// `None` when unsatisfiable. Variables no clause mentions read `true`.
fn dpll(cnf: &Cnf, stats: &mut CheckStats) -> Option<Vec<bool>> {
    if cnf.contradiction {
        return None;
    }
    let n = cnf.num_vars;
    let mut s = Solver {
        clauses: Vec::with_capacity(cnf.clauses.len()),
        watches: vec![Vec::new(); 2 * n],
        assign: vec![0; n],
        level: vec![0; n],
        reason: vec![None; n],
        phase: vec![true; n],
        activity: vec![0.0; n],
        var_inc: 1.0,
        order: VarHeap::new(n),
        trail: Vec::new(),
        trail_lim: Vec::new(),
        qhead: 0,
        seen: vec![false; n],
    };
    let mut units: Vec<Lit> = Vec::new();
    for c in &cnf.clauses {
        match c.len() {
            0 => return None,
            1 => units.push(c[0]),
            _ => {
                let ci = s.clauses.len();
                s.clauses.push(c.clone());
                s.watches[c[0]].push(ci);
                s.watches[c[1]].push(ci);
            }
        }
    }
    // Seed activities with occurrence counts so the first decisions fall
    // on the most-constrained variables.
    for c in &s.clauses {
        for &l in c {
            s.activity[lit_var(l)] += 1.0;
        }
    }
    for &l in cnf.clauses.iter().flatten() {
        s.order.insert(lit_var(l), &s.activity);
    }
    for &u in &units {
        if !s.enqueue(u, None) {
            return None;
        }
    }

    let mut conflicts = 0usize;
    let mut restart_at = 100usize;
    loop {
        if let Some(confl) = s.propagate() {
            if s.trail_lim.is_empty() {
                return None;
            }
            conflicts += 1;
            stats.sat_conflicts += 1;
            let (learnt, back) = s.analyze(confl);
            s.backjump(back);
            s.learn(learnt);
        } else if conflicts >= restart_at {
            // Restart: keep every learnt clause, drop the assignment
            // stack. The saved phases steer the search back quickly.
            conflicts = 0;
            restart_at += restart_at / 2;
            s.backjump(0);
        } else if s.decide() {
            stats.sat_decisions += 1;
        } else {
            // Unassigned variables occur in no clause; `true` is the value
            // a decision from their initial saved phase would give them.
            return Some(s.assign.iter().map(|&a| a != 2).collect());
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-blasting

/// A single formula bit: a constant or a CNF variable.
#[derive(Clone, Copy)]
enum Bit {
    Const(bool),
    Var(usize),
}

/// The blasting environment: what each buffer, header, and packet variable
/// means as a vector of bits. Nested (premise-verification) queries fix
/// the buffers and headers to model constants while the packet variables
/// get fresh CNF variables; the outer query does the reverse for premise
/// instantiations.
struct Env {
    buf_l: Vec<Bit>,
    buf_r: Vec<Bit>,
    /// Indexed by header id: the (left, right) bit vectors.
    headers: Vec<[Vec<Bit>; 2]>,
    /// The current formula's packet variables.
    vars: Vec<Vec<Bit>>,
}

impl Env {
    fn side_buf(&self, side: Side) -> &[Bit] {
        match side {
            Side::Left => &self.buf_l,
            Side::Right => &self.buf_r,
        }
    }
}

fn blast_expr(e: &BitExpr, env: &Env) -> Vec<Bit> {
    match e {
        BitExpr::Lit(bv) => bv.iter().map(Bit::Const).collect(),
        BitExpr::Buf(s) => env.side_buf(*s).to_vec(),
        BitExpr::Hdr(s, h) => {
            let pair = &env.headers[h.0 as usize];
            match s {
                Side::Left => pair[0].clone(),
                Side::Right => pair[1].clone(),
            }
        }
        BitExpr::Var(v) => env.vars[v.0 as usize].clone(),
        BitExpr::Slice(inner, start, len) => {
            let bits = blast_expr(inner, env);
            bits[*start..*start + *len].to_vec()
        }
        BitExpr::Concat(a, b) => {
            let mut bits = blast_expr(a, env);
            bits.extend(blast_expr(b, env));
            bits
        }
    }
}

/// Encodes `a ↔ b` for two bits, yielding a literal (with Tseitin
/// auxiliaries when both bits are variables).
fn bit_iff(a: Bit, b: Bit, cnf: &mut Cnf) -> PLit {
    match (a, b) {
        (Bit::Const(x), Bit::Const(y)) => PLit::Const(x == y),
        (Bit::Const(c), Bit::Var(v)) | (Bit::Var(v), Bit::Const(c)) => {
            PLit::Lit(if c { pos(v) } else { neg_lit(pos(v)) })
        }
        (Bit::Var(u), Bit::Var(v)) => {
            if u == v {
                return PLit::Const(true);
            }
            let t = pos(cnf.fresh());
            let (u, v) = (pos(u), pos(v));
            cnf.clause(vec![neg_lit(t), neg_lit(u), v]);
            cnf.clause(vec![neg_lit(t), u, neg_lit(v)]);
            cnf.clause(vec![t, u, v]);
            cnf.clause(vec![t, neg_lit(u), neg_lit(v)]);
            PLit::Lit(t)
        }
    }
}

/// Encodes the conjunction of `lits` as a single literal.
fn tseitin_and(lits: Vec<PLit>, cnf: &mut Cnf) -> PLit {
    let mut vars = Vec::with_capacity(lits.len());
    for l in lits {
        match l {
            PLit::Const(false) => return PLit::Const(false),
            PLit::Const(true) => {}
            PLit::Lit(l) => vars.push(l),
        }
    }
    match vars.len() {
        0 => PLit::Const(true),
        1 => PLit::Lit(vars[0]),
        _ => {
            let g = pos(cnf.fresh());
            let mut long = vec![g];
            for &l in &vars {
                cnf.clause(vec![neg_lit(g), l]);
                long.push(neg_lit(l));
            }
            cnf.clause(long);
            PLit::Lit(g)
        }
    }
}

fn tseitin_or(lits: Vec<PLit>, cnf: &mut Cnf) -> PLit {
    tseitin_and(lits.into_iter().map(PLit::negate).collect(), cnf).negate()
}

/// Tseitin-encodes a pure formula, returning the literal that is true iff
/// the formula holds.
fn blast_pure(p: &Pure, env: &Env, cnf: &mut Cnf) -> PLit {
    match p {
        Pure::Const(b) => PLit::Const(*b),
        Pure::Eq(a, b) => {
            let xa = blast_expr(a, env);
            let xb = blast_expr(b, env);
            if xa.len() != xb.len() {
                // Width mismatch cannot arise from a validated certificate;
                // mirror the reference bitvector semantics (unequal).
                return PLit::Const(false);
            }
            let bits = xa
                .into_iter()
                .zip(xb)
                .map(|(x, y)| bit_iff(x, y, cnf))
                .collect();
            tseitin_and(bits, cnf)
        }
        Pure::Not(q) => blast_pure(q, env, cnf).negate(),
        Pure::And(a, b) => {
            let la = blast_pure(a, env, cnf);
            let lb = blast_pure(b, env, cnf);
            tseitin_and(vec![la, lb], cnf)
        }
        Pure::Or(a, b) => {
            let la = blast_pure(a, env, cnf);
            let lb = blast_pure(b, env, cnf);
            tseitin_or(vec![la, lb], cnf)
        }
        Pure::Implies(a, b) => {
            let la = blast_pure(a, env, cnf);
            let lb = blast_pure(b, env, cnf);
            tseitin_or(vec![la.negate(), lb], cnf)
        }
    }
}

/// Asserts a blasted formula literal at the top level.
fn assert_plit(l: PLit, cnf: &mut Cnf) {
    match l {
        PLit::Const(true) => {}
        PLit::Const(false) => cnf.contradiction = true,
        PLit::Lit(l) => cnf.clause(vec![l]),
    }
}

// ---------------------------------------------------------------------------
// The entailment procedure

/// Allocates fresh CNF variables for a width, returning the bit vector.
fn fresh_bits(width: usize, cnf: &mut Cnf) -> Vec<Bit> {
    (0..width).map(|_| Bit::Var(cnf.fresh())).collect()
}

/// Reads a bit vector's value out of a solver model.
fn bits_value(bits: &[Bit], model: &[bool]) -> BitVec {
    let vals: Vec<bool> = bits
        .iter()
        .map(|b| match b {
            Bit::Const(c) => *c,
            Bit::Var(v) => model[*v],
        })
        .collect();
    BitVec::from_bits(&vals)
}

/// Freezes a bit vector to the constants of a model (for nested queries).
fn freeze(bits: &[Bit], model: &[bool]) -> Vec<Bit> {
    bits.iter()
        .map(|b| match b {
            Bit::Const(c) => Bit::Const(*c),
            Bit::Var(v) => Bit::Const(model[*v]),
        })
        .collect()
}

/// Turns concrete bitvector values into constant bit vectors.
fn const_bits(bv: &BitVec) -> Vec<Bit> {
    bv.iter().map(Bit::Const).collect()
}

/// Decides `⋀ premises ⊨ conclusion` for template-guarded relations,
/// adding the work done to `stats`. Premises whose guard differs from the
/// conclusion's are vacuous (guards are mutually exclusive) and ignored.
pub fn entails(
    aut: &Automaton,
    premises: &[ConfRel],
    conclusion: &ConfRel,
    stats: &mut CheckStats,
) -> bool {
    stats.obligations += 1;
    let relevant: Vec<&ConfRel> = premises
        .iter()
        .filter(|p| p.guard == conclusion.guard)
        .collect();

    let mut cnf = Cnf::new();

    // The free variables of the validity query: buffers at the guard's
    // widths, one bitvector per (side, header), and the conclusion's
    // packet variables. One environment serves the conclusion, every
    // ground premise and every instantiation; only `vars` changes.
    let buf_l = fresh_bits(conclusion.guard.left.buf_len, &mut cnf);
    let buf_r = fresh_bits(conclusion.guard.right.buf_len, &mut cnf);
    let headers: Vec<[Vec<Bit>; 2]> = aut
        .header_ids()
        .map(|h| {
            let w = aut.header_size(h);
            [fresh_bits(w, &mut cnf), fresh_bits(w, &mut cnf)]
        })
        .collect();
    let vars = conclusion
        .vars
        .iter()
        .map(|w| fresh_bits(*w, &mut cnf))
        .collect();
    let mut env = Env {
        buf_l,
        buf_r,
        headers,
        vars,
    };

    // Search for a countermodel: ¬conclusion …
    let c = blast_pure(&conclusion.phi, &env, &mut cnf);
    assert_plit(c.negate(), &mut cnf);

    // … under every premise. Ground premises (no packet bits) assert
    // directly; quantified ones go through model-based instantiation.
    let mut quantified: Vec<&ConfRel> = Vec::new();
    for p in relevant {
        if p.vars.iter().sum::<usize>() == 0 {
            env.vars = p.vars.iter().map(|_| Vec::new()).collect();
            let l = blast_pure(&p.phi, &env, &mut cnf);
            assert_plit(l, &mut cnf);
        } else {
            quantified.push(p);
        }
    }

    loop {
        let Some(model) = dpll(&cnf, stats) else {
            // No countermodel: the entailment holds.
            return true;
        };
        stats.cegar_rounds += 1;
        // Validate the candidate against each universally quantified
        // premise with a nested search over the premise's packet bits,
        // the buffers and headers frozen to the model.
        let mut frozen = Env {
            buf_l: freeze(&env.buf_l, &model),
            buf_r: freeze(&env.buf_r, &model),
            headers: env
                .headers
                .iter()
                .map(|[l, r]| [freeze(l, &model), freeze(r, &model)])
                .collect(),
            vars: Vec::new(),
        };
        let mut refuted = None;
        for (qi, p) in quantified.iter().enumerate() {
            let mut sub = Cnf::new();
            frozen.vars = p.vars.iter().map(|w| fresh_bits(*w, &mut sub)).collect();
            let l = blast_pure(&p.phi, &frozen, &mut sub);
            assert_plit(l.negate(), &mut sub);
            if let Some(witness) = dpll(&sub, stats) {
                let xs: Vec<BitVec> = frozen
                    .vars
                    .iter()
                    .map(|v| bits_value(v, &witness))
                    .collect();
                refuted = Some((qi, xs));
                break;
            }
        }
        match refuted {
            None => {
                // Every premise holds under the model and the conclusion
                // fails: a genuine countermodel.
                return false;
            }
            Some((qi, xs)) => {
                // The candidate violates premise `qi` at packet bits `xs`:
                // learn the ground instantiation and continue. Each round
                // eliminates at least the current model, so this
                // terminates.
                env.vars = xs.iter().map(const_bits).collect();
                let l = blast_pure(&quantified[qi].phi, &env, &mut cnf);
                assert_plit(l, &mut cnf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpll_sat_and_unsat() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        let b = cnf.fresh();
        cnf.clause(vec![pos(a), pos(b)]);
        cnf.clause(vec![neg_lit(pos(a)), pos(b)]);
        let model = dpll(&cnf, &mut CheckStats::default()).expect("satisfiable");
        assert!(model[b]);
        cnf.clause(vec![neg_lit(pos(b))]);
        assert!(dpll(&cnf, &mut CheckStats::default()).is_none());
    }

    #[test]
    fn dpll_backtracks_through_chains() {
        // (a ∨ b) ∧ (¬a ∨ c) ∧ (¬c ∨ ¬b) ∧ (¬a ∨ ¬b): satisfiable.
        let mut cnf = Cnf::new();
        let a = pos(cnf.fresh());
        let b = pos(cnf.fresh());
        let c = pos(cnf.fresh());
        cnf.clause(vec![a, b]);
        cnf.clause(vec![neg_lit(a), c]);
        cnf.clause(vec![neg_lit(c), neg_lit(b)]);
        cnf.clause(vec![neg_lit(a), neg_lit(b)]);
        assert!(dpll(&cnf, &mut CheckStats::default()).is_some());
    }

    fn satisfies(cnf: &Cnf, model: &[bool]) -> bool {
        cnf.clauses
            .iter()
            .all(|c| c.iter().any(|&l| model[lit_var(l)] == lit_sign(l)))
    }

    #[test]
    fn clause_free_variables_are_true_and_never_decided() {
        // Three clause variables in the middle of 200,000 that no clause
        // mentions: the search decides at most the three.
        let mut cnf = Cnf::new();
        for _ in 0..100_000 {
            cnf.fresh();
        }
        let a = pos(cnf.fresh());
        let b = pos(cnf.fresh());
        let c = pos(cnf.fresh());
        for _ in 0..100_000 {
            cnf.fresh();
        }
        cnf.clause(vec![a, b]);
        cnf.clause(vec![neg_lit(a), c]);
        cnf.clause(vec![neg_lit(c), neg_lit(b)]);
        let mut stats = CheckStats::default();
        let model = dpll(&cnf, &mut stats).expect("satisfiable");
        assert!(satisfies(&cnf, &model));
        let clause_vars = [a, b, c].map(lit_var);
        assert!((0..cnf.num_vars)
            .filter(|v| !clause_vars.contains(v))
            .all(|v| model[v]));
        assert!(stats.sat_decisions <= 3, "{stats:?}");
    }

    #[test]
    fn random_3cnf_agrees_with_truth_tables() {
        let mut rng = leapfrog_p4a::walk::Rng::new(0x5eed);
        let (mut sat, mut unsat) = (0, 0);
        let mut stats = CheckStats::default();
        for _ in 0..600 {
            let n = 3 + rng.below(10);
            let mut cnf = Cnf::new();
            for _ in 0..n {
                cnf.fresh();
            }
            for _ in 0..n + rng.below(8 * n) {
                let mut vars: Vec<usize> = Vec::new();
                while vars.len() < 3 {
                    let v = rng.below(n);
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                cnf.clause(vars.into_iter().map(|v| pos(v) | rng.below(2)).collect());
            }
            let brute = (0u32..1 << n).any(|bits| {
                let model: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
                satisfies(&cnf, &model)
            });
            match dpll(&cnf, &mut stats) {
                Some(model) => {
                    assert!(brute, "solver found a model of an unsatisfiable CNF");
                    assert!(satisfies(&cnf, &model), "model violates a clause");
                    sat += 1;
                }
                None => {
                    assert!(!brute, "solver refuted a satisfiable CNF");
                    unsat += 1;
                }
            }
        }
        assert!(sat > 100 && unsat > 100, "sat {sat}, unsat {unsat}");
        assert!(stats.sat_conflicts > 0, "{stats:?}");
    }

    #[test]
    fn pigeonhole_is_refuted_through_restarts() {
        // Eight pigeons in seven holes: unsatisfiable, and hard enough for
        // the search to restart (every 100+ conflicts) several times.
        let holes = 7;
        let x = |pigeon: usize, hole: usize| pos(pigeon * holes + hole);
        let mut cnf = Cnf::new();
        cnf.num_vars = (holes + 1) * holes;
        for p in 0..=holes {
            cnf.clause((0..holes).map(|h| x(p, h)).collect());
        }
        for h in 0..holes {
            for p in 0..=holes {
                for q in p + 1..=holes {
                    cnf.clause(vec![neg_lit(x(p, h)), neg_lit(x(q, h))]);
                }
            }
        }
        let mut stats = CheckStats::default();
        assert!(dpll(&cnf, &mut stats).is_none());
        assert!(stats.sat_conflicts > 1_000, "{stats:?}");
    }

    #[test]
    fn heap_pops_in_scan_order() {
        // The heap must yield what a scan for the highest activity (lowest
        // index among ties) over the same members would, through raises,
        // re-inserts and the rescale that merges nearby keys into ties.
        let n = 64;
        let mut rng = leapfrog_p4a::walk::Rng::new(7);
        let mut act: Vec<f64> = (0..n).map(|_| rng.below(4) as f64).collect();
        let mut heap = VarHeap::new(n);
        for v in 0..n {
            heap.insert(v, &act);
        }
        let mut members = vec![true; n];
        for step in 0..20_000 {
            match rng.below(4) {
                0 => {
                    let v = rng.below(n);
                    heap.insert(v, &act);
                    members[v] = true;
                }
                1 => {
                    let v = rng.below(n);
                    act[v] += if step % 2 == 0 { 1.0 } else { 1e99 };
                    heap.raised(v, &act);
                }
                2 if step % 97 == 0 => {
                    for a in &mut act {
                        *a *= 1e-100;
                    }
                    heap.rebuild(&act);
                }
                _ => {
                    let mut want: Option<usize> = None;
                    for v in (0..n).filter(|&v| members[v]) {
                        if want.is_none_or(|b| act[v] > act[b]) {
                            want = Some(v);
                        }
                    }
                    assert_eq!(heap.pop(&act), want, "step {step}");
                    if let Some(v) = want {
                        members[v] = false;
                    }
                }
            }
        }
    }
}
