//! Bit-blasting of quantifier-free `FOL(BV)` formulas to CNF.
//!
//! Every bitvector variable becomes a block of propositional variables (one
//! per bit, leftmost first). Terms evaluate symbolically to vectors of
//! [`BBit`]s (constants or SAT literals); equalities and boolean connectives
//! are Tseitin-encoded straight onto the [`leapfrog_sat::Solver`].
//!
//! The context is *incremental*: the CEGAR loop in [`crate::solve`] keeps
//! one context alive and asserts additional quantifier instantiations as
//! they are discovered, reusing all learnt clauses.

use std::collections::HashMap;

use leapfrog_bitvec::BitVec;
use leapfrog_sat::{Lit, SolveResult, Solver, SolverStats};

use crate::term::{BvVar, Declarations, Formula, Model, Term};

/// A single blasted bit: either a known constant or a SAT literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BBit {
    /// A constant bit.
    Const(bool),
    /// A SAT literal.
    Lit(Lit),
}

/// An incremental bit-blasting context over one CDCL solver.
#[derive(Default)]
pub struct BlastContext {
    solver: Solver,
    var_bits: HashMap<BvVar, Vec<Lit>>,
    /// A literal constrained to be true, used to encode constants.
    true_lit: Option<Lit>,
}

impl BlastContext {
    /// Creates an empty context over a fresh solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access to the underlying solver, for statistics.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = self.fresh();
        self.solver.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// The SAT literals representing `v`'s bits, allocating on first use.
    pub fn bits_of_var(&mut self, decls: &Declarations, v: BvVar) -> Vec<Lit> {
        if let Some(bits) = self.var_bits.get(&v) {
            return bits.clone();
        }
        let w = decls.width(v);
        let bits: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
        self.var_bits.insert(v, bits.clone());
        bits
    }

    /// Symbolically evaluates a term to its bit representation.
    pub fn blast_term(&mut self, decls: &Declarations, t: &Term) -> Vec<BBit> {
        match t {
            Term::Lit(bv) => bv.iter().map(BBit::Const).collect(),
            Term::Var(v) => self
                .bits_of_var(decls, *v)
                .into_iter()
                .map(BBit::Lit)
                .collect(),
            Term::Slice(inner, start, len) => {
                let bits = self.blast_term(decls, inner);
                assert!(
                    start + len <= bits.len(),
                    "ill-typed slice reached the blaster: [{start}; {len}] of width {}",
                    bits.len()
                );
                bits[*start..start + len].to_vec()
            }
            Term::Concat(a, b) => {
                let mut bits = self.blast_term(decls, a);
                bits.extend(self.blast_term(decls, b));
                bits
            }
        }
    }

    /// Encodes "bit `a` equals bit `b`" as a literal (possibly constant).
    fn bit_iff(&mut self, a: BBit, b: BBit) -> BBit {
        match (a, b) {
            (BBit::Const(x), BBit::Const(y)) => BBit::Const(x == y),
            (BBit::Const(c), BBit::Lit(l)) | (BBit::Lit(l), BBit::Const(c)) => {
                BBit::Lit(if c { l } else { !l })
            }
            (BBit::Lit(x), BBit::Lit(y)) => {
                if x == y {
                    return BBit::Const(true);
                }
                if x == !y {
                    return BBit::Const(false);
                }
                let g = self.fresh();
                // g <-> (x <-> y)
                self.solver.add_clause(&[!g, !x, y]);
                self.solver.add_clause(&[!g, x, !y]);
                self.solver.add_clause(&[g, x, y]);
                self.solver.add_clause(&[g, !x, !y]);
                BBit::Lit(g)
            }
        }
    }

    /// Encodes the conjunction of a list of bits as a literal.
    fn big_and(&mut self, bits: Vec<BBit>) -> BBit {
        let mut lits = Vec::with_capacity(bits.len());
        for b in bits {
            match b {
                BBit::Const(false) => return BBit::Const(false),
                BBit::Const(true) => {}
                BBit::Lit(l) => lits.push(l),
            }
        }
        match lits.len() {
            0 => BBit::Const(true),
            1 => BBit::Lit(lits[0]),
            _ => {
                let g = self.fresh();
                // g -> l_i for all i; (and l_i) -> g.
                let mut last = vec![g];
                for &l in &lits {
                    self.solver.add_clause(&[!g, l]);
                    last.push(!l);
                }
                self.solver.add_clause(&last);
                BBit::Lit(g)
            }
        }
    }

    /// Tseitin-encodes a quantifier-free formula, returning a representative
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if the formula contains a quantifier.
    pub fn blast_formula(&mut self, decls: &Declarations, f: &Formula) -> BBit {
        match f {
            Formula::Const(b) => BBit::Const(*b),
            Formula::Eq(a, b) => {
                let ba = self.blast_term(decls, a);
                let bb = self.blast_term(decls, b);
                assert_eq!(ba.len(), bb.len(), "ill-typed equality reached the blaster");
                let iffs: Vec<BBit> = ba
                    .into_iter()
                    .zip(bb)
                    .map(|(x, y)| self.bit_iff(x, y))
                    .collect();
                self.big_and(iffs)
            }
            Formula::Not(inner) => match self.blast_formula(decls, inner) {
                BBit::Const(b) => BBit::Const(!b),
                BBit::Lit(l) => BBit::Lit(!l),
            },
            Formula::And(a, b) => {
                let x = self.blast_formula(decls, a);
                let y = self.blast_formula(decls, b);
                self.big_and(vec![x, y])
            }
            Formula::Or(a, b) => {
                let x = self.blast_formula(decls, a);
                let y = self.blast_formula(decls, b);
                let (nx, ny) = (negate(x), negate(y));
                let n = self.big_and(vec![nx, ny]);
                negate(n)
            }
            Formula::Implies(a, b) => {
                let x = self.blast_formula(decls, a);
                let y = self.blast_formula(decls, b);
                let nx = negate(x);
                let (nnx, ny) = (negate(nx), negate(y));
                let n = self.big_and(vec![nnx, ny]);
                negate(n)
            }
            Formula::Forall(_, _) => {
                panic!("quantified formula reached the bit-blaster; expand quantifiers first")
            }
        }
    }

    /// Asserts a quantifier-free formula (forces it true).
    ///
    /// Returns `false` if the context became unsatisfiable at the root.
    pub fn assert_formula(&mut self, decls: &Declarations, f: &Formula) -> bool {
        match self.blast_formula(decls, f) {
            BBit::Const(true) => true,
            BBit::Const(false) => {
                let t = self.true_lit();
                self.solver.add_clause(&[!t])
            }
            BBit::Lit(l) => self.solver.add_clause(&[l]),
        }
    }

    /// A fresh, unconstrained SAT literal — used by incremental callers as
    /// an *activation literal*: gate per-query clauses with its negation,
    /// solve under the assumption, then retire the query by asserting the
    /// negation (see [`crate::solve`] / `leapfrog_logic`'s guard sessions).
    pub fn fresh_activation_lit(&mut self) -> Lit {
        self.fresh()
    }

    /// Adds a raw clause over literals previously handed out by this
    /// context. Returns `false` if the solver became unsatisfiable.
    pub fn add_clause_raw(&mut self, lits: &[Lit]) -> bool {
        self.solver.add_clause(lits)
    }

    /// Solves the asserted constraints; on SAT, extracts a model for all
    /// variables that have been blasted so far (unassigned bits read as 0).
    pub fn solve(&mut self, decls: &Declarations) -> Option<Model> {
        self.solve_with(decls, &[])
    }

    /// [`BlastContext::solve`] under assumption literals: the assumptions
    /// hold for this call only, so activation-gated clause groups can be
    /// switched on per query without permanent assertion.
    pub fn solve_with(&mut self, decls: &Declarations, assumptions: &[Lit]) -> Option<Model> {
        match self.solver.solve(assumptions) {
            SolveResult::Unsat => None,
            SolveResult::Sat => {
                let mut m = Model::new();
                for (&v, bits) in self.var_bits.iter() {
                    let mut bv = BitVec::zeros(bits.len());
                    for (i, &l) in bits.iter().enumerate() {
                        if self.solver.lit_value(l) == Some(true) {
                            bv.set(i, true);
                        }
                    }
                    m.set(v, bv);
                }
                // Give every declared-but-unblasted variable a zero value so
                // callers can evaluate any formula over `decls`.
                for v in decls.vars() {
                    if m.get(v).is_none() {
                        m.set(v, BitVec::zeros(decls.width(v)));
                    }
                }
                Some(m)
            }
        }
    }

    /// Number of SAT variables allocated (diagnostics).
    pub fn num_sat_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of live clauses in the underlying solver (original + learnt,
    /// minus deleted), in O(1).
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }
}

fn negate(b: BBit) -> BBit {
    match b {
        BBit::Const(c) => BBit::Const(!c),
        BBit::Lit(l) => BBit::Lit(!l),
    }
}

/// Builds the canonical structural key of a quantifier-free formula and
/// collects its distinct variables in first-occurrence order. Two formulas
/// share a key iff they are identical up to a width-preserving renaming of
/// variables. [`crate::solve`]'s instantiation ledger keys `∀`-block bodies
/// this way, so validation verdicts transfer across solver contexts.
pub(crate) fn canonical_key(decls: &Declarations, f: &Formula, vars: &mut Vec<BvVar>) -> String {
    fn term(t: &Term, decls: &Declarations, vars: &mut Vec<BvVar>, out: &mut String) {
        match t {
            Term::Lit(bv) => {
                out.push('#');
                for b in bv.iter() {
                    out.push(if b { '1' } else { '0' });
                }
            }
            Term::Var(v) => {
                let idx = match vars.iter().position(|u| u == v) {
                    Some(i) => i,
                    None => {
                        vars.push(*v);
                        vars.len() - 1
                    }
                };
                out.push('v');
                out.push_str(&idx.to_string());
                out.push(':');
                out.push_str(&decls.width(*v).to_string());
            }
            Term::Slice(inner, s, l) => {
                out.push('[');
                out.push_str(&s.to_string());
                out.push(';');
                out.push_str(&l.to_string());
                term(inner, decls, vars, out);
                out.push(']');
            }
            Term::Concat(a, b) => {
                out.push('(');
                term(a, decls, vars, out);
                out.push('+');
                term(b, decls, vars, out);
                out.push(')');
            }
        }
    }
    fn formula(f: &Formula, decls: &Declarations, vars: &mut Vec<BvVar>, out: &mut String) {
        match f {
            Formula::Const(b) => out.push(if *b { 'T' } else { 'F' }),
            Formula::Eq(a, b) => {
                out.push('=');
                out.push('(');
                term(a, decls, vars, out);
                out.push(',');
                term(b, decls, vars, out);
                out.push(')');
            }
            Formula::Not(g) => {
                out.push('!');
                formula(g, decls, vars, out);
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                out.push(match f {
                    Formula::And(_, _) => '&',
                    Formula::Or(_, _) => '|',
                    _ => '>',
                });
                out.push('(');
                formula(a, decls, vars, out);
                out.push(',');
                formula(b, decls, vars, out);
                out.push(')');
            }
            Formula::Forall(_, _) => {
                panic!("quantified formula reached canonical_key; expand quantifiers first")
            }
        }
    }
    let mut out = String::new();
    formula(f, decls, vars, &mut out);
    out
}

/// Convenience: checks satisfiability of a single quantifier-free formula.
pub fn sat_qf(decls: &Declarations, f: &Formula) -> Option<Model> {
    sat_qf_counting(decls, f).0
}

/// [`sat_qf`] with the short-lived context's CDCL counters handed back, so
/// callers (the CEGAR validation path) can fold the work into their query
/// statistics instead of losing it with the context.
pub fn sat_qf_counting(decls: &Declarations, f: &Formula) -> (Option<Model>, SolverStats) {
    debug_assert!(f.is_quantifier_free());
    let mut ctx = BlastContext::new();
    if !ctx.assert_formula(decls, f) {
        return (None, ctx.solver().stats());
    }
    let m = ctx.solve(decls);
    (m, ctx.solver().stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    #[test]
    fn var_equals_literal_model() {
        let mut d = Declarations::new();
        let x = d.declare("x", 5);
        let f = Formula::eq(Term::var(x), Term::lit(bv("10110")));
        let m = sat_qf(&d, &f).expect("sat");
        assert_eq!(m.get(x), Some(&bv("10110")));
    }

    #[test]
    fn contradiction_unsat() {
        let mut d = Declarations::new();
        let x = d.declare("x", 3);
        let f = Formula::and(
            Formula::eq(Term::var(x), Term::lit(bv("101"))),
            Formula::eq(Term::var(x), Term::lit(bv("110"))),
        );
        assert!(sat_qf(&d, &f).is_none());
    }

    #[test]
    fn concat_slice_consistency() {
        let mut d = Declarations::new();
        let x = d.declare("x", 4);
        let y = d.declare("y", 4);
        // x ++ y = 10110110  forces x = 1011, y = 0110.
        let f = Formula::eq(
            Term::concat(Term::var(x), Term::var(y)),
            Term::lit(bv("10110110")),
        );
        let m = sat_qf(&d, &f).expect("sat");
        assert_eq!(m.get(x), Some(&bv("1011")));
        assert_eq!(m.get(y), Some(&bv("0110")));
    }

    #[test]
    fn slice_constrains_middle_bits() {
        let mut d = Declarations::new();
        let x = d.declare("x", 8);
        let f = Formula::and(
            Formula::eq(Term::slice(Term::var(x), 2, 4), Term::lit(bv("1111"))),
            Formula::eq(Term::slice(Term::var(x), 0, 2), Term::lit(bv("00"))),
        );
        let m = sat_qf(&d, &f).expect("sat");
        let xv = m.get(x).unwrap();
        assert_eq!(xv.subrange(0, 2), bv("00"));
        assert_eq!(xv.subrange(2, 4), bv("1111"));
    }

    #[test]
    fn implication_and_or_encoding() {
        let mut d = Declarations::new();
        let x = d.declare("x", 1);
        let y = d.declare("y", 1);
        let one = || Term::lit(bv("1"));
        let zero = || Term::lit(bv("0"));
        // (x=1 -> y=1) & x=1 & y=0 is unsat.
        let f = Formula::and(
            Formula::and(
                Formula::implies(
                    Formula::eq(Term::var(x), one()),
                    Formula::eq(Term::var(y), one()),
                ),
                Formula::eq(Term::var(x), one()),
            ),
            Formula::eq(Term::var(y), zero()),
        );
        assert!(sat_qf(&d, &f).is_none());
        // (x=1 | y=1) & x=0 forces y=1.
        let g = Formula::and(
            Formula::or(
                Formula::eq(Term::var(x), one()),
                Formula::eq(Term::var(y), one()),
            ),
            Formula::eq(Term::var(x), zero()),
        );
        let m = sat_qf(&d, &g).expect("sat");
        assert_eq!(m.get(y), Some(&bv("1")));
    }

    #[test]
    fn empty_equality_is_true() {
        let d = Declarations::new();
        let f = Formula::Eq(Term::empty(), Term::empty());
        assert!(sat_qf(&d, &f).is_some());
    }

    #[test]
    fn model_satisfies_formula_randomized() {
        // Random formulas: if the blaster reports SAT, the extracted model
        // must evaluate to true under the reference evaluator.
        let mut state = 0x5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..40 {
            let mut d = Declarations::new();
            let x = d.declare("x", 6);
            let y = d.declare("y", 6);
            let rand_term = |next: &mut dyn FnMut() -> u32| -> Term {
                match next() % 4 {
                    0 => Term::var(x),
                    1 => Term::var(y),
                    2 => {
                        let s = (next() % 4) as usize;
                        Term::slice(Term::var(x), s, 6 - s)
                    }
                    _ => Term::lit(BitVec::from_u64(next() as u64, 6)),
                }
            };
            let mut f = Formula::tt();
            for _ in 0..3 {
                let a = rand_term(&mut next);
                let b = rand_term(&mut next);
                let (wa, wb) = (a.width(&d), b.width(&d));
                let w = wa.min(wb);
                let atom = Formula::eq(Term::slice(a, 0, w), Term::slice(b, 0, w));
                f = if next() % 2 == 0 {
                    Formula::and(f, atom)
                } else {
                    Formula::and(f, Formula::not(atom))
                };
            }
            if let Some(m) = sat_qf(&d, &f) {
                assert!(f.eval(&d, &m), "model does not satisfy formula: {f:?}");
            }
        }
    }

    #[test]
    fn incremental_assertions_accumulate() {
        let mut d = Declarations::new();
        let x = d.declare("x", 2);
        let mut ctx = BlastContext::default();
        ctx.assert_formula(
            &d,
            &Formula::not(Formula::eq(Term::var(x), Term::lit(bv("00")))),
        );
        assert!(ctx.solve(&d).is_some());
        ctx.assert_formula(
            &d,
            &Formula::not(Formula::eq(Term::var(x), Term::lit(bv("01")))),
        );
        ctx.assert_formula(
            &d,
            &Formula::not(Formula::eq(Term::var(x), Term::lit(bv("10")))),
        );
        let m = ctx.solve(&d).expect("still sat");
        assert_eq!(m.get(x), Some(&bv("11")));
        ctx.assert_formula(
            &d,
            &Formula::not(Formula::eq(Term::var(x), Term::lit(bv("11")))),
        );
        assert!(ctx.solve(&d).is_none());
    }

    #[test]
    fn cache_key_is_width_sensitive() {
        // Same shape, different widths: the instantiation ledger must not
        // share a verdict between them, so their keys differ.
        let mut d = Declarations::new();
        let a = d.declare("a", 2);
        let b = d.declare("b", 3);
        let mut vars_a = Vec::new();
        let ka = canonical_key(&d, &Formula::Eq(Term::var(a), Term::var(a)), &mut vars_a);
        let mut vars_b = Vec::new();
        let kb = canonical_key(&d, &Formula::Eq(Term::var(b), Term::var(b)), &mut vars_b);
        assert_ne!(ka, kb);
        assert_eq!(vars_a, vec![a]);
        assert_eq!(vars_b, vec![b]);
        // Renaming to a variable of the same width keeps the key.
        let c = d.declare("c", 2);
        let kc = canonical_key(
            &d,
            &Formula::Eq(Term::var(c), Term::var(c)),
            &mut Vec::new(),
        );
        assert_eq!(ka, kc);
    }

    #[test]
    fn cache_distinguishes_repeated_variable_patterns() {
        // x = y and x = x canonicalize differently (v0=v1 vs v0=v0).
        let mut d = Declarations::new();
        let x = d.declare("x", 2);
        let y = d.declare("y", 2);
        let mut vars1 = Vec::new();
        let k1 = canonical_key(&d, &Formula::Eq(Term::var(x), Term::var(y)), &mut vars1);
        let mut vars2 = Vec::new();
        let k2 = canonical_key(&d, &Formula::Eq(Term::var(x), Term::var(x)), &mut vars2);
        assert_ne!(k1, k2);
        assert_eq!(vars1, vec![x, y]);
        assert_eq!(vars2, vec![x]);
    }
}
