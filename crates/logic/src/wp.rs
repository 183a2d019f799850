//! Weakest preconditions over template-guarded configuration relations
//! (paper, §4.3), generalized to *leaps* (§5.2, Theorem 5.7).
//!
//! Given a successor relation `ψ = t₁ ∧ t₂ ⇒ φ` and a predecessor template
//! pair `(t₁', t₂')`, [`wp`] computes the relation `t₁' ∧ t₂' ⇒ φ'` such
//! that two configurations matching `(t₁', t₂')` step (by one leap — the
//! `♯` of Definition 5.3 — or one bit when leaps are disabled) into
//! configurations related by `ψ`, for every choice of the consumed packet
//! bits. The consumed bits are a fresh universally quantified packet
//! variable `x` of the leap's width.
//!
//! Each side is processed independently (`WP<` / `WP>`, Lemma 4.8):
//!
//! * while the side is *buffering* (`n + k < ‖op(q)‖`), the post-state
//!   buffer is the pre-state buffer extended with `x`:
//!   `φ[buf ≔ buf ++ x]`;
//! * at a *transition boundary* (`n + k = ‖op(q)‖`), the operation block is
//!   executed symbolically on the full buffer `buf ++ x` — extracts become
//!   slices, assignments substitute — and the formula is guarded by the
//!   first-match condition under which the `select` reaches the successor
//!   state: `cond ⇒ φ[h ≔ store(h), buf ≔ ε]`;
//! * `accept`/`reject` step to `reject` with an unchanged store.
//!
//! Returns `None` when the successor guard is unreachable from the
//! predecessor pair (the conjunct would be vacuously true).

use leapfrog_p4a::ast::{
    clamped_slice_bounds, Automaton, Expr, HeaderId, Op, Pattern, StateId, Target, Transition,
};

use crate::confrel::{BitExpr, ConfRel, ExprCtx, Pure, Side, VarId};
use crate::templates::{leap_size, Template, TemplatePair};

/// Computes the weakest precondition of `psi` along one leap from `pred`.
///
/// Returns `None` when `psi.guard` is not a possible successor of `pred`
/// (including the case where the required `select` branch is statically
/// impossible), in which case the precondition is vacuously true.
pub fn wp(aut: &Automaton, psi: &ConfRel, pred: &TemplatePair, leaps: bool) -> Option<ConfRel> {
    let k = leap_size(aut, pred, leaps);
    let mut vars = psi.vars.clone();
    let x = BitExpr::Var(VarId(vars.len() as u32));
    vars.push(k);

    // Pass 1: right side. Left buffer references in `phi` are still
    // post-state (the successor guard's length); right references become
    // pre-state.
    let ctx1 = ExprCtx {
        aut,
        left_buf: psi.guard.left.buf_len,
        right_buf: pred.right.buf_len,
        var_widths: &vars,
    };
    let phi_r = wp_side(
        aut,
        &psi.phi,
        Side::Right,
        pred.right,
        psi.guard.right,
        &x,
        k,
        &ctx1,
    )?;

    // Pass 2: left side. Everything is pre-state afterwards.
    let ctx2 = ExprCtx {
        aut,
        left_buf: pred.left.buf_len,
        right_buf: pred.right.buf_len,
        var_widths: &vars,
    };
    let phi_lr = wp_side(
        aut,
        &phi_r,
        Side::Left,
        pred.left,
        psi.guard.left,
        &x,
        k,
        &ctx2,
    )?;

    Some(ConfRel {
        guard: *pred,
        vars,
        phi: phi_lr,
    })
}

/// One-sided weakest precondition (`WP<` or `WP>`, Lemma 4.8, lifted to a
/// `k`-bit leap).
#[allow(clippy::too_many_arguments)]
fn wp_side(
    aut: &Automaton,
    phi: &Pure,
    side: Side,
    pred: Template,
    succ: Template,
    x: &BitExpr,
    k: usize,
    ctx: &ExprCtx<'_>,
) -> Option<Pure> {
    match pred.target {
        Target::Accept | Target::Reject => {
            // Any k ≥ 1 steps land in reject with the store unchanged.
            if succ != Template::reject() {
                return None;
            }
            let identity = |h: HeaderId| BitExpr::Hdr(side, h);
            Some(phi.subst_side(side, &BitExpr::empty(), &identity, ctx))
        }
        Target::State(q) => {
            let rem = aut.op_size(q) - pred.buf_len;
            debug_assert!(k <= rem, "leap exceeds the side's remaining bits");
            if k < rem {
                // Still buffering: the state is unchanged, the buffer grows.
                if succ.target != pred.target || succ.buf_len != pred.buf_len + k {
                    return None;
                }
                let buf = BitExpr::concat(BitExpr::Buf(side), x.clone());
                let identity = |h: HeaderId| BitExpr::Hdr(side, h);
                Some(phi.subst_side(side, &buf, &identity, ctx))
            } else {
                // Transition boundary: run the operation block symbolically
                // on the full buffer, then constrain the select outcome.
                if succ.buf_len != 0 {
                    return None;
                }
                let full = BitExpr::concat(BitExpr::Buf(side), x.clone());
                let store = symbolic_ops(aut, q, side, &full, ctx);
                let cond = branch_condition(aut, q, &store, succ.target, ctx);
                if cond == Pure::ff() {
                    return None;
                }
                let lookup = |h: HeaderId| store[h.0 as usize].clone();
                let substituted = phi.subst_side(side, &BitExpr::empty(), &lookup, ctx);
                Some(Pure::implies(cond, substituted))
            }
        }
    }
}

/// Symbolically executes `op(q)` on the buffer expression `full`,
/// returning the post-state value of every header as an expression over
/// the pre-state store and `full`.
pub fn symbolic_ops(
    aut: &Automaton,
    q: StateId,
    side: Side,
    full: &BitExpr,
    ctx: &ExprCtx<'_>,
) -> Vec<BitExpr> {
    let mut store: Vec<BitExpr> = aut.header_ids().map(|h| BitExpr::Hdr(side, h)).collect();
    let mut cursor = 0;
    for op in &aut.state(q).ops {
        match op {
            Op::Extract(h) => {
                let sz = aut.header_size(*h);
                store[h.0 as usize] = BitExpr::slice(full.clone(), cursor, sz, ctx);
                cursor += sz;
            }
            Op::Assign(h, e) => {
                store[h.0 as usize] = conv_expr(aut, e, &store, ctx);
            }
        }
    }
    debug_assert_eq!(cursor, aut.op_size(q));
    store
}

/// Converts a P4A store expression into a [`BitExpr`] over a symbolic
/// store, resolving the surface language's clamped slices to exact slices
/// (widths are static).
pub fn conv_expr(aut: &Automaton, e: &Expr, store: &[BitExpr], ctx: &ExprCtx<'_>) -> BitExpr {
    match e {
        Expr::Hdr(h) => store[h.0 as usize].clone(),
        Expr::Lit(bv) => BitExpr::Lit(bv.clone()),
        Expr::Slice(inner, n1, n2) => {
            let (start, len) = clamped_slice_bounds(inner.width(aut), *n1, *n2);
            BitExpr::slice(conv_expr(aut, inner, store, ctx), start, len, ctx)
        }
        Expr::Concat(a, b) => {
            BitExpr::concat(conv_expr(aut, a, store, ctx), conv_expr(aut, b, store, ctx))
        }
    }
}

/// The condition under which `tz(q)`, evaluated on the symbolic store,
/// transitions to `target` — first-match semantics with a `reject`
/// fall-through (Definition 3.3).
pub fn branch_condition(
    aut: &Automaton,
    q: StateId,
    store: &[BitExpr],
    target: Target,
    ctx: &ExprCtx<'_>,
) -> Pure {
    match &aut.state(q).trans {
        Transition::Goto(t) => Pure::Const(*t == target),
        Transition::Select { exprs, cases } => {
            let scrutinees: Vec<BitExpr> = exprs
                .iter()
                .map(|e| conv_expr(aut, e, store, ctx))
                .collect();
            let case_conds: Vec<Pure> = cases
                .iter()
                .map(|case| {
                    Pure::and_all(case.pats.iter().zip(&scrutinees).map(|(p, v)| match p {
                        Pattern::Exact(bv) => Pure::eq(v.clone(), BitExpr::Lit(bv.clone())),
                        Pattern::Wildcard => Pure::tt(),
                    }))
                })
                .collect();
            let mut disjuncts = Vec::new();
            for (j, case) in cases.iter().enumerate() {
                if case.target == target {
                    let earlier = Pure::and_all(case_conds[..j].iter().cloned().map(Pure::not));
                    disjuncts.push(Pure::and(case_conds[j].clone(), earlier));
                }
            }
            if target == Target::Reject {
                disjuncts.push(Pure::and_all(case_conds.iter().cloned().map(Pure::not)));
            }
            Pure::or_all(disjuncts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::leap_size;
    use leapfrog_bitvec::BitVec;
    use leapfrog_p4a::builder::Builder;
    use leapfrog_p4a::semantics::{Config, Store};
    use leapfrog_p4a::sum::sum;

    /// A small sum automaton: left parser reads 3 bits and accepts iff the
    /// first is 1; right parser reads 1 bit then 2 bits, accepting iff the
    /// first is 1. The two are language-equivalent.
    fn fixture() -> (Automaton, StateId, StateId) {
        let mut bl = Builder::new();
        let h = bl.header("h", 3);
        let l0 = bl.state("l0");
        bl.define(
            l0,
            vec![bl.extract(h)],
            bl.select1(Expr::slice(Expr::hdr(h), 0, 0), vec![("1", Target::Accept)]),
        );
        let left = bl.build().unwrap();

        let mut br = Builder::new();
        let a = br.header("a", 1);
        let b2 = br.header("b", 2);
        let r0 = br.state("r0");
        let r1 = br.state("r1");
        br.define(r0, vec![br.extract(a)], br.goto(Target::State(r1)));
        br.define(
            r1,
            vec![br.extract(b2)],
            br.select1(Expr::hdr(a), vec![("1", Target::Accept)]),
        );
        let right = br.build().unwrap();

        let s = sum(&left, &right);
        let l = s.left_state(left.state_by_name("l0").unwrap());
        let r = s.right_state(right.state_by_name("r0").unwrap());
        (s.automaton, l, r)
    }

    fn state_t(q: StateId, n: usize) -> Template {
        Template {
            target: Target::State(q),
            buf_len: n,
        }
    }

    /// Exhaustive check of the Theorem 5.7 equivalence for a given
    /// predecessor pair and successor relation: for all stores drawn from a
    /// small pool, buffers, and leap words `w`,
    /// `(∀w. (δ*(c1,w), δ*(c2,w)) ⊨ ψ)  ⇔  (c1,c2) ⊨ wp(ψ, pred)`.
    fn check_wp_equivalence(aut: &Automaton, psi: &ConfRel, pred: &TemplatePair, leaps: bool) {
        let k = leap_size(aut, pred, leaps);
        let precondition = wp(aut, psi, pred, leaps);
        let mut seed = 0xfeedu64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..6 {
            let mk = |t: Template, rng: &mut dyn FnMut() -> u64| Config {
                target: t.target,
                store: Store::random(aut, &mut *rng),
                buf: BitVec::random_with(t.buf_len, &mut *rng),
            };
            let c1 = mk(pred.left, &mut rng);
            let c2 = mk(pred.right, &mut rng);
            // LHS: all k-bit words lead into ψ.
            let mut lhs = true;
            for w in 0u64..(1u64 << k) {
                let word = BitVec::from_u64(w, k);
                let d1 = c1.step_word(aut, &word);
                let d2 = c2.step_word(aut, &word);
                if !psi.holds(&d1, &d2) {
                    lhs = false;
                    break;
                }
            }
            // RHS: the WP formula holds at (c1, c2); a `None` WP is ⊤.
            let rhs = precondition
                .as_ref()
                .map(|p| p.holds(&c1, &c2))
                .unwrap_or(true);
            assert_eq!(
                lhs,
                rhs,
                "WP mismatch at pred {} for psi {}",
                pred.display(aut),
                psi.display(aut)
            );
        }
    }

    #[test]
    fn wp_buffering_step() {
        let (aut, l, r) = fixture();
        // Successor: left has 2 buffered, right transitioned into r1 after
        // its 1-bit state — with leaps from (l,0)/(r,0), leap = min(3,1)=1.
        let pred = TemplatePair::new(state_t(l, 0), state_t(r, 0));
        let k = leap_size(&aut, &pred, true);
        assert_eq!(k, 1);
        // All successor guards: left buffering to (l,1); right transitions.
        let r1 = aut.state_by_name("r.r1").unwrap();
        let succ = TemplatePair::new(state_t(l, 1), state_t(r1, 0));
        let psi = ConfRel::trivial(succ);
        let got = wp(&aut, &psi, &pred, true).expect("reachable successor");
        assert_eq!(got.guard, pred);
        assert_eq!(got.vars, vec![1]);
        check_wp_equivalence(&aut, &psi, &pred, true);
    }

    #[test]
    fn wp_equivalence_buffer_contents() {
        let (aut, l, r) = fixture();
        let r1 = aut.state_by_name("r.r1").unwrap();
        // ψ relates left buffer (1 bit so far) to the right store's `a`.
        let a = aut.header_by_name("r.a").unwrap();
        let psi = ConfRel {
            guard: TemplatePair::new(state_t(l, 1), state_t(r1, 0)),
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Hdr(Side::Right, a)),
        };
        let pred = TemplatePair::new(state_t(l, 0), state_t(r, 0));
        check_wp_equivalence(&aut, &psi, &pred, true);
    }

    #[test]
    fn wp_transition_step_with_select() {
        let (aut, l, _r) = fixture();
        let r1 = aut.state_by_name("r.r1").unwrap();
        // Pred: left 2 buffered (1 remaining), right r1 with 1 buffered
        // (1 remaining). Leap 1; both sides transition.
        let pred = TemplatePair::new(state_t(l, 2), state_t(r1, 1));
        for succ in [
            TemplatePair::new(Template::accept(), Template::accept()),
            TemplatePair::new(Template::accept(), Template::reject()),
            TemplatePair::new(Template::reject(), Template::accept()),
            TemplatePair::new(Template::reject(), Template::reject()),
        ] {
            let psi = ConfRel::forbidden(succ);
            check_wp_equivalence(&aut, &psi, &pred, true);
        }
    }

    #[test]
    fn wp_respects_store_relations_across_transition() {
        let (aut, l, _r) = fixture();
        let r1 = aut.state_by_name("r.r1").unwrap();
        let h = aut.header_by_name("l.h").unwrap();
        let a = aut.header_by_name("r.a").unwrap();
        // ψ: after both transition to accept, h[0;1] = a.
        let psi = ConfRel {
            guard: TemplatePair::new(Template::accept(), Template::accept()),
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Slice(Box::new(BitExpr::Hdr(Side::Left, h)), 0, 1),
                BitExpr::Hdr(Side::Right, a),
            ),
        };
        let pred = TemplatePair::new(state_t(l, 2), state_t(r1, 1));
        check_wp_equivalence(&aut, &psi, &pred, true);
    }

    #[test]
    fn wp_none_for_unreachable_successor() {
        let (aut, l, r) = fixture();
        // From (l,0)/(r,0) with leap 1, left cannot transition yet.
        let pred = TemplatePair::new(state_t(l, 0), state_t(r, 0));
        let succ = TemplatePair::new(Template::accept(), Template::accept());
        assert!(wp(&aut, &ConfRel::trivial(succ), &pred, true).is_none());
    }

    #[test]
    fn wp_without_leaps_steps_one_bit() {
        let (aut, l, r) = fixture();
        let pred = TemplatePair::new(state_t(l, 0), state_t(r, 0));
        assert_eq!(leap_size(&aut, &pred, false), 1);
        let r1 = aut.state_by_name("r.r1").unwrap();
        let succ = TemplatePair::new(state_t(l, 1), state_t(r1, 0));
        let psi = ConfRel::trivial(succ);
        check_wp_equivalence(&aut, &psi, &pred, false);
    }

    #[test]
    fn wp_from_accept_pair() {
        let (aut, _, _) = fixture();
        let pred = TemplatePair::new(Template::accept(), Template::accept());
        let succ = TemplatePair::new(Template::reject(), Template::reject());
        let psi = ConfRel::trivial(succ);
        let got = wp(&aut, &psi, &pred, true).expect("accept steps to reject");
        assert_eq!(got.guard, pred);
        check_wp_equivalence(&aut, &psi, &pred, true);
        // Accept cannot step to accept.
        let bad = TemplatePair::new(Template::accept(), Template::accept());
        assert!(wp(&aut, &ConfRel::trivial(bad), &pred, true).is_none());
    }

    #[test]
    fn wp_mixed_accept_and_state_with_leap() {
        let (aut, l, _) = fixture();
        // Left at (l,0) (3 remaining), right accepted: leap = 3.
        let pred = TemplatePair::new(state_t(l, 0), Template::accept());
        assert_eq!(leap_size(&aut, &pred, true), 3);
        for succ_l in [Template::accept(), Template::reject()] {
            let succ = TemplatePair::new(succ_l, Template::reject());
            let psi = ConfRel::forbidden(succ);
            check_wp_equivalence(&aut, &psi, &pred, true);
        }
    }

    #[test]
    fn symbolic_ops_extract_and_assign() {
        // One state: extract a(2), extract b(2), out := b ++ a[0:0].
        let mut bld = Builder::new();
        let a = bld.header("a", 2);
        let b = bld.header("b", 2);
        let out = bld.header("out", 3);
        let q = bld.state("q");
        bld.define(
            q,
            vec![
                bld.extract(a),
                bld.extract(b),
                bld.assign(
                    out,
                    Expr::concat(Expr::hdr(b), Expr::slice(Expr::hdr(a), 0, 0)),
                ),
            ],
            bld.goto(Target::Accept),
        );
        let aut = bld.build().unwrap();
        let vars = vec![4usize];
        let ctx = ExprCtx {
            aut: &aut,
            left_buf: 0,
            right_buf: 0,
            var_widths: &vars,
        };
        let full = BitExpr::Var(VarId(0));
        let store = symbolic_ops(&aut, StateId(0), Side::Left, &full, &ctx);
        // a = full[0;2], b = full[2;2], out = full[2;2] ++ full[0;1].
        assert_eq!(
            store[a.0 as usize],
            BitExpr::Slice(Box::new(full.clone()), 0, 2)
        );
        assert_eq!(
            store[b.0 as usize],
            BitExpr::Slice(Box::new(full.clone()), 2, 2)
        );
        match &store[out.0 as usize] {
            BitExpr::Concat(l, r) => {
                assert_eq!(**l, BitExpr::Slice(Box::new(full.clone()), 2, 2));
                assert_eq!(**r, BitExpr::Slice(Box::new(full.clone()), 0, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn branch_condition_first_match() {
        // select(h) { 00 => accept; _ => q } — the q branch requires ¬(h=00).
        let mut bld = Builder::new();
        let h = bld.header("h", 2);
        let q = bld.state("q");
        bld.define(
            q,
            vec![bld.extract(h)],
            bld.select1(
                Expr::hdr(h),
                vec![("00", Target::Accept), ("_", Target::State(q))],
            ),
        );
        let aut = bld.build().unwrap();
        let ctx = ExprCtx {
            aut: &aut,
            left_buf: 0,
            right_buf: 0,
            var_widths: &[],
        };
        let store: Vec<BitExpr> = vec![BitExpr::Hdr(Side::Left, h)];
        let acc = branch_condition(&aut, q, &store, Target::Accept, &ctx);
        assert_eq!(
            acc,
            Pure::Eq(
                BitExpr::Hdr(Side::Left, h),
                BitExpr::Lit("00".parse().unwrap())
            )
        );
        let back = branch_condition(&aut, q, &store, Target::State(q), &ctx);
        assert_eq!(
            back,
            Pure::Not(Box::new(Pure::Eq(
                BitExpr::Hdr(Side::Left, h),
                BitExpr::Lit("00".parse().unwrap())
            )))
        );
        // The wildcard makes reject unreachable via fall-through.
        let rej = branch_condition(&aut, q, &store, Target::Reject, &ctx);
        assert_eq!(rej, Pure::ff());
    }
}
