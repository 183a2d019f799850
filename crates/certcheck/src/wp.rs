//! The checker's own weakest-precondition transformer (paper, §4.3 lifted
//! to leaps per Theorem 5.7), independent of the engine's implementation.
//!
//! Given a successor relation `ψ = t₁ ∧ t₂ ⇒ φ` and a predecessor template
//! pair, computes the relation that must hold *before* one leap so that
//! every choice of consumed packet bits lands in `ψ`. The consumed bits
//! become a fresh universally quantified packet variable of the leap's
//! width. Each side is processed independently (`WP<` / `WP>`, Lemma 4.8):
//! buffering steps extend the buffer with the fresh variable; boundary
//! steps execute the operation block symbolically on `buf ++ x` and guard
//! the formula with the first-match condition reaching the successor
//! state; `accept`/`reject` step to `reject` with the store unchanged.
//! Returns `None` when the successor guard is unreachable (the conjunct
//! would be vacuously true). The structural cases of that — template kind,
//! buffer length, syntactic `goto`/`select` targets — are decided for both
//! sides before any substitution, so the closure loop never rewrites a
//! formula it would discard.

use leapfrog_p4a::ast::{
    clamped_slice_bounds, Automaton, Expr, HeaderId, Op, Pattern, StateId, Target, Transition,
};

use crate::rel::{leap_size, BitExpr, ConfRel, ExprCtx, Pure, Side, Template, TemplatePair, VarId};

/// Computes the weakest precondition of `psi` along one leap from `pred`.
pub fn wp(aut: &Automaton, psi: &ConfRel, pred: &TemplatePair, leaps: bool) -> Option<ConfRel> {
    let k = leap_size(aut, pred, leaps);
    if !may_step(aut, pred.right, psi.guard.right, k)
        || !may_step(aut, pred.left, psi.guard.left, k)
    {
        return None;
    }
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

/// Whether one side can step from `pred` into `succ` in a leap of `k`
/// bits, judged from the templates and the syntactic transition alone.
/// `false` exactly where [`wp_side`] would return `None` without looking
/// at the formula; a `select` case can still fold to an unsatisfiable
/// condition, which [`wp_side`] detects.
fn may_step(aut: &Automaton, pred: Template, succ: Template, k: usize) -> bool {
    match pred.target {
        // Any k ≥ 1 steps land in reject.
        Target::Accept | Target::Reject => succ == Template::reject(),
        Target::State(q) => {
            if k < aut.op_size(q) - pred.buf_len {
                // Still buffering: the state is unchanged, the buffer grows.
                succ.target == pred.target && succ.buf_len == pred.buf_len + k
            } else {
                succ.buf_len == 0
                    && match &aut.state(q).trans {
                        Transition::Goto(t) => *t == succ.target,
                        Transition::Select { cases, .. } => {
                            succ.target == Target::Reject
                                || cases.iter().any(|c| c.target == succ.target)
                        }
                    }
            }
        }
    }
}

/// One-sided weakest precondition (`WP<` or `WP>`), for a step that
/// [`may_step`] admits.
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
            // The store is unchanged and the buffer stays empty.
            let identity = |h: HeaderId| BitExpr::Hdr(side, h);
            Some(phi.subst_side(side, &BitExpr::empty(), &identity, ctx))
        }
        Target::State(q) => {
            if k < aut.op_size(q) - pred.buf_len {
                // Still buffering: the buffer grows by the consumed bits.
                let buf = BitExpr::concat(BitExpr::Buf(side), x.clone());
                let identity = |h: HeaderId| BitExpr::Hdr(side, h);
                Some(phi.subst_side(side, &buf, &identity, ctx))
            } else {
                // Transition boundary: run the operation block symbolically
                // on the full buffer, then constrain the select outcome.
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
/// returning the post-state value of every header.
fn symbolic_ops(
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
    store
}

/// Converts a P4A store expression into a [`BitExpr`] over a symbolic
/// store, resolving the surface language's clamped slices to exact slices.
fn conv_expr(aut: &Automaton, e: &Expr, store: &[BitExpr], ctx: &ExprCtx<'_>) -> BitExpr {
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
fn branch_condition(
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
