//! Reachable template pairs: the abstract-interpretation pruning of §5.1,
//! combined with leaps per §5.3.
//!
//! Computing the precise set of reachable configuration pairs is as hard as
//! equivalence checking itself; instead the analysis tracks only template
//! pairs, applying the successor abstraction `σ` until a fixpoint. The
//! worklist algorithm then only generates initial conditions and weakest
//! preconditions for reachable pairs, which the paper reports as essential
//! ("it did not finish without reachable state pruning").
//!
//! [`PredecessorIndex`] refines the pruning per successor guard: a weakest
//! precondition of `ψ` is nonvacuous only at the scope pairs that can step
//! into `ψ.guard`, so the worklist visits those pairs alone.

use std::collections::{BTreeSet, HashMap};

use leapfrog_p4a::ast::{Automaton, Target};
use leapfrog_p4a::sum::Sum;

use crate::templates::{all_templates, successor_pairs, Template, TemplatePair};

/// Computes the set of template pairs reachable from `roots` under the
/// leap-successor abstraction (or bit-level successors when `leaps` is
/// false). The result is ordered deterministically.
pub fn reachable_pairs(aut: &Automaton, roots: &[TemplatePair], leaps: bool) -> Vec<TemplatePair> {
    let mut seen: BTreeSet<TemplatePair> = roots.iter().copied().collect();
    let mut work: Vec<TemplatePair> = roots.to_vec();
    while let Some(p) = work.pop() {
        for s in successor_pairs(aut, &p, leaps) {
            if seen.insert(s) {
                work.push(s);
            }
        }
    }
    seen.into_iter().collect()
}

/// The scope without reachability pruning: every left-side template paired
/// with every right-side template. Left-parser states never appear on the
/// right, so each side ranges over its own parser's states plus
/// accept/reject.
pub fn unpruned_pairs(sum: &Sum) -> Vec<TemplatePair> {
    let side_templates = |left: bool| -> Vec<Template> {
        all_templates(&sum.automaton)
            .into_iter()
            .filter(|t| match t.target {
                Target::State(q) => sum.is_left_state(q) == left,
                _ => true,
            })
            .collect()
    };
    let rs = side_templates(false);
    side_templates(true)
        .into_iter()
        .flat_map(|l| rs.iter().map(move |r| TemplatePair::new(l, *r)))
        .collect()
}

/// The successor→predecessor index of a scope: for each template pair, the
/// positions (in scope order) of the scope pairs that can step into it by
/// one leap (or one bit when `leaps` is false).
///
/// [`crate::wp::wp`] returns `None` unless `ψ.guard` is among
/// [`successor_pairs`] of the predecessor, so sweeping
/// [`PredecessorIndex::predecessors`] of `ψ.guard` in place of the whole
/// scope yields the same preconditions in the same order.
#[derive(Debug, Clone)]
pub struct PredecessorIndex {
    preds: HashMap<TemplatePair, Vec<usize>>,
}

impl PredecessorIndex {
    /// Builds the index with one [`successor_pairs`] pass over `scope`.
    pub fn new(aut: &Automaton, scope: &[TemplatePair], leaps: bool) -> PredecessorIndex {
        let mut preds: HashMap<TemplatePair, Vec<usize>> = HashMap::new();
        for (pos, p) in scope.iter().enumerate() {
            for s in successor_pairs(aut, p, leaps) {
                preds.entry(s).or_default().push(pos);
            }
        }
        PredecessorIndex { preds }
    }

    /// The scope positions, strictly increasing, of the pairs that can
    /// step into `guard` (empty when none can).
    pub fn predecessors(&self, guard: TemplatePair) -> &[usize] {
        self.preds.get(&guard).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::ast::Expr;
    use leapfrog_p4a::builder::Builder;
    use leapfrog_p4a::sum::sum;

    /// Left: one 4-bit state, accept if 0xF. Right: two 2-bit states.
    fn fixture() -> (Automaton, TemplatePair) {
        let mut bl = Builder::new();
        let h = bl.header("h", 4);
        let l0 = bl.state("l0");
        bl.define(
            l0,
            vec![bl.extract(h)],
            bl.select1(Expr::hdr(h), vec![("1111", Target::Accept)]),
        );
        let left = bl.build().unwrap();

        let mut br = Builder::new();
        let a = br.header("a", 2);
        let b2 = br.header("b", 2);
        let r0 = br.state("r0");
        let r1 = br.state("r1");
        br.define(r0, vec![br.extract(a)], br.goto(Target::State(r1)));
        br.define(
            r1,
            vec![br.extract(b2)],
            br.select1(
                Expr::concat(Expr::hdr(a), Expr::hdr(b2)),
                vec![("1111", Target::Accept)],
            ),
        );
        let right = br.build().unwrap();
        let s = sum(&left, &right);
        let root = TemplatePair::new(
            Template::start(s.left_state(left.state_by_name("l0").unwrap())),
            Template::start(s.right_state(right.state_by_name("r0").unwrap())),
        );
        (s.automaton, root)
    }

    #[test]
    fn leaps_skip_buffering_pairs() {
        let (aut, root) = fixture();
        let reach = reachable_pairs(&aut, &[root], true);
        // With leaps, the first joint transition is at bit 2 (right's r0
        // completes): (l0,0)/(r0,0) → (l0,2)/(r1,0) → transitions at bit 4.
        assert!(reach.contains(&root));
        let l0 = aut.state_by_name("l.l0").unwrap();
        let r1 = aut.state_by_name("r.r1").unwrap();
        let mid = TemplatePair::new(
            Template {
                target: Target::State(l0),
                buf_len: 2,
            },
            Template::start(r1),
        );
        assert!(reach.contains(&mid));
        // The pure-buffering pair (l0,1)/(r0,1) is skipped by leaps…
        let skipped = TemplatePair::new(
            Template {
                target: Target::State(l0),
                buf_len: 1,
            },
            Template {
                target: Target::State(aut.state_by_name("r.r0").unwrap()),
                buf_len: 1,
            },
        );
        assert!(!reach.contains(&skipped));
        // …but visited without leaps.
        let reach_slow = reachable_pairs(&aut, &[root], false);
        assert!(reach_slow.contains(&skipped));
        assert!(reach_slow.len() > reach.len());
    }

    #[test]
    fn terminal_pairs_loop_on_reject() {
        let (aut, root) = fixture();
        let reach = reachable_pairs(&aut, &[root], true);
        let rr = TemplatePair::new(Template::reject(), Template::reject());
        assert!(reach.contains(&rr));
        // reject/reject is a fixpoint.
        assert_eq!(successor_pairs(&aut, &rr, true), vec![rr]);
    }

    #[test]
    fn predecessor_index_inverts_successors_in_scope_order() {
        let (aut, root) = fixture();
        for leaps in [true, false] {
            let scope = reachable_pairs(&aut, &[root], leaps);
            let index = PredecessorIndex::new(&aut, &scope, leaps);
            for (pos, p) in scope.iter().enumerate() {
                for s in successor_pairs(&aut, p, leaps) {
                    assert!(index.predecessors(s).contains(&pos));
                }
            }
            for g in &scope {
                let preds = index.predecessors(*g);
                assert!(preds.windows(2).all(|w| w[0] < w[1]));
                assert!(preds
                    .iter()
                    .all(|&i| successor_pairs(&aut, &scope[i], leaps).contains(g)));
            }
            // The root has no predecessor: nothing steps back into it.
            assert!(index.predecessors(root).is_empty());
        }
    }

    #[test]
    fn deterministic_order() {
        let (aut, root) = fixture();
        let a = reachable_pairs(&aut, &[root], true);
        let b = reachable_pairs(&aut, &[root], true);
        assert_eq!(a, b);
    }
}
