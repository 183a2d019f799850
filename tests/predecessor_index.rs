//! Completeness of the successor→predecessor index the worklist and the
//! certificate checker sweep in place of the whole scope: for every Table 2
//! pair at the small scale, every scope pair whose weakest precondition
//! into a guard is nonvacuous must be listed under that guard, and every
//! list must follow scope order (so the frontier, and with it `R`, the
//! certificates and the witnesses, are those of a whole-scope sweep).

use leapfrog_bench::rows::translation_validation_pair;
use leapfrog_logic::confrel::ConfRel;
use leapfrog_logic::reach::{reachable_pairs, unpruned_pairs, PredecessorIndex};
use leapfrog_logic::templates::{successor_pairs, Template, TemplatePair};
use leapfrog_logic::wp::wp;
use leapfrog_p4a::ast::{Automaton, StateId, Target, Transition};
use leapfrog_p4a::sum::sum;
use leapfrog_suite::utility::sloppy_strict;
use leapfrog_suite::{standard_benchmarks, Benchmark, Scale};

/// Predecessors checked per scope: all of a reachability-pruned scope, an
/// evenly spaced sample of an unpruned one (the template product runs to
/// 10⁶ pairs on the applicability rows).
const MAX_PREDS: usize = 1024;

/// Every template one side at `t` could occupy after a step, read off the
/// automaton's syntax rather than from `successor_pairs`: any buffer
/// length of its own state, the start of every target a goto or select
/// case names, and both terminals (a select may fall through to reject).
fn landings(aut: &Automaton, t: Template) -> Vec<Template> {
    let mut out = vec![Template::accept(), Template::reject()];
    if let Target::State(q) = t.target {
        out.extend((0..aut.op_size(q)).map(|buf_len| Template {
            target: t.target,
            buf_len,
        }));
        let named: Vec<Target> = match &aut.state(q).trans {
            Transition::Goto(target) => vec![*target],
            Transition::Select { cases, .. } => cases.iter().map(|c| c.target).collect(),
        };
        out.extend(
            named
                .into_iter()
                .map(|target| Template { target, buf_len: 0 }),
        );
    }
    out.sort();
    out.dedup();
    out
}

/// Checks the index of one pair's scope, with reachability pruning on and
/// off, under each of the given leap settings.
///
/// A weakest precondition is the conjunction of two one-sided ones
/// (Lemma 4.8), each vacuous or not on its own, and the index lists the
/// product of per-side successors. So against one nonvacuous anchor guard
/// each side's nonvacuous landings are found in a single sweep, and their
/// product is every guard the predecessor has a nonvacuous WP into.
fn check_pair(
    name: &str,
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    leap_settings: &[bool],
) {
    let s = sum(left, right);
    let aut = &s.automaton;
    let root = TemplatePair::new(
        Template::start(s.left_state(ql)),
        Template::start(s.right_state(qr)),
    );
    for &leaps in leap_settings {
        for reach_pruning in [true, false] {
            let scope = if reach_pruning {
                reachable_pairs(aut, &[root], leaps)
            } else {
                unpruned_pairs(&s)
            };
            let index = PredecessorIndex::new(aut, &scope, leaps);
            let stride = scope.len().div_ceil(MAX_PREDS);
            for (pos, pred) in scope.iter().enumerate().step_by(stride) {
                let nonvacuous = |l: Template, r: Template| {
                    wp(aut, &ConfRel::trivial(TemplatePair::new(l, r)), pred, leaps).is_some()
                };
                let anchor = successor_pairs(aut, pred, leaps)
                    .into_iter()
                    .find(|g| nonvacuous(g.left, g.right))
                    .unwrap_or_else(|| {
                        panic!(
                            "{name} (leaps={leaps}, reach={reach_pruning}): no listed \
                             successor of {} has a nonvacuous WP",
                            pred.display(aut)
                        )
                    });
                let lefts: Vec<Template> = landings(aut, pred.left)
                    .into_iter()
                    .filter(|&l| nonvacuous(l, anchor.right))
                    .collect();
                let rights: Vec<Template> = landings(aut, pred.right)
                    .into_iter()
                    .filter(|&r| nonvacuous(anchor.left, r))
                    .collect();
                for &l in &lefts {
                    for &r in &rights {
                        let g = TemplatePair::new(l, r);
                        let preds = index.predecessors(g);
                        assert!(
                            preds.windows(2).all(|w| w[0] < w[1]),
                            "{name} (leaps={leaps}, reach={reach_pruning}): predecessors \
                             of {} are not in strictly increasing scope order",
                            g.display(aut)
                        );
                        assert!(
                            preds.binary_search(&pos).is_ok(),
                            "{name} (leaps={leaps}, reach={reach_pruning}): {} steps \
                             into {} but is missing from its predecessor list",
                            pred.display(aut),
                            g.display(aut)
                        );
                    }
                }
            }
        }
    }
}

fn check_bench(b: &Benchmark, leap_settings: &[bool]) {
    check_pair(
        b.name,
        &b.left,
        b.left_start,
        &b.right,
        b.right_start,
        leap_settings,
    );
}

#[test]
fn utility_rows_with_and_without_leaps() {
    // Bit-level steps multiply the templates, so leaps are turned off on
    // the small utility rows only.
    for b in &standard_benchmarks(Scale::Small)[..4] {
        check_bench(b, &[true, false]);
    }
}

#[test]
fn applicability_rows() {
    for b in &standard_benchmarks(Scale::Small)[4..] {
        check_bench(b, &[true]);
    }
}

#[test]
fn relational_and_translation_validation_pairs() {
    // The relational-verification and external-filtering rows both pose
    // their queries over the sloppy/strict pair.
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    check_pair(
        "sloppy vs strict",
        &sloppy,
        sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap(),
        &strict,
        strict.state_by_name(sloppy_strict::STRICT_START).unwrap(),
        &[true, false],
    );
    let (edge, edge_start, back, back_start) = translation_validation_pair(Scale::Small);
    check_pair(
        "Translation Validation",
        &edge,
        edge_start,
        &back,
        back_start,
        &[true],
    );
}
