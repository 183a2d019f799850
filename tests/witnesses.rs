//! Integration tests for the counterexample witness engine: every
//! non-equivalence verdict produced across the utility and applicability
//! suites must carry a *confirmed* witness — concrete initial stores plus a
//! canonical packet which, replayed through the explicit semantics from
//! both initial configurations, reproduces a concrete disagreement.

use leapfrog::{Checker, Options, Outcome};
use leapfrog_cex::Disagreement;
use leapfrog_logic::confrel::{BitExpr, ConfRel, Pure, Side};
use leapfrog_logic::templates::{Template, TemplatePair};
use leapfrog_suite::differential::{check_and_cross_validate, confirm_refutation};
use leapfrog_suite::utility::{mpls, sloppy_strict, vlan_init};
use leapfrog_suite::{applicability, Scale};

/// Asserts that the outcome is a refutation with a confirmed, replayable
/// witness.
fn assert_confirmed_witness(name: &str, outcome: &Outcome) {
    let w = confirm_refutation(outcome)
        .unwrap_or_else(|e| panic!("{name}: refutation not confirmed: {e}"));
    assert!(
        w.check(),
        "{name}: witness replay must reproduce the disagreement"
    );
    // Shortest-derivation spot check: Algorithm 1 finds the violation
    // nearest the root first, so a non-empty witness packet means the
    // empty packet does not already disagree.
    if !w.packet.is_empty() {
        assert!(
            !w.packet_disagrees(&leapfrog_bitvec::BitVec::new())
                || matches!(w.disagreement, Disagreement::InitRelation { .. }),
            "{name}: a non-empty witness packet implies the empty packet agrees"
        );
    }
}

#[test]
fn sloppy_vs_strict_refutation_carries_confirmed_witness() {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let outcome = check_and_cross_validate(&sloppy, ql, &strict, qr, Options::default())
        .expect("cross-validation must succeed");
    assert_confirmed_witness("sloppy vs strict", &outcome);
    let w = outcome.witness().unwrap();
    // The disagreement needs a full ether + ipv6 parse on the sloppy side:
    // 112 + 288 bits.
    assert_eq!(w.packet.len(), 400, "{w}");
    match w.disagreement {
        Disagreement::Acceptance {
            left_accepts,
            right_accepts,
        } => {
            assert!(
                left_accepts && !right_accepts,
                "sloppy accepts what strict rejects"
            );
        }
        ref other => panic!("expected an acceptance disagreement, got {other:?}"),
    }
}

#[test]
fn uninitialized_vlan_bug_yields_store_witness() {
    // The buggy Figure 9 variant forgets `vlan := 0`; self-comparison must
    // refute with a witness whose two initial stores differ on the header
    // the parser wrongly reads.
    let buggy = vlan_init::vlan_parser_buggy();
    let q = buggy.state_by_name("parse_eth").unwrap();
    let outcome = check_and_cross_validate(&buggy, q, &buggy, q, Options::default())
        .expect("cross-validation must succeed");
    assert_confirmed_witness("buggy vlan self-comparison", &outcome);
    let w = outcome.witness().unwrap();
    assert_ne!(w.left_store, w.right_store, "stores must differ: {w}");
}

#[test]
fn every_cross_family_inequivalence_is_witnessed() {
    // Parsers from different case studies accept different languages; every
    // such refutation must carry a confirmed witness. (Early-stop finds
    // these quickly, so a handful of pairs keeps the test fast.)
    let rearrangement = leapfrog_suite::utility::state_rearrangement_benchmark();
    let speculative = mpls::mpls_benchmark();
    let vlan = vlan_init::vlan_init_benchmark();
    let pairs = [
        (
            "state_rearrangement vs mpls",
            &rearrangement.left,
            rearrangement.left_start,
            &speculative.left,
            speculative.left_start,
        ),
        (
            "mpls reference vs vlan",
            &speculative.left,
            speculative.left_start,
            &vlan.left,
            vlan.left_start,
        ),
    ];
    for (name, left, ql, right, qr) in pairs {
        let outcome = check_and_cross_validate(left, ql, right, qr, Options::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!outcome.is_equivalent(), "{name}: expected a refutation");
        assert_confirmed_witness(name, &outcome);
    }
}

#[test]
fn applicability_mutations_are_witnessed() {
    // Mutate each applicability parser by redirecting its start state's
    // first select case to reject; the mutant must be refuted against the
    // original with a confirmed witness.
    for bench in applicability::all_benchmarks(Scale::Small) {
        let original = bench.left.clone();
        let mut mutated = original.clone();
        mutate_first_case_to_reject(&mut mutated);
        let ql = bench.left_start;
        let outcome = check_and_cross_validate(&original, ql, &mutated, ql, Options::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            !outcome.is_equivalent(),
            "{}: mutant must be refuted",
            bench.name
        );
        assert_confirmed_witness(bench.name, &outcome);
    }
}

/// Redirects the first state-changing select case found to reject,
/// guaranteeing a language change on a reachable path.
fn mutate_first_case_to_reject(aut: &mut leapfrog_p4a::Automaton) {
    use leapfrog_p4a::ast::{Target, Transition};
    for q in aut.state_ids() {
        if let Transition::Select { cases, .. } = &aut.state(q).trans {
            if let Some(idx) = cases
                .iter()
                .position(|c| matches!(c.target, Target::State(_)))
            {
                aut.redirect_case(q, idx, Target::Reject);
                return;
            }
        }
    }
    panic!("no select case to mutate");
}

#[test]
fn relational_violation_yields_init_relation_witness() {
    // A relational query that genuinely fails: require two never-written
    // headers to agree at acceptance. The engine must confirm the witness
    // through the violated initial conjunct, not through acceptance.
    let a = leapfrog_p4a::surface::parse(
        "parser A { state s { extract(g, 1); goto accept } header h : 2; }",
    )
    .unwrap();
    let q = a.state_by_name("s").unwrap();
    let mut checker = Checker::new(&a, q, &a, q, Options::default());
    let sum = checker.sum_info();
    let hl = sum.automaton.header_by_name("l.h").unwrap();
    let hr = sum.automaton.header_by_name("r.h").unwrap();
    let init = vec![ConfRel {
        guard: TemplatePair::new(Template::accept(), Template::accept()),
        vars: vec![],
        phi: Pure::eq(BitExpr::Hdr(Side::Left, hl), BitExpr::Hdr(Side::Right, hr)),
    }];
    checker.replace_init(init);
    let outcome = checker.run();
    assert_confirmed_witness("uninitialized store correspondence", &outcome);
    let w = outcome.witness().unwrap();
    match &w.disagreement {
        Disagreement::InitRelation { relation, .. } => {
            assert_eq!(
                relation.guard,
                TemplatePair::new(Template::accept(), Template::accept())
            );
        }
        other => panic!("expected an init-relation disagreement, got {other:?}"),
    }
    assert!(checker.stats().witnesses_confirmed >= 1);
}

#[test]
fn witness_stats_are_recorded() {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut checker = Checker::new(&sloppy, ql, &strict, qr, Options::default());
    let outcome = checker.run();
    assert!(!outcome.is_equivalent());
    let stats = checker.stats();
    assert_eq!(stats.witnesses_confirmed, 1, "{}", stats.summary());
    assert_eq!(stats.witnesses_unconfirmed, 0);
    assert!(stats.summary().contains("witnesses=1/1"));
}
