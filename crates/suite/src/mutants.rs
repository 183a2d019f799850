//! The mutated-parser negative suite: fault-injected variants of the
//! speculative-loop benchmark *and* the applicability scenario parsers,
//! generated with [`Automaton::redirect_case`].
//!
//! Each mutant redirects exactly one select case, breaking equivalence in
//! a structurally distinct way (a dropped loop case, a skipped repair, a
//! severed accept path, a rejected tunnel/demux leg). They are
//! *expected-inequivalent* pairs: the checker must refute each one with a
//! confirmed witness, the witnesses land in the regression corpus
//! (`WITNESS_CORPUS.txt`, via the `table2` binary), and the recorded
//! packets are replayed by the differential harness on every subsequent
//! run — a mutant that silently re-equalizes is a regression.
//!
//! The applicability mutants matter beyond coverage: their
//! counterexamples traverse several protocol headers (Ethernet → VLAN /
//! MPLS → IP → transport), so the lifted witnesses are *long* —
//! multi-header packets that the wire encoding, the corpus and the
//! per-bit canonicalization all have to handle.

use leapfrog_p4a::ast::{Automaton, Target};

use crate::applicability;
use crate::utility::mpls;
use crate::{Benchmark, Scale};

/// Applies `mutate` to the vectorized parser and pairs the result against
/// the pristine reference.
fn vectorized_mutant(name: &'static str, mutate: impl FnOnce(&mut Automaton)) -> Benchmark {
    let mut v = mpls::vectorized();
    mutate(&mut v);
    Benchmark::new(name, mpls::reference(), "q1", v, "q3", false)
}

/// Applies `mutate` to the reference parser and pairs the result against
/// the pristine vectorized parser.
fn reference_mutant(name: &'static str, mutate: impl FnOnce(&mut Automaton)) -> Benchmark {
    let mut r = mpls::reference();
    mutate(&mut r);
    Benchmark::new(name, r, "q1", mpls::vectorized(), "q3", false)
}

/// Pairs a pristine applicability parser against a `mutate`d copy of
/// itself (both starting at `parse_eth`), expecting inequivalence.
fn applicability_mutant(
    name: &'static str,
    pristine: &Automaton,
    mutate: impl FnOnce(&mut Automaton),
) -> Benchmark {
    let mut m = pristine.clone();
    mutate(&mut m);
    Benchmark::new(name, pristine.clone(), "parse_eth", m, "parse_eth", false)
}

/// Single-case mutants of the deployment-scenario parsers. Always built at
/// the given scale; the default suite uses [`Scale::Small`] so the
/// negative checks stay cheap while the witnesses still cross three to
/// five headers.
pub fn applicability_mutants(scale: Scale) -> Vec<Benchmark> {
    let edge = applicability::edge(scale);
    let sp = applicability::service_provider(scale);
    let ent = applicability::enterprise(scale);
    vec![
        // Edge's parse_ipv4 demux: the GRE case (index 3) rejects, so
        // every tunneled packet (eth → ipv4 → gre → inner ipv4 → tcp/udp)
        // dies in the mutant.
        applicability_mutant("Edge mutant: GRE tunnel rejected", &edge, |m| {
            let q = m.state_by_name("parse_ipv4").unwrap();
            m.redirect_case(q, 3, Target::Reject);
        }),
        // Service Provider's first MPLS label: the bottom-of-stack case
        // (index 1) rejects, severing the whole MPLS → ipv4 path.
        applicability_mutant(
            "Service Provider mutant: MPLS bottom-of-stack rejected",
            &sp,
            |m| {
                let q = m.state_by_name("parse_mpls0").unwrap();
                m.redirect_case(q, 1, Target::Reject);
            },
        ),
        // Enterprise's outer VLAN demux: the ARP case (index 3) rejects,
        // so VLAN-tagged ARP frames die in the mutant.
        applicability_mutant("Enterprise mutant: VLAN ARP rejected", &ent, |m| {
            let q = m.state_by_name("parse_vlan").unwrap();
            m.redirect_case(q, 3, Target::Reject);
        }),
    ]
}

/// The negative suite: ≥4 single-case mutants of the speculative-loop
/// pair plus ≥3 single-case mutants of the applicability parsers (at
/// [`Scale::Small`]), every one expected `NotEquivalent` with a confirmed
/// witness.
pub fn mutant_benchmarks() -> Vec<Benchmark> {
    let mut out = vec![
        // q3's (open, open) loop case rejects: multi-label stacks die.
        vectorized_mutant("MPLS mutant: open-open loop rejects", |v| {
            let q3 = v.state_by_name("q3").unwrap();
            v.redirect_case(q3, 0, Target::Reject);
        }),
        // q3's (open, closed) exit case rejects: two-label stacks die.
        vectorized_mutant("MPLS mutant: open-closed exit rejects", |v| {
            let q3 = v.state_by_name("q3").unwrap();
            v.redirect_case(q3, 1, Target::Reject);
        }),
        // q3's (closed, _) case skips the q5 repair and reads a fresh UDP
        // header instead: the speculatively-read label is lost.
        vectorized_mutant("MPLS mutant: repair skipped", |v| {
            let q3 = v.state_by_name("q3").unwrap();
            let q4 = v.state_by_name("q4").unwrap();
            v.redirect_case(q3, 2, Target::State(q4));
        }),
        // q1's open-label case leaves the loop early: every label is
        // treated as bottom-of-stack.
        reference_mutant("MPLS mutant: loop exits early", |r| {
            let q1 = r.state_by_name("q1").unwrap();
            let q2 = r.state_by_name("q2").unwrap();
            r.redirect_case(q1, 0, Target::State(q2));
        }),
        // q1's bottom-of-stack case loops forever: accept is unreachable.
        reference_mutant("MPLS mutant: accept unreachable", |r| {
            let q1 = r.state_by_name("q1").unwrap();
            r.redirect_case(q1, 1, Target::State(q1));
        }),
    ];
    out.extend(applicability_mutants(Scale::Small));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::WitnessCorpus;
    use crate::differential::check_cross_validate_and_record;
    use leapfrog::{Options, Outcome};

    #[test]
    fn every_mutant_is_refuted_recorded_and_replayed() {
        let mutants = mutant_benchmarks();
        assert!(mutants.len() >= 4, "the suite promises at least 4 mutants");
        let mut corpus = WitnessCorpus::new();
        for m in &mutants {
            // First run: refute with a confirmed witness and record it.
            let outcome = check_cross_validate_and_record(
                &m.left,
                m.left_start,
                &m.right,
                m.right_start,
                Options::default(),
                m.name,
                &mut corpus,
            )
            .unwrap_or_else(|e| panic!("{}: cross-validation failed: {e}", m.name));
            assert!(
                matches!(outcome, Outcome::NotEquivalent(_)),
                "{}: expected NotEquivalent",
                m.name
            );
            assert!(
                !corpus.entries(m.name).is_empty(),
                "{}: confirmed witness must land in the corpus",
                m.name
            );
            // Second run: the recorded packet replays as a regression
            // input and must still distinguish the pair.
            let report = corpus.exercise(m.name, &m.left, m.left_start, &m.right, m.right_start);
            assert!(
                report.distinguishing > 0,
                "{}: recorded packet must replay to a disagreement: {report:?}",
                m.name
            );
        }
        assert!(corpus.len() >= mutants.len());
    }

    #[test]
    fn applicability_mutants_yield_long_confirmed_witnesses() {
        // The point of mutating the scenario parsers: their refutation
        // packets cross several protocol headers, so the witness engine
        // works on genuinely long, multi-chunk witnesses (an Ethernet
        // header alone is 112 bits).
        let mutants = applicability_mutants(Scale::Small);
        assert!(mutants.len() >= 3, "≥3 applicability mutants promised");
        for m in &mutants {
            let mut checker = leapfrog::Checker::new(
                &m.left,
                m.left_start,
                &m.right,
                m.right_start,
                Options::default(),
            );
            let outcome = checker.run();
            let w = outcome
                .witness()
                .unwrap_or_else(|| panic!("{}: witness must confirm", m.name));
            assert!(w.check(), "{}: witness must replay", m.name);
            assert!(
                w.packet.len() > 112,
                "{}: the distinguishing packet must span multiple headers, got {} bits",
                m.name,
                w.packet.len()
            );
        }
    }

    #[test]
    fn mutants_differ_from_the_pristine_pair() {
        // Sanity: each mutant really changed transition structure.
        let pristine_ref = mpls::reference();
        let pristine_vec = mpls::vectorized();
        for m in mutant_benchmarks() {
            let left_same = format!("{:?}", m.left.state(m.left_start))
                == format!(
                    "{:?}",
                    pristine_ref.state(pristine_ref.state_by_name("q1").unwrap())
                );
            let right_same = format!("{:?}", m.right.state(m.right_start))
                == format!(
                    "{:?}",
                    pristine_vec.state(pristine_vec.state_by_name("q3").unwrap())
                );
            assert!(
                !(left_same && right_same),
                "{}: mutation must alter a start-state transition or a successor",
                m.name
            );
        }
    }
}
