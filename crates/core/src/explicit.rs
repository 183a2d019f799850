//! A naive explicit-state equivalence baseline.
//!
//! Section 4 of the paper argues that representing bisimulations
//! concretely can never scale: every state contributes `|S| · 2^{‖op‖-1}`
//! configurations, ~10³⁸ even for the small MPLS example. This module
//! implements exactly that naive approach — a breadth-first product
//! construction over *concrete* configurations (Hopcroft–Karp without the
//! union-find, which changes constants, not the explosion) — so the claim
//! can be measured rather than asserted (the `ablation` binary in
//! `leapfrog-bench` gates its exact pair counts as a header widens).
//!
//! Because enumerating initial stores is itself exponential, the baseline
//! checks equivalence *for two fixed initial stores* (defaulting to
//! all-zeros), which is strictly weaker than the symbolic checker's
//! all-stores guarantee — another axis on which the symbolic approach
//! wins.

use std::collections::{HashSet, VecDeque};

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::semantics::{Config, Store};

/// The outcome of an explicit-state check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplicitResult {
    /// All reachable configuration pairs agree on acceptance.
    Equivalent {
        /// Number of configuration pairs explored.
        explored: usize,
    },
    /// A distinguishing word was found.
    NotEquivalent(BitVec),
    /// The configuration-pair budget was exhausted — the expected outcome
    /// on realistic parsers, per §4.
    Exhausted {
        /// The budget that was exhausted.
        budget: usize,
    },
}

/// Runs the naive product construction from `(ql, store_l)` and
/// `(qr, store_r)` with zero stores, up to `budget` configuration pairs.
pub fn check_explicit(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    budget: usize,
) -> ExplicitResult {
    check_explicit_from(
        left,
        Config::with_store(ql, Store::zeros(left)),
        right,
        Config::with_store(qr, Store::zeros(right)),
        budget,
    )
}

/// As [`check_explicit`], from caller-chosen initial configurations.
pub fn check_explicit_from(
    left: &Automaton,
    cl: Config,
    right: &Automaton,
    cr: Config,
    budget: usize,
) -> ExplicitResult {
    // Each queue entry carries the word that reached it so refutations are
    // reported as concrete packets (the memory cost of this bookkeeping is
    // dwarfed by the configuration pairs themselves).
    let mut seen: HashSet<(Config, Config)> = HashSet::new();
    let mut queue: VecDeque<(Config, Config, BitVec)> = VecDeque::new();
    seen.insert((cl.clone(), cr.clone()));
    queue.push_back((cl, cr, BitVec::new()));

    while let Some((a, b, word)) = queue.pop_front() {
        if a.is_accepting() != b.is_accepting() {
            return ExplicitResult::NotEquivalent(word);
        }
        for bit in [false, true] {
            let na = a.step(left, bit);
            let nb = b.step(right, bit);
            let key = (na.clone(), nb.clone());
            if seen.contains(&key) {
                continue;
            }
            if seen.len() >= budget {
                return ExplicitResult::Exhausted { budget };
            }
            seen.insert(key);
            let mut w = word.clone();
            w.push(bit);
            queue.push_back((na, nb, w));
        }
    }
    ExplicitResult::Equivalent {
        explored: seen.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::surface::parse;

    fn state(aut: &Automaton, name: &str) -> StateId {
        aut.state_by_name(name).unwrap()
    }

    #[test]
    fn tiny_equivalent_pair_terminates() {
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(x, 1); goto t }
                        state t { extract(y, 1);
               select(x, y) { (0b1, 0b1) => accept; (_, _) => reject; } } }",
        )
        .unwrap();
        let r = check_explicit(&a, state(&a, "s"), &b, state(&b, "s"), 100_000);
        assert!(matches!(r, ExplicitResult::Equivalent { .. }), "{r:?}");
    }

    #[test]
    fn tiny_inequivalent_pair_yields_witness() {
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(h, 2);
               select(h) { 0b10 => accept; _ => reject; } } }",
        )
        .unwrap();
        match check_explicit(&a, state(&a, "s"), &b, state(&b, "s"), 100_000) {
            ExplicitResult::NotEquivalent(w) => {
                // The witness must actually distinguish the parsers.
                use leapfrog_p4a::semantics::{Config, Store};
                let ca = Config::with_store(state(&a, "s"), Store::zeros(&a));
                let cb = Config::with_store(state(&b, "s"), Store::zeros(&b));
                assert_ne!(ca.accepts(&a, &w), cb.accepts(&b, &w));
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn realistic_parser_exhausts_budget() {
        // The paper's §4 point: the MPLS example's configuration space is
        // astronomically large, so the explicit method dies immediately
        // where the symbolic method takes milliseconds.
        let r = parse(
            "parser R { state q1 { extract(mpls, 32);
               select(mpls[23:23]) { 0b0 => q1; 0b1 => q2; } }
               state q2 { extract(udp, 64); goto accept } }",
        )
        .unwrap();
        let out = check_explicit(
            &r,
            r.state_by_name("q1").unwrap(),
            &r,
            r.state_by_name("q1").unwrap(),
            50_000,
        );
        assert!(matches!(out, ExplicitResult::Exhausted { .. }), "{out:?}");
    }

    #[test]
    fn explicit_agrees_with_symbolic_on_small_inputs() {
        let a = parse(
            "parser A { state s { extract(h, 3);
               select(h[0:1]) { 0b10 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(x, 1); goto t }
                        state t { extract(y, 2);
               select(x, y[0:0]) { (0b1, 0b0) => accept; (_, _) => reject; } } }",
        )
        .unwrap();
        let explicit = check_explicit(&a, state(&a, "s"), &b, state(&b, "s"), 1_000_000);
        let symbolic =
            crate::checker::check_language_equivalence(&a, state(&a, "s"), &b, state(&b, "s"));
        assert!(matches!(explicit, ExplicitResult::Equivalent { .. }));
        assert!(symbolic.is_equivalent());
    }
}
