//! The witness pipeline: lift a countermodel into concrete initial stores
//! and a packet, confirm the disagreement by explicit replay, fall back to
//! steered packet search when lifting alone is inconclusive, and zero the
//! packet's unneeded bits.
//!
//! # How lifting works
//!
//! A refuted query is an entailment `φ ⊨ ρ` whose lowering left the
//! conclusion's packet variables *free*; the countermodel therefore
//! assigns concrete bitvectors to
//!
//! * one variable per `(side, header)` pair — the initial stores, because
//!   the violated relation `ρ` sits at the root guard `⟨q₁,0⟩ / ⟨q₂,0⟩`
//!   where the store *is* the initial store; and
//! * the packet variables `x₀ … xₙ` that successive weakest preconditions
//!   appended while deriving `ρ` from an initial conjunct — each `xᵢ` is
//!   one leap's worth of packet bits, appended in wp order, so the
//!   concrete packet is their concatenation in *reverse* index order
//!   (the last-appended variable is the first chunk consumed).
//!
//! The provenance chain `ρ = wp(wp(…wp(ψ₀)…))` recorded by the checker
//! tells the engine where the packet variables stop and the initial
//! conjunct `ψ₀`'s own variables begin, and doubles as the symbolic trace
//! reported in the witness.

use std::sync::Arc;

use leapfrog_bitvec::BitVec;
use leapfrog_logic::confrel::{ConfRel, Pure, Side};
use leapfrog_logic::lower::LoweredVars;
use leapfrog_logic::templates::TemplatePair;
use leapfrog_p4a::ast::{Automaton, StateId, Target};
use leapfrog_p4a::semantics::{Config, Store};
use leapfrog_p4a::walk::{accepting_walk_packet, random_walk_packet, Rng};
use leapfrog_smt::{Declarations, Model};

use crate::minimize::canonicalize;
use crate::witness::{Disagreement, Refutation, Witness};

/// How many fallback search attempts (per strategy, per side) are made
/// before declaring a refutation unconfirmed.
const SEARCH_ATTEMPTS: usize = 64;

/// Builds a refutation from a failed `Close`/early-stop query.
///
/// * `aut` — the sum automaton the check ran over.
/// * `chain` — the provenance chain of the violated relation: `chain[0]`
///   is the violated relation itself (its guard is the root pair), each
///   subsequent element is the relation it was derived from by `wp`, and
///   the last element is the initial conjunct. The links are `Arc`-shared
///   with the checker's provenance table — building a witness never deep-
///   copies the relations.
/// * `decls`, `lowered`, `model` — the violated entailment query's
///   variable table, store-elimination mapping, and countermodel.
/// * `diagnostic` — the human-readable symbolic report, preserved verbatim
///   when the witness cannot be confirmed.
pub fn build_witness(
    aut: &Automaton,
    chain: &[Arc<ConfRel>],
    decls: &Declarations,
    lowered: &LoweredVars,
    model: &Model,
    diagnostic: String,
) -> Refutation {
    let unconfirmed = |reason: &str| Refutation::Unconfirmed {
        reason: reason.to_string(),
        report: diagnostic.clone(),
    };

    let Some(rho) = chain.first() else {
        return unconfirmed("empty provenance chain");
    };
    let init = chain.last().expect("chain has a first element");

    // The root guard must be a start pair: two proper states with empty
    // buffers (always true for the queries the checker poses).
    let (ql, qr) = match (rho.guard.left.target, rho.guard.right.target) {
        (Target::State(l), Target::State(r))
            if rho.guard.left.buf_len == 0 && rho.guard.right.buf_len == 0 =>
        {
            (l, r)
        }
        _ => return unconfirmed("violated relation is not guarded by a start pair"),
    };

    if lowered.conclusion_vars.len() != rho.vars.len() {
        return unconfirmed("countermodel variable table does not match the relation");
    }

    // Lift the stores: every (side, header) variable the formulas mention
    // gets its model value; unmentioned headers are unconstrained, and the
    // all-zeros completion is as good as any.
    let mut left_store = Store::zeros(aut);
    let mut right_store = Store::zeros(aut);
    for ((side, h), var) in &lowered.headers {
        let value = model.value_or_zeros(decls, *var);
        if value.len() != aut.header_size(*h) {
            return unconfirmed("countermodel width mismatch on a header variable");
        }
        match side {
            Side::Left => left_store.set(*h, value),
            Side::Right => right_store.set(*h, value),
        }
    }

    // Lift the packet: wp-appended variables, last appended first.
    let init_len = init.vars.len();
    if init_len > rho.vars.len() {
        return unconfirmed("initial conjunct has more variables than the violated relation");
    }
    let mut packet = BitVec::new();
    for j in (init_len..rho.vars.len()).rev() {
        packet.extend(&model.value_or_zeros(decls, lowered.conclusion_vars[j]));
    }
    let init_vals: Vec<BitVec> = (0..init_len)
        .map(|j| model.value_or_zeros(decls, lowered.conclusion_vars[j]))
        .collect();

    let trace: Vec<TemplatePair> = chain.iter().map(|c| c.guard).collect();

    // Confirm: replay through the explicit semantics and classify.
    let c1 = Config::with_store(ql, left_store.clone());
    let c2 = Config::with_store(qr, right_store.clone());
    let d1 = c1.step_word(aut, &packet);
    let d2 = c2.step_word(aut, &packet);

    // What counts as a confirmed disagreement depends on the *violated
    // initial conjunct*. A standard forbidden conjunct (`φ₀ = ⊥`, the
    // acceptance-compatibility relation of language equivalence) is
    // refuted by an acceptance disagreement; a caller-supplied relational
    // conjunct is refuted only by landing in its guard with its store
    // condition false — a bare acceptance mismatch may be something the
    // relational property explicitly permits, so it must not be presented
    // as the counterexample.
    let standard_conjunct = init.phi == Pure::ff();
    let disagreement = if standard_conjunct {
        if d1.is_accepting() != d2.is_accepting() {
            Some(Disagreement::Acceptance {
                left_accepts: d1.is_accepting(),
                right_accepts: d2.is_accepting(),
            })
        } else {
            None
        }
    } else if init.guard_matches(&d1, &d2) && !init.phi.eval(&d1, &d2, &init_vals) {
        Some(Disagreement::InitRelation {
            relation: (**init).clone(),
            vals: init_vals.clone(),
        })
    } else {
        None
    };

    let (packet, disagreement) = match disagreement {
        Some(d) => (packet, d),
        None if standard_conjunct => {
            // Lifting was inconclusive (e.g. an unconstrained variable was
            // completed with zeros and the run strayed off the symbolic
            // trace). Search for an acceptance disagreement explicitly,
            // steering walks from both sides' initial configurations.
            match search_disagreement(aut, ql, qr, &left_store, &right_store) {
                Some(found) => {
                    let e1 = Config::with_store(ql, left_store.clone()).step_word(aut, &found);
                    let e2 = Config::with_store(qr, right_store.clone()).step_word(aut, &found);
                    (
                        found,
                        Disagreement::Acceptance {
                            left_accepts: e1.is_accepting(),
                            right_accepts: e2.is_accepting(),
                        },
                    )
                }
                None => {
                    return unconfirmed(
                        "replay agreed on the lifted packet and steered search \
                         found no disagreement",
                    )
                }
            }
        }
        None => {
            // No sound generic search exists for an arbitrary relational
            // conjunct; better an honest Unconfirmed than a witness that
            // demonstrates a permitted disagreement.
            return unconfirmed(
                "replay did not violate the relational initial conjunct on \
                 the lifted packet",
            );
        }
    };

    // Zero the unneeded bits while preserving the confirmed disagreement,
    // then re-derive the recorded verdicts for the canonical packet.
    let mut witness = Witness::new(
        aut.clone(),
        ql,
        qr,
        left_store,
        right_store,
        packet.clone(),
        trace,
        disagreement,
    );
    witness.packet = canonicalize(packet, &mut |p| witness.packet_disagrees(p));
    if let Disagreement::Acceptance { .. } = witness.disagreement {
        let (m1, m2) = witness.replay_packet(&witness.packet);
        witness.disagreement = Disagreement::Acceptance {
            left_accepts: m1.is_accepting(),
            right_accepts: m2.is_accepting(),
        };
    }
    debug_assert!(witness.check(), "canonical witness must re-validate");
    Refutation::Witness(Box::new(witness))
}

/// Searches for a packet on which the two runs disagree on acceptance,
/// reusing the suite's steering machinery: accepting-steered walks from
/// each side (a packet accepted by one side often strays the other into
/// reject) plus plain random walks, all replayed from the lifted stores.
pub fn search_disagreement(
    aut: &Automaton,
    ql: StateId,
    qr: StateId,
    left_store: &Store,
    right_store: &Store,
) -> Option<BitVec> {
    let mut rng = Rng::new(0x5eed_cafe);
    let disagrees = |packet: &BitVec| {
        let a = Config::with_store(ql, left_store.clone()).accepts_chunked(aut, packet);
        let b = Config::with_store(qr, right_store.clone()).accepts_chunked(aut, packet);
        a != b
    };
    for attempt in 0..SEARCH_ATTEMPTS {
        let max_states = 2 + attempt % 14;
        for (start, store) in [(ql, left_store), (qr, right_store)] {
            let steered = accepting_walk_packet(aut, start, store.clone(), max_states, &mut rng);
            if disagrees(&steered) {
                return Some(steered);
            }
            let random = random_walk_packet(aut, start, max_states, &mut rng);
            if disagrees(&random) {
                return Some(random);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::sum::sum;
    use leapfrog_p4a::surface::parse;

    #[test]
    fn search_finds_acceptance_disagreement() {
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
        let s = sum(&a, &b);
        let ql = s.left_state(a.state_by_name("s").unwrap());
        let qr = s.right_state(b.state_by_name("s").unwrap());
        let zl = Store::zeros(&s.automaton);
        let zr = Store::zeros(&s.automaton);
        let found = search_disagreement(&s.automaton, ql, qr, &zl, &zr)
            .expect("the parsers disagree on 2-bit packets");
        let la = Config::with_store(ql, zl).accepts_chunked(&s.automaton, &found);
        let ra = Config::with_store(qr, zr).accepts_chunked(&s.automaton, &found);
        assert_ne!(la, ra);
    }
}
