//! Differential-testing oracles: cheap semantic equivalence checks used to
//! cross-validate the symbolic decision procedure.
//!
//! These are *testing* tools, not decision procedures: randomized agreement
//! is one-sided (catches inequivalence, never proves equivalence), and the
//! exhaustive oracle is exponential and only usable on tiny automata.
//!
//! Since the counterexample engine landed, refutations are cross-validated
//! too: [`confirm_refutation`] independently replays a refutation's witness
//! packet through the explicit semantics (both the bit-by-bit `δ` and the
//! chunked interpreter) and rejects any witness that does not reproduce a
//! concrete disagreement, and [`check_and_cross_validate`] wraps a full
//! checker run with the matching validation for either verdict.

use leapfrog::{Engine, EngineConfig, Options, Outcome};
use leapfrog_bitvec::BitVec;
use leapfrog_cex::{Disagreement, Refutation, Witness};
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::semantics::{Config, Store};

/// Randomized agreement: runs `samples` random words of each length in
/// `lengths` through both parsers (with independently random initial
/// stores) and reports whether acceptance always matched.
pub fn agree_on_words(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    lengths: &[usize],
    samples: usize,
    seed: u64,
) -> bool {
    find_disagreement(left, ql, right, qr, lengths, samples, seed).is_none()
}

/// Like [`agree_on_words`], but returns the first disagreeing word.
pub fn find_disagreement(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    lengths: &[usize],
    samples: usize,
    seed: u64,
) -> Option<BitVec> {
    let mut state = seed | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for &len in lengths {
        for _ in 0..samples {
            let word = BitVec::random_with(len, &mut rng);
            let sl = Store::random(left, &mut rng);
            let sr = Store::random(right, &mut rng);
            let al = Config::with_store(ql, sl).accepts_chunked(left, &word);
            let ar = Config::with_store(qr, sr).accepts_chunked(right, &word);
            if al != ar {
                return Some(word);
            }
        }
    }
    None
}

/// Exhaustive agreement over *all* words up to `max_len` bits, with zero
/// initial stores. Exponential; keep `max_len ≤ ~18`.
pub fn agree_exhaustive(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    max_len: usize,
) -> bool {
    assert!(max_len <= 22, "exhaustive oracle limited to 22 bits");
    for len in 0..=max_len {
        for w in 0u64..(1u64 << len) {
            let word = BitVec::from_u64(w, len);
            let al = Config::initial(left, ql).accepts_chunked(left, &word);
            let ar = Config::initial(right, qr).accepts_chunked(right, &word);
            if al != ar {
                return false;
            }
        }
    }
    true
}

/// Cross-validates a symbolic refutation: the outcome must carry a
/// *confirmed* witness, and replaying its minimized packet from both
/// initial configurations — with the bit-by-bit `δ` *and* the chunked
/// interpreter, independently — must reproduce the recorded disagreement.
pub fn confirm_refutation(outcome: &Outcome) -> Result<&Witness, String> {
    let refutation = match outcome {
        Outcome::NotEquivalent(r) => r,
        other => return Err(format!("outcome is not a refutation: {other:?}")),
    };
    let w = match refutation {
        Refutation::Witness(w) => w.as_ref(),
        Refutation::Unconfirmed { reason, .. } => {
            return Err(format!("refutation carries no confirmed witness: {reason}"))
        }
    };
    if !w.check() {
        return Err("witness does not replay to its recorded disagreement".into());
    }
    if let Disagreement::Acceptance {
        left_accepts,
        right_accepts,
    } = &w.disagreement
    {
        // Second, independent interpreter: the chunked semantics must agree
        // with the bit-by-bit replay `Witness::check` just performed.
        let aut = w.automaton();
        let al =
            Config::with_store(w.left_start, w.left_store.clone()).accepts_chunked(aut, &w.packet);
        let ar = Config::with_store(w.right_start, w.right_store.clone())
            .accepts_chunked(aut, &w.packet);
        if al != *left_accepts || ar != *right_accepts {
            return Err("chunked replay disagrees with the recorded witness".into());
        }
    }
    Ok(w)
}

/// Runs the symbolic checker and cross-validates its verdict against the
/// explicit semantics: an equivalence verdict is spot-checked with random
/// packets, a refutation must carry a confirmed replayable witness.
/// Answers through a transient engine; a long-running harness should use
/// [`check_and_cross_validate_in`] with a persistent one.
pub fn check_and_cross_validate(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    options: Options,
) -> Result<Outcome, String> {
    let mut engine = Engine::new(EngineConfig {
        options,
        ..EngineConfig::from_env()
    });
    check_and_cross_validate_in(&mut engine, left, ql, right, qr)
}

/// [`check_and_cross_validate`] over a caller-owned persistent [`Engine`]:
/// repeated calls reuse the engine's warm sums, sessions and verdict
/// memos. Verdicts and witnesses are identical to the transient path.
pub fn check_and_cross_validate_in(
    engine: &mut Engine,
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
) -> Result<Outcome, String> {
    let outcome = engine.check(left, ql, right, qr);
    match &outcome {
        Outcome::Equivalent(_) => {
            if !agree_on_words(left, ql, right, qr, &[0, 1, 8, 16, 32, 96, 112], 20, 0xd1f) {
                return Err("equivalence verdict contradicted by random packets".into());
            }
        }
        Outcome::NotEquivalent(_) => {
            confirm_refutation(&outcome)
                .map(|_| ())
                .map_err(|e| e.to_string())?;
        }
        Outcome::Aborted(_) => {}
    }
    Ok(outcome)
}

/// [`check_and_cross_validate`], plus the regression-corpus loop: any
/// recorded counterexamples for `name` are replayed *before* the check
/// (an entry that no longer distinguishes an expected-inequivalent pair
/// is a regression), and a freshly confirmed witness is recorded back
/// into the corpus for the next run.
pub fn check_cross_validate_and_record(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    options: Options,
    name: &str,
    corpus: &mut crate::corpus::WitnessCorpus,
) -> Result<Outcome, String> {
    let mut engine = Engine::new(EngineConfig {
        options,
        ..EngineConfig::from_env()
    });
    check_cross_validate_and_record_in(&mut engine, left, ql, right, qr, name, corpus)
}

/// [`check_cross_validate_and_record`] over a caller-owned persistent
/// [`Engine`] — the serving loop the `table2` harness drives.
pub fn check_cross_validate_and_record_in(
    engine: &mut Engine,
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    name: &str,
    corpus: &mut crate::corpus::WitnessCorpus,
) -> Result<Outcome, String> {
    let prior = corpus.exercise(name, left, ql, right, qr);
    let outcome = check_and_cross_validate_in(engine, left, ql, right, qr)?;
    match &outcome {
        Outcome::NotEquivalent(_) => {
            if prior.replayed > 0 && prior.distinguishing == 0 {
                return Err(format!(
                    "regression corpus for {name}: {} recorded packet(s) no longer \
                     distinguish the refuted pair",
                    prior.replayed
                ));
            }
            if let Some(w) = outcome.witness() {
                corpus.record(name, w);
            }
        }
        Outcome::Equivalent(_) => {
            if prior.distinguishing > 0 {
                return Err(format!(
                    "regression corpus for {name}: {} packet(s) still distinguish a \
                     pair the checker now claims equivalent",
                    prior.distinguishing
                ));
            }
            // The corpus packets also join the packet workload: the pair
            // claims equivalence for *all* initial stores, so the two
            // parsers must agree on every merged packet with zero stores.
            let packets = crate::workload::packets_with_regressions(
                left,
                ql,
                8,
                32,
                0xc0ffee,
                &corpus.packets(name),
            );
            for packet in &packets {
                let al = Config::initial(left, ql).accepts_chunked(left, packet);
                let ar = Config::initial(right, qr).accepts_chunked(right, packet);
                if al != ar {
                    return Err(format!(
                        "regression corpus for {name}: a workload packet ({} bits) \
                         distinguishes a pair the checker claims equivalent",
                        packet.len()
                    ));
                }
            }
        }
        Outcome::Aborted(_) => {}
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::surface::parse;

    #[test]
    fn oracles_accept_equivalent_pair() {
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h) { 0b10 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(x, 1); goto t }
                        state t { extract(y, 1);
               select(x, y) { (0b1, 0b0) => accept; (_, _) => reject; } } }",
        )
        .unwrap();
        let sa = a.state_by_name("s").unwrap();
        let sb = b.state_by_name("s").unwrap();
        assert!(agree_exhaustive(&a, sa, &b, sb, 6));
        assert!(agree_on_words(&a, sa, &b, sb, &[0, 1, 2, 3, 4], 50, 7));
    }

    #[test]
    fn oracles_catch_inequivalent_pair() {
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h) { 0b10 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(h, 2);
               select(h) { 0b01 => accept; _ => reject; } } }",
        )
        .unwrap();
        let sa = a.state_by_name("s").unwrap();
        let sb = b.state_by_name("s").unwrap();
        assert!(!agree_exhaustive(&a, sa, &b, sb, 3));
        let w = find_disagreement(&a, sa, &b, sb, &[2], 64, 3).expect("must disagree");
        assert_eq!(w.len(), 2);
    }
}
