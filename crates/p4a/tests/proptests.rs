//! Property-based tests for the P4A semantics: the whole-state run reaches
//! the same configuration as the bit-by-bit `δ` of Definition 3.5 on random
//! automata and random packets and on the scenario parsers' sums with
//! steered packets, the pretty-printer round-trips through the surface
//! parser, and configurations maintain their buffer invariant.
//!
//! The offline build has no `proptest`; random automata and packets come
//! from a deterministic fixed-seed generator so failures stay reproducible.

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::{Automaton, Expr, Pattern, StateId, Target};
use leapfrog_p4a::builder::Builder;
use leapfrog_p4a::semantics::{Config, Store};
use leapfrog_p4a::walk::{packets, Rng};
use leapfrog_suite::applicability::{datacenter, edge, enterprise, service_provider};
use leapfrog_suite::Scale;

const CASES: usize = 64;

/// A random word of up to `max_len` bits.
fn word(rng: &mut Rng, max_len: usize) -> BitVec {
    let len = rng.below(max_len + 1);
    let bits: Vec<bool> = (0..len).map(|_| rng.next_u64() & 1 == 1).collect();
    BitVec::from_bits(&bits)
}

/// A random well-formed automaton with up to 3 states, each extracting
/// 1–4 bits, with random select/goto transitions.
///
/// With `assigns`, every state also shifts its extract into an 8-bit
/// header `g` after the extract (`g := (h ++ g)[0:7]`) and selects on the
/// bits shifted in before it — the previous state's extract, or the
/// initial store's. Without it the draws from `rng` are the same as if the
/// flag did not exist.
fn random_automaton(rng: &mut Rng, assigns: bool) -> Automaton {
    let n = 1 + rng.below(3);
    let mut b = Builder::new();
    let states: Vec<StateId> = (0..n).map(|i| b.state(format!("q{i}"))).collect();
    let any_target = |rng: &mut Rng| match rng.below(5) {
        0 => Target::Accept,
        1 => Target::Reject,
        s => Target::State(states[(s - 2) % n]),
    };
    let g = assigns.then(|| b.header("g", 8));
    for (i, &q) in states.iter().enumerate() {
        let w = 1 + rng.below(4);
        let h = b.header(format!("h{i}"), w);
        let scrutinee = match g {
            Some(g) => Expr::slice(Expr::hdr(g), w, 2 * w - 1),
            None => Expr::hdr(h),
        };
        let trans = if rng.below(2) == 0 {
            let t = any_target(rng);
            b.goto(t)
        } else {
            let ncases = 1 + rng.below(3);
            let cases: Vec<(Vec<Pattern>, Target)> = (0..ncases)
                .map(|_| {
                    let pat = Pattern::Exact(BitVec::from_u64(rng.next_u64() & ((1 << w) - 1), w));
                    (vec![pat], any_target(rng))
                })
                .collect();
            b.select(vec![scrutinee], cases)
        };
        let mut ops = vec![b.extract(h)];
        if let Some(g) = g {
            let shifted = Expr::slice(Expr::concat(Expr::hdr(h), Expr::hdr(g)), 0, 7);
            ops.push(b.assign(g, shifted));
        }
        b.define(q, ops, trans);
    }
    b.build().expect("generated automaton is well-formed")
}

/// A store drawn from `rng`.
fn random_store(aut: &Automaton, rng: &mut Rng) -> Store {
    Store::random(aut, || rng.next_u64())
}

/// How often the configurations compared by [`assert_same_run`] ended
/// mid-state or ran past `accept`/`reject`.
#[derive(Default)]
struct Coverage {
    mid_state: usize,
    past_final: usize,
}

/// Asserts that [`Config::run`] reaches the configuration — target, store
/// and buffer — that the bit-by-bit `δ*` reaches on `word`, and counts
/// whether the word ended mid-state or ran past a final configuration.
fn assert_same_run(aut: &Automaton, init: &Config, word: &BitVec, cov: &mut Coverage) {
    let mut slow = init.clone();
    let mut past_final = false;
    for bit in word.iter() {
        past_final |= !matches!(slow.target, Target::State(_));
        slow = slow.step(aut, bit);
    }
    assert_eq!(init.run(aut, word), slow, "run and δ* disagree on {word}");
    cov.mid_state += usize::from(!slow.buf.is_empty());
    cov.past_final += usize::from(past_final);
}

/// [`assert_same_run`] on every prefix of `word`.
fn assert_same_run_on_prefixes(aut: &Automaton, init: &Config, word: &BitVec, cov: &mut Coverage) {
    for k in 0..=word.len() {
        assert_same_run(aut, init, &word.subrange(0, k), cov);
    }
}

#[test]
fn chunked_interpreter_agrees_with_bit_by_bit() {
    let mut cov = Coverage::default();
    let mut rng = Rng::new(0xc41c);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng, false);
        let word = word(&mut rng, 40);
        let mut seed = rng.next_u64() | 1;
        let mut store_rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed
        };
        let store = Store::random(&aut, &mut store_rng);
        let q = StateId(0);
        let init = Config::with_store(q, store);
        assert_eq!(init.accepts(&aut, &word), init.accepts_chunked(&aut, &word));
        assert_same_run_on_prefixes(&aut, &init, &word, &mut cov);
    }

    // States that assign after they extract, from random stores: the
    // assigned header feeds the next select and ends up in the final store.
    let mut rng = Rng::new(0xa551);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng, true);
        let word = word(&mut rng, 40);
        let init = Config::with_store(StateId(0), random_store(&aut, &mut rng));
        assert_same_run_on_prefixes(&aut, &init, &word, &mut cov);
    }

    // The scenario parsers' sums, from both copies' start states, on
    // steered packets and on truncated and bit-flipped copies of them.
    let scenarios = [
        edge(Scale::Small),
        service_provider(Scale::Small),
        datacenter(Scale::Small),
        enterprise(Scale::Small),
    ];
    let mut rng = Rng::new(0x5ce7);
    for parser in &scenarios {
        let s = leapfrog_p4a::sum::sum(parser, parser);
        let aut = &s.automaton;
        let eth = parser.state_by_name("parse_eth").unwrap();
        for start in [s.left_state(eth), s.right_state(eth)] {
            for packet in packets(aut, start, 16, 6, rng.next_u64()) {
                let truncated = packet.subrange(0, rng.below(packet.len() + 1));
                let mut flipped = packet.clone();
                if !packet.is_empty() {
                    let i = rng.below(packet.len());
                    flipped.set(i, !packet.get(i).unwrap());
                }
                let store = random_store(aut, &mut rng);
                for word in [&packet, &truncated, &flipped] {
                    for init in [
                        Config::initial(aut, start),
                        Config::with_store(start, store.clone()),
                    ] {
                        assert_same_run(aut, &init, word, &mut cov);
                    }
                }
            }
        }
    }
    assert!(cov.mid_state > 0, "no word ended mid-state");
    assert!(cov.past_final > 0, "no word ran past accept/reject");
}

#[test]
fn buffer_invariant_holds_along_any_run() {
    let mut rng = Rng::new(0xb0ff);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng, false);
        let word = word(&mut rng, 32);
        let mut c = Config::initial(&aut, StateId(0));
        for bit in word.iter() {
            c = c.step(&aut, bit);
            match c.target {
                Target::State(q) => assert!(c.buf.len() < aut.op_size(q)),
                _ => assert!(c.buf.is_empty()),
            }
        }
    }
}

#[test]
fn pretty_print_parse_roundtrip() {
    let mut rng = Rng::new(0x9e77);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng, false);
        let text = leapfrog_p4a::pretty::pretty(&aut, "Gen");
        let back = leapfrog_p4a::surface::parse(&text).expect("pretty output must re-parse");
        assert_eq!(back.num_states(), aut.num_states());
        // Same acceptance on a handful of words.
        for len in [0usize, 1, 3, 5, 8] {
            let word = BitVec::from_bits(&vec![true; len]);
            let a = Config::initial(&aut, StateId(0)).accepts_chunked(&aut, &word);
            let qb = back.state_by_name(aut.state_name(StateId(0))).unwrap();
            let b = Config::initial(&back, qb).accepts_chunked(&back, &word);
            assert_eq!(a, b);
        }
    }
}

#[test]
fn sum_preserves_acceptance() {
    let mut rng = Rng::new(0x5053);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng, false);
        let word = word(&mut rng, 24);
        let other = aut.clone();
        let s = leapfrog_p4a::sum::sum(&aut, &other);
        let q = StateId(0);
        let direct = Config::initial(&aut, q).accepts_chunked(&aut, &word);
        let left =
            Config::initial(&s.automaton, s.left_state(q)).accepts_chunked(&s.automaton, &word);
        let right =
            Config::initial(&s.automaton, s.right_state(q)).accepts_chunked(&s.automaton, &word);
        assert_eq!(direct, left);
        assert_eq!(direct, right);
    }
}

#[test]
fn accept_configurations_absorb_into_reject() {
    let mut rng = Rng::new(0xabab);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng, false);
        let word = word(&mut rng, 24);
        // Any strict extension of an accepted word is rejected.
        let c = Config::initial(&aut, StateId(0)).step_word(&aut, &word);
        if c.is_accepting() {
            let longer = word.concat(&BitVec::from_bits(&[true]));
            assert!(!Config::initial(&aut, StateId(0)).accepts(&aut, &longer));
        }
    }
}
