//! Operational semantics of P4 automata (paper, §3.2).
//!
//! The central object is the *configuration* `⟨q, s, w⟩` (Definition 3.4):
//! a control location (state or `accept`/`reject`), a store `s` assigning a
//! bitvector to every header, and a buffer `w` of packet bits received but
//! not yet consumed, with `|w| < ‖op(q)‖` for proper states. The bit-by-bit
//! step function `δ` (Definition 3.5) buffers input until the current
//! state's operation block can run, then executes it and actuates the
//! transition. Configurations at `accept`/`reject` step unconditionally to
//! `reject`, so a packet is accepted exactly when the configuration reached
//! *at its end* is accepting.
//!
//! [`Config::run`] computes the same `δ*` a whole state at a time, in one
//! store: it clones the configuration once, then for each state extracts
//! and assigns in place, evaluates the transition and clears the buffer.
//! It is the only chunked interpreter ([`Config::accepts_chunked`] and the
//! witness minimizer's replays go through it); property tests check that
//! its final configuration — target, store and buffer — equals the one the
//! bit-by-bit `δ` reaches.

use leapfrog_bitvec::BitVec;

use crate::ast::{clamped_slice_bounds, Automaton, Expr, Op, StateId, Target, Transition};

/// A store: one bitvector per header, `|s(h)| = sz(h)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Store {
    values: Vec<BitVec>,
}

impl Store {
    /// The all-zeros store for `aut`.
    pub fn zeros(aut: &Automaton) -> Store {
        Store {
            values: aut
                .header_ids()
                .map(|h| BitVec::zeros(aut.header_size(h)))
                .collect(),
        }
    }

    /// A store with the given per-header values.
    ///
    /// # Panics
    ///
    /// Panics if the number of values or any width disagrees with `aut`.
    pub fn from_values(aut: &Automaton, values: Vec<BitVec>) -> Store {
        assert_eq!(values.len(), aut.num_headers());
        for (h, v) in aut.header_ids().zip(values.iter()) {
            assert_eq!(
                v.len(),
                aut.header_size(h),
                "store width mismatch for {}",
                aut.header_name(h)
            );
        }
        Store { values }
    }

    /// A uniformly random store (for differential testing).
    pub fn random(aut: &Automaton, mut next_u64: impl FnMut() -> u64) -> Store {
        Store {
            values: aut
                .header_ids()
                .map(|h| BitVec::random_with(aut.header_size(h), &mut next_u64))
                .collect(),
        }
    }

    /// The value of header `h`.
    pub fn get(&self, h: crate::ast::HeaderId) -> &BitVec {
        &self.values[h.0 as usize]
    }

    /// Functional update `s[v/h]` (Definition 3.2).
    pub fn set(&mut self, h: crate::ast::HeaderId, v: BitVec) {
        self.values[h.0 as usize] = v;
    }

    /// Evaluates an expression against this store (`JeK_E`, Definition 3.1).
    /// (`aut` is kept for API uniformity with width computations.)
    #[allow(clippy::only_used_in_recursion)]
    pub fn eval(&self, aut: &Automaton, e: &Expr) -> BitVec {
        match e {
            Expr::Hdr(h) => self.get(*h).clone(),
            Expr::Lit(bv) => bv.clone(),
            Expr::Slice(inner, n1, n2) => {
                let v = self.eval(aut, inner);
                v.slice(*n1, *n2)
            }
            Expr::Concat(a, b) => self.eval(aut, a).concat(&self.eval(aut, b)),
        }
    }
}

/// A configuration `⟨q, s, w⟩` of a P4 automaton's underlying DFA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    /// The control location.
    pub target: Target,
    /// The store.
    pub store: Store,
    /// The buffer of unconsumed bits; `|buf| < ‖op(q)‖` when `target` is a
    /// proper state, and empty otherwise.
    pub buf: BitVec,
}

impl Config {
    /// The initial configuration `⟨q, 0…0, ε⟩` with a zero store.
    pub fn initial(aut: &Automaton, q: StateId) -> Config {
        Config {
            target: Target::State(q),
            store: Store::zeros(aut),
            buf: BitVec::new(),
        }
    }

    /// An initial configuration with a caller-supplied store (the paper's
    /// semantics embeds the initial store in the start configuration).
    pub fn with_store(q: StateId, store: Store) -> Config {
        Config {
            target: Target::State(q),
            store,
            buf: BitVec::new(),
        }
    }

    /// Whether this is an accepting configuration (`∈ F`): at `accept` with
    /// an empty buffer.
    pub fn is_accepting(&self) -> bool {
        self.target == Target::Accept && self.buf.is_empty()
    }

    /// The bit-by-bit step function `δ` (Definition 3.5).
    pub fn step(&self, aut: &Automaton, bit: bool) -> Config {
        match self.target {
            Target::Accept | Target::Reject => Config {
                target: Target::Reject,
                store: self.store.clone(),
                buf: BitVec::new(),
            },
            Target::State(q) => {
                let mut buf = self.buf.clone();
                buf.push(bit);
                if buf.len() < aut.op_size(q) {
                    Config {
                        target: self.target,
                        store: self.store.clone(),
                        buf,
                    }
                } else {
                    let mut store = self.store.clone();
                    run_ops(aut, q, &mut store, &buf);
                    let next = eval_transition(aut, q, &store);
                    Config {
                        target: next,
                        store,
                        buf: BitVec::new(),
                    }
                }
            }
        }
    }

    /// Multi-step dynamics `δ*` (Definition 3.6).
    pub fn step_word(&self, aut: &Automaton, word: &BitVec) -> Config {
        let mut c = self.clone();
        for b in word.iter() {
            c = c.step(aut, b);
        }
        c
    }

    /// Whether `word ∈ L(self)`: running the word ends in an accepting
    /// configuration.
    pub fn accepts(&self, aut: &Automaton, word: &BitVec) -> bool {
        self.step_word(aut, word).is_accepting()
    }

    /// Whole-state run of `δ*`: the configuration [`Config::step_word`]
    /// reaches on `word`, computed one state at a time in a single store
    /// rather than one bit at a time with a store copy per bit.
    ///
    /// Each proper state takes the `‖op(q)‖ - |buf|` bits it still needs,
    /// runs its operation block in place, actuates its transition and
    /// clears the buffer; a tail too short to finish the state stays
    /// buffered. At `accept`/`reject` every further bit steps to `reject`,
    /// so the rest of the word is absorbed in one step.
    pub fn run(&self, aut: &Automaton, word: &BitVec) -> Config {
        let mut c = self.clone();
        let mut pos = 0;
        while pos < word.len() {
            let Target::State(q) = c.target else {
                c.target = Target::Reject;
                c.buf = BitVec::new();
                break;
            };
            let need = aut.op_size(q) - c.buf.len();
            let take = need.min(word.len() - pos);
            c.buf.extend(&word.subrange(pos, take));
            pos += take;
            if take < need {
                break;
            }
            run_ops(aut, q, &mut c.store, &c.buf);
            c.target = eval_transition(aut, q, &c.store);
            c.buf = BitVec::new();
        }
        c
    }

    /// Fast acceptance check through [`Config::run`]; agrees with
    /// [`Config::accepts`].
    pub fn accepts_chunked(&self, aut: &Automaton, word: &BitVec) -> bool {
        self.run(aut, word).is_accepting()
    }
}

/// Runs a state's operation block on `(store, buffer)` where the buffer
/// holds exactly `‖op(q)‖` bits (`JopK_O`, Definition 3.2).
pub fn run_ops(aut: &Automaton, q: StateId, store: &mut Store, buf: &BitVec) {
    debug_assert_eq!(
        buf.len(),
        aut.op_size(q),
        "operation block needs a full buffer"
    );
    let mut cursor = 0;
    for op in &aut.state(q).ops {
        match op {
            Op::Extract(h) => {
                let sz = aut.header_size(*h);
                store.set(*h, buf.subrange(cursor, sz));
                cursor += sz;
            }
            Op::Assign(h, e) => {
                let v = store.eval(aut, e);
                debug_assert_eq!(v.len(), aut.header_size(*h));
                store.set(*h, v);
            }
        }
    }
}

/// Evaluates a state's transition block against a store (`JtzK_T`,
/// Definition 3.3): first matching case wins, fall-through is `reject`.
pub fn eval_transition(aut: &Automaton, q: StateId, store: &Store) -> Target {
    match &aut.state(q).trans {
        Transition::Goto(t) => *t,
        Transition::Select { exprs, cases } => {
            let values: Vec<BitVec> = exprs.iter().map(|e| store.eval(aut, e)).collect();
            for case in cases {
                if case.pats.iter().zip(&values).all(|(p, v)| p.matches(v)) {
                    return case.target;
                }
            }
            Target::Reject
        }
    }
}

/// Symbolic-free helper: the exact `(start, len)` covered by the clamped
/// slice `e[n1:n2]`, re-exported for the logic crate's lowering.
pub fn resolve_slice(aut: &Automaton, e: &Expr, n1: usize, n2: usize) -> (usize, usize) {
    clamped_slice_bounds(e.width(aut), n1, n2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pattern;
    use crate::builder::Builder;

    /// The reference MPLS/UDP parser of Figure 1 (left).
    fn mpls_ref() -> (Automaton, StateId) {
        let mut b = Builder::new();
        let mpls = b.header("mpls", 32);
        let udp = b.header("udp", 64);
        let q1 = b.state("q1");
        let q2 = b.state("q2");
        b.define(
            q1,
            vec![b.extract(mpls)],
            b.select(
                vec![Expr::slice(Expr::hdr(mpls), 23, 23)],
                vec![
                    (vec![Pattern::exact_str("0")], Target::State(q1)),
                    (vec![Pattern::exact_str("1")], Target::State(q2)),
                ],
            ),
        );
        b.define(q2, vec![b.extract(udp)], b.goto(Target::Accept));
        let aut = b.build().unwrap();
        (aut, q1)
    }

    fn label(bottom: bool) -> BitVec {
        let mut l = BitVec::zeros(32);
        l.set(23, bottom);
        l
    }

    #[test]
    fn accepts_single_label_packet() {
        let (aut, q1) = mpls_ref();
        let packet = label(true).concat(&BitVec::zeros(64));
        assert!(Config::initial(&aut, q1).accepts(&aut, &packet));
    }

    #[test]
    fn accepts_multi_label_packet() {
        let (aut, q1) = mpls_ref();
        let packet = label(false)
            .concat(&label(false))
            .concat(&label(true))
            .concat(&BitVec::zeros(64));
        assert!(Config::initial(&aut, q1).accepts(&aut, &packet));
    }

    #[test]
    fn rejects_truncated_packet() {
        let (aut, q1) = mpls_ref();
        // Missing UDP bits.
        let packet = label(true).concat(&BitVec::zeros(63));
        assert!(!Config::initial(&aut, q1).accepts(&aut, &packet));
    }

    #[test]
    fn rejects_overlong_packet() {
        let (aut, q1) = mpls_ref();
        // One extra bit after acceptance: accept steps to reject.
        let packet = label(true).concat(&BitVec::zeros(65));
        assert!(!Config::initial(&aut, q1).accepts(&aut, &packet));
    }

    #[test]
    fn rejects_unterminated_label_stack() {
        let (aut, q1) = mpls_ref();
        let packet = label(false).concat(&label(false));
        assert!(!Config::initial(&aut, q1).accepts(&aut, &packet));
    }

    #[test]
    fn empty_word_not_accepted_from_state() {
        let (aut, q1) = mpls_ref();
        assert!(!Config::initial(&aut, q1).accepts(&aut, &BitVec::new()));
    }

    #[test]
    fn buffer_invariant_maintained() {
        let (aut, q1) = mpls_ref();
        let mut c = Config::initial(&aut, q1);
        for i in 0..40 {
            c = c.step(&aut, i % 3 == 0);
            if let Target::State(q) = c.target {
                assert!(c.buf.len() < aut.op_size(q));
            } else {
                assert!(c.buf.is_empty());
            }
        }
    }

    #[test]
    fn accept_steps_to_reject() {
        let (aut, q1) = mpls_ref();
        let packet = label(true).concat(&BitVec::zeros(64));
        let c = Config::initial(&aut, q1).step_word(&aut, &packet);
        assert!(c.is_accepting());
        let c2 = c.step(&aut, false);
        assert_eq!(c2.target, Target::Reject);
        let c3 = c2.step(&aut, true);
        assert_eq!(c3.target, Target::Reject);
    }

    #[test]
    fn assignment_and_concat_semantics() {
        // q extracts two nibbles, then swaps them into `out`.
        let mut b = Builder::new();
        let a = b.header("a", 4);
        let c = b.header("c", 4);
        let out = b.header("out", 8);
        let q = b.state("q");
        b.define(
            q,
            vec![
                b.extract(a),
                b.extract(c),
                b.assign(out, Expr::concat(Expr::hdr(c), Expr::hdr(a))),
            ],
            b.goto(Target::Accept),
        );
        let aut = b.build().unwrap();
        let word: BitVec = "10100101".parse().unwrap();
        let q = aut.state_by_name("q").unwrap();
        let end = Config::initial(&aut, q).step_word(&aut, &word);
        assert!(end.is_accepting());
        let out = aut.header_by_name("out").unwrap();
        assert_eq!(end.store.get(out).to_string(), "01011010");
    }

    #[test]
    fn select_first_match_wins() {
        let mut b = Builder::new();
        let h = b.header("h", 2);
        let q = b.state("q");
        let dead = b.state("dead");
        b.define(
            q,
            vec![b.extract(h)],
            b.select1(
                Expr::hdr(h),
                vec![("11", Target::Accept), ("_", Target::State(dead))],
            ),
        );
        b.define(dead, vec![b.extract(h)], b.goto(Target::Reject));
        let aut = b.build().unwrap();
        let q = aut.state_by_name("q").unwrap();
        assert!(Config::initial(&aut, q).accepts(&aut, &"11".parse().unwrap()));
        // "10" goes to dead, which needs 2 more bits then rejects.
        assert!(!Config::initial(&aut, q).accepts(&aut, &"10".parse().unwrap()));
    }

    #[test]
    fn select_fallthrough_rejects() {
        let mut b = Builder::new();
        let h = b.header("h", 2);
        let q = b.state("q");
        b.define(
            q,
            vec![b.extract(h)],
            b.select1(Expr::hdr(h), vec![("11", Target::Accept)]),
        );
        let aut = b.build().unwrap();
        let q = aut.state_by_name("q").unwrap();
        assert!(!Config::initial(&aut, q).accepts(&aut, &"01".parse().unwrap()));
    }

    #[test]
    fn chunked_interpreter_agrees_with_bit_by_bit() {
        let (aut, q1) = mpls_ref();
        let mut state = 0x42u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for len in [0usize, 1, 31, 32, 64, 95, 96, 97, 128, 160, 200] {
            for _ in 0..5 {
                let word = BitVec::random_with(len, &mut rng);
                let init = Config::initial(&aut, q1);
                assert_eq!(
                    init.step_word(&aut, &word),
                    init.run(&aut, &word),
                    "disagreement on length {len}"
                );
                assert_eq!(
                    init.accepts(&aut, &word),
                    init.accepts_chunked(&aut, &word),
                    "disagreement on length {len}"
                );
            }
        }
    }

    #[test]
    fn acceptance_depends_on_store_only_through_program() {
        // The MPLS parser never reads uninitialized headers, so acceptance
        // is store-independent.
        let (aut, q1) = mpls_ref();
        let mut state = 7u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let word = label(true).concat(&BitVec::zeros(64));
        for _ in 0..10 {
            let s = Store::random(&aut, &mut rng);
            assert!(Config::with_store(q1, s).accepts(&aut, &word));
        }
    }
}
