//! The per-query checker API: Algorithm 1 (paper, §4.2) posed over one
//! pair of P4 automata, with the reachability-pruning and leap
//! optimizations of §5 (and the ability to disable either, for the §7.3
//! ablation).
//!
//! Since the persistent-engine redesign, this module is a *thin wrapper*:
//! a [`Checker`] owns a transient [`Engine`] and delegates the actual
//! worklist run to it, which runs on the calling thread (see
//! [`crate::engine`] for the algorithm and the warm-state machinery).
//! Certificates and witnesses are byte-identical whichever entry point is
//! used — a one-shot [`check_language_equivalence`], a cold engine, or a
//! warm engine re-checking a pair it has seen before (asserted in
//! `tests/engine.rs`).

use leapfrog_cex::Refutation;
use leapfrog_logic::confrel::{ConfRel, Pure};
use leapfrog_logic::templates::TemplatePair;
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::sum::Sum;

use crate::certificate::Certificate;
use crate::engine::{Engine, EngineConfig, PairId, QueryRequest};
use crate::stats::RunStats;

/// The shape of one query: the four knobs that change *what* is
/// computed. The defaults enable every optimization described in the
/// paper; the §7.3 ablation disables them selectively. Everything that
/// only changes how fast queries run (batch threads, caches, session GC,
/// the SAT policy) lives on [`EngineConfig`]. Reads no environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Options {
    /// Use bisimulations with leaps (§5.2). Disabling falls back to
    /// bit-by-bit weakest preconditions.
    pub leaps: bool,
    /// Prune the search to template pairs reachable from the query (§5.1).
    /// Disabling considers the full template-pair space.
    pub reach_pruning: bool,
    /// Report non-equivalence as soon as a relation contradicting the
    /// query joins `R`, instead of only at the final `Close` step. Sound:
    /// the final check would fail on the same conjunct.
    pub early_stop: bool,
    /// Abort after this many worklist iterations (`None` = unbounded).
    pub max_iterations: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            leaps: true,
            reach_pruning: true,
            early_stop: true,
            max_iterations: None,
        }
    }
}

/// What a run establishes. Currently only language equivalence carries a
/// dedicated constructor; relational properties are posed by extending the
/// initial relation (see [`Checker::add_init_condition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// `L(q₁, s₁) = L(q₂, s₂)` for all initial stores `s₁`, `s₂`.
    LanguageEquivalence,
}

/// The result of a run.
#[derive(Debug)]
pub enum Outcome {
    /// The property holds; the certificate contains the computed relation.
    Equivalent(Certificate),
    /// The property fails. The refutation carries a concrete witness —
    /// initial stores and a minimized distinguishing packet, confirmed by
    /// replaying the explicit semantics — or, when the countermodel could
    /// not be lifted, the raw symbolic diagnostic.
    NotEquivalent(Refutation),
    /// The iteration budget was exhausted.
    Aborted(String),
}

impl Outcome {
    /// Whether the run proved the property.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Outcome::Equivalent(_))
    }

    /// The refutation witness, when the run refuted the property and the
    /// countermodel lifted into a confirmed counterexample.
    pub fn witness(&self) -> Option<&leapfrog_cex::Witness> {
        match self {
            Outcome::NotEquivalent(r) => r.witness(),
            _ => None,
        }
    }
}

/// The equivalence checker for a pair of P4 automata: a per-query view
/// over a transient [`Engine`]. Prefer a long-lived engine when checking
/// more than one query — everything a `Checker` learns dies with it.
pub struct Checker {
    engine: Engine,
    pair: PairId,
    extra_init: Vec<ConfRel>,
    standard_init: bool,
    query: ConfRel,
    stats: RunStats,
}

impl Checker {
    /// Sets up a check that `left` started in `ql` and `right` started in
    /// `qr` accept the same packets, regardless of initial stores. The
    /// engine's knobs come from [`EngineConfig::from_env`].
    pub fn new(
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
        options: Options,
    ) -> Checker {
        let config = EngineConfig {
            options,
            ..EngineConfig::from_env()
        };
        Checker::with_config(left, ql, right, qr, config)
    }

    /// [`Checker::new`] over an engine built from an explicit
    /// configuration, query shape included.
    pub fn with_config(
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
        config: EngineConfig,
    ) -> Checker {
        let mut engine = Engine::new(config);
        let pair = engine.prepare_pair(left, ql, right, qr);
        let query = ConfRel::trivial(engine.root(pair));
        Checker {
            engine,
            pair,
            extra_init: Vec::new(),
            standard_init: true,
            query,
            stats: RunStats::default(),
        }
    }

    /// The disjoint-sum automaton the check runs over. Initial conditions
    /// and queries are expressed over its headers.
    pub fn sum_automaton(&self) -> &Automaton {
        self.engine.sum_automaton(self.pair)
    }

    /// The sum's identifier mappings (left/right state and header ids).
    pub fn sum_info(&self) -> &Sum {
        self.engine.sum_info(self.pair)
    }

    /// The root template pair `(⟨q₁, 0⟩, ⟨q₂, 0⟩)`.
    pub fn root(&self) -> TemplatePair {
        self.engine.root(self.pair)
    }

    /// Adds a conjunct to the initial relation `I` (paper §7.1: the
    /// *external filtering* and *relational verification* case studies pose
    /// store conditions on accepting configuration pairs this way).
    pub fn add_init_condition(&mut self, rel: ConfRel) {
        self.extra_init.push(rel);
    }

    /// Replaces the *entire* initial relation `I`, dropping the standard
    /// acceptance-compatibility conditions. This poses a pre-bisimulation
    /// problem for a caller-chosen `I` — the paper's *external filtering*
    /// and *relational verification* case studies (§7.1). The resulting
    /// certificate is marked non-standard: it witnesses closure and
    /// entailment for the given `I`, not language equivalence.
    pub fn replace_init(&mut self, rels: Vec<ConfRel>) {
        self.standard_init = false;
        self.extra_init = rels;
    }

    /// Replaces the query body `φ` (by default `⊤` at the root guard:
    /// equivalence for arbitrary initial stores). Strengthening `φ`
    /// restricts the initial stores the proof covers.
    pub fn set_query_phi(&mut self, phi: Pure, vars: Vec<usize>) {
        self.query = ConfRel {
            guard: self.root(),
            vars,
            phi,
        };
    }

    /// Statistics from the last [`Checker::run`].
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Runs Algorithm 1 (through the owned engine; a repeated `run` on the
    /// same checker replays warm, with identical results).
    pub fn run(&mut self) -> Outcome {
        let request = QueryRequest {
            standard_init: self.standard_init,
            extra_init: self.extra_init.clone(),
            query: self.query.clone(),
            options: self.engine.config().options,
        };
        let outcome = self.engine.run_prepared(self.pair, &request);
        self.stats = self.engine.last_run_stats().clone();
        outcome
    }
}

/// The strict-mode decision, factored out for testability: an
/// [`Refutation::Unconfirmed`] under strict mode on a standard query is a
/// hard error (the engine guarantees lifting succeeds there; failure means
/// a checker or engine bug, not a property of the input).
pub(crate) fn strict_witness_violation(
    strict: bool,
    standard_query: bool,
    refutation: &Refutation,
) -> Option<String> {
    match refutation {
        Refutation::Unconfirmed { reason, .. } if strict && standard_query => Some(format!(
            "strict witness mode: refutation of a standard query could not be \
             confirmed by explicit replay ({reason}); this indicates a bug in \
             the checker or the counterexample engine, not in the input parsers"
        )),
        _ => None,
    }
}

/// One-call convenience API: language equivalence with default options,
/// answered by a transient engine.
pub fn check_language_equivalence(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
) -> Outcome {
    Checker::new(left, ql, right, qr, Options::default()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::surface::parse;

    fn state(aut: &Automaton, name: &str) -> StateId {
        aut.state_by_name(name).unwrap()
    }

    #[test]
    fn chunking_equivalence() {
        // One 4-bit state vs four 1-bit states, both accept everything of
        // length 4.
        let a = parse("parser A { state s { extract(h, 4); goto accept; } }").unwrap();
        let b = parse(
            "parser B {
               state s0 { extract(b0, 1); goto s1 }
               state s1 { extract(b1, 1); goto s2 }
               state s2 { extract(b2, 1); goto s3 }
               state s3 { extract(b3, 1); goto accept }
             }",
        )
        .unwrap();
        let out = check_language_equivalence(&a, state(&a, "s"), &b, state(&b, "s0"));
        assert!(out.is_equivalent(), "{out:?}");
    }

    #[test]
    fn branching_equivalence() {
        // Accept packets whose first 2 bits are 11, reading 4 bits total —
        // two different state layouts.
        let a = parse(
            "parser A { state s { extract(h, 4);
               select(h[0:1]) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B {
               state s { extract(pre, 2); goto t }
               state t { extract(suf, 2);
                 select(pre) { 0b11 => accept; _ => reject; } }
             }",
        )
        .unwrap();
        let out = check_language_equivalence(&a, state(&a, "s"), &b, state(&b, "s"));
        assert!(out.is_equivalent(), "{out:?}");
    }

    #[test]
    fn inequivalence_detected_with_countermodel() {
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
        let out = check_language_equivalence(&a, state(&a, "s"), &b, state(&b, "s"));
        match out {
            Outcome::NotEquivalent(refutation) => {
                let w = refutation
                    .witness()
                    .expect("countermodel should lift to a witness");
                assert!(w.check(), "witness must replay to a disagreement");
                // Both parsers read exactly 2 bits, so the minimized
                // distinguishing packet has exactly 2 bits.
                assert_eq!(w.packet.len(), 2, "{w}");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn sanity_check_without_early_stop_reaches_close() {
        // The paper's sanity check: inequivalent parsers must fail at the
        // Close step when early stopping is off.
        let a = parse("parser A { state s { extract(h, 2); goto accept } }").unwrap();
        let b = parse("parser B { state s { extract(h, 2); goto reject } }").unwrap();
        let opts = Options {
            early_stop: false,
            ..Options::default()
        };
        let mut c = Checker::new(&a, state(&a, "s"), &b, state(&b, "s"), opts);
        assert!(matches!(c.run(), Outcome::NotEquivalent(_)));
        assert!(c.stats().iterations > 0);
    }

    #[test]
    fn store_dependent_acceptance_is_not_self_equivalent() {
        // This parser branches on bits of `h` never written before use in
        // state t (read of an uninitialized header), so acceptance depends
        // on the initial store: self-comparison with arbitrary stores fails.
        let a = parse(
            "parser A {
               state s { extract(g, 1);
                 select(h[0:0]) { 0b1 => accept; _ => reject; } }
               header h : 4;
             }",
        )
        .unwrap();
        // h is declared but never extracted: the select reads the initial
        // store. Comparing the parser to itself with unconstrained stores
        // must fail (left store may accept while right rejects).
        let out = check_language_equivalence(&a, state(&a, "s"), &a, state(&a, "s"));
        match &out {
            Outcome::NotEquivalent(r) => {
                // The witness must exhibit two initial stores the parser
                // genuinely distinguishes.
                let w = r
                    .witness()
                    .expect("store-dependence witness should confirm");
                assert!(w.check());
                assert_ne!(
                    w.left_store, w.right_store,
                    "stores must differ for a self-comparison refutation"
                );
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn self_equivalence_of_initialized_parser() {
        // The fixed parser writes h before branching: self-comparison
        // succeeds, proving acceptance is store-independent (the paper's
        // header-initialization case study, in miniature).
        let a = parse(
            "parser A {
               state s { extract(g, 1); h := 4w0b0001 ++ g[0:0] ++ 0b000;
                 select(h[0:0]) { 0b0 => accept; _ => reject; } }
               header h : 8;
             }",
        )
        .unwrap();
        let out = check_language_equivalence(&a, state(&a, "s"), &a, state(&a, "s"));
        assert!(out.is_equivalent(), "{out:?}");
    }

    #[test]
    fn ablation_options_agree_on_small_input() {
        let a = parse("parser A { state s { extract(h, 3); goto accept } }").unwrap();
        let b = parse(
            "parser B { state s { extract(x, 1); goto t } state t { extract(y, 2); goto accept } }",
        )
        .unwrap();
        for (leaps, pruning) in [(true, true), (true, false), (false, true), (false, false)] {
            let opts = Options {
                leaps,
                reach_pruning: pruning,
                ..Options::default()
            };
            let mut c = Checker::new(&a, state(&a, "s"), &b, state(&b, "s"), opts);
            assert!(c.run().is_equivalent(), "leaps={leaps} pruning={pruning}");
        }
    }

    #[test]
    fn ablation_explores_more_without_optimizations() {
        let a = parse(
            "parser A { state s { extract(h, 4);
               select(h[0:0]) { 0b1 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(x, 2); goto t }
                        state t { extract(y, 2);
               select(x[0:0]) { 0b1 => accept; _ => reject; } } }",
        )
        .unwrap();
        let run = |leaps: bool, pruning: bool| {
            let opts = Options {
                leaps,
                reach_pruning: pruning,
                ..Options::default()
            };
            let mut c = Checker::new(&a, state(&a, "s"), &b, state(&b, "s"), opts);
            assert!(c.run().is_equivalent());
            (c.stats().iterations, c.stats().scope_pairs)
        };
        let (it_full, scope_full) = run(true, true);
        let (it_noleap, _) = run(false, true);
        let (_, scope_nopruning) = run(true, false);
        assert!(it_noleap > it_full, "leaps should reduce iterations");
        assert!(scope_nopruning > scope_full, "pruning should reduce scope");
    }

    #[test]
    fn max_iterations_aborts() {
        let a = parse(
            "parser A { state s { extract(h, 4);
               select(h) { 0b1111 => accept; _ => reject; } } }",
        )
        .unwrap();
        let opts = Options {
            max_iterations: Some(1),
            ..Options::default()
        };
        let mut c = Checker::new(&a, state(&a, "s"), &a, state(&a, "s"), opts);
        assert!(matches!(c.run(), Outcome::Aborted(_)));
    }

    #[test]
    fn extended_stat_populated_on_every_outcome() {
        // Equivalent (a pair with genuine acceptance disagreements in
        // scope, so R is nonempty).
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h[0:0]) { 0b1 => accept; _ => reject; } } }",
        )
        .unwrap();
        let mut c = Checker::new(&a, state(&a, "s"), &a, state(&a, "s"), Options::default());
        assert!(c.run().is_equivalent());
        assert!(c.stats().extended > 0, "{:?}", c.stats());

        // NotEquivalent: |R| must reflect the relations accumulated before
        // the early stop fired.
        let b = parse("parser B { state s { extract(h, 2); goto reject } }").unwrap();
        let mut c = Checker::new(&a, state(&a, "s"), &b, state(&b, "s"), Options::default());
        assert!(matches!(c.run(), Outcome::NotEquivalent(_)));
        assert!(c.stats().extended > 0, "{:?}", c.stats());

        // Aborted: run unbounded first to learn the iteration count, then
        // re-run with a budget one short of it — the field must still be
        // populated (not default-zero-by-omission) and consistent with the
        // skipped/iterations counters.
        let big = parse(
            "parser C { state s { extract(h, 4);
               select(h) { 0b1111 => accept; _ => reject; } } }",
        )
        .unwrap();
        let mut probe = Checker::new(
            &big,
            state(&big, "s"),
            &big,
            state(&big, "s"),
            Options::default(),
        );
        assert!(probe.run().is_equivalent());
        let total = probe.stats().iterations;
        assert!(total >= 2);
        let limit = total - 1;
        let opts = Options {
            max_iterations: Some(limit),
            ..Options::default()
        };
        let mut c = Checker::new(&big, state(&big, "s"), &big, state(&big, "s"), opts);
        assert!(matches!(c.run(), Outcome::Aborted(_)));
        let stats = c.stats();
        assert!(stats.extended > 0, "{stats:?}");
        assert_eq!(
            stats.extended + stats.skipped,
            limit,
            "every non-aborting pop either extends or skips: {stats:?}"
        );
    }

    #[test]
    fn thread_counts_agree_on_outcome_and_relation_size() {
        let a = parse(
            "parser A { state s { extract(h, 4);
               select(h[0:1]) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B {
               state s { extract(pre, 2); goto t }
               state t { extract(suf, 2);
                 select(pre) { 0b11 => accept; _ => reject; } }
             }",
        )
        .unwrap();
        let mut sizes = Vec::new();
        for threads in [1, 2, 8] {
            let config = EngineConfig::from_env().threads(threads);
            let mut c = Checker::with_config(&a, state(&a, "s"), &b, state(&b, "s"), config);
            assert!(c.run().is_equivalent(), "threads={threads}");
            sizes.push((c.stats().extended, c.stats().iterations));
        }
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "thread counts must explore identically: {sizes:?}"
        );
    }

    #[test]
    fn guard_index_avoids_linear_scans() {
        let a = parse(
            "parser A { state s { extract(h, 4);
               select(h[0:0]) { 0b1 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(x, 2); goto t }
                        state t { extract(y, 2);
               select(x[0:0]) { 0b1 => accept; _ => reject; } } }",
        )
        .unwrap();
        let mut c = Checker::new(&a, state(&a, "s"), &b, state(&b, "s"), Options::default());
        assert!(c.run().is_equivalent());
        let stats = c.stats();
        assert!(stats.premises_total > 0);
        assert!(
            stats.premises_matched < stats.premises_total,
            "multiple guards in play: the index must skip premises: {stats:?}"
        );
        assert!(stats.index_hit_rate() > 0.0);
    }

    #[test]
    fn strict_witness_decision_table() {
        let unconfirmed = Refutation::Unconfirmed {
            reason: "synthetic".into(),
            report: "synthetic".into(),
        };
        // Hard error only for strict + standard + unconfirmed.
        assert!(strict_witness_violation(true, true, &unconfirmed).is_some());
        assert!(strict_witness_violation(false, true, &unconfirmed).is_none());
        assert!(strict_witness_violation(true, false, &unconfirmed).is_none());
    }

    #[test]
    fn strict_mode_passes_through_confirmed_witnesses() {
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
        let config = EngineConfig::from_env().strict_witness(true);
        let mut c = Checker::with_config(&a, state(&a, "s"), &b, state(&b, "s"), config);
        match c.run() {
            Outcome::NotEquivalent(r) => assert!(r.is_confirmed()),
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn rerun_on_one_checker_is_warm_and_identical() {
        // A second `run` on the same checker replays through the owned
        // engine's warm state: identical certificate, observable reuse.
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h[0:0]) { 0b1 => accept; _ => reject; } } }",
        )
        .unwrap();
        let mut c = Checker::new(&a, state(&a, "s"), &a, state(&a, "s"), Options::default());
        let first = match c.run() {
            Outcome::Equivalent(cert) => cert.to_json(),
            other => panic!("expected Equivalent, got {other:?}"),
        };
        let cold_stats = c.stats().clone();
        assert_eq!(cold_stats.entailment_memo_hits, 0);
        let second = match c.run() {
            Outcome::Equivalent(cert) => cert.to_json(),
            other => panic!("expected Equivalent, got {other:?}"),
        };
        assert_eq!(first, second, "warm re-run must be byte-identical");
        let warm_stats = c.stats();
        assert!(warm_stats.sessions_reused > 0, "{warm_stats:?}");
        assert_eq!(
            warm_stats.entailment_memo_hits, warm_stats.entailment_checks,
            "a warm identical re-run replays every verdict from the memo: {warm_stats:?}"
        );
    }
}
