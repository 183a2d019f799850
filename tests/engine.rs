//! Integration tests for the persistent `Engine` API: one-shot, cold
//! engine, warm engine and batch paths must produce byte-identical
//! certificates and witnesses at every thread count; warm reuse must be
//! observable in the stats; and the session-GC clause floor must only
//! ever reduce rebuild churn.

use leapfrog::checker::check_language_equivalence;
use leapfrog::{Checker, EngineConfig, Outcome, QuerySpec, RunStats};
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::surface::parse;
use leapfrog_suite::utility::{sloppy_strict, state_rearrangement};

/// An equivalent pair with distinct state layouts (entailments fire).
fn chunking_pair() -> (Automaton, StateId, Automaton, StateId) {
    let a = parse(
        "parser A { state s { extract(h, 4);
           select(h[0:1]) { 0b11 => accept; _ => reject; } } }",
    )
    .unwrap();
    let b = parse(
        "parser B { state s { extract(pre, 2); goto t }
                    state t { extract(suf, 2);
           select(pre) { 0b11 => accept; _ => reject; } } }",
    )
    .unwrap();
    let sa = a.state_by_name("s").unwrap();
    let sb = b.state_by_name("s").unwrap();
    (a, sa, b, sb)
}

/// The paper's refuted sanity pair.
fn refuted_pair() -> (Automaton, StateId, Automaton, StateId) {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    (sloppy, ql, strict, qr)
}

fn cert_json(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Equivalent(cert) => cert.to_json(),
        other => panic!("expected Equivalent, got {other:?}"),
    }
}

fn witness_text(outcome: &Outcome) -> String {
    let w = outcome.witness().expect("confirmed witness");
    assert!(w.check());
    format!("{w}")
}

#[test]
fn certificates_identical_one_shot_cold_warm_and_batch() {
    // Satellite contract: one-shot `check_language_equivalence`, a cold
    // engine, a warm engine (same pair twice and inside a batch) agree
    // byte-for-byte at threads ∈ {1, 4}.
    let (a, sa, b, sb) = chunking_pair();
    let one_shot = cert_json(&check_language_equivalence(&a, sa, &b, sb));
    for threads in [1usize, 4] {
        let mut engine = EngineConfig::from_env().threads(threads).build();
        let cold = cert_json(&engine.check(&a, sa, &b, sb));
        assert_eq!(
            one_shot, cold,
            "cold engine differs from one-shot at threads={threads}"
        );
        let warm = cert_json(&engine.check(&a, sa, &b, sb));
        assert_eq!(
            one_shot, warm,
            "warm engine differs from one-shot at threads={threads}"
        );
        // And inside a batch: the same pair appears twice among others.
        let specs = vec![
            QuerySpec::new("pair-1", &a, sa, &b, sb),
            QuerySpec::new("self", &a, sa, &a, sa),
            QuerySpec::new("pair-2", &a, sa, &b, sb),
        ];
        let outcomes = engine.check_batch(&specs);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(one_shot, cert_json(&outcomes[0]), "threads={threads}");
        assert_eq!(one_shot, cert_json(&outcomes[2]), "threads={threads}");
        assert!(outcomes[1].is_equivalent());
    }
}

#[test]
fn witnesses_identical_one_shot_cold_warm_and_batch() {
    let (l, ql, r, qr) = refuted_pair();
    let one_shot = witness_text(&check_language_equivalence(&l, ql, &r, qr));
    for threads in [1usize, 4] {
        let mut engine = EngineConfig::from_env().threads(threads).build();
        let cold = witness_text(&engine.check(&l, ql, &r, qr));
        assert_eq!(one_shot, cold, "cold witness differs at threads={threads}");
        let warm = witness_text(&engine.check(&l, ql, &r, qr));
        assert_eq!(one_shot, warm, "warm witness differs at threads={threads}");
        let specs = vec![
            QuerySpec::new("sanity-1", &l, ql, &r, qr),
            QuerySpec::new("sanity-2", &l, ql, &r, qr),
        ];
        let outcomes = engine.check_batch(&specs);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                one_shot,
                witness_text(o),
                "batch witness {i} differs at threads={threads}"
            );
        }
    }
}

#[test]
fn warm_reuse_is_observable_in_stats() {
    let (a, sa, b, sb) = chunking_pair();
    let mut engine = EngineConfig::new().threads(1).build();
    assert!(engine.check(&a, sa, &b, sb).is_equivalent());
    let cold = engine.last_run_stats().clone();
    assert_eq!(cold.sessions_reused, 0, "first run is cold: {cold:?}");
    assert_eq!(cold.sum_cache_hits, 0);
    assert!(cold.entailment_checks > 0);

    assert!(engine.check(&a, sa, &b, sb).is_equivalent());
    let warm = engine.last_run_stats().clone();
    assert!(warm.sessions_reused > 0, "{warm:?}");
    assert_eq!(warm.sum_cache_hits, 1, "{warm:?}");
    assert_eq!(warm.reach_cache_hits, 1, "{warm:?}");
    assert_eq!(
        warm.entailment_memo_hits, warm.entailment_checks,
        "an identical re-check replays every verdict from the memo: {warm:?}"
    );
    assert_eq!(
        warm.queries.queries, 0,
        "a fully memoized run issues no session queries: {warm:?}"
    );

    let engine_stats = engine.stats();
    assert_eq!(engine_stats.checks, 2);
    assert_eq!(engine_stats.pairs_interned, 1);
    assert!(engine_stats.sum_cache_hits >= 1);
    assert!(engine_stats.sessions_reused > 0);
}

#[test]
fn batch_on_one_thread_reuses_across_duplicate_specs() {
    // The acceptance bar: reuse must be observable "even on 1 CPU".
    let (a, sa, b, sb) = chunking_pair();
    let mut engine = EngineConfig::new().threads(1).build();
    let specs = vec![
        QuerySpec::new("q1", &a, sa, &b, sb),
        QuerySpec::new("q2", &a, sa, &b, sb),
        QuerySpec::new("q3", &a, sa, &b, sb),
    ];
    let outcomes = engine.check_batch(&specs);
    assert!(outcomes.iter().all(Outcome::is_equivalent));
    let stats = engine.last_run_stats();
    assert!(stats.sessions_reused > 0, "{stats:?}");
    assert!(stats.entailment_memo_hits > 0, "{stats:?}");
    assert_eq!(stats.sum_cache_hits, 2, "two of three specs intern-hit");
    assert_eq!(engine.stats().batches, 1);
}

#[test]
fn batch_members_carry_their_own_stats() {
    // Every batch member reports its own run, not the batch-merged record:
    // its search counters equal a fresh engine's solo check of the same
    // spec, on the sequential (1 thread) and the parallel (4) batch path.
    let (a, sa, b, sb) = chunking_pair();
    let (l, ql, r, qr) = refuted_pair();
    let specs = vec![
        QuerySpec::new("equivalent", &a, sa, &b, sb),
        QuerySpec::new("refuted", &l, ql, &r, qr),
    ];
    let counters = |s: &RunStats| {
        [
            s.iterations,
            s.extended,
            s.skipped,
            s.wp_generated,
            s.wp_calls,
            s.scope_pairs as u64,
            s.max_formula_size as u64,
            s.entailment_checks,
            s.premises_matched,
            s.premises_total,
            s.entailment_memo_hits,
            s.sessions_reused,
            s.sum_cache_hits,
            s.reach_cache_hits,
            s.witnesses_confirmed,
            s.witnesses_unconfirmed,
            s.witness_bits_minimized,
        ]
    };
    for threads in [1usize, 4] {
        let mut engine = EngineConfig::from_env().threads(threads).build();
        engine.check_batch(&specs);
        let members = engine.last_batch_stats();
        assert_eq!(members.len(), specs.len());
        for (spec, member) in specs.iter().zip(members) {
            let mut solo = EngineConfig::from_env().threads(threads).build();
            solo.check(&spec.left, spec.ql, &spec.right, spec.qr);
            assert_eq!(
                counters(member),
                counters(solo.last_run_stats()),
                "{} at threads={threads}",
                spec.name
            );
        }
        assert_ne!(
            counters(&members[0]),
            counters(&members[1]),
            "the two members ran different searches"
        );
        let mut merged = RunStats::default();
        for m in members {
            merged.merge(m);
        }
        assert_eq!(counters(&merged), counters(engine.last_run_stats()));
    }
}

#[test]
fn engine_serves_different_pairs_without_cross_talk() {
    // A warm engine answering query A must not perturb query B (and vice
    // versa): interleaved checks agree with fresh-engine answers.
    let (a, sa, b, sb) = chunking_pair();
    let (l, ql, r, qr) = refuted_pair();
    let fresh_cert = cert_json(
        &EngineConfig::from_env()
            .threads(1)
            .build()
            .check(&a, sa, &b, sb),
    );
    let fresh_wit = witness_text(
        &EngineConfig::from_env()
            .threads(1)
            .build()
            .check(&l, ql, &r, qr),
    );
    let mut engine = EngineConfig::from_env().threads(1).build();
    for round in 0..3 {
        let c = cert_json(&engine.check(&a, sa, &b, sb));
        let w = witness_text(&engine.check(&l, ql, &r, qr));
        assert_eq!(fresh_cert, c, "round {round}");
        assert_eq!(fresh_wit, w, "round {round}");
    }
    assert_eq!(engine.stats().pairs_interned, 2);
}

#[test]
fn gc_floor_reduces_rebuilds_on_small_rows_without_changing_results() {
    // Satellite contract: with the default ratio-4 budget, a small
    // cache-served row must rebuild no *more* under the 512-clause floor
    // than without it — and certificates must match exactly.
    let bench = state_rearrangement::state_rearrangement_benchmark();
    let run = |floor: u64| {
        let config = EngineConfig::from_env()
            .threads(1)
            .session_gc_ratio(Some(4.0))
            .session_gc_floor(floor);
        let mut checker = Checker::with_config(
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
            config,
        );
        let cert = cert_json(&checker.run());
        (cert, checker.stats().session_rebuilds())
    };
    let (cert_no_floor, rebuilds_no_floor) = run(0);
    let (cert_floor, rebuilds_floor) = run(leapfrog::engine::DEFAULT_SESSION_GC_FLOOR);
    assert_eq!(
        cert_no_floor, cert_floor,
        "the floor must not change results"
    );
    assert!(
        rebuilds_floor <= rebuilds_no_floor,
        "the floor can only reduce rebuild churn: {rebuilds_floor} > {rebuilds_no_floor}"
    );
}

#[test]
fn blast_cache_setting_reaches_the_engine() {
    // The engine honours the blast-cache setting from typed config alone.
    let engine = EngineConfig::new().blast_cache(false).build();
    assert!(engine.shared_cache().is_disabled());
    // With pure defaults the cache is enabled, whatever the environment.
    let engine = EngineConfig::new().build();
    assert!(!engine.shared_cache().is_disabled());
}

#[test]
fn named_checks_feed_the_witness_sink() {
    // The engine's witness sink records confirmed refutation witnesses
    // from named and batched checks. (The suite's WitnessCorpus is the
    // production sink; a shared-state recorder keeps the assertion
    // simple.)
    #[derive(Clone, Default)]
    struct RecordingSink(std::sync::Arc<std::sync::Mutex<Vec<String>>>);
    impl leapfrog::WitnessSink for RecordingSink {
        fn record(&mut self, name: &str, witness: &leapfrog_repro::cex::Witness) -> bool {
            assert!(witness.check());
            self.0.lock().unwrap().push(name.to_string());
            true
        }
    }
    let (l, ql, r, qr) = refuted_pair();
    let recorder = RecordingSink::default();
    let mut engine = EngineConfig::new().threads(1).build();
    engine.attach_witness_sink(Box::new(recorder.clone()));
    engine.check_named("sanity", &l, ql, &r, qr);
    let specs = vec![QuerySpec::new("sanity-batch", &l, ql, &r, qr)];
    engine.check_batch(&specs);
    assert!(engine.take_witness_sink().is_some());
    let names = recorder.0.lock().unwrap().clone();
    assert_eq!(
        names,
        vec!["sanity".to_string(), "sanity-batch".to_string()]
    );
}
