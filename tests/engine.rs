//! Integration tests for the persistent `Engine` API: one-shot, cold
//! engine, warm engine and batch paths must produce byte-identical
//! certificates and witnesses at every thread count; and a repeated
//! query must be an observable outcome replay — in process and across a
//! save and restart.

use leapfrog::checker::check_language_equivalence;
use leapfrog::{Engine, EngineConfig, Outcome, QuerySpec, RunStats};
use leapfrog_bench::rows::{
    run_external_filtering_in, run_relational_verification_in, run_row_in,
    run_translation_validation_in, standard_benchmarks, RowResult,
};
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::surface::parse;
use leapfrog_suite::utility::sloppy_strict;
use leapfrog_suite::Scale;

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

/// Asserts that a run replayed an outcome record: one replay and no
/// search at all.
fn assert_replayed(s: &RunStats) {
    assert_eq!(s.outcome_replays, 1, "{s:?}");
    assert_eq!(
        (
            s.iterations,
            s.entailment_checks,
            s.wp_calls,
            s.queries.queries
        ),
        (0, 0, 0, 0),
        "a replay does no search: {s:?}"
    );
}

#[test]
fn warm_reuse_is_observable_in_stats() {
    let (a, sa, b, sb) = chunking_pair();
    let mut engine = EngineConfig::new().threads(1).build();
    assert!(engine.check(&a, sa, &b, sb).is_equivalent());
    let cold = engine.last_run_stats().clone();
    assert_eq!(cold.outcome_replays, 0, "first run is cold: {cold:?}");
    assert_eq!(cold.sum_cache_hits, 0);
    assert!(cold.entailment_checks > 0);

    assert!(engine.check(&a, sa, &b, sb).is_equivalent());
    let warm = engine.last_run_stats().clone();
    assert_replayed(&warm);
    assert_eq!(warm.sum_cache_hits, 1, "{warm:?}");
    assert_eq!(warm.extended, cold.extended, "the recorded |R|: {warm:?}");

    let engine_stats = engine.stats();
    assert_eq!(engine_stats.checks, 2);
    assert_eq!(engine_stats.pairs_interned, 1);
    assert!(engine_stats.sum_cache_hits >= 1);
    assert_eq!(engine_stats.outcome_replays, 1);
}

#[test]
fn refuted_recheck_replays_the_identical_witness() {
    let (l, ql, r, qr) = refuted_pair();
    let mut engine = EngineConfig::new().threads(1).build();
    let cold = witness_text(&engine.check(&l, ql, &r, qr));
    let cold_stats = engine.last_run_stats().clone();
    assert_eq!(cold_stats.witnesses_confirmed, 1);
    let warm = witness_text(&engine.check(&l, ql, &r, qr));
    assert_eq!(cold, warm, "the re-check returns the identical witness");
    let warm_stats = engine.last_run_stats();
    assert_replayed(warm_stats);
    assert_eq!(warm_stats.extended, cold_stats.extended);
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
    let members = engine.last_batch_stats();
    assert_eq!(members[0].outcome_replays, 0);
    members[1..].iter().for_each(assert_replayed);
    let stats = engine.last_run_stats();
    assert_eq!(stats.outcome_replays, 2, "{stats:?}");
    assert_eq!(stats.sum_cache_hits, 2, "two of three specs intern-hit");
    assert_eq!(engine.stats().batches, 1);
}

#[test]
fn every_table2_proof_replays_after_a_restart() {
    // Every Table-2 row is proven on one engine, which saves its state;
    // a restarted engine answers each row from its saved certificate,
    // byte-identical and with no search. A refutation is not saved, so
    // the restart re-solves it to the same bytes.
    let dir = std::env::temp_dir().join(format!(
        "leapfrog-engine-table2-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let run_table = |engine: &mut Engine| -> Vec<(RowResult, RunStats)> {
        let mut rows = Vec::new();
        let mut keep = |engine: &mut Engine, row: RowResult| {
            rows.push((row, engine.last_run_stats().clone()));
        };
        for bench in standard_benchmarks(Scale::Small) {
            let row = run_row_in(engine, &bench);
            keep(engine, row);
        }
        let row = run_relational_verification_in(engine);
        keep(engine, row);
        let row = run_external_filtering_in(engine);
        keep(engine, row);
        let row = run_translation_validation_in(engine, Scale::Small);
        keep(engine, row);
        rows
    };
    let (l, ql, r, qr) = refuted_pair();

    let mut first = EngineConfig::new().threads(1).build();
    let cold = run_table(&mut first);
    let cold_witness = witness_text(&first.check(&l, ql, &r, qr));
    first.save_state(&dir).unwrap();

    let mut restarted = EngineConfig::new().threads(1).with_state_dir(&dir).build();
    let warm = run_table(&mut restarted);
    assert_eq!(cold.len(), warm.len());
    for ((cold_row, cold_stats), (warm_row, warm_stats)) in cold.iter().zip(&warm) {
        assert!(cold_row.verified && warm_row.verified, "{}", cold_row.name);
        assert!(cold_row.certificate.is_some(), "{}", cold_row.name);
        assert_eq!(
            cold_row.certificate, warm_row.certificate,
            "{}",
            cold_row.name
        );
        assert_eq!(cold_stats.outcome_replays, 0, "{}", cold_row.name);
        assert_replayed(warm_stats);
        assert_eq!(warm_row.relation_size, cold_row.relation_size);
    }
    assert_eq!(witness_text(&restarted.check(&l, ql, &r, qr)), cold_witness);
    let resolved = restarted.last_run_stats();
    assert_eq!(resolved.outcome_replays, 0, "{resolved:?}");
    assert!(resolved.iterations > 0, "{resolved:?}");
    std::fs::remove_dir_all(&dir).unwrap();
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
            s.outcome_replays,
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
