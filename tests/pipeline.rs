//! Integration tests for the guard-indexed entailment pipeline:
//! bit-identical results and work counters at every thread count,
//! index-vs-linear-scan agreement, cross-query blast-cache correctness,
//! and the witness regression corpus loop.

use leapfrog::{Checker, EngineConfig, Options, Outcome, RunStats};
use leapfrog_logic::lower::{entails_filtered, entails_stateless, lower, lower_filtered};
use leapfrog_logic::store::RelationStore;
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::surface::parse;
use leapfrog_smt::{CheckResult, SmtSolver};
use leapfrog_suite::corpus::WitnessCorpus;
use leapfrog_suite::differential::check_cross_validate_and_record;
use leapfrog_suite::utility::{mpls, sloppy_strict, state_rearrangement, vlan_init};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// An engine configuration from the environment, pinned to `threads`.
fn config(threads: usize) -> EngineConfig {
    EngineConfig::from_env().threads(threads)
}

/// The deterministic work counters of a run: iterations, entailment
/// checks, WP calls and generated WPs; SMT queries, CEGAR rounds, blocks
/// validated and ledger hits; SAT decisions, propagations and conflicts.
/// A query runs on one thread, so none of them may depend on the thread
/// count.
fn work_counters(stats: &RunStats) -> [u64; 11] {
    let q = &stats.queries;
    [
        stats.iterations,
        stats.entailment_checks,
        stats.wp_calls,
        stats.wp_generated,
        q.queries,
        q.cegar_rounds,
        q.blocks_validated,
        q.inst_ledger_hits,
        q.sat.decisions,
        q.sat.propagations,
        q.sat.conflicts,
    ]
}

/// The equivalent seed pairs: the utility case studies plus two surface
/// toys with distinct state layouts.
fn equivalent_pairs() -> Vec<(&'static str, Automaton, StateId, Automaton, StateId)> {
    let mut out = Vec::new();
    for bench in [
        state_rearrangement::state_rearrangement_benchmark(),
        vlan_init::vlan_init_benchmark(),
        mpls::mpls_benchmark(),
    ] {
        out.push((
            bench.name,
            bench.left,
            bench.left_start,
            bench.right,
            bench.right_start,
        ));
    }
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
    out.push(("toy chunking", a, sa, b, sb));
    out
}

#[test]
fn certificates_are_byte_identical_across_thread_counts() {
    for (name, left, ql, right, qr) in equivalent_pairs() {
        let mut jsons = Vec::new();
        let mut counters = Vec::new();
        for threads in THREAD_COUNTS {
            let mut checker = Checker::with_config(&left, ql, &right, qr, config(threads));
            match checker.run() {
                Outcome::Equivalent(cert) => jsons.push(cert.to_json()),
                other => panic!("{name}: expected Equivalent at threads={threads}, got {other:?}"),
            }
            assert_eq!(checker.stats().threads, 1);
            counters.push(work_counters(checker.stats()));
        }
        assert!(
            jsons.windows(2).all(|w| w[0] == w[1]),
            "{name}: certificate JSON differs across thread counts"
        );
        assert!(
            counters.windows(2).all(|w| w[0] == w[1]),
            "{name}: work counters differ across thread counts {THREAD_COUNTS:?}: {counters:?}"
        );
    }
}

#[test]
fn witnesses_are_byte_identical_across_thread_counts() {
    // Two refuted pairs: the paper's sanity check and a store-dependent
    // self-comparison. The rendered witness (packet, stores, trace) must
    // not depend on the thread count.
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let store_dep = parse(
        "parser A {
           state s { extract(g, 1);
             select(h[0:0]) { 0b1 => accept; _ => reject; } }
           header h : 4;
         }",
    )
    .unwrap();
    let sd = store_dep.state_by_name("s").unwrap();
    let pairs: Vec<(&str, &Automaton, StateId, &Automaton, StateId)> = vec![
        ("sloppy vs strict", &sloppy, ql, &strict, qr),
        ("store dependent", &store_dep, sd, &store_dep, sd),
    ];
    for (name, left, ql, right, qr) in pairs {
        let mut rendered = Vec::new();
        let mut counters = Vec::new();
        for threads in THREAD_COUNTS {
            let mut checker = Checker::with_config(left, ql, right, qr, config(threads));
            match checker.run() {
                Outcome::NotEquivalent(refutation) => {
                    let w = refutation.witness().unwrap_or_else(|| {
                        panic!("{name}: witness must confirm at threads={threads}")
                    });
                    assert!(w.check());
                    rendered.push(format!("{w}"));
                }
                other => {
                    panic!("{name}: expected NotEquivalent at threads={threads}, got {other:?}")
                }
            }
            counters.push(work_counters(checker.stats()));
        }
        assert!(
            rendered.windows(2).all(|w| w[0] == w[1]),
            "{name}: witness rendering differs across thread counts:\n{rendered:?}"
        );
        assert!(
            counters.windows(2).all(|w| w[0] == w[1]),
            "{name}: work counters differ across thread counts {THREAD_COUNTS:?}: {counters:?}"
        );
    }
}

#[test]
fn results_are_byte_identical_with_tracing_on_and_off() {
    // The flight recorder's core invariant: span tracing observes the
    // pipeline but never steers it. Every combination of tracing
    // {off, on} × threads {1, 4} must render the same certificate bytes
    // — and the same witness bytes on a refuted pair.
    let was_enabled = leapfrog_obs::trace::enabled();
    let (name, left, ql, right, qr) = equivalent_pairs().remove(0);
    let mut certs = Vec::new();
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let sl = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let st = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut witnesses = Vec::new();
    for tracing in [false, true] {
        leapfrog_obs::set_trace_enabled(tracing);
        for threads in [1, 4] {
            let mut checker = Checker::with_config(&left, ql, &right, qr, config(threads));
            match checker.run() {
                Outcome::Equivalent(cert) => certs.push(cert.to_json()),
                other => panic!(
                    "{name}: expected Equivalent at threads={threads} tracing={tracing}, \
                     got {other:?}"
                ),
            }
            let mut refuter = Checker::with_config(&sloppy, sl, &strict, st, config(threads));
            match refuter.run() {
                Outcome::NotEquivalent(refutation) => {
                    let w = refutation.witness().unwrap_or_else(|| {
                        panic!("witness must confirm at threads={threads} tracing={tracing}")
                    });
                    witnesses.push(format!("{w}"));
                }
                other => panic!(
                    "sloppy vs strict: expected NotEquivalent at threads={threads} \
                     tracing={tracing}, got {other:?}"
                ),
            }
        }
    }
    leapfrog_obs::set_trace_enabled(was_enabled);
    assert!(
        certs.windows(2).all(|w| w[0] == w[1]),
        "{name}: certificate JSON differs across tracing/thread combinations"
    );
    assert!(
        witnesses.windows(2).all(|w| w[0] == w[1]),
        "witness rendering differs across tracing/thread combinations"
    );
}

#[test]
fn certificates_and_witnesses_identical_across_session_gc_settings() {
    // The guard sessions' clause-budget GC must be invisible in results:
    // certificates byte-identical with GC off, at the default ratio (and
    // default clause-count floor), and at a pathological ratio with the
    // floor removed so rebuilds actually fire — at several thread counts.
    let gc_settings: [(Option<f64>, u64); 3] = [
        (None, leapfrog::engine::DEFAULT_SESSION_GC_FLOOR),
        (Some(4.0), leapfrog::engine::DEFAULT_SESSION_GC_FLOOR),
        (Some(0.001), 0),
    ];
    let mut forced_rebuilds = 0u64;
    for (name, left, ql, right, qr) in equivalent_pairs() {
        let mut jsons = Vec::new();
        for (gc, floor) in gc_settings {
            for threads in [1, 2] {
                let config = config(threads).session_gc_ratio(gc).session_gc_floor(floor);
                let mut checker = Checker::with_config(&left, ql, &right, qr, config);
                match checker.run() {
                    Outcome::Equivalent(cert) => jsons.push(cert.to_json()),
                    other => panic!("{name}: expected Equivalent at gc={gc:?}, got {other:?}"),
                }
                let stats = checker.stats();
                if gc.is_none() {
                    assert_eq!(
                        stats.session_rebuilds(),
                        0,
                        "{name}: GC off must not rebuild"
                    );
                }
                if gc == Some(0.001) && floor == 0 {
                    forced_rebuilds += stats.session_rebuilds();
                }
                assert!(
                    stats.queries.blocks_validated <= stats.queries.blocks_considered,
                    "{name}: the oracle can only skip validations: {stats:?}"
                );
            }
        }
        assert!(
            jsons.windows(2).all(|w| w[0] == w[1]),
            "{name}: certificate JSON differs across session-GC settings"
        );
    }
    assert!(
        forced_rebuilds > 0,
        "a near-zero GC ratio must force context rebuilds somewhere"
    );

    // Witnesses too: the sanity pair must render identically under every
    // GC setting.
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut rendered = Vec::new();
    for (gc, floor) in gc_settings {
        let config = EngineConfig::from_env()
            .session_gc_ratio(gc)
            .session_gc_floor(floor);
        let mut checker = Checker::with_config(&sloppy, ql, &strict, qr, config);
        match checker.run() {
            Outcome::NotEquivalent(refutation) => {
                let w = refutation
                    .witness()
                    .unwrap_or_else(|| panic!("witness must confirm at gc={gc:?}"));
                assert!(w.check());
                rendered.push(format!("{w}"));
            }
            other => panic!("expected NotEquivalent at gc={gc:?}, got {other:?}"),
        }
    }
    assert!(
        rendered.windows(2).all(|w| w[0] == w[1]),
        "witness rendering differs across session-GC settings:\n{rendered:?}"
    );
}

#[test]
fn results_are_byte_identical_with_lbd_management_on_and_off() {
    // The LBD two-tier learnt-clause policy only changes which learnt
    // clauses the SAT core retains — never a verdict, certificate byte, or
    // witness byte. Certificates, witnesses, and the query trajectory must
    // be identical with the policy disabled (activity-only deletion).
    for (name, left, ql, right, qr) in equivalent_pairs() {
        let mut jsons = Vec::new();
        let mut queries = Vec::new();
        for lbd in [true, false] {
            let mut checker = Checker::with_config(&left, ql, &right, qr, config(2).sat_lbd(lbd));
            match checker.run() {
                Outcome::Equivalent(cert) => jsons.push(cert.to_json()),
                other => panic!("{name}: expected Equivalent at lbd={lbd}, got {other:?}"),
            }
            queries.push(checker.stats().queries.queries);
        }
        assert_eq!(
            jsons[0], jsons[1],
            "{name}: certificate JSON differs with LBD management off"
        );
        assert_eq!(
            queries[0], queries[1],
            "{name}: query trajectory differs with LBD management off"
        );
    }
    // And a refuted pair: the rendered witness must survive the toggle.
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut rendered = Vec::new();
    for lbd in [true, false] {
        let mut checker = Checker::with_config(&sloppy, ql, &strict, qr, config(2).sat_lbd(lbd));
        match checker.run() {
            Outcome::NotEquivalent(refutation) => {
                let w = refutation
                    .witness()
                    .unwrap_or_else(|| panic!("witness must confirm at lbd={lbd}"));
                assert!(w.check());
                rendered.push(format!("{w}"));
            }
            other => panic!("expected NotEquivalent at lbd={lbd}, got {other:?}"),
        }
    }
    assert_eq!(
        rendered[0], rendered[1],
        "witness rendering differs with LBD management off"
    );
}

#[test]
fn oracle_skips_validations_on_a_real_row() {
    // The variable-indexed oracle must actually save validation solves on
    // a row with quantified premises (blocks_validated < blocks_considered
    // would be an equality if every candidate model were validated against
    // every block every round). The Edge applicability self-comparison has
    // enough recurring support valuations to exhibit skipping even at the
    // small scale.
    let bench = leapfrog_suite::Benchmark::self_comparison(
        "Edge",
        leapfrog_suite::applicability::edge(leapfrog_suite::Scale::Small),
        "parse_eth",
    );
    let mut checker = Checker::new(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
        Options::default(),
    );
    assert!(checker.run().is_equivalent());
    let q = &checker.stats().queries;
    assert!(q.blocks_considered > 0, "{q:?}");
    assert!(q.blocks_validated < q.blocks_considered, "{q:?}");
}

#[test]
fn relation_store_matches_linear_scan_entailment() {
    // Take a real computed relation R; for every conjunct, the guard-index
    // fetch must yield the same entailment verdict as the historical
    // linear scan over all of R.
    let bench = state_rearrangement::state_rearrangement_benchmark();
    let mut checker = Checker::new(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
        Options::default(),
    );
    let aut = checker.sum_automaton().clone();
    let cert = match checker.run() {
        Outcome::Equivalent(cert) => cert,
        other => panic!("expected Equivalent, got {other:?}"),
    };
    let store: RelationStore = cert.relation.iter().cloned().collect();
    assert_eq!(store.len(), cert.relation.len());
    let mut solver = SmtSolver::new();
    for rho in &cert.relation {
        let linear = entails_stateless(&aut, &cert.relation, rho);
        let indexed = entails_filtered(&aut, &store.matching(rho.guard), rho, &mut solver);
        assert_eq!(linear, indexed, "disagreement on {}", rho.display(&aut));
        assert!(linear, "R must entail its own conjuncts");
        // The lowered queries are structurally identical too.
        let q_linear = lower(&aut, &cert.relation, rho);
        let q_indexed = lower_filtered(&aut, &store.matching(rho.guard), rho);
        assert_eq!(q_linear.filtered_premises, q_indexed.filtered_premises);
        assert_eq!(q_linear.goal, q_indexed.goal);
    }
}

#[test]
fn blast_cache_consistency_against_stateless_solver() {
    // The same query family through a caching solver and the stateless
    // (uncached) entry point must agree on every verdict, while the
    // caching solver actually hits.
    let bench = state_rearrangement::state_rearrangement_benchmark();
    let mut checker = Checker::new(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
        Options::default(),
    );
    let aut = checker.sum_automaton().clone();
    let cert = match checker.run() {
        Outcome::Equivalent(cert) => cert,
        other => panic!("expected Equivalent, got {other:?}"),
    };
    let mut cached = SmtSolver::new();
    for rho in &cert.relation {
        let q = lower(&aut, &cert.relation, rho);
        let with_cache = matches!(cached.check_valid(&q.decls, &q.goal), CheckResult::Valid);
        let stateless = matches!(
            leapfrog_smt::check_valid(&q.decls, &q.goal),
            CheckResult::Valid
        );
        assert_eq!(with_cache, stateless);
        assert!(with_cache);
    }
    let stats = cached.stats();
    assert!(
        stats.blast_cache_hits > 0,
        "recurring premises must hit the cache: {stats:?}"
    );
}

#[test]
fn corpus_feedback_loop_records_and_replays() {
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
    let sa = a.state_by_name("s").unwrap();
    let sb = b.state_by_name("s").unwrap();
    let mut corpus = WitnessCorpus::new();
    // First run records the confirmed minimized witness.
    let outcome =
        check_cross_validate_and_record(&a, sa, &b, sb, Options::default(), "toy", &mut corpus)
            .expect("cross-validation succeeds");
    assert!(matches!(outcome, Outcome::NotEquivalent(_)));
    assert_eq!(corpus.len(), 1);
    // Second run re-exercises the recorded packet and still refutes.
    let outcome =
        check_cross_validate_and_record(&a, sa, &b, sb, Options::default(), "toy", &mut corpus)
            .expect("regression replay succeeds");
    assert!(matches!(outcome, Outcome::NotEquivalent(_)));
    // A self-comparison under the same corpus name: the recorded packet
    // cannot distinguish a parser from itself, so the equivalence verdict
    // passes the corpus cross-check.
    let outcome =
        check_cross_validate_and_record(&a, sa, &a, sa, Options::default(), "toy", &mut corpus)
            .expect("self-comparison passes the corpus cross-check");
    assert!(outcome.is_equivalent());
    // But a refuted pair whose recorded packets have all stopped
    // distinguishing it is a regression and must be reported: simulate by
    // replacing the corpus with a packet that does not distinguish a / b.
    let mut stale = WitnessCorpus::from_text("pair toy\npacket 00\nleft -\nright -\n").unwrap();
    let err =
        check_cross_validate_and_record(&a, sa, &b, sb, Options::default(), "toy", &mut stale);
    assert!(
        err.is_err(),
        "a corpus whose packets stopped distinguishing a refuted pair must fail"
    );
}
