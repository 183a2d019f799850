//! Round-trip property tests for the wire protocol encoder/decoder:
//! every `Outcome` / `Witness` / `RunStats` must survive
//! serialize → parse → serialize byte-for-byte, including the
//! multi-header >112-bit witnesses produced by the mutant suite. Fixed
//! seeds, like the existing workload loops — the offline environment has
//! no proptest.

use std::time::Duration;

use leapfrog::checker::check_language_equivalence;
use leapfrog::json;
use leapfrog::{Outcome, RunStats};
use leapfrog_obs::{PhaseBreakdown, PhaseStat, PHASES};
use leapfrog_serve::proto::{
    engine_stats_reply_from_value, engine_stats_reply_to_value, fleet_stats_from_value,
    fleet_stats_to_value, outcome_to_value, overloaded_from_value, overloaded_to_value,
    phases_from_value, query_stats_from_value, read_frame, request_from_value, request_to_value,
    run_stats_from_value, run_stats_to_value, solver_stats_from_value, solver_stats_to_value,
    verify_reply_from_value, verify_reply_to_value, wire_outcome_from_value, wire_outcome_to_value,
    wire_witness_from_value, wire_witness_of, EngineStatsReply, FleetStats, OverloadScope,
    Overloaded, PairSpec, Request, VerifyReply, WireOptions, WireOutcome,
};
use leapfrog_smt::{QueryStats, SolverStats};
use leapfrog_suite::mutants::mutant_benchmarks;
use leapfrog_suite::utility::sloppy_strict;
use leapfrog_suite::{standard_benchmarks, Scale};

/// serialize → parse → serialize must reproduce the first rendering, and
/// the typed decode must re-encode to the same bytes.
fn assert_outcome_roundtrip(outcome: &Outcome, label: &str) {
    let text = outcome_to_value(outcome).render();
    let parsed = json::parse(&text).expect("wire JSON parses");
    assert_eq!(parsed.render(), text, "{label}: value tree round trip");
    let typed = wire_outcome_from_value(&parsed).expect("typed decode");
    assert_eq!(
        wire_outcome_to_value(&typed).render(),
        text,
        "{label}: typed round trip"
    );
    match (outcome, &typed) {
        (Outcome::Equivalent(_), WireOutcome::Equivalent(_)) => {}
        (Outcome::NotEquivalent(r), WireOutcome::NotEquivalent(w)) => {
            let original = r.witness().expect("confirmed refutation");
            let wire = wire_witness_of(original);
            assert_eq!(**w, wire, "{label}: witness fields survive");
        }
        (Outcome::NotEquivalent(_), WireOutcome::Unconfirmed(_, _)) => {}
        (Outcome::Aborted(_), WireOutcome::Aborted(_)) => {}
        other => panic!("{label}: outcome kind changed in flight: {other:?}"),
    }
}

#[test]
fn certificate_outcomes_roundtrip() {
    // One equivalent utility row and one applicability self-comparison.
    for bench in standard_benchmarks(Scale::Small).iter().take(5) {
        if !bench.expect_equivalent {
            continue;
        }
        let outcome = check_language_equivalence(
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
        );
        assert!(outcome.is_equivalent(), "{} must verify", bench.name);
        assert_outcome_roundtrip(&outcome, bench.name);
    }
}

#[test]
fn sanity_witness_roundtrips() {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let outcome = check_language_equivalence(&sloppy, ql, &strict, qr);
    assert!(outcome.witness().is_some(), "sanity pair must refute");
    assert_outcome_roundtrip(&outcome, "sanity pair");
}

#[test]
fn long_mutant_witnesses_roundtrip() {
    // The applicability mutants refute with multi-header packets; at
    // least one witness must exceed 112 bits end-to-end and every one
    // must survive the wire unchanged.
    let mut longest = 0usize;
    for bench in mutant_benchmarks() {
        let outcome = check_language_equivalence(
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
        );
        let w = outcome
            .witness()
            .unwrap_or_else(|| panic!("{} must carry a confirmed witness", bench.name));
        longest = longest.max(w.packet.len());
        assert_outcome_roundtrip(&outcome, bench.name);
    }
    assert!(
        longest > 112,
        "the mutant suite must exercise >112-bit witnesses (saw {longest})"
    );
}

/// The field `key` of a JSON object.
fn field<'a>(v: &'a mut json::Value, key: &str) -> &'a mut json::Value {
    match v {
        json::Value::Obj(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field \"{key}\""))
                .1
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The witness inside a `NotEquivalent` wire outcome.
fn witness(outcome: &mut json::Value) -> &mut json::Value {
    field(field(outcome, "NotEquivalent"), "Witness")
}

/// An `InitRelation` disagreement whose formula reads header `HDR` and
/// packet variable `VAR`.
const INIT_RELATION: &str = r#"{"InitRelation": {
    "relation": {
        "guard": {"left": {"target": "Accept", "buf_len": 0},
                  "right": {"target": "Accept", "buf_len": 0}},
        "vars": [1],
        "phi": {"Eq": [{"Hdr": ["Left", HDR]}, {"Var": VAR}]}},
    "vals": ["1"]}}"#;

#[test]
fn out_of_range_ids_are_rejected() {
    // The sanity pair's wire witness with one id set at a time: the
    // largest u32 decodes, one past it is an error rather than id 0.
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let outcome = outcome_to_value(&check_language_equivalence(&sloppy, ql, &strict, qr));
    let init_relation = |hdr: &str, var: &str| {
        json::parse(&INIT_RELATION.replace("HDR", hdr).replace("VAR", var)).unwrap()
    };
    type Tamper<'a> = Box<dyn Fn(&mut json::Value, &str) + 'a>;
    let cases: [(&str, Tamper); 4] = [
        (
            "witness start state",
            Box::new(|v, id| {
                *field(field(witness(v), "left_start"), "id") = json::parse(id).unwrap();
            }),
        ),
        (
            "trace state",
            Box::new(|v, id| {
                let json::Value::Arr(trace) = field(witness(v), "trace") else {
                    panic!("trace is an array");
                };
                *field(field(&mut trace[0], "left"), "target") =
                    json::parse(&format!("{{\"State\": {id}}}")).unwrap();
            }),
        ),
        (
            "relation header",
            Box::new(|v, id| *field(witness(v), "disagreement") = init_relation(id, "0")),
        ),
        (
            "relation packet variable",
            Box::new(|v, id| *field(witness(v), "disagreement") = init_relation("0", id)),
        ),
    ];
    for (what, tamper) in &cases {
        for (id, decodes) in [("4294967295", true), ("4294967296", false)] {
            let mut v = outcome.clone();
            tamper(&mut v, id);
            match wire_outcome_from_value(&v) {
                Ok(_) => assert!(decodes, "{what} {id} decoded"),
                Err(e) => {
                    assert!(!decodes, "{what} {id} rejected: {e}");
                    assert!(e.contains("out of range"), "{what}: unexpected error: {e}");
                }
            }
        }
    }
}

#[test]
fn aborted_outcome_roundtrips() {
    let outcome = Outcome::Aborted("iteration budget 7 exhausted with |R| = 3".into());
    assert_outcome_roundtrip(&outcome, "aborted");
}

/// A random phase breakdown in canonical order — a random subset of the
/// phases, each with nonzero count (matching the tracer's invariant).
fn random_phases(next: &mut impl FnMut() -> u64) -> PhaseBreakdown {
    let mut entries = Vec::new();
    for &phase in PHASES.iter() {
        if next().is_multiple_of(3) {
            entries.push(PhaseStat {
                phase,
                count: 1 + next() % 1_000,
                nanos: next() % 1_000_000_000,
            });
        }
    }
    PhaseBreakdown { entries }
}

#[test]
fn run_stats_roundtrip_randomized() {
    // Fixed-seed random RunStats (durations in whole nanoseconds, like
    // the real counters): serialize → parse → typed decode → serialize
    // must be the identity on bytes.
    let mut state = 0x1eaf_5eedu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for round in 0..50 {
        let mut s = RunStats {
            iterations: next() % 100_000,
            extended: next() % 10_000,
            skipped: next() % 10_000,
            wp_generated: next() % 100_000,
            wp_calls: next() % 1_000_000,
            scope_pairs: (next() % 500) as usize,
            max_formula_size: (next() % 100_000) as usize,
            witnesses_confirmed: next() % 2,
            witnesses_unconfirmed: next() % 2,
            witness_bits_minimized: next() % 4_096,
            threads: 1 + (next() % 16) as usize,
            entailment_checks: next() % 10_000,
            premises_matched: next() % 1_000_000,
            premises_total: next() % 10_000_000,
            outcome_replays: next() % 2,
            // Never sent: no per-entailment memo exists.
            entailment_memo_hits: 0,
            sum_cache_hits: next() % 10,
            reach_cache_hits: next() % 10,
            wall_time: Duration::from_nanos(next() % 10_000_000_000),
            queries: QueryStats {
                queries: next() % 10_000,
                cegar_rounds: next() % 1_000,
                blocks_considered: next() % 100_000,
                blocks_validated: next() % 100_000,
                live_clauses_peak: next() % 1_000_000,
                inst_ledger_hits: next() % 10_000,
                sat: SolverStats {
                    decisions: next() % 1_000_000,
                    propagations: next() % 100_000_000,
                    conflicts: next() % 1_000_000,
                    restarts: next() % 10_000,
                    deleted_clauses: next() % 1_000_000,
                    learnt_clauses: next() % 1_000_000,
                    lbd_histogram: std::array::from_fn(|_| next() % 100_000),
                },
                durations: (0..(next() % 8))
                    .map(|_| Duration::from_nanos(next() % 5_000_000_000))
                    .collect(),
                ..QueryStats::default()
            },
            phases: random_phases(&mut next),
        };
        if round == 0 {
            s = RunStats::default(); // the all-zeros corner
        }
        let text = run_stats_to_value(&s).render();
        let parsed = json::parse(&text).expect("stats JSON parses");
        assert_eq!(parsed.render(), text, "round {round}: value round trip");
        let decoded = run_stats_from_value(&parsed).expect("typed decode");
        assert_eq!(
            run_stats_to_value(&decoded).render(),
            text,
            "round {round}: typed round trip"
        );
        assert_eq!(decoded.wall_time, s.wall_time, "round {round}");
        assert_eq!(decoded.queries.durations, s.queries.durations);
    }
}

/// A fixed-seed random engine-stats reply (the per-shard `stats` unit).
fn random_stats_reply(next: &mut impl FnMut() -> u64) -> EngineStatsReply {
    EngineStatsReply {
        stats: leapfrog::EngineStats {
            checks: next() % 100_000,
            batches: next() % 10_000,
            pairs_interned: next() % 1_000,
            sum_cache_hits: next() % 10_000,
            reach_cache_hits: next() % 10_000,
            outcome_replays: next() % 100_000,
            warm_evictions: next() % 1_000,
            pair_evictions: next() % 1_000,
            ledger_evictions: next() % 1_000,
        },
        ledger_len: (next() % 100_000) as usize,
        state_report: if next().is_multiple_of(2) {
            Some(format!("loaded {} recorded proofs", next() % 500))
        } else {
            None
        },
    }
}

#[test]
fn fleet_stats_roundtrip_randomized() {
    // Fixed-seed random fleets at 1..=8 shards: encode → parse → typed
    // decode → encode must be the identity on bytes, and the aggregate
    // must stay the field-wise sum of the shards.
    let mut state = 0x5eed_1eafu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for round in 0..40 {
        let workers = 1 + (next() % 8) as usize;
        let shards: Vec<EngineStatsReply> = (0..workers)
            .map(|_| random_stats_reply(&mut next))
            .collect();
        let fleet = FleetStats::of_shards(shards.clone());
        assert_eq!(fleet.workers, workers);
        let summed: u64 = shards.iter().map(|s| s.stats.checks).sum();
        assert_eq!(fleet.aggregate.stats.checks, summed, "round {round}");
        let text = fleet_stats_to_value(&fleet).render();
        let parsed = json::parse(&text).expect("fleet stats JSON parses");
        assert_eq!(parsed.render(), text, "round {round}: value round trip");
        let decoded = fleet_stats_from_value(&parsed).expect("typed decode");
        assert_eq!(decoded, fleet, "round {round}: typed fields survive");
        assert_eq!(
            fleet_stats_to_value(&decoded).render(),
            text,
            "round {round}: typed round trip"
        );
    }
}

#[test]
fn fleet_stats_rejects_mislabelled_shards() {
    let mut state = 0xabcdu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let fleet = FleetStats::of_shards(vec![
        random_stats_reply(&mut next),
        random_stats_reply(&mut next),
    ]);
    let text = fleet_stats_to_value(&fleet).render();
    // Swap the shard labels: the decoder must refuse the permutation,
    // because labels are routing indices.
    let broken = text.replacen("\"shard\": 0", "\"shard\": 9", 1);
    let parsed = json::parse(&broken).expect("still valid JSON");
    assert!(fleet_stats_from_value(&parsed).is_err());
}

#[test]
fn run_stats_without_wp_calls_decode_as_zero() {
    // Frames from peers that predate the counter carry no `wp_calls`
    // key: they decode with the counter at 0, everything else intact.
    let stats = RunStats {
        iterations: 7,
        wp_generated: 5,
        wp_calls: 9,
        ..RunStats::default()
    };
    let mut v = run_stats_to_value(&stats);
    if let json::Value::Obj(fields) = &mut v {
        fields.retain(|(k, _)| k != "wp_calls");
    }
    let decoded = run_stats_from_value(&v).expect("a frame without wp_calls decodes");
    assert_eq!(decoded.wp_calls, 0);
    assert_eq!(decoded.wp_generated, 5);
    assert_eq!(decoded.iterations, 7);
    // A present but malformed counter is still an error.
    if let json::Value::Obj(fields) = &mut v {
        fields.push(("wp_calls".to_string(), json::Value::Str("many".into())));
    }
    assert!(run_stats_from_value(&v).is_err());
}

#[test]
fn stats_frames_with_sat_racing_counters_decode_unchanged() {
    // Peers that raced SAT solver lanes nested their racing counters
    // (lane count, race/solo counts, an 8-lane win histogram, per-lane
    // solver counters) under `queries`, right after `queries.sat`;
    // peers with an intra-query parallel frontier wrote three more
    // counters right after `threads`; peers with a cross-query blast
    // cache wrote its hit and miss counters right after
    // `queries.live_clauses_peak`, and its size as `cache_entries` right
    // after `ledger_len` in the engine stats object; peers with a
    // segment-deleting witness minimizer wrote a witness's
    // `original_bits`; and peers with retained guard sessions and a
    // per-entailment memo wrote `sessions_reused` and
    // `entailment_memo_hits` in run and engine stats,
    // `queries.session_rebuilds` and the engine's `session_evictions`,
    // but no `outcome_replays`. Such frames must decode to the same
    // values as the frames without them.
    let stats = RunStats {
        iterations: 7,
        entailment_checks: 5,
        queries: QueryStats {
            queries: 3,
            cegar_rounds: 2,
            sat: SolverStats {
                decisions: 11,
                conflicts: 2,
                ..SolverStats::default()
            },
            ..QueryStats::default()
        },
        ..RunStats::default()
    };
    let current = run_stats_to_value(&stats).render();
    let mut v = run_stats_to_value(&stats);
    let lane = solver_stats_to_value(&stats.queries.sat);
    // The key those peers wrote.
    let key = "portfolio";
    let racing = json::obj(vec![
        ("lanes", json::num(2)),
        ("races", json::num(4)),
        ("solo", json::num(9)),
        (
            "wins",
            json::Value::Arr([3, 1, 0, 0, 0, 0, 0, 0].map(json::num).to_vec()),
        ),
        ("lane_stats", json::Value::Arr(vec![lane.clone(), lane])),
    ]);
    // The cache counters those peers wrote.
    let cache_keys = ["blast_cache_hits", "blast_cache_misses"];
    match field(&mut v, "queries") {
        json::Value::Obj(fields) => {
            let after_sat = fields.iter().position(|(k, _)| k == "sat").unwrap() + 1;
            fields.insert(after_sat, (key.to_string(), racing));
            let after_peak = fields
                .iter()
                .position(|(k, _)| k == "live_clauses_peak")
                .unwrap()
                + 1;
            for (i, k) in cache_keys.iter().enumerate() {
                fields.insert(after_peak + i, (k.to_string(), json::num(91 + i)));
            }
            let after_validated = fields
                .iter()
                .position(|(k, _)| k == "blocks_validated")
                .unwrap()
                + 1;
            fields.insert(
                after_validated,
                ("session_rebuilds".to_string(), json::num(6)),
            );
        }
        other => panic!("queries is not an object: {}", other.render()),
    }
    // The session and memo counters those peers wrote in place of
    // `outcome_replays`.
    let memo_keys = ["sessions_reused", "entailment_memo_hits"];
    match &mut v {
        json::Value::Obj(fields) => {
            let at = fields
                .iter()
                .position(|(k, _)| k == "outcome_replays")
                .unwrap();
            fields.remove(at);
            for (i, k) in memo_keys.iter().enumerate() {
                fields.insert(at + i, (k.to_string(), json::num(40 + i)));
            }
        }
        other => panic!("stats is not an object: {}", other.render()),
    }
    // The keys those peers wrote beside `threads`.
    let frontier_keys = ["parallel_batches", "parallel_checks", "merge_rechecks"];
    match &mut v {
        json::Value::Obj(fields) => {
            let after_threads = fields.iter().position(|(k, _)| k == "threads").unwrap() + 1;
            for (i, k) in frontier_keys.iter().enumerate() {
                fields.insert(after_threads + i, (k.to_string(), json::num(3 + i)));
            }
        }
        other => panic!("stats is not an object: {}", other.render()),
    }
    let older = v.render();
    assert!(older.contains(&format!("\"{key}\": {{")), "{older}");
    for k in frontier_keys
        .iter()
        .chain(&cache_keys)
        .chain(&memo_keys)
        .chain(&["session_rebuilds"])
    {
        assert!(older.contains(&format!("\"{k}\": ")), "{older}");
    }
    assert!(!older.contains("outcome_replays"), "{older}");
    let decoded = run_stats_from_value(&json::parse(&older).expect("frame parses"))
        .expect("a frame with racing counters decodes");
    assert_eq!(run_stats_to_value(&decoded).render(), current);
    assert_eq!(decoded.queries.sat.decisions, 11);
    assert_eq!(decoded.queries.blast_cache_hits, 0);
    assert_eq!(decoded.queries.session_rebuilds, 0);
    assert_eq!(decoded.entailment_memo_hits, 0);
    assert_eq!(decoded.outcome_replays, 0);
    assert_eq!(decoded.iterations, 7);

    let reply = EngineStatsReply {
        ledger_len: 5,
        state_report: Some("reloaded".into()),
        ..EngineStatsReply::default()
    };
    let current = engine_stats_reply_to_value(&reply).render();
    let mut v = engine_stats_reply_to_value(&reply);
    let engine_memo_keys = [
        "sessions_reused",
        "entailment_memo_hits",
        "session_evictions",
    ];
    match &mut v {
        json::Value::Obj(fields) => {
            let after = fields.iter().position(|(k, _)| k == "ledger_len").unwrap() + 1;
            fields.insert(after, ("cache_entries".to_string(), json::num(1234)));
            let at = fields
                .iter()
                .position(|(k, _)| k == "outcome_replays")
                .unwrap();
            fields.remove(at);
            for (i, k) in engine_memo_keys.iter().enumerate() {
                fields.insert(at + i, (k.to_string(), json::num(70 + i)));
            }
        }
        other => panic!("engine stats is not an object: {}", other.render()),
    }
    let older = v.render();
    assert!(older.contains("\"cache_entries\": 1234"), "{older}");
    for k in engine_memo_keys {
        assert!(older.contains(&format!("\"{k}\": ")), "{older}");
    }
    assert!(!older.contains("outcome_replays"), "{older}");
    let decoded = engine_stats_reply_from_value(&json::parse(&older).expect("frame parses"))
        .expect("engine stats with cache_entries decode");
    assert_eq!(decoded, reply);
    assert_eq!(engine_stats_reply_to_value(&decoded).render(), current);

    // Witnesses from older peers carried the pre-minimization packet
    // length as `original_bits`, right after `packet`.
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let outcome = outcome_to_value(&check_language_equivalence(&sloppy, ql, &strict, qr));
    let current = outcome.render();
    let mut v = outcome;
    match witness(&mut v) {
        json::Value::Obj(fields) => {
            let after = fields.iter().position(|(k, _)| k == "packet").unwrap() + 1;
            fields.insert(after, ("original_bits".to_string(), json::num(400)));
        }
        other => panic!("witness is not an object: {}", other.render()),
    }
    let older = v.render();
    assert!(older.contains("\"original_bits\": 400"), "{older}");
    let decoded = wire_outcome_from_value(&json::parse(&older).expect("frame parses"))
        .expect("a witness with original_bits decodes");
    assert_eq!(wire_outcome_to_value(&decoded).render(), current);
}

#[test]
fn overloaded_roundtrip_randomized() {
    let mut state = 0x6f76_6572u64; // "over"
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for round in 0..40 {
        let scope = if next().is_multiple_of(2) {
            OverloadScope::Shard
        } else {
            OverloadScope::Client
        };
        let o = Overloaded {
            scope,
            // Client-quota rejections precede routing and carry no shard.
            shard: (scope == OverloadScope::Shard).then(|| (next() % 16) as usize),
            depth: next() % 10_000,
            limit: 1 + next() % 10_000,
            retry_after_ms: 50 + next() % 5_000,
        };
        let text = overloaded_to_value(&o).render();
        let parsed = json::parse(&text).expect("overloaded JSON parses");
        assert_eq!(parsed.render(), text, "round {round}: value round trip");
        let decoded = overloaded_from_value(&parsed)
            .expect("typed decode")
            .expect("an overloaded document decodes to Some");
        assert_eq!(decoded, o, "round {round}: typed fields survive");
        assert_eq!(
            overloaded_to_value(&decoded).render(),
            text,
            "round {round}: typed round trip"
        );
    }
}

#[test]
fn non_overloaded_replies_decode_to_none() {
    for text in ["{\"bye\": true}", "{\"error\": \"nope\"}"] {
        let parsed = json::parse(text).unwrap();
        assert_eq!(overloaded_from_value(&parsed), Ok(None), "{text}");
    }
}

#[test]
fn requests_roundtrip() {
    let requests = [
        Request::Check {
            pair: PairSpec::Named("MPLS Vectorized".into()),
            options: WireOptions::default(),
        },
        Request::Check {
            pair: PairSpec::Inline {
                left: "parser A { state s { extract(h, 2); goto accept; } }".into(),
                left_start: "s".into(),
                right: "parser B { state s { extract(g, 2); goto accept; } }".into(),
                right_start: "s".into(),
            },
            options: WireOptions {
                leaps: Some(false),
                max_iterations: Some(1234),
                ..WireOptions::default()
            },
        },
        Request::Stats,
        Request::Metrics,
        Request::SlowLog,
        Request::Shutdown,
    ];
    for req in &requests {
        let text = request_to_value(req).render();
        let back = request_from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, req, "request round trip: {text}");
        assert_eq!(request_to_value(&back).render(), text);
    }
}

#[test]
fn verify_requests_roundtrip_with_a_real_certificate() {
    // A verify request embeds the certificate document verbatim; the
    // round trip must preserve it byte-for-byte so the daemon's trust
    // root sees exactly what the client archived.
    let bench = &standard_benchmarks(Scale::Small)[0];
    let outcome = check_language_equivalence(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
    );
    let Outcome::Equivalent(cert) = outcome else {
        panic!("{} must verify", bench.name);
    };
    let requests = [
        Request::Verify {
            pair: PairSpec::Named(bench.name.to_string()),
            certificate: json::parse(&cert.to_json()).unwrap(),
        },
        Request::Verify {
            pair: PairSpec::Inline {
                left: "parser A { state s { extract(h, 2); goto accept; } }".into(),
                left_start: "s".into(),
                right: "parser B { state s { extract(g, 2); goto accept; } }".into(),
                right_start: "s".into(),
            },
            certificate: json::parse("{\"leaps\": true}").unwrap(),
        },
    ];
    for req in &requests {
        let text = request_to_value(req).render();
        let back = request_from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, req, "verify request round trip: {text}");
        assert_eq!(request_to_value(&back).render(), text);
        // The embedded certificate must survive rendering unchanged.
        if let Request::Verify { certificate, .. } = &back {
            let body = json::get(&json::parse(&text).unwrap(), "verify")
                .and_then(|b| json::get(b, "certificate").cloned())
                .unwrap();
            assert_eq!(&body, certificate);
        }
    }
}

#[test]
fn verify_replies_roundtrip() {
    let replies = [
        VerifyReply::accepted(),
        VerifyReply::rejected(
            "not_closed",
            "relation is not closed under WP: ⟨l.s, 0⟩ / ⟨r.t, 1⟩ ⇒ …",
        ),
        VerifyReply::rejected("malformed", "relation[3]: unknown expression tag"),
    ];
    for reply in &replies {
        let text = verify_reply_to_value(reply).render();
        let parsed = json::parse(&text).expect("verify reply JSON parses");
        assert_eq!(parsed.render(), text, "value round trip: {text}");
        let decoded = verify_reply_from_value(&parsed).expect("typed decode");
        assert_eq!(&decoded, reply, "typed fields survive: {text}");
        assert_eq!(verify_reply_to_value(&decoded).render(), text);
    }
    // An accepting reply carrying an error payload (or a rejection
    // missing one) is a protocol error, not a lenient decode.
    for bad in [
        "{\"verified\": {\"ok\": true, \"class\": \"not_closed\", \"detail\": \"x\"}}",
        "{\"verified\": {\"ok\": false}}",
    ] {
        let parsed = json::parse(bad).unwrap();
        assert!(verify_reply_from_value(&parsed).is_err(), "{bad}");
    }
}

/// Runs every wire decoder on `v`. Each must return `Ok` or `Err`; a
/// panic fails the test.
fn decode_everything(v: &json::Value) {
    let _ = request_from_value(v);
    let _ = verify_reply_from_value(v);
    let _ = wire_witness_from_value(v);
    let _ = wire_outcome_from_value(v);
    let _ = query_stats_from_value(v);
    let _ = solver_stats_from_value(v);
    let _ = phases_from_value(v);
    let _ = run_stats_from_value(v);
    let _ = engine_stats_reply_from_value(v);
    let _ = fleet_stats_from_value(v);
    let _ = overloaded_from_value(v);
    let _ = json::certificate_from_value(v);
}

/// Replaces one random subtree of `v` with `donor` (often of another
/// type), a hostile scalar, or itself nested deep.
fn mutate(v: &mut json::Value, donor: &json::Value, next: &mut impl FnMut(usize) -> usize) {
    let mut children: Vec<&mut json::Value> = match v {
        json::Value::Arr(items) => items.iter_mut().collect(),
        json::Value::Obj(fields) => fields.iter_mut().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    if !children.is_empty() && next(4) > 0 {
        let i = next(children.len());
        return mutate(children.swap_remove(i), donor, next);
    }
    let hostile = "[1e300, -1, 4294967296, 18446744073709551616, 0.5, 1e400, null, true, \"\"]";
    let hostile = json::parse(hostile).unwrap();
    let hostile = json::as_arr(&hostile).unwrap();
    *v = match next(3) {
        0 => donor.clone(),
        1 => hostile[next(hostile.len())].clone(),
        _ => (0..1 + next(200)).fold(v.clone(), |inner, _| json::Value::Arr(vec![inner])),
    };
}

/// Real frames of every kind the protocol carries.
fn real_frames() -> Vec<String> {
    let small = "parser A { state s { extract(h, 1); select(h) { 0b1 => accept; _ => reject; } } }";
    let aut = leapfrog_p4a::surface::parse(small).unwrap();
    let q = aut.state_by_name("s").unwrap();
    let Outcome::Equivalent(cert) = check_language_equivalence(&aut, q, &aut, q) else {
        panic!("a parser is equivalent to itself");
    };
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let refuted = check_language_equivalence(&sloppy, ql, &strict, qr);
    let pair = format!("{{\"inline\": {{\"left\": \"{small}\", \"left_start\": \"s\", \"right\": \"{small}\", \"right_start\": \"s\"}}}}");
    let fleet = FleetStats::of_shards(vec![EngineStatsReply::default(); 2]);
    vec![
        format!("{{\"check\": {{\"pair\": {pair}, \"options\": {{\"leaps\": false, \"max_iterations\": 9}}}}}}"),
        format!("{{\"verify\": {{\"pair\": {pair}, \"certificate\": {}}}}}", cert.to_json()),
        cert.to_json(),
        outcome_to_value(&Outcome::Equivalent(cert)).render(),
        outcome_to_value(&refuted).render(),
        run_stats_to_value(&RunStats::default()).render(),
        fleet_stats_to_value(&fleet).render(),
        "{\"verified\": {\"ok\": false, \"class\": \"not_closed\", \"detail\": \"x\"}}".into(),
        "{\"overloaded\": {\"scope\": \"shard\", \"shard\": 1, \"depth\": 4, \"limit\": 4, \"retry_after_ms\": 80}}".into(),
    ]
}

#[test]
fn decoders_are_total_on_hostile_input() {
    // Fixed seed: random bytes, byte-mutated real frames and
    // structure-mutated ones go through `read_frame`, `json::parse` and
    // every decoder, which must return (a value or an error) on all.
    let mut state = 0x7074_6f74u64;
    let mut next = move |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n.max(1) as u64) as usize
    };
    let frames = real_frames();
    let parsed: Vec<json::Value> = frames.iter().map(|f| json::parse(f).unwrap()).collect();
    for round in 0..24_000 {
        let (payload, prefix) = match round % 3 {
            0 => {
                let bytes: Vec<u8> = (0..next(64)).map(|_| next(256) as u8).collect();
                // Prefixes that fit, overrun the payload, or pass the bound.
                let prefix = [bytes.len(), bytes.len() + 1 + next(8), next(1 << 31)][next(3)];
                (bytes, prefix)
            }
            1 => {
                let mut bytes = frames[next(frames.len())].clone().into_bytes();
                for _ in 0..1 + next(4) {
                    if bytes.is_empty() {
                        break;
                    }
                    let at = next(bytes.len());
                    let end = (at + 1 + next(16)).min(bytes.len());
                    match next(4) {
                        0 => bytes[at] = b"{}[]\":,-.e0 "[next(12)],
                        1 => drop(bytes.drain(at..end)),
                        2 => drop(bytes.splice(at..at, bytes[at..end].to_vec())),
                        _ => bytes.truncate(at),
                    }
                }
                let len = bytes.len();
                (bytes, len)
            }
            _ => {
                let mut v = parsed[next(parsed.len())].clone();
                for _ in 0..1 + next(3) {
                    mutate(&mut v, &parsed[next(parsed.len())], &mut next);
                }
                decode_everything(&v);
                let bytes = v.render().into_bytes();
                let len = bytes.len();
                (bytes, len)
            }
        };
        let mut frame = (prefix as u32).to_be_bytes().to_vec();
        frame.extend(payload);
        if let Ok(Some(text)) = read_frame(&mut &frame[..]) {
            if let Ok(v) = json::parse(&text) {
                decode_everything(&v);
            }
        }
    }
}
