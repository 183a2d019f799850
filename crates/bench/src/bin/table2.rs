//! Regenerates Table 2 of the paper: every case-study row with States /
//! Branched bits / Total bits / Runtime / Memory, plus the §7.3 SMT
//! latency summary, the §7.1 sanity check on inequivalent parsers, and —
//! since the guard-indexed pipeline landed — the per-row thread count,
//! blast-cache hit rate and guard-index hit rate.
//!
//! Since the persistent-engine redesign the whole table is served by ONE
//! long-lived `leapfrog::Engine`: every row runs through it twice, and
//! the emitted JSON carries warm-vs-cold columns (`warm_speedup`,
//! `sessions_reused`, `sum_cache_hits`, `entailment_memo_hits`) showing
//! cross-request reuse even on one CPU.
//!
//! Since the trust root landed, every row's certificate is additionally
//! re-discharged through the independent `leapfrog-certcheck` checker
//! (its own WP transformer and CDCL solver — no engine code), with the
//! re-validation wall-clock recorded per row as `certcheck_secs` in
//! `BENCH_table2.json` beside the trust root's deterministic counters
//! (`certcheck_obligations`, `certcheck_cegar_rounds`,
//! `certcheck_sat_decisions`, `certcheck_sat_conflicts`); a rejection
//! fails the run.
//!
//! ```text
//! LEAPFROG_SCALE=full cargo run --release -p leapfrog-bench --bin table2
//! ```
//!
//! Every run appends one snapshot line (commit, timestamp, scale, cores,
//! per-row runtimes, registry counters) to `BENCH_history.jsonl` — the
//! persisted perf trajectory. A query always runs on one thread; the
//! parallel axis is across queries (`batch_parallel_speedup` here,
//! `fleet_bench`'s snapshots for the daemon). Tracing is on by default
//! so the emitted rows carry a per-phase time breakdown
//! (`LEAPFROG_TRACE=0` disables).
//!
//! Flags / environment:
//! * `--smoke` — force the small scale and exit nonzero if any emitted
//!   row is missing the WP-count / cache-hit-rate / thread-count /
//!   cegar-rounds / blocks-validated / session-rebuilds /
//!   warm-reuse / phase-breakdown fields, if any row makes more than
//!   twice as many WP calls as it generates preconditions, if no warm
//!   reuse was observed at all, if `warm_speedup` lands below 1.0 on
//!   *every* row (a warm re-run losing everywhere means engine reuse
//!   regressed), if the witness corpus regressed, if a redirect_case
//!   mutant is not refuted with a confirmed witness or lacks its entry
//!   (engine seconds, `witness_bits`, `original_bits`) in the JSON
//!   `mutants` array, or if the run
//!   regresses against the rolling history baseline (median of the last
//!   5 comparable snapshots): total runtime above 2× the baseline, or the
//!   best warm speedup collapsing below 1.0 when the baseline held it at
//!   ≥ 1.0 (CI runs this).
//! * `--batch` — additionally pre-run the whole standard table through
//!   `Engine::check_batch` (the serving API) on the table-wide engine;
//!   any batched verdict disagreeing with the per-row expectation fails
//!   (CI runs `--smoke --batch`). The 1-vs-4-thread cold-engine
//!   `batch_parallel_speedup` measurement itself no longer needs the
//!   flag: it runs whenever the host has ≥ 2 cores, and the JSON records
//!   `cores` so a `null` ratio is readable as "single-core host".
//! * `LEAPFROG_BENCH_HISTORY=path` — where the trajectory lives (default
//!   `BENCH_history.jsonl`).
//! * `LEAPFROG_WITNESS_CORPUS=path` — where the witness regression corpus
//!   lives (default `WITNESS_CORPUS.txt`).
//! * `LEAPFROG_SESSION_GC=ratio|0`, `LEAPFROG_SESSION_GC_FLOOR=n` — the
//!   guard sessions' clause-budget GC (results are identical, only
//!   memory/time change).

use leapfrog::json::{self, Value};
use leapfrog::{Engine, EngineConfig, Outcome, QuerySpec};
use leapfrog_bench::alloc_track::{human_bytes, PeakAlloc};
use leapfrog_bench::rows::{
    rows_to_json, run_external_filtering_in, run_relational_verification_in, run_row_in,
    run_translation_validation_in, standard_benchmarks, translation_validation_pair, MutantResult,
    RowResult,
};
use leapfrog_suite::corpus::WitnessCorpus;
use leapfrog_suite::differential::check_cross_validate_and_record_in;
use leapfrog_suite::mutants::mutant_benchmarks;
use leapfrog_suite::utility::sloppy_strict;
use leapfrog_suite::{Benchmark, Scale};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// The sanity-check pair is a named corpus entry so its witnesses are
/// re-exercised on every run.
const SANITY_PAIR: &str = "Sanity check (sloppy vs strict)";

/// Re-discharges a measured row's certificate through the independent
/// `leapfrog-certcheck` trust root — its own reachable-pair sweep, WP
/// transformer and CDCL solver, sharing no solver code with the engine —
/// and records the re-validation wall-clock and work counts on the row.
/// Every standard table row is expected equivalent, so a missing
/// certificate or a trust-root rejection is a run failure.
fn recheck_certificate(
    row: &mut RowResult,
    left: &leapfrog_p4a::ast::Automaton,
    right: &leapfrog_p4a::ast::Automaton,
    failures: &mut Vec<String>,
) {
    let Some(cert_json) = row.certificate.clone() else {
        failures.push(format!(
            "\"{}\" verified without emitting a certificate to re-check",
            row.name
        ));
        return;
    };
    let sum = leapfrog_p4a::sum::sum(left, right);
    let start = std::time::Instant::now();
    match leapfrog_certcheck::check_json(&sum.automaton, &cert_json) {
        Ok(stats) => {
            row.certcheck_secs = Some(start.elapsed().as_secs_f64());
            row.certcheck = Some(stats);
        }
        Err(e) => failures.push(format!(
            "trust root rejected the \"{}\" certificate [{}]: {e}",
            row.name,
            e.class()
        )),
    }
}

/// Runs a row runner against the persistent engine: the row is measured
/// and immediately re-run warm, filling the warm-reuse columns. The
/// allocator peak is reset before the measured run and read back *before*
/// the warm pass, so the returned peak covers the measured run only — on
/// top of the engine-resident floor (warm sessions, memos and caches from
/// earlier rows stay live; the Memory column is the serving footprint,
/// not an isolated per-row cost).
fn measure(engine: &mut Engine, run: &dyn Fn(&mut Engine) -> RowResult) -> (RowResult, usize) {
    ALLOC.reset();
    let mut row = run(engine);
    let peak = ALLOC.peak_bytes();
    let warm = run(engine);
    row.absorb_warm(&warm);
    (row, peak)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let batch_mode = std::env::args().any(|a| a == "--batch");
    let scale = if smoke {
        Scale::Small
    } else {
        Scale::from_env()
    };
    // Tracing is on by default for the table run — the per-phase
    // breakdown is part of the recorded trajectory. `LEAPFROG_TRACE=0`
    // still turns it off (engine construction applies the env).
    if std::env::var("LEAPFROG_TRACE").is_err() {
        leapfrog_obs::set_trace_enabled(true);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut engine = Engine::new(EngineConfig::from_env());
    let corpus_path = std::env::var("LEAPFROG_WITNESS_CORPUS")
        .unwrap_or_else(|_| "WITNESS_CORPUS.txt".to_string());
    let mut failures: Vec<String> = Vec::new();
    // An unreadable corpus is a failure, and the file is left untouched —
    // overwriting it with this run's entries would destroy every recorded
    // regression packet.
    let mut corpus_writable = true;
    let mut corpus = match WitnessCorpus::load(&corpus_path) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("witness corpus unreadable: {e}"));
            corpus_writable = false;
            WitnessCorpus::new()
        }
    };

    println!(
        "Leapfrog-rs — Table 2 reproduction (scale: {scale:?}, batch threads: {}, engine: persistent{})",
        engine.config().effective_threads(),
        if batch_mode { ", batch pre-pass" } else { "" },
    );

    // Batch mode: the serving API first. The whole standard table runs
    // through `check_batch` on dedicated cold engines at 1 and 4 worker
    // threads — the cross-query parallel axis, recorded as
    // `batch_parallel_speedup` (wall-clock t1/t4; ~1.0 on a single-core
    // container, a real win on multi-core CI runners). Then the same rows
    // go through the table-wide persistent engine, so the per-row
    // measurements afterwards run warm against the batch's state.
    let mut batch_parallel_speedup = None;
    let batch_benches = standard_benchmarks(scale);
    let batch_specs: Vec<QuerySpec> = batch_benches
        .iter()
        .map(|b| QuerySpec::new(b.name, &b.left, b.left_start, &b.right, b.right_start))
        .collect();
    // The parallel-axis measurement runs whenever it is meaningful: with
    // at least 2 cores the 1-vs-4-thread ratio is real even without
    // `--batch`, so local multi-core runs record it rather than emitting
    // `null` (single-core hosts report it as not measurable instead).
    if batch_mode || cores >= 2 {
        let mut time_batch = |threads: usize| {
            let mut cold = Engine::new(EngineConfig::from_env().threads(threads));
            let start = std::time::Instant::now();
            let outcomes = cold.check_batch(&batch_specs);
            for (bench, outcome) in batch_benches.iter().zip(&outcomes) {
                if outcome.is_equivalent() != bench.expect_equivalent {
                    failures.push(format!(
                        "batch verdict mismatch for \"{}\" at {threads} thread(s): \
                         got {outcome:?}",
                        bench.name
                    ));
                }
            }
            start.elapsed()
        };
        let wall_1 = time_batch(1);
        let wall_4 = time_batch(4);
        batch_parallel_speedup = Some(wall_1.as_secs_f64() / wall_4.as_secs_f64().max(1e-9));
        println!(
            "Batch parallel axis: {} rows via check_batch — {:.2?} at 1 thread, \
             {:.2?} at 4 threads ({:.2}x, {cores} core(s))",
            batch_specs.len(),
            wall_1,
            wall_4,
            batch_parallel_speedup.unwrap(),
        );
    } else {
        println!("Batch parallel axis: not measurable on {cores} core(s)");
    }
    if batch_mode {
        let benches = &batch_benches;
        let specs = &batch_specs;
        let outcomes = engine.check_batch(specs);
        for (bench, outcome) in benches.iter().zip(&outcomes) {
            if outcome.is_equivalent() != bench.expect_equivalent {
                failures.push(format!(
                    "batch verdict mismatch for \"{}\": got {outcome:?}",
                    bench.name
                ));
            }
        }
        let stats = engine.last_run_stats();
        println!(
            "Batch pre-pass: {} queries through check_batch (batch workers: {}, \
             entailment checks: {}, wall: {:.2?})",
            outcomes.len(),
            engine.config().effective_threads(),
            stats.entailment_checks,
            stats.wall_time,
        );
    }

    println!(
        "{:<26} {:>6} {:>9} {:>7} {:>12} {:>10} {:>8} {:>6} {:>9} {:>7} {:>7} {:>8} {:>10}",
        "Name",
        "States",
        "Branched",
        "Total",
        "Runtime",
        "Memory",
        "Verified",
        "|R|",
        "Queries",
        "Cache%",
        "Index%",
        "Warm",
        "Recheck"
    );

    let mut all_within_5s = true;
    let mut measured: Vec<(RowResult, Option<usize>)> = Vec::new();
    let mut print_row = |row: RowResult, mem: usize, out: &mut Vec<(RowResult, Option<usize>)>| {
        println!(
            "{:<26} {:>6} {:>9} {:>7} {:>12} {:>10} {:>8} {:>6} {:>9} {:>7} {:>7} {:>8} {:>10}",
            row.name,
            row.metrics.states,
            row.metrics.branched_bits,
            row.metrics.total_bits,
            format!("{:.2?}", row.runtime),
            human_bytes(mem),
            if row.verified { "yes" } else { "NO" },
            row.relation_size,
            row.queries,
            format!("{:.0}%", 100.0 * row.blast_cache_hit_rate),
            format!("{:.0}%", 100.0 * row.index_hit_rate),
            row.warm_speedup
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".into()),
            row.certcheck_secs
                .map(|s| format!("{:.2?}", std::time::Duration::from_secs_f64(s)))
                .unwrap_or_else(|| "-".into()),
        );
        if row.queries_within_5s < 0.99 {
            all_within_5s = false;
        }
        out.push((row, Some(mem)));
    };

    // Every named pair row replays its recorded corpus packets first (a
    // packet distinguishing an expected-equivalent pair, or a refuted
    // pair none of whose packets still distinguish it, is a regression)
    // and feeds any confirmed refutation witness back into the corpus —
    // applicability rows included, not just the sanity pair.
    let exercise_prior = |bench: &Benchmark, corpus: &WitnessCorpus, failures: &mut Vec<String>| {
        let prior = corpus.exercise(
            bench.name,
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
        );
        if bench.expect_equivalent && prior.distinguishing > 0 {
            failures.push(format!(
                "witness corpus regression: {} recorded packet(s) distinguish \
                 \"{}\", which the suite expects equivalent",
                prior.distinguishing, bench.name
            ));
        }
        if !bench.expect_equivalent && prior.replayed > 0 && prior.distinguishing == 0 {
            failures.push(format!(
                "witness corpus regression: no recorded packet distinguishes \
                 \"{}\" anymore",
                bench.name
            ));
        }
    };

    // Utility rows 1–4 and applicability rows, in Table 2 order.
    let benches = standard_benchmarks(scale);
    let (utility, applicability) = benches.split_at(4);
    for bench in utility {
        exercise_prior(bench, &corpus, &mut failures);
        let (mut row, mem) = measure(&mut engine, &|e: &mut Engine| run_row_in(e, bench));
        if let Some(w) = &row.witness {
            corpus.record(&row.name, w);
        }
        recheck_certificate(&mut row, &bench.left, &bench.right, &mut failures);
        print_row(row, mem, &mut measured);
    }
    // Rows 5–6: the relational case studies. Both are posed over the
    // sloppy/strict pair, so the trust root re-checks their certificates
    // against the same sum automaton.
    let (rel_left, rel_right) = sloppy_strict::sloppy_strict_parsers();
    let (mut row, mem) = measure(&mut engine, &run_relational_verification_in);
    recheck_certificate(&mut row, &rel_left, &rel_right, &mut failures);
    print_row(row, mem, &mut measured);
    let (mut row, mem) = measure(&mut engine, &run_external_filtering_in);
    recheck_certificate(&mut row, &rel_left, &rel_right, &mut failures);
    print_row(row, mem, &mut measured);
    // Applicability self-comparisons.
    for bench in applicability {
        exercise_prior(bench, &corpus, &mut failures);
        let (mut row, mem) = measure(&mut engine, &|e: &mut Engine| run_row_in(e, bench));
        if let Some(w) = &row.witness {
            corpus.record(&row.name, w);
        }
        recheck_certificate(&mut row, &bench.left, &bench.right, &mut failures);
        print_row(row, mem, &mut measured);
    }
    // Translation validation. The pair is rebuilt deterministically so
    // the trust root can restate the sum the certificate talks about.
    let (mut row, mem) = measure(&mut engine, &|e: &mut Engine| {
        run_translation_validation_in(e, scale)
    });
    let (edge, _, back, _) = translation_validation_pair(scale);
    recheck_certificate(&mut row, &edge, &back, &mut failures);
    print_row(row, mem, &mut measured);

    println!();
    println!(
        "SMT latency: all case studies {} the paper's '99% of queries ≤ 5 s' bound",
        if all_within_5s { "meet" } else { "MISS" }
    );
    let estats = engine.stats();
    println!(
        "Engine reuse: {} checks, {} sums interned ({} hits), {} warm sessions attached, \
         {} memoized verdicts replayed",
        estats.checks,
        estats.pairs_interned,
        estats.sum_cache_hits,
        estats.sessions_reused,
        estats.entailment_memo_hits,
    );
    let rechecked = measured
        .iter()
        .filter(|(r, _)| r.certcheck_secs.is_some())
        .count();
    let recheck_total: f64 = measured.iter().filter_map(|(r, _)| r.certcheck_secs).sum();
    println!(
        "Trust root: {rechecked}/{} certificates independently re-discharged by \
         leapfrog-certcheck ({:.2?} total)",
        measured.len(),
        std::time::Duration::from_secs_f64(recheck_total),
    );

    // §7.1 sanity check: inequivalent parsers must fail cleanly at Close,
    // and since the witness engine landed, the refutation must carry a
    // confirmed counterexample packet. The witness feeds the regression
    // corpus, whose prior entries are re-exercised first. Early stopping
    // is off so the Close step is genuinely reached — a distinct query
    // shape, so it runs on its own engine.
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let prior = corpus.exercise(SANITY_PAIR, &sloppy, ql, &strict, qr);
    if prior.replayed > 0 {
        println!(
            "Witness corpus: {}/{} recorded packet(s) still distinguish sloppy vs strict",
            prior.distinguishing, prior.replayed
        );
        if prior.distinguishing == 0 {
            failures.push(
                "witness corpus regression: no recorded packet distinguishes the \
                 sanity-check pair anymore"
                    .into(),
            );
        }
    }
    let mut close_engine = EngineConfig::from_env().early_stop(false).build();
    let witness_confirmed = match close_engine.check(&sloppy, ql, &strict, qr) {
        Outcome::NotEquivalent(refutation) => match refutation.witness() {
            Some(w) => {
                println!(
                    "Sanity check: sloppy vs strict NOT equivalent; {}-bit witness \
                     packet confirmed by explicit replay",
                    w.packet.len()
                );
                if corpus.record(SANITY_PAIR, w) {
                    println!("Witness corpus: recorded the minimized packet");
                }
                true
            }
            None => {
                println!("Sanity check: refuted, but the witness was NOT confirmed");
                false
            }
        },
        other => {
            println!("Sanity check FAILED: expected NotEquivalent, got {other:?}");
            false
        }
    };
    if !witness_confirmed {
        failures.push("sanity-check witness not confirmed".into());
    }

    // The mutated-parser negative suite: each redirect_case mutant (of the
    // speculative-loop pair and the applicability parsers) must be refuted
    // with a confirmed witness; the witnesses join the corpus and prior
    // entries replay through the differential harness. The mutants run
    // through the persistent engine too, and each one's engine time and
    // witness size are recorded — the refutation side of the table.
    let mutants = mutant_benchmarks();
    let mut mutant_results: Vec<MutantResult> = Vec::with_capacity(mutants.len());
    println!();
    println!("Mutated-parser negative suite ({} mutants):", mutants.len());
    for m in &mutants {
        let checked = check_cross_validate_and_record_in(
            &mut engine,
            &m.left,
            m.left_start,
            &m.right,
            m.right_start,
            m.name,
            &mut corpus,
        );
        let engine_secs = engine.last_run_stats().wall_time.as_secs_f64();
        let witness_bits = match checked {
            Ok(Outcome::NotEquivalent(refutation)) => {
                println!(
                    "  {}: refuted in {:.2?}; {} corpus packet(s)",
                    m.name,
                    std::time::Duration::from_secs_f64(engine_secs),
                    corpus.entries(m.name).len()
                );
                refutation
                    .witness()
                    .map(|w| (w.packet.len(), w.original_bits))
            }
            Ok(other) => {
                failures.push(format!(
                    "mutant {}: expected NotEquivalent, got {other:?}",
                    m.name
                ));
                None
            }
            Err(e) => {
                failures.push(format!("mutant {}: {e}", m.name));
                None
            }
        };
        mutant_results.push(MutantResult {
            name: m.name.to_string(),
            engine_secs,
            witness_bits,
        });
    }
    if corpus_writable {
        match corpus.save(&corpus_path) {
            Ok(()) => println!(
                "Witness corpus: {} entr(ies) at {corpus_path}",
                corpus.len()
            ),
            Err(e) => println!("Witness corpus: could not save {corpus_path}: {e}"),
        }
    } else {
        println!("Witness corpus: NOT saved (existing {corpus_path} is unreadable)");
    }

    // Machine-readable output, so the performance trajectory is recorded.
    let json = rows_to_json(
        &measured,
        &mutant_results,
        witness_confirmed,
        batch_parallel_speedup,
        cores,
    );
    let path = "BENCH_table2.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("Wrote {path} ({} rows)", measured.len()),
        Err(e) => println!("Could not write {path}: {e}"),
    }

    // The persisted trajectory: one snapshot line per run, appended to a
    // JSONL history. The smoke gate compares this run against the rolling
    // baseline (median of the last 5 comparable snapshots) *before* the
    // append, so a regressed run still records itself for forensics but
    // cannot silently become its own baseline.
    let history_path = std::env::var("LEAPFROG_BENCH_HISTORY")
        .unwrap_or_else(|_| "BENCH_history.jsonl".to_string());
    let current =
        HistorySnapshot::capture(scale, cores, batch_mode, &measured, batch_parallel_speedup);
    let prior = load_history(&history_path, &format!("{scale:?}"), batch_mode);
    match append_history(&history_path, &current) {
        Ok(()) => println!(
            "Appended snapshot to {history_path} ({} comparable prior run(s))",
            prior.len()
        ),
        Err(e) => println!("Could not append {history_path}: {e}"),
    }
    if smoke {
        gate_against_baseline(&current, &prior, &mut failures);
    }

    // Smoke validation: every row must report the pipeline fields,
    // including the warm-reuse columns.
    for key in [
        "\"wp_generated\"",
        "\"wp_calls\"",
        "\"blast_cache_hit_rate\"",
        "\"threads\"",
        "\"index_hit_rate\"",
        "\"cegar_rounds\"",
        "\"blocks_validated\"",
        "\"blocks_considered\"",
        "\"session_rebuilds\"",
        "\"peak_live_clauses\"",
        "\"sat_conflicts\"",
        "\"sat_propagations\"",
        "\"warm_speedup\"",
        "\"sessions_reused\"",
        "\"sum_cache_hits\"",
        "\"entailment_memo_hits\"",
        "\"certcheck_secs\"",
        "\"certcheck_obligations\"",
        "\"certcheck_cegar_rounds\"",
        "\"certcheck_sat_decisions\"",
        "\"certcheck_sat_conflicts\"",
    ] {
        let have = json.matches(key).count();
        if have != measured.len() {
            failures.push(format!(
                "{key} present in {have}/{} emitted rows",
                measured.len()
            ));
        }
    }
    // The refutation side: one entry per mutant pair, each with a
    // confirmed witness's length.
    let confirmed =
        json.matches("\"witness_bits\": ").count() - json.matches("\"witness_bits\": null").count();
    if confirmed != mutants.len() {
        failures.push(format!(
            "{confirmed}/{} mutant entries carry a confirmed witness",
            mutants.len()
        ));
    }
    // WP is computed only for predecessors that can step into the guard,
    // so nearly every call yields a precondition. A sweep over the whole
    // scope shows up here as a 10-300x ratio, through counters alone.
    for (r, _) in &measured {
        if r.wp_calls > 2 * r.wp_generated {
            failures.push(format!(
                "\"{}\": {} WP calls for {} generated preconditions (more than 2x)",
                r.name, r.wp_calls, r.wp_generated
            ));
        }
    }
    // Engine warmth must be *observable*: across the whole table, the
    // warm re-runs must have attached sessions, hit the sum intern table
    // and replayed memoized verdicts somewhere.
    let total_reused: u64 = measured.iter().map(|(r, _)| r.sessions_reused).sum();
    let total_sum_hits: u64 = measured.iter().map(|(r, _)| r.sum_cache_hits).sum();
    let total_memo: u64 = measured.iter().map(|(r, _)| r.entailment_memo_hits).sum();
    if total_reused == 0 || total_sum_hits == 0 || total_memo == 0 {
        failures.push(format!(
            "no engine warm reuse observed (sessions_reused={total_reused}, \
             sum_cache_hits={total_sum_hits}, entailment_memo_hits={total_memo})"
        ));
    }
    // A warm re-run losing to its own cold run on EVERY row means engine
    // reuse regressed outright — field presence alone would not catch it.
    // Only meaningful outside batch mode: the batch pre-pass warms the
    // table-wide engine, so batch-mode "cold" rows are already memo-served
    // and the warm ratio is pure timing noise.
    if !batch_mode {
        let best_warm = measured
            .iter()
            .filter_map(|(r, _)| r.warm_speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        if !measured.is_empty() && best_warm < 1.0 {
            failures.push(format!(
                "warm_speedup < 1.0 on every row (best {best_warm:.3}): no warm win anywhere"
            ));
        }
    }
    // The parallel-axis measurement must land in the JSON whenever the
    // host can measure it; a single-core host legitimately reports null.
    if batch_parallel_speedup.is_none() {
        if batch_mode || cores >= 2 {
            failures.push(format!(
                "batch_parallel_speedup missing despite {cores} core(s)"
            ));
        } else {
            println!(
                "batch_parallel_speedup: not measurable on a single-core host \
                 (cores={cores}; recorded as null)"
            );
        }
    }
    // Tracing was on (unless explicitly disabled), so every emitted row
    // must carry a nonempty phase breakdown.
    if std::env::var("LEAPFROG_TRACE").as_deref() != Ok("0") {
        let empty = measured.iter().filter(|(r, _)| r.phases.is_empty()).count();
        if empty > 0 {
            failures.push(format!(
                "{empty}/{} rows have an empty phase breakdown despite tracing",
                measured.len()
            ));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILURE: {f}");
        }
        if smoke {
            std::process::exit(1);
        }
    }
}

/// One row's trajectory point: name, runtime in seconds and warm speedup.
type RowPoint = (String, f64, Option<f64>);

/// One run's entry in the persisted perf trajectory (`BENCH_history.jsonl`).
struct HistorySnapshot {
    commit: String,
    unix_time: u64,
    scale: String,
    cores: usize,
    batch_mode: bool,
    total_runtime_secs: f64,
    best_warm_speedup: Option<f64>,
    batch_parallel_speedup: Option<f64>,
    rows: Vec<RowPoint>,
}

/// A prior snapshot reduced to the two gated quantities.
struct PriorRun {
    total_runtime_secs: f64,
    best_warm_speedup: Option<f64>,
}

impl HistorySnapshot {
    fn capture(
        scale: Scale,
        cores: usize,
        batch_mode: bool,
        measured: &[(RowResult, Option<usize>)],
        batch_parallel_speedup: Option<f64>,
    ) -> HistorySnapshot {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        HistorySnapshot {
            commit,
            unix_time,
            scale: format!("{scale:?}"),
            cores,
            batch_mode,
            total_runtime_secs: measured.iter().map(|(r, _)| r.runtime.as_secs_f64()).sum(),
            best_warm_speedup: measured
                .iter()
                .filter_map(|(r, _)| r.warm_speedup)
                .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s)))),
            batch_parallel_speedup,
            rows: measured
                .iter()
                .map(|(r, _)| (r.name.clone(), r.runtime.as_secs_f64(), r.warm_speedup))
                .collect(),
        }
    }

    /// Renders the snapshot as one JSON line (flattened canonical JSON;
    /// strings escape embedded newlines, so the line never breaks).
    fn render_line(&self) -> String {
        let opt = |v: Option<f64>| v.map(Value::Num).unwrap_or(Value::Null);
        let snap = leapfrog_obs::global().snapshot();
        let counter = |n: &str| json::num(snap.counters.get(n).copied().unwrap_or(0) as usize);
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|(name, secs, warm)| {
                json::obj(vec![
                    ("name", Value::Str(name.clone())),
                    ("runtime_secs", Value::Num(*secs)),
                    ("warm_speedup", opt(*warm)),
                ])
            })
            .collect();
        let v = json::obj(vec![
            ("commit", Value::Str(self.commit.clone())),
            ("unix_time", json::num(self.unix_time as usize)),
            ("scale", Value::Str(self.scale.clone())),
            ("cores", json::num(self.cores)),
            ("batch_mode", Value::Bool(self.batch_mode)),
            ("total_runtime_secs", Value::Num(self.total_runtime_secs)),
            ("best_warm_speedup", opt(self.best_warm_speedup)),
            ("batch_parallel_speedup", opt(self.batch_parallel_speedup)),
            (
                "metrics",
                json::obj(vec![
                    ("checks", counter("leapfrog_checks_total")),
                    (
                        "entailment_checks",
                        counter("leapfrog_entailment_checks_total"),
                    ),
                    (
                        "entailment_memo_hits",
                        counter("leapfrog_entailment_memo_hits_total"),
                    ),
                    ("smt_queries", counter("leapfrog_smt_queries_total")),
                    ("cegar_rounds", counter("leapfrog_cegar_rounds_total")),
                ]),
            ),
            ("rows", Value::Arr(rows)),
        ]);
        v.render()
            .lines()
            .map(str::trim_start)
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Loads the prior snapshots comparable to this run (same scale and
/// batch-mode flag); malformed lines are skipped, a missing file is an
/// empty history.
fn load_history(path: &str, scale: &str, batch_mode: bool) -> Vec<PriorRun> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let num = |v: &Value, key: &str| match json::get(v, key) {
        Ok(Value::Num(n)) => Some(*n),
        _ => None,
    };
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|v| {
            json::get(v, "scale")
                .ok()
                .and_then(|s| json::as_str(s).ok())
                == Some(scale)
                && json::get(v, "batch_mode")
                    .ok()
                    .and_then(|b| json::as_bool(b).ok())
                    == Some(batch_mode)
        })
        .filter_map(|v| {
            Some(PriorRun {
                total_runtime_secs: num(&v, "total_runtime_secs")?,
                best_warm_speedup: num(&v, "best_warm_speedup"),
            })
        })
        .collect()
}

fn append_history(path: &str, snapshot: &HistorySnapshot) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", snapshot.render_line())
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(values[values.len() / 2])
}

/// The smoke gate against the rolling baseline: the median of the last
/// (up to) 5 comparable snapshots. A run slower than 2× the baseline
/// total runtime fails; a warm-speedup collapse below 1.0 fails when the
/// baseline reliably sat at or above 1.0. With no comparable history the
/// gate is vacuous — the first run seeds the baseline.
fn gate_against_baseline(
    current: &HistorySnapshot,
    prior: &[PriorRun],
    failures: &mut Vec<String>,
) {
    let window = &prior[prior.len().saturating_sub(5)..];
    if window.is_empty() {
        println!("Baseline gate: no comparable history yet; this run seeds it");
        return;
    }
    if let Some(base) = median(window.iter().map(|p| p.total_runtime_secs).collect()) {
        println!(
            "Baseline gate: total runtime {:.3}s vs rolling median {:.3}s over {} run(s)",
            current.total_runtime_secs,
            base,
            window.len()
        );
        if current.total_runtime_secs > 2.0 * base {
            failures.push(format!(
                "perf regression: total runtime {:.3}s is more than 2x the rolling \
                 baseline {:.3}s",
                current.total_runtime_secs, base
            ));
        }
    }
    let base_warm = median(window.iter().filter_map(|p| p.best_warm_speedup).collect());
    if let (Some(base), Some(cur)) = (base_warm, current.best_warm_speedup) {
        if base >= 1.0 && cur < 1.0 {
            failures.push(format!(
                "warm-speedup regression: best warm speedup {cur:.3} fell below 1.0 \
                 (rolling baseline {base:.3})"
            ));
        }
    }
}
