//! Row runners: one function per Table 2 row, returning the measured
//! columns. Shared by the `table2` binary and the criterion benches.
//!
//! Every runner drives a caller-owned persistent [`Engine`] (the `_in`
//! forms); the plain forms are compat wrappers over a transient one. The
//! `table2` binary runs each row twice through one long-lived engine, so
//! the emitted rows carry warm-vs-cold columns (`warm_speedup`,
//! `sessions_reused`, `sum_cache_hits`, `entailment_memo_hits`).

use std::time::{Duration, Instant};

use leapfrog::{Engine, EngineConfig, Options, Outcome, RunStats};
use leapfrog_obs::PhaseBreakdown;
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_suite::applicability;
use leapfrog_suite::metrics::Table2Metrics;
use leapfrog_suite::utility::sloppy_strict;
#[cfg(test)]
use leapfrog_suite::utility::{mpls, state_rearrangement};
use leapfrog_suite::{Benchmark, Scale};

/// One measured Table 2 row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Row name (matches the paper's).
    pub name: String,
    /// Size metrics.
    pub metrics: Table2Metrics,
    /// Wall-clock runtime of the check.
    pub runtime: Duration,
    /// Whether the property was verified.
    pub verified: bool,
    /// SMT queries issued.
    pub queries: u64,
    /// Relation size |R|.
    pub relation_size: u64,
    /// Weakest preconditions generated.
    pub wp_generated: u64,
    /// Weakest-precondition computations attempted; at most a small
    /// multiple of `wp_generated` while only predecessors that can step
    /// into a guard are visited.
    pub wp_calls: u64,
    /// Fraction of queries within 5 s (paper §7.3 reports 99%).
    pub queries_within_5s: f64,
    /// Threads the query ran on (always 1: a query runs whole on one
    /// thread).
    pub threads: usize,
    /// Fraction of asserted conjuncts served from the cross-query blast
    /// cache.
    pub blast_cache_hit_rate: f64,
    /// Fraction of linear-scan premise work avoided by the guard index.
    pub index_hit_rate: f64,
    /// CEGAR refinement rounds across all solver queries of the run.
    pub cegar_rounds: u64,
    /// `∀`-blocks actually validated against candidate models (the
    /// variable-indexed oracle skips unchanged-support blocks, so this is
    /// ≤ `blocks_considered`).
    pub blocks_validated: u64,
    /// `∀`-blocks a naive per-round sweep would have validated.
    pub blocks_considered: u64,
    /// Guard-session context rebuilds performed by the clause-budget GC.
    pub session_rebuilds: u64,
    /// Peak live-clause count in any single entailment-session context.
    pub peak_live_clauses: u64,
    /// CDCL conflicts across every SAT solve of the run.
    pub sat_conflicts: u64,
    /// CDCL unit propagations across every SAT solve of the run.
    pub sat_propagations: u64,
    /// Wall-time speedup of a warm re-run of this row through the same
    /// engine (`None` until the warm pass is measured).
    pub warm_speedup: Option<f64>,
    /// Warm guard sessions the warm re-run attached to.
    pub sessions_reused: u64,
    /// Sum constructions served from the engine's intern table on the
    /// warm re-run.
    pub sum_cache_hits: u64,
    /// Entailment verdicts the warm re-run replayed from the engine memo.
    pub entailment_memo_hits: u64,
    /// The confirmed witness, when the run refuted the property — fed into
    /// the regression corpus by the `table2` binary.
    pub witness: Option<leapfrog_cex::Witness>,
    /// The equivalence certificate the run produced, rendered as JSON —
    /// the exact document the independent `leapfrog-certcheck` trust root
    /// re-discharges (`None` when the run refuted the property).
    pub certificate: Option<String>,
    /// Wall-clock of the independent trust-root re-validation of this
    /// row's certificate (`None` until the `table2` binary runs it).
    pub certcheck_secs: Option<f64>,
    /// The trust root's deterministic work counts for that re-validation
    /// (`None` until the `table2` binary runs it).
    pub certcheck: Option<leapfrog_certcheck::CheckStats>,
    /// Per-phase time breakdown from the span tracer (empty unless
    /// tracing was enabled for the run).
    pub phases: PhaseBreakdown,
}

impl RowResult {
    /// Copies the warm-reuse columns out of a warm re-run of this row.
    pub fn absorb_warm(&mut self, warm: &RowResult) {
        self.warm_speedup = Some(self.runtime.as_secs_f64() / warm.runtime.as_secs_f64().max(1e-9));
        self.sessions_reused = warm.sessions_reused;
        self.sum_cache_hits = warm.sum_cache_hits;
        self.entailment_memo_hits = warm.entailment_memo_hits;
    }
}

/// One refuted mutant pair (`mutant_benchmarks()`): the refutation side
/// of Table 2.
#[derive(Debug, Clone)]
pub struct MutantResult {
    /// Mutant name.
    pub name: String,
    /// The engine's wall-clock for the check, witness included
    /// (`RunStats::wall_time`).
    pub engine_secs: f64,
    /// `(witness_bits, original_bits)`: the confirmed witness packet's
    /// length after and before minimization (`None` when the pair was not
    /// refuted with a confirmed witness).
    pub witness_bits: Option<(usize, usize)>,
}

/// Runs a plain language-equivalence benchmark through a persistent
/// engine.
pub fn run_row_in(engine: &mut Engine, bench: &Benchmark) -> RowResult {
    let start = Instant::now();
    let outcome = engine.check(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
    );
    finish(
        bench.name,
        bench.metrics(),
        start,
        engine.last_run_stats(),
        &outcome,
        bench.expect_equivalent,
    )
}

/// A transient engine answering queries of shape `options`, its other
/// knobs from the environment.
fn transient(options: Options) -> Engine {
    Engine::new(EngineConfig {
        options,
        ..EngineConfig::from_env()
    })
}

/// [`run_row_in`] over a transient engine configured from `options`.
pub fn run_row(bench: &Benchmark, options: Options) -> RowResult {
    run_row_in(&mut transient(options), bench)
}

/// The external-filtering row: sloppy vs strict modulo an EtherType filter
/// (§7.1), posed by replacing the initial relation.
pub fn run_external_filtering_in(engine: &mut Engine) -> RowResult {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let metrics = Table2Metrics::for_pair(&sloppy, &strict);
    let start = Instant::now();
    let pid = engine.prepare_pair(&sloppy, ql, &strict, qr);
    let reach = engine.reachable(pid);
    let init = sloppy_strict::external_filter_init(engine.sum_info(pid), &reach);
    let mut request = engine.standard_request(pid);
    request.standard_init = false;
    request.extra_init = init;
    let outcome = engine.run_prepared(pid, &request);
    finish(
        "External filtering",
        metrics,
        start,
        engine.last_run_stats(),
        &outcome,
        true,
    )
}

/// [`run_external_filtering_in`] over a transient engine.
pub fn run_external_filtering(options: Options) -> RowResult {
    run_external_filtering_in(&mut transient(options))
}

/// The relational-verification row: store correspondence at acceptance
/// (§7.1), posed by replacing the initial relation.
pub fn run_relational_verification_in(engine: &mut Engine) -> RowResult {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let metrics = Table2Metrics::for_pair(&sloppy, &strict);
    let start = Instant::now();
    let pid = engine.prepare_pair(&sloppy, ql, &strict, qr);
    let init = sloppy_strict::store_correspondence_init(engine.sum_info(pid));
    let mut request = engine.standard_request(pid);
    request.standard_init = false;
    request.extra_init = init;
    let outcome = engine.run_prepared(pid, &request);
    finish(
        "Relational verification",
        metrics,
        start,
        engine.last_run_stats(),
        &outcome,
        true,
    )
}

/// [`run_relational_verification_in`] over a transient engine.
pub fn run_relational_verification(options: Options) -> RowResult {
    run_relational_verification_in(&mut transient(options))
}

/// The automaton pair the translation-validation row checks: the Edge
/// parser and its hardware-table round trip. Exposed so the `table2`
/// binary can rebuild the sum automaton the row's certificate is stated
/// over and hand both to the independent trust root.
pub fn translation_validation_pair(scale: Scale) -> (Automaton, StateId, Automaton, StateId) {
    let edge = applicability::edge(scale);
    let start_state = edge.state_by_name("parse_eth").unwrap();
    let hw = leapfrog_hwgen::compile(&edge, start_state, &leapfrog_hwgen::HwBudget::default())
        .expect("the Edge parser compiles to hardware tables");
    let (back, back_start) = leapfrog_hwgen::back_translate(&hw);
    let back_start = back.state_by_name(&back_start).unwrap();
    (edge, start_state, back, back_start)
}

/// The translation-validation row: compile the Edge parser to hardware
/// tables, translate the tables back, and prove the round trip preserves
/// the language (§7.2, Figure 8).
pub fn run_translation_validation_in(engine: &mut Engine, scale: Scale) -> RowResult {
    let (edge, start_state, back, back_start) = translation_validation_pair(scale);
    let metrics = Table2Metrics::for_pair(&edge, &back);
    let start = Instant::now();
    let outcome = engine.check(&edge, start_state, &back, back_start);
    finish(
        "Translation Validation",
        metrics,
        start,
        engine.last_run_stats(),
        &outcome,
        true,
    )
}

/// [`run_translation_validation_in`] over a transient engine.
pub fn run_translation_validation(scale: Scale, options: Options) -> RowResult {
    run_translation_validation_in(&mut transient(options), scale)
}

/// All six utility rows plus the applicability self-comparisons at the
/// given scale (without translation validation, which needs the hwgen
/// pipeline and is run separately). Re-exported from the suite, where the
/// wire server resolves named rows against the same list.
pub use leapfrog_suite::standard_benchmarks;

/// Renders measured rows as a machine-readable JSON document (the repo has
/// no serde; the format is flat enough to emit by hand). Each entry pairs
/// a row with its peak heap measurement, when one was taken.
/// `batch_parallel_speedup` is the whole-table `check_batch` wall-clock
/// ratio at 1 vs 4 worker threads — the cross-query parallel axis. It is
/// measured whenever the host has ≥ 2 cores (or `--batch` forces it);
/// `cores` records the host parallelism so a `null` ratio is readable as
/// "not measurable here" rather than "missing". `mutants` lists the
/// refuted mutant pairs, one entry each.
pub fn rows_to_json(
    rows: &[(RowResult, Option<usize>)],
    mutants: &[MutantResult],
    sanity_witness_confirmed: bool,
    batch_parallel_speedup: Option<f64>,
    cores: usize,
) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, (row, peak)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"branched_bits\": {}, \
             \"total_bits\": {}, \"runtime_secs\": {:.6}, \"peak_bytes\": {}, \
             \"verified\": {}, \"relation_size\": {}, \"wp_generated\": {}, \
             \"wp_calls\": {}, \"queries\": {}, \
             \"queries_within_5s\": {:.4}, \"threads\": {}, \
             \"blast_cache_hit_rate\": {:.4}, \"index_hit_rate\": {:.4}, \
             \"cegar_rounds\": {}, \"blocks_validated\": {}, \
             \"blocks_considered\": {}, \"session_rebuilds\": {}, \
             \"peak_live_clauses\": {}, \"sat_conflicts\": {}, \
             \"sat_propagations\": {}, \"warm_speedup\": {}, \
             \"sessions_reused\": {}, \"sum_cache_hits\": {}, \
             \"entailment_memo_hits\": {}, \"certcheck_secs\": {}, \
             \"certcheck_obligations\": {}, \"certcheck_cegar_rounds\": {}, \
             \"certcheck_sat_decisions\": {}, \"certcheck_sat_conflicts\": {}, \
             \"phases\": {}}}{}\n",
            esc(&row.name),
            row.metrics.states,
            row.metrics.branched_bits,
            row.metrics.total_bits,
            row.runtime.as_secs_f64(),
            peak.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
            row.verified,
            row.relation_size,
            row.wp_generated,
            row.wp_calls,
            row.queries,
            row.queries_within_5s,
            row.threads,
            row.blast_cache_hit_rate,
            row.index_hit_rate,
            row.cegar_rounds,
            row.blocks_validated,
            row.blocks_considered,
            row.session_rebuilds,
            row.peak_live_clauses,
            row.sat_conflicts,
            row.sat_propagations,
            row.warm_speedup
                .map(|s| format!("{s:.4}"))
                .unwrap_or_else(|| "null".into()),
            row.sessions_reused,
            row.sum_cache_hits,
            row.entailment_memo_hits,
            row.certcheck_secs
                .map(|s| format!("{s:.6}"))
                .unwrap_or_else(|| "null".into()),
            certcheck_count(row, |c| c.obligations),
            certcheck_count(row, |c| c.cegar_rounds),
            certcheck_count(row, |c| c.sat_decisions),
            certcheck_count(row, |c| c.sat_conflicts),
            phases_json(&row.phases),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"mutants\": [\n");
    for (i, m) in mutants.iter().enumerate() {
        let (bits, original) = match m.witness_bits {
            Some((bits, original)) => (bits.to_string(), original.to_string()),
            None => ("null".into(), "null".into()),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine_secs\": {:.6}, \"witness_bits\": {bits}, \
             \"original_bits\": {original}}}{}\n",
            esc(&m.name),
            m.engine_secs,
            if i + 1 < mutants.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"sanity_check_witness_confirmed\": {sanity_witness_confirmed},\n  \
         \"batch_parallel_speedup\": {},\n  \"cores\": {cores}\n}}\n",
        batch_parallel_speedup
            .map(|s| format!("{s:.4}"))
            .unwrap_or_else(|| "null".into()),
    ));
    out
}

/// One trust-root counter of a row as JSON (`null` before the re-check).
fn certcheck_count(row: &RowResult, count: fn(&leapfrog_certcheck::CheckStats) -> u64) -> String {
    row.certcheck
        .as_ref()
        .map(|c| count(c).to_string())
        .unwrap_or_else(|| "null".into())
}

/// Renders a phase breakdown as a JSON array in canonical phase order —
/// `[]` when tracing was off for the run.
pub fn phases_json(p: &PhaseBreakdown) -> String {
    let entries: Vec<String> = p
        .entries
        .iter()
        .map(|e| {
            format!(
                "{{\"phase\": \"{}\", \"count\": {}, \"nanos\": {}}}",
                e.phase.as_str(),
                e.count,
                e.nanos
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

fn finish(
    name: &str,
    metrics: Table2Metrics,
    start: Instant,
    stats: &RunStats,
    outcome: &Outcome,
    expect_equivalent: bool,
) -> RowResult {
    let runtime = start.elapsed();
    let verified = outcome.is_equivalent() == expect_equivalent;
    RowResult {
        name: name.to_string(),
        metrics,
        runtime,
        verified,
        queries: stats.queries.queries,
        relation_size: stats.extended,
        wp_generated: stats.wp_generated,
        wp_calls: stats.wp_calls,
        queries_within_5s: stats.queries.fraction_within(Duration::from_secs(5)),
        threads: stats.threads,
        blast_cache_hit_rate: stats.queries.blast_cache_hit_rate(),
        index_hit_rate: stats.index_hit_rate(),
        cegar_rounds: stats.queries.cegar_rounds,
        blocks_validated: stats.queries.blocks_validated,
        blocks_considered: stats.queries.blocks_considered,
        session_rebuilds: stats.queries.session_rebuilds,
        peak_live_clauses: stats.queries.live_clauses_peak,
        sat_conflicts: stats.queries.sat.conflicts,
        sat_propagations: stats.queries.sat.propagations,
        warm_speedup: None,
        sessions_reused: stats.sessions_reused,
        sum_cache_hits: stats.sum_cache_hits,
        entailment_memo_hits: stats.entailment_memo_hits,
        witness: outcome.witness().cloned(),
        certificate: match outcome {
            Outcome::Equivalent(cert) => Some(cert.to_json()),
            _ => None,
        },
        certcheck_secs: None,
        certcheck: None,
        phases: stats.phases.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_rearrangement_row_verifies() {
        let bench = state_rearrangement::state_rearrangement_benchmark();
        let row = run_row(&bench, Options::default());
        assert!(row.verified, "state rearrangement must verify");
        assert!(row.queries > 0);
        assert!(row.wp_generated > 0);
        assert!(row.wp_calls <= 2 * row.wp_generated);
        let cert = row
            .certificate
            .as_deref()
            .expect("equivalent row carries its certificate");
        assert!(
            cert.contains("\"relation\""),
            "certificate JSON is complete"
        );
        assert_eq!(row.threads, 1);
        assert!((0.0..=1.0).contains(&row.blast_cache_hit_rate));
        assert!((0.0..=1.0).contains(&row.index_hit_rate));
    }

    #[test]
    fn rows_json_carries_pipeline_fields() {
        let bench = state_rearrangement::state_rearrangement_benchmark();
        let mut row = run_row(&bench, Options::default());
        row.warm_speedup = Some(2.0);
        row.certcheck_secs = Some(0.125);
        row.certcheck = Some(leapfrog_certcheck::CheckStats {
            obligations: 11,
            cegar_rounds: 12,
            sat_decisions: 13,
            sat_conflicts: 14,
        });
        let mutants = [
            MutantResult {
                name: "m\"1".into(),
                engine_secs: 0.25,
                witness_bits: Some((12, 656)),
            },
            MutantResult {
                name: "m2".into(),
                engine_secs: 0.5,
                witness_bits: None,
            },
        ];
        let json = rows_to_json(&[(row, Some(1024))], &mutants, true, Some(1.5), 4);
        let doc = leapfrog::json::parse(&json).expect("rows JSON parses");
        let parsed = leapfrog::json::get(&doc, "mutants").expect("mutants array");
        assert_eq!(leapfrog::json::as_arr(parsed).unwrap().len(), 2);
        for key in [
            "\"wp_generated\"",
            "\"wp_calls\"",
            "\"threads\"",
            "\"blast_cache_hit_rate\"",
            "\"index_hit_rate\"",
            "\"cegar_rounds\"",
            "\"blocks_validated\"",
            "\"blocks_considered\"",
            "\"session_rebuilds\"",
            "\"peak_live_clauses\"",
            "\"sat_conflicts\"",
            "\"sat_propagations\"",
            "\"warm_speedup\": 2.0000",
            "\"certcheck_secs\": 0.125000",
            "\"certcheck_obligations\": 11",
            "\"certcheck_cegar_rounds\": 12",
            "\"certcheck_sat_decisions\": 13",
            "\"certcheck_sat_conflicts\": 14",
            "\"sessions_reused\"",
            "\"sum_cache_hits\"",
            "\"entailment_memo_hits\"",
            "\"phases\"",
            "\"batch_parallel_speedup\": 1.5000",
            "\"cores\": 4",
            "{\"name\": \"m\\\"1\", \"engine_secs\": 0.250000, \"witness_bits\": 12, \"original_bits\": 656},",
            "{\"name\": \"m2\", \"engine_secs\": 0.500000, \"witness_bits\": null, \"original_bits\": null}\n",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn oracle_counters_populated_and_bounded() {
        let bench = state_rearrangement::state_rearrangement_benchmark();
        let row = run_row(&bench, Options::default());
        assert!(row.cegar_rounds > 0, "CEGAR must run on this row");
        assert!(
            row.blocks_validated <= row.blocks_considered,
            "the oracle can only skip validations: {} > {}",
            row.blocks_validated,
            row.blocks_considered
        );
        assert!(row.witness.is_none(), "an equivalent row has no witness");
    }

    #[test]
    fn refuted_row_carries_its_witness() {
        let mutant = &leapfrog_suite::mutants::mutant_benchmarks()[0];
        let row = run_row(mutant, Options::default());
        assert!(row.verified, "the mutant is expected inequivalent");
        let w = row.witness.as_ref().expect("confirmed witness on the row");
        assert!(w.check());
        assert!(
            row.certificate.is_none(),
            "a refuted row has no certificate"
        );
    }

    #[test]
    fn speculative_loop_row_verifies() {
        let row = run_row(&mpls::mpls_benchmark(), Options::default());
        assert!(row.verified);
        assert!(row.relation_size > 0);
    }

    #[test]
    fn warm_rerun_through_one_engine_shows_reuse() {
        // The serving pattern the `table2` binary uses: run a row twice
        // through one engine; the warm pass must report reuse and agree on
        // the verdict and relation size.
        let bench = state_rearrangement::state_rearrangement_benchmark();
        let mut engine = EngineConfig::from_env().build();
        let mut cold = run_row_in(&mut engine, &bench);
        let warm = run_row_in(&mut engine, &bench);
        assert!(cold.verified && warm.verified);
        assert_eq!(cold.relation_size, warm.relation_size);
        assert!(warm.sessions_reused > 0, "warm pass must attach sessions");
        assert!(warm.sum_cache_hits > 0, "sum must be interned");
        assert!(warm.entailment_memo_hits > 0, "memo must replay verdicts");
        cold.absorb_warm(&warm);
        assert!(cold.warm_speedup.is_some());
        assert_eq!(cold.sessions_reused, warm.sessions_reused);
    }
}
