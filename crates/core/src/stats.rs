//! Run statistics: what Table 2 of the paper reports per case study,
//! plus solver-level counters (§7.3's SMT latency discussion) and the
//! pipeline counters of the guard-indexed frontier. Every query runs on
//! one thread, so the work counters are the same at any
//! [`EngineConfig::threads`](crate::EngineConfig::threads) setting.

use std::time::Duration;

use leapfrog_obs::PhaseBreakdown;
use leapfrog_smt::QueryStats;

/// Statistics from one [`crate::Checker::run`] invocation.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Worklist iterations (pops from the frontier `T`).
    pub iterations: u64,
    /// Size of `R` when the run ended (`Extend` count). Populated for
    /// every outcome — `Equivalent`, `NotEquivalent` and `Aborted` alike.
    pub extended: u64,
    /// Formulas skipped because they were already entailed (the `Skip` rule).
    pub skipped: u64,
    /// Weakest preconditions generated.
    pub wp_generated: u64,
    /// Weakest-precondition computations attempted (`wp_generated` plus
    /// the ones that came back vacuous).
    pub wp_calls: u64,
    /// Template pairs in scope (after reachability pruning, if enabled).
    pub scope_pairs: usize,
    /// Largest pure-formula size encountered (structural nodes).
    pub max_formula_size: usize,
    /// Refutation witnesses confirmed by explicit replay (0 or 1 per run:
    /// the checker stops at the first violation).
    pub witnesses_confirmed: u64,
    /// Refutations whose countermodel could not be lifted into a
    /// confirmed witness.
    pub witnesses_unconfirmed: u64,
    /// Always 0: witness packets keep their lifted length (only bits are
    /// zeroed). Kept because `perfbench` reads it as `cex.bits_removed`.
    pub witness_bits_minimized: u64,
    /// Threads the query ran on: always 1, since a query runs whole on
    /// one thread (0 only in a record that absorbed no run). `perfbench`
    /// reads it to check that the engine ran on one thread.
    pub threads: usize,
    /// Total `Skip`-rule entailment decisions taken (0 on an outcome
    /// replay).
    pub entailment_checks: u64,
    /// Premises fetched through the guard index, summed over all checks —
    /// what lowering actually saw.
    pub premises_matched: u64,
    /// Premises a linear scan would have visited (Σ |R| per check) — what
    /// the pre-index pipeline paid for stage-1 template filtering.
    pub premises_total: u64,
    /// 1 when the outcome was replayed from the engine's record of an
    /// earlier run of the same pair and query shape — no WP, no solver,
    /// every other work counter 0 — and 0 for a run that searched.
    pub outcome_replays: u64,
    /// Always 0: no per-entailment memo exists (a repeated query replays
    /// its whole outcome, see [`RunStats::outcome_replays`]). Kept because
    /// `perfbench` reads it.
    pub entailment_memo_hits: u64,
    /// Whether the pair's sum construction was served from the engine's
    /// intern table (1) or built for this run (0). For batches: hits
    /// summed over the batch.
    pub sum_cache_hits: u64,
    /// Whether the scope/reachability set was served from the engine's
    /// per-pair memo. For batches: hits summed over the batch.
    pub reach_cache_hits: u64,
    /// Total wall-clock time of the run.
    pub wall_time: Duration,
    /// SMT query statistics (the per-query solver plus the run's guard
    /// sessions).
    pub queries: QueryStats,
    /// Per-phase time breakdown from the span tracer. Empty unless
    /// tracing is enabled (`LEAPFROG_TRACE=1`); purely observational —
    /// never consulted by the pipeline.
    pub phases: PhaseBreakdown,
}

impl RunStats {
    /// Fraction of the linear-scan premise work the guard index avoided:
    /// `1 − matched/total` (0.0 when no premises existed to scan).
    pub fn index_hit_rate(&self) -> f64 {
        if self.premises_total == 0 {
            return 0.0;
        }
        1.0 - self.premises_matched as f64 / self.premises_total as f64
    }

    /// Fraction of the naive per-round `∀`-block validations the
    /// variable-indexed CEGAR oracle skipped (0.0 when no rounds ran).
    pub fn oracle_skip_rate(&self) -> f64 {
        if self.queries.blocks_considered == 0 {
            return 0.0;
        }
        1.0 - self.queries.blocks_validated as f64 / self.queries.blocks_considered as f64
    }

    /// Folds another run's statistics into this one — used by the engine
    /// to report a whole batch as one merged record, in submission order.
    /// Counters add; `scope_pairs`, `threads` and `max_formula_size` take
    /// the maximum; wall time adds (total work, not latency).
    pub fn merge(&mut self, other: &RunStats) {
        self.iterations += other.iterations;
        self.extended += other.extended;
        self.skipped += other.skipped;
        self.wp_generated += other.wp_generated;
        self.wp_calls += other.wp_calls;
        self.scope_pairs = self.scope_pairs.max(other.scope_pairs);
        self.max_formula_size = self.max_formula_size.max(other.max_formula_size);
        self.witnesses_confirmed += other.witnesses_confirmed;
        self.witnesses_unconfirmed += other.witnesses_unconfirmed;
        self.witness_bits_minimized += other.witness_bits_minimized;
        self.threads = self.threads.max(other.threads);
        self.entailment_checks += other.entailment_checks;
        self.premises_matched += other.premises_matched;
        self.premises_total += other.premises_total;
        self.outcome_replays += other.outcome_replays;
        self.sum_cache_hits += other.sum_cache_hits;
        self.reach_cache_hits += other.reach_cache_hits;
        self.wall_time += other.wall_time;
        self.queries.absorb(&other.queries);
        self.phases.merge(&other.phases);
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        let witnesses = if self.witnesses_confirmed + self.witnesses_unconfirmed > 0 {
            format!(
                " witnesses={}/{}",
                self.witnesses_confirmed,
                self.witnesses_confirmed + self.witnesses_unconfirmed,
            )
        } else {
            String::new()
        };
        format!(
            "iterations={} extended={} skipped={} wp={} wp_calls={} scope={} queries={} \
             index_hit={:.0}% cegar_rounds={} oracle_skip={:.0}% peak_clauses={} \
             warm(replay={} sum={} reach={} ledger={}) time={:.2?}{}",
            self.iterations,
            self.extended,
            self.skipped,
            self.wp_generated,
            self.wp_calls,
            self.scope_pairs,
            self.queries.queries,
            100.0 * self.index_hit_rate(),
            self.queries.cegar_rounds,
            100.0 * self.oracle_skip_rate(),
            self.queries.live_clauses_peak,
            self.outcome_replays,
            self.sum_cache_hits,
            self.reach_cache_hits,
            self.queries.inst_ledger_hits,
            self.wall_time,
            witnesses,
        )
    }
}
