//! The §7.3 ablation: re-runs selected case studies with leaps and/or
//! reachability pruning disabled, reproducing the paper's observation that
//! the small State Rearrangement study blows up without leaps (30 s →
//! 42 min in Coq) and does not finish without reachability pruning.
//!
//! Each configuration gets its own engine built through the typed
//! `EngineConfig` builder — the ablation knobs are per-query *semantic*
//! settings, so sharing warm state across them would be meaningless.
//!
//! ```text
//! cargo run --release -p leapfrog-bench --bin ablation
//! ```

use std::time::Instant;

use leapfrog::EngineConfig;
use leapfrog_bench::alloc_track::{human_bytes, PeakAlloc};
use leapfrog_suite::utility::{mpls, state_rearrangement};
use leapfrog_suite::{applicability, Benchmark, Scale};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn run(bench: &Benchmark, leaps: bool, reach_pruning: bool, budget: u64) {
    let mut engine = EngineConfig::from_env()
        .leaps(leaps)
        .reach_pruning(reach_pruning)
        .max_iterations(Some(budget))
        .build();
    ALLOC.reset();
    let start = Instant::now();
    let outcome = engine.check(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
    );
    let stats = engine.last_run_stats();
    println!(
        "{:<22} leaps={:<5} pruning={:<5} -> {:<10} {:>10} iters={:<6} scope={:<6} queries={:<6} mem={}",
        bench.name,
        leaps,
        reach_pruning,
        match outcome {
            leapfrog::Outcome::Equivalent(_) => "verified",
            leapfrog::Outcome::NotEquivalent(_) => "refuted",
            leapfrog::Outcome::Aborted(_) => "aborted",
        },
        format!("{:.2?}", start.elapsed()),
        stats.iterations,
        stats.scope_pairs,
        stats.queries.queries,
        human_bytes(ALLOC.peak_bytes()),
    );
}

/// The SAT-core ablation: re-runs the solver-heavy applicability rows with
/// LBD-tiered learnt-clause management disabled (activity-only deletion,
/// the pre-rewrite policy). Verdicts and witnesses are identical either
/// way — only the learnt-clause retention policy changes — so the section
/// hard-fails on any verdict or query-count divergence.
fn run_lbd(bench: &Benchmark, lbd: bool) -> (leapfrog::Outcome, u64) {
    let mut engine = EngineConfig::from_env().sat_lbd(lbd).build();
    ALLOC.reset();
    let start = Instant::now();
    let outcome = engine.check(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
    );
    let stats = engine.last_run_stats();
    println!(
        "{:<22} lbd={:<5} -> {:<10} {:>10} conflicts={:<8} learnt_deleted={:<8} mem={}",
        bench.name,
        lbd,
        match outcome {
            leapfrog::Outcome::Equivalent(_) => "verified",
            leapfrog::Outcome::NotEquivalent(_) => "refuted",
            leapfrog::Outcome::Aborted(_) => "aborted",
        },
        format!("{:.2?}", start.elapsed()),
        stats.queries.sat.conflicts,
        stats.queries.sat.deleted_clauses,
        human_bytes(ALLOC.peak_bytes()),
    );
    (outcome, stats.queries.queries)
}

fn main() {
    println!("Leapfrog-rs — §7.3 ablation (iteration budget caps runaway configurations)");
    let budget = 200_000;
    for bench in [
        state_rearrangement::state_rearrangement_benchmark(),
        mpls::mpls_benchmark(),
    ] {
        for (leaps, pruning) in [(true, true), (false, true), (true, false), (false, false)] {
            run(&bench, leaps, pruning, budget);
        }
        println!();
    }

    println!("SAT-core ablation (LBD two-tier learnt management vs activity-only)");
    for bench in applicability::all_benchmarks(Scale::from_env()) {
        let (on, on_queries) = run_lbd(&bench, true);
        let (off, off_queries) = run_lbd(&bench, false);
        assert_eq!(
            std::mem::discriminant(&on),
            std::mem::discriminant(&off),
            "{}: LBD toggle changed the verdict",
            bench.name
        );
        assert_eq!(
            on_queries, off_queries,
            "{}: LBD toggle changed the query trajectory",
            bench.name
        );
    }
}
