//! The §7.3 and §4 gate, on exact counters; exits 1 when a shape fails.
//!
//! §7.3 re-runs two case studies with leaps and/or reachability pruning
//! disabled (in Coq, State Rearrangement went from 30 s to 42 min without
//! leaps and did not finish without pruning). Every configuration must
//! verify, leaps off must take more iterations and pruning off a larger
//! scope. Each configuration gets its own engine: leaps and pruning are
//! per-query semantic settings, so shared warm state would be meaningless.
//!
//! §4 checks a header read whole against the same header read in halves
//! ([`header_width`](leapfrog_bench::header_width)): the explicit product
//! must visit exactly `2.5·2^w − 1` configuration pairs at each width `w`
//! while the symbolic |R| keeps one size.
//!
//! ```text
//! cargo run --release -p leapfrog-bench --bin ablation
//! ```

use std::time::Instant;

use leapfrog::{EngineConfig, ExplicitResult, Outcome, RunStats};
use leapfrog_bench::alloc_track::{human_bytes, PeakAlloc};
use leapfrog_bench::header_width::{check_pair, explicit_pairs};
use leapfrog_suite::utility::{mpls, state_rearrangement};
use leapfrog_suite::Benchmark;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Worklist iterations after which a §7.3 configuration is abandoned.
const ITERATION_BUDGET: u64 = 200_000;

/// The §4 header widths, in bits.
const WIDTHS: [usize; 4] = [4, 8, 12, 16];

/// Configuration pairs the §4 explicit check may visit; above
/// `explicit_pairs(16)`, so every width completes.
const EXPLICIT_BUDGET: usize = 200_000;

/// Runs one §7.3 configuration and prints its line; returns whether it
/// verified, and its stats.
fn run(bench: &Benchmark, leaps: bool, reach_pruning: bool) -> (bool, RunStats) {
    let mut engine = EngineConfig::from_env()
        .leaps(leaps)
        .reach_pruning(reach_pruning)
        .max_iterations(Some(ITERATION_BUDGET))
        .build();
    ALLOC.reset();
    let start = Instant::now();
    let outcome = engine.check(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
    );
    let stats = engine.last_run_stats().clone();
    println!(
        "{:<22} leaps={:<5} pruning={:<5} -> {:<10} {:>10} iters={:<6} scope={:<6} queries={:<6} mem={}",
        bench.name,
        leaps,
        reach_pruning,
        match outcome {
            Outcome::Equivalent(_) => "verified",
            Outcome::NotEquivalent(_) => "refuted",
            Outcome::Aborted(_) => "aborted",
        },
        format!("{:.2?}", start.elapsed()),
        stats.iterations,
        stats.scope_pairs,
        stats.queries.queries,
        human_bytes(ALLOC.peak_bytes()),
    );
    (outcome.is_equivalent(), stats)
}

fn main() {
    let mut failures = Vec::new();
    println!("§7.3 ablation (iteration budget {ITERATION_BUDGET})");
    for bench in [
        state_rearrangement::state_rearrangement_benchmark(),
        mpls::mpls_benchmark(),
    ] {
        let [on, leaps_off, pruning_off, _] =
            [(true, true), (false, true), (true, false), (false, false)].map(|(leaps, pruning)| {
                let (verified, stats) = run(&bench, leaps, pruning);
                if !verified {
                    failures.push(format!(
                        "{}: leaps={leaps} pruning={pruning} did not verify",
                        bench.name
                    ));
                }
                stats
            });
        if leaps_off.iterations <= on.iterations {
            failures.push(format!(
                "{}: {} iterations without leaps, not more than {} with them",
                bench.name, leaps_off.iterations, on.iterations
            ));
        }
        if pruning_off.scope_pairs <= on.scope_pairs {
            failures.push(format!(
                "{}: scope of {} pairs without pruning, not more than {} with it",
                bench.name, pruning_off.scope_pairs, on.scope_pairs
            ));
        }
        println!();
    }

    println!("§4 explicit vs symbolic (explicit budget {EXPLICIT_BUDGET} pairs)");
    let mut relation_sizes = Vec::new();
    for width in WIDTHS {
        let (explicit, relation_size) = check_pair(width, EXPLICIT_BUDGET);
        let shown = relation_size.map_or("not verified".into(), |r| r.to_string());
        println!("w={width:<2} explicit: {explicit:?}; symbolic |R|: {shown}");
        let expected = ExplicitResult::Equivalent {
            explored: explicit_pairs(width),
        };
        if explicit != expected {
            failures.push(format!(
                "w={width}: explicit {explicit:?}, expected {expected:?}"
            ));
        }
        relation_sizes.push(relation_size);
    }
    if relation_sizes.contains(&None) || relation_sizes.windows(2).any(|w| w[0] != w[1]) {
        failures.push(format!(
            "symbolic |R| is not one verified size at every width: {relation_sizes:?}"
        ));
    }

    for f in &failures {
        eprintln!("FAILURE: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("ablation: every §7.3 and §4 shape holds");
}
