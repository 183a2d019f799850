//! `persistence_roundtrip` — the cross-process warm-state CI driver.
//!
//! ```text
//! persistence_roundtrip [--state-dir DIR] [--fresh]
//! ```
//!
//! Runs the full standard suite (plus the mutant refutations) twice:
//!
//! 1. a **cold pass** on a fresh engine configured with a state
//!    directory, recording every outcome's canonical JSON, then
//!    `save_state`;
//! 2. a **restart pass** on a brand-new engine built from the saved
//!    state — simulating a daemon restart.
//!
//! The run fails unless (a) every second-pass outcome is byte-identical
//! to the first, (b) every proof of the second pass is an outcome replay
//! from the saved certificate (no iteration, no solver query) — skipped
//! when `LEAPFROG_WARM_CAP` bounds the records so tightly that they were
//! legitimately evicted; refutations are recorded in memory only, so
//! they are re-solved — and (c) every verdict matches the suite's
//! expectation in both passes. CI runs it twice: once unbounded, once
//! with `LEAPFROG_WARM_CAP=1` to prove eviction never changes a byte.

use leapfrog::{Engine, EngineConfig};
use leapfrog_serve::proto::outcome_to_value;
use leapfrog_suite::{mutants, standard_benchmarks, Benchmark, Scale};

fn rows() -> Vec<Benchmark> {
    let mut rows = standard_benchmarks(Scale::from_env());
    rows.extend(mutants::mutant_benchmarks());
    rows
}

/// One row's answer in one pass.
struct Answer {
    name: String,
    json: String,
    /// Answered from an outcome record, with no iteration and no solver
    /// query.
    replayed: bool,
    proof: bool,
    verdict_ok: bool,
}

/// Runs every row through one engine.
fn run_pass(engine: &mut Engine, rows: &[Benchmark]) -> Vec<Answer> {
    rows.iter()
        .map(|b| {
            let outcome = engine.check(&b.left, b.left_start, &b.right, b.right_start);
            let s = engine.last_run_stats();
            Answer {
                name: b.name.to_string(),
                json: outcome_to_value(&outcome).render(),
                replayed: (s.outcome_replays, s.iterations, s.queries.queries) == (1, 0, 0),
                proof: outcome.is_equivalent(),
                verdict_ok: outcome.is_equivalent() == b.expect_equivalent,
            }
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut state_dir = std::path::PathBuf::from("leapfrog-state");
    let mut fresh = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-dir" => {
                state_dir = args
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("persistence_roundtrip: --state-dir needs a value");
                        std::process::exit(2);
                    })
                    .into()
            }
            "--fresh" => fresh = true,
            other => {
                eprintln!("persistence_roundtrip: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if state_dir.exists() {
        if fresh {
            if let Err(e) = std::fs::remove_dir_all(&state_dir) {
                eprintln!(
                    "persistence_roundtrip: cannot clear {}: {e}",
                    state_dir.display()
                );
                std::process::exit(1);
            }
        } else {
            eprintln!(
                "persistence_roundtrip: {} already exists (pass --fresh to clear it)",
                state_dir.display()
            );
            std::process::exit(2);
        }
    }
    let warm_cap = EngineConfig::from_env().warm_capacity;
    let rows = rows();
    println!(
        "persistence roundtrip: {} rows, state dir {}, warm cap {}",
        rows.len(),
        state_dir.display(),
        if warm_cap == 0 {
            "unbounded".to_string()
        } else {
            warm_cap.to_string()
        }
    );

    // Pass 1: cold engine, then save.
    let mut cold = Engine::new(EngineConfig::from_env().with_state_dir(&state_dir));
    let first = run_pass(&mut cold, &rows);
    if let Err(e) = cold.save_state(&state_dir) {
        eprintln!("persistence_roundtrip: save_state failed: {e}");
        std::process::exit(1);
    }
    println!(
        "pass 1 (cold): {} rows checked, state saved ({} ledger verdicts)",
        first.len(),
        cold.ledger_len(),
    );

    // Pass 2: a brand-new engine restarted from the saved state.
    let mut restarted = Engine::new(EngineConfig::from_env().with_state_dir(&state_dir));
    match restarted.state_report() {
        Some(report) => println!("pass 2 (restart): {report}"),
        None => {
            eprintln!("persistence_roundtrip: restart loaded no state at all");
            std::process::exit(1);
        }
    }
    let second = run_pass(&mut restarted, &rows);

    let mut failures = 0usize;
    let mut replayed = 0usize;
    for (cold, warm) in first.iter().zip(&second) {
        let name = &cold.name;
        replayed += warm.replayed as usize;
        if !cold.verdict_ok || !warm.verdict_ok {
            failures += 1;
            eprintln!("FAIL {name}: verdict does not match the suite expectation");
        }
        if cold.json != warm.json {
            failures += 1;
            eprintln!(
                "FAIL {name}: restart output differs ({} vs {} bytes)",
                cold.json.len(),
                warm.json.len()
            );
        }
        if warm_cap == 0 && warm.replayed != warm.proof {
            failures += 1;
            eprintln!(
                "FAIL {name}: a restarted proof must replay its saved certificate and a \
                 refutation must be re-solved (proof={}, replayed={})",
                warm.proof, warm.replayed
            );
        }
    }
    let proofs = second.iter().filter(|a| a.proof).count();
    println!("pass 2 replays: {replayed} of {proofs} proofs answered from saved certificates");
    if failures > 0 {
        eprintln!("persistence_roundtrip: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "persistence_roundtrip: all {} outputs byte-identical across the restart",
        rows.len()
    );
}
