//! `fleet_bench` — the fleet's concurrent-throughput and merge driver.
//!
//! ```text
//! fleet_bench [--state-dir DIR]
//! ```
//!
//! Three legs, all against in-process servers on free ports:
//!
//! 1. **1-worker pass** — the full named suite (standard rows plus the
//!    mutant refutations) posed by `CLIENTS` (8) concurrent wire clients
//!    against a `--workers 1` fleet, wall-clock recorded.
//! 2. **4-worker pass** — the same load against a `--workers 4` fleet.
//!    Every verdict is byte-diffed against the 1-worker pass: sharding
//!    must never change an answer.
//! 3. **restart/merge pass** — the 4-worker fleet saves its state on
//!    shutdown (`shard-0..3/` under `--state-dir`); a 2-worker fleet
//!    then reloads the same directory through the merge path (saved
//!    proofs re-route by fingerprint) and replays the suite. Bytes must
//!    match the earlier passes and the fleet's aggregate stats must show
//!    outcome replays, proving the merged state actually reached the new
//!    shards.
//!
//! It prints the 1-vs-4-worker wall-clock ratio and exits 1 on any byte
//! mismatch, on a merge pass that replays nothing, and — on hosts with
//! ≥ 4 cores — on a 4-worker wall-clock that does not beat the 1-worker
//! one.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use leapfrog_serve::{Client, Server, ServerOptions};
use leapfrog_suite::{mutants, standard_benchmarks, Scale};

/// Concurrent wire clients per pass.
const CLIENTS: usize = 8;

/// One pass's outcome bytes, keyed by row name.
type VerdictMap = BTreeMap<String, String>;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut state_dir: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-dir" => state_dir = Some(args.next().unwrap_or_default().into()),
            other => {
                eprintln!("fleet_bench: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let state_dir = state_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("leapfrog-fleet-bench-{}", std::process::id()))
    });
    if state_dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(&state_dir) {
            eprintln!("fleet_bench: cannot clear {}: {e}", state_dir.display());
            std::process::exit(1);
        }
    }
    let scale = Scale::from_env();
    let names: Vec<String> = standard_benchmarks(scale)
        .iter()
        .map(|b| b.name.to_string())
        .chain(
            mutants::mutant_benchmarks()
                .iter()
                .map(|b| b.name.to_string()),
        )
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "fleet_bench: {} rows, {CLIENTS} concurrent clients, {cores} core(s), scale {scale:?}",
        names.len()
    );

    let mut failures = 0usize;

    // Leg 1+2: cold fleets at 1 and 4 workers, same concurrent load.
    let (single, wall_1, _) = run_pass(1, None, &names, &mut failures);
    let (sharded, wall_4, _) = run_pass(4, None, &names, &mut failures);
    failures += diff(&single, &sharded, "workers=1", "workers=4");
    let speedup = wall_1.as_secs_f64() / wall_4.as_secs_f64().max(1e-9);
    println!(
        "fleet wall-clock: {wall_1:.2?} at 1 worker, {wall_4:.2?} at 4 workers ({speedup:.2}x)"
    );

    // Leg 3: save at 4 workers, reload at 2 (the merge path).
    let (save_pass, _, _) = run_pass(4, Some(&state_dir), &names, &mut failures);
    failures += diff(&single, &save_pass, "workers=1", "workers=4+save");
    let (merged, _, replays) = run_pass(2, Some(&state_dir), &names, &mut failures);
    failures += diff(&single, &merged, "workers=1", "workers=2+merge");
    if replays == 0 {
        failures += 1;
        eprintln!("FAIL merge: the 2-worker fleet replayed no proof from the 4-worker save");
    } else {
        println!("merge leg: 2-worker fleet replayed {replays} proofs from the 4-worker save");
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    if cores >= 4 && speedup <= 1.0 {
        failures += 1;
        eprintln!(
            "FAIL gate: 4-worker wall-clock did not beat 1 worker ({speedup:.2}x on {cores} cores)"
        );
    }
    if failures > 0 {
        eprintln!("fleet_bench: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("fleet_bench: all verdicts byte-identical across worker counts and the merge restart");
}

/// Starts an in-process fleet at `workers`, drives the whole suite from
/// `CLIENTS` concurrent wire clients, shuts the fleet down (saving state
/// when `state_dir` is set), and returns the verdict bytes, the
/// wall-clock of the concurrent check phase, and the fleet's aggregate
/// outcome replays.
fn run_pass(
    workers: usize,
    state_dir: Option<&std::path::Path>,
    names: &[String],
    failures: &mut usize,
) -> (VerdictMap, Duration, u64) {
    let opts = ServerOptions {
        workers,
        state_dir: state_dir.map(Into::into),
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", opts).expect("bind a free port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    let start = Instant::now();
    let mut verdicts = VerdictMap::new();
    std::thread::scope(|s| {
        let mut slices = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let addr = &addr;
            let mine: Vec<&String> = names.iter().skip(c).step_by(CLIENTS).collect();
            slices.push(s.spawn(move || -> Result<Vec<(String, String)>, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut out = Vec::with_capacity(mine.len());
                for name in mine {
                    let reply = client
                        .check_named(name)
                        .map_err(|e| format!("{name}: {e}"))?;
                    out.push((name.clone(), reply.outcome_json));
                }
                Ok(out)
            }));
        }
        for slice in slices {
            match slice.join().expect("client thread") {
                Ok(pairs) => verdicts.extend(pairs),
                Err(e) => {
                    *failures += 1;
                    eprintln!("FAIL workers={workers}: {e}");
                }
            }
        }
    });
    let wall = start.elapsed();

    let mut client = Client::connect(&addr).expect("connect for stats");
    let replays = match client.fleet_stats() {
        Ok(fleet) => fleet.aggregate.stats.outcome_replays,
        Err(e) => {
            *failures += 1;
            eprintln!("FAIL workers={workers}: fleet stats: {e}");
            0
        }
    };
    if let Err(e) = client.shutdown() {
        *failures += 1;
        eprintln!("FAIL workers={workers}: shutdown: {e}");
    }
    let _ = handle.join();
    (verdicts, wall, replays)
}

/// Byte-diffs two verdict maps; returns the mismatch count.
fn diff(a: &VerdictMap, b: &VerdictMap, a_name: &str, b_name: &str) -> usize {
    let mut mismatches = 0;
    for (name, bytes) in a {
        match b.get(name) {
            Some(other) if other == bytes => {}
            Some(other) => {
                mismatches += 1;
                eprintln!(
                    "FAIL {name}: {a_name} and {b_name} verdicts differ ({} vs {} bytes)",
                    bytes.len(),
                    other.len()
                );
            }
            None => {
                mismatches += 1;
                eprintln!("FAIL {name}: missing from the {b_name} pass");
            }
        }
    }
    mismatches
}
