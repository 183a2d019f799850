//! `fleet_bench` — the fleet's concurrent-throughput and merge driver.
//!
//! ```text
//! fleet_bench [--clients K] [--state-dir DIR] [--gate]
//! ```
//!
//! Three legs, all against in-process servers on free ports:
//!
//! 1. **1-worker pass** — the full named suite (standard rows plus the
//!    mutant refutations) posed by `K` concurrent wire clients against a
//!    `--workers 1` fleet, wall-clock recorded.
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
//! Each run appends one snapshot line (commit-less; `kind: "fleet"`) to
//! `LEAPFROG_BENCH_HISTORY` (default `BENCH_history.jsonl`) with the
//! per-worker-count wall-clocks and the speedup, so the daemon's
//! inter-query parallel axis trends alongside `table2`'s
//! `batch_parallel_speedup`. The line
//! deliberately omits `batch_mode`, so `table2`'s rolling-baseline gate
//! never mistakes a fleet snapshot for one of its own.
//!
//! `--gate` (CI) fails the run on any byte mismatch, on a merge pass
//! that replays nothing, and — on hosts with ≥ 4 cores — on a 4-worker
//! wall-clock that does not beat the 1-worker one.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use leapfrog::json::{self, Value};
use leapfrog_serve::{Client, Server, ServerOptions};
use leapfrog_suite::{mutants, standard_benchmarks, Scale};

/// One pass's outcome bytes, keyed by row name.
type VerdictMap = BTreeMap<String, String>;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut clients = 8usize;
    let mut state_dir: Option<std::path::PathBuf> = None;
    let mut gate = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|s| s.trim().parse().ok())
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| {
                        eprintln!("fleet_bench: --clients needs a positive number");
                        std::process::exit(2);
                    })
            }
            "--state-dir" => state_dir = Some(args.next().unwrap_or_default().into()),
            "--gate" => gate = true,
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
        "fleet_bench: {} rows, {clients} concurrent clients, {cores} core(s), scale {scale:?}",
        names.len()
    );

    let mut failures = 0usize;

    // Leg 1+2: cold fleets at 1 and 4 workers, same concurrent load.
    let (single, wall_1, _) = run_pass(1, None, &names, clients, &mut failures);
    let (sharded, wall_4, _) = run_pass(4, None, &names, clients, &mut failures);
    failures += diff(&single, &sharded, "workers=1", "workers=4");
    let speedup = wall_1.as_secs_f64() / wall_4.as_secs_f64().max(1e-9);
    println!(
        "fleet wall-clock: {wall_1:.2?} at 1 worker, {wall_4:.2?} at 4 workers ({speedup:.2}x)"
    );

    // Leg 3: save at 4 workers, reload at 2 (the merge path).
    let (save_pass, _, _) = run_pass(4, Some(&state_dir), &names, clients, &mut failures);
    failures += diff(&single, &save_pass, "workers=1", "workers=4+save");
    let (merged, _, replays) = run_pass(2, Some(&state_dir), &names, clients, &mut failures);
    failures += diff(&single, &merged, "workers=1", "workers=2+merge");
    if replays == 0 {
        failures += 1;
        eprintln!("FAIL merge: the 2-worker fleet replayed no proof from the 4-worker save");
    } else {
        println!("merge leg: 2-worker fleet replayed {replays} proofs from the 4-worker save");
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    append_history(scale, cores, clients, wall_1, wall_4, speedup, replays);

    if gate && cores >= 4 && speedup <= 1.0 {
        failures += 1;
        eprintln!(
            "FAIL gate: 4-worker wall-clock did not beat 1 worker ({speedup:.2}x on {cores} cores)"
        );
    }
    if failures > 0 {
        eprintln!("fleet_bench: {failures} failure(s)");
        if gate {
            std::process::exit(1);
        }
        return;
    }
    println!("fleet_bench: all verdicts byte-identical across worker counts and the merge restart");
}

/// Starts an in-process fleet at `workers`, drives the whole suite from
/// `clients` concurrent wire clients, shuts the fleet down (saving state
/// when `state_dir` is set), and returns the verdict bytes, the
/// wall-clock of the concurrent check phase, and the fleet's aggregate
/// outcome replays.
fn run_pass(
    workers: usize,
    state_dir: Option<&std::path::Path>,
    names: &[String],
    clients: usize,
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
        let mut slices = Vec::with_capacity(clients);
        for c in 0..clients {
            let addr = &addr;
            let mine: Vec<&String> = names.iter().skip(c).step_by(clients).collect();
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

/// Appends the fleet snapshot to the shared perf trajectory. No
/// `batch_mode` key: `table2`'s baseline loader filters on it, so fleet
/// lines never enter its gate window.
fn append_history(
    scale: Scale,
    cores: usize,
    clients: usize,
    wall_1: Duration,
    wall_4: Duration,
    speedup: f64,
    merge_replays: u64,
) {
    use std::io::Write;
    let path = std::env::var("LEAPFROG_BENCH_HISTORY")
        .unwrap_or_else(|_| "BENCH_history.jsonl".to_string());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let v = json::obj(vec![
        ("kind", Value::Str("fleet".to_string())),
        ("unix_time", json::num(unix_time as usize)),
        ("scale", Value::Str(format!("{scale:?}"))),
        ("cores", json::num(cores)),
        ("clients", json::num(clients)),
        ("workers1_secs", Value::Num(wall_1.as_secs_f64())),
        ("workers4_secs", Value::Num(wall_4.as_secs_f64())),
        ("fleet_speedup", Value::Num(speedup)),
        ("merge_outcome_replays", json::num(merge_replays as usize)),
    ]);
    let line = v
        .render()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join(" ");
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    match result {
        Ok(()) => println!("Appended fleet snapshot to {path}"),
        Err(e) => println!("Could not append {path}: {e}"),
    }
}
