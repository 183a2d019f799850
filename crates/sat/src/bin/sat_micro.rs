//! Solver-isolation microbenchmark: run the CDCL core on captured CNFs
//! without driving the engine.
//!
//! Accepts standard DIMACS files and blast-cache exports (the
//! `blast_cache.txt` a persistent engine writes into its state dir), so a
//! captured engine workload can be replayed straight through the solver:
//!
//! ```text
//! sat_micro [--lbd=0|1] [--repeat N] <file> [<file>…]
//! ```
//!
//! `--lbd=0` turns LBD-tiered clause management off for A/B runs on
//! identical input; `--repeat` re-solves each instance on a fresh solver N
//! times and reports the minimum wall time (scheduler-noise floor).

use std::time::Instant;

use leapfrog_sat::dimacs::{parse_auto, Cnf};
use leapfrog_sat::{SolveResult, Solver, SolverConfig};

fn usage() -> ! {
    eprintln!("usage: sat_micro [--lbd=0|1] [--repeat N] <file.cnf|blast_cache.txt>...");
    std::process::exit(2);
}

fn main() {
    let mut cfg = SolverConfig::default();
    let mut repeat = 1usize;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix("--lbd=") {
            cfg.lbd = v != "0";
        } else if arg == "--repeat" {
            repeat = args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
        } else if let Some(v) = arg.strip_prefix("--repeat=") {
            repeat = v.parse().unwrap_or_else(|_| usage());
        } else if arg == "--help" || arg.starts_with('-') {
            usage();
        } else {
            files.push(arg);
        }
    }
    if files.is_empty() || repeat == 0 {
        usage();
    }

    let mut instances: Vec<Cnf> = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sat_micro: {path}: {e}");
                std::process::exit(1);
            }
        };
        let stem = path.rsplit('/').next().unwrap_or(path);
        match parse_auto(&text, stem) {
            Ok(mut cnfs) => instances.append(&mut cnfs),
            Err(e) => {
                eprintln!("sat_micro: {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "sat_micro: {} instance(s), lbd={}, repeat={}",
        instances.len(),
        cfg.lbd,
        repeat
    );
    let mut total_best = 0.0f64;
    for cnf in &instances {
        let mut best: Option<(f64, SolveResult, u64, u64)> = None;
        for _ in 0..repeat {
            let mut s = Solver::with_config(cfg);
            let t0 = Instant::now();
            let root_ok = cnf.load_into(&mut s);
            let verdict = if root_ok {
                s.solve(&[])
            } else {
                SolveResult::Unsat
            };
            let dt = t0.elapsed().as_secs_f64();
            let st = s.stats();
            if best.is_none() || dt < best.unwrap().0 {
                best = Some((dt, verdict, st.conflicts, st.propagations));
            }
        }
        let (dt, verdict, conflicts, propagations) = best.unwrap();
        total_best += dt;
        println!(
            "{:<40} {:>5} {:>10.3}ms  vars={} clauses={} conflicts={} propagations={}",
            cnf.name,
            match verdict {
                SolveResult::Sat => "SAT",
                SolveResult::Unsat => "UNSAT",
            },
            dt * 1e3,
            cnf.num_vars,
            cnf.clauses.len(),
            conflicts,
            propagations,
        );
    }
    println!("total (min-of-{repeat}): {:.3}ms", total_best * 1e3);
}
