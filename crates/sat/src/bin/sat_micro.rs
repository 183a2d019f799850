//! Solver-isolation microbenchmark: run the CDCL core on DIMACS CNF files
//! without driving the engine.
//!
//! ```text
//! sat_micro [--repeat N] <file.cnf> [<file.cnf>…]
//! ```
//!
//! `--repeat` re-solves each instance on a fresh solver N times and
//! reports the minimum wall time (scheduler-noise floor).

use std::time::Instant;

use leapfrog_sat::dimacs::{parse_dimacs, Cnf};
use leapfrog_sat::{SolveResult, Solver};

fn usage() -> ! {
    eprintln!("usage: sat_micro [--repeat N] <file.cnf>...");
    std::process::exit(2);
}

fn main() {
    let mut repeat = 1usize;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--repeat" {
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
        match parse_dimacs(&text, stem) {
            Ok(cnf) => instances.push(cnf),
            Err(e) => {
                eprintln!("sat_micro: {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "sat_micro: {} instance(s), repeat={}",
        instances.len(),
        repeat
    );
    let mut total_best = 0.0f64;
    for cnf in &instances {
        let mut best: Option<(f64, SolveResult, u64, u64)> = None;
        for _ in 0..repeat {
            let mut s = Solver::new();
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
