//! `obs_overhead` — guards the flight recorder's cost on the hot path.
//!
//! Runs the small-scale standard table through a fresh persistent engine
//! twice per trial: once with the metrics registry enabled (the shipping
//! default — tracing stays off, exactly the daemon's steady state) and
//! once with the registry kill-switched off, which turns every counter
//! write into a single relaxed load-and-branch. Trials interleave the
//! two configurations and the minimum wall time per configuration is
//! compared, so scheduler noise inflates both sides equally. The binary
//! exits 1 when the enabled/disabled ratio exceeds `TOLERANCE`.
//!
//! ```text
//! cargo run --release -p leapfrog-bench --bin obs_overhead
//! ```

use std::time::{Duration, Instant};

use leapfrog::EngineConfig;
use leapfrog_bench::rows::run_row_in;
use leapfrog_suite::{standard_benchmarks, Scale};

/// Maximum allowed metrics-on/off runtime ratio: the registry may cost at
/// most 5%.
const TOLERANCE: f64 = 1.05;

/// Interleaved trials per configuration.
const TRIALS: usize = 5;

/// One pass of the whole small-scale table through a fresh engine.
fn run_table_once() -> Duration {
    let benches = standard_benchmarks(Scale::Small);
    let mut engine = EngineConfig::from_env().build();
    let start = Instant::now();
    for b in &benches {
        let row = run_row_in(&mut engine, b);
        assert!(row.verified, "row {} must verify either way", row.name);
    }
    start.elapsed()
}

fn main() {
    // The guard measures the registry alone: tracing off on both sides
    // (the shipping default), metrics toggled by the kill switch.
    leapfrog_obs::set_trace_enabled(false);

    // One warm-up pass absorbs lazy statics, page faults and the first
    // allocator growth, which would otherwise all land on the first
    // measured configuration.
    leapfrog_obs::set_metrics_enabled(true);
    let _ = run_table_once();

    let mut with_metrics = Duration::MAX;
    let mut without_metrics = Duration::MAX;
    for trial in 0..TRIALS {
        leapfrog_obs::set_metrics_enabled(false);
        let off = run_table_once();
        leapfrog_obs::set_metrics_enabled(true);
        let on = run_table_once();
        without_metrics = without_metrics.min(off);
        with_metrics = with_metrics.min(on);
        println!("trial {trial}: metrics on {on:.2?}, off {off:.2?}");
    }
    leapfrog_obs::set_metrics_enabled(true);

    let ratio = with_metrics.as_secs_f64() / without_metrics.as_secs_f64().max(1e-9);
    println!(
        "obs_overhead: min {with_metrics:.2?} with the registry, {without_metrics:.2?} \
         without — ratio {ratio:.4} (tolerance {TOLERANCE:.2})"
    );
    if ratio > TOLERANCE {
        eprintln!("obs_overhead: registry overhead {ratio:.4} exceeds {TOLERANCE:.2}");
        std::process::exit(1);
    }
    println!("obs_overhead: within tolerance");
}
