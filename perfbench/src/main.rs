//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload solve|trust|wire --seed N --seconds S --trace 0|1 [--daemon PATH] [--work DIR]
//! ```
//!
//! A run builds its inputs from the seed, then repeats whole passes over
//! them until `S` seconds have gone by (and every class with a p90 pools
//! at least 100 samples). With `--trace 0` it prints every end-to-end
//! metric; with `--trace 1` it alternates untraced and traced passes and
//! prints the per-layer metrics, the self-time table and the tracing
//! overhead. The last line of standard output is the JSON result. A run
//! whose guards fail exits with code 1 and prints no result.

mod inputs;
mod measure;
mod solve;
mod spans;
mod trust;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use measure::{Class, Metric, Run, MIN_P90_SAMPLES, PER_LAYER};
use spans::Recorder;

/// `solve` and `trust` repeat their set-up at least this often and for at
/// least [`SETUP_MIN`]; `setup_s` is the median (`wire` sets up once per
/// pass, restarting the daemon).
const SETUP_REPS: usize = 3;

/// Minimum total set-up time of `solve` and `trust`.
const SETUP_MIN: Duration = Duration::from_millis(500);

/// Runs `f` as the run's set-up until both set-up minimums are met,
/// recording each duration, and returns its last result.
fn repeat_setup<T>(run: &mut Run, mut f: impl FnMut(&mut Run) -> T) -> T {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let out = f(run);
        run.setups.push(t.elapsed().as_secs_f64());
        if run.setups.len() >= SETUP_REPS && start.elapsed() >= SETUP_MIN {
            return out;
        }
    }
}

/// Hard stop for the measuring loop, whatever the sample counts, so a
/// run always exits well within three minutes.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// Conditions that make a run's figures untrustworthy; any violation
/// fails the run.
#[derive(Default)]
pub struct Guard {
    violations: Vec<String>,
}

impl Guard {
    /// The in-process engine must run single-threaded.
    pub fn threads(&mut self, n: usize) {
        if n > 1 && self.violations.len() < 8 {
            self.violations.push(format!(
                "the engine ran on {n} threads; the benchmark pins it to 1"
            ));
        }
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(why());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        daemon: PathBuf::from("leapfrogd"),
        work: PathBuf::from("perfbench-work"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = num(&value)?,
            "--seconds" => out.seconds = num(&value)?,
            "--trace" => out.trace = num(&value)? != 0,
            "--daemon" => out.daemon = value.into(),
            "--work" => out.work = value.into(),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

/// A workload's prepared input stream.
enum Stream {
    Solve(Vec<inputs::Pair>),
    Trust(Vec<trust::Cert>),
    Wire(Box<wire::Wire>),
}

impl Stream {
    fn pass(
        &mut self,
        run: &mut Run,
        rec: &mut Recorder,
        counting: bool,
        guard: &mut Guard,
        q: &mut u64,
    ) -> f64 {
        match self {
            Stream::Solve(pairs) => solve::pass(pairs, run, rec, counting, guard, q),
            Stream::Trust(certs) => trust::pass(certs, run, rec, counting, q),
            Stream::Wire(w) => w.pass(run, rec, counting, q),
        }
    }

    /// Busy threads plus client connections the benchmark drives at once:
    /// the in-process engine thread, or the wire client's connections.
    fn concurrency(&self) -> usize {
        match self {
            Stream::Wire(_) => wire::CONNECTIONS,
            _ => 1,
        }
    }
}

fn p90_classes_full(run: &Run) -> bool {
    run.n(Class::Prove) >= MIN_P90_SAMPLES && run.n(Class::Recheck) >= MIN_P90_SAMPLES
}

fn main() {
    let args = match parse_args() {
        Ok(a) if ["solve", "trust", "wire"].contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "perfbench: --workload must be solve, trust or wire (got {:?})",
                a.workload
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut guard = Guard::default();
    let mut run = Run::default();
    let mut stream = match args.workload.as_str() {
        "solve" => Stream::Solve(repeat_setup(&mut run, |_| inputs::solve_inputs(args.seed))),
        "trust" => Stream::Trust(repeat_setup(&mut run, |run| {
            trust::certificates(args.seed, run, &mut guard)
        })),
        _ => match wire::Wire::setup(args.seed, &args.daemon, &args.work, &mut run) {
            Ok(w) => Stream::Wire(Box::new(w)),
            Err(e) => {
                eprintln!("perfbench: wire set-up failed: {e}");
                std::process::exit(1);
            }
        },
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let busy = stream.concurrency();
    guard.check(busy <= nproc, || {
        format!("{busy} busy threads and connections exceed the host's {nproc} CPUs")
    });

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        traced(&args, &mut stream, &mut run, &mut guard)
    } else {
        untraced(&args, &mut stream, &mut run, &mut guard)
    };
    if let Stream::Wire(w) = stream {
        if let Err(e) = w.finish() {
            guard
                .violations
                .push(format!("daemon did not stop cleanly: {e}"));
        }
    }
    for f in &run.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    if !guard.violations.is_empty() {
        for v in &guard.violations {
            eprintln!("perfbench: guard: {v}");
        }
        std::process::exit(1);
    }
    println!("{}", measure::result_json(&run, &metrics));
}

/// The measuring run: whole passes until the time is up and every class
/// with a p90 has its samples.
fn untraced(
    args: &Args,
    stream: &mut Stream,
    run: &mut Run,
    guard: &mut Guard,
) -> Vec<(&'static str, &'static str, f64)> {
    let budget = Duration::from_secs(args.seconds);
    let mut rec = Recorder::new(false, Instant::now(), 0);
    let mut q = 0;
    let start = Instant::now();
    loop {
        let counting = run.passes.is_empty();
        let s = stream.pass(run, &mut rec, counting, guard, &mut q);
        run.passes.push(s);
        let done = start.elapsed() >= budget && p90_classes_full(run);
        if done || start.elapsed() >= MAX_MEASURE {
            break;
        }
    }
    run.peak_rss_mb = match stream {
        Stream::Wire(w) => w.peak_rss_mb(),
        _ => measure::peak_rss_mb("self").unwrap_or(0.0),
    };
    for class in [Class::Prove, Class::Recheck] {
        guard.check(run.n(class) >= MIN_P90_SAMPLES, || {
            format!(
                "{class:?} pooled {} samples; a p90 needs {MIN_P90_SAMPLES}",
                run.n(class)
            )
        });
    }
    let e2e = measure::end_to_end(run);
    print_end_to_end(args, &e2e);
    e2e.iter().map(|m| (m.name, m.unit, m.value)).collect()
}

fn print_end_to_end(args: &Args, metrics: &[Metric]) {
    println!("workload {} seed {}", args.workload, args.seed);
    for m in metrics {
        println!(
            "  {:<16} {:>12.4} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The traced run: untraced and traced passes alternate over the same
/// stream until the time is up. Layer metrics come from the traced
/// passes; the first pass of each kind must count identical work.
fn traced(
    args: &Args,
    stream: &mut Stream,
    run: &mut Run,
    guard: &mut Guard,
) -> Vec<(&'static str, &'static str, f64)> {
    let budget = Duration::from_secs(args.seconds);
    let epoch = Instant::now();
    let mut plain = Recorder::new(false, epoch, 0);
    let mut rec = Recorder::new(true, epoch, 1);
    let mut traced_run = Run::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut q = 0;
    let start = Instant::now();
    loop {
        leapfrog_obs::trace::set_enabled(false);
        let s = stream.pass(run, &mut plain, untraced_s.is_empty(), guard, &mut q);
        untraced_s.push(s);
        rec.attach_engine();
        let s = stream.pass(
            &mut traced_run,
            &mut rec,
            traced_s.is_empty(),
            guard,
            &mut q,
        );
        traced_s.push(s);
        if start.elapsed() >= budget || start.elapsed() >= MAX_MEASURE {
            break;
        }
    }
    leapfrog_obs::trace::set_enabled(false);
    guard.check(run.counts == traced_run.counts, || {
        let differ: Vec<_> = run
            .counts
            .iter()
            .filter(|(k, v)| traced_run.counts.get(*k) != Some(v))
            .map(|(k, _)| *k)
            .collect();
        format!("work counts differ between the untraced and traced passes: {differ:?}")
    });
    run.attempted += traced_run.attempted;
    run.failed += traced_run.failed;
    run.failures.extend(traced_run.failures);
    run.layers.extend(traced_run.layers);

    let mut all_spans = std::mem::take(&mut rec.spans);
    if let Stream::Wire(w) = stream {
        all_spans.extend(w.take_spans());
    }
    let table = spans::layer_table(&all_spans);
    let root_ns = spans::root_total(&all_spans);
    let passes = traced_s.len() as f64;
    println!(
        "workload {} seed {}: self time per traced pass ({} traced, {} untraced passes)",
        args.workload,
        args.seed,
        traced_s.len(),
        untraced_s.len()
    );
    for (layer, ns) in &table {
        println!(
            "  {:<22} {:>12.3} ms  {:>5.1}%",
            layer,
            *ns as f64 / 1e6 / passes,
            100.0 * *ns as f64 / root_ns.max(1) as f64
        );
    }
    let sum_ns: u64 = table.values().sum();
    let nested = spans::nested(&all_spans);
    println!(
        "  self times sum to {:.3} ms; root spans total {:.3} ms; nested: {nested}",
        sum_ns as f64 / 1e6 / passes,
        root_ns as f64 / 1e6 / passes,
    );
    guard.check(sum_ns == root_ns && nested, || {
        "the span tree does not nest or its self times do not sum to the roots".to_string()
    });
    let overhead = measure::quantile(&traced_s, 0.5) / measure::quantile(&untraced_s, 0.5) - 1.0;
    println!("  obs.trace_overhead_frac {overhead:.4}");
    let spans_path = args
        .work
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.work)
        .and_then(|_| std::fs::write(&spans_path, spans::to_jsonl(&all_spans)));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }

    let per_pass: BTreeMap<&str, f64> = table
        .iter()
        .map(|(layer, ns)| (*layer, *ns as f64 / 1e6 / passes))
        .collect();
    let c = |k: &str| run.counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layer_ms = |k: &str| per_pass.get(k).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    for &(name, unit) in PER_LAYER {
        let value = match name {
            _ if run.layers.contains_key(name) => run.layers[name],
            "core.memo_hit_ratio" => ratio(
                c("core.memo_hits_recheck"),
                c("core.entailment_checks_recheck"),
            ),
            "logic.index_hit_ratio" => ratio(
                c("logic.premises_total") - c("logic.premises_matched"),
                c("logic.premises_total"),
            ),
            "smt.blocks_validated_ratio" => {
                ratio(c("smt.blocks_validated"), c("smt.blocks_considered"))
            }
            "smt.blast_cache_hit_rate" => ratio(
                c("smt.blast_cache_hits"),
                c("smt.blast_cache_hits") + c("smt.blast_cache_misses"),
            ),
            "certcheck.ms_per_conjunct" => {
                ratio(layer_ms("certcheck.check"), c("certcheck.conjuncts"))
            }
            "certcheck.cert_kb" => c("certcheck.cert_bytes") / 1024.0,
            "obs.trace_overhead_frac" => overhead,
            n if n.ends_with("_ms") => layer_ms(&n[..n.len() - 3]),
            n => c(n),
        };
        out.push((name, unit, value));
    }
    out
}
