//! What one run measures: latency samples per operation class, pass and
//! set-up times, failures, per-pass counts, and the traced run's layer
//! table; plus the run's guards and the final report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The operation classes every workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// An equivalence established for a pair seen for the first time.
    Prove,
    /// A refutation (or, on `trust`, a rejected certificate).
    Refute,
    /// An answer for a pair (or certificate) seen before.
    Recheck,
}

/// A class with a p90 must pool at least this many samples in a run,
/// so that ten lie beyond it.
pub const MIN_P90_SAMPLES: usize = 100;

/// Everything one run records.
#[derive(Debug, Default)]
pub struct Run {
    /// Latency samples in milliseconds, per class.
    pub samples: BTreeMap<Class, Vec<f64>>,
    /// Wall time of each completed pass over the seeded input set, in s.
    pub passes: Vec<f64>,
    /// Wall time of each set-up, in s.
    pub setups: Vec<f64>,
    /// Peak resident set size of the process doing the work, in MB.
    pub peak_rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (any of the reasons in [`Run::fail`]).
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Work counts of the first pass; must repeat exactly for a seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Layer metrics of a traced run (already per pass where timed).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Records one attempted operation's latency.
    pub fn ok(&mut self, class: Class, ms: f64) {
        self.attempted += 1;
        self.samples.entry(class).or_default().push(ms);
    }

    /// Records one correct operation that gives no latency sample.
    pub fn ok_untimed(&mut self) {
        self.attempted += 1;
    }

    /// Records one attempted operation that failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds to a first-pass count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Samples recorded for a class.
    pub fn n(&self, class: Class) -> usize {
        self.samples.get(&class).map_or(0, Vec::len)
    }

    /// Correct operations over operations attempted.
    pub fn correct_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (`statistics.quantiles(..., method="inclusive")`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The arithmetic mean of `values` (0 when empty).
///
/// Latency classes mix pairs whose costs differ tenfold, so their pooled
/// median often sits in a gap between two pairs' costs and jumps between
/// them from run to run; the mean weighs every sample and does not.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value pools.
    pub samples: usize,
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let class = |c: Class| run.samples.get(&c).map_or(&[][..], Vec::as_slice);
    let lat = |name, c, value: fn(&[f64]) -> f64| Metric {
        name,
        unit: "ms",
        value: value(class(c)),
        samples: class(c).len(),
    };
    vec![
        lat("prove_mean_ms", Class::Prove, mean),
        lat("prove_p90_ms", Class::Prove, |v| quantile(v, 0.9)),
        lat("refute_mean_ms", Class::Refute, mean),
        lat("recheck_mean_ms", Class::Recheck, mean),
        lat("recheck_p90_ms", Class::Recheck, |v| quantile(v, 0.9)),
        Metric {
            name: "pass_s",
            unit: "s",
            value: quantile(&run.passes, 0.5),
            samples: run.passes.len(),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: quantile(&run.setups, 0.5),
            samples: run.setups.len(),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: run.peak_rss_mb,
            samples: 1,
        },
        Metric {
            name: "correct_frac",
            unit: "fraction",
            value: run.correct_frac(),
            samples: run.attempted as usize,
        },
    ]
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.engine_ms", "ms"),
    ("core.intern_ms", "ms"),
    ("logic.reach_ms", "ms"),
    ("smt.entailment_ms", "ms"),
    ("smt.cegar_ms", "ms"),
    ("core.certificate_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("cex.witness_ms", "ms"),
    ("cex.replay_ms", "ms"),
    ("bench.other_ms", "ms"),
    ("core.iterations", "count"),
    ("core.entailment_checks", "count"),
    ("logic.wp_generated", "count"),
    ("logic.scope_pairs", "count"),
    ("logic.relation_size", "count"),
    ("core.memo_hit_ratio", "fraction"),
    ("logic.index_hit_ratio", "fraction"),
    ("logic.session_rebuilds", "count"),
    ("smt.queries", "count"),
    ("smt.cegar_rounds", "count"),
    ("smt.blocks_validated_ratio", "fraction"),
    ("smt.blast_cache_hit_rate", "fraction"),
    ("smt.inst_ledger_hits", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.restarts", "count"),
    ("cex.witness_bits", "count"),
    ("cex.bits_removed", "count"),
    ("cex.unconfirmed", "count"),
    ("p4a.sum_ms", "ms"),
    ("certcheck.check_ms", "ms"),
    ("certcheck.ms_per_conjunct", "ms"),
    ("certcheck.conjuncts", "count"),
    ("certcheck.cert_kb", "KiB"),
    ("serve.engine_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("p4a.parse_ms", "ms"),
    ("serve.memo_hit_ratio", "fraction"),
    ("serve.overloaded", "count"),
    ("serve.errors", "count"),
    ("serve.state_load_s", "s"),
    ("serve.first_reply_ms", "ms"),
    ("serve.rss_mb_per_new_pair", "MB"),
    ("obs.trace_overhead_frac", "fraction"),
];

/// Renders the result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(run: &Run, metrics: &[(&str, &str, f64)]) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed
    )
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_kb(pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set size (`VmRSS`) of a process, in MB.
pub fn rss_mb(pid: &str) -> Option<f64> {
    status_kb(pid, "VmRSS:").map(|kb| kb as f64 / 1024.0)
}

fn status_kb(pid: &str, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn correct_frac_counts_every_attempt() {
        let mut run = Run::default();
        run.ok(Class::Prove, 1.0);
        run.ok(Class::Recheck, 1.0);
        run.fail("wrong verdict".into());
        run.fail("timeout".into());
        assert_eq!(run.attempted, 4);
        assert_eq!(run.correct_frac(), 0.5);
        assert!(result_json(&run, &[])
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 2"));
    }
}
