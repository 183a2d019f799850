//! The metrics registry: lock-free counters, gauges and fixed-bucket
//! latency histograms, merged deterministically at read time.
//!
//! Writers never take a lock on the hot path. A [`Counter`] is a small
//! fixed array of cache-line-padded shards; each thread picks a shard by
//! a thread-local index and does one relaxed `fetch_add`. Reads sum the
//! shards in shard order, so a snapshot is a deterministic function of
//! the writes that happened before it regardless of which threads did
//! them. A [`Gauge`] is a single atomic (gauges are set from one place
//! at a time). A [`Histogram`] has fixed nanosecond bucket bounds and a
//! sharded count/sum per bucket.
//!
//! The registry renders two ways: Prometheus-style text exposition
//! ([`MetricsSnapshot::render_prometheus`]) and a JSON object
//! ([`MetricsSnapshot::render_json`]). The exposition format is also
//! *parsed* by [`parse_prometheus`] — the round-trip is property-tested
//! and the serve gauntlet uses the parser to validate what the daemon
//! scrapes out.
//!
//! A process-wide kill switch ([`set_metrics_enabled`]) exists so the
//! overhead-guard bench can measure the instrumented binary with every
//! increment compiled in but dynamically ignored.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of per-thread shards in counters and histograms. A power of
/// two so the thread index wraps cheaply; 16 covers the engine's worker
/// pools (worker counts are capped well below this in practice, and
/// collisions only cost a shared cache line, never correctness).
const SHARDS: usize = 16;

/// Global dynamic kill switch consulted by every write. `true` at
/// startup; the overhead bench flips it to price the instrumentation.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables all metric writes process-wide.
pub fn set_metrics_enabled(enabled: bool) {
    METRICS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether metric writes are currently recorded.
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// This thread's shard index, assigned round-robin at first use.
    static SHARD: usize = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        (NEXT.fetch_add(1, Ordering::Relaxed) as usize) % SHARDS
    };
}

fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

/// One cache line worth of counter so shards don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, sharded per thread.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n == 0 || !metrics_enabled() {
            return;
        }
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total: shard values summed in shard order.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A settable instantaneous value (queue depth, open connections).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        if metrics_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        if metrics_enabled() {
            self.value.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Subtracts one.
    pub fn dec(&self) {
        if metrics_enabled() {
            self.value.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed latency bucket upper bounds, in nanoseconds. The final
/// implicit bucket is `+Inf`. Chosen to straddle the engine's range:
/// sub-millisecond outcome replays up to multi-second cold Table-2 rows.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    10_000,         // 10µs
    100_000,        // 100µs
    1_000_000,      // 1ms
    10_000_000,     // 10ms
    100_000_000,    // 100ms
    1_000_000_000,  // 1s
    10_000_000_000, // 10s
    60_000_000_000, // 60s
];

/// Bucket count including the `+Inf` overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

/// A fixed-bucket latency histogram. Each bucket (and the sum) is
/// sharded like [`Counter`]; `record` does two relaxed adds.
pub struct Histogram {
    buckets: [Counter; BUCKETS],
    sum_ns: Counter,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: Default::default(),
            sum_ns: Counter::new(),
        }
    }
}

impl Histogram {
    /// A histogram with no observations.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx].inc();
        // A zero-duration observation must still move the sum's
        // "metrics off" fast path out of the way: add() ignores 0, which
        // is exactly right for a sum.
        self.sum_ns.add(ns);
    }

    /// Records a [`std::time::Duration`].
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Snapshot of per-bucket counts (cumulative, Prometheus-style),
    /// total count and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let raw: Vec<u64> = self.buckets.iter().map(|b| b.get()).collect();
        let mut cumulative = Vec::with_capacity(BUCKETS);
        let mut acc = 0u64;
        for v in &raw {
            acc += v;
            cumulative.push(acc);
        }
        HistogramSnapshot {
            cumulative,
            count: acc,
            sum_ns: self.sum_ns.get(),
        }
    }
}

/// Point-in-time view of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Cumulative counts per bucket; the last entry is the total count
    /// (the `+Inf` bucket).
    pub cumulative: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_ns: u64,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Registration takes a lock; reads and
/// writes of registered metrics never do (callers hold `Arc`s or use
/// the `Lazy*` handles which resolve once).
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// A registry with no metrics.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Gets or creates the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Gets or creates the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// A deterministic point-in-time snapshot of every registered
    /// metric, keyed by name in sorted order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// The process-global registry. One daemon process hosts one engine, so
/// a single global keeps instrumentation reachable from every layer
/// (SAT sessions deep in worker threads included) without plumbing a
/// handle through each signature.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A counter handle resolved against the global registry on first use;
/// subsequent increments are one `OnceLock` load plus the sharded add.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// A handle to the global counter `name`, resolved on first use.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn resolve(&self) -> &Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }

    /// [`Counter::inc`] on the global counter.
    pub fn inc(&self) {
        self.resolve().inc();
    }

    /// [`Counter::add`] on the global counter.
    pub fn add(&self, n: u64) {
        self.resolve().add(n);
    }

    /// [`Counter::get`] on the global counter.
    pub fn get(&self) -> u64 {
        self.resolve().get()
    }
}

/// A gauge handle resolved against the global registry on first use.
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    /// A handle to the global gauge `name`, resolved on first use.
    pub const fn new(name: &'static str) -> LazyGauge {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    fn resolve(&self) -> &Gauge {
        self.cell.get_or_init(|| global().gauge(self.name))
    }

    /// [`Gauge::set`] on the global gauge.
    pub fn set(&self, v: i64) {
        self.resolve().set(v);
    }

    /// [`Gauge::inc`] on the global gauge.
    pub fn inc(&self) {
        self.resolve().inc();
    }

    /// [`Gauge::dec`] on the global gauge.
    pub fn dec(&self) {
        self.resolve().dec();
    }

    /// [`Gauge::get`] on the global gauge.
    pub fn get(&self) -> i64 {
        self.resolve().get()
    }
}

/// A histogram handle resolved against the global registry on first use.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// A handle to the global histogram `name`, resolved on first use.
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn resolve(&self) -> &Histogram {
        self.cell.get_or_init(|| global().histogram(self.name))
    }

    /// [`Histogram::record_ns`] on the global histogram.
    pub fn record_ns(&self, ns: u64) {
        self.resolve().record_ns(ns);
    }

    /// [`Histogram::record`] on the global histogram.
    pub fn record(&self, d: std::time::Duration) {
        self.resolve().record(d);
    }

    /// [`Histogram::snapshot`] of the global histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.resolve().snapshot()
    }
}

/// A deterministic point-in-time view of a registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram views by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Formats nanoseconds as an exact decimal number of seconds
/// (`1234567890ns` → `"1.234567890"`), so exposition text round-trips
/// without floating-point loss.
fn ns_to_seconds(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

/// Parses the exact-decimal seconds format back to nanoseconds.
fn seconds_to_ns(s: &str) -> Option<u64> {
    let (whole, frac) = match s.split_once('.') {
        Some((w, f)) => (w, f),
        None => (s, ""),
    };
    let whole: u64 = whole.parse().ok()?;
    let mut frac_ns = 0u64;
    let mut scale = 100_000_000u64;
    for c in frac.chars() {
        let d = c.to_digit(10)? as u64;
        frac_ns += d * scale;
        if scale == 1 {
            break;
        }
        scale /= 10;
    }
    whole.checked_mul(1_000_000_000)?.checked_add(frac_ns)
}

impl MetricsSnapshot {
    /// Prometheus-style text exposition. Histograms emit
    /// `_bucket{le="…"}` series with exact-decimal second bounds,
    /// plus `_sum` (exact-decimal seconds) and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (i, cum) in h.cumulative.iter().enumerate() {
                let le = if i < BUCKET_BOUNDS_NS.len() {
                    ns_to_seconds(BUCKET_BOUNDS_NS[i])
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", ns_to_seconds(h.sum_ns)));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }

    /// The snapshot as a canonical JSON object: counters and gauges as
    /// numbers, histograms as `{"buckets": [...], "count": n, "sum_ns": n}`.
    /// Hand-rolled (this crate is dependency-free); keys are emitted in
    /// sorted order so the output is canonical.
    pub fn render_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let mut parts = Vec::new();
        let mut counters = Vec::new();
        for (name, v) in &self.counters {
            counters.push(format!("{}: {}", quote(name), v));
        }
        parts.push(format!("\"counters\": {{{}}}", counters.join(", ")));
        let mut gauges = Vec::new();
        for (name, v) in &self.gauges {
            gauges.push(format!("{}: {}", quote(name), v));
        }
        parts.push(format!("\"gauges\": {{{}}}", gauges.join(", ")));
        let mut hists = Vec::new();
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h.cumulative.iter().map(|c| c.to_string()).collect();
            hists.push(format!(
                "{}: {{\"buckets\": [{}], \"count\": {}, \"sum_ns\": {}}}",
                quote(name),
                buckets.join(", "),
                h.count,
                h.sum_ns
            ));
        }
        parts.push(format!("\"histograms\": {{{}}}", hists.join(", ")));
        format!("{{{}}}", parts.join(", "))
    }
}

/// Parses Prometheus-style text exposition (the subset rendered by
/// [`MetricsSnapshot::render_prometheus`]) back into a snapshot.
/// Unknown lines are an error — the serve gauntlet uses this to detect
/// a malformed scrape.
pub fn parse_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
    // A histogram under assembly: (cumulative buckets, sum_ns, count).
    type PartialHistogram = (Vec<u64>, Option<u64>, Option<u64>);
    let mut snap = MetricsSnapshot::default();
    let mut current_type: Option<(String, String)> = None;
    let mut hist_parts: BTreeMap<String, PartialHistogram> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| err("missing metric name"))?;
            let ty = it.next().ok_or_else(|| err("missing metric type"))?;
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                return Err(err("unknown metric type"));
            }
            current_type = Some((name.to_string(), ty.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal exposition
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("expected `<series> <value>`"))?;
        let (name, ty) = current_type
            .as_ref()
            .ok_or_else(|| err("sample before any # TYPE header"))?;
        match ty.as_str() {
            "counter" => {
                if series != name {
                    return Err(err("counter sample name mismatch"));
                }
                let v: u64 = value.parse().map_err(|_| err("bad counter value"))?;
                snap.counters.insert(name.clone(), v);
            }
            "gauge" => {
                if series != name {
                    return Err(err("gauge sample name mismatch"));
                }
                let v: i64 = value.parse().map_err(|_| err("bad gauge value"))?;
                snap.gauges.insert(name.clone(), v);
            }
            "histogram" => {
                let entry = hist_parts.entry(name.clone()).or_default();
                if let Some(rest) = series.strip_prefix(name.as_str()) {
                    if let Some(le) = rest
                        .strip_prefix("_bucket{le=\"")
                        .and_then(|s| s.strip_suffix("\"}"))
                    {
                        let expected_idx = entry.0.len();
                        let expected_le = if expected_idx < BUCKET_BOUNDS_NS.len() {
                            ns_to_seconds(BUCKET_BOUNDS_NS[expected_idx])
                        } else if expected_idx == BUCKET_BOUNDS_NS.len() {
                            "+Inf".to_string()
                        } else {
                            return Err(err("too many histogram buckets"));
                        };
                        if le != expected_le {
                            return Err(err("unexpected bucket bound"));
                        }
                        let v: u64 = value.parse().map_err(|_| err("bad bucket value"))?;
                        if let Some(&prev) = entry.0.last() {
                            if v < prev {
                                return Err(err("bucket counts not cumulative"));
                            }
                        }
                        entry.0.push(v);
                    } else if rest == "_sum" {
                        entry.1 =
                            Some(seconds_to_ns(value).ok_or_else(|| err("bad histogram sum"))?);
                    } else if rest == "_count" {
                        entry.2 = Some(value.parse().map_err(|_| err("bad histogram count"))?);
                    } else {
                        return Err(err("unknown histogram series"));
                    }
                } else {
                    return Err(err("histogram sample name mismatch"));
                }
            }
            _ => unreachable!(),
        }
    }
    for (name, (cumulative, sum_ns, count)) in hist_parts {
        if cumulative.len() != BUCKETS {
            return Err(format!("histogram {name}: wrong bucket count"));
        }
        let count = count.ok_or_else(|| format!("histogram {name}: missing _count"))?;
        let sum_ns = sum_ns.ok_or_else(|| format!("histogram {name}: missing _sum"))?;
        if *cumulative.last().unwrap() != count {
            return Err(format!("histogram {name}: +Inf bucket != count"));
        }
        snap.histograms.insert(
            name,
            HistogramSnapshot {
                cumulative,
                count,
                sum_ns,
            },
        );
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that write metrics against the kill-switch
    /// test: `METRICS_ENABLED` is process-global, and the test harness
    /// runs tests in parallel threads.
    static WRITE_LOCK: Mutex<()> = Mutex::new(());

    fn write_guard() -> std::sync::MutexGuard<'static, ()> {
        WRITE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The fixed-seed LCG used across the repo's property loops.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn counter_sums_across_threads() {
        let _g = write_guard();
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_inc_dec() {
        let _g = write_guard();
        let g = Gauge::new();
        g.set(5);
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_bucketing_is_cumulative() {
        let _g = write_guard();
        let h = Histogram::new();
        h.record_ns(1); // first bucket
        h.record_ns(500_000); // 1ms bucket
        h.record_ns(u64::MAX); // +Inf
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(*s.cumulative.last().unwrap(), 3);
        assert_eq!(s.cumulative[0], 1);
        assert_eq!(s.cumulative[2], 2);
        // Cumulative counts never decrease.
        for w in s.cumulative.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn exact_seconds_round_trip() {
        for ns in [
            0u64,
            1,
            999_999_999,
            1_000_000_000,
            1_234_567_890,
            u64::MAX / 2,
        ] {
            assert_eq!(seconds_to_ns(&ns_to_seconds(ns)), Some(ns), "{ns}");
        }
    }

    /// Property loop: random snapshots survive the exposition
    /// render/parse round trip exactly.
    #[test]
    fn prometheus_round_trip_randomized() {
        let mut rng = Lcg(0x0b5e_55ed_5eed);
        for case in 0..200 {
            let mut snap = MetricsSnapshot::default();
            for i in 0..(rng.next() % 4) {
                snap.counters
                    .insert(format!("leapfrog_c{i}_total"), rng.next() % 1_000_000);
            }
            for i in 0..(rng.next() % 3) {
                snap.gauges
                    .insert(format!("leapfrog_g{i}"), (rng.next() % 2000) as i64 - 1000);
            }
            for i in 0..(rng.next() % 3) {
                let mut cumulative = Vec::with_capacity(BUCKETS);
                let mut acc = 0u64;
                for _ in 0..BUCKETS {
                    acc += rng.next() % 100;
                    cumulative.push(acc);
                }
                snap.histograms.insert(
                    format!("leapfrog_h{i}_seconds"),
                    HistogramSnapshot {
                        count: acc,
                        cumulative,
                        sum_ns: rng.next() % 1_000_000_000_000,
                    },
                );
            }
            let text = snap.render_prometheus();
            let parsed = parse_prometheus(&text)
                .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{text}"));
            assert_eq!(parsed, snap, "case {case}");
        }
    }

    /// Property loop: recording random durations into two histograms
    /// and merging the snapshots equals recording them all into one.
    #[test]
    fn histogram_record_merge_randomized() {
        let _g = write_guard();
        let mut rng = Lcg(0xfeed_beef);
        for case in 0..100 {
            let a = Histogram::new();
            let b = Histogram::new();
            let all = Histogram::new();
            for _ in 0..(rng.next() % 64) {
                let ns = rng.next() % 100_000_000_000;
                if rng.next().is_multiple_of(2) {
                    a.record_ns(ns);
                } else {
                    b.record_ns(ns);
                }
                all.record_ns(ns);
            }
            let (sa, sb, sall) = (a.snapshot(), b.snapshot(), all.snapshot());
            let merged_cum: Vec<u64> = sa
                .cumulative
                .iter()
                .zip(&sb.cumulative)
                .map(|(x, y)| x + y)
                .collect();
            assert_eq!(merged_cum, sall.cumulative, "case {case}");
            assert_eq!(sa.count + sb.count, sall.count, "case {case}");
            assert_eq!(sa.sum_ns + sb.sum_ns, sall.sum_ns, "case {case}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_prometheus("leapfrog_x 1\n").is_err()); // no TYPE header
        assert!(parse_prometheus("# TYPE x widget\nx 1\n").is_err());
        assert!(parse_prometheus("# TYPE x counter\nx notanumber\n").is_err());
    }

    #[test]
    fn kill_switch_drops_writes() {
        let _g = write_guard();
        let c = Counter::new();
        set_metrics_enabled(false);
        c.inc();
        set_metrics_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_typed() {
        let _g = write_guard();
        let r = MetricsRegistry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").inc();
        r.gauge("depth").set(3);
        r.histogram("lat_seconds").record_ns(5);
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["a_total", "b_total"]);
        assert_eq!(snap.counters["b_total"], 2);
        assert_eq!(snap.gauges["depth"], 3);
        assert_eq!(snap.histograms["lat_seconds"].count, 1);
        let text = snap.render_prometheus();
        assert_eq!(parse_prometheus(&text).unwrap(), snap);
        let json = snap.render_json();
        assert!(json.contains("\"a_total\": 1"), "{json}");
    }
}
