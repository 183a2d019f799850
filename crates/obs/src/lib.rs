//! Dependency-free, offline-safe observability for the Leapfrog
//! engine: a metrics registry, structured span tracing, and a
//! slow-query log.
//!
//! This crate sits below every other Leapfrog crate (it depends only
//! on `std`), so the SMT solver, the incremental sessions, the engine
//! and the daemon can all write to one process-global registry and
//! trace collector without handle plumbing. Design constraints, in
//! order:
//!
//! 1. **Observability never changes results.** Nothing in here feeds
//!    back into solver decisions; certificates and witnesses are
//!    byte-identical with tracing on or off, at any thread count
//!    (asserted in `tests/pipeline.rs`).
//! 2. **Near-zero cost when off.** Counters are always on but are one
//!    relaxed branch + sharded `fetch_add`; spans are gated behind one
//!    relaxed load (`LEAPFROG_TRACE=0` is the default). The
//!    `obs_overhead` bench bin holds the registry to ≤5% on Table 2.
//! 3. **Deterministic reads.** Snapshots merge per-thread shards in a
//!    fixed order and key metrics by sorted name, so two snapshots of
//!    the same state render identical bytes.
//!
//! Env knobs: `LEAPFROG_TRACE=1` enables span recording;
//! `LEAPFROG_SLOW_QUERY_MS=n` arms the slow-query log (implies
//! tracing). Both are read at engine construction.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    global, metrics_enabled, parse_prometheus, set_metrics_enabled, Counter, Gauge, Histogram,
    HistogramSnapshot, LazyCounter, LazyGauge, LazyHistogram, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{
    collector, render_span_tree, set_enabled as set_trace_enabled, Phase, PhaseBreakdown,
    PhaseSnapshot, PhaseStat, SlowQuery, SpanEvent, SpanGuard, TraceCollector, PHASES,
};
