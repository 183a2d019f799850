//! Structured span tracing for the query lifecycle, plus the
//! slow-query log.
//!
//! The taxonomy mirrors the paper's pipeline: a root `query` span
//! contains `intern_pair` (with `sum` nested), `reach`,
//! `generation[n]` for each worklist generation, `guard_entailment`
//! for each discharged guard (with `cegar_round` nested per refinement
//! round), and finally `certificate` or `witness`. Span events are
//! recorded into a bounded in-memory ring with nanosecond timestamps
//! relative to the collector's epoch; the ring can be dumped as
//! canonical JSON and reassembled into a tree via parent links.
//!
//! Alongside the ring, the collector keeps a lock-free per-phase
//! aggregate (count + total nanoseconds per phase). The engine diffs
//! two [`PhaseSnapshot`]s around a query to attach a
//! [`PhaseBreakdown`] to its `RunStats` — that is what table2 emits
//! per row.
//!
//! Tracing is disabled by default (`LEAPFROG_TRACE=0`): [`span`]
//! returns `None` after a single relaxed atomic load, so the hot path
//! pays one branch. Setting `LEAPFROG_TRACE=1` — or any
//! `LEAPFROG_SLOW_QUERY_MS` threshold, which needs spans to build its
//! trees — turns recording on. Tracing never feeds back into solver
//! decisions, so certificates and witnesses are byte-identical with it
//! on or off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The phases of the query lifecycle, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Whole-query root span.
    Query,
    /// Parsing/translating and interning a parser pair.
    InternPair,
    /// Building the sum (disjoint union) automaton.
    Sum,
    /// Computing the reachable relation scope.
    Reach,
    /// One worklist generation (the span's `index` is `n`).
    Generation,
    /// One guard entailment discharge (a leaps-and-bounds check).
    GuardEntailment,
    /// One CEGAR refinement round inside an entailment.
    CegarRound,
    /// Assembling the equivalence certificate.
    Certificate,
    /// Lifting a countermodel into a concrete witness.
    Witness,
}

/// Every phase, in canonical order. Index in this array is the phase's
/// id in the aggregate table.
pub const PHASES: [Phase; 9] = [
    Phase::Query,
    Phase::InternPair,
    Phase::Sum,
    Phase::Reach,
    Phase::Generation,
    Phase::GuardEntailment,
    Phase::CegarRound,
    Phase::Certificate,
    Phase::Witness,
];

impl Phase {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Query => "query",
            Phase::InternPair => "intern_pair",
            Phase::Sum => "sum",
            Phase::Reach => "reach",
            Phase::Generation => "generation",
            Phase::GuardEntailment => "guard_entailment",
            Phase::CegarRound => "cegar_round",
            Phase::Certificate => "certificate",
            Phase::Witness => "witness",
        }
    }

    /// Inverse of [`Phase::as_str`].
    pub fn parse(s: &str) -> Option<Phase> {
        PHASES.iter().copied().find(|p| p.as_str() == s)
    }

    fn index(self) -> usize {
        PHASES.iter().position(|&p| p == self).unwrap()
    }
}

/// One completed span in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique span id (monotone, process-wide).
    pub id: u64,
    /// Parent span id, `0` for roots.
    pub parent: u64,
    /// The pipeline phase the span times.
    pub phase: Phase,
    /// Phase-specific index (the `n` of `generation[n]`); `u64::MAX`
    /// when unindexed.
    pub index: u64,
    /// Start offset from the collector epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the collector epoch, nanoseconds.
    pub end_ns: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
}

impl SpanEvent {
    /// Display label: `generation[3]`, or just the phase name.
    pub fn label(&self) -> String {
        if self.index == u64::MAX {
            self.phase.as_str().to_string()
        } else {
            format!("{}[{}]", self.phase.as_str(), self.index)
        }
    }
}

/// Ring capacity in events. Big enough to hold the full span tree of
/// any single Table-2 query at default scale; old events are simply
/// overwritten, so memory stays bounded no matter how long the daemon
/// runs.
pub const RING_CAPACITY: usize = 65_536;

/// Maximum retained slow-query records; older ones are dropped.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// One slow-query record: the query's label, wall time, and its full
/// span tree rendered as canonical JSON.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Label supplied by the caller (row name, or a pair fingerprint).
    pub label: String,
    /// The query's wall time, milliseconds.
    pub wall_ms: u64,
    /// The slow-query threshold it exceeded, milliseconds.
    pub threshold_ms: u64,
    /// Canonical JSON of the span tree (see [`render_span_tree`]).
    pub tree_json: String,
}

struct Ring {
    events: Vec<SpanEvent>,
    /// Next write position; also the count of events ever pushed.
    head: u64,
}

/// Lock-free per-phase totals plus the bounded event ring and slow log.
pub struct TraceCollector {
    enabled: AtomicBool,
    /// Slow-query threshold in ms; `u64::MAX` disables the slow log.
    slow_threshold_ms: AtomicU64,
    epoch: Instant,
    next_id: AtomicU64,
    phase_count: [AtomicU64; PHASES.len()],
    phase_ns: [AtomicU64; PHASES.len()],
    ring: Mutex<Ring>,
    slow_log: Mutex<Vec<SlowQuery>>,
}

thread_local! {
    /// Per-thread stack of open span ids, for parent links.
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Small dense thread id for span events.
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl TraceCollector {
    fn new() -> TraceCollector {
        TraceCollector {
            enabled: AtomicBool::new(false),
            slow_threshold_ms: AtomicU64::new(u64::MAX),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            phase_count: Default::default(),
            phase_ns: Default::default(),
            ring: Mutex::new(Ring {
                events: Vec::new(),
                head: 0,
            }),
            slow_log: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The slow-query threshold, if one is armed.
    pub fn slow_threshold_ms(&self) -> Option<u64> {
        match self.slow_threshold_ms.load(Ordering::Relaxed) {
            u64::MAX => None,
            ms => Some(ms),
        }
    }

    /// Arms (or disarms, with `None`) the slow-query log. Arming also
    /// enables span recording — trees can't be built otherwise.
    pub fn set_slow_threshold_ms(&self, ms: Option<u64>) {
        self.slow_threshold_ms
            .store(ms.unwrap_or(u64::MAX), Ordering::Relaxed);
        if ms.is_some() {
            self.set_enabled(true);
        }
    }

    /// Applies `LEAPFROG_TRACE` / `LEAPFROG_SLOW_QUERY_MS` from the
    /// environment. Called once by engine construction; later callers
    /// only ever widen (a set threshold is kept).
    pub fn apply_env(&self) {
        if let Ok(v) = std::env::var("LEAPFROG_TRACE") {
            self.set_enabled(v != "0" && !v.is_empty());
        }
        if let Ok(v) = std::env::var("LEAPFROG_SLOW_QUERY_MS") {
            if let Ok(ms) = v.trim().parse::<u64>() {
                self.set_slow_threshold_ms(Some(ms));
            }
        }
    }

    /// Opens a span. Returns `None` (one relaxed load) when disabled.
    pub fn span(&'static self, phase: Phase) -> Option<SpanGuard> {
        self.span_indexed(phase, u64::MAX)
    }

    /// Opens a span carrying a phase-specific index (`generation[n]`).
    pub fn span_indexed(&'static self, phase: Phase, index: u64) -> Option<SpanGuard> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Some(SpanGuard {
            collector: self,
            id,
            parent,
            phase,
            index,
            start: Instant::now(),
        })
    }

    fn finish_span(&self, guard: &SpanGuard) {
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // The guard's span is the top of this thread's stack unless
            // spans were dropped out of order; search defensively.
            if let Some(pos) = s.iter().rposition(|&id| id == guard.id) {
                s.remove(pos);
            }
        });
        let end = Instant::now();
        let start_ns = guard.start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        let i = guard.phase.index();
        self.phase_count[i].fetch_add(1, Ordering::Relaxed);
        self.phase_ns[i].fetch_add(end_ns - start_ns, Ordering::Relaxed);
        let event = SpanEvent {
            id: guard.id,
            parent: guard.parent,
            phase: guard.phase,
            index: guard.index,
            start_ns,
            end_ns,
            thread: THREAD_ID.with(|t| *t),
        };
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let pos = (ring.head % RING_CAPACITY as u64) as usize;
        if ring.events.len() < RING_CAPACITY {
            ring.events.push(event);
        } else {
            ring.events[pos] = event;
        }
        ring.head += 1;
    }

    /// Monotone count of events ever recorded; use as a mark to later
    /// extract "events since".
    pub fn event_mark(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).head
    }

    /// Events recorded at or after `mark` that are still in the ring,
    /// in recording order.
    pub fn events_since(&self, mark: u64) -> Vec<SpanEvent> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let len = ring.events.len() as u64;
        let oldest = ring.head - len;
        let from = mark.max(oldest);
        (from..ring.head)
            .map(|seq| ring.events[(seq % RING_CAPACITY as u64) as usize].clone())
            .collect()
    }

    /// Number of events currently held (≤ [`RING_CAPACITY`]).
    pub fn ring_len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .len()
    }

    /// Point-in-time per-phase totals.
    pub fn phase_snapshot(&self) -> PhaseSnapshot {
        let mut counts = [0u64; PHASES.len()];
        let mut nanos = [0u64; PHASES.len()];
        for i in 0..PHASES.len() {
            counts[i] = self.phase_count[i].load(Ordering::Relaxed);
            nanos[i] = self.phase_ns[i].load(Ordering::Relaxed);
        }
        PhaseSnapshot { counts, nanos }
    }

    /// Records a slow query, bounding the log to [`SLOW_LOG_CAPACITY`].
    pub fn push_slow(&self, record: SlowQuery) {
        let mut log = self.slow_log.lock().unwrap_or_else(|e| e.into_inner());
        if log.len() == SLOW_LOG_CAPACITY {
            log.remove(0);
        }
        log.push(record);
    }

    /// The retained slow-query records, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// The process-global collector (one engine per process; see
/// [`crate::metrics::global`] for the rationale).
pub fn collector() -> &'static TraceCollector {
    static GLOBAL: OnceLock<TraceCollector> = OnceLock::new();
    GLOBAL.get_or_init(TraceCollector::new)
}

/// Shorthand: open a span on the global collector.
pub fn span(phase: Phase) -> Option<SpanGuard> {
    collector().span(phase)
}

/// Shorthand: open an indexed span on the global collector.
pub fn span_indexed(phase: Phase, index: u64) -> Option<SpanGuard> {
    collector().span_indexed(phase, index)
}

/// Shorthand: toggle the global collector.
pub fn set_enabled(on: bool) {
    collector().set_enabled(on)
}

/// Shorthand: is the global collector recording?
pub fn enabled() -> bool {
    collector().enabled()
}

/// An open span; records the event when dropped.
pub struct SpanGuard {
    collector: &'static TraceCollector,
    id: u64,
    parent: u64,
    phase: Phase,
    index: u64,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.collector.finish_span(self);
    }
}

/// Cumulative per-phase totals; diff two to get a [`PhaseBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    counts: [u64; PHASES.len()],
    nanos: [u64; PHASES.len()],
}

impl PhaseSnapshot {
    /// The all-zero snapshot.
    pub fn zero() -> PhaseSnapshot {
        PhaseSnapshot {
            counts: [0; PHASES.len()],
            nanos: [0; PHASES.len()],
        }
    }

    /// Totals accumulated since `base` (which must be an earlier
    /// snapshot of the same collector).
    pub fn delta(&self, base: &PhaseSnapshot) -> PhaseBreakdown {
        let mut entries = Vec::new();
        for (i, phase) in PHASES.iter().enumerate() {
            let count = self.counts[i].saturating_sub(base.counts[i]);
            let nanos = self.nanos[i].saturating_sub(base.nanos[i]);
            if count > 0 || nanos > 0 {
                entries.push(PhaseStat {
                    phase: *phase,
                    count,
                    nanos,
                });
            }
        }
        PhaseBreakdown { entries }
    }
}

/// Count and total time for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Spans of this phase closed.
    pub count: u64,
    /// Their summed wall time, nanoseconds.
    pub nanos: u64,
}

/// Per-query (or per-run) phase totals, attached to `RunStats`. Empty
/// when tracing is off. Entries are kept in canonical phase order and
/// only present when nonzero, so equal breakdowns compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// The nonzero phases, in canonical order.
    pub entries: Vec<PhaseStat>,
}

impl PhaseBreakdown {
    /// Whether no phase recorded a span.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `other` into `self`, phase-wise.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        if other.is_empty() {
            return;
        }
        let mut counts = [0u64; PHASES.len()];
        let mut nanos = [0u64; PHASES.len()];
        for e in self.entries.iter().chain(&other.entries) {
            let i = e.phase.index();
            counts[i] += e.count;
            nanos[i] += e.nanos;
        }
        self.entries.clear();
        for (i, phase) in PHASES.iter().enumerate() {
            if counts[i] > 0 || nanos[i] > 0 {
                self.entries.push(PhaseStat {
                    phase: *phase,
                    count: counts[i],
                    nanos: nanos[i],
                });
            }
        }
    }

    /// One-line human summary: `guard_entailment 12x 3.4ms · …`.
    pub fn summary(&self) -> String {
        self.entries
            .iter()
            .map(|e| {
                format!(
                    "{} {}x {:.1}ms",
                    e.phase.as_str(),
                    e.count,
                    e.nanos as f64 / 1e6
                )
            })
            .collect::<Vec<_>>()
            .join(" · ")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a set of span events as a canonical JSON forest, nesting
/// children under parents by their recorded links. Events whose parent
/// is absent from the set (or `0`) become roots. Siblings keep
/// recording order.
pub fn render_span_tree(events: &[SpanEvent]) -> String {
    fn render_node(events: &[SpanEvent], at: usize, out: &mut String) {
        let e = &events[at];
        out.push_str(&format!(
            "{{\"span\": \"{}\", \"phase\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"thread\": {}",
            json_escape(&e.label()),
            e.phase.as_str(),
            e.start_ns,
            e.end_ns,
            e.thread
        ));
        let children: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, c)| c.parent == e.id)
            .map(|(i, _)| i)
            .collect();
        if !children.is_empty() {
            out.push_str(", \"children\": [");
            for (n, c) in children.iter().enumerate() {
                if n > 0 {
                    out.push_str(", ");
                }
                render_node(events, *c, out);
            }
            out.push(']');
        }
        out.push('}');
    }
    let ids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.id).collect();
    let roots: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.parent == 0 || !ids.contains(&e.parent))
        .map(|(i, _)| i)
        .collect();
    let mut out = String::from("[");
    for (n, r) in roots.iter().enumerate() {
        if n > 0 {
            out.push_str(", ");
        }
        render_node(events, *r, &mut out);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this binary share the global collector; serialize the
    /// ones that toggle it.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    fn trace_guard() -> std::sync::MutexGuard<'static, ()> {
        TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_is_none() {
        let _g = trace_guard();
        set_enabled(false);
        assert!(span(Phase::Sum).is_none());
    }

    #[test]
    fn spans_nest_by_parent_links() {
        let _g = trace_guard();
        set_enabled(true);
        let mark = collector().event_mark();
        {
            let _q = span(Phase::Query);
            {
                let _g1 = span_indexed(Phase::Generation, 0);
                let _e = span(Phase::GuardEntailment);
            }
            let _c = span(Phase::Certificate);
        }
        set_enabled(false);
        let events = collector().events_since(mark);
        assert_eq!(events.len(), 4);
        // Innermost spans close first.
        assert_eq!(events[0].phase, Phase::GuardEntailment);
        assert_eq!(events[1].phase, Phase::Generation);
        assert_eq!(events[1].label(), "generation[0]");
        let query = events.iter().find(|e| e.phase == Phase::Query).unwrap();
        assert_eq!(events[0].parent, events[1].id);
        assert_eq!(events[1].parent, query.id);
        let tree = render_span_tree(&events);
        assert!(tree.contains("\"span\": \"query\""), "{tree}");
        assert!(tree.contains("\"children\""), "{tree}");
        // The query root must contain the generation which contains
        // the entailment: check nesting depth by order of appearance.
        let qi = tree.find("\"query\"").unwrap();
        let gi = tree.find("\"generation[0]\"").unwrap();
        let ei = tree.find("\"guard_entailment\"").unwrap();
        assert!(qi < gi && gi < ei, "{tree}");
    }

    #[test]
    fn phase_delta_counts_only_new_spans() {
        let _g = trace_guard();
        set_enabled(true);
        let base = collector().phase_snapshot();
        {
            let _s = span(Phase::Reach);
        }
        {
            let _s = span(Phase::Reach);
        }
        let after = collector().phase_snapshot();
        set_enabled(false);
        let d = after.delta(&base);
        let reach = d.entries.iter().find(|e| e.phase == Phase::Reach).unwrap();
        assert_eq!(reach.count, 2);
    }

    #[test]
    fn ring_is_bounded_under_overflow() {
        let _g = trace_guard();
        set_enabled(true);
        let before_mark = collector().event_mark();
        for _ in 0..(RING_CAPACITY + 1000) {
            let _s = span(Phase::CegarRound);
        }
        set_enabled(false);
        assert!(collector().ring_len() <= RING_CAPACITY);
        let events = collector().events_since(before_mark);
        // Overflow evicted the oldest: we get at most a full ring back.
        assert!(events.len() <= RING_CAPACITY);
        // The newest events survive.
        let newest = collector().event_mark();
        assert_eq!(collector().events_since(newest - 10).len(), 10);
    }

    #[test]
    fn slow_log_is_bounded() {
        let _g = trace_guard();
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            collector().push_slow(SlowQuery {
                label: format!("q{i}"),
                wall_ms: i as u64,
                threshold_ms: 0,
                tree_json: "[]".to_string(),
            });
        }
        let log = collector().slow_queries();
        assert_eq!(log.len(), SLOW_LOG_CAPACITY);
        // Oldest dropped, newest kept.
        assert_eq!(
            log.last().unwrap().label,
            format!("q{}", SLOW_LOG_CAPACITY + 4)
        );
    }

    #[test]
    fn phase_names_round_trip() {
        for p in PHASES {
            assert_eq!(Phase::parse(p.as_str()), Some(p));
        }
        assert_eq!(Phase::parse("nonsense"), None);
    }

    #[test]
    fn breakdown_merge_is_phasewise() {
        let mut a = PhaseBreakdown {
            entries: vec![PhaseStat {
                phase: Phase::Sum,
                count: 1,
                nanos: 10,
            }],
        };
        let b = PhaseBreakdown {
            entries: vec![
                PhaseStat {
                    phase: Phase::Sum,
                    count: 2,
                    nanos: 5,
                },
                PhaseStat {
                    phase: Phase::Witness,
                    count: 1,
                    nanos: 7,
                },
            ],
        };
        a.merge(&b);
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].phase, Phase::Sum);
        assert_eq!(a.entries[0].count, 3);
        assert_eq!(a.entries[0].nanos, 15);
        assert_eq!(a.entries[1].phase, Phase::Witness);
        assert!(!a.summary().is_empty());
    }
}
