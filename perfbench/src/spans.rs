//! The traced run's span recorder and self-time table.
//!
//! The benchmark opens a span around each public call it makes into a
//! layer; inside a call, the engine's own span collector (`leapfrog-obs`)
//! records its phases, and those events are grafted under the
//! benchmark's span for the call. Every span has a name, a start, an end,
//! a parent and the id of the query it belongs to. Spans stay in memory
//! until the run ends. A span's self time is its duration minus the part
//! of it that its children cover; summed per layer, self times add up to
//! the root spans' total exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use leapfrog_obs::trace::{self, Phase, SpanEvent};

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Id of the query the span belongs to (`0` outside any query).
    pub query: u64,
    /// Layer-qualified name, e.g. `core.prepare_pair`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "engine.intern_pair" | "engine.sum" | "core.prepare_pair" => "core.intern",
        "engine.reach" | "logic.reachable" => "logic.reach",
        "engine.query" | "engine.generation" | "core.run_prepared" => "core.unattributed",
        "engine.guard_entailment" => "smt.entailment",
        "engine.cegar_round" => "smt.cegar",
        "engine.certificate" => "core.certificate",
        "engine.witness" => "cex.witness",
        "core.engine_new" | "core.engine_drop" => "core.engine",
        "cex.witness_check" => "cex.replay",
        "p4a.sum" => "p4a.sum",
        "certcheck.check_json" => "certcheck.check",
        "serve.request" => "serve.overhead",
        "serve.engine" => "serve.engine",
        "serve.decode" => "serve.decode",
        "serve.spawn" => "serve.state_load",
        "serve.first_reply" => "serve.first_reply",
        _ => "bench.other",
    }
}

fn engine_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Query => "engine.query",
        Phase::InternPair => "engine.intern_pair",
        Phase::Sum => "engine.sum",
        Phase::Reach => "engine.reach",
        Phase::Generation => "engine.generation",
        Phase::GuardEntailment => "engine.guard_entailment",
        Phase::CegarRound => "engine.cegar_round",
        Phase::Certificate => "engine.certificate",
        Phase::Witness => "engine.witness",
    }
}

/// Records spans for one thread of the benchmark. Disabled recorders
/// cost one branch per call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Engine-collector time minus recorder time, in nanoseconds.
    engine_offset: i128,
    /// The engine collector's id for this recorder's thread.
    engine_thread: u64,
    tag: u64,
    next: u64,
    query: u64,
    stack: Vec<usize>,
    /// Every closed or open span, in opening order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `tag` keeps ids unique across threads sharing `epoch`.
    pub fn new(on: bool, epoch: Instant, tag: u64) -> Recorder {
        Recorder {
            on,
            epoch,
            engine_offset: 0,
            engine_thread: 0,
            tag,
            next: 0,
            query: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns the engine's span collector on and measures the offset
    /// between its clock and this recorder's, so grafted engine spans
    /// land on the benchmark's time line.
    pub fn attach_engine(&mut self) {
        if !self.on {
            return;
        }
        let collector = trace::collector();
        collector.set_enabled(true);
        let mark = collector.event_mark();
        let before = self.now();
        drop(trace::span(Phase::Query));
        let after = self.now();
        if let Some(e) = collector.events_since(mark).last() {
            self.engine_offset = e.start_ns as i128 - ((before + after) / 2) as i128;
            self.engine_thread = e.thread;
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new query; spans opened from now on carry its id.
    pub fn set_query(&mut self, query: u64) {
        self.query = query;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.push(name, start);
    }

    fn push(&mut self, name: &'static str, start_ns: u64) {
        self.next += 1;
        let id = (self.tag << 48) | self.next;
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            query: self.query,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.stack.pop().expect("close without a matching open");
        self.spans[i].end_ns = end;
    }

    /// A recorder for another thread, sharing this one's epoch, state and
    /// engine clock offset.
    pub fn fork(&self, tag: u64) -> Recorder {
        Recorder {
            engine_offset: self.engine_offset,
            engine_thread: self.engine_thread,
            ..Recorder::new(self.on, self.epoch, tag)
        }
    }

    /// Adds an already-measured child of the innermost open span (a
    /// duration the program reports, such as a reply's engine time),
    /// ending at `end_ns` and clamped inside the parent.
    pub fn child_before(&mut self, end_ns: u64, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let &i = self.stack.last().expect("child_before needs an open span");
        let end = end_ns.max(self.spans[i].start_ns);
        let start = end.saturating_sub(dur_ns).max(self.spans[i].start_ns);
        self.push(name, start);
        let j = self.stack.pop().expect("just pushed");
        self.spans[j].end_ns = end;
    }

    /// Grafts the engine events recorded since `mark` under the innermost
    /// open span, clamped inside its interval so nesting holds exactly.
    pub fn graft_engine(&mut self, mark: u64) {
        if !self.on {
            return;
        }
        let events: Vec<SpanEvent> = trace::collector().events_since(mark);
        let &top = self.stack.last().expect("graft_engine needs an open span");
        let (lo, hi) = (self.spans[top].start_ns, self.now());
        let mut ids: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        // Parents close after their children, so walk events in start order.
        let mut order: Vec<&SpanEvent> = events
            .iter()
            .filter(|e| e.thread == self.engine_thread)
            .collect();
        order.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.end_ns)));
        for e in order {
            let (parent, plo, phi) = match ids.get(&e.parent) {
                Some(&(id, s, t)) => (id, s, t),
                None => (self.spans[top].id, lo, hi),
            };
            let shift = |t: u64| ((t as i128 - self.engine_offset).max(0) as u64).clamp(plo, phi);
            let (s, t) = (shift(e.start_ns), shift(e.end_ns));
            self.next += 1;
            let id = (self.tag << 48) | self.next;
            self.spans.push(Span {
                id,
                parent,
                query: self.query,
                name: engine_name(e.phase),
                start_ns: s,
                end_ns: t.max(s),
            });
            ids.insert(e.id, (id, s, t.max(s)));
        }
    }
}

/// Length of the union of `intervals` (which may overlap).
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per span id: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered(kids)))
        })
        .collect()
}

/// Self time per layer, in nanoseconds.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut table = BTreeMap::new();
    for s in spans {
        *table.entry(layer_of(s.name)).or_insert(0) += selfs[&s.id];
    }
    table
}

/// Total duration of the root spans, in nanoseconds.
pub fn root_total(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Whether every span lies inside its parent's interval, and shares its
/// parent's query (spans outside any query, such as a pass, may parent
/// several queries).
pub fn nested(spans: &[Span]) -> bool {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans.iter().all(|s| {
        s.start_ns <= s.end_ns
            && (s.parent == 0
                || by_id.get(&s.parent).is_some_and(|p| {
                    p.start_ns <= s.start_ns
                        && s.end_ns <= p.end_ns
                        && (p.query == 0 || p.query == s.query)
                }))
    })
}

/// Renders spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

/// Serialises tests that switch the process-global engine collector.
#[cfg(test)]
pub static COLLECTOR_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_times_sum_to_the_roots_with_overlapping_children() {
        let spans = vec![
            span(1, 0, "pass", 0, 100),
            span(2, 1, "core.run_prepared", 10, 90),
            span(3, 2, "engine.query", 10, 90),
            span(4, 3, "engine.guard_entailment", 20, 50),
            span(5, 4, "engine.cegar_round", 30, 40),
            span(6, 3, "engine.certificate", 50, 60),
        ];
        assert!(nested(&spans));
        let table = layer_table(&spans);
        assert_eq!(table.values().sum::<u64>(), root_total(&spans));
        assert_eq!(table["smt.cegar"], 10);
        assert_eq!(table["bench.other"], 20);
        assert_eq!(table["core.unattributed"], 40);
    }

    #[test]
    fn overlapping_children_are_charged_once() {
        assert_eq!(covered(vec![(20, 50), (45, 60), (70, 80)]), 50);
        let spans = vec![
            span(1, 0, "pass", 0, 100),
            span(2, 1, "serve.request", 10, 60),
            span(3, 1, "serve.request", 40, 90),
        ];
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn recorder_nests_engine_spans_under_the_benchmark_call() {
        use leapfrog::{Engine, EngineConfig};
        use leapfrog_suite::utility::mpls;

        let _lock = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut rec = Recorder::new(true, Instant::now(), 1);
        rec.attach_engine();
        let (r, v) = (mpls::reference(), mpls::vectorized());
        let (q1, q3) = (
            r.state_by_name("q1").unwrap(),
            v.state_by_name("q3").unwrap(),
        );
        rec.set_query(7);
        rec.open("query");
        let mut engine = Engine::new(EngineConfig::new().threads(1));
        let pid = engine.prepare_pair(&r, q1, &v, q3);
        let req = engine.standard_request(pid);
        rec.open("core.run_prepared");
        let mark = trace::collector().event_mark();
        assert!(engine.run_prepared(pid, &req).is_equivalent());
        rec.graft_engine(mark);
        rec.close();
        rec.close();
        trace::set_enabled(false);
        assert!(rec
            .spans
            .iter()
            .any(|s| s.name == "engine.guard_entailment"));
        assert!(rec.spans.iter().all(|s| s.query == 7));
        assert!(nested(&rec.spans));
        let table = layer_table(&rec.spans);
        assert_eq!(table.values().sum::<u64>(), root_total(&rec.spans));
    }
}
