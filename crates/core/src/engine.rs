//! The persistent equivalence-checking engine: the serving unit of the
//! reproduction.
//!
//! The paper's checker is query-oriented — one equivalence question, one
//! certificate or witness — but a service answering many queries should
//! not tear down everything it learnt after each one. An [`Engine`] is
//! built once from a typed [`EngineConfig`] and owns the long-lived state
//! that earlier PRs introduced for *intra*-query reuse, promoted to
//! *inter*-query scope:
//!
//! * the cross-session instantiation ledger ([`InstLedger`]): `∀`-block
//!   validation verdicts keyed by canonical block identity and support
//!   valuation, so sessions sharing a guard shape — across pools, batch
//!   workers and queries — never re-solve a validation;
//! * memoized per-pair artifacts: the disjoint-sum construction, the
//!   reachable template-pair sets and the in-scope template lists, interned
//!   by automaton pair ([`Engine::prepare_pair`]);
//! * one outcome record per query shape: the run of a (pair, shape) is
//!   deterministic, so a repeat of the same question is answered from the
//!   record of the first answer — the same certificate or witness, with
//!   no WP and no solver ([`RunStats::outcome_replays`]).
//!
//! Guard sessions ([`SessionPool`]) live for one run: a search builds its
//! pool and drops it when it returns.
//!
//! [`Engine::check`] answers one language-equivalence query on the
//! calling thread; [`Engine::check_batch`] schedules many queries over
//! worker threads — parallelism *across* queries, never inside one.
//! Results are bit-identical to the one-shot path: certificates and
//! witnesses do not depend on engine warmth, thread count or batching
//! (asserted in `tests/engine.rs`).
//!
//! The historical [`Checker`](crate::Checker) and
//! [`check_language_equivalence`](crate::checker::check_language_equivalence)
//! entry points are thin wrappers over a transient engine.
//!
//! Long-running engines additionally support **capacity bounds and
//! persistence**: [`EngineConfig::warm_capacity`] (env `LEAPFROG_WARM_CAP`,
//! `0` = unbounded) puts an LRU eviction bound on the outcome records,
//! the interned pairs and the instantiation ledger, with eviction counters
//! surfaced in [`EngineStats`]; and [`Engine::save_state`] /
//! [`EngineConfig::with_state_dir`] serialize and reload the ledger
//! verdicts and every recorded proof (its certificate), so a restarted
//! service answers a proven pair without searching again. Refutations and
//! aborts are recorded in memory only; a restarted engine re-solves them,
//! to the same bytes. Neither knob ever changes results — eviction and
//! persistence trade wall-clock only (asserted in `tests/serve.rs`).

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use leapfrog_cex::{build_witness, Refutation};
use leapfrog_logic::confrel::ConfRel;
use leapfrog_logic::incremental::SessionPool;
use leapfrog_logic::lower;
use leapfrog_logic::reach::{reachable_pairs, unpruned_pairs, PredecessorIndex};
use leapfrog_logic::store::RelationStore;
use leapfrog_logic::templates::{Template, TemplatePair};
use leapfrog_logic::wp::wp;
use leapfrog_obs::{trace, Phase};
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::sum::{sum, Sum};
use leapfrog_smt::{CheckResult, InstLedger, SmtSolver, LBD_BUCKETS};

use crate::certificate::Certificate;
use crate::checker::{Options, Outcome};
use crate::json::{self, JsonError, Value};
use crate::stats::RunStats;

/// File inside a state directory holding the instantiation-ledger verdicts.
pub const STATE_LEDGER_FILE: &str = "inst_ledger.txt";
/// File inside a state directory holding the recorded proofs: one
/// compact JSON document per line, each an `Equivalent` outcome record's
/// certificate keyed by pair fingerprint and query shape. One proof per
/// line keeps saving and loading to one certificate's JSON tree at a
/// time.
pub const STATE_OUTCOME_FILE: &str = "warm_outcomes.jsonl";

/// Typed, buildable configuration for an [`Engine`]: the one home of every
/// engine knob. [`EngineConfig::from_env`] is the only place the
/// `LEAPFROG_*` tuning variables are read; the builder methods are the
/// first-class path.
///
/// | Env var | Config field |
/// |---|---|
/// | `LEAPFROG_THREADS` | [`threads`](Self::threads) |
/// | `LEAPFROG_WARM_CAP` | [`warm_capacity`](Self::warm_capacity) |
///
/// Only [`options`](Self::options) changes *what* is computed (it is the
/// default shape of every query the engine answers); everything else
/// changes how fast.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// The default query shape: leaps, reachability pruning, early stop
    /// and the iteration budget. [`Engine::standard_request`] copies it
    /// into every standard request.
    pub options: Options,
    /// Worker threads [`Engine::check_batch`] runs queries on (`0` =
    /// available parallelism). One query always runs on the thread that
    /// asked. Results are bit-identical at every setting.
    pub threads: usize,
    /// LRU capacity bound on the warm-state maps (`0` = unbounded): at
    /// most this many outcome records, interned pairs and
    /// instantiation-ledger entries stay live; least-recently-used
    /// entries beyond the bound are evicted between runs. Results never
    /// depend on eviction.
    pub warm_capacity: usize,
    /// Directory to reload persisted warm state from at construction
    /// (ledger verdicts, recorded proofs). Written by
    /// [`Engine::save_state`]; a missing directory or file is simply a
    /// cold start.
    pub state_dir: Option<PathBuf>,
}

impl EngineConfig {
    /// Pure defaults: every optimization on, auto thread count, unbounded
    /// warm state — independent of the environment.
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// The environment constructor: reads every `LEAPFROG_*` tuning
    /// variable into its config field (see the type-level table). The
    /// query shape keeps its defaults.
    pub fn from_env() -> EngineConfig {
        fn parsed<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.parse().ok()
        }
        EngineConfig {
            threads: parsed("LEAPFROG_THREADS").unwrap_or(0),
            warm_capacity: parsed("LEAPFROG_WARM_CAP").unwrap_or(0),
            ..EngineConfig::default()
        }
    }

    /// The `check_batch` worker-thread count this configuration resolves
    /// to.
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Sets the worker-thread count (builder style).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Enables or disables leaps (builder style).
    pub fn leaps(mut self, on: bool) -> Self {
        self.options.leaps = on;
        self
    }

    /// Enables or disables reachability pruning (builder style).
    pub fn reach_pruning(mut self, on: bool) -> Self {
        self.options.reach_pruning = on;
        self
    }

    /// Enables or disables early stopping (builder style).
    pub fn early_stop(mut self, on: bool) -> Self {
        self.options.early_stop = on;
        self
    }

    /// Sets the iteration budget (builder style).
    pub fn max_iterations(mut self, limit: Option<u64>) -> Self {
        self.options.max_iterations = limit;
        self
    }

    /// Sets the LRU capacity bound on the warm-state maps (builder style;
    /// `0` = unbounded).
    pub fn warm_capacity(mut self, cap: usize) -> Self {
        self.warm_capacity = cap;
        self
    }

    /// Sets the state directory the engine reloads persisted warm state
    /// from at construction (builder style). Pair with
    /// [`Engine::save_state`] on the way down.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Finishes the builder: a fresh engine owning this configuration.
    pub fn build(self) -> Engine {
        Engine::new(self)
    }
}

/// A handle to an automaton pair interned by [`Engine::prepare_pair`]:
/// its sum, root template pair and scope sets stay resident until the
/// [`EngineConfig::warm_capacity`] LRU bound evicts the pair. Eviction
/// frees the slot for later pairs; a handle held across the eviction is
/// *stale* and panics on use (the generation tag makes the staleness
/// detectable instead of silently resolving to a different pair) — hold
/// handles only across back-to-back calls, or re-intern via
/// `prepare_pair` (idempotent and cheap on a live pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairId(usize, u64);

/// One query for [`Engine::check_batch`]: a named parser pair posing a
/// standard language-equivalence question.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Name used for reporting: a sequential batch labels the member's
    /// slow-query record with it.
    pub name: String,
    /// The left parser.
    pub left: Automaton,
    /// Start state of the left parser.
    pub ql: StateId,
    /// The right parser.
    pub right: Automaton,
    /// Start state of the right parser.
    pub qr: StateId,
}

impl QuerySpec {
    /// A named language-equivalence query.
    pub fn new(
        name: impl Into<String>,
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
    ) -> QuerySpec {
        QuerySpec {
            name: name.into(),
            left: left.clone(),
            ql,
            right: right.clone(),
            qr,
        }
    }
}

/// A fully elaborated query over a prepared pair — what
/// [`Engine::run_prepared`] executes. The [`Checker`](crate::Checker)
/// wrapper builds one of these from its mutable setup calls; the standard
/// case comes from [`Engine::standard_request`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Include the standard acceptance-compatibility initial conditions.
    pub standard_init: bool,
    /// Additional (or, when `standard_init` is false, *replacement*)
    /// initial-relation conjuncts.
    pub extra_init: Vec<ConfRel>,
    /// The query `φ` at the root guard.
    pub query: ConfRel,
    /// The query's shape; every other knob is the engine's.
    pub options: Options,
}

/// Cumulative reuse counters over an engine's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered (including every batch member).
    pub checks: u64,
    /// [`Engine::check_batch`] invocations.
    pub batches: u64,
    /// Distinct automaton pairs interned.
    pub pairs_interned: u64,
    /// Queries that found their pair's sum construction (and everything
    /// hanging off it) already resident from an earlier run.
    pub sum_cache_hits: u64,
    /// Scope/reachability sets served from the per-pair memo.
    pub reach_cache_hits: u64,
    /// Queries answered from an outcome record, with no WP and no solver.
    pub outcome_replays: u64,
    /// Outcome records evicted by the [`EngineConfig::warm_capacity`]
    /// LRU bound.
    pub warm_evictions: u64,
    /// Interned pairs evicted by the capacity bound (sum construction,
    /// scope sets and outcome records dropped; a later query re-interns).
    pub pair_evictions: u64,
    /// Instantiation-ledger entries evicted by the capacity bound
    /// (mirrors the ledger's own counter).
    pub ledger_evictions: u64,
}

/// Per-pair interned artifacts plus the outcome record of each query
/// shape answered so far.
struct PairState {
    left: Automaton,
    ql: StateId,
    right: Automaton,
    qr: StateId,
    sum: Sum,
    root: TemplatePair,
    /// The pair's structural fingerprint (index key) and the
    /// independently-salted confirmation fingerprint used to match
    /// persisted warm state across restarts.
    fingerprint: (u64, u64),
    /// Generation tag matching the [`PairId`]s handed out for this
    /// occupancy of the slot (slots are reused after eviction).
    generation: u64,
    /// Scope sets and their predecessor indexes, keyed by
    /// `(leaps, reach_pruning)`.
    scopes: HashMap<(bool, bool), Scope>,
    /// Outcome records keyed by query shape.
    outcomes: HashMap<WarmKey, OutcomeRecord>,
    /// Queries answered over this pair (0 = its artifacts were built but
    /// never yet used by a run).
    runs: u64,
    /// Recency tick for the LRU pair-eviction policy.
    last_used: u64,
}

/// The template pairs a query considers, plus the index of which of them
/// can step into each guard — the only predecessors whose weakest
/// precondition is not vacuous.
#[derive(Clone)]
struct Scope {
    pairs: Arc<Vec<TemplatePair>>,
    preds: Arc<PredecessorIndex>,
}

/// A cheap structural fingerprint of a query pair, used to index the
/// intern table so lookup cost stays independent of how many pairs the
/// engine has served (deep equality is only checked within a bucket).
/// The second component is the same content hashed under a salt: persisted
/// warm state is keyed by the 128-bit combination, so a 64-bit collision
/// between distinct pairs cannot attach a saved proof to the wrong pair.
/// `DefaultHasher::new()` is keyed deterministically, so fingerprints are
/// stable across processes of the same build.
fn pair_fingerprint(left: &Automaton, ql: StateId, right: &Automaton, qr: StateId) -> (u64, u64) {
    use std::hash::{Hash, Hasher};
    let run = |salt: u64| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        salt.hash(&mut h);
        format!("{left:?}").hash(&mut h);
        ql.hash(&mut h);
        format!("{right:?}").hash(&mut h);
        qr.hash(&mut h);
        h.finish()
    };
    (run(0), run(0x5eed_1eaf))
}

/// The stable 128-bit routing fingerprint of a query pair: both salted
/// `pair_fingerprint` halves packed into one integer — the same key
/// that indexes persisted warm state. A fleet deployment routes a pair
/// to shard `route_fingerprint(..) % workers`, so a pair always lands
/// on the shard whose warm universe already knows it, and a saved state
/// dir can be re-partitioned deterministically when the worker count
/// changes (see [`Engine::import_outcomes_routed`]).
pub fn route_fingerprint(left: &Automaton, ql: StateId, right: &Automaton, qr: StateId) -> u128 {
    let (fp, fp2) = pair_fingerprint(left, ql, right, qr);
    ((fp as u128) << 64) | fp2 as u128
}

/// Everything that determines a query's result (given a pair): two
/// requests with equal keys are deterministic replays of each other, so
/// the second is answered from the first one's outcome record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WarmKey {
    standard_init: bool,
    extra_init: Vec<ConfRel>,
    query: ConfRel,
    options: Options,
}

impl WarmKey {
    fn of(req: &QueryRequest) -> WarmKey {
        WarmKey {
            standard_init: req.standard_init,
            extra_init: req.extra_init.clone(),
            query: req.query.clone(),
            options: req.options,
        }
    }

    /// Encodes the key in the certificate JSON vocabulary.
    fn to_value(&self) -> Value {
        json::obj(vec![
            ("standard_init", Value::Bool(self.standard_init)),
            (
                "extra_init",
                Value::Arr(self.extra_init.iter().map(json::confrel_to_value).collect()),
            ),
            ("query", json::confrel_to_value(&self.query)),
            ("leaps", Value::Bool(self.options.leaps)),
            ("reach_pruning", Value::Bool(self.options.reach_pruning)),
            ("early_stop", Value::Bool(self.options.early_stop)),
            (
                "max_iterations",
                match self.options.max_iterations {
                    Some(n) => json::num(n as usize),
                    None => Value::Null,
                },
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<WarmKey, JsonError> {
        let flag = |k: &str| json::as_bool(json::get(v, k)?);
        Ok(WarmKey {
            standard_init: flag("standard_init")?,
            extra_init: json::as_arr(json::get(v, "extra_init")?)?
                .iter()
                .map(json::confrel_from_value)
                .collect::<Result<_, _>>()?,
            query: json::confrel_from_value(json::get(v, "query")?)?,
            options: Options {
                leaps: flag("leaps")?,
                reach_pruning: flag("reach_pruning")?,
                early_stop: flag("early_stop")?,
                max_iterations: match json::get(v, "max_iterations")? {
                    Value::Null => None,
                    n => Some(json::as_usize(n)? as u64),
                },
            },
        })
    }
}

/// The answer to one query shape over one pair. Within a query shape the
/// run is deterministic, so a repeat of the same question is answered
/// from this record: the same outcome, with no WP and no solver.
struct OutcomeRecord {
    outcome: Outcome,
    /// |R| when the recorded run ended.
    extended: u64,
    /// Recency tick for the LRU eviction policy.
    last_used: u64,
}

impl OutcomeRecord {
    fn of(outcome: &Outcome, stats: &RunStats) -> OutcomeRecord {
        OutcomeRecord {
            outcome: outcome.clone(),
            extended: stats.extended,
            last_used: 0,
        }
    }

    /// The recorded outcome, with run statistics of its own: no search
    /// ran, so every work counter is 0; `extended` is the recorded |R|.
    fn replay(&self) -> (Outcome, RunStats) {
        let start = Instant::now();
        let outcome = self.outcome.clone();
        let stats = RunStats {
            extended: self.extended,
            outcome_replays: 1,
            threads: 1,
            wall_time: start.elapsed(),
            ..RunStats::default()
        };
        (outcome, stats)
    }
}

/// Persisted proofs keyed by 128-bit pair fingerprint: each pair carries
/// its query-shape keys and their certificates.
type SavedProofs = HashMap<(u64, u64), Vec<(WarmKey, Certificate)>>;

/// Decodes the persisted proof lines written by `Engine::proofs_to_jsonl`.
fn proofs_from_jsonl(text: &str) -> Result<SavedProofs, JsonError> {
    let mut out = SavedProofs::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let proof = json::parse(line)?;
        let half = |k: &str| -> Result<u64, JsonError> {
            json::as_str(json::get(&proof, k)?)?
                .parse()
                .map_err(|_| JsonError::new(format!("bad {k}")))
        };
        let fp = (half("fingerprint")?, half("fingerprint2")?);
        let key = WarmKey::from_value(json::get(&proof, "key")?)?;
        let cert = json::certificate_from_value(json::get(&proof, "certificate")?)?;
        out.entry(fp).or_default().push((key, cert));
    }
    Ok(out)
}

/// The persistent engine. See the module docs for what it keeps warm.
pub struct Engine {
    config: EngineConfig,
    ledger: InstLedger,
    /// Interned pairs; evicted slots are tombstoned (so outstanding
    /// [`PairId`]s of *other* pairs stay valid) and recycled through
    /// `free_slots` (so the vector does not grow with every distinct
    /// pair a long-lived daemon ever sees).
    pairs: Vec<Option<PairState>>,
    /// Slots freed by pair eviction, reused by the next intern.
    free_slots: Vec<usize>,
    /// Intern index: pair fingerprint → candidate indices into `pairs`.
    pair_index: HashMap<u64, Vec<usize>>,
    /// Persisted proofs not yet claimed by an interned pair, keyed by the
    /// 128-bit pair fingerprint.
    saved_proofs: SavedProofs,
    /// Monotone recency counter for the LRU eviction policies.
    tick: u64,
    stats: EngineStats,
    last_run: RunStats,
    last_batch: Vec<RunStats>,
    state_report: Option<String>,
    /// Label attached to the next query's slow-log record (a suite row
    /// name); falls back to the pair fingerprint when unset.
    query_label: Option<String>,
}

/// Global metric handles for the engine layer. The lower layers count
/// solver work (`leapfrog_cegar_rounds_total`, …); these count the
/// engine's own reuse machinery, live as it happens, so the daemon's
/// `metrics` request reports totals mid-run.
mod meters {
    use leapfrog_obs::{LazyCounter, LazyHistogram};

    pub static CHECKS: LazyCounter = LazyCounter::new("leapfrog_checks_total");
    pub static BATCHES: LazyCounter = LazyCounter::new("leapfrog_batches_total");
    pub static ENTAILMENT_CHECKS: LazyCounter =
        LazyCounter::new("leapfrog_entailment_checks_total");
    pub static OUTCOME_REPLAYS: LazyCounter = LazyCounter::new("leapfrog_outcome_replays_total");
    pub static PAIRS_INTERNED: LazyCounter = LazyCounter::new("leapfrog_pairs_interned_total");
    pub static WARM_EVICTIONS: LazyCounter = LazyCounter::new("leapfrog_warm_evictions_total");
    pub static PAIR_EVICTIONS: LazyCounter = LazyCounter::new("leapfrog_pair_evictions_total");
    pub static SLOW_QUERIES: LazyCounter = LazyCounter::new("leapfrog_slow_queries_total");
    pub static SAT_DECISIONS: LazyCounter = LazyCounter::new("leapfrog_sat_decisions_total");
    pub static SAT_PROPAGATIONS: LazyCounter = LazyCounter::new("leapfrog_sat_propagations_total");
    pub static SAT_CONFLICTS: LazyCounter = LazyCounter::new("leapfrog_sat_conflicts_total");
    pub static SAT_RESTARTS: LazyCounter = LazyCounter::new("leapfrog_sat_restarts_total");
    pub static SAT_LEARNT_DELETED: LazyCounter =
        LazyCounter::new("leapfrog_sat_learnt_deleted_total");
    /// Learn-time LBD histogram as one counter per bucket (bucket `i`
    /// counts learnt clauses with LBD `i + 1`; the last bucket is ≥ 8).
    pub static SAT_LBD_BUCKETS: [LazyCounter; super::LBD_BUCKETS] = [
        LazyCounter::new("leapfrog_sat_lbd_1_total"),
        LazyCounter::new("leapfrog_sat_lbd_2_total"),
        LazyCounter::new("leapfrog_sat_lbd_3_total"),
        LazyCounter::new("leapfrog_sat_lbd_4_total"),
        LazyCounter::new("leapfrog_sat_lbd_5_total"),
        LazyCounter::new("leapfrog_sat_lbd_6_total"),
        LazyCounter::new("leapfrog_sat_lbd_7_total"),
        LazyCounter::new("leapfrog_sat_lbd_8_plus_total"),
    ];
    pub static QUERY_SECONDS: LazyHistogram = LazyHistogram::new("leapfrog_query_seconds");
}

/// Per-query trace context: opened before any per-query work (so the
/// `intern_pair`/`sum` spans of a cold pair land inside the query
/// window), closed by [`QueryTrace::finish`], which diffs the phase
/// aggregates into `RunStats::phases` and captures the slow-query span
/// tree when the query ran over the armed threshold. All of this is
/// observational: nothing here is read back by the pipeline.
struct QueryTrace {
    phase_base: leapfrog_obs::PhaseSnapshot,
    event_mark: u64,
    start: Instant,
    label: Option<String>,
    root_span: Option<leapfrog_obs::SpanGuard>,
}

impl QueryTrace {
    fn begin(label: Option<String>) -> QueryTrace {
        let tr = trace::collector();
        QueryTrace {
            phase_base: tr.phase_snapshot(),
            event_mark: tr.event_mark(),
            start: Instant::now(),
            label,
            root_span: tr.span(Phase::Query),
        }
    }

    fn finish(mut self, stats: &mut RunStats, fallback_label: impl FnOnce() -> String) {
        // Close the root span first so its time is in the aggregates.
        drop(self.root_span.take());
        let tr = trace::collector();
        if tr.enabled() {
            stats.phases = tr.phase_snapshot().delta(&self.phase_base);
        }
        let elapsed = self.start.elapsed();
        meters::QUERY_SECONDS.record(elapsed);
        if let Some(threshold_ms) = tr.slow_threshold_ms() {
            let wall_ms = elapsed.as_millis() as u64;
            if wall_ms >= threshold_ms {
                meters::SLOW_QUERIES.inc();
                let events = tr.events_since(self.event_mark);
                tr.push_slow(leapfrog_obs::SlowQuery {
                    label: self.label.take().unwrap_or_else(fallback_label),
                    wall_ms,
                    threshold_ms,
                    tree_json: leapfrog_obs::render_span_tree(&events),
                });
            }
        }
    }
}

impl Engine {
    /// Builds an engine owning the given configuration, reloading any
    /// persisted warm state from [`EngineConfig::state_dir`]. (Also
    /// reachable as [`EngineConfig::build`].)
    pub fn new(config: EngineConfig) -> Engine {
        let ledger = InstLedger::with_capacity(config.warm_capacity);
        let mut engine = Engine {
            config,
            ledger,
            pairs: Vec::new(),
            free_slots: Vec::new(),
            pair_index: HashMap::new(),
            saved_proofs: HashMap::new(),
            tick: 0,
            stats: EngineStats::default(),
            last_run: RunStats::default(),
            last_batch: Vec::new(),
            state_report: None,
            query_label: None,
        };
        // `LEAPFROG_TRACE` / `LEAPFROG_SLOW_QUERY_MS` take effect at
        // engine construction (the collector is process-global).
        trace::collector().apply_env();
        engine.load_state();
        engine
    }

    /// The process-global metrics registry every layer writes into.
    /// One process hosts one engine (the daemon model), so registry
    /// "ownership" is access: the engine is where callers fetch it.
    pub fn metrics(&self) -> &'static leapfrog_obs::MetricsRegistry {
        leapfrog_obs::global()
    }

    /// The process-global span-trace collector (ring, phase
    /// aggregates, slow-query log).
    pub fn tracer(&self) -> &'static leapfrog_obs::TraceCollector {
        trace::collector()
    }

    /// Labels the *next* query for the slow-query log (a suite row
    /// name, say); consumed by that query, after which labels fall
    /// back to the pair fingerprint.
    pub fn set_query_label(&mut self, label: impl Into<String>) {
        self.query_label = Some(label.into());
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative reuse statistics over the engine's lifetime.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Statistics of the most recent query (for a batch: the whole batch,
    /// merged in submission order).
    pub fn last_run_stats(&self) -> &RunStats {
        &self.last_run
    }

    /// Each member's own statistics from the most recent
    /// [`Engine::check_batch`], in submission order.
    pub fn last_batch_stats(&self) -> &[RunStats] {
        &self.last_batch
    }

    /// Verdicts currently recorded in the instantiation ledger.
    pub fn ledger_len(&self) -> usize {
        self.ledger.len()
    }

    /// What [`EngineConfig::state_dir`] loading found at construction
    /// (`None` for a cold start with nothing to report).
    pub fn state_report(&self) -> Option<&str> {
        self.state_report.as_deref()
    }

    /// Serializes the engine's reloadable warm state into `dir` (created
    /// if missing): the instantiation ledger's validation verdicts and
    /// every recorded proof (keyed by pair fingerprint so a restarted
    /// engine re-attaches it on intern). An engine built with
    /// [`EngineConfig::with_state_dir`] pointing here answers each saved
    /// (pair, query shape) from its certificate, with no search. Any other
    /// file in `dir` — such as an older build's `warm_memos.json` — is
    /// left alone.
    pub fn save_state(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(STATE_LEDGER_FILE), self.ledger.export_text())?;
        std::fs::write(dir.join(STATE_OUTCOME_FILE), self.proofs_to_jsonl())?;
        Ok(())
    }

    /// Encodes every recorded proof — live pairs' `Equivalent` records
    /// plus any still-unclaimed persisted ones — one per line, in
    /// deterministic order (by pair fingerprint, then query shape).
    fn proofs_to_jsonl(&self) -> String {
        let mut lines: Vec<((u64, u64), String, String)> = Vec::new();
        let mut push = |fp: (u64, u64), key: &WarmKey, cert: &Certificate| {
            let key = key.to_value();
            let order = key.render_compact();
            let line = json::obj(vec![
                ("fingerprint", Value::Str(fp.0.to_string())),
                ("fingerprint2", Value::Str(fp.1.to_string())),
                ("key", key),
                ("certificate", json::certificate_to_value(cert)),
            ])
            .render_compact();
            lines.push((fp, order, line));
        };
        for p in self.pairs.iter().flatten() {
            for (key, record) in &p.outcomes {
                if let Outcome::Equivalent(cert) = &record.outcome {
                    push(p.fingerprint, key, cert);
                }
            }
        }
        for (fp, proofs) in &self.saved_proofs {
            for (key, cert) in proofs {
                push(*fp, key, cert);
            }
        }
        lines.sort_unstable();
        lines.into_iter().map(|(_, _, line)| line + "\n").collect()
    }

    /// Best-effort reload of persisted state from the configured state
    /// directory. Missing files are a cold start; unreadable ones are
    /// noted in [`Engine::state_report`] and skipped — a corrupt state dir
    /// must never take the service down, only slow it. Files this engine
    /// does not write (such as an older build's `warm_memos.json`,
    /// `blast_cache.txt` or `corpus.txt`) are ignored and left in place.
    fn load_state(&mut self) {
        let Some(dir) = self.config.state_dir.clone() else {
            return;
        };
        let mut notes: Vec<String> = Vec::new();
        let read = |file: &str| -> Option<String> { std::fs::read_to_string(dir.join(file)).ok() };
        if let Some(text) = read(STATE_LEDGER_FILE) {
            match self.ledger.import_text(&text) {
                Ok(n) => notes.push(format!("{n} ledger verdicts")),
                Err(e) => notes.push(format!("ledger skipped ({e})")),
            }
        }
        if let Some(text) = read(STATE_OUTCOME_FILE) {
            match proofs_from_jsonl(&text) {
                Ok(saved) => {
                    let n: usize = saved.values().map(Vec::len).sum();
                    notes.push(format!("{n} recorded proofs"));
                    self.saved_proofs = saved;
                }
                Err(e) => notes.push(format!("proofs skipped ({e})")),
            }
        }
        if !notes.is_empty() {
            self.state_report = Some(format!(
                "reloaded from {}: {}",
                dir.display(),
                notes.join(", ")
            ));
        }
    }

    /// Imports persisted proofs from another engine's state directory,
    /// keeping only the pairs whose 128-bit routing fingerprint satisfies
    /// `keep`. This is the shard-merge path: when a fleet restarts at a
    /// different worker count, every new shard feeds each saved
    /// `shard-<i>/` directory through this with
    /// `keep = |fp| fp % workers == shard`, so each proof re-routes to the
    /// shard that will intern its pair. The content-keyed ledger is not
    /// fingerprint-routed and degrades to cold. Returns the number of
    /// proofs adopted.
    pub fn import_outcomes_routed(
        &mut self,
        dir: impl AsRef<Path>,
        keep: &dyn Fn(u128) -> bool,
    ) -> Result<usize, String> {
        let path = dir.as_ref().join(STATE_OUTCOME_FILE);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let saved = proofs_from_jsonl(&text).map_err(|e| e.to_string())?;
        let mut adopted = 0usize;
        for ((fp, fp2), proofs) in saved {
            if !keep(((fp as u128) << 64) | fp2 as u128) {
                continue;
            }
            adopted += proofs.len();
            self.saved_proofs
                .entry((fp, fp2))
                .or_default()
                .extend(proofs);
        }
        if adopted > 0 {
            let note = format!(
                "merged {adopted} routed proofs from {}",
                dir.as_ref().display()
            );
            self.state_report = Some(match self.state_report.take() {
                Some(prev) => format!("{prev}; {note}"),
                None => note,
            });
        }
        Ok(adopted)
    }

    /// Interns an automaton pair: on first sight the disjoint sum and root
    /// template pair are constructed; afterwards the same handle (and all
    /// memoized artifacts behind it) is returned without rebuilding.
    pub fn prepare_pair(
        &mut self,
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
    ) -> PairId {
        let (pid, _) = self.intern_pair(left, ql, right, qr);
        pid
    }

    fn intern_pair(
        &mut self,
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
    ) -> (PairId, bool) {
        let fp = pair_fingerprint(left, ql, right, qr);
        self.tick += 1;
        if let Some(bucket) = self.pair_index.get(&fp.0) {
            for &i in bucket {
                let Some(p) = &self.pairs[i] else { continue };
                if p.ql == ql && p.qr == qr && p.left == *left && p.right == *right {
                    let p = self.pairs[i].as_mut().unwrap();
                    p.last_used = self.tick;
                    return (PairId(i, p.generation), true);
                }
            }
        }
        let _intern_span = trace::span(Phase::InternPair);
        let sum_span = trace::span(Phase::Sum);
        let sum_info = sum(left, right);
        drop(sum_span);
        let root = TemplatePair::new(
            Template::start(sum_info.left_state(ql)),
            Template::start(sum_info.right_state(qr)),
        );
        // Proofs of this pair saved by an earlier process attach here as
        // outcome records: each answers its query shape without a search.
        let outcomes: HashMap<WarmKey, OutcomeRecord> = self
            .saved_proofs
            .remove(&fp)
            .unwrap_or_default()
            .into_iter()
            .map(|(key, cert)| {
                let record = OutcomeRecord {
                    extended: cert.relation.len() as u64,
                    outcome: Outcome::Equivalent(cert),
                    last_used: self.tick,
                };
                (key, record)
            })
            .collect();
        let generation = self.tick;
        let state = PairState {
            left: left.clone(),
            ql,
            right: right.clone(),
            qr,
            sum: sum_info,
            root,
            fingerprint: fp,
            generation,
            scopes: HashMap::new(),
            outcomes,
            runs: 0,
            last_used: self.tick,
        };
        let i = match self.free_slots.pop() {
            Some(slot) => {
                self.pairs[slot] = Some(state);
                slot
            }
            None => {
                self.pairs.push(Some(state));
                self.pairs.len() - 1
            }
        };
        self.pair_index.entry(fp.0).or_default().push(i);
        self.stats.pairs_interned += 1;
        meters::PAIRS_INTERNED.inc();
        (PairId(i, generation), false)
    }

    fn pair(&self, pid: PairId) -> &PairState {
        self.pairs[pid.0]
            .as_ref()
            .filter(|p| p.generation == pid.1)
            .expect("stale PairId: the pair was evicted by the warm-capacity bound")
    }

    fn pair_mut(&mut self, pid: PairId) -> &mut PairState {
        self.pairs[pid.0]
            .as_mut()
            .filter(|p| p.generation == pid.1)
            .expect("stale PairId: the pair was evicted by the warm-capacity bound")
    }

    /// The disjoint-sum automaton of a prepared pair.
    pub fn sum_automaton(&self, pid: PairId) -> &Automaton {
        &self.pair(pid).sum.automaton
    }

    /// The sum's identifier mappings for a prepared pair.
    pub fn sum_info(&self, pid: PairId) -> &Sum {
        &self.pair(pid).sum
    }

    /// The root template pair of a prepared pair.
    pub fn root(&self, pid: PairId) -> TemplatePair {
        self.pair(pid).root
    }

    /// The reachable template pairs of a prepared pair under the engine's
    /// leap setting, memoized for the engine's lifetime.
    pub fn reachable(&mut self, pid: PairId) -> Arc<Vec<TemplatePair>> {
        self.scope_for(pid, self.config.options.leaps, true).0.pairs
    }

    /// The standard language-equivalence request for a prepared pair under
    /// the engine's configuration.
    pub fn standard_request(&self, pid: PairId) -> QueryRequest {
        QueryRequest {
            standard_init: true,
            extra_init: Vec::new(),
            query: ConfRel::trivial(self.root(pid)),
            options: self.config.options,
        }
    }

    /// Checks `L(left, ql) = L(right, qr)` for all initial stores, reusing
    /// every warm artifact the engine holds for this pair.
    pub fn check(
        &mut self,
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
    ) -> Outcome {
        // Open the trace window before interning so a cold pair's
        // `intern_pair`/`sum` spans land inside this query's tree.
        let qt = QueryTrace::begin(self.query_label.take());
        let (pid, _) = self.intern_pair(left, ql, right, qr);
        let req = self.standard_request(pid);
        self.run_prepared_traced(pid, &req, qt)
    }

    /// Runs an elaborated request over a prepared pair. Per-run statistics
    /// land in [`Engine::last_run_stats`].
    pub fn run_prepared(&mut self, pid: PairId, req: &QueryRequest) -> Outcome {
        let qt = QueryTrace::begin(self.query_label.take());
        self.run_prepared_traced(pid, req, qt)
    }

    fn run_prepared_traced(&mut self, pid: PairId, req: &QueryRequest, qt: QueryTrace) -> Outcome {
        let key = WarmKey::of(req);
        self.tick += 1;
        let tick = self.tick;
        let pair = self.pair_mut(pid);
        pair.last_used = tick;
        // The pair's sum/root artifacts were already resident iff a prior
        // run used them — counted here so every entry point (check,
        // Checker::run, the relational row runners) reports sum reuse
        // consistently.
        let sum_cache_hits = (pair.runs > 0) as u64;
        pair.runs += 1;
        let (outcome, mut stats) = match pair.outcomes.get_mut(&key) {
            Some(record) => {
                record.last_used = tick;
                record.replay()
            }
            None => {
                let opts = req.options;
                let (scope, reach_hit) = self.scope_for(pid, opts.leaps, opts.reach_pruning);
                let aut = self.pair(pid).sum.automaton.clone();
                let mut stats = RunStats {
                    reach_cache_hits: reach_hit as u64,
                    ..RunStats::default()
                };
                let outcome = run_worklist(&aut, &scope, req, &self.ledger, &mut stats);
                let mut record = OutcomeRecord::of(&outcome, &stats);
                record.last_used = tick;
                self.pair_mut(pid).outcomes.insert(key, record);
                (outcome, stats)
            }
        };
        stats.sum_cache_hits = sum_cache_hits;
        let fp = self.pair(pid).fingerprint;
        qt.finish(&mut stats, || format!("pair:{:016x}", fp.0));
        self.absorb_run(&stats);
        self.last_run = stats;
        self.enforce_caps();
        outcome
    }

    fn absorb_run(&mut self, stats: &RunStats) {
        self.stats.checks += 1;
        meters::CHECKS.inc();
        self.stats.outcome_replays += stats.outcome_replays;
        meters::OUTCOME_REPLAYS.add(stats.outcome_replays);
        self.stats.reach_cache_hits += stats.reach_cache_hits;
        self.stats.sum_cache_hits += stats.sum_cache_hits;
        let sat = &stats.queries.sat;
        meters::SAT_DECISIONS.add(sat.decisions);
        meters::SAT_PROPAGATIONS.add(sat.propagations);
        meters::SAT_CONFLICTS.add(sat.conflicts);
        meters::SAT_RESTARTS.add(sat.restarts);
        meters::SAT_LEARNT_DELETED.add(sat.deleted_clauses);
        for (bucket, n) in meters::SAT_LBD_BUCKETS.iter().zip(sat.lbd_histogram) {
            bucket.add(n);
        }
    }

    /// Applies the [`EngineConfig::warm_capacity`] LRU bound between runs:
    /// outcome records and interned pairs are each trimmed to the
    /// capacity, least-recently-used first, and the ledger's own eviction
    /// counter is mirrored into the engine statistics. Eviction only ever
    /// discards records of deterministic computations, so results are
    /// unaffected.
    fn enforce_caps(&mut self) {
        self.stats.ledger_evictions = self.ledger.evictions();
        let cap = self.config.warm_capacity;
        if cap == 0 {
            return;
        }
        // Outcome records, engine-wide.
        loop {
            let total: usize = self.pairs.iter().flatten().map(|p| p.outcomes.len()).sum();
            if total <= cap {
                break;
            }
            let mut victim: Option<(usize, WarmKey, u64)> = None;
            for (i, p) in self.pairs.iter().enumerate() {
                let Some(p) = p else { continue };
                for (k, r) in &p.outcomes {
                    if victim.as_ref().is_none_or(|(_, _, t)| r.last_used < *t) {
                        victim = Some((i, k.clone(), r.last_used));
                    }
                }
            }
            let (i, key, _) = victim.expect("count above cap implies a victim");
            self.pairs[i].as_mut().unwrap().outcomes.remove(&key);
            self.stats.warm_evictions += 1;
            meters::WARM_EVICTIONS.inc();
        }
        // Interned pairs.
        loop {
            let live = self.pairs.iter().flatten().count();
            if live <= cap {
                break;
            }
            let victim = self
                .pairs
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.as_ref().map(|p| (i, p.last_used)))
                .min_by_key(|&(_, t)| t)
                .expect("count above cap implies a victim")
                .0;
            let evicted = self.pairs[victim].take().expect("victim is live");
            if let Some(bucket) = self.pair_index.get_mut(&evicted.fingerprint.0) {
                bucket.retain(|&i| i != victim);
                if bucket.is_empty() {
                    self.pair_index.remove(&evicted.fingerprint.0);
                }
            }
            self.free_slots.push(victim);
            self.stats.pair_evictions += 1;
            meters::PAIR_EVICTIONS.inc();
        }
    }

    /// Answers many language-equivalence queries, scheduling them over
    /// [`EngineConfig::threads`] worker threads: queries on *distinct*
    /// pairs run concurrently (each worker drains a shared cursor over the
    /// pair groups), while queries on the *same* pair run back-to-back in
    /// one group so the later ones replay the first one's outcome record.
    /// Each query runs whole on one worker. With one thread the batch runs
    /// sequentially and still reuses everything.
    /// Outcomes are returned in submission order and are bit-identical to
    /// checking each spec individually; each spec's own statistics land in
    /// [`Engine::last_batch_stats`], the merged record in
    /// [`Engine::last_run_stats`].
    ///
    /// # Example
    ///
    /// ```
    /// use leapfrog::{EngineConfig, QuerySpec};
    /// use leapfrog_p4a::surface::parse;
    ///
    /// let a = parse("parser A { state s { extract(h, 2); goto accept } }").unwrap();
    /// let q = a.state_by_name("s").unwrap();
    /// let mut engine = EngineConfig::new().threads(1).build();
    /// let spec = QuerySpec::new("self", &a, q, &a, q);
    /// // The second query replays the outcome the first one recorded.
    /// let outcomes = engine.check_batch(&[spec.clone(), spec]);
    /// assert!(outcomes.iter().all(|o| o.is_equivalent()));
    /// assert_eq!(engine.last_batch_stats()[1].outcome_replays, 1);
    /// ```
    pub fn check_batch(&mut self, specs: &[QuerySpec]) -> Vec<Outcome> {
        self.stats.batches += 1;
        meters::BATCHES.inc();
        let threads = self.config.effective_threads();
        let mut outcomes: Vec<Option<Outcome>> = (0..specs.len()).map(|_| None).collect();
        let mut members: Vec<RunStats> = vec![RunStats::default(); specs.len()];
        let mut merged = RunStats::default();
        if threads <= 1 {
            // Sequential batch: every query runs on the calling thread,
            // and warm reuse across duplicate specs still applies.
            for (i, s) in specs.iter().enumerate() {
                self.set_query_label(&s.name);
                outcomes[i] = Some(self.check(&s.left, s.ql, &s.right, s.qr));
                members[i] = self.last_run.clone();
                merged.merge(&self.last_run);
            }
        } else {
            // Parallel batch members bypass `run_prepared`, so the
            // phase breakdown (and slow-query capture, which is
            // per-query only) is accounted batch-wide here: one delta
            // over the whole parallel section. Worker spans carry no
            // cross-thread parent, so they aggregate but don't nest.
            let phase_base = trace::collector().phase_snapshot();
            // Group submission indices by interned pair, preserving
            // first-seen order (the deterministic order stats merge in).
            let mut groups: Vec<(PairId, Vec<usize>)> = Vec::new();
            for (i, s) in specs.iter().enumerate() {
                let (pid, _) = self.intern_pair(&s.left, s.ql, &s.right, s.qr);
                match groups.iter_mut().find(|(p, _)| *p == pid) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((pid, vec![i])),
                }
            }
            // Parallel batch: one task per pair group. Queries of the same
            // group run back-to-back on one worker, so after the first one
            // the rest replay its outcome record.
            struct GroupTask {
                pid: PairId,
                aut: Automaton,
                req: QueryRequest,
                /// The group's outcome record: found before the batch, or
                /// left by the group's first query.
                record: Option<OutcomeRecord>,
                /// The scope a search needs, and whether it was memoized;
                /// `None` when the group replays from the start.
                scope: Option<(Scope, bool)>,
                /// This pair's run count before the batch — the group's
                /// first query reports sum reuse iff it is nonzero; later
                /// group members always reuse.
                prior_runs: u64,
                indices: Vec<usize>,
                results: Vec<(usize, Outcome, RunStats)>,
            }
            let opts = self.config.options;
            let mut tasks: Vec<GroupTask> = groups
                .into_iter()
                .map(|(pid, indices)| {
                    let req = self.standard_request(pid);
                    let key = WarmKey::of(&req);
                    let record = self.pair_mut(pid).outcomes.remove(&key);
                    let scope = record
                        .is_none()
                        .then(|| self.scope_for(pid, opts.leaps, opts.reach_pruning));
                    let pair = self.pair_mut(pid);
                    let prior_runs = pair.runs;
                    pair.runs += indices.len() as u64;
                    GroupTask {
                        pid,
                        aut: pair.sum.automaton.clone(),
                        req,
                        record,
                        scope,
                        prior_runs,
                        indices,
                        results: Vec::new(),
                    }
                })
                .collect();
            let ledger = &self.ledger;
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            let task_cells: Vec<std::sync::Mutex<Option<&mut GroupTask>>> = tasks
                .iter_mut()
                .map(|t| std::sync::Mutex::new(Some(t)))
                .collect();
            std::thread::scope(|s| {
                for _ in 0..threads.min(task_cells.len()) {
                    let cursor = &cursor;
                    let task_cells = &task_cells;
                    s.spawn(move || loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= task_cells.len() {
                            break;
                        }
                        let Some(task) = task_cells[i].lock().unwrap().take() else {
                            continue;
                        };
                        for &qi in &task.indices {
                            let (outcome, stats) = match &task.record {
                                Some(record) => record.replay(),
                                None => {
                                    let (scope, reach_hit) =
                                        task.scope.as_ref().expect("a searching group has a scope");
                                    let mut stats = RunStats {
                                        reach_cache_hits: *reach_hit as u64,
                                        ..RunStats::default()
                                    };
                                    let outcome = run_worklist(
                                        &task.aut, scope, &task.req, ledger, &mut stats,
                                    );
                                    task.record = Some(OutcomeRecord::of(&outcome, &stats));
                                    (outcome, stats)
                                }
                            };
                            task.results.push((qi, outcome, stats));
                        }
                    });
                }
            });
            for mut task in tasks {
                self.tick += 1;
                if let Some(mut record) = task.record.take() {
                    record.last_used = self.tick;
                    let key = WarmKey::of(&task.req);
                    self.pair_mut(task.pid).outcomes.insert(key, record);
                }
                for (j, (qi, outcome, mut stats)) in task.results.drain(..).enumerate() {
                    stats.sum_cache_hits = (j > 0 || task.prior_runs > 0) as u64;
                    self.absorb_run(&stats);
                    merged.merge(&stats);
                    outcomes[qi] = Some(outcome);
                    members[qi] = stats;
                }
            }
            if trace::collector().enabled() {
                merged.phases = trace::collector().phase_snapshot().delta(&phase_base);
            }
        }
        self.last_run = merged;
        self.last_batch = members;
        self.enforce_caps();
        outcomes.into_iter().map(Option::unwrap).collect()
    }

    /// The template pairs a query over `pid` considers and their
    /// predecessor index, memoized per `(leaps, reach_pruning)`. The second
    /// component reports whether the scope was served from the memo.
    fn scope_for(&mut self, pid: PairId, leaps: bool, reach_pruning: bool) -> (Scope, bool) {
        let pair = self.pair_mut(pid);
        if let Some(s) = pair.scopes.get(&(leaps, reach_pruning)) {
            return (s.clone(), true);
        }
        let _reach_span = trace::span(Phase::Reach);
        let scope = if reach_pruning {
            reachable_pairs(&pair.sum.automaton, &[pair.root], leaps)
        } else {
            unpruned_pairs(&pair.sum)
        };
        let scope = Scope {
            preds: Arc::new(PredecessorIndex::new(&pair.sum.automaton, &scope, leaps)),
            pairs: Arc::new(scope),
        };
        pair.scopes.insert((leaps, reach_pruning), scope.clone());
        (scope, false)
    }
}

/// Algorithm 1 over engine-owned resources, on the calling thread: the
/// guard-indexed worklist, processed one frontier generation at a time.
/// Entailments go through a session pool that lives for this run: premise
/// clauses, learnt CDCL state and CEGAR instantiations carry over from one
/// check of a guard to the next, and the pool is dropped on return. The
/// pool's sessions share the engine's instantiation ledger.
///
/// The query's shape comes from `req`.
fn run_worklist(
    aut: &Automaton,
    scope: &Scope,
    req: &QueryRequest,
    ledger: &InstLedger,
    stats: &mut RunStats,
) -> Outcome {
    let start = Instant::now();
    let opts = &req.options;
    let mut solver = SmtSolver::new();
    let mut pool = SessionPool::with_ledger(ledger.clone());
    stats.scope_pairs = scope.pairs.len();
    stats.threads = 1;

    // Initial relation I (Lemma 4.10 / Theorem 5.2): forbid pairs that
    // disagree on acceptance, restricted to the scope; plus any
    // user-supplied conditions.
    //
    // Every relation that enters the frontier gets a provenance record
    // — which relation its weakest precondition was derived from — so a
    // refutation can be lifted into a concrete witness by walking the
    // wp chain back to the violated initial conjunct.
    // The provenance table, the dedup map and the relation store share
    // each relation via `Arc`, so a relation is deep-stored exactly
    // once however many structures reference it.
    let mut frontier: VecDeque<usize> = VecDeque::new();
    let mut prov: Vec<(Arc<ConfRel>, Option<usize>)> = Vec::new();
    let mut seen: HashMap<Arc<ConfRel>, usize> = HashMap::new();
    let mut init: Vec<ConfRel> = Vec::new();
    if req.standard_init {
        for p in scope.pairs.iter() {
            if p.left.is_accepting() != p.right.is_accepting() {
                init.push(ConfRel::forbidden(*p));
            }
        }
    }
    init.extend(req.extra_init.iter().cloned());
    for rel in &init {
        if !seen.contains_key(rel) {
            let id = prov.len();
            let shared = Arc::new(rel.clone());
            seen.insert(shared.clone(), id);
            prov.push((shared, None));
            frontier.push_back(id);
        }
    }

    let mut relation = RelationStore::new();
    // Seals the run-wide statistics before returning any outcome, so
    // `extended` (= |R|), wall time and query counters are populated on
    // the `Equivalent`, `NotEquivalent` *and* `Aborted` paths alike.
    macro_rules! seal {
        ($relation_len:expr) => {{
            stats.wall_time = start.elapsed();
            let mut queries = solver.stats().clone();
            queries.absorb(&pool.stats());
            stats.queries = queries;
            stats.extended = $relation_len as u64;
        }};
    }

    let violation = |rho: &ConfRel,
                     id: usize,
                     prov: &[(Arc<ConfRel>, Option<usize>)],
                     solver: &mut SmtSolver,
                     stats: &mut RunStats|
     -> Option<Refutation> {
        query_violation(aut, &req.query, rho, id, prov, solver, stats)
    };

    let mut batch: Vec<usize> = Vec::new();
    let mut generation: u64 = 0;
    loop {
        // One frontier generation per round: everything currently
        // queued, in frontier order.
        batch.clear();
        batch.extend(frontier.drain(..));
        if batch.is_empty() {
            break;
        }
        let _generation_span = trace::span_indexed(Phase::Generation, generation);
        generation += 1;

        for &id in &batch {
            let psi = prov[id].0.clone();
            stats.iterations += 1;
            if let Some(limit) = opts.max_iterations {
                if stats.iterations > limit {
                    let len = relation.len();
                    seal!(len);
                    return Outcome::Aborted(format!(
                        "iteration budget {limit} exhausted with |R| = {len}"
                    ));
                }
            }
            stats.max_formula_size = stats.max_formula_size.max(psi.phi.size());

            stats.entailment_checks += 1;
            meters::ENTAILMENT_CHECKS.inc();
            stats.premises_matched += relation.matching_count(psi.guard) as u64;
            stats.premises_total += relation.len() as u64;
            if pool.check(aut, &relation.matching(psi.guard), &psi) {
                stats.skipped += 1;
                continue;
            }
            // Early failure: ψ will be part of R, and the Close step
            // requires φ ⊨ ψ.
            if opts.early_stop && psi.guard == req.query.guard {
                if let Some(refutation) = violation(&psi, id, &prov, &mut solver, stats) {
                    let len = relation.len();
                    seal!(len);
                    return Outcome::NotEquivalent(refutation);
                }
            }
            // Only predecessors that can step into ψ's guard have a
            // nonvacuous WP; the index lists them in scope order.
            for &pos in scope.preds.predecessors(psi.guard) {
                stats.wp_calls += 1;
                if let Some(chi) = wp(aut, &psi, &scope.pairs[pos], opts.leaps) {
                    stats.wp_generated += 1;
                    if !seen.contains_key(&chi) {
                        let cid = prov.len();
                        let shared = Arc::new(chi);
                        seen.insert(shared.clone(), cid);
                        prov.push((shared, Some(id)));
                        frontier.push_back(cid);
                    }
                }
            }
            relation.push(psi);
        }
    }

    // Close: φ ⊨ ⋀R, checked conjunct by conjunct (non-matching guards
    // are vacuous after template filtering).
    for rho in relation.iter() {
        if rho.guard != req.query.guard {
            continue;
        }
        let id = seen[rho];
        if let Some(refutation) = violation(rho, id, &prov, &mut solver, stats) {
            let len = relation.len();
            seal!(len);
            return Outcome::NotEquivalent(refutation);
        }
    }

    let len = relation.len();
    seal!(len);
    let _certificate_span = trace::span(Phase::Certificate);
    Outcome::Equivalent(Certificate {
        leaps: opts.leaps,
        standard_init: req.standard_init,
        query: req.query.clone(),
        init,
        relation: relation.to_vec(),
    })
}

/// Checks `φ ⊨ ρ`; on failure lifts the countermodel into a concrete,
/// confirmed, minimized witness via the counterexample engine. `id`
/// indexes `prov`, whose parent links trace ρ back through the wp
/// chain to the initial conjunct it was derived from; the chain shares
/// the provenance table's relations by `Arc`.
///
/// Runs on the per-query one-shot solver (not the guard sessions), so the
/// extracted countermodel — and therefore the witness — is independent of
/// session history. An unconfirmed witness is returned
/// as such and counted in [`RunStats::witnesses_unconfirmed`].
fn query_violation(
    aut: &Automaton,
    query: &ConfRel,
    rho: &ConfRel,
    id: usize,
    prov: &[(Arc<ConfRel>, Option<usize>)],
    solver: &mut SmtSolver,
    stats: &mut RunStats,
) -> Option<Refutation> {
    let q = lower::lower(aut, std::slice::from_ref(query), rho);
    match solver.check_valid(&q.decls, &q.goal) {
        CheckResult::Valid => None,
        CheckResult::Invalid(model) => {
            let _witness_span = trace::span(Phase::Witness);
            let diagnostic = format!(
                "query {} does not entail {}\ncountermodel:\n{}",
                query.display(aut),
                rho.display(aut),
                model.display(&q.decls)
            );
            let mut chain: Vec<Arc<ConfRel>> = Vec::new();
            let mut cursor = Some(id);
            while let Some(i) = cursor {
                chain.push(prov[i].0.clone());
                cursor = prov[i].1;
            }
            let refutation = build_witness(aut, &chain, &q.decls, &q.vars, &model, diagnostic);
            match &refutation {
                Refutation::Witness(_) => stats.witnesses_confirmed += 1,
                Refutation::Unconfirmed { .. } => stats.witnesses_unconfirmed += 1,
            }
            Some(refutation)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::surface::parse;

    fn pair_a() -> (Automaton, StateId, Automaton, StateId) {
        let a = parse(
            "parser A { state s { extract(h, 4);
               select(h[0:1]) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(pre, 2); goto t }
                        state t { extract(suf, 2);
               select(pre) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let (sa, sb) = (a.state_by_name("s").unwrap(), b.state_by_name("s").unwrap());
        (a, sa, b, sb)
    }

    fn pair_b() -> (Automaton, StateId, Automaton, StateId) {
        let a = parse(
            "parser C { state s { extract(h, 2);
               select(h) { 0b10 => accept; _ => reject; } } }",
        )
        .unwrap();
        let sa = a.state_by_name("s").unwrap();
        (a.clone(), sa, a, sa)
    }

    fn cert_of(outcome: &Outcome) -> String {
        match outcome {
            Outcome::Equivalent(cert) => cert.to_json(),
            other => panic!("expected Equivalent, got {other:?}"),
        }
    }

    #[test]
    fn warm_capacity_evicts_without_changing_results() {
        let (a, sa, b, sb) = pair_a();
        let (c, sc, d, sd) = pair_b();
        let reference = {
            let mut unbounded = EngineConfig::new().threads(1).build();
            (
                cert_of(&unbounded.check(&a, sa, &b, sb)),
                cert_of(&unbounded.check(&c, sc, &d, sd)),
            )
        };
        let mut engine = EngineConfig::new().threads(1).warm_capacity(1).build();
        // Alternating pairs under capacity 1: every switch evicts the
        // other pair's outcome record, yet every certificate is identical.
        for _ in 0..2 {
            assert_eq!(reference.0, cert_of(&engine.check(&a, sa, &b, sb)));
            assert_eq!(reference.1, cert_of(&engine.check(&c, sc, &d, sd)));
        }
        let stats = engine.stats();
        assert!(stats.warm_evictions > 0, "{stats:?}");
        assert!(stats.pair_evictions > 0, "{stats:?}");
        // Capacity 0 (unbounded) never evicts.
        let mut unbounded = EngineConfig::new().threads(1).build();
        unbounded.check(&a, sa, &b, sb);
        unbounded.check(&c, sc, &d, sd);
        assert_eq!(unbounded.stats().warm_evictions, 0);
        assert_eq!(unbounded.stats().pair_evictions, 0);
    }

    #[test]
    fn state_round_trips_through_a_directory() {
        let dir = std::env::temp_dir().join(format!(
            "leapfrog-engine-state-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, sa, b, sb) = pair_a();

        let mut first = EngineConfig::new().threads(1).build();
        let cold_cert = cert_of(&first.check(&a, sa, &b, sb));
        let cold = first.last_run_stats().clone();
        assert_eq!(cold.outcome_replays, 0);
        first.save_state(&dir).unwrap();
        // State dirs saved by older builds also hold a `warm_memos.json` of
        // entailment verdicts, a `blast_cache.txt` of CNF templates and a
        // `corpus.txt` of witness packets; a restarted engine ignores all
        // three, and saving leaves them as found.
        let legacy = [
            (
                dir.join("warm_memos.json"),
                "{\"version\": 1, \"pairs\": []}\n",
            ),
            (
                dir.join("blast_cache.txt"),
                "# leapfrog-blast-cache v1\nt 3 2 =(v0:2,#11)\nc -3 1\nc -3 2\nc 3 -1 -2\nc 3\n",
            ),
            (
                dir.join("corpus.txt"),
                "# leapfrog-witness-corpus v1\npair toy\npacket 11\nleft -\nright -\n",
            ),
        ];
        for (path, text) in &legacy {
            std::fs::write(path, text).unwrap();
        }

        // A fresh engine restarted from the saved state answers from the
        // recorded proof — no search, no solver — and the certificate is
        // byte-identical.
        let mut second = EngineConfig::new().threads(1).with_state_dir(&dir).build();
        let report = second.state_report().expect("state must be reported");
        assert!(report.contains("1 recorded proofs"), "{report}");
        let warm_cert = cert_of(&second.check(&a, sa, &b, sb));
        assert_eq!(cold_cert, warm_cert);
        let stats = second.last_run_stats();
        assert_eq!(stats.outcome_replays, 1, "{stats:?}");
        assert_eq!(
            (stats.iterations, stats.entailment_checks, stats.wp_calls),
            (0, 0, 0),
            "{stats:?}"
        );
        assert_eq!(stats.queries.queries, 0, "{stats:?}");
        assert_eq!(stats.extended, cold.extended, "{stats:?}");
        second.save_state(&dir).unwrap();
        for (path, text) in &legacy {
            assert_eq!(
                std::fs::read_to_string(path).unwrap(),
                *text,
                "a leftover {} is never touched",
                path.display()
            );
        }

        // The restarted engine re-saves the proof it loaded unchanged.
        let proofs = first.proofs_to_jsonl();
        assert_eq!(proofs.lines().count(), 1);
        assert_eq!(
            std::fs::read_to_string(dir.join(STATE_OUTCOME_FILE)).unwrap(),
            proofs
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_state_dir_is_a_cold_start() {
        let engine = EngineConfig::new()
            .with_state_dir("/nonexistent/leapfrog-state")
            .build();
        assert!(engine.state_report().is_none());
    }

    #[test]
    fn route_fingerprint_is_stable_and_separates_pairs() {
        let (a, sa, b, sb) = pair_a();
        let (c, sc, d, sd) = pair_b();
        // Deterministic across calls (and, because DefaultHasher is
        // deterministically keyed, across processes of the same build):
        // the shard index `fp % N` never moves for a given pair.
        let fp = route_fingerprint(&a, sa, &b, sb);
        assert_eq!(fp, route_fingerprint(&a, sa, &b, sb));
        assert_eq!(fp, route_fingerprint(&a.clone(), sa, &b.clone(), sb));
        assert_ne!(fp, route_fingerprint(&c, sc, &d, sd));
        // The packed value is exactly the persisted warm-state key, so
        // routed proof import and intern-time claiming agree.
        let (half, half2) = pair_fingerprint(&a, sa, &b, sb);
        assert_eq!(fp, ((half as u128) << 64) | half2 as u128);
    }

    #[test]
    fn routed_memo_import_partitions_by_fingerprint() {
        let dir = std::env::temp_dir().join(format!(
            "leapfrog-engine-merge-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, sa, b, sb) = pair_a();
        let (c, sc, d, sd) = pair_b();

        // One engine (a 1-worker fleet) serves both pairs and saves.
        let mut donor = EngineConfig::new().threads(1).build();
        let cert_ab = cert_of(&donor.check(&a, sa, &b, sb));
        let cert_cd = cert_of(&donor.check(&c, sc, &d, sd));
        donor.save_state(&dir).unwrap();

        // Reload into a 2-shard fleet: each shard keeps only the proofs
        // routed to it, and together they cover everything exactly once.
        let fp_ab = route_fingerprint(&a, sa, &b, sb);
        let fp_cd = route_fingerprint(&c, sc, &d, sd);
        let workers = 2u128;
        let mut shards: Vec<Engine> = (0..workers)
            .map(|shard| {
                let mut e = EngineConfig::new().threads(1).build();
                e.import_outcomes_routed(&dir, &|fp| fp % workers == shard)
                    .unwrap();
                e
            })
            .collect();
        let adopted: usize = shards
            .iter()
            .map(|e| e.saved_proofs.values().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(adopted, 2);
        for (shard, engine) in shards.iter().enumerate() {
            for key in engine.saved_proofs.keys() {
                let packed = ((key.0 as u128) << 64) | key.1 as u128;
                assert_eq!(
                    packed % workers,
                    shard as u128,
                    "proof routed to the wrong shard"
                );
            }
        }

        // Each routed shard answers its own pair from the proof, with no
        // search, byte-identical to the donor's certificate.
        let home_ab = (fp_ab % workers) as usize;
        let home_cd = (fp_cd % workers) as usize;
        assert_eq!(cert_ab, cert_of(&shards[home_ab].check(&a, sa, &b, sb)));
        let run = shards[home_ab].last_run_stats();
        assert_eq!((run.outcome_replays, run.iterations), (1, 0), "{run:?}");
        assert_eq!(cert_cd, cert_of(&shards[home_cd].check(&c, sc, &d, sd)));
        let run = shards[home_cd].last_run_stats();
        assert_eq!((run.outcome_replays, run.iterations), (1, 0), "{run:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_pair_slots_are_recycled_and_stale_handles_detected() {
        let (a, sa, b, sb) = pair_a();
        let (c, sc, d, sd) = pair_b();
        let mut engine = EngineConfig::new().threads(1).warm_capacity(1).build();
        let stale = engine.prepare_pair(&a, sa, &b, sb);
        // Interning + checking a second pair evicts the first under
        // capacity 1 and must reuse its slot rather than growing the
        // table.
        assert!(engine.check(&c, sc, &d, sd).is_equivalent());
        assert!(engine.stats().pair_evictions > 0);
        let slots_after_eviction = engine.pairs.len();
        // The evicted pair's slot is tombstoned, and a stale handle into
        // it is detected instead of silently resolving to another pair.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.sum_automaton(stale);
        }));
        assert!(err.is_err(), "a stale PairId must not resolve");
        // Re-interning the evicted pair recycles the freed slot (no
        // unbounded slot growth for a long-lived daemon) and yields a
        // fresh, working handle.
        let fresh = engine.prepare_pair(&a, sa, &b, sb);
        assert_eq!(
            engine.pairs.len(),
            slots_after_eviction,
            "the freed slot must be reused, not a new one pushed"
        );
        assert!(engine.sum_automaton(fresh).num_states() > 0);
    }
}
