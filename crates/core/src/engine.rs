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
//! * the cross-query structural CNF cache ([`SharedBlastCache`]), shared
//!   by every query, batch worker and session the engine ever runs;
//! * the cross-session instantiation ledger ([`InstLedger`]): `∀`-block
//!   validation verdicts keyed by canonical block identity and support
//!   valuation, so sessions sharing a guard shape — across pools, batch
//!   workers and queries — never re-solve a validation;
//! * memoized per-pair artifacts: the disjoint-sum construction, the
//!   reachable template-pair sets and the in-scope template lists, interned
//!   by automaton pair ([`Engine::prepare_pair`]);
//! * warm per-guard [`SessionPool`]s plus an exact entailment-verdict memo
//!   per query shape: re-checking a pair replays the recorded `Skip`
//!   verdicts without touching the solver, and the sessions stay resident
//!   for any check that diverges.
//!
//! [`Engine::check`] answers one language-equivalence query on the
//! calling thread; [`Engine::check_batch`] schedules many queries over
//! worker threads — parallelism *across* queries, never inside one.
//! Results are bit-identical to the one-shot path: certificates and
//! witnesses do not depend on engine warmth, thread count, batching, or
//! cache state (asserted in `tests/engine.rs`).
//!
//! The historical [`Checker`](crate::Checker) and
//! [`check_language_equivalence`](crate::checker::check_language_equivalence)
//! entry points are thin wrappers over a transient engine.
//!
//! Long-running engines additionally support **capacity bounds and
//! persistence**: [`EngineConfig::warm_capacity`] (env `LEAPFROG_WARM_CAP`,
//! `0` = unbounded) puts an LRU eviction bound on every warm-state map —
//! query-shape memos, resident guard sessions, interned pair artifacts and
//! the instantiation ledger — with eviction counters surfaced in
//! [`EngineStats`]; and [`Engine::save_state`] /
//! [`EngineConfig::with_state_dir`] serialize and reload the blast-cache
//! templates, the ledger verdicts, the entailment-verdict memos and the
//! witness corpus, so a restarted service warms up from disk instead of
//! re-solving from cold. Neither knob ever changes results — eviction and
//! persistence trade wall-clock only (asserted in `tests/serve.rs`).

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use leapfrog_cex::{build_witness, Refutation, Witness};
use leapfrog_logic::confrel::ConfRel;
use leapfrog_logic::incremental::{SessionConfig, SessionPool};
use leapfrog_logic::lower;
use leapfrog_logic::reach::{reachable_pairs, unpruned_pairs, PredecessorIndex};
use leapfrog_logic::store::RelationStore;
use leapfrog_logic::templates::{Template, TemplatePair};
use leapfrog_logic::wp::wp;
use leapfrog_obs::{trace, Phase};
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::sum::{sum, Sum};
use leapfrog_smt::{
    CheckResult, InstLedger, SharedBlastCache, SmtSolver, SolverConfig, LBD_BUCKETS,
};

use crate::certificate::Certificate;
use crate::checker::{strict_witness_violation, Options, Outcome};
use crate::json::{self, Value};
use crate::stats::RunStats;

/// The default retired-to-live clause ratio that triggers a session
/// context rebuild.
pub const DEFAULT_SESSION_GC_RATIO: f64 = 4.0;

/// The default live-clause floor under which the session GC never
/// rebuilds a context.
pub const DEFAULT_SESSION_GC_FLOOR: u64 = 512;

/// File inside a state directory holding the blast-cache CNF templates.
pub const STATE_BLAST_FILE: &str = "blast_cache.txt";
/// File inside a state directory holding the instantiation-ledger verdicts.
pub const STATE_LEDGER_FILE: &str = "inst_ledger.txt";
/// File inside a state directory holding the entailment-verdict memos.
pub const STATE_MEMO_FILE: &str = "warm_memos.json";
/// File inside a state directory holding the serialized witness corpus.
pub const STATE_CORPUS_FILE: &str = "corpus.txt";

/// Typed, buildable configuration for an [`Engine`]: the one home of every
/// engine knob. [`EngineConfig::from_env`] is the only place the
/// `LEAPFROG_*` tuning variables are read; the builder methods are the
/// first-class path.
///
/// | Env var | Config field |
/// |---|---|
/// | `LEAPFROG_THREADS` | [`threads`](Self::threads) |
/// | `LEAPFROG_SESSION_GC` | [`session_gc_ratio`](Self::session_gc_ratio) |
/// | `LEAPFROG_SESSION_GC_FLOOR` | [`session_gc_floor`](Self::session_gc_floor) |
/// | `LEAPFROG_STRICT_WITNESS` | [`strict_witness`](Self::strict_witness) |
/// | `LEAPFROG_NO_BLAST_CACHE` | [`blast_cache`](Self::blast_cache) |
/// | `LEAPFROG_SAT_LBD` | [`sat_lbd`](Self::sat_lbd) |
/// | `LEAPFROG_WARM_CAP` | [`warm_capacity`](Self::warm_capacity) |
///
/// Only [`options`](Self::options) changes *what* is computed (it is the
/// default shape of every query the engine answers); everything else
/// changes how fast.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The default query shape: leaps, reachability pruning, early stop
    /// and the iteration budget. [`Engine::standard_request`] copies it
    /// into every standard request.
    pub options: Options,
    /// Worker threads [`Engine::check_batch`] runs queries on (`0` =
    /// available parallelism). One query always runs on the thread that
    /// asked. Results are bit-identical at every setting.
    pub threads: usize,
    /// Treat an unconfirmed refutation witness as a hard error (panic) for
    /// standard language-equivalence queries, where lifting must succeed.
    /// Relational queries with a caller-supplied initial relation are
    /// exempt: no sound generic search exists for arbitrary relational
    /// conjuncts.
    pub strict_witness: bool,
    /// Clause-budget GC for the per-guard incremental sessions: a session
    /// rebuilds its solver context (re-seeding premises and persisted
    /// CEGAR instantiations) once the clauses retired by finished queries
    /// exceed `ratio ×` its live clauses. `None` disables the GC.
    /// Results are bit-identical at every setting.
    pub session_gc_ratio: Option<f64>,
    /// Live-clause floor for the session GC: a context holding fewer live
    /// clauses than this never rebuilds — small cache-served sessions
    /// churn retired clauses quickly, and rebuilding them costs more than
    /// it reclaims. Results are bit-identical at every setting.
    pub session_gc_floor: u64,
    /// Whether the shared structural CNF cache is enabled. Results are
    /// identical either way.
    pub blast_cache: bool,
    /// Glucose-style two-tier LBD learnt-clause management in every CDCL
    /// solve the engine runs (off = activity-only deletion, the ablation
    /// baseline). Verdicts and witnesses are identical either way.
    pub sat_lbd: bool,
    /// LRU capacity bound on the warm-state maps (`0` = unbounded): at
    /// most this many warm query-shape states, interned pairs, resident
    /// guard sessions per pool and instantiation-ledger entries stay
    /// live; least-recently-used entries beyond the bound are evicted
    /// between runs. Results never depend on eviction.
    pub warm_capacity: usize,
    /// Directory to reload persisted warm state from at construction
    /// (blast-cache templates, ledger verdicts, entailment memos). Written
    /// by [`Engine::save_state`]; a missing directory or file is simply a
    /// cold start.
    pub state_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            options: Options::default(),
            threads: 0,
            strict_witness: false,
            session_gc_ratio: Some(DEFAULT_SESSION_GC_RATIO),
            session_gc_floor: DEFAULT_SESSION_GC_FLOOR,
            blast_cache: true,
            sat_lbd: true,
            warm_capacity: 0,
            state_dir: None,
        }
    }
}

impl EngineConfig {
    /// Pure defaults: every optimization on, auto thread count, GC ratio 4
    /// with a 512-clause floor — independent of the environment.
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// The environment constructor: reads every `LEAPFROG_*` tuning
    /// variable into its config field (see the type-level table). The
    /// query shape keeps its defaults.
    pub fn from_env() -> EngineConfig {
        fn var(name: &str) -> Option<String> {
            std::env::var(name).ok()
        }
        fn parsed<T: std::str::FromStr>(name: &str) -> Option<T> {
            var(name)?.parse().ok()
        }
        EngineConfig {
            threads: parsed("LEAPFROG_THREADS").unwrap_or(0),
            strict_witness: matches!(
                var("LEAPFROG_STRICT_WITNESS").as_deref(),
                Some("1") | Some("true")
            ),
            session_gc_ratio: match var("LEAPFROG_SESSION_GC") {
                Some(s) if s.trim().eq_ignore_ascii_case("off") => None,
                Some(s) => match s.trim().parse::<f64>() {
                    // Any spelling of a non-positive ratio ("0", "0.0",
                    // "0e0") disables the GC, matching the documented
                    // contract.
                    Ok(r) if r.is_finite() && r > 0.0 => Some(r),
                    Ok(_) => None,
                    Err(_) => Some(DEFAULT_SESSION_GC_RATIO),
                },
                None => Some(DEFAULT_SESSION_GC_RATIO),
            },
            session_gc_floor: parsed("LEAPFROG_SESSION_GC_FLOOR")
                .unwrap_or(DEFAULT_SESSION_GC_FLOOR),
            blast_cache: var("LEAPFROG_NO_BLAST_CACHE").as_deref() != Some("1"),
            sat_lbd: var("LEAPFROG_SAT_LBD").as_deref() != Some("0"),
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

    /// The CDCL configuration of every solve the engine runs.
    fn solver_config(&self) -> SolverConfig {
        SolverConfig { lbd: self.sat_lbd }
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

    /// Enables or disables strict witness mode (builder style).
    pub fn strict_witness(mut self, on: bool) -> Self {
        self.strict_witness = on;
        self
    }

    /// Sets the session GC ratio (builder style).
    pub fn session_gc_ratio(mut self, ratio: Option<f64>) -> Self {
        self.session_gc_ratio = ratio;
        self
    }

    /// Sets the session GC live-clause floor (builder style).
    pub fn session_gc_floor(mut self, floor: u64) -> Self {
        self.session_gc_floor = floor;
        self
    }

    /// Enables or disables the shared blast cache (builder style).
    pub fn blast_cache(mut self, on: bool) -> Self {
        self.blast_cache = on;
        self
    }

    /// Enables or disables LBD-tiered learnt-clause management in the
    /// CDCL core (builder style).
    pub fn sat_lbd(mut self, on: bool) -> Self {
        self.sat_lbd = on;
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
    /// Name used for reporting and witness-corpus recording.
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

/// Recipient for confirmed refutation witnesses found by named checks
/// ([`Engine::check_named`] / [`Engine::check_batch`]). The witness
/// regression corpus in the evaluation suite implements this, so an
/// engine can feed it directly.
pub trait WitnessSink: Send {
    /// Records a confirmed witness under a query name; returns whether
    /// the entry was new.
    fn record(&mut self, name: &str, witness: &Witness) -> bool;

    /// A serialized form of the sink's contents, if it has one —
    /// [`Engine::save_state`] writes it next to the engine's own state so
    /// a witness corpus survives a daemon restart. The default sink has
    /// nothing to persist.
    fn export_text(&self) -> Option<String> {
        None
    }
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
    /// Warm guard sessions attached to queries (counted once per session
    /// per warm attach).
    pub sessions_reused: u64,
    /// Entailment verdicts replayed from warm-state memos without any
    /// solver contact.
    pub entailment_memo_hits: u64,
    /// Warm query-shape states (memo + session pools) evicted by the
    /// [`EngineConfig::warm_capacity`] LRU bound.
    pub warm_evictions: u64,
    /// Interned pairs evicted by the capacity bound (sum construction,
    /// scope sets and warm state dropped; a later query re-interns).
    pub pair_evictions: u64,
    /// Guard sessions pruned from retained warm session pools by the
    /// capacity bound.
    pub session_evictions: u64,
    /// Instantiation-ledger entries evicted by the capacity bound
    /// (mirrors the ledger's own counter).
    pub ledger_evictions: u64,
}

/// Per-pair interned artifacts plus the warm per-query-shape state.
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
    /// Warm session pools + verdict memos keyed by query shape.
    warm: HashMap<WarmKey, WarmState>,
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
/// between distinct pairs cannot attach a saved memo to the wrong pair.
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
/// changes (see [`Engine::import_memos_routed`]).
pub fn route_fingerprint(left: &Automaton, ql: StateId, right: &Automaton, qr: StateId) -> u128 {
    let (fp, fp2) = pair_fingerprint(left, ql, right, qr);
    ((fp as u128) << 64) | fp2 as u128
}

/// Everything that determines a query's result (given a pair): two
/// requests with equal keys are deterministic replays of each other, so
/// they may share warm state — including the exact verdict memo.
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
}

/// The warm state of one query shape: the resident session pool and the
/// exact entailment-verdict memo.
///
/// The memo key is `(guard, same-guard premise count, conclusion)`. Within
/// one query shape the worklist run is deterministic, so the `k`-th
/// same-guard premise slice is identical across runs — the key uniquely
/// identifies the premise *set*, not just its size, and the recorded
/// verdict is exact. A fully warm re-check therefore replays every `Skip`
/// decision without a single solver call.
#[derive(Default)]
struct WarmState {
    pool: Option<SessionPool>,
    memo: HashMap<MemoKey, bool>,
    runs: u64,
    /// Recency tick for the LRU warm-state eviction policy.
    last_used: u64,
}

/// One memoized entailment verdict: `(guard, same-guard premise count,
/// conclusion)` — see [`WarmState`] for why the key is exact.
type MemoKey = (TemplatePair, usize, Arc<ConfRel>);

/// Persisted entailment memos keyed by 128-bit pair fingerprint: each
/// pair carries its warm entries (query-shape key + memoized verdicts).
type SavedWarmMap = HashMap<(u64, u64), Vec<(WarmKey, HashMap<MemoKey, bool>)>>;

/// Encodes one persisted warm entry: the query-shape key plus every
/// memoized verdict, using the certificate JSON vocabulary for relations
/// and templates.
fn warm_entry_to_value(key: &WarmKey, memo: &HashMap<MemoKey, bool>) -> Value {
    let pair_value = |p: &TemplatePair| {
        json::obj(vec![
            ("left", json::template_to_value(&p.left)),
            ("right", json::template_to_value(&p.right)),
        ])
    };
    let mut entries: Vec<Value> = memo
        .iter()
        .map(|((guard, premises, rel), entailed)| {
            json::obj(vec![
                ("guard", pair_value(guard)),
                ("premises", json::num(*premises)),
                ("rel", json::confrel_to_value(rel)),
                ("entailed", Value::Bool(*entailed)),
            ])
        })
        .collect();
    entries.sort_by_key(Value::render);
    json::obj(vec![
        ("standard_init", Value::Bool(key.standard_init)),
        (
            "extra_init",
            Value::Arr(key.extra_init.iter().map(json::confrel_to_value).collect()),
        ),
        ("query", json::confrel_to_value(&key.query)),
        ("leaps", Value::Bool(key.options.leaps)),
        ("reach_pruning", Value::Bool(key.options.reach_pruning)),
        ("early_stop", Value::Bool(key.options.early_stop)),
        (
            "max_iterations",
            match key.options.max_iterations {
                Some(n) => json::num(n as usize),
                None => Value::Null,
            },
        ),
        ("memo", Value::Arr(entries)),
    ])
}

/// Decodes the persisted memo document written by `Engine::memos_to_json`.
fn memos_from_json(text: &str) -> Result<SavedWarmMap, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let err = |e: json::JsonError| e.to_string();
    let pair_from = |v: &Value| -> Result<TemplatePair, String> {
        Ok(TemplatePair::new(
            json::template_from_value(json::get(v, "left").map_err(err)?).map_err(err)?,
            json::template_from_value(json::get(v, "right").map_err(err)?).map_err(err)?,
        ))
    };
    let mut out: SavedWarmMap = HashMap::new();
    for pair in json::as_arr(json::get(&doc, "pairs").map_err(err)?).map_err(err)? {
        let fp: u64 = json::as_str(json::get(pair, "fingerprint").map_err(err)?)
            .map_err(err)?
            .parse()
            .map_err(|_| "bad fingerprint".to_string())?;
        let fp2: u64 = json::as_str(json::get(pair, "fingerprint2").map_err(err)?)
            .map_err(err)?
            .parse()
            .map_err(|_| "bad fingerprint2".to_string())?;
        let mut entries = Vec::new();
        for warm in json::as_arr(json::get(pair, "warm").map_err(err)?).map_err(err)? {
            let max_iterations = match json::get(warm, "max_iterations").map_err(err)? {
                Value::Null => None,
                v => Some(json::as_usize(v).map_err(err)? as u64),
            };
            let key = WarmKey {
                standard_init: json::as_bool(json::get(warm, "standard_init").map_err(err)?)
                    .map_err(err)?,
                extra_init: json::as_arr(json::get(warm, "extra_init").map_err(err)?)
                    .map_err(err)?
                    .iter()
                    .map(json::confrel_from_value)
                    .collect::<Result<_, _>>()
                    .map_err(err)?,
                query: json::confrel_from_value(json::get(warm, "query").map_err(err)?)
                    .map_err(err)?,
                options: Options {
                    leaps: json::as_bool(json::get(warm, "leaps").map_err(err)?).map_err(err)?,
                    reach_pruning: json::as_bool(json::get(warm, "reach_pruning").map_err(err)?)
                        .map_err(err)?,
                    early_stop: json::as_bool(json::get(warm, "early_stop").map_err(err)?)
                        .map_err(err)?,
                    max_iterations,
                },
            };
            let mut memo = HashMap::new();
            for entry in json::as_arr(json::get(warm, "memo").map_err(err)?).map_err(err)? {
                let guard = pair_from(json::get(entry, "guard").map_err(err)?)?;
                let premises =
                    json::as_usize(json::get(entry, "premises").map_err(err)?).map_err(err)?;
                let rel =
                    json::confrel_from_value(json::get(entry, "rel").map_err(err)?).map_err(err)?;
                let entailed =
                    json::as_bool(json::get(entry, "entailed").map_err(err)?).map_err(err)?;
                memo.insert((guard, premises, Arc::new(rel)), entailed);
            }
            entries.push((key, memo));
        }
        out.entry((fp, fp2)).or_default().extend(entries);
    }
    Ok(out)
}

/// The persistent engine. See the module docs for what it keeps warm.
pub struct Engine {
    config: EngineConfig,
    cache: SharedBlastCache,
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
    /// Persisted entailment memos not yet claimed by an interned pair,
    /// keyed by the 128-bit pair fingerprint.
    saved_warm: SavedWarmMap,
    /// Monotone recency counter for the LRU eviction policies.
    tick: u64,
    stats: EngineStats,
    last_run: RunStats,
    last_batch: Vec<RunStats>,
    sink: Option<Box<dyn WitnessSink>>,
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
    pub static ENTAILMENT_MEMO_HITS: LazyCounter =
        LazyCounter::new("leapfrog_entailment_memo_hits_total");
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
        let cache = SharedBlastCache::with_enabled(config.blast_cache);
        let ledger = InstLedger::with_capacity(config.warm_capacity);
        let mut engine = Engine {
            config,
            cache,
            ledger,
            pairs: Vec::new(),
            free_slots: Vec::new(),
            pair_index: HashMap::new(),
            saved_warm: HashMap::new(),
            tick: 0,
            stats: EngineStats::default(),
            last_run: RunStats::default(),
            last_batch: Vec::new(),
            sink: None,
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

    /// A clonable handle to the engine's shared blast cache.
    pub fn shared_cache(&self) -> SharedBlastCache {
        self.cache.clone()
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

    /// Attaches a recipient for confirmed refutation witnesses found by
    /// named checks (e.g. the evaluation suite's witness corpus).
    pub fn attach_witness_sink(&mut self, sink: Box<dyn WitnessSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the witness sink, if one was attached.
    pub fn take_witness_sink(&mut self) -> Option<Box<dyn WitnessSink>> {
        self.sink.take()
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
    /// if missing): the blast-cache CNF templates, the instantiation
    /// ledger's validation verdicts, every entailment-verdict memo (keyed
    /// by pair fingerprint so a restarted engine re-attaches them on
    /// intern), and — when the attached [`WitnessSink`] has a serialized
    /// form — the witness corpus. An engine built with
    /// [`EngineConfig::with_state_dir`] pointing here starts warm: memo
    /// and ledger replays need no solver contact, and cached CNF templates
    /// skip the blasting work.
    pub fn save_state(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(STATE_BLAST_FILE), self.cache.export_text())?;
        std::fs::write(dir.join(STATE_LEDGER_FILE), self.ledger.export_text())?;
        std::fs::write(dir.join(STATE_MEMO_FILE), self.memos_to_json())?;
        if let Some(text) = self.sink.as_ref().and_then(|s| s.export_text()) {
            std::fs::write(dir.join(STATE_CORPUS_FILE), text)?;
        }
        Ok(())
    }

    /// Encodes every entailment memo — live pairs' warm states plus any
    /// still-unclaimed persisted entries — as one JSON document, in
    /// deterministic order.
    fn memos_to_json(&self) -> String {
        let mut by_pair: Vec<((u64, u64), Vec<Value>)> = Vec::new();
        let mut push =
            |fp: (u64, u64), entry: Value| match by_pair.iter_mut().find(|(f, _)| *f == fp) {
                Some((_, entries)) => entries.push(entry),
                None => by_pair.push((fp, vec![entry])),
            };
        for p in self.pairs.iter().flatten() {
            for (key, warm) in &p.warm {
                if !warm.memo.is_empty() {
                    push(p.fingerprint, warm_entry_to_value(key, &warm.memo));
                }
            }
        }
        for (fp, entries) in &self.saved_warm {
            for (key, memo) in entries {
                if !memo.is_empty() {
                    push(*fp, warm_entry_to_value(key, memo));
                }
            }
        }
        by_pair.sort_by_key(|(fp, _)| *fp);
        for (_, entries) in &mut by_pair {
            entries.sort_by_key(Value::render);
        }
        let pairs = by_pair
            .into_iter()
            .map(|((fp, fp2), entries)| {
                json::obj(vec![
                    ("fingerprint", Value::Str(fp.to_string())),
                    ("fingerprint2", Value::Str(fp2.to_string())),
                    ("warm", Value::Arr(entries)),
                ])
            })
            .collect();
        json::obj(vec![
            ("version", Value::Num(1.0)),
            ("pairs", Value::Arr(pairs)),
        ])
        .render()
    }

    /// Best-effort reload of persisted state from the configured state
    /// directory. Missing files are a cold start; unreadable ones are
    /// noted in [`Engine::state_report`] and skipped — a corrupt state dir
    /// must never take the service down, only slow it.
    fn load_state(&mut self) {
        let Some(dir) = self.config.state_dir.clone() else {
            return;
        };
        let mut notes: Vec<String> = Vec::new();
        let read = |file: &str| -> Option<String> { std::fs::read_to_string(dir.join(file)).ok() };
        if let Some(text) = read(STATE_BLAST_FILE) {
            match self.cache.import_text(&text) {
                Ok(n) => notes.push(format!("{n} CNF templates")),
                Err(e) => notes.push(format!("blast cache skipped ({e})")),
            }
        }
        if let Some(text) = read(STATE_LEDGER_FILE) {
            match self.ledger.import_text(&text) {
                Ok(n) => notes.push(format!("{n} ledger verdicts")),
                Err(e) => notes.push(format!("ledger skipped ({e})")),
            }
        }
        if let Some(text) = read(STATE_MEMO_FILE) {
            match memos_from_json(&text) {
                Ok(saved) => {
                    let n: usize = saved
                        .values()
                        .flat_map(|entries| entries.iter().map(|(_, m)| m.len()))
                        .sum();
                    notes.push(format!("{n} memoized verdicts"));
                    self.saved_warm = saved;
                }
                Err(e) => notes.push(format!("memos skipped ({e})")),
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

    /// Imports persisted entailment memos from another engine's state
    /// directory, keeping only the pairs whose 128-bit routing
    /// fingerprint satisfies `keep`. This is the shard-merge path: when
    /// a fleet restarts at a different worker count, every new shard
    /// feeds each saved `shard-<i>/` directory through this with
    /// `keep = |fp| fp % workers == shard`, so memo entries re-route to
    /// the shard that will intern their pair. Content-keyed artifacts
    /// (blast cache, ledger) are not fingerprint-routed and degrade to
    /// cold. Returns the number of memoized verdicts adopted.
    pub fn import_memos_routed(
        &mut self,
        dir: impl AsRef<Path>,
        keep: &dyn Fn(u128) -> bool,
    ) -> Result<usize, String> {
        let path = dir.as_ref().join(STATE_MEMO_FILE);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let saved = memos_from_json(&text)?;
        let mut adopted = 0usize;
        for ((fp, fp2), entries) in saved {
            if !keep(((fp as u128) << 64) | fp2 as u128) {
                continue;
            }
            adopted += entries.iter().map(|(_, memo)| memo.len()).sum::<usize>();
            self.saved_warm
                .entry((fp, fp2))
                .or_default()
                .extend(entries);
        }
        if adopted > 0 {
            let note = format!(
                "merged {adopted} routed verdicts from {}",
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
        // Persisted entailment memos for this pair (saved by an earlier
        // process) attach here: the sessions start cold, but every
        // recorded verdict replays without solver contact.
        let warm: HashMap<WarmKey, WarmState> = self
            .saved_warm
            .remove(&fp)
            .map(|entries| {
                entries
                    .into_iter()
                    .map(|(key, memo)| {
                        (
                            key,
                            WarmState {
                                memo,
                                ..WarmState::default()
                            },
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
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
            warm,
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

    /// [`Engine::check`] with a name: a confirmed refutation witness is
    /// additionally recorded into the attached [`WitnessSink`].
    pub fn check_named(
        &mut self,
        name: &str,
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
    ) -> Outcome {
        self.set_query_label(name);
        let outcome = self.check(left, ql, right, qr);
        if let (Some(sink), Some(w)) = (self.sink.as_mut(), outcome.witness()) {
            sink.record(name, w);
        }
        outcome
    }

    /// Runs an elaborated request over a prepared pair. Per-run statistics
    /// land in [`Engine::last_run_stats`].
    pub fn run_prepared(&mut self, pid: PairId, req: &QueryRequest) -> Outcome {
        let qt = QueryTrace::begin(self.query_label.take());
        self.run_prepared_traced(pid, req, qt)
    }

    fn run_prepared_traced(&mut self, pid: PairId, req: &QueryRequest, qt: QueryTrace) -> Outcome {
        let opts = req.options;
        let (scope, reach_hit) = self.scope_for(pid, opts.leaps, opts.reach_pruning);
        let key = WarmKey::of(req);
        self.tick += 1;
        let tick = self.tick;
        let pair = self.pair_mut(pid);
        pair.last_used = tick;
        let mut warm = pair.warm.remove(&key).unwrap_or_default();
        let aut = pair.sum.automaton.clone();
        let mut stats = RunStats {
            reach_cache_hits: reach_hit as u64,
            // The pair's sum/root artifacts were already resident iff a
            // prior run used them — counted here so every entry point
            // (check, Checker::run, the relational row runners) reports
            // sum reuse consistently.
            sum_cache_hits: (pair.runs > 0) as u64,
            ..RunStats::default()
        };
        pair.runs += 1;
        let outcome = run_worklist(
            &aut,
            &scope,
            req,
            &mut warm,
            &self.config,
            &self.cache,
            &self.ledger,
            &mut stats,
        );
        warm.last_used = tick;
        self.pair_mut(pid).warm.insert(key, warm);
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
        self.stats.sessions_reused += stats.sessions_reused;
        self.stats.entailment_memo_hits += stats.entailment_memo_hits;
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
    /// warm query-shape states, resident guard sessions per warm state and
    /// interned pairs are each trimmed to the capacity, least-recently-used
    /// first, and the ledger's own eviction counter is mirrored into the
    /// engine statistics. Eviction only ever discards caches of
    /// deterministic computations, so results are unaffected.
    fn enforce_caps(&mut self) {
        self.stats.ledger_evictions = self.ledger.evictions();
        let cap = self.config.warm_capacity;
        if cap == 0 {
            return;
        }
        // Warm query-shape states, engine-wide.
        loop {
            let total: usize = self.pairs.iter().flatten().map(|p| p.warm.len()).sum();
            if total <= cap {
                break;
            }
            let mut victim: Option<(usize, WarmKey, u64)> = None;
            for (i, p) in self.pairs.iter().enumerate() {
                let Some(p) = p else { continue };
                for (k, w) in &p.warm {
                    if victim.as_ref().is_none_or(|(_, _, t)| w.last_used < *t) {
                        victim = Some((i, k.clone(), w.last_used));
                    }
                }
            }
            let (i, key, _) = victim.expect("count above cap implies a victim");
            self.pairs[i].as_mut().unwrap().warm.remove(&key);
            self.stats.warm_evictions += 1;
            meters::WARM_EVICTIONS.inc();
        }
        // Guard sessions inside the retained warm states.
        let mut pruned = 0usize;
        for p in self.pairs.iter_mut().flatten() {
            for w in p.warm.values_mut() {
                if let Some(pool) = w.pool.as_mut() {
                    pruned += pool.prune_lru(cap);
                }
            }
        }
        self.stats.session_evictions += pruned as u64;
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
    /// one group so the later ones hit that pair's warm state. Each query
    /// runs whole on one worker. With one thread the batch runs
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
    /// // The second query hits the warm state the first one built.
    /// let outcomes = engine.check_batch(&[spec.clone(), spec]);
    /// assert!(outcomes.iter().all(|o| o.is_equivalent()));
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
            // group run back-to-back on one worker so they hit the group's
            // warm state.
            struct GroupTask {
                pid: PairId,
                aut: Automaton,
                scope: Scope,
                req: QueryRequest,
                warm: WarmState,
                /// This pair's run count before the batch — the group's
                /// first query reports sum reuse iff it is nonzero; later
                /// group members always reuse.
                prior_runs: u64,
                /// Whether the group's first query found the scope memoized
                /// (later group members always do).
                reach_hit: bool,
                indices: Vec<usize>,
                results: Vec<(usize, Outcome, RunStats)>,
            }
            let opts = self.config.options;
            let mut tasks: Vec<GroupTask> = groups
                .into_iter()
                .map(|(pid, indices)| {
                    let (scope, reach_hit) = self.scope_for(pid, opts.leaps, opts.reach_pruning);
                    let req = self.standard_request(pid);
                    let key = WarmKey::of(&req);
                    let pair = self.pair_mut(pid);
                    let prior_runs = pair.runs;
                    pair.runs += indices.len() as u64;
                    GroupTask {
                        pid,
                        aut: pair.sum.automaton.clone(),
                        warm: pair.warm.remove(&key).unwrap_or_default(),
                        scope,
                        req,
                        prior_runs,
                        reach_hit,
                        indices,
                        results: Vec::new(),
                    }
                })
                .collect();
            let config = &self.config;
            let cache = &self.cache;
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
                            let mut stats = RunStats::default();
                            let outcome = run_worklist(
                                &task.aut,
                                &task.scope,
                                &task.req,
                                &mut task.warm,
                                config,
                                cache,
                                ledger,
                                &mut stats,
                            );
                            task.results.push((qi, outcome, stats));
                        }
                    });
                }
            });
            for mut task in tasks {
                let key = WarmKey::of(&task.req);
                self.tick += 1;
                task.warm.last_used = self.tick;
                self.pair_mut(task.pid).warm.insert(key, task.warm);
                for (j, (qi, outcome, mut stats)) in task.results.drain(..).enumerate() {
                    let (sum_hit, reach_hit) = if j == 0 {
                        (task.prior_runs > 0, task.reach_hit)
                    } else {
                        (true, true)
                    };
                    stats.sum_cache_hits = sum_hit as u64;
                    stats.reach_cache_hits = reach_hit as u64;
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
        let outcomes: Vec<Outcome> = outcomes.into_iter().map(Option::unwrap).collect();
        if let Some(sink) = self.sink.as_mut() {
            for (spec, outcome) in specs.iter().zip(&outcomes) {
                if let Some(w) = outcome.witness() {
                    sink.record(&spec.name, w);
                }
            }
        }
        outcomes
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
/// guard-indexed worklist, processed one frontier generation at a time,
/// plus the warm-state fast paths:
///
/// * every entailment verdict is recorded in the warm state's memo and
///   replayed on later runs of the same query shape;
/// * the session pool persists across runs, so premise clauses, learnt
///   CDCL state and CEGAR instantiations carry over whenever a check
///   misses the memo.
///
/// The query's shape comes from `req`; every engine knob comes from
/// `config`.
#[allow(clippy::too_many_arguments)]
fn run_worklist(
    aut: &Automaton,
    scope: &Scope,
    req: &QueryRequest,
    warm: &mut WarmState,
    config: &EngineConfig,
    cache: &SharedBlastCache,
    ledger: &InstLedger,
    stats: &mut RunStats,
) -> Outcome {
    let start = Instant::now();
    let opts = &req.options;
    let mut solver = SmtSolver::with_shared_cache(cache.clone(), config.solver_config());
    stats.scope_pairs = scope.pairs.len();
    stats.threads = 1;
    warm.runs += 1;

    let mut pool = warm.pool.take().unwrap_or_else(|| {
        SessionPool::with_config(SessionConfig {
            gc_ratio: config.session_gc_ratio,
            gc_floor: config.session_gc_floor,
            ledger: Some(ledger.clone()),
            sat: config.solver_config(),
        })
    });
    stats.sessions_reused = pool.len() as u64;
    let session_base = pool.stats();

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
    // the `Equivalent`, `NotEquivalent` *and* `Aborted` paths alike. Only
    // this run's share of the (possibly warm) session counters is
    // charged, via the baseline delta.
    macro_rules! seal {
        ($relation_len:expr) => {{
            stats.wall_time = start.elapsed();
            let mut queries = solver.stats().clone();
            queries.absorb(&pool.stats().delta_since(&session_base));
            stats.queries = queries;
            stats.extended = $relation_len as u64;
            warm.pool = Some(pool);
        }};
    }

    let violation = |rho: &ConfRel,
                     id: usize,
                     prov: &[(Arc<ConfRel>, Option<usize>)],
                     solver: &mut SmtSolver,
                     stats: &mut RunStats|
     -> Option<Refutation> {
        query_violation(
            aut,
            &req.query,
            req.standard_init,
            config.strict_witness,
            rho,
            id,
            prov,
            solver,
            stats,
        )
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
            let matching = relation.matching_count(psi.guard);
            stats.premises_matched += matching as u64;
            stats.premises_total += relation.len() as u64;
            let memo_key = (psi.guard, matching, psi.clone());
            let entailed = match warm.memo.get(&memo_key) {
                Some(&v) => {
                    stats.entailment_memo_hits += 1;
                    meters::ENTAILMENT_MEMO_HITS.inc();
                    v
                }
                None => {
                    let v = pool.check(aut, &relation.matching(psi.guard), &psi, cache);
                    warm.memo.insert(memo_key, v);
                    v
                }
            };
            if entailed {
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
/// Runs on the per-query one-shot solver (not the warm sessions), so the
/// extracted countermodel — and therefore the witness — is independent of
/// engine warmth and session history.
///
/// # Panics
///
/// Panics when `strict_witness` ([`EngineConfig::strict_witness`]) is
/// set, the query is a standard language-equivalence query, and the
/// countermodel could not be lifted into a confirmed witness.
#[allow(clippy::too_many_arguments)]
fn query_violation(
    aut: &Automaton,
    query: &ConfRel,
    standard_init: bool,
    strict_witness: bool,
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
                Refutation::Witness(w) => {
                    stats.witnesses_confirmed += 1;
                    stats.witness_bits_minimized += (w.original_bits - w.packet.len()) as u64;
                }
                Refutation::Unconfirmed { .. } => stats.witnesses_unconfirmed += 1,
            }
            if let Some(error) =
                strict_witness_violation(strict_witness, standard_init, &refutation)
            {
                panic!("{error}");
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
        // other pair's warm state, yet every certificate is identical.
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
        assert_eq!(first.last_run_stats().entailment_memo_hits, 0);
        first.save_state(&dir).unwrap();

        // A fresh engine restarted from the saved state replays every
        // verdict from the reloaded memo — zero solver queries — and the
        // certificate is byte-identical.
        let mut second = EngineConfig::new().threads(1).with_state_dir(&dir).build();
        assert!(second.state_report().is_some(), "state must be reported");
        let warm_cert = cert_of(&second.check(&a, sa, &b, sb));
        assert_eq!(cold_cert, warm_cert);
        let stats = second.last_run_stats();
        assert!(
            stats.entailment_memo_hits > 0,
            "restart must replay the persisted memo: {stats:?}"
        );
        assert_eq!(
            stats.entailment_memo_hits, stats.entailment_checks,
            "every verdict comes from the memo: {stats:?}"
        );
        assert_eq!(stats.queries.queries, 0, "{stats:?}");

        // The memo document itself round-trips exactly.
        let memos = first.memos_to_json();
        let reparsed = memos_from_json(&memos).unwrap();
        assert!(!reparsed.is_empty());
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
        // routed memo import and intern-time claiming agree.
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

        // Reload into a 2-shard fleet: each shard keeps only the memos
        // routed to it, and together they cover everything exactly once.
        let fp_ab = route_fingerprint(&a, sa, &b, sb);
        let fp_cd = route_fingerprint(&c, sc, &d, sd);
        let workers = 2u128;
        let mut shards: Vec<Engine> = (0..workers)
            .map(|shard| {
                let mut e = EngineConfig::new().threads(1).build();
                e.import_memos_routed(&dir, &|fp| fp % workers == shard)
                    .unwrap();
                e
            })
            .collect();
        let adopted: Vec<usize> = shards
            .iter()
            .map(|e| {
                e.saved_warm
                    .values()
                    .flat_map(|entries| entries.iter().map(|(_, m)| m.len()))
                    .sum()
            })
            .collect();
        assert!(adopted.iter().sum::<usize>() > 0, "{adopted:?}");
        for (shard, engine) in shards.iter().enumerate() {
            for key in engine.saved_warm.keys() {
                let packed = ((key.0 as u128) << 64) | key.1 as u128;
                assert_eq!(
                    packed % workers,
                    shard as u128,
                    "memo routed to the wrong shard"
                );
            }
        }

        // Each routed shard replays its own pair purely from the memo,
        // byte-identical to the donor's certificate.
        let home_ab = (fp_ab % workers) as usize;
        let home_cd = (fp_cd % workers) as usize;
        assert_eq!(cert_ab, cert_of(&shards[home_ab].check(&a, sa, &b, sb)));
        let run = shards[home_ab].last_run_stats();
        assert!(run.entailment_memo_hits > 0, "{run:?}");
        assert_eq!(run.entailment_memo_hits, run.entailment_checks);
        assert_eq!(cert_cd, cert_of(&shards[home_cd].check(&c, sc, &d, sd)));
        let run = shards[home_cd].last_run_stats();
        assert!(run.entailment_memo_hits > 0, "{run:?}");
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
