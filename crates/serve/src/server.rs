//! The daemon core: a fingerprint-routed fleet of engine shards behind
//! one TCP listener.
//!
//! The server spawns `workers` *engine shards*, each owning its own
//! [`leapfrog::Engine`], warm-state universe, and job queue.
//! Connections are handled on their own threads; a check request is
//! resolved to automata right there and routed by the pair's stable
//! 128-bit fingerprint — shard index `route_fingerprint(pair) % workers`
//! — so a given pair always lands on the shard that is warm for it.
//! Each shard drains whatever has accumulated on its queue, groups the
//! default-shaped check requests of one drain into a single
//! [`Engine::check_batch`](leapfrog::Engine::check_batch) call, and
//! answers the rest (custom-option checks) in arrival order. Outcome
//! encodings are canonical and routing is deterministic, so a wire
//! answer is byte-identical to the same check run in-process — at any
//! worker count.
//!
//! Admission control bounds each shard's queue: when a shard's depth is
//! at [`ServerOptions::queue_depth`], new requests for it get a typed
//! `overloaded` reply (with a retry-after hint) instead of queuing
//! without bound, and [`ServerOptions::client_quota`] caps one client
//! address's concurrent in-flight checks the same way.
//!
//! `metrics` and `slow_log` requests read only the process-global
//! registry and trace collector, so the connection thread answers them
//! directly and they never queue behind a long-running check. `stats`
//! broadcasts to every shard and aggregates the replies (the `"engine"`
//! key carries the field-wise sum; `"shards"` the per-shard counters).
//!
//! With a state directory configured, each shard persists under
//! `shard-<i>/` inside it. At startup, a layout matching the current
//! worker count reloads natively; any other layout (different worker
//! count, or a pre-fleet single-engine dir) goes through the merge
//! path: every saved proof re-routes to the shard its fingerprint now
//! maps to, and the content-keyed ledger degrades to cold. A `shutdown`
//! request saves every shard and removes stale state before the listener
//! closes. Files the daemon does not own (a `warm_memos.json`,
//! `corpus.txt` or `blast_cache.txt` left by an older daemon) are
//! ignored and kept.

use std::collections::HashMap;
use std::io::Read;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use leapfrog::engine::{route_fingerprint, STATE_LEDGER_FILE, STATE_OUTCOME_FILE};
use leapfrog::json::{self, Value};
use leapfrog::{Engine, EngineConfig, QuerySpec};
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::surface;
use leapfrog_suite::{mutants, standard_benchmarks, Scale};

use crate::proto::{
    self, fleet_stats_to_value, metrics_snapshot_to_value, outcome_to_value, overloaded_to_value,
    run_stats_to_value, slow_queries_to_value, EngineStatsReply, FleetStats, OverloadScope,
    Overloaded, PairSpec, Request, WireOptions,
};

/// Daemon-level metrics. Connection counters live on the connection
/// threads; `leapfrog_engine_queue_depth` is the fleet-wide total of
/// queued checks (per-shard depths live under
/// `leapfrog_shard_<i>_queue_depth`).
mod meters {
    use leapfrog_obs::{LazyCounter, LazyGauge, LazyHistogram};

    pub static CONNECTIONS_TOTAL: LazyCounter = LazyCounter::new("leapfrog_connections_total");
    pub static CONNECTIONS_OPEN: LazyGauge = LazyGauge::new("leapfrog_connections_open");
    pub static REQUESTS_TOTAL: LazyCounter = LazyCounter::new("leapfrog_requests_total");
    pub static REQUEST_SECONDS: LazyHistogram = LazyHistogram::new("leapfrog_request_seconds");
    pub static QUEUE_DEPTH: LazyGauge = LazyGauge::new("leapfrog_engine_queue_depth");
    pub static OVERLOADED_TOTAL: LazyCounter = LazyCounter::new("leapfrog_overloaded_total");
}

/// Per-shard metric handles, suffixed by shard index so one Prometheus
/// scrape shows the whole fleet.
struct ShardMeters {
    queue_depth: Arc<leapfrog_obs::Gauge>,
    checks: Arc<leapfrog_obs::Counter>,
    evictions: Arc<leapfrog_obs::Counter>,
}

impl ShardMeters {
    fn new(shard: usize) -> ShardMeters {
        let g = leapfrog_obs::global();
        ShardMeters {
            queue_depth: g.gauge(&format!("leapfrog_shard_{shard}_queue_depth")),
            checks: g.counter(&format!("leapfrog_shard_{shard}_checks_total")),
            evictions: g.counter(&format!("leapfrog_shard_{shard}_evictions_total")),
        }
    }
}

/// How the daemon is set up.
pub struct ServerOptions {
    /// The engine configuration (threads, warm capacity), applied to
    /// every shard.
    pub config: EngineConfig,
    /// Directory for persisted warm state: each shard reloads from and
    /// saves to `shard-<i>/` under it (a layout saved at a different
    /// worker count merges by fingerprint).
    pub state_dir: Option<PathBuf>,
    /// Scale the named suite rows are built at.
    pub scale: Scale,
    /// Engine shards to run; 0 picks the host's available parallelism.
    /// Defaults to `LEAPFROG_WORKERS` (or 1).
    pub workers: usize,
    /// Per-shard queued-check bound; at the bound new requests get an
    /// `overloaded` reply. 0 disables the bound. Defaults to
    /// `LEAPFROG_QUEUE_DEPTH` (or 256).
    pub queue_depth: usize,
    /// Per-client-address in-flight check quota; 0 disables it.
    /// Defaults to `LEAPFROG_CLIENT_QUOTA` (or 0).
    pub client_quota: usize,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            config: EngineConfig::from_env(),
            state_dir: None,
            scale: Scale::from_env(),
            workers: env_usize("LEAPFROG_WORKERS").unwrap_or(1),
            queue_depth: env_usize("LEAPFROG_QUEUE_DEPTH").unwrap_or(256),
            client_quota: env_usize("LEAPFROG_CLIENT_QUOTA").unwrap_or(0),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    opts: ServerOptions,
}

/// A check request resolved to concrete automata, ready for a shard.
struct ResolvedCheck {
    name: String,
    left: Automaton,
    ql: StateId,
    right: Automaton,
    qr: StateId,
    options: WireOptions,
    reply: mpsc::Sender<String>,
}

/// What travels to an engine shard. Checks are the only queue-depth
/// accounted kind; `Stats`/`Save` are control-plane and always admitted.
enum ShardJob {
    Check(ResolvedCheck),
    Stats(mpsc::Sender<EngineStatsReply>),
    /// Persist the shard's state and acknowledge; processed after every
    /// check already drained, then the shard exits.
    Save(mpsc::Sender<Result<(), String>>),
}

/// One shard as the connection threads see it: its queue and the
/// shared depth counter admission control reads.
struct ShardHandle {
    tx: mpsc::Sender<ShardJob>,
    depth: Arc<AtomicUsize>,
}

/// Everything a connection thread needs: routing, admission limits, and
/// the shutdown orchestration inputs.
struct Fleet {
    shards: Vec<ShardHandle>,
    rows: HashMap<String, leapfrog_suite::Benchmark>,
    queue_depth: usize,
    client_quota: usize,
    /// In-flight check counts per client address (the quota's subject).
    inflight: Mutex<HashMap<IpAddr, usize>>,
    state_dir: Option<PathBuf>,
    addr: SocketAddr,
}

impl Fleet {
    fn total_depth(&self) -> i64 {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::SeqCst) as i64)
            .sum()
    }
}

/// How shard engines pick up persisted state at startup.
enum StatePlan {
    /// No state dir, or the on-disk layout matches the worker count:
    /// shard `i` loads `shard-<i>/` natively (missing dirs cold-start).
    Native,
    /// The layout was saved at a different worker count (or by a
    /// pre-fleet single engine): every listed source dir's proofs are
    /// re-routed by fingerprint into whichever shard now owns them.
    Merge(Vec<PathBuf>),
}

/// Decides between native reload and the merge path by scanning the
/// state dir: `shard-0..shard-(workers-1)` exactly, with no legacy
/// root-level state files, reloads natively; anything else merges.
fn scan_state(dir: &Path, workers: usize) -> StatePlan {
    let mut found: Vec<usize> = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            if let Some(i) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|s| s.parse::<usize>().ok())
            {
                found.push(i);
            }
        }
    }
    found.sort_unstable();
    let legacy_root = [STATE_LEDGER_FILE, STATE_OUTCOME_FILE]
        .iter()
        .any(|f| dir.join(f).exists());
    let exact = found.iter().copied().eq(0..workers);
    if !legacy_root && (found.is_empty() || exact) {
        return StatePlan::Native;
    }
    let mut sources: Vec<PathBuf> = found
        .into_iter()
        .map(|i| dir.join(format!("shard-{i}")))
        .collect();
    if legacy_root {
        sources.push(dir.to_path_buf());
    }
    StatePlan::Merge(sources)
}

/// Removes state a fresh start at this worker count would not reload:
/// legacy root-level files and `shard-<j>` dirs with `j >= workers`.
/// Called after a shutdown save, so the next start reloads natively.
fn cleanup_stale_state(dir: &Path, workers: usize) {
    for f in [STATE_LEDGER_FILE, STATE_OUTCOME_FILE] {
        let _ = std::fs::remove_file(dir.join(f));
    }
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            if let Some(i) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|s| s.parse::<usize>().ok())
            {
                if i >= workers {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
    }
}

impl Server {
    /// Binds the listener. `addr` accepts anything `TcpListener::bind`
    /// does; port `0` picks a free port (see [`Server::local_addr`]).
    pub fn bind(addr: &str, opts: ServerOptions) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            opts,
        })
    }

    /// The bound address (the daemon prints it; tests read it back).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The worker count [`Server::run`] will spawn (0 resolved to the
    /// host's available parallelism).
    pub fn effective_workers(&self) -> usize {
        resolve_workers(self.opts.workers)
    }

    /// Serves until a `shutdown` request is processed. Blocking; the
    /// `leapfrogd` binary calls this from `main`, tests call it from a
    /// spawned thread.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let workers = resolve_workers(self.opts.workers);
        let state_dir = self.opts.state_dir.clone();
        let plan = match &state_dir {
            Some(dir) => scan_state(dir, workers),
            None => StatePlan::Native,
        };
        let plan = Arc::new(plan);

        let mut shards = Vec::with_capacity(workers);
        let mut spawn_args = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (tx, rx) = mpsc::channel::<ShardJob>();
            let depth = Arc::new(AtomicUsize::new(0));
            shards.push(ShardHandle {
                tx,
                depth: depth.clone(),
            });
            spawn_args.push((shard, rx, depth));
        }
        let fleet = Fleet {
            shards,
            rows: named_rows(self.opts.scale),
            queue_depth: self.opts.queue_depth,
            client_quota: self.opts.client_quota,
            inflight: Mutex::new(HashMap::new()),
            state_dir: state_dir.clone(),
            addr,
        };
        let config = self.opts.config.clone();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| -> std::io::Result<()> {
            let stop = &stop;
            let fleet = &fleet;
            for (shard, rx, depth) in spawn_args {
                let config = config.clone();
                let state_dir = state_dir.clone();
                let plan = plan.clone();
                s.spawn(move || {
                    let engine =
                        build_shard_engine(config, state_dir.as_deref(), &plan, shard, workers);
                    let save_dir = state_dir.map(|d| d.join(format!("shard-{shard}")));
                    shard_loop(engine, rx, depth, save_dir, ShardMeters::new(shard));
                });
            }
            for conn in self.listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                s.spawn(move || handle_connection(stream, fleet, stop));
            }
            Ok(())
        })
    }
}

fn resolve_workers(requested: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    n.max(1)
}

/// Builds one shard's engine per the state plan: native reload from its
/// own `shard-<i>/` dir, or a cold engine fed the fingerprint-routed
/// slice of every merge source (proofs re-route; the ledger is
/// content-keyed, not routed, and degrades to cold).
fn build_shard_engine(
    config: EngineConfig,
    state_dir: Option<&Path>,
    plan: &StatePlan,
    shard: usize,
    workers: usize,
) -> Engine {
    match (plan, state_dir) {
        (StatePlan::Native, Some(dir)) => {
            Engine::new(config.with_state_dir(dir.join(format!("shard-{shard}"))))
        }
        (StatePlan::Native, None) => Engine::new(config),
        (StatePlan::Merge(sources), _) => {
            let mut engine = Engine::new(config);
            let keep = |fp: u128| fp % workers as u128 == shard as u128;
            for src in sources {
                // Unreadable sources degrade to cold, like load_state.
                let _ = engine.import_outcomes_routed(src, &keep);
            }
            engine
        }
    }
}

/// The rows a named request resolves against: every standard Table 2 row
/// plus the mutant suite (whose refutations carry the long multi-header
/// witnesses).
fn named_rows(scale: Scale) -> HashMap<String, leapfrog_suite::Benchmark> {
    let mut rows = HashMap::new();
    for b in standard_benchmarks(scale)
        .into_iter()
        .chain(mutants::mutant_benchmarks())
    {
        rows.insert(b.name.to_string(), b);
    }
    rows
}

/// Tracked totals behind the per-shard delta counters.
#[derive(Default)]
struct ShardSnapshot {
    checks: u64,
    evictions: u64,
}

/// One engine shard's drain loop: the only place that shard's engine is
/// touched. Exits after acknowledging a `Save` (shutdown) or when every
/// sender is gone.
fn shard_loop(
    mut engine: Engine,
    rx: mpsc::Receiver<ShardJob>,
    depth: Arc<AtomicUsize>,
    save_dir: Option<PathBuf>,
    shard_meters: ShardMeters,
) {
    let mut last = ShardSnapshot::default();
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        while let Ok(more) = rx.try_recv() {
            jobs.push(more);
        }
        let mut checks: Vec<ResolvedCheck> = Vec::new();
        let mut save: Option<mpsc::Sender<Result<(), String>>> = None;
        for job in jobs {
            match job {
                ShardJob::Check(c) => checks.push(c),
                ShardJob::Stats(tx) => {
                    let _ = tx.send(shard_stats(&engine));
                }
                ShardJob::Save(tx) => save = Some(tx),
            }
        }
        // Drained checks are in processing, not queued: free their
        // admission slots before the (possibly long) batch runs.
        depth.fetch_sub(checks.len(), Ordering::SeqCst);
        shard_meters
            .queue_depth
            .set(depth.load(Ordering::SeqCst) as i64);
        run_checks(&mut engine, checks);
        let s = engine.stats();
        let evictions = s.warm_evictions + s.pair_evictions + s.ledger_evictions;
        shard_meters.checks.add(s.checks - last.checks);
        shard_meters.evictions.add(evictions - last.evictions);
        last = ShardSnapshot {
            checks: s.checks,
            evictions,
        };
        if let Some(ack) = save {
            let result = match &save_dir {
                Some(dir) => engine
                    .save_state(dir)
                    .map_err(|e| format!("state not saved to {}: {e}", dir.display())),
                None => Ok(()),
            };
            let _ = ack.send(result);
            break;
        }
    }
}

/// One shard's typed `stats` payload.
fn shard_stats(engine: &Engine) -> EngineStatsReply {
    EngineStatsReply {
        stats: engine.stats().clone(),
        ledger_len: engine.ledger_len(),
        state_report: engine.state_report().map(String::from),
    }
}

/// Runs one drained batch of checks through a shard's engine.
/// Default-shaped checks of one drain run as ONE batch over the
/// work-stealing pool; a single check (or a custom-option one) runs
/// alone. Every reply carries its own query's statistics.
fn run_checks(engine: &mut Engine, checks: Vec<ResolvedCheck>) {
    let (batchable, custom): (Vec<_>, Vec<_>) =
        checks.into_iter().partition(|c| c.options.is_default());
    if batchable.len() > 1 {
        let specs: Vec<QuerySpec> = batchable
            .iter()
            .map(|c| QuerySpec::new(c.name.clone(), &c.left, c.ql, &c.right, c.qr))
            .collect();
        let outcomes = engine.check_batch(&specs);
        for ((c, outcome), stats) in batchable
            .iter()
            .zip(outcomes)
            .zip(engine.last_batch_stats())
        {
            send(&c.reply, &check_reply(&outcome, run_stats_to_value(stats)));
        }
    } else {
        for c in batchable {
            engine.set_query_label(&c.name);
            let outcome = engine.check(&c.left, c.ql, &c.right, c.qr);
            let stats = run_stats_to_value(engine.last_run_stats());
            send(&c.reply, &check_reply(&outcome, stats));
        }
    }
    for c in custom {
        let pid = engine.prepare_pair(&c.left, c.ql, &c.right, c.qr);
        let mut req = engine.standard_request(pid);
        if let Some(b) = c.options.leaps {
            req.options.leaps = b;
        }
        if let Some(b) = c.options.reach_pruning {
            req.options.reach_pruning = b;
        }
        if let Some(b) = c.options.early_stop {
            req.options.early_stop = b;
        }
        if let Some(n) = c.options.max_iterations {
            req.options.max_iterations = Some(n);
        }
        let outcome = engine.run_prepared(pid, &req);
        let stats = run_stats_to_value(engine.last_run_stats());
        send(&c.reply, &check_reply(&outcome, stats));
    }
}

fn check_reply(outcome: &leapfrog::Outcome, stats: Value) -> Value {
    json::obj(vec![
        ("outcome", outcome_to_value(outcome)),
        ("stats", stats),
    ])
}

/// The `verify` reply: resolve the pair, rebuild its sum automaton, and
/// re-validate the certificate through the independent
/// `leapfrog-certcheck` trust root. Touches no engine state — the
/// connection thread answers it directly, like `metrics`.
fn verify_reply(fleet: &Fleet, pair: &PairSpec, certificate: &Value) -> Value {
    let (_, left, _, right, _) = match resolve(&fleet.rows, pair) {
        Ok(r) => r,
        Err(e) => return error_value(&e),
    };
    let sum = leapfrog_p4a::sum::sum(&left, &right);
    let reply = match leapfrog_certcheck::check_json(&sum.automaton, &certificate.render()) {
        Ok(_) => proto::VerifyReply::accepted(),
        Err(e) => proto::VerifyReply::rejected(e.class(), &e.to_string()),
    };
    proto::verify_reply_to_value(&reply)
}

/// The `metrics` reply: one registry snapshot rendered both as
/// Prometheus text exposition and as structured JSON, so the two views
/// are always consistent with each other.
fn metrics_reply() -> Value {
    let snap = leapfrog_obs::global().snapshot();
    json::obj(vec![(
        "metrics",
        json::obj(vec![
            ("text", Value::Str(snap.render_prometheus())),
            ("json", metrics_snapshot_to_value(&snap)),
        ]),
    )])
}

/// The `slow_log` reply: every retained slow-query record with its span
/// tree embedded as structured JSON.
fn slow_log_reply() -> Value {
    match slow_queries_to_value(&leapfrog_obs::collector().slow_queries()) {
        Ok(v) => json::obj(vec![("slow_queries", v)]),
        Err(e) => error_value(&format!("slow log not renderable: {e}")),
    }
}

/// The `stats` reply: broadcast to every shard, aggregate, and append
/// the live metrics snapshot.
fn stats_reply(fleet: &Fleet) -> Value {
    let mut acks = Vec::with_capacity(fleet.shards.len());
    for sh in &fleet.shards {
        let (tx, rx) = mpsc::channel();
        if sh.tx.send(ShardJob::Stats(tx)).is_err() {
            return error_value("server is shutting down");
        }
        acks.push(rx);
    }
    let mut per_shard = Vec::with_capacity(acks.len());
    for rx in acks {
        match rx.recv() {
            Ok(s) => per_shard.push(s),
            Err(_) => return error_value("server is shutting down"),
        }
    }
    let mut v = fleet_stats_to_value(&FleetStats::of_shards(per_shard));
    if let Value::Obj(fields) = &mut v {
        fields.push((
            "metrics".to_string(),
            metrics_snapshot_to_value(&leapfrog_obs::global().snapshot()),
        ));
    }
    v
}

/// Shutdown orchestration: every shard saves its state under
/// `shard-<i>/` and acknowledges; stale state (legacy root files,
/// higher-numbered shard dirs from a wider fleet) is then removed so
/// the next start at this worker count reloads natively.
fn shutdown_reply(fleet: &Fleet) -> Value {
    let mut acks = Vec::with_capacity(fleet.shards.len());
    for sh in &fleet.shards {
        let (tx, rx) = mpsc::channel();
        if sh.tx.send(ShardJob::Save(tx)).is_ok() {
            acks.push(rx);
        }
    }
    let mut errors = Vec::new();
    for rx in acks {
        match rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => errors.push(e),
            Err(_) => errors.push("shard exited before saving".to_string()),
        }
    }
    if let Some(dir) = &fleet.state_dir {
        cleanup_stale_state(dir, fleet.shards.len());
    }
    if errors.is_empty() {
        json::obj(vec![("bye", Value::Bool(true))])
    } else {
        error_value(&errors.join("; "))
    }
}

fn error_value(msg: &str) -> Value {
    json::obj(vec![("error", Value::Str(msg.to_string()))])
}

fn send(reply: &mpsc::Sender<String>, v: &Value) {
    let _ = reply.send(v.render());
}

/// Resolves a pair spec to automata: a named suite row by lookup, an
/// inline pair by parsing its surface sources.
fn resolve(
    rows: &HashMap<String, leapfrog_suite::Benchmark>,
    pair: &PairSpec,
) -> Result<(String, Automaton, StateId, Automaton, StateId), String> {
    match pair {
        PairSpec::Named(name) => {
            let b = rows
                .get(name)
                .ok_or_else(|| format!("unknown pair {name:?}"))?;
            Ok((
                b.name.to_string(),
                b.left.clone(),
                b.left_start,
                b.right.clone(),
                b.right_start,
            ))
        }
        PairSpec::Inline {
            left,
            left_start,
            right,
            right_start,
        } => {
            let l = surface::parse(left).map_err(|e| format!("left parser: {e:?}"))?;
            let r = surface::parse(right).map_err(|e| format!("right parser: {e:?}"))?;
            let ql = l
                .state_by_name(left_start)
                .ok_or_else(|| format!("left parser has no state {left_start:?}"))?;
            let qr = r
                .state_by_name(right_start)
                .ok_or_else(|| format!("right parser has no state {right_start:?}"))?;
            // A content-derived name keeps slow-log records of unrelated
            // inline pairs apart.
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (left, left_start, right, right_start).hash(&mut h);
            Ok((format!("inline:{:016x}", h.finish()), l, ql, r, qr))
        }
    }
}

/// Deterministic backoff hint for an `overloaded` reply, scaled by the
/// observed depth and clamped to a sane polling interval.
fn retry_after_ms(depth: u64) -> u64 {
    depth.saturating_mul(20).clamp(50, 5000)
}

/// Atomically takes an admission slot on a shard: fails (with the
/// observed depth) once `limit` is reached. `limit` 0 never fails.
fn try_admit(depth: &AtomicUsize, limit: usize) -> Result<(), usize> {
    if limit == 0 {
        depth.fetch_add(1, Ordering::SeqCst);
        return Ok(());
    }
    depth
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
            (d < limit).then_some(d + 1)
        })
        .map(|_| ())
}

/// Holds one client address's in-flight slot; released on drop so every
/// exit path (including write failures) returns the quota.
struct QuotaSlot<'a> {
    inflight: &'a Mutex<HashMap<IpAddr, usize>>,
    ip: IpAddr,
}

impl Drop for QuotaSlot<'_> {
    fn drop(&mut self) {
        let mut map = self.inflight.lock().unwrap();
        if let Some(n) = map.get_mut(&self.ip) {
            *n -= 1;
            if *n == 0 {
                map.remove(&self.ip);
            }
        }
    }
}

/// Takes an in-flight slot for `ip`, or reports the current count when
/// the quota is exhausted.
fn try_take_quota<'a>(
    inflight: &'a Mutex<HashMap<IpAddr, usize>>,
    ip: IpAddr,
    quota: usize,
) -> Result<QuotaSlot<'a>, u64> {
    let mut map = inflight.lock().unwrap();
    let n = map.entry(ip).or_insert(0);
    if *n >= quota {
        return Err(*n as u64);
    }
    *n += 1;
    Ok(QuotaSlot { inflight, ip })
}

/// Routes and runs one resolved check: quota, shard admission, enqueue,
/// wait for the verdict. Returns the rendered reply payload.
fn run_check(fleet: &Fleet, peer: Option<IpAddr>, pair: PairSpec, options: WireOptions) -> String {
    let _slot = match (fleet.client_quota, peer) {
        (quota, Some(ip)) if quota > 0 => match try_take_quota(&fleet.inflight, ip, quota) {
            Ok(slot) => Some(slot),
            Err(inflight) => {
                meters::OVERLOADED_TOTAL.inc();
                return overloaded_to_value(&Overloaded {
                    scope: OverloadScope::Client,
                    shard: None,
                    depth: inflight,
                    limit: quota as u64,
                    retry_after_ms: retry_after_ms(inflight),
                })
                .render();
            }
        },
        _ => None,
    };
    let (name, left, ql, right, qr) = match resolve(&fleet.rows, &pair) {
        Ok(r) => r,
        Err(e) => return error_value(&e).render(),
    };
    let workers = fleet.shards.len();
    let shard = (route_fingerprint(&left, ql, &right, qr) % workers as u128) as usize;
    let handle = &fleet.shards[shard];
    if let Err(depth) = try_admit(&handle.depth, fleet.queue_depth) {
        meters::OVERLOADED_TOTAL.inc();
        leapfrog_obs::global()
            .counter(&format!("leapfrog_shard_{shard}_overloaded_total"))
            .inc();
        return overloaded_to_value(&Overloaded {
            scope: OverloadScope::Shard,
            shard: Some(shard),
            depth: depth as u64,
            limit: fleet.queue_depth as u64,
            retry_after_ms: retry_after_ms(depth as u64),
        })
        .render();
    }
    meters::QUEUE_DEPTH.set(fleet.total_depth());
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = ShardJob::Check(ResolvedCheck {
        name,
        left,
        ql,
        right,
        qr,
        options,
        reply: reply_tx,
    });
    if handle.tx.send(job).is_err() {
        handle.depth.fetch_sub(1, Ordering::SeqCst);
        return error_value("server is shutting down").render();
    }
    match reply_rx.recv() {
        Ok(reply) => reply,
        Err(_) => error_value("server is shutting down").render(),
    }
}

/// What one poll of a connection produced.
enum FrameRead {
    /// A complete frame.
    Frame(String),
    /// The peer closed cleanly between frames.
    Eof,
    /// Nothing arrived within the poll timeout.
    Idle,
}

/// Reads one frame with an idle timeout on the *first* byte only: once a
/// prefix byte has arrived the read blocks (retrying through timeouts)
/// until the frame completes, so a slow writer is never torn.
fn read_frame_idle(stream: &mut TcpStream) -> std::io::Result<FrameRead> {
    use std::io::ErrorKind;
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match stream.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "peer closed mid-prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && filled == 0 =>
            {
                return Ok(FrameRead::Idle)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > proto::MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match stream.read(&mut payload[at..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(payload)
        .map(FrameRead::Frame)
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "non-UTF-8 frame"))
}

fn handle_connection(mut stream: TcpStream, fleet: &Fleet, stop: &AtomicBool) {
    meters::CONNECTIONS_TOTAL.inc();
    meters::CONNECTIONS_OPEN.inc();
    struct OpenGuard;
    impl Drop for OpenGuard {
        fn drop(&mut self) {
            meters::CONNECTIONS_OPEN.dec();
        }
    }
    let _open = OpenGuard;
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let text = match read_frame_idle(&mut stream) {
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => return,
            Ok(FrameRead::Frame(t)) => t,
        };
        let started = std::time::Instant::now();
        meters::REQUESTS_TOTAL.inc();
        let request = json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| proto::request_from_value(&v));
        let payload = match request {
            Ok(Request::Check { pair, options }) => run_check(fleet, peer, pair, options),
            // Introspection requests read only process-global state:
            // answered right here, never queued behind a check.
            Ok(Request::Verify { pair, certificate }) => {
                verify_reply(fleet, &pair, &certificate).render()
            }
            Ok(Request::Metrics) => metrics_reply().render(),
            Ok(Request::SlowLog) => slow_log_reply().render(),
            Ok(Request::Stats) => stats_reply(fleet).render(),
            Ok(Request::Shutdown) => {
                let reply = shutdown_reply(fleet);
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop with a throwaway connection so
                // it observes the flag.
                let _ = TcpStream::connect(fleet.addr);
                let _ = proto::write_frame(&mut stream, &reply.render());
                meters::REQUEST_SECONDS.record(started.elapsed());
                return;
            }
            Err(e) => error_value(&e).render(),
        };
        meters::QUEUE_DEPTH.set(fleet.total_depth());
        let ok = proto::write_frame(&mut stream, &payload).is_ok();
        meters::REQUEST_SECONDS.record(started.elapsed());
        if !ok {
            return;
        }
    }
}
