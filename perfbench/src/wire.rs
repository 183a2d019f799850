//! The `wire` workload: one long-lived `leapfrogd` serves many pairs.
//!
//! The daemon runs with `--workers 1` and `LEAPFROG_THREADS=1`. Set-up
//! primes a state directory: a first daemon checks the primed pairs and
//! saves its warm state on shutdown. Each pass then restarts the daemon
//! on a fresh copy of that state and one client process drives two
//! closed-loop connections through a seeded stream of `check` requests
//! with inline parsers: re-checks of primed pairs alongside new
//! equivalent pairs. New inequivalent pairs follow one at a time once the
//! stream has drained. Only here do decode, admission, queueing,
//! batching, encode, the state load and cache reuse across pairs run.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use leapfrog::json;
use leapfrog::{Engine, EngineConfig};
use leapfrog_p4a::walk::Rng;
use leapfrog_serve::proto::{
    overloaded_from_value, read_frame, request_to_value, run_stats_from_value,
    wire_outcome_from_value, write_frame, PairSpec, Request, WireOptions,
};
use leapfrog_serve::{outcome_to_value, Client};

use crate::inputs::{self, Pair};
use crate::measure::{self, Class, Run};
use crate::spans::{Recorder, Span};

/// Closed-loop client connections (one per CPU of a 2-CPU host).
pub const CONNECTIONS: usize = 2;

/// Read deadline for any reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the stream, encoded once at set-up.
#[derive(Clone)]
struct Req {
    name: String,
    class: Class,
    frame: String,
    /// The canonical outcome bytes of the same parsed pair, checked in
    /// process.
    expected: String,
}

/// A prepared `wire` run: the request stream, the primed state and the
/// daemon of the current pass.
pub struct Wire {
    daemon: PathBuf,
    work: PathBuf,
    probe: Req,
    requests: Vec<Req>,
    refutes: Vec<Req>,
    new_pairs: usize,
    child: Option<Child>,
    /// Passes so far (each restarts the daemon); keeps span ids unique.
    restarts: usize,
    peak_rss: Vec<f64>,
    spans: Vec<Span>,
    memo_hits: u64,
    entailment_checks: u64,
    state_load_s: Vec<f64>,
    rss_per_new_pair: Vec<f64>,
    overloaded: u64,
    errors: u64,
}

/// Encodes a pair as an inline check request and computes, in process,
/// the outcome bytes the daemon must return for the same parsed pair.
fn encode(pair: &Pair, class: Class, parse_ns: &mut u64, run: &mut Run) -> Req {
    let left = leapfrog_p4a::pretty::pretty(&pair.left, "L");
    let right = leapfrog_p4a::pretty::pretty(&pair.right, "R");
    let (ls, rs) = (
        pair.left.state_name(pair.ql),
        pair.right.state_name(pair.qr),
    );
    let t = Instant::now();
    let l = leapfrog_p4a::surface::parse(&left).expect("pretty output parses");
    let r = leapfrog_p4a::surface::parse(&right).expect("pretty output parses");
    *parse_ns += t.elapsed().as_nanos() as u64;
    let mut engine = Engine::new(EngineConfig::new().threads(1));
    let outcome = engine.check(
        &l,
        l.state_by_name(ls).unwrap(),
        &r,
        r.state_by_name(rs).unwrap(),
    );
    if outcome.is_equivalent() != pair.expect_equivalent() {
        run.fail(format!(
            "{}: in-process verdict contradicts the known answer",
            pair.name
        ));
    }
    let request = Request::Check {
        pair: PairSpec::Inline {
            left,
            left_start: ls.to_string(),
            right,
            right_start: rs.to_string(),
        },
        options: WireOptions::default(),
    };
    Req {
        name: pair.name.clone(),
        class,
        frame: request_to_value(&request).render(),
        expected: outcome_to_value(&outcome).render(),
    }
}

impl Wire {
    /// Builds the stream and primes the state directory.
    pub fn setup(seed: u64, daemon: &Path, work: &Path, run: &mut Run) -> Result<Wire, String> {
        let work = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(work);
        std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
        let rows: Vec<Pair> = inputs::table2_rows()
            .into_iter()
            .filter(|p| p.query == inputs::Query::Standard)
            .collect();
        let mut primed: Vec<Pair> = rows;
        primed.extend(inputs::scenario_self_mutants(seed, |i| i % 4 == 0));
        let fresh = inputs::scenario_self_mutants(seed, |i| i % 2 == 1);
        let refutes = inputs::refutation_pairs(seed, &inputs::WIRE_REFUTES);
        let mut parse_ns = 0;
        let probe = encode(&primed.remove(0), Class::Recheck, &mut parse_ns, run);
        // Each primed pair is re-checked twice per pass: first on the
        // state reloaded from disk, then on the warm state the first
        // re-check left resident.
        let mut requests: Vec<Req> = Vec::new();
        let mut prime_frames = vec![probe.frame.clone()];
        for p in &primed {
            let req = encode(p, Class::Recheck, &mut parse_ns, run);
            prime_frames.push(req.frame.clone());
            requests.push(req.clone());
            requests.push(req);
        }
        let new_pairs = fresh.len() + refutes.len();
        for p in &fresh {
            requests.push(encode(p, Class::Prove, &mut parse_ns, run));
        }
        inputs::shuffle(&mut requests, &mut Rng::new(seed));
        let refutes: Vec<Req> = refutes
            .iter()
            .map(|p| encode(p, Class::Refute, &mut parse_ns, run))
            .collect();
        let mut wire = Wire {
            daemon: daemon.to_path_buf(),
            work,
            probe,
            requests,
            refutes,
            new_pairs,
            child: None,
            restarts: 0,
            peak_rss: Vec::new(),
            spans: Vec::new(),
            memo_hits: 0,
            entailment_checks: 0,
            state_load_s: Vec::new(),
            rss_per_new_pair: Vec::new(),
            overloaded: 0,
            errors: 0,
        };
        let encoded = wire.requests.len() + wire.refutes.len() + 1;
        let parse_ms = parse_ns as f64 / 1e6 / encoded as f64;
        run.layers.insert("p4a.parse_ms", parse_ms);

        // Prime: a first daemon checks the primed pairs (the probe too)
        // and saves its warm state on shutdown.
        let primed_dir = wire.work.join("primed");
        let _ = std::fs::remove_dir_all(&primed_dir);
        let addr = wire.spawn(&primed_dir)?.1;
        let mut client =
            Client::connect_timeout(&addr, Duration::from_secs(5), Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
        for frame in &prime_frames {
            let request = json::parse(frame).map_err(|e| e.to_string())?;
            client.round_trip(&request).map_err(|e| e.to_string())?;
        }
        wire.stop(client)?;
        Ok(wire)
    }

    /// Starts a daemon on `state`, waits for its port file and returns
    /// the seconds that took and the address.
    fn spawn(&mut self, state: &Path) -> Result<(f64, String), String> {
        let port_file = self.work.join("port.txt");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(&self.daemon);
        for (key, _) in std::env::vars() {
            if key.starts_with("LEAPFROG_") {
                cmd.env_remove(key);
            }
        }
        let t = Instant::now();
        let child = cmd
            .env("LEAPFROG_THREADS", "1")
            .arg("--workers")
            .arg("1")
            .arg("--state-dir")
            .arg(state)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.daemon.display()))?;
        self.child = Some(child);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.trim().is_empty() {
                    return Ok((t.elapsed().as_secs_f64(), addr.trim().to_string()));
                }
            }
            if t.elapsed() > Duration::from_secs(60) {
                return Err("the daemon wrote no port file within 60 s".into());
            }
            if let Some(status) = self
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                self.child = None;
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Asks the daemon to save its state and exit, and waits for it.
    fn stop(&mut self, mut client: Client) -> Result<(), String> {
        let asked = client.shutdown().map_err(|e| e.to_string());
        let Some(mut child) = self.child.take() else {
            return asked;
        };
        let t = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return asked,
                Ok(None) if t.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the daemon did not exit after shutdown; killed it".into());
                }
            }
        }
    }

    /// Stops the current daemon, if any, and waits for it to end.
    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or(String::new(), |c| c.id().to_string())
    }

    /// One pass: restart on a fresh copy of the primed state, time the
    /// set-up to the first correct reply, then drive the whole stream.
    pub fn pass(&mut self, run: &mut Run, rec: &mut Recorder, counting: bool, q: &mut u64) -> f64 {
        match self.restart_and_stream(run, rec, counting, q) {
            Ok(s) => s,
            Err(e) => {
                self.kill();
                run.fail(format!("wire pass: {e}"));
                0.0
            }
        }
    }

    fn restart_and_stream(
        &mut self,
        run: &mut Run,
        rec: &mut Recorder,
        counting: bool,
        q: &mut u64,
    ) -> Result<f64, String> {
        let live = self.work.join("live");
        let _ = std::fs::remove_dir_all(&live);
        copy_dir(&self.work.join("primed"), &live).map_err(|e| e.to_string())?;

        rec.set_query(0);
        rec.open("serve.restart");
        let t = Instant::now();
        rec.open("serve.spawn");
        let (load_s, addr) = self.spawn(&live)?;
        rec.close();
        self.state_load_s.push(load_s);
        rec.open("serve.first_reply");
        let mut probe_conn = connect(&addr);
        let first = exchange(&mut probe_conn, &self.probe);
        rec.close();
        rec.close();
        match first {
            Ok(reply) if reply.outcome == self.probe.expected => {
                run.ok(Class::Recheck, reply.rtt_ms);
                run.setups.push(t.elapsed().as_secs_f64());
            }
            Ok(_) => run.fail(format!(
                "{}: wire outcome differs from in-process",
                self.probe.name
            )),
            Err(e) => run.fail(format!("{}: {e}", self.probe.name)),
        }
        let pid = self.pid();
        let rss_before = measure::rss_mb(&pid).unwrap_or(0.0);

        self.restarts += 1;
        let restarts = self.restarts;
        let next = AtomicUsize::new(0);
        let shared = Mutex::new(Tally {
            run: std::mem::take(run),
            ..Tally::default()
        });
        let base_query = *q;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CONNECTIONS {
                let (next, shared, addr, requests) = (&next, &shared, &addr, &self.requests);
                let mut conn_rec = rec.fork(2 + (restarts * CONNECTIONS + c) as u64);
                scope.spawn(move || {
                    let mut conn = connect(addr);
                    conn_rec.set_query(0);
                    conn_rec.open("serve.stream");
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = requests.get(i) else { break };
                        conn_rec.set_query(base_query + 1 + i as u64);
                        conn_rec.open("serve.request");
                        let reply = match conn.as_mut() {
                            Ok(s) => exchange_traced(s, req, &mut conn_rec),
                            Err(e) => Err(Failure::Error(e.clone())),
                        };
                        conn_rec.close();
                        let mut tally = shared.lock().expect("no panics while holding the lock");
                        tally.record(req, reply, counting);
                    }
                    conn_rec.set_query(0);
                    conn_rec.close();
                    let mut tally = shared.lock().expect("no panics while holding the lock");
                    tally.spans.extend(conn_rec.spans);
                });
            }
        });
        let mut tally = shared.into_inner().expect("threads joined");
        // Refutations go one at a time on the probe connection once the
        // stream has drained. In the stream, a refutation's round trip
        // mostly measured how long it queued behind the other
        // connection's request, and its mean spread 0.26 between runs.
        rec.set_query(0);
        rec.open("serve.stream");
        for (i, req) in self.refutes.iter().enumerate() {
            rec.set_query(base_query + 1 + (self.requests.len() + i) as u64);
            rec.open("serve.request");
            let reply = match probe_conn.as_mut() {
                Ok(s) => exchange_traced(s, req, rec),
                Err(e) => Err(Failure::Error(e.clone())),
            };
            rec.close();
            tally.record(req, reply, counting);
        }
        rec.set_query(0);
        rec.close();
        let stream_s = start.elapsed().as_secs_f64();
        *q += (self.requests.len() + self.refutes.len()) as u64;
        *run = tally.run;
        self.spans.extend(tally.spans);
        self.memo_hits += tally.memo_hits;
        self.entailment_checks += tally.entailment_checks;
        self.overloaded += tally.overloaded;
        self.errors += tally.errors;
        if let Some(peak) = measure::peak_rss_mb(&pid) {
            self.peak_rss.push(peak);
        }
        if let Some(after) = measure::rss_mb(&pid) {
            self.rss_per_new_pair
                .push((after - rss_before) / self.new_pairs as f64);
        }
        drop(probe_conn);
        // The live copy of the state is thrown away: stop without saving.
        self.kill();
        self.fill_layers(run);
        Ok(stream_s)
    }

    fn fill_layers(&self, run: &mut Run) {
        let ratio = if self.entailment_checks > 0 {
            self.memo_hits as f64 / self.entailment_checks as f64
        } else {
            0.0
        };
        run.layers.insert("serve.memo_hit_ratio", ratio);
        run.layers
            .insert("serve.overloaded", self.overloaded as f64);
        run.layers.insert("serve.errors", self.errors as f64);
        run.layers.insert(
            "serve.state_load_s",
            measure::quantile(&self.state_load_s, 0.5),
        );
        run.layers.insert(
            "serve.rss_mb_per_new_pair",
            measure::quantile(&self.rss_per_new_pair, 0.5),
        );
    }

    /// Median over the run's restarts of the daemon's peak RSS, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        measure::quantile(&self.peak_rss, 0.5)
    }

    /// The connection threads' spans, for the traced run's table.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Confirms no daemon is left running.
    pub fn finish(mut self) -> Result<(), String> {
        if self.child.is_none() {
            return Ok(());
        }
        self.kill();
        Err("a daemon was still running at the end of the run".into())
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        self.kill();
    }
}

enum Failure {
    Overloaded,
    Error(String),
}

/// What the connection threads of one pass record, behind one lock.
#[derive(Default)]
struct Tally {
    run: Run,
    spans: Vec<Span>,
    memo_hits: u64,
    entailment_checks: u64,
    overloaded: u64,
    errors: u64,
}

impl Tally {
    fn record(&mut self, req: &Req, reply: Result<Reply, Failure>, counting: bool) {
        match reply {
            Ok(r) if r.outcome == req.expected => {
                self.run.ok(req.class, r.rtt_ms);
                if req.class == Class::Recheck {
                    self.memo_hits += r.memo_hits;
                    self.entailment_checks += r.entailment_checks;
                }
                if counting {
                    let verdict = if r.equivalent {
                        "serve.replies_equivalent"
                    } else {
                        "serve.replies_not_equivalent"
                    };
                    self.run.count(verdict, 1);
                }
            }
            Ok(_) => self.run.fail(format!(
                "{}: wire outcome differs from in-process",
                req.name
            )),
            Err(Failure::Overloaded) => {
                self.overloaded += 1;
                self.run.fail(format!("{}: overloaded", req.name));
            }
            Err(Failure::Error(e)) => {
                self.errors += 1;
                self.run.fail(format!("{}: {e}", req.name));
            }
        }
    }
}

struct Reply {
    outcome: String,
    equivalent: bool,
    rtt_ms: f64,
    memo_hits: u64,
    entailment_checks: u64,
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

fn exchange(conn: &mut Result<TcpStream, String>, req: &Req) -> Result<Reply, String> {
    let mut rec = Recorder::new(false, Instant::now(), 0);
    match conn {
        Ok(s) => exchange_traced(s, req, &mut rec).map_err(|f| match f {
            Failure::Overloaded => "overloaded".to_string(),
            Failure::Error(e) => e,
        }),
        Err(e) => Err(e.clone()),
    }
}

/// Sends one encoded request and decodes its reply. Under a traced
/// recorder, the reply's engine time and the client's decode become
/// children of the open request span.
fn exchange_traced(
    stream: &mut TcpStream,
    req: &Req,
    rec: &mut Recorder,
) -> Result<Reply, Failure> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| {
        Failure::Error(if e.kind() == std::io::ErrorKind::WouldBlock {
            "timed out waiting for the reply".to_string()
        } else {
            e.to_string()
        })
    };
    write_frame(stream, &req.frame).map_err(io)?;
    let frame = read_frame(stream)
        .map_err(io)?
        .ok_or_else(|| Failure::Error("the daemon closed the connection".into()))?;
    let read_at = rec.now();
    rec.open("serve.decode");
    let decoded = decode(&frame);
    rec.close();
    let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (outcome, equivalent, stats) = decoded?;
    rec.child_before(read_at, "serve.engine", stats.wall_time.as_nanos() as u64);
    Ok(Reply {
        outcome,
        equivalent,
        rtt_ms,
        memo_hits: stats.entailment_memo_hits,
        entailment_checks: stats.entailment_checks,
    })
}

fn decode(frame: &str) -> Result<(String, bool, leapfrog::RunStats), Failure> {
    let err = |e: String| Failure::Error(format!("undecodable reply: {e}"));
    let v = json::parse(frame).map_err(|e| err(e.to_string()))?;
    if overloaded_from_value(&v).map_err(err)?.is_some() {
        return Err(Failure::Overloaded);
    }
    if let Ok(e) = json::get(&v, "error") {
        return Err(Failure::Error(format!("server error: {}", e.render())));
    }
    let outcome = json::get(&v, "outcome").map_err(|e| err(e.to_string()))?;
    let equivalent = wire_outcome_from_value(outcome)
        .map_err(err)?
        .is_equivalent();
    let stats = run_stats_from_value(json::get(&v, "stats").map_err(|e| err(e.to_string()))?)
        .map_err(err)?;
    Ok((outcome.render(), equivalent, stats))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
