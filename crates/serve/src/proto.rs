//! The wire protocol: length-prefixed JSON frames and the encodings of
//! requests, outcomes, witnesses and statistics.
//!
//! # Framing
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected (a malformed
//! length prefix must not make the peer allocate unbounded memory).
//!
//! # Requests
//!
//! ```json
//! {"check": {"pair": {"named": "Speculative loop"}}}
//! {"check": {"pair": {"inline": {"left": "parser A { … }", "left_start": "s",
//!                                "right": "parser B { … }", "right_start": "s"}},
//!            "options": {"leaps": true, "max_iterations": 10000}}}
//! {"verify": {"pair": {"named": "Speculative loop"}, "certificate": {…certificate…}}}
//! {"stats": {}}
//! {"metrics": {}}
//! {"slow_log": {}}
//! {"shutdown": {}}
//! ```
//!
//! A named pair resolves against the standard Table 2 rows plus the
//! mutant suite; an inline pair carries two surface-syntax parser sources
//! and start-state names. `options` is optional; omitted fields keep the
//! server engine's configuration (and a request with any option set runs
//! individually instead of joining a batch, since it poses a different
//! query shape).
//!
//! `verify` re-validates a previously obtained certificate against the
//! pair's sum automaton through the independent `leapfrog-certcheck`
//! trust root — own JSON decoding, WP transformer, and solver; no engine
//! state is touched, so the connection thread answers it directly.
//!
//! # Responses
//!
//! ```json
//! {"outcome": {"Equivalent": {…certificate…}}, "stats": {…run stats…}}
//! {"outcome": {"NotEquivalent": {"Witness": {…}}}, "stats": {…}}
//! {"engine": {…aggregate engine stats…}, "workers": 4,
//!  "shards": [{"shard": 0, "engine": {…}}, …], "metrics": {…registry counters…}}
//! {"metrics": {"text": "<Prometheus exposition>", "json": {…}}}
//! {"slow_queries": [{"label": "…", "wall_ms": 12, "threshold_ms": 5, "spans": […]}]}
//! {"verified": {"ok": true}}
//! {"verified": {"ok": false, "class": "not_closed",
//!               "detail": "relation is not closed under WP: …"}}
//! {"overloaded": {"scope": "shard", "shard": 2, "depth": 256, "limit": 256,
//!                 "retry_after_ms": 120}}
//! {"bye": true}
//! {"error": "unknown pair \"…\""}
//! ```
//!
//! The `stats` object is [`run_stats_to_value`]'s encoding of the run's
//! `RunStats`; its `queries` member carries the solver-level counters,
//! with the CDCL counters nested under `queries.sat`. Older peers also
//! sent their SAT racing counters as a `queries.portfolio` object; SAT
//! racing is gone, so encoders no longer write it and decoders ignore it
//! when present — a stats frame from such a peer decodes to the same
//! `RunStats`. Likewise, older peers sent the intra-query parallel
//! frontier's `parallel_batches`, `parallel_checks` and `merge_rechecks`
//! counters; every query now runs on one thread, so those keys are no
//! longer written and are ignored when present.
//!
//! `metrics` and `slow_log` are answered by the connection thread
//! directly from the process-global registry/trace collector — they
//! never queue behind the engine, so a scrape succeeds even while a
//! long check is running.
//!
//! The outcome encoding is *canonical*: encoding the same [`Outcome`]
//! always renders the same bytes, so clients can diff a wire answer
//! against a local one byte-for-byte — that is exactly what the
//! `serve_gauntlet` CI driver and `tests/serve.rs` do. Every encoding
//! also has a typed decode ([`WireOutcome`], [`WireWitness`]) that
//! re-encodes to identical bytes (round-trip property-tested in
//! `tests/proto_roundtrip.rs`).

use std::io::{Read, Write};
use std::time::Duration;

use leapfrog::json::{self, Value};
use leapfrog::{Certificate, EngineStats, Outcome, RunStats};
use leapfrog_bitvec::BitVec;
use leapfrog_cex::{Disagreement, Refutation, Witness};
use leapfrog_logic::confrel::ConfRel;
use leapfrog_logic::templates::TemplatePair;
use leapfrog_obs::{MetricsSnapshot, Phase, PhaseBreakdown, PhaseStat, SlowQuery};
use leapfrog_smt::{QueryStats, SolverStats, LBD_BUCKETS};

/// Upper bound on a single frame's payload. Certificates on the full
/// Table 2 scale stay far under this; anything larger is a protocol
/// error, not a workload.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------------
// Framing

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    assert!(bytes.len() <= MAX_FRAME_BYTES, "oversized outgoing frame");
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); a mid-frame close or an oversized length is an error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 frame"))
}

// ---------------------------------------------------------------------------
// Requests

/// Which parser pair a check poses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairSpec {
    /// A standard suite row (or mutant) by its Table 2 name.
    Named(String),
    /// Two inline surface-syntax parsers with start-state names.
    Inline {
        /// Left parser source (surface DSL).
        left: String,
        /// Left start-state name.
        left_start: String,
        /// Right parser source.
        right: String,
        /// Right start-state name.
        right_start: String,
    },
}

/// Per-query option overrides carried by a check request. `None` keeps
/// the server engine's configuration. Only the *semantic* knobs travel —
/// scheduling (threads, GC, caching) is the daemon's business.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireOptions {
    /// Override for bisimulation leaps.
    pub leaps: Option<bool>,
    /// Override for reachability pruning.
    pub reach_pruning: Option<bool>,
    /// Override for early stopping.
    pub early_stop: Option<bool>,
    /// Override for the iteration budget.
    pub max_iterations: Option<u64>,
}

impl WireOptions {
    /// Whether every override is unset (the request may join a batch).
    pub fn is_default(&self) -> bool {
        *self == WireOptions::default()
    }
}

/// One wire request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Pose a language-equivalence query.
    Check {
        /// The parser pair.
        pair: PairSpec,
        /// Per-query option overrides.
        options: WireOptions,
    },
    /// Re-validate a certificate for a pair through the independent
    /// `leapfrog-certcheck` trust root.
    Verify {
        /// The parser pair the certificate is about.
        pair: PairSpec,
        /// The certificate document (the `"Equivalent"` payload of a
        /// check reply, or a loaded archive).
        certificate: Value,
    },
    /// Ask for the engine's cumulative statistics.
    Stats,
    /// Ask for the metrics registry: Prometheus-style text exposition
    /// plus the same snapshot as JSON.
    Metrics,
    /// Ask for the retained slow-query records (span trees of queries
    /// that ran over `LEAPFROG_SLOW_QUERY_MS`).
    SlowLog,
    /// Save state (when the daemon has a state dir) and exit.
    Shutdown,
}

/// Encodes a pair spec (the `"pair"` payload of check/verify requests).
fn pair_spec_to_value(pair: &PairSpec) -> Value {
    match pair {
        PairSpec::Named(name) => json::obj(vec![("named", Value::Str(name.clone()))]),
        PairSpec::Inline {
            left,
            left_start,
            right,
            right_start,
        } => json::obj(vec![(
            "inline",
            json::obj(vec![
                ("left", Value::Str(left.clone())),
                ("left_start", Value::Str(left_start.clone())),
                ("right", Value::Str(right.clone())),
                ("right_start", Value::Str(right_start.clone())),
            ]),
        )]),
    }
}

/// Decodes a pair spec.
fn pair_spec_from_value(pair_v: &Value) -> Result<PairSpec, String> {
    let err = |e: json::JsonError| e.to_string();
    if let Ok(name) = json::get(pair_v, "named") {
        return Ok(PairSpec::Named(
            json::as_str(name).map_err(err)?.to_string(),
        ));
    }
    let inline = json::get(pair_v, "inline")
        .map_err(|_| "pair must be {\"named\": …} or {\"inline\": …}".to_string())?;
    let field = |k: &str| -> Result<String, String> {
        Ok(json::as_str(json::get(inline, k).map_err(err)?)
            .map_err(err)?
            .to_string())
    };
    Ok(PairSpec::Inline {
        left: field("left")?,
        left_start: field("left_start")?,
        right: field("right")?,
        right_start: field("right_start")?,
    })
}

/// Encodes a request.
pub fn request_to_value(req: &Request) -> Value {
    match req {
        Request::Check { pair, options } => {
            let mut fields = vec![("pair", pair_spec_to_value(pair))];
            if !options.is_default() {
                let mut opt_fields = Vec::new();
                if let Some(b) = options.leaps {
                    opt_fields.push(("leaps", Value::Bool(b)));
                }
                if let Some(b) = options.reach_pruning {
                    opt_fields.push(("reach_pruning", Value::Bool(b)));
                }
                if let Some(b) = options.early_stop {
                    opt_fields.push(("early_stop", Value::Bool(b)));
                }
                if let Some(n) = options.max_iterations {
                    opt_fields.push(("max_iterations", json::num(n as usize)));
                }
                fields.push(("options", json::obj(opt_fields)));
            }
            json::obj(vec![("check", json::obj(fields))])
        }
        Request::Verify { pair, certificate } => json::obj(vec![(
            "verify",
            json::obj(vec![
                ("pair", pair_spec_to_value(pair)),
                ("certificate", certificate.clone()),
            ]),
        )]),
        Request::Stats => json::obj(vec![("stats", json::obj(vec![]))]),
        Request::Metrics => json::obj(vec![("metrics", json::obj(vec![]))]),
        Request::SlowLog => json::obj(vec![("slow_log", json::obj(vec![]))]),
        Request::Shutdown => json::obj(vec![("shutdown", json::obj(vec![]))]),
    }
}

/// Decodes a request.
pub fn request_from_value(v: &Value) -> Result<Request, String> {
    let err = |e: json::JsonError| e.to_string();
    if let Ok(body) = json::get(v, "check") {
        let pair = pair_spec_from_value(json::get(body, "pair").map_err(err)?)?;
        let mut options = WireOptions::default();
        if let Ok(opts) = json::get(body, "options") {
            if let Ok(b) = json::get(opts, "leaps") {
                options.leaps = Some(json::as_bool(b).map_err(err)?);
            }
            if let Ok(b) = json::get(opts, "reach_pruning") {
                options.reach_pruning = Some(json::as_bool(b).map_err(err)?);
            }
            if let Ok(b) = json::get(opts, "early_stop") {
                options.early_stop = Some(json::as_bool(b).map_err(err)?);
            }
            if let Ok(n) = json::get(opts, "max_iterations") {
                options.max_iterations = Some(json::as_usize(n).map_err(err)? as u64);
            }
        }
        return Ok(Request::Check { pair, options });
    }
    if let Ok(body) = json::get(v, "verify") {
        return Ok(Request::Verify {
            pair: pair_spec_from_value(json::get(body, "pair").map_err(err)?)?,
            certificate: json::get(body, "certificate").map_err(err)?.clone(),
        });
    }
    if json::get(v, "stats").is_ok() {
        return Ok(Request::Stats);
    }
    if json::get(v, "metrics").is_ok() {
        return Ok(Request::Metrics);
    }
    if json::get(v, "slow_log").is_ok() {
        return Ok(Request::SlowLog);
    }
    if json::get(v, "shutdown").is_ok() {
        return Ok(Request::Shutdown);
    }
    Err(
        "unknown request (expected check / verify / stats / metrics / slow_log / shutdown)"
            .to_string(),
    )
}

// ---------------------------------------------------------------------------
// Verification

/// The typed `verified` reply: the trust root's verdict on a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReply {
    /// Whether every obligation re-discharged.
    pub ok: bool,
    /// The failing obligation class (stable machine-readable name, e.g.
    /// `"not_closed"`); `None` iff `ok`.
    pub error_class: Option<String>,
    /// Human-readable description of the failing obligation; `None` iff
    /// `ok`.
    pub detail: Option<String>,
}

impl VerifyReply {
    /// The accepting reply.
    pub fn accepted() -> VerifyReply {
        VerifyReply {
            ok: true,
            error_class: None,
            detail: None,
        }
    }

    /// A rejecting reply carrying the named failing obligation.
    pub fn rejected(class: &str, detail: &str) -> VerifyReply {
        VerifyReply {
            ok: false,
            error_class: Some(class.to_string()),
            detail: Some(detail.to_string()),
        }
    }
}

/// Encodes a verify reply as a full reply document: `{"verified": {…}}`.
pub fn verify_reply_to_value(r: &VerifyReply) -> Value {
    let mut fields = vec![("ok", Value::Bool(r.ok))];
    if let Some(class) = &r.error_class {
        fields.push(("class", Value::Str(class.clone())));
    }
    if let Some(detail) = &r.detail {
        fields.push(("detail", Value::Str(detail.clone())));
    }
    json::obj(vec![("verified", json::obj(fields))])
}

/// Decodes a `{"verified": {…}}` reply. An accepting reply must carry no
/// error payload and a rejecting one must carry both fields.
pub fn verify_reply_from_value(v: &Value) -> Result<VerifyReply, String> {
    let err = |e: json::JsonError| e.to_string();
    let body = json::get(v, "verified").map_err(err)?;
    let ok = json::as_bool(json::get(body, "ok").map_err(err)?).map_err(err)?;
    let field = |k: &str| -> Result<Option<String>, String> {
        match json::get(body, k) {
            Ok(v) => Ok(Some(json::as_str(v).map_err(err)?.to_string())),
            Err(_) => Ok(None),
        }
    };
    let reply = VerifyReply {
        ok,
        error_class: field("class")?,
        detail: field("detail")?,
    };
    if ok != (reply.error_class.is_none() && reply.detail.is_none()) {
        return Err("verified reply mixes ok with an error payload".to_string());
    }
    Ok(reply)
}

// ---------------------------------------------------------------------------
// Witnesses

/// A witness as it travels the wire: everything the original carries
/// except the embedded sum automaton (header values are keyed by name, so
/// a client holding the pair can rebuild the stores). Decoded mirrors
/// re-encode to identical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireWitness {
    /// Left start state in the sum automaton: id and name.
    pub left_start: (u32, String),
    /// Right start state in the sum automaton.
    pub right_start: (u32, String),
    /// Every header of the left run's initial store, in header-id order.
    pub left_store: Vec<(String, BitVec)>,
    /// Every header of the right run's initial store.
    pub right_store: Vec<(String, BitVec)>,
    /// The minimized distinguishing packet.
    pub packet: BitVec,
    /// The packet length before minimization.
    pub original_bits: usize,
    /// The template-pair trace of the refuted relation.
    pub trace: Vec<TemplatePair>,
    /// The observed disagreement.
    pub disagreement: WireDisagreement,
}

/// The wire form of [`Disagreement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDisagreement {
    /// One side accepts, the other rejects.
    Acceptance {
        /// Whether the left parser accepts.
        left_accepts: bool,
        /// Whether the right parser accepts.
        right_accepts: bool,
    },
    /// A relational initial conjunct is violated.
    InitRelation {
        /// The violated conjunct.
        relation: ConfRel,
        /// Countermodel values for the conjunct's packet variables.
        vals: Vec<BitVec>,
    },
}

/// Projects a checker witness onto its wire form.
pub fn wire_witness_of(w: &Witness) -> WireWitness {
    let aut = w.automaton();
    let store = |s: &leapfrog_p4a::semantics::Store| -> Vec<(String, BitVec)> {
        aut.header_ids()
            .map(|h| (aut.header_name(h).to_string(), s.get(h).clone()))
            .collect()
    };
    WireWitness {
        left_start: (w.left_start.0, aut.state_name(w.left_start).to_string()),
        right_start: (w.right_start.0, aut.state_name(w.right_start).to_string()),
        left_store: store(&w.left_store),
        right_store: store(&w.right_store),
        packet: w.packet.clone(),
        original_bits: w.original_bits,
        trace: w.trace.clone(),
        disagreement: match &w.disagreement {
            Disagreement::Acceptance {
                left_accepts,
                right_accepts,
            } => WireDisagreement::Acceptance {
                left_accepts: *left_accepts,
                right_accepts: *right_accepts,
            },
            Disagreement::InitRelation { relation, vals } => WireDisagreement::InitRelation {
                relation: relation.clone(),
                vals: vals.clone(),
            },
        },
    }
}

fn pair_to_value(p: &TemplatePair) -> Value {
    json::obj(vec![
        ("left", json::template_to_value(&p.left)),
        ("right", json::template_to_value(&p.right)),
    ])
}

fn pair_from_value(v: &Value) -> Result<TemplatePair, String> {
    let err = |e: json::JsonError| e.to_string();
    Ok(TemplatePair::new(
        json::template_from_value(json::get(v, "left").map_err(err)?).map_err(err)?,
        json::template_from_value(json::get(v, "right").map_err(err)?).map_err(err)?,
    ))
}

fn store_to_value(store: &[(String, BitVec)]) -> Value {
    Value::Arr(
        store
            .iter()
            .map(|(name, bits)| {
                json::obj(vec![
                    ("header", Value::Str(name.clone())),
                    ("bits", json::bitvec_to_value(bits)),
                ])
            })
            .collect(),
    )
}

fn store_from_value(v: &Value) -> Result<Vec<(String, BitVec)>, String> {
    let err = |e: json::JsonError| e.to_string();
    json::as_arr(v)
        .map_err(err)?
        .iter()
        .map(|e| {
            Ok((
                json::as_str(json::get(e, "header").map_err(err)?)
                    .map_err(err)?
                    .to_string(),
                json::bitvec_from_value(json::get(e, "bits").map_err(err)?).map_err(err)?,
            ))
        })
        .collect()
}

/// Encodes a wire witness.
pub fn wire_witness_to_value(w: &WireWitness) -> Value {
    let start = |(id, name): &(u32, String)| {
        json::obj(vec![
            ("id", json::num(*id as usize)),
            ("name", Value::Str(name.clone())),
        ])
    };
    let disagreement = match &w.disagreement {
        WireDisagreement::Acceptance {
            left_accepts,
            right_accepts,
        } => json::obj(vec![(
            "Acceptance",
            json::obj(vec![
                ("left_accepts", Value::Bool(*left_accepts)),
                ("right_accepts", Value::Bool(*right_accepts)),
            ]),
        )]),
        WireDisagreement::InitRelation { relation, vals } => json::obj(vec![(
            "InitRelation",
            json::obj(vec![
                ("relation", json::confrel_to_value(relation)),
                (
                    "vals",
                    Value::Arr(vals.iter().map(json::bitvec_to_value).collect()),
                ),
            ]),
        )]),
    };
    json::obj(vec![
        ("left_start", start(&w.left_start)),
        ("right_start", start(&w.right_start)),
        ("left_store", store_to_value(&w.left_store)),
        ("right_store", store_to_value(&w.right_store)),
        ("packet", json::bitvec_to_value(&w.packet)),
        ("original_bits", json::num(w.original_bits)),
        (
            "trace",
            Value::Arr(w.trace.iter().map(pair_to_value).collect()),
        ),
        ("disagreement", disagreement),
    ])
}

/// Decodes a wire witness.
pub fn wire_witness_from_value(v: &Value) -> Result<WireWitness, String> {
    let err = |e: json::JsonError| e.to_string();
    let start = |v: &Value| -> Result<(u32, String), String> {
        Ok((
            json::as_u32(json::get(v, "id").map_err(err)?, "start state id").map_err(err)?,
            json::as_str(json::get(v, "name").map_err(err)?)
                .map_err(err)?
                .to_string(),
        ))
    };
    let d = json::get(v, "disagreement").map_err(err)?;
    let disagreement = if let Ok(a) = json::get(d, "Acceptance") {
        WireDisagreement::Acceptance {
            left_accepts: json::as_bool(json::get(a, "left_accepts").map_err(err)?).map_err(err)?,
            right_accepts: json::as_bool(json::get(a, "right_accepts").map_err(err)?)
                .map_err(err)?,
        }
    } else {
        let r = json::get(d, "InitRelation").map_err(|_| "unknown disagreement tag".to_string())?;
        WireDisagreement::InitRelation {
            relation: json::confrel_from_value(json::get(r, "relation").map_err(err)?)
                .map_err(err)?,
            vals: json::as_arr(json::get(r, "vals").map_err(err)?)
                .map_err(err)?
                .iter()
                .map(|b| json::bitvec_from_value(b).map_err(err))
                .collect::<Result<_, _>>()?,
        }
    };
    Ok(WireWitness {
        left_start: start(json::get(v, "left_start").map_err(err)?)?,
        right_start: start(json::get(v, "right_start").map_err(err)?)?,
        left_store: store_from_value(json::get(v, "left_store").map_err(err)?)?,
        right_store: store_from_value(json::get(v, "right_store").map_err(err)?)?,
        packet: json::bitvec_from_value(json::get(v, "packet").map_err(err)?).map_err(err)?,
        original_bits: json::as_usize(json::get(v, "original_bits").map_err(err)?).map_err(err)?,
        trace: json::as_arr(json::get(v, "trace").map_err(err)?)
            .map_err(err)?
            .iter()
            .map(pair_from_value)
            .collect::<Result<_, _>>()?,
        disagreement,
    })
}

// ---------------------------------------------------------------------------
// Outcomes

/// An outcome as it travels the wire. [`WireOutcome::Equivalent`] carries
/// the full decoded certificate; refutations carry the wire witness or
/// the unconfirmed diagnostic.
#[derive(Debug, Clone)]
pub enum WireOutcome {
    /// The property holds.
    Equivalent(Certificate),
    /// Refuted with a confirmed wire witness.
    NotEquivalent(Box<WireWitness>),
    /// Refuted, but the countermodel did not lift into a confirmed
    /// witness: `(reason, report)`.
    Unconfirmed(String, String),
    /// The iteration budget was exhausted.
    Aborted(String),
}

impl WireOutcome {
    /// Whether the wire outcome reports equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, WireOutcome::Equivalent(_))
    }
}

/// Projects a checker outcome onto its wire form.
pub fn wire_outcome_of(outcome: &Outcome) -> WireOutcome {
    match outcome {
        Outcome::Equivalent(cert) => WireOutcome::Equivalent(cert.clone()),
        Outcome::NotEquivalent(Refutation::Witness(w)) => {
            WireOutcome::NotEquivalent(Box::new(wire_witness_of(w)))
        }
        Outcome::NotEquivalent(Refutation::Unconfirmed { reason, report }) => {
            WireOutcome::Unconfirmed(reason.clone(), report.clone())
        }
        Outcome::Aborted(msg) => WireOutcome::Aborted(msg.clone()),
    }
}

/// Encodes a wire outcome. The encoding is canonical: equal outcomes
/// render equal bytes.
pub fn wire_outcome_to_value(o: &WireOutcome) -> Value {
    match o {
        WireOutcome::Equivalent(cert) => {
            json::obj(vec![("Equivalent", json::certificate_to_value(cert))])
        }
        WireOutcome::NotEquivalent(w) => json::obj(vec![(
            "NotEquivalent",
            json::obj(vec![("Witness", wire_witness_to_value(w))]),
        )]),
        WireOutcome::Unconfirmed(reason, report) => json::obj(vec![(
            "NotEquivalent",
            json::obj(vec![(
                "Unconfirmed",
                json::obj(vec![
                    ("reason", Value::Str(reason.clone())),
                    ("report", Value::Str(report.clone())),
                ]),
            )]),
        )]),
        WireOutcome::Aborted(msg) => json::obj(vec![("Aborted", Value::Str(msg.clone()))]),
    }
}

/// [`wire_outcome_of`] composed with [`wire_outcome_to_value`]: the
/// canonical JSON of a checker outcome — what the server sends and what
/// byte-for-byte comparisons encode locally.
pub fn outcome_to_value(outcome: &Outcome) -> Value {
    wire_outcome_to_value(&wire_outcome_of(outcome))
}

/// Decodes a wire outcome.
pub fn wire_outcome_from_value(v: &Value) -> Result<WireOutcome, String> {
    let err = |e: json::JsonError| e.to_string();
    if let Ok(cert) = json::get(v, "Equivalent") {
        return Ok(WireOutcome::Equivalent(
            json::certificate_from_value(cert).map_err(err)?,
        ));
    }
    if let Ok(ne) = json::get(v, "NotEquivalent") {
        if let Ok(w) = json::get(ne, "Witness") {
            return Ok(WireOutcome::NotEquivalent(Box::new(
                wire_witness_from_value(w)?,
            )));
        }
        let u = json::get(ne, "Unconfirmed").map_err(|_| "unknown refutation tag".to_string())?;
        return Ok(WireOutcome::Unconfirmed(
            json::as_str(json::get(u, "reason").map_err(err)?)
                .map_err(err)?
                .to_string(),
            json::as_str(json::get(u, "report").map_err(err)?)
                .map_err(err)?
                .to_string(),
        ));
    }
    if let Ok(msg) = json::get(v, "Aborted") {
        return Ok(WireOutcome::Aborted(
            json::as_str(msg).map_err(err)?.to_string(),
        ));
    }
    Err("unknown outcome tag".to_string())
}

// ---------------------------------------------------------------------------
// Statistics

fn duration_to_value(d: Duration) -> Value {
    json::num(d.as_nanos() as usize)
}

fn duration_from_value(v: &Value) -> Result<Duration, String> {
    Ok(Duration::from_nanos(
        json::as_usize(v).map_err(|e| e.to_string())? as u64,
    ))
}

/// Encodes solver-level query statistics.
pub fn query_stats_to_value(q: &QueryStats) -> Value {
    json::obj(vec![
        ("queries", json::num(q.queries as usize)),
        ("cegar_rounds", json::num(q.cegar_rounds as usize)),
        ("blocks_considered", json::num(q.blocks_considered as usize)),
        ("blocks_validated", json::num(q.blocks_validated as usize)),
        ("session_rebuilds", json::num(q.session_rebuilds as usize)),
        ("live_clauses_peak", json::num(q.live_clauses_peak as usize)),
        ("blast_cache_hits", json::num(q.blast_cache_hits as usize)),
        (
            "blast_cache_misses",
            json::num(q.blast_cache_misses as usize),
        ),
        ("inst_ledger_hits", json::num(q.inst_ledger_hits as usize)),
        ("sat", solver_stats_to_value(&q.sat)),
        (
            "durations_nanos",
            Value::Arr(q.durations.iter().map(|d| duration_to_value(*d)).collect()),
        ),
    ])
}

/// Decodes solver-level query statistics.
pub fn query_stats_from_value(v: &Value) -> Result<QueryStats, String> {
    let err = |e: json::JsonError| e.to_string();
    let n = |k: &str| -> Result<u64, String> {
        Ok(json::as_usize(json::get(v, k).map_err(err)?).map_err(err)? as u64)
    };
    Ok(QueryStats {
        queries: n("queries")?,
        cegar_rounds: n("cegar_rounds")?,
        blocks_considered: n("blocks_considered")?,
        blocks_validated: n("blocks_validated")?,
        session_rebuilds: n("session_rebuilds")?,
        live_clauses_peak: n("live_clauses_peak")?,
        blast_cache_hits: n("blast_cache_hits")?,
        blast_cache_misses: n("blast_cache_misses")?,
        inst_ledger_hits: n("inst_ledger_hits")?,
        sat: solver_stats_from_value(json::get(v, "sat").map_err(err)?)?,
        durations: json::as_arr(json::get(v, "durations_nanos").map_err(err)?)
            .map_err(err)?
            .iter()
            .map(duration_from_value)
            .collect::<Result<_, _>>()?,
    })
}

/// Encodes the CDCL solver counters nested inside query statistics.
pub fn solver_stats_to_value(s: &SolverStats) -> Value {
    json::obj(vec![
        ("decisions", json::num(s.decisions as usize)),
        ("propagations", json::num(s.propagations as usize)),
        ("conflicts", json::num(s.conflicts as usize)),
        ("restarts", json::num(s.restarts as usize)),
        ("deleted_clauses", json::num(s.deleted_clauses as usize)),
        ("learnt_clauses", json::num(s.learnt_clauses as usize)),
        (
            "lbd_histogram",
            Value::Arr(
                s.lbd_histogram
                    .iter()
                    .map(|&n| json::num(n as usize))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes the CDCL solver counters.
pub fn solver_stats_from_value(v: &Value) -> Result<SolverStats, String> {
    let err = |e: json::JsonError| e.to_string();
    let n = |k: &str| -> Result<u64, String> {
        Ok(json::as_usize(json::get(v, k).map_err(err)?).map_err(err)? as u64)
    };
    let hist_values = json::as_arr(json::get(v, "lbd_histogram").map_err(err)?).map_err(err)?;
    if hist_values.len() != LBD_BUCKETS {
        return Err(format!(
            "lbd_histogram has {} buckets, expected {LBD_BUCKETS}",
            hist_values.len()
        ));
    }
    let mut lbd_histogram = [0u64; LBD_BUCKETS];
    for (slot, v) in lbd_histogram.iter_mut().zip(hist_values) {
        *slot = json::as_usize(v).map_err(err)? as u64;
    }
    Ok(SolverStats {
        decisions: n("decisions")?,
        propagations: n("propagations")?,
        conflicts: n("conflicts")?,
        restarts: n("restarts")?,
        deleted_clauses: n("deleted_clauses")?,
        learnt_clauses: n("learnt_clauses")?,
        lbd_histogram,
    })
}

/// Encodes a phase breakdown as an array of `{phase, count, nanos}`
/// entries in canonical phase order (empty when tracing was off).
pub fn phases_to_value(p: &PhaseBreakdown) -> Value {
    Value::Arr(
        p.entries
            .iter()
            .map(|e| {
                json::obj(vec![
                    ("phase", Value::Str(e.phase.as_str().to_string())),
                    ("count", json::num(e.count as usize)),
                    ("nanos", json::num(e.nanos as usize)),
                ])
            })
            .collect(),
    )
}

/// Decodes a phase breakdown.
pub fn phases_from_value(v: &Value) -> Result<PhaseBreakdown, String> {
    let err = |e: json::JsonError| e.to_string();
    let mut entries = Vec::new();
    for e in json::as_arr(v).map_err(err)? {
        let name = json::as_str(json::get(e, "phase").map_err(err)?).map_err(err)?;
        let phase = Phase::parse(name).ok_or_else(|| format!("unknown phase {name:?}"))?;
        entries.push(PhaseStat {
            phase,
            count: json::as_usize(json::get(e, "count").map_err(err)?).map_err(err)? as u64,
            nanos: json::as_usize(json::get(e, "nanos").map_err(err)?).map_err(err)? as u64,
        });
    }
    Ok(PhaseBreakdown { entries })
}

/// Encodes a metrics snapshot as JSON: counters and gauges as numbers
/// keyed by name, histograms as cumulative bucket arrays plus count and
/// sum (nanoseconds). Mirrors the text exposition exactly.
pub fn metrics_snapshot_to_value(snap: &MetricsSnapshot) -> Value {
    json::obj(vec![
        (
            "counters",
            Value::Obj(
                snap.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), json::num(*v as usize)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Value::Obj(
                snap.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Value::Obj(
                snap.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            json::obj(vec![
                                (
                                    "buckets",
                                    Value::Arr(
                                        h.cumulative
                                            .iter()
                                            .map(|c| json::num(*c as usize))
                                            .collect(),
                                    ),
                                ),
                                ("count", json::num(h.count as usize)),
                                ("sum_ns", json::num(h.sum_ns as usize)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes the retained slow-query records. Each record's span tree is
/// already canonical JSON text; it is embedded as a parsed value so the
/// reply is one JSON document.
pub fn slow_queries_to_value(records: &[SlowQuery]) -> Result<Value, String> {
    let mut out = Vec::new();
    for r in records {
        let tree = json::parse(&r.tree_json).map_err(|e| e.to_string())?;
        out.push(json::obj(vec![
            ("label", Value::Str(r.label.clone())),
            ("wall_ms", json::num(r.wall_ms as usize)),
            ("threshold_ms", json::num(r.threshold_ms as usize)),
            ("spans", tree),
        ]));
    }
    Ok(Value::Arr(out))
}

/// Encodes per-run statistics (wall time and solver durations travel as
/// integer nanoseconds so the round trip is exact).
pub fn run_stats_to_value(s: &RunStats) -> Value {
    json::obj(vec![
        ("iterations", json::num(s.iterations as usize)),
        ("extended", json::num(s.extended as usize)),
        ("skipped", json::num(s.skipped as usize)),
        ("wp_generated", json::num(s.wp_generated as usize)),
        ("wp_calls", json::num(s.wp_calls as usize)),
        ("scope_pairs", json::num(s.scope_pairs)),
        ("max_formula_size", json::num(s.max_formula_size)),
        (
            "witnesses_confirmed",
            json::num(s.witnesses_confirmed as usize),
        ),
        (
            "witnesses_unconfirmed",
            json::num(s.witnesses_unconfirmed as usize),
        ),
        (
            "witness_bits_minimized",
            json::num(s.witness_bits_minimized as usize),
        ),
        ("threads", json::num(s.threads)),
        ("entailment_checks", json::num(s.entailment_checks as usize)),
        ("premises_matched", json::num(s.premises_matched as usize)),
        ("premises_total", json::num(s.premises_total as usize)),
        ("sessions_reused", json::num(s.sessions_reused as usize)),
        (
            "entailment_memo_hits",
            json::num(s.entailment_memo_hits as usize),
        ),
        ("sum_cache_hits", json::num(s.sum_cache_hits as usize)),
        ("reach_cache_hits", json::num(s.reach_cache_hits as usize)),
        ("wall_time_nanos", duration_to_value(s.wall_time)),
        ("queries", query_stats_to_value(&s.queries)),
        ("phases", phases_to_value(&s.phases)),
    ])
}

/// Decodes per-run statistics.
pub fn run_stats_from_value(v: &Value) -> Result<RunStats, String> {
    let err = |e: json::JsonError| e.to_string();
    let n = |k: &str| -> Result<u64, String> {
        Ok(json::as_usize(json::get(v, k).map_err(err)?).map_err(err)? as u64)
    };
    let us = |k: &str| -> Result<usize, String> {
        json::as_usize(json::get(v, k).map_err(err)?).map_err(err)
    };
    Ok(RunStats {
        iterations: n("iterations")?,
        extended: n("extended")?,
        skipped: n("skipped")?,
        wp_generated: n("wp_generated")?,
        // Absent in frames from peers that predate the counter.
        wp_calls: match json::get(v, "wp_calls") {
            Ok(_) => n("wp_calls")?,
            Err(_) => 0,
        },
        scope_pairs: us("scope_pairs")?,
        max_formula_size: us("max_formula_size")?,
        witnesses_confirmed: n("witnesses_confirmed")?,
        witnesses_unconfirmed: n("witnesses_unconfirmed")?,
        witness_bits_minimized: n("witness_bits_minimized")?,
        threads: us("threads")?,
        entailment_checks: n("entailment_checks")?,
        premises_matched: n("premises_matched")?,
        premises_total: n("premises_total")?,
        sessions_reused: n("sessions_reused")?,
        entailment_memo_hits: n("entailment_memo_hits")?,
        sum_cache_hits: n("sum_cache_hits")?,
        reach_cache_hits: n("reach_cache_hits")?,
        wall_time: duration_from_value(json::get(v, "wall_time_nanos").map_err(err)?)?,
        queries: query_stats_from_value(json::get(v, "queries").map_err(err)?)?,
        phases: phases_from_value(json::get(v, "phases").map_err(err)?)?,
    })
}

/// Encodes engine-lifetime statistics for the `stats` wire request,
/// including the LRU eviction counters and the live ledger/cache sizes.
pub fn engine_stats_to_value(
    s: &EngineStats,
    ledger_len: usize,
    cache_entries: usize,
    state_report: Option<&str>,
) -> Value {
    json::obj(vec![
        ("checks", json::num(s.checks as usize)),
        ("batches", json::num(s.batches as usize)),
        ("pairs_interned", json::num(s.pairs_interned as usize)),
        ("sum_cache_hits", json::num(s.sum_cache_hits as usize)),
        ("reach_cache_hits", json::num(s.reach_cache_hits as usize)),
        ("sessions_reused", json::num(s.sessions_reused as usize)),
        (
            "entailment_memo_hits",
            json::num(s.entailment_memo_hits as usize),
        ),
        ("warm_evictions", json::num(s.warm_evictions as usize)),
        ("pair_evictions", json::num(s.pair_evictions as usize)),
        ("session_evictions", json::num(s.session_evictions as usize)),
        ("ledger_evictions", json::num(s.ledger_evictions as usize)),
        ("ledger_len", json::num(ledger_len)),
        ("cache_entries", json::num(cache_entries)),
        (
            "state_report",
            match state_report {
                Some(r) => Value::Str(r.to_string()),
                None => Value::Null,
            },
        ),
    ])
}

/// One engine's `stats` payload in typed form: the lifetime counters
/// plus the live ledger/cache sizes and the state-load report. Encodes
/// via [`engine_stats_reply_to_value`] to exactly the object
/// [`engine_stats_to_value`] produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStatsReply {
    /// Cumulative engine counters.
    pub stats: EngineStats,
    /// Verdicts currently recorded in the instantiation ledger.
    pub ledger_len: usize,
    /// CNF templates resident in the blast cache.
    pub cache_entries: usize,
    /// What state-dir loading found at construction, if anything.
    pub state_report: Option<String>,
}

/// Encodes a typed engine-stats reply (same bytes as
/// [`engine_stats_to_value`] on the parts).
pub fn engine_stats_reply_to_value(r: &EngineStatsReply) -> Value {
    engine_stats_to_value(
        &r.stats,
        r.ledger_len,
        r.cache_entries,
        r.state_report.as_deref(),
    )
}

/// Decodes an engine-stats object (the `"engine"` payload of a `stats`
/// reply, or one fleet shard's entry).
pub fn engine_stats_reply_from_value(v: &Value) -> Result<EngineStatsReply, String> {
    let err = |e: json::JsonError| e.to_string();
    let n = |k: &str| -> Result<u64, String> {
        Ok(json::as_usize(json::get(v, k).map_err(err)?).map_err(err)? as u64)
    };
    Ok(EngineStatsReply {
        stats: EngineStats {
            checks: n("checks")?,
            batches: n("batches")?,
            pairs_interned: n("pairs_interned")?,
            sum_cache_hits: n("sum_cache_hits")?,
            reach_cache_hits: n("reach_cache_hits")?,
            sessions_reused: n("sessions_reused")?,
            entailment_memo_hits: n("entailment_memo_hits")?,
            warm_evictions: n("warm_evictions")?,
            pair_evictions: n("pair_evictions")?,
            session_evictions: n("session_evictions")?,
            ledger_evictions: n("ledger_evictions")?,
        },
        ledger_len: json::as_usize(json::get(v, "ledger_len").map_err(err)?).map_err(err)?,
        cache_entries: json::as_usize(json::get(v, "cache_entries").map_err(err)?).map_err(err)?,
        state_report: match json::get(v, "state_report").map_err(err)? {
            Value::Null => None,
            other => Some(json::as_str(other).map_err(err)?.to_string()),
        },
    })
}

// ---------------------------------------------------------------------------
// Fleet

/// The shard-labelled `stats` reply of a fleet deployment: the
/// aggregate (field-wise sum, reports joined) under the same `"engine"`
/// key a single-engine daemon uses — existing clients keep working —
/// plus the worker count and each shard's own counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Field-wise aggregate over all shards.
    pub aggregate: EngineStatsReply,
    /// The number of engine shards serving.
    pub workers: usize,
    /// Per-shard counters, in shard order.
    pub shards: Vec<EngineStatsReply>,
}

impl FleetStats {
    /// Builds the fleet view from per-shard replies: shard order is
    /// kept, counters sum field-wise, and state reports join as
    /// `shard-<i>: <report>` lines.
    pub fn of_shards(shards: Vec<EngineStatsReply>) -> FleetStats {
        let mut aggregate = EngineStatsReply::default();
        let mut reports = Vec::new();
        for (i, s) in shards.iter().enumerate() {
            let a = &mut aggregate.stats;
            a.checks += s.stats.checks;
            a.batches += s.stats.batches;
            a.pairs_interned += s.stats.pairs_interned;
            a.sum_cache_hits += s.stats.sum_cache_hits;
            a.reach_cache_hits += s.stats.reach_cache_hits;
            a.sessions_reused += s.stats.sessions_reused;
            a.entailment_memo_hits += s.stats.entailment_memo_hits;
            a.warm_evictions += s.stats.warm_evictions;
            a.pair_evictions += s.stats.pair_evictions;
            a.session_evictions += s.stats.session_evictions;
            a.ledger_evictions += s.stats.ledger_evictions;
            aggregate.ledger_len += s.ledger_len;
            aggregate.cache_entries += s.cache_entries;
            if let Some(r) = &s.state_report {
                reports.push(format!("shard-{i}: {r}"));
            }
        }
        aggregate.state_report = if reports.is_empty() {
            None
        } else {
            Some(reports.join("; "))
        };
        FleetStats {
            aggregate,
            workers: shards.len(),
            shards,
        }
    }
}

/// Encodes the fleet `stats` reply body (without the `"metrics"` field
/// the server appends from the live registry).
pub fn fleet_stats_to_value(f: &FleetStats) -> Value {
    json::obj(vec![
        ("engine", engine_stats_reply_to_value(&f.aggregate)),
        ("workers", json::num(f.workers)),
        (
            "shards",
            Value::Arr(
                f.shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        json::obj(vec![
                            ("shard", json::num(i)),
                            ("engine", engine_stats_reply_to_value(s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes the fleet `stats` reply body. Shard entries must be labelled
/// `0..workers` in order — the labels are the routing indices, so a gap
/// or permutation is a protocol error.
pub fn fleet_stats_from_value(v: &Value) -> Result<FleetStats, String> {
    let err = |e: json::JsonError| e.to_string();
    let aggregate = engine_stats_reply_from_value(json::get(v, "engine").map_err(err)?)?;
    let workers = json::as_usize(json::get(v, "workers").map_err(err)?).map_err(err)?;
    let mut shards = Vec::new();
    for (i, entry) in json::as_arr(json::get(v, "shards").map_err(err)?)
        .map_err(err)?
        .iter()
        .enumerate()
    {
        let label = json::as_usize(json::get(entry, "shard").map_err(err)?).map_err(err)?;
        if label != i {
            return Err(format!("shard entry {i} labelled {label}"));
        }
        shards.push(engine_stats_reply_from_value(
            json::get(entry, "engine").map_err(err)?,
        )?);
    }
    if shards.len() != workers {
        return Err(format!(
            "stats reply lists {} shards for {workers} workers",
            shards.len()
        ));
    }
    Ok(FleetStats {
        aggregate,
        workers,
        shards,
    })
}

// ---------------------------------------------------------------------------
// Backpressure

/// What a shard's admission control rejected a request for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadScope {
    /// The routed shard's bounded queue is at its depth limit.
    Shard,
    /// The client is at its per-connection in-flight quota.
    Client,
}

impl OverloadScope {
    fn as_str(&self) -> &'static str {
        match self {
            OverloadScope::Shard => "shard",
            OverloadScope::Client => "client",
        }
    }
}

/// The typed `overloaded` response: admission control declined to queue
/// the request. The client should back off for `retry_after_ms` and
/// retry — the verdict it would have gotten is unchanged (routing is
/// deterministic), only the timing moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded {
    /// Which limit rejected the request.
    pub scope: OverloadScope,
    /// The shard that would have served it (None for client-quota
    /// rejections, which precede routing).
    pub shard: Option<usize>,
    /// The observed depth (queue length or in-flight count).
    pub depth: u64,
    /// The configured limit the depth ran into.
    pub limit: u64,
    /// Suggested backoff before retrying, in milliseconds.
    pub retry_after_ms: u64,
}

/// Encodes an overload rejection as a full reply document:
/// `{"overloaded": {…}}`.
pub fn overloaded_to_value(o: &Overloaded) -> Value {
    let mut fields = vec![("scope", Value::Str(o.scope.as_str().to_string()))];
    if let Some(shard) = o.shard {
        fields.push(("shard", json::num(shard)));
    }
    fields.push(("depth", json::num(o.depth as usize)));
    fields.push(("limit", json::num(o.limit as usize)));
    fields.push(("retry_after_ms", json::num(o.retry_after_ms as usize)));
    json::obj(vec![("overloaded", json::obj(fields))])
}

/// Decodes an `{"overloaded": {…}}` reply; `Ok(None)` when the document
/// is some other reply kind.
pub fn overloaded_from_value(v: &Value) -> Result<Option<Overloaded>, String> {
    let err = |e: json::JsonError| e.to_string();
    let Ok(body) = json::get(v, "overloaded") else {
        return Ok(None);
    };
    let scope = match json::as_str(json::get(body, "scope").map_err(err)?).map_err(err)? {
        "shard" => OverloadScope::Shard,
        "client" => OverloadScope::Client,
        other => return Err(format!("unknown overload scope {other:?}")),
    };
    let shard = match json::get(body, "shard") {
        Ok(v) => Some(json::as_usize(v).map_err(err)?),
        Err(_) => None,
    };
    let n = |k: &str| -> Result<u64, String> {
        Ok(json::as_usize(json::get(body, k).map_err(err)?).map_err(err)? as u64)
    };
    Ok(Some(Overloaded {
        scope,
        shard,
        depth: n("depth")?,
        limit: n("limit")?,
        retry_after_ms: n("retry_after_ms")?,
    }))
}
