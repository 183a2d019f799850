//! A small blocking client for the `leapfrogd` wire protocol.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use leapfrog::json::{self, Value};
use leapfrog::RunStats;

use crate::proto::{
    self, fleet_stats_from_value, overloaded_from_value, run_stats_from_value,
    verify_reply_from_value, wire_outcome_from_value, FleetStats, Overloaded, PairSpec, Request,
    VerifyReply, WireOptions, WireOutcome,
};

/// Why a client call failed. Soak and load tools branch on this: an
/// [`ClientError::Overloaded`] is healthy backpressure (back off for the
/// carried `retry_after_ms` and retry), everything else is a failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure — includes read/connect deadline expiry
    /// (check [`ClientError::is_timeout`]).
    Io(std::io::Error),
    /// The server's admission control declined the request.
    Overloaded(Overloaded),
    /// The server answered with an `{"error": …}` reply.
    Server(String),
    /// The reply did not decode as the protocol requires.
    Protocol(String),
}

impl ClientError {
    /// Whether this is a connect/read deadline expiry (as opposed to a
    /// refused connection, a reset, or a protocol error).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ClientError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Overloaded(o) => write!(
                f,
                "overloaded ({:?} depth {} >= limit {}, retry after {} ms)",
                o.scope, o.depth, o.limit, o.retry_after_ms
            ),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One answered check: the canonical outcome JSON (byte-comparable
/// against a locally encoded outcome), its typed decode, and the run
/// statistics.
#[derive(Debug)]
pub struct CheckReply {
    /// Canonical rendering of the outcome — identical bytes to
    /// [`proto::outcome_to_value`] applied to the same in-process outcome.
    pub outcome_json: String,
    /// The decoded outcome.
    pub outcome: WireOutcome,
    /// Statistics of the run that produced it — this request's own, also
    /// when the server grouped concurrent requests into one batch.
    pub stats: RunStats,
}

/// A connected protocol client. One request is in flight at a time; the
/// server interleaves clients freely.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running daemon. `LEAPFROG_CLIENT_TIMEOUT_MS`, when
    /// set, arms a read deadline on the new connection (0 disarms).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let client = Client { stream };
        if let Some(ms) = env_timeout_ms() {
            client.set_read_timeout(ms)?;
        }
        Ok(client)
    }

    /// Connects with an explicit connect deadline and (optionally) a
    /// read deadline; `read` of `None` falls back to
    /// `LEAPFROG_CLIENT_TIMEOUT_MS`. A deadline expiry surfaces as
    /// [`ClientError::Io`] with [`ClientError::is_timeout`] true.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        connect: Duration,
        read: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut last = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, connect) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let read = read.or_else(|| env_timeout_ms().flatten());
                    stream.set_read_timeout(read)?;
                    return Ok(Client { stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses resolved")
        })))
    }

    /// (Re)arms the read deadline; `None` blocks indefinitely.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request value and reads the reply value.
    pub fn round_trip(&mut self, request: &Value) -> Result<Value, ClientError> {
        proto::write_frame(&mut self.stream, &request.render())?;
        let reply = proto::read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".to_string()))?;
        json::parse(&reply).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Sends a request and classifies the reply: `overloaded` and
    /// `error` documents become their typed errors.
    fn round_trip_checked(&mut self, request: &Value) -> Result<Value, ClientError> {
        let reply = self.round_trip(request)?;
        if let Some(o) = overloaded_from_value(&reply).map_err(ClientError::Protocol)? {
            return Err(ClientError::Overloaded(o));
        }
        if let Ok(e) = json::get(&reply, "error") {
            return Err(ClientError::Server(
                json::as_str(e)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?
                    .to_string(),
            ));
        }
        Ok(reply)
    }

    fn check(&mut self, pair: PairSpec, options: WireOptions) -> Result<CheckReply, ClientError> {
        let reply =
            self.round_trip_checked(&proto::request_to_value(&Request::Check { pair, options }))?;
        let proto_err = |e: String| ClientError::Protocol(e);
        let json_err = |e: json::JsonError| ClientError::Protocol(e.to_string());
        let outcome_value = json::get(&reply, "outcome").map_err(json_err)?;
        Ok(CheckReply {
            outcome_json: outcome_value.render(),
            outcome: wire_outcome_from_value(outcome_value).map_err(proto_err)?,
            stats: run_stats_from_value(json::get(&reply, "stats").map_err(json_err)?)
                .map_err(proto_err)?,
        })
    }

    /// Checks a named suite row (standard Table 2 rows plus mutants).
    pub fn check_named(&mut self, name: &str) -> Result<CheckReply, ClientError> {
        self.check(PairSpec::Named(name.to_string()), WireOptions::default())
    }

    /// Checks two inline surface-syntax parsers.
    pub fn check_inline(
        &mut self,
        left: &str,
        left_start: &str,
        right: &str,
        right_start: &str,
    ) -> Result<CheckReply, ClientError> {
        self.check(
            PairSpec::Inline {
                left: left.to_string(),
                left_start: left_start.to_string(),
                right: right.to_string(),
                right_start: right_start.to_string(),
            },
            WireOptions::default(),
        )
    }

    /// [`Client::check_named`] with per-query option overrides.
    pub fn check_named_with(
        &mut self,
        name: &str,
        options: WireOptions,
    ) -> Result<CheckReply, ClientError> {
        self.check(PairSpec::Named(name.to_string()), options)
    }

    /// Asks the daemon to re-validate a certificate for a pair through
    /// the independent `leapfrog-certcheck` trust root. `certificate_json`
    /// is the `"Equivalent"` payload of a check reply (or a loaded
    /// archive); the reply names the failing obligation on rejection.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use leapfrog_serve::{Client, PairSpec, WireOutcome};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut client = Client::connect("127.0.0.1:4747")?;
    /// let reply = client.check_named("ethernet")?;
    /// if let WireOutcome::Equivalent(cert) = &reply.outcome {
    ///     let verdict = client.verify(PairSpec::Named("ethernet".into()), &cert.to_json())?;
    ///     assert!(verdict.ok, "trust root must re-discharge every obligation");
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn verify(
        &mut self,
        pair: PairSpec,
        certificate_json: &str,
    ) -> Result<VerifyReply, ClientError> {
        let certificate = json::parse(certificate_json)
            .map_err(|e| ClientError::Protocol(format!("certificate is not JSON: {e}")))?;
        let reply = self.round_trip_checked(&proto::request_to_value(&Request::Verify {
            pair,
            certificate,
        }))?;
        verify_reply_from_value(&reply).map_err(ClientError::Protocol)
    }

    /// [`Client::verify`] against a named suite row.
    pub fn verify_named(
        &mut self,
        name: &str,
        certificate_json: &str,
    ) -> Result<VerifyReply, ClientError> {
        self.verify(PairSpec::Named(name.to_string()), certificate_json)
    }

    /// The fleet's aggregate cumulative statistics (the `"engine"`
    /// payload of the `stats` reply — field-wise sum over all shards).
    pub fn engine_stats(&mut self) -> Result<Value, ClientError> {
        let reply = self.round_trip_checked(&proto::request_to_value(&Request::Stats))?;
        json::get(&reply, "engine")
            .cloned()
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// The typed shard-labelled `stats` reply: aggregate, worker count,
    /// and each shard's own counters.
    pub fn fleet_stats(&mut self) -> Result<FleetStats, ClientError> {
        let reply = self.round_trip_checked(&proto::request_to_value(&Request::Stats))?;
        fleet_stats_from_value(&reply).map_err(ClientError::Protocol)
    }

    /// The daemon's metrics snapshot: `(prometheus_text, json_value)`.
    /// Answered by the connection thread — usable even while the engine
    /// is busy with a long check.
    pub fn metrics(&mut self) -> Result<(String, Value), ClientError> {
        let reply = self.round_trip_checked(&proto::request_to_value(&Request::Metrics))?;
        let json_err = |e: json::JsonError| ClientError::Protocol(e.to_string());
        let m = json::get(&reply, "metrics").map_err(json_err)?;
        let text = json::as_str(json::get(m, "text").map_err(json_err)?)
            .map_err(json_err)?
            .to_string();
        let value = json::get(m, "json").cloned().map_err(json_err)?;
        Ok((text, value))
    }

    /// The daemon's retained slow-query records (span trees included),
    /// oldest first. Empty unless `LEAPFROG_SLOW_QUERY_MS` is armed.
    pub fn slow_log(&mut self) -> Result<Value, ClientError> {
        let reply = self.round_trip_checked(&proto::request_to_value(&Request::SlowLog))?;
        json::get(&reply, "slow_queries")
            .cloned()
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Asks the daemon to persist its state (when configured) and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let reply = self.round_trip_checked(&proto::request_to_value(&Request::Shutdown))?;
        json::get(&reply, "bye").map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(())
    }
}

/// `LEAPFROG_CLIENT_TIMEOUT_MS`: `None` = unset, `Some(None)` = 0
/// (explicitly disarmed), `Some(Some(d))` = armed.
fn env_timeout_ms() -> Option<Option<Duration>> {
    let raw = std::env::var("LEAPFROG_CLIENT_TIMEOUT_MS").ok()?;
    let ms: u64 = raw.trim().parse().ok()?;
    Some((ms > 0).then(|| Duration::from_millis(ms)))
}
