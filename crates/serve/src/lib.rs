//! Serving the equivalence engine over the wire.
//!
//! The ROADMAP's north star is a service, and since PR 4 the engine has
//! been a persistent in-process object; this crate adds the layers on
//! top of it:
//!
//! * a **wire front-end** ([`server`], shipped as the `leapfrogd` binary):
//!   a length-prefixed JSON protocol over `std::net::TcpListener` — no
//!   external dependencies, hand-rolled JSON on the certificate
//!   infrastructure — where a request names a suite row or carries two
//!   inline surface-syntax parsers, and the response carries the
//!   [`Outcome`](leapfrog::Outcome), the run statistics, and the full
//!   certificate or confirmed witness as JSON.
//! * a **fingerprint-routed fleet**: the daemon spawns `--workers N`
//!   engine shards, each owning its own [`Engine`](leapfrog::Engine)
//!   and warm-state universe. Connection threads route every check by
//!   the pair's stable 128-bit fingerprint (`fingerprint % N`), so a
//!   pair always lands on its warm shard; concurrent requests to one
//!   shard drain into `check_batch`-style scheduling over the
//!   work-stealing pool. Bounded per-shard queues and per-client
//!   quotas reply with a typed `overloaded` backpressure signal
//!   instead of queuing without bound.
//! * **cross-process persistence**, per shard under `shard-<i>/` in the
//!   state dir: on `shutdown` each shard serializes its
//!   instantiation-ledger verdicts and recorded proofs, and a restarted
//!   daemon reloads them — even at
//!   a *different* worker count, in which case saved proofs re-route by
//!   fingerprint to their new home shard. Answers stay byte-identical,
//!   only the wall-clock changes (asserted in `tests/serve.rs`).
//!
//! [`proto`] defines the frame format and the JSON encodings (with typed
//! decoded mirrors for clients); [`client`] is a small blocking client
//! with connect/read deadlines and a typed [`client::ClientError`] that
//! distinguishes backpressure from failure. `serve_gauntlet`,
//! `fleet_bench` and `persistence_roundtrip` are the CI drivers: the
//! first diffs every wire verdict byte-for-byte against one-shot
//! `check_language_equivalence` (including across worker counts), the
//! second measures fleet wall-clock at 1 vs 4 workers plus the
//! save-at-4/load-at-2 merge leg, the third proves a cold restart from
//! a saved state dir replays recorded proofs without changing a byte.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{CheckReply, Client, ClientError};
pub use proto::{
    outcome_to_value, read_frame, write_frame, EngineStatsReply, FleetStats, OverloadScope,
    Overloaded, PairSpec, Request, VerifyReply, WireOutcome,
};
pub use server::{Server, ServerOptions};
