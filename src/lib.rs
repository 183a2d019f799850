//! Umbrella crate for the Leapfrog reproduction: re-exports the public
//! API of every layer. See `src/README.md` for the architecture and the
//! `leapfrog` crate for the checker entry points.
//!
//! # Layers
//!
//! * [`bitvec`] — packed bitvectors with the paper's clamped slicing.
//! * [`sat`] / [`smt`] — the CDCL solver and the `FOL(BV)` CEGAR solver.
//! * [`p4a`] — P4 automata: syntax, explicit semantics, sums, surface
//!   syntax, and packet-walk synthesis ([`p4a::walk`]).
//! * [`logic`] — configuration relations, weakest preconditions, lowering.
//! * [`cex`] — the counterexample witness engine: lifts a refutation's
//!   countermodel into concrete initial stores and a packet, confirms the
//!   disagreement by explicit replay, and zeroes every packet bit the
//!   disagreement does not need.
//! * [`checker`] — the persistent `Engine`, the per-query `Checker`
//!   wrapper, certificates, run statistics.
//! * [`hwgen`] / [`suite`] — translation validation and the evaluation
//!   suite (case-study parsers, workloads, differential oracles).
//!
//! # The engine API
//!
//! The primary entry point is [`prelude::Engine`]: built once from a
//! typed [`prelude::EngineConfig`] (builder pattern;
//! `EngineConfig::from_env()` subsumes every `LEAPFROG_*` variable), it
//! owns the long-lived state — memoized sums and reachability sets, one
//! outcome record per answered query, and the cross-session
//! instantiation ledger — and answers single queries
//! ([`prelude::Engine::check`]) or whole batches
//! ([`prelude::Engine::check_batch`]) over the work-stealing worker pool.
//! Results are byte-identical however a query is posed: warm, cold,
//! batched or through the legacy wrappers.
//!
//! ```
//! use leapfrog_repro::prelude::*;
//!
//! let a = parse("parser A { state s { extract(h, 2);
//!                  select(h[0:0]) { 0b1 => accept; _ => reject; } } }").unwrap();
//! let q = a.state_by_name("s").unwrap();
//!
//! let mut engine = EngineConfig::new().threads(1).build();
//! // One-shot…
//! assert!(engine.check(&a, q, &a, q).is_equivalent());
//! // …and batched: the repeated specs replay the outcome the one-shot
//! // check recorded, with no search.
//! let spec = QuerySpec::new("self", &a, q, &a, q);
//! let outcomes = engine.check_batch(&[spec.clone(), spec]);
//! assert!(outcomes.iter().all(|o| o.is_equivalent()));
//! assert_eq!(engine.last_run_stats().outcome_replays, 2);
//! ```
//!
//! ## Migrating from `LEAPFROG_*` environment variables
//!
//! | Env var | `EngineConfig` field |
//! |---|---|
//! | `LEAPFROG_THREADS` | `threads(n)`: `check_batch` workers (`0` = auto) |
//! | `LEAPFROG_WARM_CAP` | `warm_capacity(n)` (`0` = unbounded) |
//!
//! `LEAPFROG_SCALE` and `LEAPFROG_WITNESS_CORPUS` configure the
//! evaluation *harness* (suite / bench), not the engine; `LEAPFROG_DUMP_SMT` remains an smt-layer
//! debugging knob. The authoritative knob-by-knob table (defaults,
//! layer, config field) is in `docs/ARCHITECTURE.md`.
//!
//! # Verdict API
//!
//! [`prelude::Outcome`] has three cases: `Equivalent(Certificate)` (an
//! independently re-checkable proof), `NotEquivalent(Refutation)` (a
//! concrete [`cex::Witness`] — stores, canonical packet, trace,
//! disagreement — confirmed against the explicit semantics, or an
//! `Unconfirmed` diagnostic if lifting failed), and `Aborted`.
//!
//! ```
//! use leapfrog_repro::prelude::*;
//!
//! let a = parse("parser A { state s { extract(h, 2); goto accept } }").unwrap();
//! let q = a.state_by_name("s").unwrap();
//! assert!(check_language_equivalence(&a, q, &a, q).is_equivalent());
//! ```
//!
//! A refuted query yields a replayable witness:
//!
//! ```
//! use leapfrog_repro::prelude::*;
//!
//! let a = parse("parser A { state s { extract(h, 1);
//!                  select(h) { 0b1 => accept; _ => reject; } } }").unwrap();
//! let b = parse("parser B { state s { extract(h, 1); goto reject } }").unwrap();
//! let qa = a.state_by_name("s").unwrap();
//! let qb = b.state_by_name("s").unwrap();
//! let mut engine = EngineConfig::new().threads(1).build();
//! let outcome = engine.check(&a, qa, &b, qb);
//! let witness = outcome.witness().expect("confirmed counterexample");
//! assert!(witness.check());
//! assert_eq!(witness.packet.len(), 1);
//! ```

#![warn(missing_docs)]

pub use leapfrog as checker;
pub use leapfrog_bitvec as bitvec;
pub use leapfrog_cex as cex;
pub use leapfrog_hwgen as hwgen;
pub use leapfrog_logic as logic;
pub use leapfrog_p4a as p4a;
pub use leapfrog_sat as sat;
pub use leapfrog_smt as smt;
pub use leapfrog_suite as suite;

/// The most common imports for downstream users.
pub mod prelude {
    pub use leapfrog::checker::check_language_equivalence;
    pub use leapfrog::{
        certificate, Certificate, Checker, Engine, EngineConfig, EngineStats, Options, Outcome,
        QueryRequest, QuerySpec,
    };
    pub use leapfrog_bitvec::BitVec;
    pub use leapfrog_cex::{Disagreement, Refutation, Witness};
    pub use leapfrog_p4a::builder::Builder;
    pub use leapfrog_p4a::semantics::Config;
    pub use leapfrog_p4a::surface::parse;
    pub use leapfrog_p4a::Automaton;
}
