//! Leapfrog: push-button equivalence checking for protocol parsers.
//!
//! This crate is the top of the reproduction of *"Leapfrog: Certified
//! Equivalence for Protocol Parsers"* (PLDI 2022): the symbolic worklist
//! algorithm (Algorithm 1) that computes the weakest symbolic bisimulation
//! with leaps over a pair of P4 automata, discharging entailments through
//! the `leapfrog-logic` lowering chain and the `leapfrog-smt` bitvector
//! solver.
//!
//! # Quick start: the persistent engine
//!
//! The primary entry point is the [`Engine`]: built once from a typed
//! [`EngineConfig`], it keeps every cross-query structure warm — the
//! instantiation ledger, per-pair sums and reachability sets, and one
//! outcome record per answered query — so repeated and batched queries
//! get cheaper over time. Results never depend on warmth.
//!
//! ```
//! use leapfrog::{Engine, EngineConfig, Outcome};
//! use leapfrog_p4a::surface::parse;
//!
//! let a = parse("parser A { state s { extract(h, 2);
//!                  select(h[0:0]) { 0b1 => accept; _ => reject; } } }").unwrap();
//! let b = parse("parser B { state s { extract(g, 1); goto t; }
//!                           state t { extract(k, 1);
//!                  select(g) { 0b1 => accept; _ => reject; } } }").unwrap();
//! let sa = a.state_by_name("s").unwrap();
//! let sb = b.state_by_name("s").unwrap();
//!
//! let mut engine = EngineConfig::new().threads(1).build();
//! assert!(engine.check(&a, sa, &b, sb).is_equivalent());
//! // The second check of the same pair is answered from the engine's
//! // record of the first: the same certificate, with no WP and no solver.
//! assert!(engine.check(&a, sa, &b, sb).is_equivalent());
//! let warm = engine.last_run_stats();
//! assert_eq!((warm.outcome_replays, warm.sum_cache_hits), (1, 1));
//! assert_eq!((warm.iterations, warm.queries.queries), (0, 0));
//! ```
//!
//! The per-query [`Checker`] (and [`checker::check_language_equivalence`])
//! remain as thin wrappers over a transient engine:
//!
//! ```
//! use leapfrog::{Checker, Options, Outcome};
//! use leapfrog_p4a::surface::parse;
//!
//! let a = parse("parser A { state s { extract(h, 2); goto accept; } }").unwrap();
//! let b = parse("parser B { state s { extract(g, 1); goto t; } \
//!                           state t { extract(k, 1); goto accept; } }").unwrap();
//! let sa = a.state_by_name("s").unwrap();
//! let sb = b.state_by_name("s").unwrap();
//! let mut checker = Checker::new(&a, sa, &b, sb, Options::default());
//! match checker.run() {
//!     Outcome::Equivalent(cert) => {
//!         assert!(leapfrog::certificate::check(&checker.sum_automaton(), &cert).is_ok());
//!     }
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```
//!
//! # Relational properties
//!
//! Beyond language equivalence, the initial relation can be extended with
//! store conditions ([`Checker::add_init_condition`]) to verify the paper's
//! *external filtering* and *relational verification* case studies (§7.1),
//! and the query can be weakened to check store-independence of acceptance
//! (the *header initialization* case study).
//!
//! # Certificates
//!
//! The paper produces Coq proof terms; an uncertified Rust port cannot.
//! Instead, a successful run yields a serializable [`Certificate`]
//! containing the computed relation `R`, and [`certificate::check`]
//! re-validates — from scratch, using only the logic and solver crates —
//! that `⋀R` is a symbolic bisimulation with leaps entailing the query.
//! The checker plays the role of the Coq kernel: the search is untrusted.

#![warn(missing_docs)]

pub mod certificate;
pub mod checker;
pub mod engine;
pub mod explicit;
pub mod json;
pub mod stats;

pub use certificate::{Certificate, CertificateError};
pub use checker::{Checker, Options, Outcome};
pub use engine::{
    route_fingerprint, Engine, EngineConfig, EngineStats, PairId, QueryRequest, QuerySpec,
};
pub use explicit::{check_explicit, ExplicitResult};
pub use stats::RunStats;
