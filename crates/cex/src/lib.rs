//! The counterexample witness engine.
//!
//! Leapfrog's symbolic checker proves parser *equivalence*; this crate
//! closes the trust loop for the opposite verdict. When the worklist
//! refutes a query, the CEGAR solver has already computed a full
//! countermodel — an assignment to the initial stores of both automata and
//! to the packet variables introduced by weakest preconditions. The engine
//!
//! 1. **lifts** that model into concrete initial [`Store`]s and a concrete
//!    input packet ([`engine::build_witness`]),
//! 2. **confirms** the refutation by replaying the packet through the
//!    explicit semantics of §4 from both initial configurations and
//!    checking that the parsers genuinely disagree — on acceptance, or on
//!    the violated relational condition,
//! 3. falls back to steered packet **search** (reusing the workload
//!    walker in [`leapfrog_p4a::walk`]) when the zero-completion of
//!    unconstrained model variables strays off the symbolic trace, and
//! 4. **canonicalizes** the confirmed packet
//!    ([`minimize::canonicalize`]): it keeps the lifted length — one
//!    leap-sized chunk per weakest-precondition step of the shortest
//!    derivation Algorithm 1 found — and zeroes, left to right, every bit
//!    the disagreement does not need. Every candidate packet is replayed
//!    state by state ([`Config::run`]); the finished witness is confirmed
//!    again on the bit-level `δ*` ([`Witness::check`]).
//!
//! The product is a structured [`Witness`] — stores, packet, symbolic
//! trace, disagreement — that is self-contained (it owns the sum
//! automaton), independently re-checkable ([`Witness::check`]), and
//! pretty-printable. `leapfrog::Outcome::NotEquivalent` carries a
//! [`Refutation`]: a confirmed witness, or an `Unconfirmed` diagnostic in
//! the rare case lifting fails.
//!
//! [`Store`]: leapfrog_p4a::semantics::Store
//! [`Config::run`]: leapfrog_p4a::semantics::Config::run

#![warn(missing_docs)]

pub mod engine;
pub mod minimize;
pub mod witness;

pub use engine::{build_witness, search_disagreement};
pub use minimize::canonicalize;
pub use witness::{Disagreement, Refutation, Witness};
