//! The symbolic configuration-relation logic of Leapfrog (paper, §4–§6).
//!
//! Language equivalence of P4 automata is established by computing a
//! *symbolic bisimulation*: a formula over pairs of configurations that is
//! closed under the step function. This crate provides every ingredient of
//! that computation except the top-level worklist (which lives in the
//! `leapfrog` crate):
//!
//! * [`confrel`] — the formula language of Figure 3: bitvector expressions
//!   over the two buffers and stores, state and buffer-length assertions in
//!   *template-guarded* normal form (Definition 4.7), plus packet variables;
//! * [`templates`] — templates `⟨q, n⟩`, leap sizes (Definition 5.3) and
//!   template successors (the abstract interpretation `σ` of §5.1);
//! * [`reach`] — the reachable-template-pair analysis `reach_φ` (§5.1),
//!   with or without leaps (§5.3), and the successor→predecessor index
//!   that limits weakest preconditions to pairs stepping into a guard;
//! * [`mod@wp`] — weakest preconditions `WP<`/`WP>` over template-guarded
//!   formulas (§4.3), generalized to leaps (Theorem 5.7): symbolic
//!   execution of operation blocks and first-match select conditions;
//! * [`lower`] — the compilation chain
//!   `ConfRel → ConfRelSimp → FOL(Conf) → FOL(BV)` (§6.2): template
//!   filtering, store elimination, and the final entailment query
//!   discharged through [`leapfrog_smt`];
//! * [`mod@store`] — the guard-indexed [`RelationStore`]: stage-1 template
//!   filtering as an index lookup instead of a per-query O(|R|) scan, with
//!   `Arc`-shared entries.

#![warn(missing_docs)]

pub mod confrel;
pub mod incremental;
pub mod lower;
pub mod reach;
pub mod store;
pub mod templates;
pub mod wp;

pub use confrel::{BitExpr, ConfRel, Pure, Side, VarId};
pub use incremental::{GuardSession, SessionPool};
pub use lower::{entails, entails_filtered, EntailmentQuery};
pub use reach::{reachable_pairs, PredecessorIndex};
pub use store::RelationStore;
pub use templates::{leap_size, successor_pairs, Template, TemplatePair};
pub use wp::wp;
