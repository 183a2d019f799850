//! P4 automata (P4As): the parser model of the Leapfrog paper (§3).
//!
//! A P4 automaton is a state machine that consumes a packet bitstring,
//! building a *store* of fixed-width bitvector *headers*, and ultimately
//! accepts or rejects the packet. Each state runs an operation block —
//! `extract` statements that consume packet bits and assignments between
//! headers — and then transitions on the contents of the store via `goto`
//! or a first-match `select`.
//!
//! This crate provides:
//!
//! * the abstract syntax (Figure 2) with an interned-identifier
//!   representation and a fluent [`builder::Builder`];
//! * the typing judgements `⊢E`, `⊢O`, `⊢T`, `⊢A` (Definitions 3.1–3.5's
//!   side conditions), in [`validate`];
//! * the operational semantics: the bit-by-bit configuration dynamics `δ`
//!   of Definition 3.5 and an equivalent whole-state run that updates one
//!   store in place, in [`semantics`];
//! * disjoint sums of automata for relational reasoning (§4), in [`sum`];
//! * a surface-syntax parser and pretty-printer for the paper's notation,
//!   in [`surface`] and [`pretty`].
//!
//! # Examples
//!
//! Build the reference MPLS parser from Figure 1 and run it:
//!
//! ```
//! use leapfrog_p4a::builder::Builder;
//! use leapfrog_p4a::ast::{Expr, Pattern, Target};
//! use leapfrog_p4a::semantics::Config;
//! use leapfrog_bitvec::BitVec;
//!
//! let mut b = Builder::new();
//! let mpls = b.header("mpls", 32);
//! let udp = b.header("udp", 64);
//! let q1 = b.state("q1");
//! let q2 = b.state("q2");
//! b.define(q1, vec![b.extract(mpls)], b.select(
//!     vec![Expr::slice(Expr::hdr(mpls), 23, 23)],
//!     vec![(vec![Pattern::exact_str("0")], Target::State(q1)),
//!          (vec![Pattern::exact_str("1")], Target::State(q2))],
//! ));
//! b.define(q2, vec![b.extract(udp)], b.goto(Target::Accept));
//! let aut = b.build().unwrap();
//!
//! // One MPLS label with the bottom-of-stack bit set, then 64 bits of UDP.
//! let mut packet = BitVec::zeros(96);
//! packet.set(23, true);
//! assert!(Config::initial(&aut, q1).accepts(&aut, &packet));
//! ```

pub mod ast;
pub mod builder;
pub mod pretty;
pub mod semantics;
pub mod sum;
pub mod surface;
pub mod validate;
pub mod walk;

pub use ast::{Automaton, Case, Expr, HeaderId, Op, Pattern, StateId, Target, Transition};
pub use builder::Builder;
pub use semantics::{Config, Store};
pub use validate::ValidationError;
