//! A parser-gen-style hardware parser pipeline: the third-party compiler
//! substrate for the paper's translation-validation case study (§7.2,
//! Figure 8).
//!
//! Gibb et al.'s `parser-gen` compiles parse graphs to TCAM-style match
//! tables for a fixed-function pipeline: each cycle a hardware state
//! matches a masked window of packet bytes, advances the cursor, and picks
//! the next state. The paper runs that compiler on its Edge benchmark,
//! translates the table *back* into a P4 automaton, and uses Leapfrog to
//! prove the round trip preserves the parser's language.
//!
//! This crate reimplements that flow:
//!
//! * [`table`] — the hardware representation: prioritized
//!   [`table::TcamEntry`]s (mask/value over the consumed window, advance
//!   amount, next state) plus a direct interpreter, mirroring Figure 8's
//!   rows;
//! * [`compiler`] — a compiler from P4 automata to tables under per-cycle
//!   hardware budgets (maximum advance width, maximum branch bits),
//!   performing the same class of transformations parser-gen does:
//!   *splitting* states that consume more than a cycle's worth of bits and
//!   *merging* hardware states with identical behaviour;
//! * [`backtranslate`] — the reverse translation from tables to P4
//!   automata, which together with `leapfrog` closes the translation-
//!   validation loop.
//!
//! The compiler only accepts parsers whose `select` scrutinees are slices
//! of headers extracted in the same state (true of every parser in the
//! evaluation suite); anything else is reported as unsupported rather than
//! silently miscompiled.

#![warn(missing_docs)]

pub mod backtranslate;
pub mod compiler;
pub mod table;

pub use backtranslate::back_translate;
pub use compiler::{compile, CompileError, HwBudget};
pub use table::{HwParser, HwTarget, TcamEntry};
