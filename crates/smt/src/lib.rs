//! A first-order bitvector solver: the SMT substrate of the Leapfrog
//! reproduction.
//!
//! Leapfrog compiles entailments between configuration relations down to the
//! first-order theory of bitvectors, `FOL(BV)`, and discharges them with an
//! off-the-shelf SMT solver via an SMT-LIB pretty-printing plugin (paper,
//! §6.2–6.3). No external solver is available in this offline environment,
//! so this crate implements the required fragment from scratch:
//!
//! * [`Term`]s are bitvector literals, variables, exact slices and
//!   concatenations — precisely the operations generated by the lowering
//!   chain (there is no bitvector arithmetic in Leapfrog's queries).
//! * [`Formula`]s are equalities between terms, the boolean connectives, and
//!   universal quantification over bitvector variables (the packet bits read
//!   by weakest preconditions are universally quantified).
//! * [`check_valid`] decides validity. Quantifier-free formulas are
//!   bit-blasted through a Tseitin transformation onto the
//!   [`leapfrog_sat`] CDCL solver. The `∃∀` queries arising from entailment
//!   checks are solved by a CEGAR loop (counterexample-guided universal
//!   expansion), mirroring what Z3's model-based quantifier instantiation
//!   does on these queries.
//! * [`smtlib`] pretty-prints any query in SMT-LIB 2 syntax, mirroring the
//!   paper's trusted plugin; set `LEAPFROG_DUMP_SMT=dir` to dump every
//!   query issued through [`SmtSolver`].
//!
//! # Examples
//!
//! ```
//! use leapfrog_smt::{Declarations, Term, Formula, check_valid, CheckResult};
//! use leapfrog_bitvec::BitVec;
//!
//! let mut decls = Declarations::new();
//! let x = decls.declare("x", 8);
//! let f = Formula::eq(Term::var(x), Term::var(x));
//! assert!(matches!(check_valid(&decls, &f), CheckResult::Valid));
//!
//! // x = 0xff is not valid; the countermodel assigns x something else.
//! let g = Formula::eq(Term::var(x), Term::lit(BitVec::ones(8)));
//! assert!(matches!(check_valid(&decls, &g), CheckResult::Invalid(_)));
//! ```

#![warn(missing_docs)]

pub mod blast;
pub mod smtlib;
pub mod solve;
pub mod term;

pub use blast::{BBit, BlastContext};
pub use leapfrog_sat::{Lit, SolverStats, LBD_BUCKETS};
pub use solve::{
    check_sat, check_valid, instantiate_forall, violates_forall, CheckResult, InstLedger,
    OracleRound, QueryStats, RefinementOracle, SatOutcome, SmtSolver,
};
pub use term::{BvVar, Declarations, Formula, Model, Term};
