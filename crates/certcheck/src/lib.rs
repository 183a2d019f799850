//! `leapfrog-certcheck`: the independent, dependency-free certificate
//! checker — the trust root of the reproduction.
//!
//! The engine (`leapfrog` / `leapfrog_logic` / `leapfrog_smt` /
//! `leapfrog_sat`) is fast, cached, parallel, and therefore *untrusted*:
//! a bug in its shared lowering or CDCL core would silently break both the
//! prover and the engine-side certificate checker. This crate re-validates
//! a certificate end to end along a second, independently implemented code
//! path, mirroring the paper's architecture where the Coq kernel re-checks
//! proof terms produced by untrusted Ltac search (§6.4):
//!
//! * its own JSON parser and schema validation ([`json`]);
//! * its own reachable-pair computation ([`rel::reachable_pairs`]);
//! * its own weakest-precondition transformer ([`wp::wp`]);
//! * its own bit-blasting and small CDCL solver with model-based
//!   universal instantiation ([`solve::entails`]).
//!
//! The only shared code is `leapfrog-p4a` (the problem statement: automata
//! ASTs and their parsing) and the `leapfrog-bitvec` value type. The
//! trusted computing base of an `Equivalent` verdict is therefore this
//! crate plus the P4A front end — everything else may lie.
//!
//! [`check`] re-discharges the conditions of Theorem 5.2 (with leaps,
//! §5.3) exactly as the engine-side checker states them:
//!
//! 1. recompute the reachable template-pair scope from the query guard;
//! 2. acceptance compatibility: every reachable accept/non-accept pair
//!    must be forbidden by an initial conjunct (standard-init
//!    certificates), and `⋀R` must entail every initial conjunct;
//! 3. step closure: `⋀R` entails the weakest precondition of every
//!    `ρ ∈ R` over every reachable predecessor pair;
//! 4. the query entails every relation conjunct at the query's guard.

#![warn(missing_docs)]

use std::fmt;

use leapfrog_p4a::ast::Automaton;

pub mod json;
pub mod rel;
pub mod solve;
pub mod wp;

use rel::ConfRel;

/// A decoded, validated certificate (the checker's own mirror of the
/// engine's certificate type).
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Whether the relation is a bisimulation *with leaps*.
    pub leaps: bool,
    /// Whether `init` is the standard acceptance-compatibility relation.
    pub standard_init: bool,
    /// The query `φ`.
    pub query: ConfRel,
    /// The initial relation `I`.
    pub init: Vec<ConfRel>,
    /// The computed relation `R`.
    pub relation: Vec<ConfRel>,
}

impl Certificate {
    /// Parses and validates a certificate from its JSON archive format.
    pub fn from_json(s: &str, aut: &Automaton) -> Result<Certificate, CertCheckError> {
        let v = json::parse(s).map_err(CertCheckError::Malformed)?;
        json::certificate_from_value(&v, aut).map_err(CertCheckError::Malformed)
    }
}

/// Why a certificate failed to check. The four semantic classes mirror the
/// engine checker's error classes one-to-one (so differential tests can
/// compare verdicts); `Malformed` is new here because this checker parses
/// untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertCheckError {
    /// The JSON failed to parse or validate against the automaton.
    Malformed(String),
    /// A reachable accept/non-accept pair is not forbidden by `I`.
    MissingAcceptanceCondition(String),
    /// `⋀R` does not entail an initial conjunct.
    InitNotEntailed(String),
    /// `⋀R` is not closed under a weakest precondition.
    NotClosed(String),
    /// The query does not entail a relation conjunct.
    QueryNotEntailed(String),
}

impl CertCheckError {
    /// A short machine-readable name for the failing obligation class
    /// (stable: the CLI exit message and the wire error payload carry it).
    pub fn class(&self) -> &'static str {
        match self {
            CertCheckError::Malformed(_) => "malformed",
            CertCheckError::MissingAcceptanceCondition(_) => "missing_acceptance_condition",
            CertCheckError::InitNotEntailed(_) => "init_not_entailed",
            CertCheckError::NotClosed(_) => "not_closed",
            CertCheckError::QueryNotEntailed(_) => "query_not_entailed",
        }
    }
}

impl fmt::Display for CertCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertCheckError::Malformed(s) => write!(f, "malformed certificate: {s}"),
            CertCheckError::MissingAcceptanceCondition(s) => {
                write!(f, "initial relation misses acceptance condition at {s}")
            }
            CertCheckError::InitNotEntailed(s) => {
                write!(f, "relation does not entail initial condition {s}")
            }
            CertCheckError::NotClosed(s) => {
                write!(f, "relation is not closed under WP: {s}")
            }
            CertCheckError::QueryNotEntailed(s) => {
                write!(f, "query does not entail {s}")
            }
        }
    }
}

impl std::error::Error for CertCheckError {}

/// Deterministic work counts of one [`check`]: they depend only on the
/// certificate and the automaton, never on timing, so they serve as the
/// trust root's regression counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Entailment obligations discharged: initial conjuncts, closure
    /// preconditions and query conjuncts.
    pub obligations: u64,
    /// Candidate countermodels validated against the quantified premises
    /// (model-based instantiation rounds).
    pub cegar_rounds: u64,
    /// SAT decisions over every solver call, nested ones included.
    pub sat_decisions: u64,
    /// SAT conflicts over every solver call, nested ones included.
    pub sat_conflicts: u64,
}

/// Re-validates a certificate against the sum automaton, independently of
/// the engine, and reports the work it took. Deterministic: obligations
/// are checked in a fixed order and the lowest-index failure is reported.
pub fn check(aut: &Automaton, cert: &Certificate) -> Result<CheckStats, CertCheckError> {
    let mut stats = CheckStats::default();
    let scope = rel::reachable_pairs(aut, &[cert.query.guard], cert.leaps);

    // (2a) Acceptance compatibility (standard-init certificates only).
    for p in scope.iter().filter(|_| cert.standard_init) {
        if p.left.is_accepting() != p.right.is_accepting() {
            let covered = cert
                .init
                .iter()
                .any(|i| i.guard == *p && i.phi == rel::Pure::ff());
            if !covered {
                return Err(CertCheckError::MissingAcceptanceCondition(p.display(aut)));
            }
        }
    }

    // (2b) ⋀R entails every initial conjunct.
    for i in &cert.init {
        if !solve::entails(aut, &cert.relation, i, &mut stats) {
            return Err(CertCheckError::InitNotEntailed(i.display(aut)));
        }
    }

    // (3) Step closure: for every ρ ∈ R and reachable predecessor pair,
    // ⋀R ⊨ wp(ρ).
    for rho in &cert.relation {
        for p in &scope {
            if let Some(ob) = wp::wp(aut, rho, p, cert.leaps) {
                if !solve::entails(aut, &cert.relation, &ob, &mut stats) {
                    return Err(CertCheckError::NotClosed(ob.display(aut)));
                }
            }
        }
    }

    // (4) φ ⊨ ⋀R.
    for rho in &cert.relation {
        if rho.guard == cert.query.guard
            && !solve::entails(aut, std::slice::from_ref(&cert.query), rho, &mut stats)
        {
            return Err(CertCheckError::QueryNotEntailed(rho.display(aut)));
        }
    }
    Ok(stats)
}

/// Parses, validates, and checks a certificate JSON in one call (the wire
/// and CLI entry point).
pub fn check_json(aut: &Automaton, cert_json: &str) -> Result<CheckStats, CertCheckError> {
    let cert = Certificate::from_json(cert_json, aut)?;
    check(aut, &cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::ast::Target;
    use leapfrog_p4a::surface::parse;
    use rel::{BitExpr, Pure, Side, Template, TemplatePair, VarId};

    fn guard(aut: &Automaton, q: &str, l: usize, r: usize) -> TemplatePair {
        let s = aut.state_by_name(q).unwrap();
        TemplatePair {
            left: Template {
                target: Target::State(s),
                buf_len: l,
            },
            right: Template {
                target: Target::State(s),
                buf_len: r,
            },
        }
    }

    fn entails(aut: &Automaton, premises: &[ConfRel], conclusion: &ConfRel) -> bool {
        solve::entails(aut, premises, conclusion, &mut CheckStats::default())
    }

    fn two_header() -> Automaton {
        parse("parser P { state s { extract(h, 4); extract(g, 4); goto accept } }").unwrap()
    }

    #[test]
    fn premise_entails_itself() {
        let aut = two_header();
        let g = guard(&aut, "s", 3, 3);
        let rel = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        };
        assert!(entails(&aut, std::slice::from_ref(&rel), &rel));
    }

    #[test]
    fn buffer_equality_entails_slice_equality_but_not_converse() {
        let aut = two_header();
        let g = guard(&aut, "s", 3, 3);
        let full = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        };
        let sliced = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Slice(Box::new(BitExpr::Buf(Side::Left)), 1, 2),
                BitExpr::Slice(Box::new(BitExpr::Buf(Side::Right)), 1, 2),
            ),
        };
        assert!(entails(&aut, std::slice::from_ref(&full), &sliced));
        assert!(!entails(&aut, std::slice::from_ref(&sliced), &full));
    }

    #[test]
    fn template_filtering_drops_other_guards() {
        let aut = two_header();
        let premise = ConfRel {
            guard: guard(&aut, "s", 2, 2),
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        };
        let conclusion = ConfRel {
            guard: guard(&aut, "s", 3, 3),
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        };
        assert!(!entails(&aut, &[premise], &conclusion));
    }

    #[test]
    fn false_premise_entails_anything() {
        let aut = two_header();
        let g = guard(&aut, "s", 1, 1);
        let premise = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::ff(),
        };
        let conclusion = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        };
        assert!(entails(&aut, &[premise], &conclusion));
    }

    #[test]
    fn quantified_premise_cancellation() {
        // (∀x. buf< ++ x = buf> ++ x) entails buf< = buf>.
        let aut = two_header();
        let g = guard(&aut, "s", 2, 2);
        let premise = ConfRel {
            guard: g,
            vars: vec![3],
            phi: Pure::eq(
                BitExpr::concat(BitExpr::Buf(Side::Left), BitExpr::Var(VarId(0))),
                BitExpr::concat(BitExpr::Buf(Side::Right), BitExpr::Var(VarId(0))),
            ),
        };
        let conclusion = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        };
        assert!(entails(&aut, &[premise], &conclusion));
    }

    #[test]
    fn conclusion_variables_are_universal() {
        // ∀y (2 bits). y = 00 must fail even under a trivial premise.
        let aut = two_header();
        let g = guard(&aut, "s", 1, 1);
        let premise = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::tt(),
        };
        let conclusion = ConfRel {
            guard: g,
            vars: vec![2],
            phi: Pure::eq(
                BitExpr::Var(VarId(0)),
                BitExpr::Lit(leapfrog_bitvec::BitVec::zeros(2)),
            ),
        };
        assert!(!entails(&aut, &[premise], &conclusion));
    }

    #[test]
    fn store_relations_respect_sides() {
        let aut = two_header();
        let h = aut.header_by_name("h").unwrap();
        let gh = aut.header_by_name("g").unwrap();
        let g = guard(&aut, "s", 1, 1);
        let premise = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, gh)),
        };
        let ok = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Slice(Box::new(BitExpr::Hdr(Side::Left, h)), 0, 2),
                BitExpr::Slice(Box::new(BitExpr::Hdr(Side::Right, gh)), 0, 2),
            ),
        };
        assert!(entails(&aut, std::slice::from_ref(&premise), &ok));
        let wrong = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Hdr(Side::Right, h), BitExpr::Hdr(Side::Right, gh)),
        };
        assert!(!entails(&aut, &[premise], &wrong));
    }

    #[test]
    fn zero_width_buffer_is_trivial() {
        let aut = parse("parser P { state s { extract(h, 2); goto accept } }").unwrap();
        let s = aut.state_by_name("s").unwrap();
        let g = TemplatePair {
            left: Template {
                target: Target::State(s),
                buf_len: 0,
            },
            right: Template {
                target: Target::State(s),
                buf_len: 0,
            },
        };
        let conclusion = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        };
        assert!(entails(&aut, &[], &conclusion));
    }

    #[test]
    fn malformed_certificates_are_rejected() {
        let aut = two_header();
        // State id out of range.
        let bad_state = r#"{
          "leaps": true, "standard_init": true,
          "query": {"guard": {"left": {"target": {"State": 9}, "buf_len": 0},
                              "right": {"target": {"State": 0}, "buf_len": 0}},
                    "vars": [], "phi": {"Const": true}},
          "init": [], "relation": []
        }"#;
        assert!(matches!(
            check_json(&aut, bad_state),
            Err(CertCheckError::Malformed(_))
        ));
        // Slice out of bounds.
        let bad_slice = r#"{
          "leaps": true, "standard_init": true,
          "query": {"guard": {"left": {"target": {"State": 0}, "buf_len": 2},
                              "right": {"target": {"State": 0}, "buf_len": 2}},
                    "vars": [],
                    "phi": {"Eq": [{"Slice": [{"Buf": "Left"}, 1, 5]}, {"Buf": "Right"}]}},
          "init": [], "relation": []
        }"#;
        assert!(matches!(
            check_json(&aut, bad_slice),
            Err(CertCheckError::Malformed(_))
        ));
        // Not JSON at all.
        assert!(matches!(
            check_json(&aut, "not json"),
            Err(CertCheckError::Malformed(_))
        ));
        // Packet-variable widths whose sum wraps to exactly 2^64: the cap
        // must see the true total, not the wrapped 0.
        let mut widths = vec!["8999999999999999"; 2049];
        widths.push("5744073709553665");
        let wrapping_vars = format!(
            r#"{{
          "leaps": true, "standard_init": true,
          "query": {{"guard": {{"left": {{"target": {{"State": 0}}, "buf_len": 0}},
                              "right": {{"target": {{"State": 0}}, "buf_len": 0}}}},
                    "vars": [{}], "phi": {{"Const": true}}}},
          "init": [], "relation": []
        }}"#,
            widths.join(", ")
        );
        assert!(matches!(
            check_json(&aut, &wrapping_vars),
            Err(CertCheckError::Malformed(_))
        ));
        // A packet-variable index past u32 must not truncate to x0.
        let wide_var = r#"{
          "leaps": true, "standard_init": true,
          "query": {"guard": {"left": {"target": {"State": 0}, "buf_len": 0},
                              "right": {"target": {"State": 0}, "buf_len": 0}},
                    "vars": [1], "phi": {"Eq": [{"Var": 4294967296}, {"Lit": "0"}]}},
          "init": [], "relation": []
        }"#;
        assert!(matches!(
            check_json(&aut, wide_var),
            Err(CertCheckError::Malformed(_))
        ));
    }
}
