//! Certificates of equivalence and their independent checker.
//!
//! The paper's implementation runs inside Coq and emits proof terms that
//! the Coq kernel re-checks; the search (Ltac + SMT plugin) is untrusted.
//! This reproduction keeps the same architecture: [`crate::Checker::run`]
//! is untrusted search, and [`check`] re-validates its output from scratch
//! against the conditions of Theorem 5.2 (with leaps, §5.3):
//!
//! 1. the reachable template-pair set derived from the query guard is
//!    re-computed and must cover the guards the relation constrains;
//! 2. the initial relation must forbid every reachable accept/non-accept
//!    pair (acceptance compatibility), and `⋀R` must entail every initial
//!    conjunct;
//! 3. `⋀R` must be closed under weakest preconditions over all reachable
//!    predecessor pairs (the bisimulation step condition);
//! 4. the query must entail `⋀R`.
//!
//! The checker recomputes every weakest precondition and discharges every
//! entailment itself, sharing no state with the search. Its trusted base
//! is the logic lowering, the bitvector solver, and the P4A semantics —
//! exactly the components the paper's TCB discussion lists (§6.4), minus
//! the Coq kernel.
//!
//! Certificates serialize to JSON (via the hand-rolled [`crate::json`]
//! module — the offline build has no `serde`), so a proof computed once
//! can be archived and re-checked by a separate process.

use std::fmt;

use leapfrog_logic::confrel::ConfRel;
use leapfrog_logic::lower::entails_stateless;
use leapfrog_logic::reach::{reachable_pairs, PredecessorIndex};
use leapfrog_logic::wp::wp;
use leapfrog_p4a::ast::Automaton;

/// A checkable witness that the query relation is contained in a symbolic
/// bisimulation with leaps.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Whether the relation is a bisimulation *with leaps* (affects which
    /// step condition the checker verifies).
    pub leaps: bool,
    /// Whether `init` is the standard acceptance-compatibility relation
    /// (language equivalence) or a caller-supplied relation (a
    /// pre-bisimulation for a relational property; §7.1).
    pub standard_init: bool,
    /// The query `φ` (root guard plus any initial-store constraint).
    pub query: ConfRel,
    /// The initial relation `I` the run started from.
    pub init: Vec<ConfRel>,
    /// The computed relation `R`: `⋀R` is the symbolic bisimulation.
    pub relation: Vec<ConfRel>,
}

impl Certificate {
    /// Serializes the certificate to JSON.
    pub fn to_json(&self) -> String {
        crate::json::certificate_to_value(self).render()
    }

    /// Deserializes a certificate from JSON.
    pub fn from_json(s: &str) -> Result<Certificate, crate::json::JsonError> {
        crate::json::certificate_from_value(&crate::json::parse(s)?)
    }
}

/// Why a certificate failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// A reachable accept/non-accept pair is not forbidden by `I`.
    MissingAcceptanceCondition(String),
    /// `⋀R` does not entail an initial conjunct.
    InitNotEntailed(String),
    /// `⋀R` is not closed under a weakest precondition.
    NotClosed(String),
    /// The query does not entail a relation conjunct.
    QueryNotEntailed(String),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::MissingAcceptanceCondition(s) => {
                write!(f, "initial relation misses acceptance condition at {s}")
            }
            CertificateError::InitNotEntailed(s) => {
                write!(f, "relation does not entail initial condition {s}")
            }
            CertificateError::NotClosed(s) => {
                write!(f, "relation is not closed under WP: {s}")
            }
            CertificateError::QueryNotEntailed(s) => {
                write!(f, "query does not entail {s}")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

/// Re-validates a certificate against the sum automaton. See the module
/// docs for the exact conditions. Independent of the search: all weakest
/// preconditions are recomputed and all entailments re-discharged.
pub fn check(aut: &Automaton, cert: &Certificate) -> Result<(), CertificateError> {
    let scope = reachable_pairs(aut, &[cert.query.guard], cert.leaps);

    // (2a) Acceptance compatibility: every reachable pair that disagrees on
    // acceptance must be forbidden by some initial conjunct. Only applies
    // to language-equivalence certificates; custom-`I` certificates
    // witness a pre-bisimulation for their own `I`.
    for p in scope.iter().filter(|_| cert.standard_init) {
        if p.left.is_accepting() != p.right.is_accepting() {
            let covered = cert
                .init
                .iter()
                .any(|i| i.guard == *p && i.phi == leapfrog_logic::confrel::Pure::ff());
            if !covered {
                return Err(CertificateError::MissingAcceptanceCondition(p.display(aut)));
            }
        }
    }

    // (2b) ⋀R entails every initial conjunct.
    for i in &cert.init {
        if !entails_stateless(aut, &cert.relation, i) {
            return Err(CertificateError::InitNotEntailed(i.display(aut)));
        }
    }

    // (3) Step closure: for every ρ ∈ R and reachable predecessor pair,
    // ⋀R ⊨ wp(ρ). Only pairs that can step into ρ's guard have a
    // nonvacuous WP; the index yields them in scope order, so obligations
    // keep the order of a whole-scope sweep, and the first failing one is
    // the one `leapfrog-certcheck` reports too.
    let preds = PredecessorIndex::new(aut, &scope, cert.leaps);
    let failure = cert
        .relation
        .iter()
        .flat_map(|rho| {
            preds
                .predecessors(rho.guard)
                .iter()
                .filter_map(|&i| wp(aut, rho, &scope[i], cert.leaps))
        })
        .find(|ob| !entails_stateless(aut, &cert.relation, ob));
    if let Some(bad) = failure {
        return Err(CertificateError::NotClosed(bad.display(aut)));
    }

    // (4) φ ⊨ ⋀R.
    for rho in &cert.relation {
        if rho.guard == cert.query.guard
            && !entails_stateless(aut, std::slice::from_ref(&cert.query), rho)
        {
            return Err(CertificateError::QueryNotEntailed(rho.display(aut)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Checker, Options, Outcome};
    use leapfrog_logic::confrel::{BitExpr, Pure, Side};
    use leapfrog_p4a::surface::parse;

    fn certified_pair() -> (Automaton, Certificate) {
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(x, 1); goto t }
                        state t { extract(y, 1);
               select(x, y) { (0b1, 0b1) => accept; (_, _) => reject; } } }",
        )
        .unwrap();
        let mut c = Checker::new(
            &a,
            a.state_by_name("s").unwrap(),
            &b,
            b.state_by_name("s").unwrap(),
            Options::default(),
        );
        let aut = c.sum_automaton().clone();
        match c.run() {
            Outcome::Equivalent(cert) => (aut, cert),
            other => panic!("expected equivalence, got {other:?}"),
        }
    }

    #[test]
    fn genuine_certificate_checks() {
        let (aut, cert) = certified_pair();
        assert_eq!(check(&aut, &cert), Ok(()));
    }

    #[test]
    fn json_roundtrip_preserves_checkability() {
        let (aut, cert) = certified_pair();
        let json = cert.to_json();
        let back = Certificate::from_json(&json).unwrap();
        assert_eq!(check(&aut, &back), Ok(()));
    }

    #[test]
    fn tampered_relation_fails_closure_or_init() {
        let (aut, mut cert) = certified_pair();
        // Drop the relation entirely: acceptance conditions in I are no
        // longer entailed.
        cert.relation.clear();
        assert!(check(&aut, &cert).is_err());
    }

    #[test]
    fn tampered_init_fails_acceptance_cover() {
        let (aut, mut cert) = certified_pair();
        cert.init.retain(|i| i.phi != Pure::ff());
        assert!(matches!(
            check(&aut, &cert),
            Err(CertificateError::MissingAcceptanceCondition(_))
        ));
    }

    #[test]
    fn strengthened_query_still_checks_but_weakened_relation_fails() {
        let (aut, mut cert) = certified_pair();
        // Injecting a bogus conjunct that R does not entail breaks closure
        // (its WPs are not entailed) or the query check.
        let guard = cert.query.guard;
        let h = aut.header_by_name("l.h").unwrap();
        cert.relation.push(ConfRel {
            guard,
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Hdr(Side::Left, h),
                BitExpr::Lit("11".parse().unwrap()),
            ),
        });
        assert!(check(&aut, &cert).is_err());
    }

    #[test]
    fn closure_failure_is_deterministic() {
        // Two independently-failing bogus conjuncts: the reported failure
        // must be the lowest-index obligation, i.e. the same error every
        // run.
        let (aut, cert) = certified_pair();
        let guard = cert.query.guard;
        let h = aut.header_by_name("l.h").unwrap();
        let bogus = |bits: &str| ConfRel {
            guard,
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Hdr(Side::Left, h),
                BitExpr::Lit(bits.parse().unwrap()),
            ),
        };
        let mut tampered = cert.clone();
        tampered.relation.push(bogus("11"));
        tampered.relation.push(bogus("00"));
        let first = check(&aut, &tampered).unwrap_err();
        for _ in 0..10 {
            assert_eq!(check(&aut, &tampered).unwrap_err(), first);
        }
    }
}
