//! Differential testing of the two certificate checkers: the engine-side
//! `leapfrog::certificate::check` (fast, shares lowering and solver code
//! with the prover) and the independent `leapfrog-certcheck` trust root
//! (own parser, own WP, own solver). Any disagreement — on a valid
//! certificate or on an adversarially mutated one — is a bug in one of
//! them.
//!
//! The adversarial corpus mutates every Table-2 certificate four ways:
//! dropping a relation conjunct, weakening a conjunct's formula, swapping
//! the query to a different guard, and corrupting the leap flag. Both
//! checkers must reject each mutant with the same error class.

use leapfrog::{certificate, Certificate, CertificateError, Checker, Options, Outcome};
use leapfrog_bench::rows::standard_benchmarks;
use leapfrog_logic::confrel::Pure;
use leapfrog_p4a::Automaton;
use leapfrog_suite::{Benchmark, Scale};

/// Runs the prover on a benchmark and returns the sum automaton plus the
/// equivalence certificate.
fn certify(bench: &Benchmark) -> (Automaton, Certificate) {
    let mut checker = Checker::new(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
        Options::default(),
    );
    match checker.run() {
        Outcome::Equivalent(cert) => (checker.sum_automaton().clone(), cert),
        other => panic!("{}: expected equivalence, got {other:?}", bench.name),
    }
}

/// The engine checker's error class, named identically to
/// [`leapfrog_certcheck::CertCheckError::class`].
fn engine_class(e: &CertificateError) -> &'static str {
    match e {
        CertificateError::MissingAcceptanceCondition(_) => "missing_acceptance_condition",
        CertificateError::InitNotEntailed(_) => "init_not_entailed",
        CertificateError::NotClosed(_) => "not_closed",
        CertificateError::QueryNotEntailed(_) => "query_not_entailed",
    }
}

/// Checks `cert` through both checkers and asserts they return the same
/// verdict (and, on rejection, the same error class). Returns the agreed
/// error class, or `None` if both accepted.
fn differential(aut: &Automaton, cert: &Certificate, what: &str) -> Option<&'static str> {
    let engine = certificate::check(aut, cert);
    let indep = leapfrog_certcheck::check_json(aut, &cert.to_json());
    match (&engine, &indep) {
        (Ok(()), Ok(_)) => None,
        (Err(e), Err(i)) => {
            let (ec, ic) = (engine_class(e), i.class());
            assert_eq!(
                ec, ic,
                "{what}: checkers disagree on the error class (engine: {e}, certcheck: {i})"
            );
            Some(ec)
        }
        _ => panic!("{what}: verdicts disagree (engine: {engine:?}, certcheck: {indep:?})"),
    }
}

#[test]
fn certcheck_accepts_every_table2_certificate() {
    for bench in standard_benchmarks(Scale::Small) {
        let (aut, cert) = certify(&bench);
        let stats = leapfrog_certcheck::check_json(&aut, &cert.to_json()).unwrap_or_else(|e| {
            panic!(
                "{}: trust root rejected a valid certificate: {e}",
                bench.name
            )
        });
        // The counters are the trust root's regression signal: they must
        // repeat exactly.
        assert!(stats.obligations > 0, "{}: {stats:?}", bench.name);
        assert_eq!(
            leapfrog_certcheck::check_json(&aut, &cert.to_json()),
            Ok(stats),
            "{}: trust-root counters differ between two checks",
            bench.name
        );
    }
}

#[test]
fn adversarial_mutants_are_rejected_identically() {
    for bench in standard_benchmarks(Scale::Small) {
        let (aut, cert) = certify(&bench);
        let name = bench.name;

        // Mutation 1: drop a relation conjunct. Some conjunct must be
        // load-bearing — find the first whose removal the engine rejects,
        // then require the trust root to agree on the class.
        let mut rejected = false;
        for i in 0..cert.relation.len() {
            let mut m = cert.clone();
            m.relation.remove(i);
            if certificate::check(&aut, &m).is_err() {
                let class = differential(&aut, &m, &format!("{name}: drop conjunct {i}"))
                    .expect("engine rejected");
                assert!(
                    matches!(
                        class,
                        "init_not_entailed" | "not_closed" | "query_not_entailed"
                    ),
                    "{name}: dropping a conjunct gave unexpected class {class}"
                );
                rejected = true;
                break;
            }
        }
        assert!(rejected, "{name}: every relation conjunct was redundant");

        // Mutation 2: weaken a conjunct's formula to `true`. The weakened
        // premise must break some entailment downstream.
        let mut rejected = false;
        for i in 0..cert.relation.len() {
            if cert.relation[i].phi == Pure::tt() {
                continue;
            }
            let mut m = cert.clone();
            m.relation[i].phi = Pure::tt();
            if certificate::check(&aut, &m).is_err() {
                let class = differential(&aut, &m, &format!("{name}: weaken conjunct {i}"))
                    .expect("engine rejected");
                assert!(
                    matches!(class, "init_not_entailed" | "not_closed"),
                    "{name}: weakening a conjunct gave unexpected class {class}"
                );
                rejected = true;
                break;
            }
        }
        assert!(rejected, "{name}: no conjunct formula was load-bearing");

        // Mutation 3: swap the query onto a mid-parse guard with a
        // nontrivial conjunct — the trivial query cannot entail it.
        let mut rejected = false;
        for rho in &cert.relation {
            if rho.guard == cert.query.guard || rho.phi == Pure::tt() {
                continue;
            }
            let mut m = cert.clone();
            m.query.guard = rho.guard;
            if certificate::check(&aut, &m).is_err() {
                differential(&aut, &m, &format!("{name}: swap query guard"))
                    .expect("engine rejected");
                rejected = true;
                break;
            }
        }
        assert!(rejected, "{name}: no guard swap was rejected");

        // Mutation 4: corrupt the leap flag. A with-leaps relation is not
        // closed under single-bit WPs (and vice versa).
        let mut m = cert.clone();
        m.leaps = !m.leaps;
        let class = differential(&aut, &m, &format!("{name}: corrupt leap flag"))
            .unwrap_or_else(|| panic!("{name}: corrupting the leap flag was not rejected"));
        assert!(
            matches!(
                class,
                "missing_acceptance_condition" | "init_not_entailed" | "not_closed"
            ),
            "{name}: leap corruption gave unexpected class {class}"
        );
    }
}

#[test]
fn certcheck_accepts_the_relational_verification_certificate() {
    // The store-correspondence study (§7.1): a non-standard init whose
    // conjuncts relate whole headers at acceptance. Its certificate has
    // a different shape from the language-equivalence rows — wide
    // header-to-header equalities threaded through every obligation —
    // and the trust root must re-discharge it too (the `table2` binary
    // rechecks it on every run).
    use leapfrog_suite::utility::sloppy_strict;

    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut checker = Checker::new(&sloppy, ql, &strict, qr, Options::default());
    let init = sloppy_strict::store_correspondence_init(checker.sum_info());
    checker.replace_init(init);
    let cert = match checker.run() {
        Outcome::Equivalent(cert) => cert,
        other => panic!("relational verification failed: {other:?}"),
    };
    let aut = checker.sum_automaton().clone();
    assert_eq!(differential(&aut, &cert, "relational verification"), None);
}

#[test]
fn certcheck_accepts_the_translation_validation_certificate() {
    // The hardware round-trip (§7.2): the Edge parser against its
    // compiled-and-back-translated twin — the largest sum automaton any
    // certificate in the repo is stated over.
    let (edge, start, back, back_start) =
        leapfrog_bench::rows::translation_validation_pair(Scale::Small);
    let bench = Benchmark {
        name: "Translation Validation",
        left: edge,
        left_start: start,
        right: back,
        right_start: back_start,
        expect_equivalent: true,
    };
    let (aut, cert) = certify(&bench);
    assert_eq!(differential(&aut, &cert, "translation validation"), None);
}

#[test]
fn checkers_agree_on_nonstandard_init_certificates() {
    // The external-filtering study produces a certificate with
    // `standard_init = false` — the acceptance-compatibility sweep is
    // skipped and the custom init conjuncts carry the proof. Both
    // checkers must accept it, and both must reject the same certificate
    // re-labelled as standard (its init no longer covers acceptance).
    use leapfrog_logic::reach::reachable_pairs;
    use leapfrog_suite::utility::sloppy_strict;

    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut checker = Checker::new(&sloppy, ql, &strict, qr, Options::default());
    let reach = reachable_pairs(checker.sum_automaton(), &[checker.root()], true);
    let init = sloppy_strict::external_filter_init(checker.sum_info(), &reach);
    checker.replace_init(init);
    let cert = match checker.run() {
        Outcome::Equivalent(cert) => cert,
        other => panic!("external filtering failed: {other:?}"),
    };
    let aut = checker.sum_automaton().clone();
    assert!(!cert.standard_init);
    assert_eq!(differential(&aut, &cert, "external filtering"), None);

    let mut m = cert.clone();
    m.standard_init = true;
    let class = differential(&aut, &m, "external filtering relabelled standard")
        .expect("relabelled certificate must be rejected");
    assert_eq!(class, "missing_acceptance_condition");
}
