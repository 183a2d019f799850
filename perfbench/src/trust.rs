//! The `trust` workload: the independent trust root re-validates a
//! seeded set of certificates, in process.
//!
//! The engine produces the certificates before timing starts; afterwards
//! it does no work. Each timed operation is `leapfrog_p4a::sum::sum` plus
//! `leapfrog_certcheck::check_json`. The set spans three sizes: small
//! certificates (the plain utility rows and self-comparisons of their
//! parsers' redirect mutants, milliseconds each), the relational row
//! (seconds, CEGAR-heavy) and the Service Provider row (scenario-sized).
//! The large certificates count only in the pass time, the time to
//! certify the whole set. Each small certificate gives three latency
//! samples: its
//! validation (prove), its validation again on the already built sum
//! (re-check), and the rejection of a copy with a `⊥` conjunct appended at
//! the query guard (refute). That copy is invalid by construction, since
//! the query `⊤` cannot entail `⊥`, and certcheck only finds out at its
//! last obligation, after the whole closure loop.

use std::time::Instant;

use leapfrog::Outcome;
use leapfrog_logic::confrel::ConfRel;
use leapfrog_p4a::walk::Rng;

use crate::inputs::{self, Pair};
use crate::measure::{Class, Run};
use crate::solve;
use crate::spans::Recorder;
use crate::Guard;

/// One certificate of the set.
pub struct Cert {
    name: String,
    pair: Pair,
    json: String,
    /// The same certificate with `⊥` appended at the query guard; `None`
    /// for the large certificates, which are validated once per pass.
    tampered: Option<String>,
    conjuncts: u64,
}

/// Table-2 rows with large certificates: validated once per pass.
const LARGE: [&str; 2] = ["Relational verification", "Service Provider"];

/// Has the engine produce the certificate set, in seeded order.
pub fn certificates(seed: u64, run: &mut Run, guard: &mut Guard) -> Vec<Cert> {
    let rows = inputs::table2_rows();
    let mut pairs: Vec<Pair> = rows
        .iter()
        .filter(|r| {
            inputs::UTILITY_ROWS.contains(&r.name.as_str()) || LARGE.contains(&r.name.as_str())
        })
        .cloned()
        .collect();
    pairs.extend(inputs::utility_self_mutants());
    let mut rec = Recorder::new(false, Instant::now(), 0);
    let mut certs = Vec::new();
    for pair in pairs {
        let mut engine = solve::engine(&mut rec);
        let pid = engine.prepare_pair(&pair.left, pair.ql, &pair.right, pair.qr);
        let req = solve::request(&mut engine, pid, &pair, &mut rec);
        let outcome = engine.run_prepared(pid, &req);
        guard.threads(engine.last_run_stats().threads);
        // Utility mutants whose acceptance reads an uninitialised header
        // are not store-independent; they yield no certificate.
        let Outcome::Equivalent(cert) = outcome else {
            if !pair.name.contains(" mutant ") {
                run.fail(format!(
                    "{}: the engine did not prove a Table-2 row",
                    pair.name
                ));
            }
            continue;
        };
        let large = LARGE.contains(&pair.name.as_str());
        let tampered = (!large).then(|| {
            let mut bad = cert.clone();
            bad.relation.push(ConfRel::forbidden(cert.query.guard));
            bad.to_json()
        });
        certs.push(Cert {
            name: pair.name.clone(),
            json: cert.to_json(),
            tampered,
            conjuncts: cert.relation.len() as u64,
            pair,
        });
    }
    crate::inputs::shuffle(&mut certs, &mut Rng::new(seed));
    certs
}

fn check(sum: &leapfrog_p4a::sum::Sum, json: &str, rec: &mut Recorder) -> bool {
    rec.open("certcheck.check_json");
    let ok = leapfrog_certcheck::check_json(&sum.automaton, json).is_ok();
    rec.close();
    ok
}

fn sum(pair: &Pair, rec: &mut Recorder) -> leapfrog_p4a::sum::Sum {
    rec.open("p4a.sum");
    let s = leapfrog_p4a::sum::sum(&pair.left, &pair.right);
    rec.close();
    s
}

/// One pass over the certificate set, under a root span.
pub fn pass(
    certs: &[Cert],
    run: &mut Run,
    rec: &mut Recorder,
    counting: bool,
    next_query: &mut u64,
) -> f64 {
    let t = Instant::now();
    rec.set_query(0);
    rec.open("pass");
    for c in certs {
        *next_query += 1;
        rec.set_query(*next_query);
        rec.open("query");
        let t0 = Instant::now();
        let s = sum(&c.pair, rec);
        let ok = check(&s, &c.json, rec);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match (ok, c.tampered.is_some()) {
            (true, true) => run.ok(Class::Prove, ms),
            // A large certificate's seconds count in the pass time only.
            (true, false) => run.ok_untimed(),
            (false, _) => run.fail(format!(
                "{}: certcheck rejected a valid certificate",
                c.name
            )),
        }
        let mut checked = c.conjuncts;
        if let Some(bad) = &c.tampered {
            let t1 = Instant::now();
            let ok = check(&s, &c.json, rec);
            let ms = t1.elapsed().as_secs_f64() * 1e3;
            if ok {
                run.ok(Class::Recheck, ms);
            } else {
                run.fail(format!(
                    "{}: certcheck rejected a valid certificate on re-check",
                    c.name
                ));
            }
            let t2 = Instant::now();
            let s = sum(&c.pair, rec);
            let accepted = check(&s, bad, rec);
            let ms = t2.elapsed().as_secs_f64() * 1e3;
            if accepted {
                run.fail(format!(
                    "{}: certcheck accepted a tampered certificate",
                    c.name
                ));
            } else {
                run.ok(Class::Refute, ms);
            }
            checked += 2 * c.conjuncts;
        }
        if counting {
            run.count("certcheck.conjuncts", checked);
            run.count("certcheck.cert_bytes", c.json.len() as u64);
        }
        rec.close();
    }
    rec.set_query(0);
    rec.close();
    t.elapsed().as_secs_f64()
}
