//! The `solve` workload: the paper's push-button loop, in process.
//!
//! Each pair gets a fresh single-threaded engine and one check, timed
//! from engine construction to the verdict: a proof or a refutation
//! sample. Each proven pair is then checked again on the same engine: a
//! re-check sample. Proofs load `core`, `logic`, `smt` and `sat`;
//! refutations load `cex`; re-checks load WP almost alone. `certcheck`
//! and `serve` never run here.

use std::time::Instant;

use leapfrog::{Engine, EngineConfig, Outcome, PairId, QueryRequest, RunStats};
use leapfrog_obs::trace;
use leapfrog_suite::utility::sloppy_strict;

use crate::inputs::{Expect, Pair, Query};
use crate::measure::{Class, Run};
use crate::spans::Recorder;
use crate::Guard;

/// The request a pair poses, over a prepared pair.
pub fn request(engine: &mut Engine, pid: PairId, pair: &Pair, rec: &mut Recorder) -> QueryRequest {
    let mut req = engine.standard_request(pid);
    match pair.query {
        Query::Standard => {}
        Query::ExternalFilter => {
            rec.open("logic.reachable");
            let reach = engine.reachable(pid);
            rec.close();
            req.standard_init = false;
            req.extra_init = sloppy_strict::external_filter_init(engine.sum_info(pid), &reach);
        }
        Query::StoreCorrespondence => {
            req.standard_init = false;
            req.extra_init = sloppy_strict::store_correspondence_init(engine.sum_info(pid));
        }
    }
    req
}

/// A single-threaded engine built under a benchmark span.
pub fn engine(rec: &mut Recorder) -> Engine {
    rec.open("core.engine_new");
    let engine = Engine::new(EngineConfig::new().threads(1));
    rec.close();
    engine
}

/// Runs a prepared request under a span, grafting the engine's phases.
pub fn run_prepared(
    engine: &mut Engine,
    pid: PairId,
    req: &QueryRequest,
    rec: &mut Recorder,
) -> Outcome {
    rec.open("core.run_prepared");
    let mark = trace::collector().event_mark();
    let outcome = engine.run_prepared(pid, req);
    rec.graft_engine(mark);
    rec.close();
    outcome
}

/// Adds a run's work counts to the first-pass counts.
pub fn count_stats(run: &mut Run, s: &RunStats) {
    let q = &s.queries;
    for (name, n) in [
        ("core.iterations", s.iterations),
        ("core.entailment_checks", s.entailment_checks),
        ("logic.wp_generated", s.wp_generated),
        ("logic.scope_pairs", s.scope_pairs as u64),
        ("logic.relation_size", s.extended),
        ("logic.premises_matched", s.premises_matched),
        ("logic.premises_total", s.premises_total),
        ("logic.session_rebuilds", q.session_rebuilds),
        ("smt.queries", q.queries),
        ("smt.cegar_rounds", q.cegar_rounds),
        ("smt.blocks_validated", q.blocks_validated),
        ("smt.blocks_considered", q.blocks_considered),
        ("smt.inst_ledger_hits", q.inst_ledger_hits),
        ("smt.blast_cache_hits", q.blast_cache_hits),
        ("smt.blast_cache_misses", q.blast_cache_misses),
        ("sat.decisions", q.sat.decisions),
        ("sat.propagations", q.sat.propagations),
        ("sat.conflicts", q.sat.conflicts),
        ("sat.restarts", q.sat.restarts),
        ("cex.bits_removed", s.witness_bits_minimized),
        ("cex.unconfirmed", s.witnesses_unconfirmed),
    ] {
        run.count(name, n);
    }
}

/// One pair: cold check, verification against the known answer and, for
/// a proof, a re-check on the same engine.
fn one_pair(pair: &Pair, run: &mut Run, rec: &mut Recorder, counting: bool, guard: &mut Guard) {
    let t0 = Instant::now();
    let mut engine = engine(rec);
    rec.open("core.prepare_pair");
    let pid = engine.prepare_pair(&pair.left, pair.ql, &pair.right, pair.qr);
    rec.close();
    rec.open("logic.reachable");
    engine.reachable(pid);
    rec.close();
    let req = request(&mut engine, pid, pair, rec);
    let outcome = run_prepared(&mut engine, pid, &req, rec);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = engine.last_run_stats().clone();
    guard.threads(stats.threads);
    if counting {
        count_stats(run, &stats);
    }
    match (&outcome, &pair.expect) {
        (Outcome::Equivalent(cert), Expect::Equivalent) => {
            run.ok(Class::Prove, cold_ms);
            let t1 = Instant::now();
            let again = run_prepared(&mut engine, pid, &req, rec);
            let recheck_ms = t1.elapsed().as_secs_f64() * 1e3;
            let warm = engine.last_run_stats().clone();
            if counting {
                count_stats(run, &warm);
                run.count("core.memo_hits_recheck", warm.entailment_memo_hits);
                run.count("core.entailment_checks_recheck", warm.entailment_checks);
            }
            match again {
                Outcome::Equivalent(c) if c.to_json() == cert.to_json() => {
                    run.ok(Class::Recheck, recheck_ms)
                }
                _ => run.fail(format!(
                    "{}: re-check outcome differs from the cold answer",
                    pair.name
                )),
            }
        }
        (Outcome::NotEquivalent(refutation), Expect::NotEquivalent(_)) => {
            rec.open("cex.witness_check");
            let confirmed = refutation.witness().is_some_and(|w| w.check());
            rec.close();
            if counting {
                let bits = refutation.witness().map_or(0, |w| w.packet.len() as u64);
                run.count("cex.witness_bits", bits);
            }
            if confirmed {
                run.ok(Class::Refute, cold_ms);
            } else {
                run.fail(format!(
                    "{}: witness unconfirmed or fails its replay",
                    pair.name
                ));
            }
        }
        _ => run.fail(format!(
            "{}: wrong verdict (equivalent = {}, expected {})",
            pair.name,
            outcome.is_equivalent(),
            pair.expect_equivalent()
        )),
    }
    rec.open("core.engine_drop");
    drop(engine);
    rec.close();
}

/// One pass over the seeded stream, under a root span.
pub fn pass(
    pairs: &[Pair],
    run: &mut Run,
    rec: &mut Recorder,
    counting: bool,
    guard: &mut Guard,
    next_query: &mut u64,
) -> f64 {
    let t = Instant::now();
    rec.set_query(0);
    rec.open("pass");
    for pair in pairs {
        *next_query += 1;
        rec.set_query(*next_query);
        rec.open("query");
        one_pair(pair, run, rec, counting, guard);
        rec.close();
    }
    rec.set_query(0);
    rec.close();
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;
    use leapfrog_bitvec::BitVec;

    fn small_pairs() -> Vec<Pair> {
        let mut pairs: Vec<Pair> = crate::inputs::table2_rows()
            .into_iter()
            .filter(|p| ["State Rearrangement", "Speculative loop"].contains(&p.name.as_str()))
            .collect();
        let mut mpls = leapfrog_suite::mutants::mutant_benchmarks().into_iter();
        let m = mpls.next().expect("the negative suite is not empty");
        pairs.push(Pair {
            name: m.name.to_string(),
            left: m.left,
            ql: m.left_start,
            right: m.right,
            qr: m.right_start,
            query: Query::Standard,
            expect: Expect::NotEquivalent(BitVec::zeros(1)),
        });
        pairs
    }

    fn run_pass(pairs: &[Pair], rec: &mut Recorder) -> Run {
        let (mut run, mut guard, mut q) = (Run::default(), Guard::default(), 0);
        pass(pairs, &mut run, rec, true, &mut guard, &mut q);
        assert!(guard.violations.is_empty());
        run
    }

    #[test]
    fn correct_answers_score_one_and_a_wrong_expected_answer_lowers_the_fraction() {
        let mut pairs = small_pairs();
        let mut off = Recorder::new(false, Instant::now(), 0);
        let good = run_pass(&pairs, &mut off);
        // Two proofs with their re-checks, one confirmed refutation.
        assert_eq!((good.attempted, good.failed), (5, 0));
        assert_eq!(good.correct_frac(), 1.0);

        pairs[0].expect = Expect::NotEquivalent(BitVec::zeros(1));
        pairs[2].expect = Expect::Equivalent;
        let bad = run_pass(&pairs, &mut off);
        assert_eq!(bad.failed, 2);
        assert!(bad.correct_frac() < 1.0);
    }

    #[test]
    fn a_traced_pass_nests_and_its_self_times_sum_to_the_root() {
        let pairs = small_pairs();
        let _lock = spans::COLLECTOR_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut rec = Recorder::new(true, Instant::now(), 1);
        rec.attach_engine();
        let run = run_pass(&pairs, &mut rec);
        leapfrog_obs::trace::set_enabled(false);
        assert_eq!(run.failed, 0);
        assert!(spans::nested(&rec.spans));
        let table = spans::layer_table(&rec.spans);
        assert_eq!(table.values().sum::<u64>(), spans::root_total(&rec.spans));
        for layer in [
            "core.intern",
            "core.unattributed",
            "smt.entailment",
            "cex.witness",
            "bench.other",
        ] {
            assert!(table.contains_key(layer), "{layer} missing from {table:?}");
        }
    }
}
