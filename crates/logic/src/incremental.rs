//! Per-guard incremental entailment sessions.
//!
//! Algorithm 1 decides `⋀R ⊨ ψ` once per frontier pop, and after stage-1
//! template filtering the premise set is exactly `R`'s same-guard slice —
//! which only ever *grows*. The one-shot pipeline
//! ([`crate::lower::entails_filtered`]) re-lowers, re-blasts and re-solves
//! that entire premise set for every query; a [`GuardSession`] keeps one
//! persistent [`BlastContext`] per guard instead:
//!
//! * **Premises are asserted once.** New same-guard relations are lowered
//!   and their seed instantiations asserted permanently when they first
//!   appear; earlier premises' clauses (and every clause the CDCL solver
//!   has learnt about them) carry over to all later queries.
//! * **Conclusions are activation-gated.** Each query blasts only its own
//!   `¬ψ`, gated behind a fresh activation literal; the solver runs under
//!   that assumption and the literal is retired afterwards, so per-query
//!   clauses never pollute later queries.
//! * **CEGAR instantiations persist.** A quantifier instantiation
//!   discovered while refuting one candidate model is an instance of a
//!   true premise, so it is asserted permanently and never re-discovered.
//! * **Model validation is variable-indexed and batched.** The session
//!   keeps one [`RefinementOracle`] alive across queries: each `∀`-premise
//!   is indexed by the support variables it constrains, so a candidate
//!   model only re-validates the blocks whose support valuation changed
//!   since their last clean validation, and all violated blocks of a round
//!   refine the context in a single batched assert.
//!
//! A session lives as long as its [`SessionPool`], and the engine keeps a
//! pool for one run, so activation-retired per-query clauses are bounded
//! by that run.
//!
//! Verdicts are exact booleans (the CEGAR loop validates any candidate
//! model against the *true* `∀`-premises), so sessions are freely mixed
//! with the one-shot pipeline without affecting results, only wall-clock
//! time and memory.

use std::collections::HashMap;
use std::time::Instant;

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::Automaton;
use leapfrog_smt::{
    instantiate_forall, BBit, BlastContext, BvVar, Declarations, Formula, InstLedger, QueryStats,
    RefinementOracle, SolverStats,
};

use crate::confrel::ConfRel;
use crate::lower::{lower_pure, LowerEnv};
use crate::templates::TemplatePair;

/// Global metric handles for the incremental-session layer. These run
/// alongside the per-session [`QueryStats`]: the session stats feed
/// per-run `RunStats`, the globals feed the daemon's live registry.
mod meters {
    use leapfrog_obs::{LazyCounter, LazyHistogram};

    pub static GUARD_CHECKS: LazyCounter = LazyCounter::new("leapfrog_guard_checks_total");
    pub static CEGAR_ROUNDS: LazyCounter = LazyCounter::new("leapfrog_cegar_rounds_total");
    pub static GUARD_CHECK_SECONDS: LazyHistogram =
        LazyHistogram::new("leapfrog_guard_check_seconds");
}

/// A persistent entailment context for one template-pair guard.
pub struct GuardSession {
    decls: Declarations,
    env: LowerEnv,
    ctx: BlastContext,
    /// Premises synced so far (a prefix of the store's same-guard slice).
    premise_count: usize,
    /// The variable-indexed validator over the persistent `∀`-premises.
    oracle: RefinementOracle,
    /// Cross-session instantiation ledger: `∀`-block validation verdicts
    /// keyed by canonical block identity and support valuation, shared by
    /// every session of an engine.
    ledger: Option<InstLedger>,
    /// Set when the permanent constraints became unsatisfiable at the
    /// root: the premises entail everything.
    poisoned: bool,
    /// Queries answered (used to freshen conclusion variable names).
    checks: u64,
    stats: QueryStats,
    /// CDCL counters of the oracle's short-lived validation solves.
    /// `stats.sat` is always these plus the context's own counters.
    oracle_sat: SolverStats,
}

impl GuardSession {
    /// A fresh session for a guard, with no instantiation ledger.
    pub fn new(guard: TemplatePair) -> GuardSession {
        GuardSession::with_ledger(guard, None)
    }

    /// A fresh session for a guard whose CEGAR validations replay from and
    /// record into `ledger`.
    pub fn with_ledger(guard: TemplatePair, ledger: Option<InstLedger>) -> GuardSession {
        GuardSession {
            decls: Declarations::new(),
            env: LowerEnv {
                buf: [None, None],
                headers: HashMap::new(),
                vars: Vec::new(),
                guard_left: guard.left.buf_len,
                guard_right: guard.right.buf_len,
            },
            ctx: BlastContext::new(),
            premise_count: 0,
            oracle: RefinementOracle::new(),
            ledger,
            poisoned: false,
            checks: 0,
            stats: QueryStats::default(),
            oracle_sat: SolverStats::default(),
        }
    }

    /// Query statistics for this session (one entry per [`Self::check`]).
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Decides `⋀ premises ⊨ conclusion`. `premises` must be the current
    /// same-guard slice of the relation store, in insertion order; it may
    /// only have grown since the previous call (new premises are synced
    /// into the persistent context incrementally).
    pub fn check(&mut self, aut: &Automaton, premises: &[&ConfRel], conclusion: &ConfRel) -> bool {
        let start = Instant::now();
        let _span = leapfrog_obs::trace::span(leapfrog_obs::Phase::GuardEntailment);
        self.stats.queries += 1;
        meters::GUARD_CHECKS.inc();
        // Hard assert: the permanent context cannot un-assert clauses, so
        // a shrinking slice would leave stale premises asserted and make
        // later "entailed" verdicts unsound. The relation store's
        // same-guard slice is append-only, so this never fires for the
        // checker; it guards future callers.
        assert!(
            premises.len() >= self.premise_count,
            "a guard session's premise slice only grows ({} < {})",
            premises.len(),
            self.premise_count
        );

        // Sync newly appeared premises: lower, remember the ∀, and assert
        // the all-zeros seed instantiation permanently.
        for (i, p) in premises.iter().enumerate().skip(self.premise_count) {
            let xs: Vec<BvVar> = p
                .vars
                .iter()
                .enumerate()
                .map(|(j, w)| self.decls.declare(format!("x{i}_{j}"), *w))
                .collect();
            self.env.vars = xs.clone();
            let body = lower_pure(aut, &p.phi, &mut self.decls, &mut self.env);
            let quantified: Vec<BvVar> = xs
                .into_iter()
                .filter(|v| self.decls.width(*v) > 0)
                .collect();
            let seed: Vec<BitVec> = quantified
                .iter()
                .map(|x| BitVec::zeros(self.decls.width(*x)))
                .collect();
            let inst = instantiate_forall(&body, &quantified, &seed);
            if !self.ctx.assert_formula(&self.decls, &inst) {
                self.poisoned = true;
            }
            if !quantified.is_empty() {
                self.oracle.add_block(quantified, body);
            }
        }
        self.premise_count = premises.len();
        if self.poisoned {
            self.sync_sat_stats();
            let elapsed = start.elapsed();
            meters::GUARD_CHECK_SECONDS.record(elapsed);
            self.stats.durations.push(elapsed);
            return true;
        }

        // Blast this query's ¬ψ behind a fresh activation literal.
        let k = self.checks;
        self.checks += 1;
        let ys: Vec<BvVar> = conclusion
            .vars
            .iter()
            .enumerate()
            .map(|(j, w)| self.decls.declare(format!("c{k}y{j}"), *w))
            .collect();
        self.env.vars = ys;
        let concl = lower_pure(aut, &conclusion.phi, &mut self.decls, &mut self.env);
        let negated = Formula::not(concl);
        let act = self.ctx.fresh_activation_lit();
        match self.ctx.blast_formula(&self.decls, &negated) {
            BBit::Const(false) => {
                // ¬ψ is contradictory on its own: ψ holds outright.
                self.sync_sat_stats();
                let elapsed = start.elapsed();
                meters::GUARD_CHECK_SECONDS.record(elapsed);
                self.stats.durations.push(elapsed);
                return true;
            }
            BBit::Const(true) => {
                // ¬ψ is trivially true (ψ = ⊥): entailed only if the
                // premises are unsatisfiable, which the CEGAR loop below
                // decides.
            }
            BBit::Lit(root) => {
                if !self.ctx.add_clause_raw(&[!act, root]) {
                    self.poisoned = true;
                    self.sync_sat_stats();
                    let elapsed = start.elapsed();
                    meters::GUARD_CHECK_SECONDS.record(elapsed);
                    self.stats.durations.push(elapsed);
                    return true;
                }
            }
        }

        // CEGAR under the activation assumption: candidate models must
        // survive every true ∀-premise. The oracle skips blocks whose
        // support is unchanged since their last clean validation and
        // batches all of a round's violations into one permanent assert.
        let verdict = loop {
            let _round_span = leapfrog_obs::trace::span(leapfrog_obs::Phase::CegarRound);
            match self.ctx.solve_with(&self.decls, &[act]) {
                None => break true,
                Some(model) => {
                    self.stats.cegar_rounds += 1;
                    meters::CEGAR_ROUNDS.inc();
                    self.stats.blocks_considered += self.oracle.len() as u64;
                    let round =
                        self.oracle
                            .validate_with(&self.decls, &model, self.ledger.as_ref());
                    self.stats.blocks_validated += round.validated;
                    self.stats.inst_ledger_hits += round.ledger_hits;
                    self.oracle_sat.absorb(&round.sat);
                    match round.refinement {
                        None => break false,
                        Some(batch) => {
                            if !self.ctx.assert_formula(&self.decls, &batch) {
                                self.poisoned = true;
                                break true;
                            }
                        }
                    }
                }
            }
        };
        // Retire the activation literal: this query's clauses go vacuous.
        self.ctx.add_clause_raw(&[!act]);
        self.stats.live_clauses_peak = self
            .stats
            .live_clauses_peak
            .max(self.ctx.num_clauses() as u64);
        self.sync_sat_stats();
        let elapsed = start.elapsed();
        meters::GUARD_CHECK_SECONDS.record(elapsed);
        self.stats.durations.push(elapsed);
        verdict
    }

    /// Refreshes the session's solver-counter aggregate: the oracle's
    /// validation solves plus the context's own counters.
    fn sync_sat_stats(&mut self) {
        let mut sat = self.oracle_sat;
        sat.absorb(&self.ctx.solver().stats());
        self.stats.sat = sat;
    }
}

/// A map of guard sessions plus merged statistics, used by the checker's
/// worklist loop. The engine builds one pool per run and drops it when
/// the run returns, so a pool's statistics are that run's own.
#[derive(Default)]
pub struct SessionPool {
    sessions: HashMap<TemplatePair, GuardSession>,
    /// The instantiation ledger every session of the pool shares.
    ledger: Option<InstLedger>,
}

impl SessionPool {
    /// An empty pool with no instantiation ledger.
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// An empty pool whose sessions share `ledger`.
    pub fn with_ledger(ledger: InstLedger) -> SessionPool {
        SessionPool {
            ledger: Some(ledger),
            ..SessionPool::default()
        }
    }

    /// Decides `⋀ premises ⊨ conclusion` through the guard's session,
    /// creating it on first use (see [`GuardSession::check`] for the
    /// premise-slice contract).
    pub fn check(&mut self, aut: &Automaton, premises: &[&ConfRel], conclusion: &ConfRel) -> bool {
        let guard = conclusion.guard;
        let ledger = &self.ledger;
        self.sessions
            .entry(guard)
            .or_insert_with(|| GuardSession::with_ledger(guard, ledger.clone()))
            .check(aut, premises, conclusion)
    }

    /// Merged statistics across the pool's sessions, in guard order (the
    /// deterministic order the checker absorbs them in).
    pub fn stats(&self) -> QueryStats {
        let mut guards: Vec<&TemplatePair> = self.sessions.keys().collect();
        guards.sort();
        let mut out = QueryStats::default();
        for g in guards {
            out.absorb(self.sessions[g].stats());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confrel::{BitExpr, Pure, Side, VarId};
    use crate::lower::entails_stateless;
    use crate::templates::Template;
    use leapfrog_p4a::ast::{StateId, Target};
    use leapfrog_p4a::builder::Builder;

    fn aut() -> Automaton {
        let mut b = Builder::new();
        let h = b.header("h", 4);
        let g = b.header("g", 4);
        let q = b.state("q");
        b.define(q, vec![b.extract(h), b.extract(g)], b.goto(Target::Accept));
        b.build().unwrap()
    }

    fn guard(lbuf: usize, rbuf: usize) -> TemplatePair {
        TemplatePair::new(
            Template {
                target: Target::State(StateId(0)),
                buf_len: lbuf,
            },
            Template {
                target: Target::State(StateId(0)),
                buf_len: rbuf,
            },
        )
    }

    fn buf_eq_rel(g: TemplatePair) -> ConfRel {
        ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        }
    }

    #[test]
    fn session_agrees_with_one_shot_pipeline() {
        // A growing premise sequence with varied shapes: every (prefix,
        // conclusion) verdict must match the stateless pipeline.
        let a = aut();
        let g = guard(3, 3);
        let h = a.header_by_name("h").unwrap();
        let gh = a.header_by_name("g").unwrap();
        let premises = [
            ConfRel {
                guard: g,
                vars: vec![2],
                phi: Pure::eq(
                    BitExpr::concat(BitExpr::Buf(Side::Left), BitExpr::Var(VarId(0))),
                    BitExpr::concat(BitExpr::Buf(Side::Right), BitExpr::Var(VarId(0))),
                ),
            },
            ConfRel {
                guard: g,
                vars: vec![],
                phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, gh)),
            },
            ConfRel {
                guard: g,
                vars: vec![],
                phi: Pure::eq(BitExpr::Hdr(Side::Right, h), BitExpr::Hdr(Side::Right, gh)),
            },
        ];
        let conclusions = vec![
            buf_eq_rel(g),
            ConfRel {
                guard: g,
                vars: vec![],
                phi: Pure::eq(
                    BitExpr::Slice(Box::new(BitExpr::Buf(Side::Left)), 1, 2),
                    BitExpr::Slice(Box::new(BitExpr::Buf(Side::Right)), 1, 2),
                ),
            },
            ConfRel {
                guard: g,
                vars: vec![],
                phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, h)),
            },
            ConfRel::forbidden(g),
            ConfRel {
                guard: g,
                vars: vec![2],
                phi: Pure::eq(BitExpr::Var(VarId(0)), BitExpr::Lit(BitVec::zeros(2))),
            },
        ];
        let mut session = GuardSession::new(g);
        for upto in 0..=premises.len() {
            let slice: Vec<&ConfRel> = premises[..upto].iter().collect();
            for concl in &conclusions {
                let expected = entails_stateless(&a, &premises[..upto], concl);
                let got = session.check(&a, &slice, concl);
                assert_eq!(
                    got,
                    expected,
                    "prefix {upto}, conclusion {}",
                    concl.display(&a)
                );
            }
        }
        assert!(session.stats().queries > 0);
    }

    #[test]
    fn sessions_sharing_a_ledger_replay_validations() {
        // Two sessions of the same guard shape (the worker-pool scenario):
        // the second session's CEGAR validations replay from the shared
        // ledger, with identical verdicts throughout.
        let a = aut();
        let g = guard(3, 3);
        let premises = [ConfRel {
            guard: g,
            vars: vec![2],
            phi: Pure::eq(
                BitExpr::concat(BitExpr::Buf(Side::Left), BitExpr::Var(VarId(0))),
                BitExpr::concat(BitExpr::Buf(Side::Right), BitExpr::Var(VarId(0))),
            ),
        }];
        let conclusions = [buf_eq_rel(g), ConfRel::forbidden(g)];
        let ledger = InstLedger::new();
        let slice: Vec<&ConfRel> = premises.iter().collect();
        let run = |ledger: Option<InstLedger>| -> (Vec<bool>, u64) {
            let mut session = GuardSession::with_ledger(g, ledger);
            let verdicts = conclusions
                .iter()
                .map(|c| session.check(&a, &slice, c))
                .collect();
            (verdicts, session.stats().inst_ledger_hits)
        };
        let (v1, hits1) = run(Some(ledger.clone()));
        let (v2, hits2) = run(Some(ledger.clone()));
        let (v3, _) = run(None);
        assert_eq!(v1, v2, "ledger replay must not change verdicts");
        assert_eq!(v1, v3, "ledger on/off must agree");
        assert!(!ledger.is_empty(), "validations must be recorded");
        assert!(
            hits2 > hits1,
            "the second session must replay from the ledger: {hits1} -> {hits2}"
        );
    }

    #[test]
    fn poisoned_session_entails_everything() {
        // A ⊥ premise makes every later conclusion entailed.
        let a = aut();
        let g = guard(1, 1);
        let premises = [ConfRel::forbidden(g)];
        let slice: Vec<&ConfRel> = premises.iter().collect();
        let mut session = GuardSession::new(g);
        assert!(session.check(&a, &slice, &buf_eq_rel(g)));
        let impossible = ConfRel {
            guard: g,
            vars: vec![2],
            phi: Pure::eq(BitExpr::Var(VarId(0)), BitExpr::Lit(BitVec::zeros(2))),
        };
        assert!(session.check(&a, &slice, &impossible));
    }

    #[test]
    fn pool_routes_by_guard() {
        let a = aut();
        let g1 = guard(1, 1);
        let g2 = guard(2, 2);
        let mut pool = SessionPool::new();
        // Tautological conclusion holds with no premises at both guards.
        assert!(pool.check(&a, &[], &ConfRel::trivial(g1)));
        assert!(pool.check(&a, &[], &ConfRel::trivial(g2)));
        // ⊥ conclusion does not.
        assert!(!pool.check(&a, &[], &ConfRel::forbidden(g1)));
        let stats = pool.stats();
        assert_eq!(stats.queries, 3);
    }
}
