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
//! * **Contexts are clause-budgeted.** Activation-retired per-query
//!   clauses accumulate in the CDCL solver forever; when the retired count
//!   exceeds `gc_ratio ×` the live (permanent) count, the session
//!   transparently rebuilds a fresh [`BlastContext`] from its persisted
//!   permanent-formula list — premise seeds *and* every CEGAR
//!   instantiation discovered so far — so no refinement work is lost.
//!   `EngineConfig::session_gc_ratio` / `LEAPFROG_SESSION_GC` configure
//!   the ratio (`0` disables GC).
//!
//! Verdicts are exact booleans (the CEGAR loop validates any candidate
//! model against the *true* `∀`-premises), so sessions are freely mixed
//! with the one-shot pipeline — and GC may fire at any point — without
//! affecting results, only wall-clock time and memory.

use std::collections::HashMap;
use std::time::Instant;

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::Automaton;
use leapfrog_smt::{
    instantiate_forall, BBit, BlastContext, BvVar, Declarations, Formula, InstLedger, QueryStats,
    RefinementOracle, SharedBlastCache, SolverConfig, SolverStats,
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
    pub static SESSION_REBUILDS: LazyCounter = LazyCounter::new("leapfrog_session_rebuilds_total");
    pub static SESSION_EVICTIONS: LazyCounter =
        LazyCounter::new("leapfrog_session_evictions_total");
    pub static BLAST_CACHE_HITS: LazyCounter = LazyCounter::new("leapfrog_blast_cache_hits_total");
    pub static BLAST_CACHE_MISSES: LazyCounter =
        LazyCounter::new("leapfrog_blast_cache_misses_total");
    pub static GUARD_CHECK_SECONDS: LazyHistogram =
        LazyHistogram::new("leapfrog_guard_check_seconds");
}

/// Typed configuration for guard sessions and session pools — the knobs a
/// long-lived engine owns, as one value instead of a parameter sprawl.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Clause-budget GC ratio: rebuild the context when retired clauses
    /// exceed `ratio ×` live clauses. `None` disables the GC.
    pub gc_ratio: Option<f64>,
    /// Clause-count floor for the GC: a context holding fewer live clauses
    /// than this never rebuilds, however lopsided its retired/live ratio —
    /// small, cache-served sessions churn through activation-retired
    /// clauses quickly, and rebuilding them buys nothing.
    pub gc_floor: u64,
    /// Cross-session instantiation ledger: `∀`-block validation verdicts
    /// keyed by canonical block identity and support valuation, shared by
    /// every session of an engine (across guards, pools and threads).
    pub ledger: Option<InstLedger>,
    /// CDCL configuration for every context this session (or pool)
    /// creates — including GC-rebuild replacements — and for its oracle's
    /// validation solves.
    pub sat: SolverConfig,
}

impl Default for SessionConfig {
    /// GC and ledger off, default solver configuration.
    fn default() -> SessionConfig {
        SessionConfig {
            gc_ratio: None,
            gc_floor: 0,
            ledger: None,
            sat: SolverConfig::default(),
        }
    }
}

impl SessionConfig {
    /// GC and ledger both off — the standalone-session default.
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }
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
    /// Every permanently asserted formula, in assertion order: premise
    /// seed instantiations and CEGAR refinements. A GC rebuild replays
    /// this list into a fresh context, so refinement work survives.
    permanent: Vec<Formula>,
    /// Root clauses contributed by permanent asserts in the current
    /// context (measured via [`BlastContext::clauses_added`] deltas).
    live_clauses: u64,
    /// GC budget and cross-session ledger (see [`SessionConfig`]).
    cfg: SessionConfig,
    /// Set when the permanent constraints became unsatisfiable at the
    /// root: the premises entail everything.
    poisoned: bool,
    /// Queries answered (used to freshen conclusion variable names).
    checks: u64,
    stats: QueryStats,
    /// CDCL counters no longer reachable through the live context: the
    /// solvers GC rebuilds dropped, plus the oracle's short-lived
    /// validation solves. `stats.sat` is always `sat_retired` + the live
    /// context's counters, so totals survive rebuilds.
    sat_retired: SolverStats,
}

impl GuardSession {
    /// A fresh session for a guard, with clause-budget GC disabled.
    pub fn new(guard: TemplatePair) -> GuardSession {
        GuardSession::with_gc(guard, None)
    }

    /// A fresh session for a guard. `gc_ratio` bounds context growth:
    /// when the clauses retired by finished queries exceed `ratio ×` the
    /// live (permanent) clauses, the context is rebuilt from the persisted
    /// permanent list. `None` disables the GC. (Compat shim over
    /// [`GuardSession::with_config`] with no floor and no ledger.)
    pub fn with_gc(guard: TemplatePair, gc_ratio: Option<f64>) -> GuardSession {
        GuardSession::with_config(
            guard,
            SessionConfig {
                gc_ratio,
                ..SessionConfig::default()
            },
        )
    }

    /// A fresh session for a guard under a full [`SessionConfig`].
    pub fn with_config(guard: TemplatePair, cfg: SessionConfig) -> GuardSession {
        GuardSession {
            decls: Declarations::new(),
            env: LowerEnv {
                buf: [None, None],
                headers: HashMap::new(),
                vars: Vec::new(),
                guard_left: guard.left.buf_len,
                guard_right: guard.right.buf_len,
            },
            ctx: BlastContext::new(cfg.sat),
            premise_count: 0,
            oracle: RefinementOracle::new(cfg.sat),
            permanent: Vec::new(),
            live_clauses: 0,
            cfg,
            poisoned: false,
            checks: 0,
            stats: QueryStats::default(),
            sat_retired: SolverStats::default(),
        }
    }

    /// Query statistics for this session (one entry per [`Self::check`]).
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Clauses retired by finished queries in the current context:
    /// everything added at the root that is not a permanent assert
    /// (activation-gated conclusion CNF plus the retire clauses).
    fn retired_clauses(&self) -> u64 {
        self.ctx.clauses_added().saturating_sub(self.live_clauses)
    }

    /// Rebuilds the context from the permanent-formula list when the
    /// retired-clause budget is exhausted. CEGAR instantiations are part
    /// of the list, so no refinement work is re-discovered. Contexts whose
    /// live-clause count is under [`SessionConfig::gc_floor`] never
    /// rebuild: their absolute size is already bounded by the floor, and
    /// on small cache-served rows the default ratio otherwise triggers
    /// rebuilds that cost more than the clauses they reclaim.
    fn maybe_gc(&mut self, cache: &SharedBlastCache) {
        let Some(ratio) = self.cfg.gc_ratio else {
            return;
        };
        if self.poisoned {
            return;
        }
        if self.live_clauses < self.cfg.gc_floor {
            return;
        }
        if (self.retired_clauses() as f64) <= ratio * self.live_clauses.max(1) as f64 {
            return;
        }
        self.sat_retired.absorb(&self.ctx.solver().stats());
        self.ctx = BlastContext::new(self.cfg.sat);
        self.live_clauses = 0;
        self.stats.session_rebuilds += 1;
        meters::SESSION_REBUILDS.inc();
        let permanent = std::mem::take(&mut self.permanent);
        for f in &permanent {
            if !self.replay_assert(f, cache) {
                self.poisoned = true;
            }
        }
        self.permanent = permanent;
    }

    /// Decides `⋀ premises ⊨ conclusion`. `premises` must be the current
    /// same-guard slice of the relation store, in insertion order; it may
    /// only have grown since the previous call (new premises are synced
    /// into the persistent context incrementally).
    pub fn check(
        &mut self,
        aut: &Automaton,
        premises: &[&ConfRel],
        conclusion: &ConfRel,
        cache: &SharedBlastCache,
    ) -> bool {
        let start = Instant::now();
        let _span = leapfrog_obs::trace::span(leapfrog_obs::Phase::GuardEntailment);
        self.stats.queries += 1;
        meters::GUARD_CHECKS.inc();
        self.maybe_gc(cache);
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
            if !self.assert_permanent(inst, cache) {
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
                            .validate_with(&self.decls, &model, self.cfg.ledger.as_ref());
                    self.stats.blocks_validated += round.validated;
                    self.stats.inst_ledger_hits += round.ledger_hits;
                    self.sat_retired.absorb(&round.sat);
                    match round.refinement {
                        None => break false,
                        Some(batch) => {
                            if !self.assert_permanent(batch, cache) {
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

    /// Refreshes the session's solver-counter aggregate: the counters of
    /// every context this session has retired plus the live context's.
    fn sync_sat_stats(&mut self) {
        let mut sat = self.sat_retired;
        sat.absorb(&self.ctx.solver().stats());
        self.stats.sat = sat;
    }

    /// Asserts `f` permanently: it joins the persisted list replayed by GC
    /// rebuilds, and its clauses count as live.
    fn assert_permanent(&mut self, f: Formula, cache: &SharedBlastCache) -> bool {
        let ok = self.replay_assert(&f, cache);
        self.permanent.push(f);
        ok
    }

    /// Asserts a formula into the current context, attributing its clauses
    /// to the live (permanent) budget.
    fn replay_assert(&mut self, f: &Formula, cache: &SharedBlastCache) -> bool {
        let before = self.ctx.clauses_added();
        let (ok, hit) = self.ctx.assert_formula_cached(&self.decls, f, cache);
        if hit {
            self.stats.blast_cache_hits += 1;
            meters::BLAST_CACHE_HITS.inc();
        } else {
            self.stats.blast_cache_misses += 1;
            meters::BLAST_CACHE_MISSES.inc();
        }
        self.live_clauses += self.ctx.clauses_added() - before;
        ok
    }
}

/// A map of guard sessions plus merged statistics, used by the checker's
/// worklist loop (one pool per query shape). An engine keeps pools warm
/// across queries: the sessions (premise clauses, learnt CDCL state, CEGAR
/// instantiations) survive from one check of a parser pair to the next.
#[derive(Default)]
pub struct SessionPool {
    sessions: HashMap<TemplatePair, GuardSession>,
    cfg: SessionConfig,
    /// Monotone use counter driving the LRU order of [`Self::prune_lru`].
    tick: u64,
    /// Last-use tick per resident guard session.
    last_used: HashMap<TemplatePair, u64>,
    /// Statistics of pruned sessions: absorbed on eviction so the pool's
    /// totals stay monotone across [`Self::prune_lru`] calls (the engine
    /// reports per-run deltas against a baseline snapshot).
    retired: QueryStats,
}

impl SessionPool {
    /// An empty pool with clause-budget GC disabled.
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// An empty pool whose sessions rebuild their contexts when retired
    /// clauses exceed `ratio ×` the live clauses (`None` disables GC).
    pub fn with_gc(gc_ratio: Option<f64>) -> SessionPool {
        SessionPool::with_config(SessionConfig {
            gc_ratio,
            ..SessionConfig::default()
        })
    }

    /// An empty pool whose sessions are created under `cfg`.
    pub fn with_config(cfg: SessionConfig) -> SessionPool {
        SessionPool {
            cfg,
            ..SessionPool::default()
        }
    }

    /// Number of warm guard sessions currently held.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the pool holds no sessions yet.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Checks out the guard's session as an explicit handle, creating the
    /// session on first use. The lease borrows the pool, so the session is
    /// structurally returned when the lease drops — the checkout/return
    /// protocol a long-lived engine needs to thread one pool through many
    /// queries without dangling sessions.
    pub fn lease(&mut self, guard: TemplatePair) -> SessionLease<'_> {
        let cfg = self.cfg.clone();
        self.tick += 1;
        self.last_used.insert(guard, self.tick);
        let session = self
            .sessions
            .entry(guard)
            .or_insert_with(|| GuardSession::with_config(guard, cfg));
        SessionLease { session }
    }

    /// Evicts least-recently-used guard sessions until at most
    /// `max_sessions` remain, returning how many were dropped. The pruned
    /// sessions' statistics are preserved in the pool totals; a later
    /// check of a pruned guard simply rebuilds its context from scratch
    /// (and from the shared blast cache), so verdicts never change — the
    /// eviction hook a capacity-bounded engine drives between runs.
    pub fn prune_lru(&mut self, max_sessions: usize) -> usize {
        let mut evicted = 0;
        while self.sessions.len() > max_sessions {
            let victim = *self
                .sessions
                .keys()
                .min_by_key(|g| (self.last_used.get(g).copied().unwrap_or(0), **g))
                .expect("non-empty above");
            if let Some(session) = self.sessions.remove(&victim) {
                self.retired.absorb(session.stats());
            }
            self.last_used.remove(&victim);
            evicted += 1;
        }
        meters::SESSION_EVICTIONS.add(evicted as u64);
        evicted
    }

    /// Decides `⋀ premises ⊨ conclusion` through the guard's session,
    /// creating it on first use.
    pub fn check(
        &mut self,
        aut: &Automaton,
        premises: &[&ConfRel],
        conclusion: &ConfRel,
        cache: &SharedBlastCache,
    ) -> bool {
        self.lease(conclusion.guard)
            .check(aut, premises, conclusion, cache)
    }

    /// Merged statistics across the pool's sessions, in guard order (the
    /// deterministic order the checker absorbs them in), including the
    /// preserved statistics of sessions pruned by [`Self::prune_lru`].
    pub fn stats(&self) -> QueryStats {
        let mut guards: Vec<&TemplatePair> = self.sessions.keys().collect();
        guards.sort();
        let mut out = self.retired.clone();
        for g in guards {
            out.absorb(self.sessions[g].stats());
        }
        out
    }
}

/// A checked-out guard session: the explicit handle type through which an
/// engine (or the checker's merge loop) talks to one guard's persistent
/// solver context. Dropping the lease returns the session to its pool.
pub struct SessionLease<'p> {
    session: &'p mut GuardSession,
}

impl SessionLease<'_> {
    /// Decides `⋀ premises ⊨ conclusion` in the leased session (see
    /// [`GuardSession::check`] for the premise-slice contract).
    pub fn check(
        &mut self,
        aut: &Automaton,
        premises: &[&ConfRel],
        conclusion: &ConfRel,
        cache: &SharedBlastCache,
    ) -> bool {
        self.session.check(aut, premises, conclusion, cache)
    }

    /// The leased session's query statistics.
    pub fn stats(&self) -> &QueryStats {
        self.session.stats()
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
        let cache = SharedBlastCache::new();
        let mut session = GuardSession::new(g);
        for upto in 0..=premises.len() {
            let slice: Vec<&ConfRel> = premises[..upto].iter().collect();
            for concl in &conclusions {
                let expected = entails_stateless(&a, &premises[..upto], concl);
                let got = session.check(&a, &slice, concl, &cache);
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
    fn gc_forced_session_agrees_and_rebuilds() {
        // An aggressive GC ratio forces context rebuilds between queries;
        // every verdict must still match the stateless pipeline, and the
        // rebuild counter must record the churn.
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
        ];
        let conclusions = vec![
            buf_eq_rel(g),
            ConfRel {
                guard: g,
                vars: vec![],
                phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, h)),
            },
            ConfRel::forbidden(g),
        ];
        let cache = SharedBlastCache::new();
        let mut session = GuardSession::with_gc(g, Some(0.001));
        for upto in 0..=premises.len() {
            let slice: Vec<&ConfRel> = premises[..upto].iter().collect();
            for concl in &conclusions {
                let expected = entails_stateless(&a, &premises[..upto], concl);
                let got = session.check(&a, &slice, concl, &cache);
                assert_eq!(got, expected, "prefix {upto}: {}", concl.display(&a));
            }
        }
        assert!(
            session.stats().session_rebuilds > 0,
            "a near-zero GC ratio must force rebuilds: {:?}",
            session.stats()
        );
        assert!(session.stats().live_clauses_peak > 0);
    }

    #[test]
    fn gc_floor_suppresses_rebuilds_below_the_threshold() {
        // Same aggressive ratio as the forced-GC test, but with a floor
        // far above anything this small session will ever hold live: no
        // rebuild may fire, and every verdict must still match the
        // stateless pipeline.
        let a = aut();
        let g = guard(3, 3);
        let h = a.header_by_name("h").unwrap();
        let gh = a.header_by_name("g").unwrap();
        let premises = [
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
                phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, h)),
            },
            ConfRel::forbidden(g),
        ];
        let cache = SharedBlastCache::new();
        let mut session = GuardSession::with_config(
            g,
            SessionConfig {
                gc_ratio: Some(0.001),
                gc_floor: 1_000_000,
                ..SessionConfig::default()
            },
        );
        for upto in 0..=premises.len() {
            let slice: Vec<&ConfRel> = premises[..upto].iter().collect();
            for concl in &conclusions {
                let expected = entails_stateless(&a, &premises[..upto], concl);
                let got = session.check(&a, &slice, concl, &cache);
                assert_eq!(got, expected, "prefix {upto}: {}", concl.display(&a));
            }
        }
        assert_eq!(
            session.stats().session_rebuilds,
            0,
            "the floor must suppress every rebuild: {:?}",
            session.stats()
        );
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
        let cache = SharedBlastCache::new();
        let ledger = leapfrog_smt::InstLedger::new();
        let cfg = SessionConfig {
            ledger: Some(ledger.clone()),
            ..SessionConfig::default()
        };
        let slice: Vec<&ConfRel> = premises.iter().collect();
        let run = |cfg: SessionConfig| -> (Vec<bool>, u64) {
            let mut session = GuardSession::with_config(g, cfg);
            let verdicts = conclusions
                .iter()
                .map(|c| session.check(&a, &slice, c, &cache))
                .collect();
            (verdicts, session.stats().inst_ledger_hits)
        };
        let (v1, hits1) = run(cfg.clone());
        let (v2, hits2) = run(cfg);
        let (v3, _) = run(SessionConfig::default());
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
        let cache = SharedBlastCache::new();
        let mut session = GuardSession::new(g);
        assert!(session.check(&a, &slice, &buf_eq_rel(g), &cache));
        let impossible = ConfRel {
            guard: g,
            vars: vec![2],
            phi: Pure::eq(BitExpr::Var(VarId(0)), BitExpr::Lit(BitVec::zeros(2))),
        };
        assert!(session.check(&a, &slice, &impossible, &cache));
    }

    #[test]
    fn prune_lru_drops_cold_sessions_and_keeps_stats() {
        let a = aut();
        let g1 = guard(1, 1);
        let g2 = guard(2, 2);
        let g3 = guard(3, 3);
        let cache = SharedBlastCache::new();
        let mut pool = SessionPool::new();
        assert!(pool.check(&a, &[], &ConfRel::trivial(g1), &cache));
        assert!(pool.check(&a, &[], &ConfRel::trivial(g2), &cache));
        assert!(pool.check(&a, &[], &ConfRel::trivial(g3), &cache));
        // Re-touch g1 so g2 is the LRU victim.
        assert!(pool.check(&a, &[], &ConfRel::trivial(g1), &cache));
        let before = pool.stats();
        assert_eq!(pool.prune_lru(2), 1);
        assert_eq!(pool.len(), 2);
        assert_eq!(
            pool.stats().queries,
            before.queries,
            "pruned sessions' statistics must be preserved"
        );
        // A pruned guard rebuilds transparently with the same verdicts.
        assert!(pool.check(&a, &[], &ConfRel::trivial(g2), &cache));
        assert!(!pool.check(&a, &[], &ConfRel::forbidden(g2), &cache));
        assert_eq!(pool.prune_lru(0), 3, "prune to zero drops everything");
        assert!(pool.is_empty());
        assert_eq!(pool.stats().queries, before.queries + 2);
    }

    #[test]
    fn pool_routes_by_guard() {
        let a = aut();
        let g1 = guard(1, 1);
        let g2 = guard(2, 2);
        let cache = SharedBlastCache::new();
        let mut pool = SessionPool::new();
        // Tautological conclusion holds with no premises at both guards.
        assert!(pool.check(&a, &[], &ConfRel::trivial(g1), &cache));
        assert!(pool.check(&a, &[], &ConfRel::trivial(g2), &cache));
        // ⊥ conclusion does not.
        assert!(!pool.check(&a, &[], &ConfRel::forbidden(g1), &cache));
        let stats = pool.stats();
        assert_eq!(stats.queries, 3);
    }
}
