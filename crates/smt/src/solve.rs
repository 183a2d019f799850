//! Validity and satisfiability checking, including the CEGAR loop for the
//! `∃∀` fragment produced by Leapfrog's entailment queries.
//!
//! An entailment `⋀R ⊨ ψ` lowers to the validity of
//! `∀conf. (⋀ᵢ ∀x⃗ᵢ. ψᵢ) ⇒ ∀y⃗. ψ`, whose negation is an `∃∀` problem:
//! existential configuration variables with universally quantified packet
//! variables in positive positions. We solve it by *counterexample-guided
//! universal expansion*: each `∀`-block is approximated by a finite set of
//! instantiations; candidate models are verified against the true `∀` by a
//! small quantifier-free query, and genuine violations refine the
//! instantiation set. The bitvector domain is finite, so the loop
//! terminates. This plays the role Z3's model-based quantifier
//! instantiation plays in the paper's toolchain.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use leapfrog_bitvec::BitVec;
use std::collections::HashMap;

use crate::blast::{canonical_key, sat_qf_counting, BlastContext};
use crate::smtlib;
use crate::term::{BvVar, Declarations, Formula, Model, Term};
use leapfrog_sat::SolverStats;

/// Global metric handles for the solving core. Counters mirror the
/// per-query [`QueryStats`] fields but accumulate process-wide, so the
/// daemon can expose live totals without waiting for a run to finish.
mod meters {
    use leapfrog_obs::{LazyCounter, LazyHistogram};

    pub static SMT_QUERIES: LazyCounter = LazyCounter::new("leapfrog_smt_queries_total");
    pub static CEGAR_ROUNDS: LazyCounter = LazyCounter::new("leapfrog_cegar_rounds_total");
    pub static INST_LEDGER_HITS: LazyCounter = LazyCounter::new("leapfrog_inst_ledger_hits_total");
    pub static INST_LEDGER_EVICTIONS: LazyCounter =
        LazyCounter::new("leapfrog_inst_ledger_evictions_total");
    pub static SMT_QUERY_SECONDS: LazyHistogram = LazyHistogram::new("leapfrog_smt_query_seconds");
}

/// The outcome of a validity check.
#[derive(Debug, Clone)]
pub enum CheckResult {
    /// The formula holds in all models.
    Valid,
    /// A countermodel was found.
    Invalid(Model),
}

/// The outcome of a satisfiability check.
#[derive(Debug, Clone)]
pub enum SatOutcome {
    /// A model was found.
    Sat(Model),
    /// No model exists.
    Unsat,
}

/// Statistics about queries issued through an [`SmtSolver`].
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Total number of top-level queries.
    pub queries: u64,
    /// Total CEGAR refinement rounds across all queries.
    pub cegar_rounds: u64,
    /// `∀`-blocks a naive per-round sweep would have validated against a
    /// candidate model (Σ live blocks over all rounds).
    pub blocks_considered: u64,
    /// `∀`-blocks actually validated by a quantifier-free solve — the
    /// oracle skips blocks whose support valuation is unchanged since
    /// their last successful validation, so this is ≤ `blocks_considered`.
    pub blocks_validated: u64,
    /// Always 0: guard sessions live for one run and never rebuild their
    /// context. Kept because `perfbench` still reads it.
    pub session_rebuilds: u64,
    /// Peak live-clause count observed in any single solver context.
    pub live_clauses_peak: u64,
    /// Always 0: every conjunct is blasted directly, and no cross-query
    /// CNF cache exists. Kept because `perfbench` still reads it.
    pub blast_cache_hits: u64,
    /// Always 0, like [`QueryStats::blast_cache_hits`].
    pub blast_cache_misses: u64,
    /// `∀`-block validations answered by the cross-session instantiation
    /// ledger instead of a quantifier-free solve (sessions sharing a guard
    /// shape re-encounter the same (block, support valuation) pairs).
    pub inst_ledger_hits: u64,
    /// CDCL solver counters (decisions, propagations, conflicts, restarts,
    /// learnt/deleted clauses, learn-time LBD histogram) summed over every
    /// solver context that served these queries: entailment-session
    /// contexts, one-shot contexts and the quantifier-free validation
    /// solves of the CEGAR oracle.
    pub sat: SolverStats,
    /// Wall-clock time per query, in the order issued.
    pub durations: Vec<Duration>,
}

impl QueryStats {
    /// Total time across all queries.
    pub fn total_time(&self) -> Duration {
        self.durations.iter().sum()
    }

    /// Folds another solver's statistics into this one (used to merge
    /// worker-thread solvers into the main run statistics, in a
    /// deterministic order chosen by the caller).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.cegar_rounds += other.cegar_rounds;
        self.blocks_considered += other.blocks_considered;
        self.blocks_validated += other.blocks_validated;
        self.live_clauses_peak = self.live_clauses_peak.max(other.live_clauses_peak);
        self.inst_ledger_hits += other.inst_ledger_hits;
        self.sat.absorb(&other.sat);
        self.durations.extend(other.durations.iter().copied());
    }

    /// The maximum single-query time, or zero if no queries ran.
    pub fn max_time(&self) -> Duration {
        self.durations.iter().max().copied().unwrap_or_default()
    }

    /// The fraction of queries that completed within `limit`.
    /// Reproduces the paper's "99% of queries within 5 s" measurement.
    pub fn fraction_within(&self, limit: Duration) -> f64 {
        if self.durations.is_empty() {
            return 1.0;
        }
        let n = self.durations.iter().filter(|d| **d <= limit).count();
        n as f64 / self.durations.len() as f64
    }
}

/// A stateful SMT front-end: runs queries, keeps statistics, and
/// optionally dumps each query in SMT-LIB 2 format (mirroring the paper's
/// plugin) when the `LEAPFROG_DUMP_SMT` environment variable names a
/// directory.
#[derive(Debug, Default)]
pub struct SmtSolver {
    stats: QueryStats,
    dump_dir: Option<std::path::PathBuf>,
}

impl SmtSolver {
    /// Creates a solver, honouring `LEAPFROG_DUMP_SMT`.
    pub fn new() -> Self {
        SmtSolver {
            stats: QueryStats::default(),
            dump_dir: std::env::var_os("LEAPFROG_DUMP_SMT").map(std::path::PathBuf::from),
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Folds another solver's statistics into this one.
    pub fn absorb_stats(&mut self, other: &QueryStats) {
        self.stats.absorb(other);
    }

    /// Checks validity of `f` (all free variables universally quantified).
    pub fn check_valid(&mut self, decls: &Declarations, f: &Formula) -> CheckResult {
        let start = Instant::now();
        if let Some(dir) = self.dump_dir.clone() {
            let _ = std::fs::create_dir_all(&dir);
            let path = dir.join(format!("query_{:05}.smt2", self.stats.queries));
            let _ = std::fs::write(path, smtlib::validity_query(decls, f));
        }
        let (result, meters) = check_valid_counting(decls, f);
        self.stats.queries += 1;
        meters.fold_into(&mut self.stats);
        let elapsed = start.elapsed();
        self.stats.durations.push(elapsed);
        meters::SMT_QUERIES.inc();
        meters::SMT_QUERY_SECONDS.record(elapsed);
        result
    }
}

/// Per-query CEGAR counters threaded out of the solving core.
#[derive(Debug, Clone, Default)]
struct SolveMeters {
    rounds: u64,
    blocks_considered: u64,
    blocks_validated: u64,
    sat: SolverStats,
}

impl SolveMeters {
    fn fold_into(self, stats: &mut QueryStats) {
        stats.cegar_rounds += self.rounds;
        stats.blocks_considered += self.blocks_considered;
        stats.blocks_validated += self.blocks_validated;
        stats.sat.absorb(&self.sat);
    }
}

/// Checks validity of `f`, treating free variables as universally
/// quantified. Stateless convenience wrapper around [`SmtSolver`] logic.
pub fn check_valid(decls: &Declarations, f: &Formula) -> CheckResult {
    check_valid_counting(decls, f).0
}

fn check_valid_counting(decls: &Declarations, f: &Formula) -> (CheckResult, SolveMeters) {
    let (outcome, meters) = check_sat_counting(decls, &Formula::not(f.clone()));
    let result = match outcome {
        SatOutcome::Unsat => CheckResult::Valid,
        SatOutcome::Sat(m) => CheckResult::Invalid(m),
    };
    (result, meters)
}

/// Checks satisfiability of `f` (free variables existential). Supports the
/// `∃∀` fragment: after negation-normalization, `Forall` blocks must have
/// quantifier-free bodies.
pub fn check_sat(decls: &Declarations, f: &Formula) -> SatOutcome {
    check_sat_counting(decls, f).0
}

fn check_sat_counting(decls: &Declarations, f: &Formula) -> (SatOutcome, SolveMeters) {
    let mut decls = decls.clone();
    let nf = nnf(&mut decls, f, true);

    // Split the top-level conjunction into quantifier-free parts and
    // universally quantified blocks.
    let mut qf = Vec::new();
    let mut foralls: Vec<(Vec<BvVar>, Formula)> = Vec::new();
    split_conjuncts(&nf, &mut qf, &mut foralls);

    let mut ctx = BlastContext::new();
    let mut meters = SolveMeters::default();
    let mut ok = true;
    for q in &qf {
        ok &= ctx.assert_formula(&decls, q);
    }
    // Seed each forall with the all-zeros instantiation and hand the block
    // to the refinement oracle.
    let mut oracle = RefinementOracle::default();
    for (xs, body) in foralls {
        let seed: Vec<BitVec> = xs.iter().map(|x| BitVec::zeros(decls.width(*x))).collect();
        ok &= ctx.assert_formula(&decls, &instantiate_forall(&body, &xs, &seed));
        oracle.add_block(xs, body);
    }
    if !ok {
        meters.sat.absorb(&ctx.solver().stats());
        return (SatOutcome::Unsat, meters);
    }

    loop {
        let _round_span = leapfrog_obs::trace::span(leapfrog_obs::Phase::CegarRound);
        match ctx.solve(&decls) {
            None => {
                meters.sat.absorb(&ctx.solver().stats());
                return (SatOutcome::Unsat, meters);
            }
            Some(model) => {
                meters.rounds += 1;
                meters::CEGAR_ROUNDS.inc();
                meters.blocks_considered += oracle.len() as u64;
                let round = oracle.validate(&decls, &model);
                meters.blocks_validated += round.validated;
                meters.sat.absorb(&round.sat);
                match round.refinement {
                    None => {
                        meters.sat.absorb(&ctx.solver().stats());
                        return (SatOutcome::Sat(model), meters);
                    }
                    Some(batch) => {
                        if !ctx.assert_formula(&decls, &batch) {
                            meters.sat.absorb(&ctx.solver().stats());
                            return (SatOutcome::Unsat, meters);
                        }
                    }
                }
            }
        }
    }
}

/// One `∀x⃗.ψ` block registered with a [`RefinementOracle`], together with
/// its *support*: the free variables the body constrains beyond the bound
/// ones. A candidate model can only change the block's verdict by changing
/// the values of its support.
struct OracleBlock {
    xs: Vec<BvVar>,
    body: Formula,
    /// The support variables, in ascending order.
    support: Vec<BvVar>,
    /// The support valuation under which this block was last *fully*
    /// validated (`violates_forall` returned no witness). Validation of a
    /// pure function of the support valuation never needs repeating, so a
    /// model matching it is skipped outright.
    last_validated: Option<Vec<BitVec>>,
    /// The block's rename-insensitive identity for the cross-session
    /// instantiation ledger, built lazily on first ledger use.
    canon: Option<BlockCanon>,
}

/// A `∀`-block's canonical identity: the body's structural key (from
/// [`canonical_key`], so it is insensitive to variable numbering),
/// annotated with which canonical variable positions are bound, plus the
/// position maps needed to translate valuations and witnesses between this
/// block's [`BvVar`] numbering and the canonical order.
struct BlockCanon {
    /// Structural body key + bound-position markers — two blocks share it
    /// iff they are the same block up to a width-preserving renaming.
    key: String,
    /// Canonical positions (into the body's first-occurrence variable
    /// list) that are support variables, paired with the session-local
    /// variable at that position.
    support_slots: Vec<BvVar>,
    /// For each bound variable in `xs` order: its index into the canonical
    /// bound-variable list, or `None` when it does not occur in the body
    /// (its witness value is always all-zeros).
    xs_to_bound: Vec<Option<usize>>,
}

impl BlockCanon {
    fn build(decls: &Declarations, xs: &[BvVar], body: &Formula) -> BlockCanon {
        let mut vars = Vec::new();
        let mut key = canonical_key(decls, body, &mut vars);
        let mut support_slots = Vec::new();
        let mut bound_order = Vec::new();
        key.push_str("|B");
        for (i, v) in vars.iter().enumerate() {
            if xs.contains(v) {
                key.push_str(&i.to_string());
                key.push(',');
                bound_order.push(*v);
            } else {
                support_slots.push(*v);
            }
        }
        let xs_to_bound = xs
            .iter()
            .map(|x| bound_order.iter().position(|b| b == x))
            .collect();
        BlockCanon {
            key,
            support_slots,
            xs_to_bound,
        }
    }
}

/// A ledger key: canonical block identity plus the support valuation in
/// canonical variable order.
type LedgerKey = (String, Vec<BitVec>);
/// A recorded verdict: `None` = the block validated clean, `Some(w)` =
/// violated with witness values `w` for the bound variables in canonical
/// order.
type LedgerVerdict = Option<Vec<BitVec>>;

#[derive(Debug, Default)]
struct LedgerInner {
    /// Verdict plus the recency tick of the entry's last touch.
    map: HashMap<LedgerKey, (LedgerVerdict, u64)>,
    /// Recency index: tick → key, kept in lockstep with `map` so the
    /// least-recently-used entry is always the first tick.
    recency: std::collections::BTreeMap<u64, LedgerKey>,
    tick: u64,
    /// Maximum entries retained (`0` = unbounded).
    capacity: usize,
    evictions: u64,
}

impl LedgerInner {
    fn touch(&mut self, key: &LedgerKey) -> Option<LedgerVerdict> {
        // Unbounded ledgers (the default) skip the recency bookkeeping:
        // it is never consulted, and hits are the hot path of warm runs.
        if self.capacity == 0 {
            return self.map.get(key).map(|(v, _)| v.clone());
        }
        let (verdict, old_tick) = self.map.get(key)?.clone();
        self.recency.remove(&old_tick);
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        self.map.get_mut(key).unwrap().1 = self.tick;
        Some(verdict)
    }

    fn insert(&mut self, key: LedgerKey, verdict: LedgerVerdict) {
        if self.capacity == 0 {
            self.map.insert(key, (verdict, 0));
            return;
        }
        if let Some((_, old_tick)) = self.map.get(&key) {
            self.recency.remove(&old_tick.clone());
        }
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        self.map.insert(key, (verdict, self.tick));
        while self.map.len() > self.capacity {
            let (_, victim) = self.recency.pop_first().expect("recency tracks map");
            self.map.remove(&victim);
            self.evictions += 1;
            meters::INST_LEDGER_EVICTIONS.inc();
        }
    }
}

/// A cross-session memo of `∀`-block validations, keyed by the block's
/// canonical (rename-insensitive) identity and the support valuation in
/// canonical variable order. Validation is a pure function of that pair,
/// and blocks lowered by different sessions sharing a guard shape are
/// structurally identical, so a verdict computed in one session — clean,
/// or violated with concrete witness values for the bound variables —
/// transfers exactly to every other. The engine owns one ledger for its
/// whole lifetime and threads it through every guard session. Verdicts
/// are deterministic replays of what a fresh solve would produce, so the
/// ledger changes wall-clock only, never results.
#[derive(Debug, Clone, Default)]
pub struct InstLedger {
    inner: Arc<Mutex<LedgerInner>>,
}

impl InstLedger {
    /// An empty, unbounded ledger.
    pub fn new() -> InstLedger {
        InstLedger::default()
    }

    /// An empty ledger that retains at most `capacity` verdicts, evicting
    /// the least-recently-used entry beyond that (`0` = unbounded). A
    /// verdict is a deterministic replay of what a fresh solve would
    /// produce, so eviction changes wall-clock only, never results.
    pub fn with_capacity(capacity: usize) -> InstLedger {
        let ledger = InstLedger::new();
        ledger.inner.lock().unwrap().capacity = capacity;
        ledger
    }

    /// Number of recorded (block, valuation) verdicts.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether no verdicts have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the LRU capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    fn get(&self, key: &LedgerKey) -> Option<LedgerVerdict> {
        self.inner.lock().unwrap().touch(key)
    }

    fn put(&self, key: LedgerKey, verdict: LedgerVerdict) {
        self.inner.lock().unwrap().insert(key, verdict);
    }

    /// Serializes every recorded verdict to a line-based text format
    /// (`e <key> <valuation> <verdict>`), sorted for determinism. Bit
    /// values are written as `b<bits>` tokens so empty vectors survive.
    pub fn export_text(&self) -> String {
        fn bits(vals: &[BitVec]) -> String {
            if vals.is_empty() {
                return "-".to_string();
            }
            vals.iter()
                .map(|v| format!("b{v}"))
                .collect::<Vec<_>>()
                .join(",")
        }
        let inner = self.inner.lock().unwrap();
        let mut lines: Vec<String> = inner
            .map
            .iter()
            .map(|((key, valuation), (verdict, _))| {
                let verdict = match verdict {
                    None => "clean".to_string(),
                    Some(w) => format!("viol:{}", bits(w)),
                };
                format!("e {key} {} {verdict}", bits(valuation))
            })
            .collect();
        lines.sort();
        let mut out = String::from("# leapfrog-inst-ledger v1\n");
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Loads verdicts from [`InstLedger::export_text`] output, merging
    /// into the current contents. Returns the number of entries read.
    pub fn import_text(&self, text: &str) -> Result<usize, String> {
        fn parse_bits(tok: &str, line_no: usize) -> Result<Vec<BitVec>, String> {
            if tok == "-" {
                return Ok(Vec::new());
            }
            tok.split(',')
                .map(|t| {
                    t.strip_prefix('b')
                        .ok_or_else(|| format!("line {line_no}: bit token missing 'b' prefix"))?
                        .parse()
                        .map_err(|e| format!("line {line_no}: bad bits: {e}"))
                })
                .collect()
        }
        let mut read = 0;
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rest = line
                .strip_prefix("e ")
                .ok_or_else(|| format!("line {line_no}: unrecognized ledger line"))?;
            let mut parts = rest.rsplitn(3, ' ');
            let verdict_tok = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: missing verdict"))?;
            let valuation_tok = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: missing valuation"))?;
            let key = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: missing key"))?
                .to_string();
            let valuation = parse_bits(valuation_tok, line_no)?;
            let verdict = match verdict_tok {
                "clean" => None,
                v => Some(parse_bits(
                    v.strip_prefix("viol:")
                        .ok_or_else(|| format!("line {line_no}: unknown verdict {v:?}"))?,
                    line_no,
                )?),
            };
            self.put((key, valuation), verdict);
            read += 1;
        }
        Ok(read)
    }
}

/// What one [`RefinementOracle::validate`] round observed.
#[derive(Debug, Clone, Default)]
pub struct OracleRound {
    /// The batched conjunction of every violated block's refuting
    /// instantiation, `None` when the model survives all blocks. Callers
    /// assert it in *one* round-trip instead of once per violated block.
    pub refinement: Option<Formula>,
    /// Blocks validated by an actual quantifier-free solve this round.
    pub validated: u64,
    /// Blocks skipped because their support valuation was unchanged since
    /// their last successful validation.
    pub skipped: u64,
    /// Blocks whose verdict (clean, or violated with a recorded witness)
    /// was replayed from the cross-session [`InstLedger`] without a solve.
    pub ledger_hits: u64,
    /// CDCL counters of the quantifier-free validation solves this round
    /// (each validation runs in its own short-lived solver context).
    pub sat: SolverStats,
}

/// The variable-indexed CEGAR model validator.
///
/// Per-round model validation (`violates_forall`, one quantifier-free SAT
/// query per `∀`-block per candidate model) dominates solver time on large
/// entailments. The oracle cuts that cost two ways:
///
/// * **Variable indexing** — each block records its support (the free
///   variables its body constrains). Validation is a pure function of the
///   support valuation, so a block whose support is unchanged since its
///   last successful validation is skipped without a solve. Incremental
///   guard sessions keep one oracle alive across queries, so a premise
///   validated once under a recurring store/buffer valuation is never
///   re-validated.
/// * **Batched refinement** — all violated blocks of a round contribute
///   their instantiation to a single conjunction asserted in one
///   round-trip, instead of one assert per block.
///
/// Verdicts are exact: a model is reported clean only after every block
/// either solved clean or matched a previously-clean support valuation.
#[derive(Default)]
pub struct RefinementOracle {
    blocks: Vec<OracleBlock>,
}

impl RefinementOracle {
    /// An oracle with no blocks.
    pub fn new() -> RefinementOracle {
        RefinementOracle::default()
    }

    /// Registers a `∀xs. body` block. The caller is responsible for
    /// asserting a seed instantiation into its own context.
    pub fn add_block(&mut self, xs: Vec<BvVar>, body: Formula) {
        let support: Vec<BvVar> = body
            .free_vars()
            .into_iter()
            .filter(|v| !xs.contains(v))
            .collect();
        self.blocks.push(OracleBlock {
            xs,
            body,
            support,
            last_validated: None,
            canon: None,
        });
    }

    /// Number of registered blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no blocks are registered.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Validates a candidate model against every block, skipping blocks
    /// whose support valuation matches their last successful validation,
    /// and batching all violated blocks' instantiations into one formula.
    pub fn validate(&mut self, decls: &Declarations, model: &Model) -> OracleRound {
        self.validate_with(decls, model, None)
    }

    /// [`RefinementOracle::validate`] with an optional cross-session
    /// [`InstLedger`]: a block whose canonical (identity, support
    /// valuation) pair is already recorded replays the recorded verdict —
    /// clean, or violated with the recorded witness values — instead of
    /// solving; a freshly solved block records its verdict for every other
    /// session. Verdicts and witnesses are identical either way (the solve
    /// is a deterministic function of the canonical pair), so the ledger
    /// affects wall-clock only.
    pub fn validate_with(
        &mut self,
        decls: &Declarations,
        model: &Model,
        ledger: Option<&InstLedger>,
    ) -> OracleRound {
        let mut round = OracleRound::default();
        let mut insts = Vec::new();
        for block in &mut self.blocks {
            let valuation: Vec<BitVec> = block
                .support
                .iter()
                .map(|v| {
                    model
                        .get(*v)
                        .cloned()
                        .unwrap_or_else(|| BitVec::zeros(decls.width(*v)))
                })
                .collect();
            if block.last_validated.as_ref() == Some(&valuation) {
                round.skipped += 1;
                continue;
            }
            let lkey = ledger.map(|_| {
                let canon = block
                    .canon
                    .get_or_insert_with(|| BlockCanon::build(decls, &block.xs, &block.body));
                let canon_valuation: Vec<BitVec> = canon
                    .support_slots
                    .iter()
                    .map(|v| {
                        model
                            .get(*v)
                            .cloned()
                            .unwrap_or_else(|| BitVec::zeros(decls.width(*v)))
                    })
                    .collect();
                (canon.key.clone(), canon_valuation)
            });
            if let (Some(ledger), Some(lkey)) = (ledger, &lkey) {
                if let Some(verdict) = ledger.get(lkey) {
                    round.ledger_hits += 1;
                    meters::INST_LEDGER_HITS.inc();
                    match verdict {
                        Some(canon_witness) => {
                            let canon = block.canon.as_ref().unwrap();
                            let witness: Vec<BitVec> = block
                                .xs
                                .iter()
                                .zip(&canon.xs_to_bound)
                                .map(|(x, slot)| match slot {
                                    Some(i) => canon_witness[*i].clone(),
                                    None => BitVec::zeros(decls.width(*x)),
                                })
                                .collect();
                            insts.push(instantiate_forall(&block.body, &block.xs, &witness));
                            block.last_validated = None;
                        }
                        None => block.last_validated = Some(valuation),
                    }
                    continue;
                }
            }
            round.validated += 1;
            let map: HashMap<BvVar, Term> = block
                .support
                .iter()
                .zip(&valuation)
                .map(|(v, val)| (*v, Term::lit(val.clone())))
                .collect();
            match refute_closed(decls, &block.xs, &block.body, &map, &mut round.sat) {
                Some(witness) => {
                    if let (Some(ledger), Some(lkey)) = (ledger, lkey) {
                        let canon = block.canon.as_ref().unwrap();
                        let n_bound = canon.xs_to_bound.iter().flatten().count();
                        let mut canon_witness = vec![BitVec::zeros(0); n_bound];
                        for (w, slot) in witness.iter().zip(&canon.xs_to_bound) {
                            if let Some(i) = slot {
                                canon_witness[*i] = w.clone();
                            }
                        }
                        ledger.put(lkey, Some(canon_witness));
                    }
                    insts.push(instantiate_forall(&block.body, &block.xs, &witness));
                    block.last_validated = None;
                }
                None => {
                    if let (Some(ledger), Some(lkey)) = (ledger, lkey) {
                        ledger.put(lkey, None);
                    }
                    block.last_validated = Some(valuation);
                }
            }
        }
        round.refinement = if insts.is_empty() {
            None
        } else {
            Some(Formula::and_all(insts))
        };
        round
    }
}

/// If `model` violates `∀xs. body`, returns witness values for `xs`. The
/// stateless building block of [`RefinementOracle::validate`] (which adds
/// support indexing and caching on top of the same core), kept public for
/// one-off checks.
pub fn violates_forall(
    decls: &Declarations,
    model: &Model,
    xs: &[BvVar],
    body: &Formula,
) -> Option<Vec<BitVec>> {
    // Substitute every free variable except the bound ones by its model
    // value, then look for xs making the body false.
    let mut map = HashMap::new();
    for v in body.free_vars() {
        if !xs.contains(&v) {
            let value = model
                .get(v)
                .cloned()
                .unwrap_or_else(|| BitVec::zeros(decls.width(v)));
            map.insert(v, Term::lit(value));
        }
    }
    refute_closed(decls, xs, body, &map, &mut SolverStats::default())
}

/// Closes `body`'s support variables with `map` and searches for values
/// of `xs` falsifying the closed body — the shared core of
/// [`violates_forall`] and [`RefinementOracle::validate`].
fn refute_closed(
    decls: &Declarations,
    xs: &[BvVar],
    body: &Formula,
    map: &HashMap<BvVar, Term>,
    sat: &mut SolverStats,
) -> Option<Vec<BitVec>> {
    let closed = Formula::not(body.subst(map));
    let (m, solve_stats) = sat_qf_counting(decls, &closed);
    sat.absorb(&solve_stats);
    let m = m?;
    Some(
        xs.iter()
            .map(|x| {
                m.get(*x)
                    .cloned()
                    .unwrap_or_else(|| BitVec::zeros(decls.width(*x)))
            })
            .collect(),
    )
}

/// Substitutes concrete values for the bound variables of a forall body.
pub fn instantiate_forall(body: &Formula, xs: &[BvVar], values: &[BitVec]) -> Formula {
    let map: HashMap<BvVar, Term> = xs
        .iter()
        .zip(values)
        .map(|(x, v)| (*x, Term::lit(v.clone())))
        .collect();
    body.subst(&map)
}

/// Flattens top-level conjunction into QF conjuncts and forall blocks.
///
/// # Panics
///
/// Panics if a quantifier occurs in an unsupported position (not a
/// top-level conjunct, or with a quantified body). Leapfrog's lowering
/// never produces such formulas.
fn split_conjuncts(f: &Formula, qf: &mut Vec<Formula>, foralls: &mut Vec<(Vec<BvVar>, Formula)>) {
    match f {
        Formula::And(a, b) => {
            split_conjuncts(a, qf, foralls);
            split_conjuncts(b, qf, foralls);
        }
        Formula::Forall(xs, body) => {
            assert!(
                body.is_quantifier_free(),
                "nested quantifiers are outside the supported fragment"
            );
            foralls.push((xs.clone(), (**body).clone()));
        }
        other => {
            assert!(
                other.is_quantifier_free(),
                "quantifier in unsupported position: {other:?}"
            );
            qf.push(other.clone());
        }
    }
}

/// Negation normal form with polarity tracking. Positive `Forall`s are
/// kept; negative ones are skolemized by replacing their bound variables
/// with fresh free variables (sound because no `∀` encloses them in our
/// fragment).
fn nnf(decls: &mut Declarations, f: &Formula, positive: bool) -> Formula {
    match f {
        Formula::Const(b) => Formula::Const(*b == positive),
        Formula::Eq(_, _) => {
            if positive {
                f.clone()
            } else {
                Formula::Not(std::sync::Arc::new(f.clone()))
            }
        }
        Formula::Not(g) => nnf(decls, g, !positive),
        Formula::And(a, b) => {
            let (na, nb) = (nnf(decls, a, positive), nnf(decls, b, positive));
            if positive {
                Formula::and(na, nb)
            } else {
                Formula::or(na, nb)
            }
        }
        Formula::Or(a, b) => {
            let (na, nb) = (nnf(decls, a, positive), nnf(decls, b, positive));
            if positive {
                Formula::or(na, nb)
            } else {
                Formula::and(na, nb)
            }
        }
        Formula::Implies(a, b) => {
            if positive {
                Formula::or(nnf(decls, a, false), nnf(decls, b, true))
            } else {
                Formula::and(nnf(decls, a, true), nnf(decls, b, false))
            }
        }
        Formula::Forall(xs, body) => {
            if positive {
                Formula::forall(xs.clone(), nnf(decls, body, true))
            } else {
                // ¬∀x.body ≡ ∃x.¬body; skolemize with fresh free variables.
                let mut map = HashMap::new();
                for x in xs {
                    let w = decls.width(*x);
                    let name = format!("{}!sk{}", decls.name(*x), decls.len());
                    let fresh = decls.declare(name, w);
                    map.insert(*x, Term::var(fresh));
                }
                nnf(decls, &body.subst(&map), false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    #[test]
    fn qf_validity() {
        let mut d = Declarations::new();
        let x = d.declare("x", 4);
        // x = x is valid.
        let f = Formula::Eq(Term::var(x), Term::var(x));
        assert!(matches!(check_valid(&d, &f), CheckResult::Valid));
        // x = 0 is invalid, countermodel has x != 0.
        let g = Formula::Eq(Term::var(x), Term::lit(bv("0000")));
        match check_valid(&d, &g) {
            CheckResult::Invalid(m) => assert_ne!(m.get(x), Some(&bv("0000"))),
            CheckResult::Valid => panic!("x = 0 should not be valid"),
        }
    }

    #[test]
    fn slices_cover_concat_validity() {
        let mut d = Declarations::new();
        let x = d.declare("x", 8);
        // (x[0:4) ++ x[4:4)) = x is valid.
        let f = Formula::Eq(
            Term::concat(
                Term::slice(Term::var(x), 0, 4),
                Term::slice(Term::var(x), 4, 4),
            ),
            Term::var(x),
        );
        assert!(matches!(check_valid(&d, &f), CheckResult::Valid));
    }

    #[test]
    fn forall_premise_entailment_valid() {
        // (∀x. a = x ++ x[0:0)) … simpler: (∀x. a[0:1) = x[0:1) ⇒ …) is
        // awkward; use: (∀x. x = a) ⇒ a = b is NOT generally checkable…
        // Test the canonical shape instead:
        // (∀x. a ++ x = b ++ x)  ⇒  a = b        — valid.
        let mut d = Declarations::new();
        let a = d.declare("a", 3);
        let b = d.declare("b", 3);
        let x = d.declare("x", 2);
        let premise = Formula::forall(
            vec![x],
            Formula::Eq(
                Term::concat(Term::var(a), Term::var(x)),
                Term::concat(Term::var(b), Term::var(x)),
            ),
        );
        let f = Formula::implies(premise, Formula::Eq(Term::var(a), Term::var(b)));
        assert!(matches!(check_valid(&d, &f), CheckResult::Valid));
    }

    #[test]
    fn forall_premise_entailment_invalid() {
        // (∀x. x = x) ⇒ a = b  — invalid (premise trivial).
        let mut d = Declarations::new();
        let a = d.declare("a", 3);
        let b = d.declare("b", 3);
        let x = d.declare("x", 2);
        let premise = Formula::forall(vec![x], Formula::Eq(Term::var(x), Term::var(x)));
        let f = Formula::implies(premise, Formula::Eq(Term::var(a), Term::var(b)));
        match check_valid(&d, &f) {
            CheckResult::Invalid(m) => {
                assert_ne!(m.get(a), m.get(b));
            }
            CheckResult::Valid => panic!("should be invalid"),
        }
    }

    #[test]
    fn forall_conclusion_validity() {
        // a = 11 ⇒ ∀x. (a ++ x)[0:2) = 11   — valid.
        let mut d = Declarations::new();
        let a = d.declare("a", 2);
        let x = d.declare("x", 3);
        let f = Formula::implies(
            Formula::Eq(Term::var(a), Term::lit(bv("11"))),
            Formula::forall(
                vec![x],
                Formula::eq(
                    Term::slice(Term::concat(Term::var(a), Term::var(x)), 0, 2),
                    Term::lit(bv("11")),
                ),
            ),
        );
        assert!(matches!(check_valid(&d, &f), CheckResult::Valid));
    }

    #[test]
    fn forall_conclusion_invalid_needs_skolem() {
        // ∀x. x = 00 is invalid; negation must skolemize.
        let mut d = Declarations::new();
        let x = d.declare("x", 2);
        let f = Formula::forall(vec![x], Formula::Eq(Term::var(x), Term::lit(bv("00"))));
        assert!(matches!(check_valid(&d, &f), CheckResult::Invalid(_)));
    }

    #[test]
    fn unsat_premise_makes_entailment_valid() {
        // (∀x. x = 10) ⇒ anything  — the premise is unsatisfiable (x is
        // universally quantified), so the implication is valid.
        let mut d = Declarations::new();
        let a = d.declare("a", 3);
        let b = d.declare("b", 3);
        let x = d.declare("x", 2);
        let premise = Formula::forall(vec![x], Formula::Eq(Term::var(x), Term::lit(bv("10"))));
        let f = Formula::implies(premise, Formula::Eq(Term::var(a), Term::var(b)));
        assert!(matches!(check_valid(&d, &f), CheckResult::Valid));
    }

    #[test]
    fn multiple_forall_premises() {
        // (∀x. a ++ x = b ++ x) ∧ (∀y. b ++ y = c ++ y) ⇒ a = c — valid.
        let mut d = Declarations::new();
        let a = d.declare("a", 2);
        let b = d.declare("b", 2);
        let c = d.declare("c", 2);
        let x = d.declare("x", 1);
        let y = d.declare("y", 1);
        let p1 = Formula::forall(
            vec![x],
            Formula::Eq(
                Term::concat(Term::var(a), Term::var(x)),
                Term::concat(Term::var(b), Term::var(x)),
            ),
        );
        let p2 = Formula::forall(
            vec![y],
            Formula::Eq(
                Term::concat(Term::var(b), Term::var(y)),
                Term::concat(Term::var(c), Term::var(y)),
            ),
        );
        let f = Formula::implies(
            Formula::and(p1, p2),
            Formula::Eq(Term::var(a), Term::var(c)),
        );
        assert!(matches!(check_valid(&d, &f), CheckResult::Valid));
    }

    #[test]
    fn differential_small_widths_against_enumeration() {
        // Random ∃∀ formulas over tiny widths: compare the CEGAR solver
        // against brute-force enumeration through `Formula::eval`.
        let mut state = 0xabcdefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..30 {
            let mut d = Declarations::new();
            let a = d.declare("a", 2);
            let x = d.declare("x", 2);
            let rand_term = |next: &mut dyn FnMut() -> u32, v: BvVar| -> Term {
                match next() % 3 {
                    0 => Term::var(v),
                    1 => Term::lit(BitVec::from_u64(next() as u64 & 3, 2)),
                    _ => Term::concat(
                        Term::slice(Term::var(v), 1, 1),
                        Term::slice(Term::var(v), 0, 1),
                    ),
                }
            };
            let body = Formula::or(
                Formula::eq(rand_term(&mut next, a), rand_term(&mut next, x)),
                Formula::not(Formula::eq(
                    rand_term(&mut next, x),
                    rand_term(&mut next, x),
                )),
            );
            let f = Formula::implies(
                Formula::forall(vec![x], body.clone()),
                Formula::eq(
                    rand_term(&mut next, a),
                    Term::lit(BitVec::from_u64(next() as u64 & 3, 2)),
                ),
            );
            // Brute-force validity: enumerate a.
            let mut brute_valid = true;
            for av in 0..4u64 {
                let mut m = Model::new();
                m.set(a, BitVec::from_u64(av, 2));
                m.set(x, BitVec::zeros(2));
                if !f.eval(&d, &m) {
                    brute_valid = false;
                    break;
                }
            }
            let got = matches!(check_valid(&d, &f), CheckResult::Valid);
            assert_eq!(got, brute_valid, "round {round}: disagreement on {f:?}");
        }
    }

    #[test]
    fn oracle_skips_blocks_with_unchanged_support() {
        // ∀x. a ++ x = a ++ x constrains only `a`; once validated under a
        // valuation of `a`, the same valuation must be skipped, and a new
        // valuation must be re-validated.
        let mut d = Declarations::new();
        let a = d.declare("a", 2);
        let x = d.declare("x", 2);
        let body = Formula::Eq(
            Term::concat(Term::var(a), Term::var(x)),
            Term::concat(Term::var(a), Term::var(x)),
        );
        let mut oracle = RefinementOracle::default();
        oracle.add_block(vec![x], body);
        assert_eq!(oracle.len(), 1);
        let mut m = Model::new();
        m.set(a, bv("01"));
        let r1 = oracle.validate(&d, &m);
        assert!(r1.refinement.is_none());
        assert_eq!((r1.validated, r1.skipped), (1, 0));
        let r2 = oracle.validate(&d, &m);
        assert!(r2.refinement.is_none());
        assert_eq!((r2.validated, r2.skipped), (0, 1), "unchanged support");
        m.set(a, bv("10"));
        let r3 = oracle.validate(&d, &m);
        assert_eq!((r3.validated, r3.skipped), (1, 0), "changed support");
    }

    #[test]
    fn oracle_batches_violations_and_revalidates_violated_blocks() {
        // Two violated blocks in one round must yield a single batched
        // refinement; a violated block is re-validated even when its
        // support is unchanged (one witness does not exhaust violations).
        let mut d = Declarations::new();
        let a = d.declare("a", 2);
        let b = d.declare("b", 2);
        let x = d.declare("x", 2);
        let y = d.declare("y", 2);
        let mut oracle = RefinementOracle::default();
        // ∀x. x = a  and  ∀y. y = b: violated for every valuation.
        oracle.add_block(vec![x], Formula::Eq(Term::var(x), Term::var(a)));
        oracle.add_block(vec![y], Formula::Eq(Term::var(y), Term::var(b)));
        let mut m = Model::new();
        m.set(a, bv("00"));
        m.set(b, bv("11"));
        let r1 = oracle.validate(&d, &m);
        let batch = r1.refinement.expect("both blocks are violated");
        assert_eq!(r1.validated, 2);
        assert!(matches!(batch, Formula::And(_, _)), "{batch:?}");
        // Same model again: violated blocks must not be memoized as clean.
        let r2 = oracle.validate(&d, &m);
        assert!(r2.refinement.is_some());
        assert_eq!((r2.validated, r2.skipped), (2, 0));
    }

    #[test]
    fn inst_ledger_replays_verdicts_across_renamed_oracles() {
        // Two oracles over alpha-renamed copies of the same blocks (the
        // cross-session scenario): the second oracle's validations must
        // replay from the shared ledger — same refinements, no solves —
        // and agree with a ledger-free oracle.
        let ledger = InstLedger::new();
        let build = |names: [&str; 3]| {
            let mut d = Declarations::new();
            let a = d.declare(names[0], 2);
            let b = d.declare(names[1], 2);
            let x = d.declare(names[2], 2);
            let mut oracle = RefinementOracle::default();
            // Clean block: ∀x. a ++ x = a ++ x. Violated block: ∀x. x = b.
            oracle.add_block(
                vec![x],
                Formula::Eq(
                    Term::concat(Term::var(a), Term::var(x)),
                    Term::concat(Term::var(a), Term::var(x)),
                ),
            );
            oracle.add_block(vec![x], Formula::Eq(Term::var(x), Term::var(b)));
            let mut m = Model::new();
            m.set(a, bv("01"));
            m.set(b, bv("10"));
            (d, oracle, m)
        };
        let (d1, mut o1, m1) = build(["a", "b", "x"]);
        let r1 = o1.validate_with(&d1, &m1, Some(&ledger));
        assert_eq!(r1.ledger_hits, 0, "first oracle must solve: {r1:?}");
        assert_eq!(r1.validated, 2);
        let refinement1 = format!("{:?}", r1.refinement.expect("one violated block"));

        let (d2, mut o2, m2) = build(["p", "q", "y"]);
        let r2 = o2.validate_with(&d2, &m2, Some(&ledger));
        assert_eq!(
            r2.ledger_hits, 2,
            "renamed blocks must replay from the ledger: {r2:?}"
        );
        assert_eq!(r2.validated, 0);
        let refinement2 = format!("{:?}", r2.refinement.expect("same violated block"));
        // The replayed refutation instantiates the renamed body with the
        // *same* witness values the fresh solve found.
        let (d3, mut o3, m3) = build(["p", "q", "y"]);
        let r3 = o3.validate_with(&d3, &m3, None);
        assert_eq!(
            refinement2,
            format!("{:?}", r3.refinement.expect("fresh solve agrees")),
        );
        assert_ne!(refinement1, String::new());
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn inst_ledger_export_import_round_trips() {
        // Record verdicts through a real oracle, round-trip the ledger
        // through text, and replay the renamed oracle from the import.
        let ledger = InstLedger::new();
        let mut d = Declarations::new();
        let a = d.declare("a", 2);
        let b = d.declare("b", 2);
        let x = d.declare("x", 2);
        let mut oracle = RefinementOracle::default();
        oracle.add_block(
            vec![x],
            Formula::Eq(
                Term::concat(Term::var(a), Term::var(x)),
                Term::concat(Term::var(b), Term::var(x)),
            ),
        );
        oracle.add_block(vec![x], Formula::Eq(Term::var(x), Term::var(b)));
        let mut m = Model::new();
        m.set(a, bv("01"));
        m.set(b, bv("01"));
        let r = oracle.validate_with(&d, &m, Some(&ledger));
        assert_eq!(r.validated, 2);
        let text = ledger.export_text();

        let reloaded = InstLedger::new();
        assert_eq!(reloaded.import_text(&text), Ok(ledger.len()));
        assert_eq!(reloaded.export_text(), text, "round trip is stable");
        let mut oracle2 = RefinementOracle::default();
        oracle2.add_block(
            vec![x],
            Formula::Eq(
                Term::concat(Term::var(a), Term::var(x)),
                Term::concat(Term::var(b), Term::var(x)),
            ),
        );
        oracle2.add_block(vec![x], Formula::Eq(Term::var(x), Term::var(b)));
        let r2 = oracle2.validate_with(&d, &m, Some(&reloaded));
        assert_eq!(r2.validated, 0, "imported verdicts must replay: {r2:?}");
        assert_eq!(r2.ledger_hits, 2);
        assert_eq!(
            format!("{:?}", r.refinement),
            format!("{:?}", r2.refinement),
            "replayed refinements must match the fresh solve"
        );
    }

    #[test]
    fn inst_ledger_capacity_evicts_lru() {
        let ledger = InstLedger::with_capacity(2);
        let key = |i: usize| (format!("k{i}"), vec![bv("01")]);
        ledger.put(key(0), None);
        ledger.put(key(1), Some(vec![bv("10")]));
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.evictions(), 0);
        // Touch k0 so k1 becomes the LRU victim.
        assert!(ledger.get(&key(0)).is_some());
        ledger.put(key(2), None);
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.evictions(), 1);
        assert!(ledger.get(&key(1)).is_none(), "k1 was evicted");
        assert!(ledger.get(&key(0)).is_some());
        assert!(ledger.get(&key(2)).is_some());
        // Unbounded ledgers never evict.
        let unbounded = InstLedger::new();
        for i in 0..64 {
            unbounded.put(key(i), None);
        }
        assert_eq!(unbounded.len(), 64);
        assert_eq!(unbounded.evictions(), 0);
    }

    #[test]
    fn validation_counters_reported_through_solver_stats() {
        // (∀x. x = x) ⇒ a = b is invalid: the CEGAR loop finds a model
        // and must validate the (trivially true) block against it.
        let mut d = Declarations::new();
        let a = d.declare("a", 3);
        let b = d.declare("b", 3);
        let x = d.declare("x", 2);
        let premise = Formula::forall(vec![x], Formula::Eq(Term::var(x), Term::var(x)));
        let f = Formula::implies(premise, Formula::Eq(Term::var(a), Term::var(b)));
        let mut s = SmtSolver::new();
        assert!(matches!(s.check_valid(&d, &f), CheckResult::Invalid(_)));
        let stats = s.stats();
        assert!(stats.cegar_rounds > 0, "{stats:?}");
        assert!(stats.blocks_validated > 0, "{stats:?}");
        assert!(
            stats.blocks_validated <= stats.blocks_considered,
            "{stats:?}"
        );
    }

    #[test]
    fn solver_stats_accumulate() {
        let mut d = Declarations::new();
        let x = d.declare("x", 4);
        let mut s = SmtSolver::default();
        s.check_valid(&d, &Formula::Eq(Term::var(x), Term::var(x)));
        s.check_valid(&d, &Formula::Eq(Term::var(x), Term::lit(bv("0000"))));
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().durations.len(), 2);
        assert!(s.stats().fraction_within(Duration::from_secs(5)) > 0.99);
    }
}
