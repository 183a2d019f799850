//! Seeded inputs with known answers.
//!
//! Two sources feed the `solve` workload: the Table-2 rows at
//! [`Scale::Small`], and redirect-case mutants of the four scenario
//! parsers. Redirecting one select case to `accept` or `reject` only
//! truncates paths, so a mutant checked against itself is equivalent by
//! construction. A pristine-vs-mutant pair is kept as inequivalent only
//! when a steered packet, run through the explicit `leapfrog_p4a`
//! semantics, tells the two apart; that packet travels with the pair.

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::{Automaton, StateId, Target, Transition};
use leapfrog_p4a::semantics::Config;
use leapfrog_p4a::walk::{packets, Rng};
use leapfrog_suite::utility::sloppy_strict;
use leapfrog_suite::{applicability, standard_benchmarks, Scale};

/// Which question a pair poses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Plain language equivalence.
    Standard,
    /// Sloppy vs strict modulo an EtherType filter (replaced initial
    /// relation over the reachable scope).
    ExternalFilter,
    /// Store correspondence at acceptance (replaced initial relation).
    StoreCorrespondence,
}

/// The known answer for a pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// The pair is equivalent.
    Equivalent,
    /// The pair is not; the packet distinguishes the two parsers.
    NotEquivalent(BitVec),
}

/// One generated pair with its answer.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Row name, or `<parser> mutant <state>#<case>-><target>`.
    pub name: String,
    /// Left parser.
    pub left: Automaton,
    /// Left start state.
    pub ql: StateId,
    /// Right parser.
    pub right: Automaton,
    /// Right start state.
    pub qr: StateId,
    /// The question posed.
    pub query: Query,
    /// The known answer.
    pub expect: Expect,
}

impl Pair {
    /// Whether the known answer is `Equivalent`.
    pub fn expect_equivalent(&self) -> bool {
        self.expect == Expect::Equivalent
    }
}

/// The four scenario parsers at [`Scale::Small`], with their names.
pub fn scenario_parsers() -> Vec<(&'static str, Automaton)> {
    vec![
        ("Edge", applicability::edge(Scale::Small)),
        (
            "Service Provider",
            applicability::service_provider(Scale::Small),
        ),
        ("Datacenter", applicability::datacenter(Scale::Small)),
        ("Enterprise", applicability::enterprise(Scale::Small)),
    ]
}

/// The eleven Table-2 rows at [`Scale::Small`].
pub fn table2_rows() -> Vec<Pair> {
    let mut rows: Vec<Pair> = standard_benchmarks(Scale::Small)
        .into_iter()
        .map(|b| Pair {
            name: b.name.to_string(),
            left: b.left,
            ql: b.left_start,
            right: b.right,
            qr: b.right_start,
            query: Query::Standard,
            expect: if b.expect_equivalent {
                Expect::Equivalent
            } else {
                unreachable!("every standard Table-2 row is equivalent")
            },
        })
        .collect();
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    for (name, query) in [
        ("External filtering", Query::ExternalFilter),
        ("Relational verification", Query::StoreCorrespondence),
    ] {
        rows.push(Pair {
            name: name.to_string(),
            left: sloppy.clone(),
            ql,
            right: strict.clone(),
            qr,
            query,
            expect: Expect::Equivalent,
        });
    }
    let (left, ql, right, qr) = leapfrog_bench::rows::translation_validation_pair(Scale::Small);
    rows.push(Pair {
        name: "Translation Validation".to_string(),
        left,
        ql,
        right,
        qr,
        query: Query::Standard,
        expect: Expect::Equivalent,
    });
    rows
}

/// Every `(state, case)` select slot of `aut`, in state order.
pub fn slots(aut: &Automaton) -> Vec<(StateId, usize)> {
    aut.state_ids()
        .flat_map(|q| match &aut.state(q).trans {
            Transition::Select { cases, .. } => (0..cases.len()).map(|c| (q, c)).collect(),
            Transition::Goto(_) => Vec::new(),
        })
        .collect()
}

/// Redirects select case `slot` of `aut` to `accept` (or `reject`); when
/// the case already goes there, to the other one. Returns the mutant and
/// a name describing the edit.
pub fn redirect(
    aut: &Automaton,
    (q, case): (StateId, usize),
    to_accept: bool,
) -> (Automaton, String) {
    let current = match &aut.state(q).trans {
        Transition::Select { cases, .. } => cases[case].target,
        Transition::Goto(_) => panic!("slot {q:?} has no select"),
    };
    let want = if to_accept {
        Target::Accept
    } else {
        Target::Reject
    };
    let target = match (want == current, to_accept) {
        (false, _) => want,
        (true, true) => Target::Reject,
        (true, false) => Target::Accept,
    };
    let mut mutant = aut.clone();
    mutant.redirect_case(q, case, target);
    let to = if target == Target::Accept {
        "accept"
    } else {
        "reject"
    };
    let name = format!("{}#{case}->{to}", aut.state_name(q));
    (mutant, name)
}

/// A packet on which `a` and `b` (both from `start`, zero stores) disagree
/// about acceptance, searched among steered walks of both parsers.
pub fn distinguishing_packet(
    a: &Automaton,
    b: &Automaton,
    start: StateId,
    seed: u64,
) -> Option<BitVec> {
    let mut candidates = packets(a, start, 64, 64, seed);
    candidates.extend(packets(b, start, 64, 64, seed ^ 0x5eed));
    candidates.into_iter().find(|p| disagree(a, b, start, p))
}

/// Whether `a` and `b` disagree about accepting `packet` from `start`.
pub fn disagree(a: &Automaton, b: &Automaton, start: StateId, packet: &BitVec) -> bool {
    Config::initial(a, start).accepts_chunked(a, packet)
        != Config::initial(b, start).accepts_chunked(b, packet)
}

/// Self-comparisons of redirect mutants of the scenario parsers, one per
/// select slot whose index `keep` selects. The seed picks each mutant's
/// target (`accept` or `reject`); the slots are fixed, so every seed
/// poses about the same amount of work.
pub fn scenario_self_mutants(seed: u64, keep: impl Fn(usize) -> bool) -> Vec<Pair> {
    let mut rng = Rng::new(seed.wrapping_mul(31));
    let mut out = Vec::new();
    for (parser, aut) in scenario_parsers() {
        let start = aut.state_by_name("parse_eth").unwrap();
        for (i, slot) in slots(&aut).into_iter().enumerate() {
            let to_accept = rng.below(2) == 0;
            if keep(i) {
                let (m, edit) = redirect(&aut, slot, to_accept);
                out.push(self_pair(
                    format!("{parser} mutant {edit} (self)"),
                    m,
                    start,
                ));
            }
        }
    }
    out
}

fn self_pair(name: String, aut: Automaton, start: StateId) -> Pair {
    Pair {
        name,
        left: aut.clone(),
        ql: start,
        right: aut,
        qr: start,
        query: Query::Standard,
        expect: Expect::Equivalent,
    }
}

/// Search seed that fixes which slots the refutation pairs use.
const SLOT_SEARCH_SEED: u64 = 0x1ea9_f409;

/// Where refutation mutants sit: a fraction of the way through a
/// parser's slots, and whether the case is redirected to `accept`.
pub type Position = (usize, usize, bool);

/// The `solve` refutations: per parser, cases redirected to `accept` a
/// quarter and three quarters of the way in, and to `reject` halfway.
pub const SOLVE_REFUTES: [Position; 3] = [(1, 4, true), (2, 4, false), (3, 4, true)];

/// The `wire` refutations: the cheaper `accept` redirects only.
pub const WIRE_REFUTES: [Position; 2] = [(1, 4, true), (3, 4, true)];

/// Pristine-vs-mutant pairs of every scenario parser at the given
/// positions. From each position the first slot whose mutant steered
/// packets can tell apart (under a fixed search seed) is used, so every
/// seed refutes the same pairs; each pair carries a distinguishing packet
/// found by seeded steered walks. The last pair is dropped when the count
/// is even, so the class has a middle pair and its median sits on one
/// pair's cost instead of between two far-apart ones.
pub fn refutation_pairs(seed: u64, positions: &[Position]) -> Vec<Pair> {
    let mut rng = Rng::new(seed ^ 0x7e7);
    let mut out = Vec::new();
    for (parser, aut) in scenario_parsers() {
        let start = aut.state_by_name("parse_eth").unwrap();
        let all = slots(&aut);
        for &(num, den, to_accept) in positions {
            let from = all.len() * num / den;
            let (m, edit) = (0..all.len())
                .map(|k| redirect(&aut, all[(from + k) % all.len()], to_accept))
                .find(|(m, _)| distinguishing_packet(&aut, m, start, SLOT_SEARCH_SEED).is_some())
                .expect("some redirect is observable on steered packets");
            let packet = distinguishing_packet(&aut, &m, start, rng.next_u64())
                .or_else(|| distinguishing_packet(&aut, &m, start, SLOT_SEARCH_SEED))
                .expect("the search seed found one");
            out.push(Pair {
                name: format!("{parser} vs mutant {edit}"),
                left: aut.clone(),
                ql: start,
                right: m,
                qr: start,
                query: Query::Standard,
                expect: Expect::NotEquivalent(packet),
            });
        }
    }
    if out.len() % 2 == 0 {
        out.pop();
    }
    out
}

/// The `solve` stream: the Table-2 rows, the scenario self-mutants at
/// three of every four slots and the refutation pairs, in seeded order.
/// That is over 50 proofs per pass, so two passes hold the 100 samples
/// a p90 needs.
pub fn solve_inputs(seed: u64) -> Vec<Pair> {
    let mut pairs = table2_rows();
    pairs.extend(scenario_self_mutants(seed, |i| i % 4 != 3));
    pairs.extend(refutation_pairs(seed, &SOLVE_REFUTES));
    shuffle(&mut pairs, &mut Rng::new(seed));
    pairs
}

/// The Table-2 rows over the small utility parsers.
pub const UTILITY_ROWS: [&str; 5] = [
    "State Rearrangement",
    "Variable-length parsing",
    "Header initialization",
    "Speculative loop",
    "External filtering",
];

/// Self-comparisons of redirect mutants of the small utility parsers
/// (both sides of every utility row): for every select slot, each target
/// the case does not already go to. The source of small certificates for
/// `trust`; the engine's verdict decides which enter the set, since a
/// mutant whose acceptance reads an unextracted header is not
/// store-independent.
pub fn utility_self_mutants() -> Vec<Pair> {
    let mut sides: Vec<(String, Automaton, StateId)> = Vec::new();
    for row in table2_rows()
        .into_iter()
        .filter(|r| UTILITY_ROWS.contains(&r.name.as_str()))
    {
        for (aut, q) in [(row.left, row.ql), (row.right, row.qr)] {
            if !sides.iter().any(|(_, a, s)| *a == aut && *s == q) {
                sides.push((row.name.clone(), aut, q));
            }
        }
    }
    let mut out = Vec::new();
    for (row, aut, start) in sides {
        for slot in slots(&aut) {
            for to_accept in [true, false] {
                let (m, edit) = redirect(&aut, slot, to_accept);
                if !out.iter().any(|p: &Pair| p.left == m) {
                    out.push(self_pair(format!("{row} mutant {edit} (self)"), m, start));
                }
            }
        }
    }
    out
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog_p4a::pretty::pretty;

    fn fingerprint(pairs: &[Pair]) -> Vec<String> {
        pairs
            .iter()
            .map(|p| {
                let packet = match &p.expect {
                    Expect::Equivalent => String::new(),
                    Expect::NotEquivalent(bits) => format!("{bits:?}"),
                };
                format!(
                    "{}|{}|{}|{packet}",
                    p.name,
                    pretty(&p.left, "L"),
                    pretty(&p.right, "R")
                )
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_identical_inputs_and_a_new_seed_different_ones() {
        let a = fingerprint(&solve_inputs(5));
        assert_eq!(a, fingerprint(&solve_inputs(5)));
        assert_ne!(a, fingerprint(&solve_inputs(6)));
        let (mut sa, mut sb) = (a.clone(), fingerprint(&solve_inputs(6)));
        sa.sort();
        sb.sort();
        assert_ne!(sa, sb, "a new seed changes the pairs, not only their order");
    }

    #[test]
    fn every_inequivalent_pair_carries_its_distinguishing_packet() {
        for seed in [1, 2] {
            let pairs = solve_inputs(seed);
            let refutes: Vec<&Pair> = pairs.iter().filter(|p| !p.expect_equivalent()).collect();
            assert_eq!(refutes.len(), 4 * SOLVE_REFUTES.len() - 1);
            for p in refutes {
                let Expect::NotEquivalent(packet) = &p.expect else {
                    unreachable!()
                };
                assert_eq!(p.ql, p.qr);
                assert!(disagree(&p.left, &p.right, p.ql, packet), "{}", p.name);
            }
        }
    }

    #[test]
    fn the_work_per_seed_is_fixed() {
        let count = |seed| {
            let pairs = solve_inputs(seed);
            (
                pairs.len(),
                pairs.iter().filter(|p| p.expect_equivalent()).count(),
            )
        };
        assert_eq!(count(1), count(2));
    }
}
