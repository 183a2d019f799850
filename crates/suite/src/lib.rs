//! The Leapfrog evaluation suite: every parser from the paper's case
//! studies (§7, Table 2), packet workload generators, Table 2 metrics, and
//! differential-testing helpers.
//!
//! * [`utility`] — the six utility case studies: state rearrangement
//!   (Fig. 7), variable-length IP options parsing (Figs. 11/12), header
//!   initialization (Fig. 9), the speculative MPLS loop (Fig. 1), and the
//!   sloppy/strict Ethernet parsers used by the external-filtering and
//!   relational-verification studies (Fig. 10).
//! * [`applicability`] — parser-gen-style parsers for the four deployment
//!   scenarios (Edge, Service Provider, Datacenter, Enterprise). The
//!   originals are research artifacts; these are reconstructions with the
//!   protocol mixes described in the parser-gen paper, sized to match
//!   Table 2 (see DESIGN.md for the substitution argument).
//! * [`metrics`] — the States / Branched-bits / Total-bits columns.
//! * [`workload`] — random valid/invalid packet generation per parser.
//! * [`differential`] — bounded brute-force and randomized equivalence
//!   oracles used to cross-validate the symbolic checker.
//! * [`corpus`] — the witness regression corpus: confirmed minimized
//!   counterexample packets recorded per benchmark and re-exercised by
//!   the differential harness on every run.
//! * [`mutants`] — the mutated-parser negative suite: fault-injected
//!   variants of the speculative-loop pair (via
//!   `Automaton::redirect_case`) that must be refuted with confirmed
//!   witnesses, feeding the corpus.

#![warn(missing_docs)]

pub mod applicability;
pub mod corpus;
pub mod differential;
pub mod metrics;
pub mod mutants;
pub mod utility;
pub mod workload;

use leapfrog_p4a::ast::{Automaton, StateId};

/// A named benchmark: two parsers and their start states.
pub struct Benchmark {
    /// Table 2 row name.
    pub name: &'static str,
    /// The left parser.
    pub left: Automaton,
    /// Start state of the left parser.
    pub left_start: StateId,
    /// The right parser.
    pub right: Automaton,
    /// Start state of the right parser.
    pub right_start: StateId,
    /// Whether the two parsers are expected to be language-equivalent
    /// under the default (standard) initial relation.
    pub expect_equivalent: bool,
}

impl Benchmark {
    /// Builds a benchmark from two parsers and start-state names.
    pub fn new(
        name: &'static str,
        left: Automaton,
        left_start: &str,
        right: Automaton,
        right_start: &str,
        expect_equivalent: bool,
    ) -> Benchmark {
        let left_start = left
            .state_by_name(left_start)
            .expect("unknown left start state");
        let right_start = right
            .state_by_name(right_start)
            .expect("unknown right start state");
        Benchmark {
            name,
            left,
            left_start,
            right,
            right_start,
            expect_equivalent,
        }
    }

    /// A self-comparison benchmark (the applicability studies): the parser
    /// against a copy of itself, proving acceptance is store-independent.
    pub fn self_comparison(name: &'static str, aut: Automaton, start: &str) -> Benchmark {
        Benchmark::new(name, aut.clone(), start, aut, start, true)
    }

    /// Table 2 metrics for this benchmark.
    pub fn metrics(&self) -> metrics::Table2Metrics {
        metrics::Table2Metrics::for_pair(&self.left, &self.right)
    }
}

/// All standard Table 2 rows answerable as plain language-equivalence
/// queries: the four utility rows followed by the applicability
/// self-comparisons (the relational rows and translation validation need
/// dedicated runners and are not included). This is the row set the
/// `table2` binary measures, `check_batch` smoke jobs drive, and the
/// `leapfrogd` wire server resolves named requests against.
pub fn standard_benchmarks(scale: Scale) -> Vec<Benchmark> {
    let mut rows = vec![
        utility::state_rearrangement::state_rearrangement_benchmark(),
        utility::ip_options::ip_options_benchmark(scale),
        utility::vlan_init::vlan_init_benchmark(),
        utility::mpls::mpls_benchmark(),
    ];
    rows.extend(applicability::all_benchmarks(scale));
    rows
}

/// The scale knob for the applicability parsers (`LEAPFROG_SCALE`):
/// `full` reproduces Table 2 sizes, `medium`/`small` trim repetition counts
/// so the harness finishes quickly on a laptop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table 2 sizes.
    Full,
    /// Reduced MPLS/option chains.
    Medium,
    /// Minimal chains, for CI.
    Small,
}

impl Scale {
    /// Reads `LEAPFROG_SCALE` (default [`Scale::Small`] — see EXPERIMENTS.md
    /// for full-scale runs).
    pub fn from_env() -> Scale {
        match std::env::var("LEAPFROG_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("medium") => Scale::Medium,
            _ => Scale::Small,
        }
    }
}
