//! Packet workload generation: random valid and adversarial packets for
//! a parser, used by differential tests.
//!
//! The walking/steering machinery itself lives in [`leapfrog_p4a::walk`]
//! so the counterexample witness engine (`leapfrog-cex`) can reuse it
//! without depending on the evaluation suite; this module re-exports it
//! under the suite's historical paths and keeps the suite-level tests.

pub use leapfrog_p4a::walk::{
    accepting_walk_packet, distances_to_accept, packets, random_walk_packet, synthesize_chunk,
    walk_with, Rng,
};

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::{Automaton, StateId};

/// The standard packet workload with witness-corpus regressions merged in
/// front: recorded counterexample packets (see [`crate::corpus`]) are
/// exercised first, then the steered random walks.
/// [`crate::differential::check_cross_validate_and_record`] runs this
/// merged workload against every equivalence verdict, so recorded
/// witnesses are re-exercised on every differential pass.
pub fn packets_with_regressions(
    aut: &Automaton,
    start: StateId,
    max_states: usize,
    count: usize,
    seed: u64,
    regressions: &[BitVec],
) -> Vec<BitVec> {
    let mut out: Vec<BitVec> = regressions.to_vec();
    out.extend(packets(aut, start, max_states, count, seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::mpls;
    use leapfrog_p4a::semantics::Config;

    #[test]
    fn walk_generates_accepting_mpls_packets() {
        let aut = mpls::reference();
        let q1 = aut.state_by_name("q1").unwrap();
        let pkts = packets(&aut, q1, 16, 100, 123);
        let accepted = pkts
            .iter()
            .filter(|p| Config::initial(&aut, q1).accepts_chunked(&aut, p))
            .count();
        // Steering should hit the accept path often (each loop iteration
        // has a 50% chance of taking the bottom-of-stack branch).
        assert!(accepted > 20, "only {accepted}/100 packets accepted");
        // And packets must be label-aligned (multiples of 32, plus 64).
        for p in &pkts {
            assert!(p.len() % 32 == 0);
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a = packets(&mpls::reference(), leapfrog_p4a::ast::StateId(0), 8, 5, 9);
        let b = packets(&mpls::reference(), leapfrog_p4a::ast::StateId(0), 8, 5, 9);
        assert_eq!(a, b);
    }
}
