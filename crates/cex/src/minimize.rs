//! Canonical witness packets. Algorithm 1 derives relations one
//! weakest-precondition generation at a time, so the packet lifted from
//! the first violated relation already has the length the refutation
//! needs (one leap-sized chunk per step); what the countermodel leaves
//! arbitrary is the content of bits no transition inspects.
//! [`canonicalize`] zeroes those. The witness engine's predicate replays
//! candidates state by state ([`Witness::packet_disagrees`]), and the
//! result is confirmed on the bit-level `δ*` ([`Witness::check`]).
//!
//! [`Witness::packet_disagrees`]: crate::Witness::packet_disagrees
//! [`Witness::check`]: crate::Witness::check

use leapfrog_bitvec::BitVec;

/// Clears, left to right, every 1-bit of `packet` whose clearing keeps
/// `disagrees` true, and returns the result. `disagrees(&packet)` must be
/// true on entry; the result also satisfies it and has the same length.
pub fn canonicalize(packet: BitVec, disagrees: &mut dyn FnMut(&BitVec) -> bool) -> BitVec {
    debug_assert!(
        disagrees(&packet),
        "canonicalize needs a disagreeing packet"
    );
    let mut current = packet;
    for i in 0..current.len() {
        if current.get(i) == Some(true) {
            let mut candidate = current.clone();
            candidate.set(i, false);
            if disagrees(&candidate) {
                current = candidate;
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    #[test]
    fn zeroes_irrelevant_bits() {
        // Disagreement iff length >= 4 (content irrelevant).
        let mut pred = |p: &BitVec| p.len() >= 4;
        let min = canonicalize(bv("10111011"), &mut pred);
        assert_eq!(min, bv("00000000"));
    }

    #[test]
    fn already_minimal_is_untouched() {
        let mut pred = |p: &BitVec| p == &bv("1");
        assert_eq!(canonicalize(bv("1"), &mut pred), bv("1"));
    }

    #[test]
    fn empty_packet_stays_empty() {
        let mut pred = |p: &BitVec| p.is_empty();
        assert_eq!(canonicalize(BitVec::new(), &mut pred), BitVec::new());
    }
}
