//! Bit-level delta debugging for witness packets.
//!
//! The packet lifted from a countermodel is as long as the symbolic trace
//! that produced it — often much longer than necessary (e.g. a full MPLS
//! label stack when one label suffices). [`minimize`] shrinks it with the
//! classic ddmin loop (remove ever-smaller contiguous segments while the
//! disagreement persists) and then canonicalizes the survivor by zeroing
//! every bit that is not needed to keep the two parsers disagreeing.
//!
//! [`minimize_chunked`] adds a *leap-aware pre-pass*: the lifted packet is
//! a concatenation of leap-sized chunks (one per weakest-precondition
//! step of the trace), and a redundant leap — a whole MPLS label, a whole
//! option word — usually drops in one aligned deletion. Trying those
//! chunk-aligned deletions to a fixpoint first removes most of the packet
//! in O(chunks) replays, leaving per-bit ddmin only the short remainder.
//!
//! Both loops judge candidates through a caller-supplied predicate. The
//! witness engine passes [`Witness::packet_disagrees`], which replays both
//! runs state by state through [`Config::run`] — one store per run, not a
//! store copy per bit — so a predicate call costs one pass over the states
//! the candidate visits. The minimized witness is then confirmed by
//! [`Witness::check`] on the bit-level `δ*`.
//!
//! [`Witness::packet_disagrees`]: crate::Witness::packet_disagrees
//! [`Witness::check`]: crate::Witness::check
//! [`Config::run`]: leapfrog_p4a::semantics::Config::run

use leapfrog_bitvec::BitVec;

/// Removes the segment `[start, start+len)` from a packet.
fn without_segment(packet: &BitVec, start: usize, len: usize) -> BitVec {
    let mut out = packet.subrange(0, start);
    let tail_start = start + len;
    out.extend(&packet.subrange(tail_start, packet.len() - tail_start));
    out
}

/// [`minimize`] with a leap-aware pre-pass. `chunks` are the packet's
/// leap-chunk lengths in packet order; they must sum to the packet length
/// for the pre-pass to run (otherwise it falls through to plain ddmin —
/// e.g. for packets found by steered search, which have no leap
/// structure). The pre-pass greedily deletes whole chunks, to a fixpoint,
/// while the disagreement persists; per-bit ddmin then finishes the
/// survivor, so the result is exactly as minimal as [`minimize`]'s.
pub fn minimize_chunked(
    packet: BitVec,
    chunks: &[usize],
    disagrees: &mut dyn FnMut(&BitVec) -> bool,
) -> BitVec {
    debug_assert!(disagrees(&packet), "minimize needs a disagreeing packet");
    let mut current = packet;
    if chunks.len() > 1 && chunks.iter().sum::<usize>() == current.len() {
        let mut chunks = chunks.to_vec();
        loop {
            let mut shrunk = false;
            let mut i = 0;
            while i < chunks.len() {
                let start: usize = chunks[..i].iter().sum();
                let candidate = without_segment(&current, start, chunks[i]);
                if disagrees(&candidate) {
                    current = candidate;
                    chunks.remove(i);
                    shrunk = true;
                } else {
                    i += 1;
                }
            }
            if !shrunk || chunks.len() <= 1 {
                break;
            }
        }
    }
    minimize(current, disagrees)
}

/// Shrinks `packet` while `disagrees` stays true, returning the minimized
/// packet. `disagrees(&packet)` must be true on entry; the result also
/// satisfies it. The loop is the textbook ddmin with a final zeroing pass,
/// so the result is 1-minimal with respect to segment deletion (no single
/// tried segment can be removed) but not globally minimal.
pub fn minimize(packet: BitVec, disagrees: &mut dyn FnMut(&BitVec) -> bool) -> BitVec {
    debug_assert!(disagrees(&packet), "minimize() needs a disagreeing packet");
    let mut current = packet;

    // Phase 1: ddmin segment deletion.
    let mut granularity = 2usize;
    while current.len() >= 2 && granularity <= current.len() {
        let seg = current.len().div_ceil(granularity);
        let mut shrunk = false;
        let mut start = 0;
        while start < current.len() {
            let len = seg.min(current.len() - start);
            let candidate = without_segment(&current, start, len);
            if disagrees(&candidate) {
                current = candidate;
                shrunk = true;
                // Re-try from the same offset at the same granularity.
            } else {
                start += len;
            }
        }
        if shrunk {
            granularity = granularity.saturating_sub(1).max(2);
        } else if seg <= 1 {
            break;
        } else {
            granularity = (granularity * 2).min(current.len());
        }
    }

    // Phase 2: canonicalize by zeroing unneeded bits.
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
    fn shrinks_to_the_needed_window() {
        // Disagreement iff the packet contains "11" somewhere.
        let mut pred =
            |p: &BitVec| (1..p.len()).any(|i| p.get(i - 1) == Some(true) && p.get(i) == Some(true));
        let start = bv("0101101100101");
        assert!(pred(&start));
        let min = minimize(start, &mut pred);
        assert_eq!(min, bv("11"));
    }

    #[test]
    fn zeroes_irrelevant_bits() {
        // Disagreement iff length >= 4 (content irrelevant).
        let mut pred = |p: &BitVec| p.len() >= 4;
        let min = minimize(bv("10111011"), &mut pred);
        assert_eq!(min, bv("0000"));
    }

    #[test]
    fn already_minimal_is_untouched() {
        let mut pred = |p: &BitVec| p == &bv("1");
        assert_eq!(minimize(bv("1"), &mut pred), bv("1"));
    }

    #[test]
    fn empty_packet_stays_empty() {
        let mut pred = |p: &BitVec| p.is_empty();
        assert_eq!(minimize(BitVec::new(), &mut pred), BitVec::new());
    }

    #[test]
    fn chunked_prepass_drops_whole_leaps_first() {
        // Disagreement iff the packet contains "11": chunk-aligned
        // deletion must strip the redundant 4-bit leaps in whole pieces
        // and reach the same minimum as plain ddmin.
        let mut pred =
            |p: &BitVec| (1..p.len()).any(|i| p.get(i - 1) == Some(true) && p.get(i) == Some(true));
        let start = bv("000001000000110000000100");
        let min = minimize_chunked(start, &[4, 4, 4, 4, 4, 4], &mut pred);
        assert_eq!(min, bv("11"));
    }

    #[test]
    fn chunked_agrees_with_plain_on_mismatched_chunks() {
        // Chunk lengths that do not cover the packet skip the pre-pass.
        let mut pred = |p: &BitVec| p.len() >= 4;
        let min = minimize_chunked(bv("10111011"), &[64], &mut pred);
        assert_eq!(min, bv("0000"));
        let mut pred2 = |p: &BitVec| p.len() >= 4;
        let min2 = minimize_chunked(bv("10111011"), &[], &mut pred2);
        assert_eq!(min2, bv("0000"));
    }

    #[test]
    fn chunked_prepass_matches_plain_ddmin_result() {
        // On a chunk-structured disagreement the pre-pass must not change
        // the final minimum, only the path there.
        let mut pred_a = |p: &BitVec| p.len() >= 8 && p.get(0) == Some(true);
        let mut pred_b = |p: &BitVec| p.len() >= 8 && p.get(0) == Some(true);
        let start = bv("1010101010101010");
        let plain = minimize(start.clone(), &mut pred_a);
        let chunked = minimize_chunked(start, &[8, 8], &mut pred_b);
        assert_eq!(plain, chunked);
    }
}
