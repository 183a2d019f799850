//! Packed bitvectors for the Leapfrog reproduction.
//!
//! P4 automata manipulate finite bitstrings: packet data, header contents and
//! parse buffers. This crate provides [`BitVec`], a compact bitvector backed
//! by `u64` blocks, with the exact *clamped* slicing semantics of the paper
//! (Definition 3.1): `w[n1:n2]` is the zero-indexed substring starting at
//! `min(n1, |w| - 1)` and ending at `min(n2, |w| - 1)`, inclusive. Bit `0` is
//! the *leftmost* (first-received) bit, matching string indexing in the
//! paper.
//!
//! # Examples
//!
//! ```
//! use leapfrog_bitvec::BitVec;
//!
//! let w: BitVec = "10110".parse().unwrap();
//! assert_eq!(w.len(), 5);
//! assert_eq!(w.get(0), Some(true));
//! assert_eq!(w.slice(1, 3).to_string(), "011");
//! let v = w.concat(&"01".parse().unwrap());
//! assert_eq!(v.to_string(), "1011001");
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

const BLOCK_BITS: usize = 64;

/// A finite sequence of bits, bit `0` leftmost.
///
/// Stored MSB-first inside `u64` blocks: bit `i` lives in block `i / 64` at
/// bit position `63 - (i % 64)`. Unused trailing bits of the last block are
/// kept zero, which lets equality and hashing work structurally.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    blocks: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates the empty bitvector `ε`.
    pub fn new() -> Self {
        BitVec {
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Creates a bitvector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            blocks: vec![0; len.div_ceil(BLOCK_BITS)],
            len,
        }
    }

    /// Creates a bitvector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut bv = BitVec {
            blocks: vec![u64::MAX; len.div_ceil(BLOCK_BITS)],
            len,
        };
        bv.mask_tail();
        bv
    }

    /// Creates a bitvector from a slice of booleans (index 0 leftmost).
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut bv = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            bv.set(i, b);
        }
        bv
    }

    /// Creates a `width`-bit vector holding the low `width` bits of `value`,
    /// most significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width <= 64, "from_u64 width must be <= 64, got {width}");
        let mut bv = BitVec::zeros(width);
        for i in 0..width {
            let bit = (value >> (width - 1 - i)) & 1 == 1;
            bv.set(i, bit);
        }
        bv
    }

    /// Interprets the bitvector as a big-endian unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if the vector is longer than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(
            self.len <= 64,
            "to_u64 requires len <= 64, got {}",
            self.len
        );
        let mut out = 0u64;
        for i in 0..self.len {
            out = (out << 1) | u64::from(self.get(i).unwrap());
        }
        out
    }

    /// The number of bits, `|w|`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this is the empty bitvector `ε`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at position `i`, or `None` if `i >= len`.
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        let block = self.blocks[i / BLOCK_BITS];
        Some((block >> (BLOCK_BITS - 1 - (i % BLOCK_BITS))) & 1 == 1)
    }

    /// Sets the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        let mask = 1u64 << (BLOCK_BITS - 1 - (i % BLOCK_BITS));
        if value {
            self.blocks[i / BLOCK_BITS] |= mask;
        } else {
            self.blocks[i / BLOCK_BITS] &= !mask;
        }
    }

    /// Appends a single bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(BLOCK_BITS) {
            self.blocks.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, value);
    }

    /// Removes and returns the last bit, or `None` if empty.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let b = self.get(self.len - 1).unwrap();
        self.set(self.len - 1, false);
        self.len -= 1;
        self.blocks.truncate(self.len.div_ceil(BLOCK_BITS));
        Some(b)
    }

    /// Concatenation `w ++ x`: `self` followed by `other`.
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.extend(other);
        out
    }

    /// Appends all bits of `other` in place.
    pub fn extend(&mut self, other: &BitVec) {
        // Fast path: self ends on a block boundary.
        if self.len.is_multiple_of(BLOCK_BITS) {
            self.blocks.extend_from_slice(&other.blocks);
            self.len += other.len;
            return;
        }
        for i in 0..other.len {
            self.push(other.get(i).unwrap());
        }
    }

    /// The paper's clamped slice `w[n1:n2]` (Definition 3.1): the substring
    /// from `min(n1, |w|-1)` to `min(n2, |w|-1)` inclusive. Returns `ε` when
    /// `self` is empty or the clamped range is reversed.
    pub fn slice(&self, n1: usize, n2: usize) -> BitVec {
        if self.len == 0 {
            return BitVec::new();
        }
        let lo = n1.min(self.len - 1);
        let hi = n2.min(self.len - 1);
        if lo > hi {
            return BitVec::new();
        }
        self.subrange(lo, hi + 1 - lo)
    }

    /// Exact (non-clamped) subrange of `count` bits starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len`.
    pub fn subrange(&self, start: usize, count: usize) -> BitVec {
        assert!(
            start + count <= self.len,
            "subrange [{start}, {start}+{count}) out of range for len {}",
            self.len
        );
        let mut out = BitVec::zeros(count);
        for i in 0..count {
            out.set(i, self.get(start + i).unwrap());
        }
        out
    }

    /// Splits into `(self[0..at], self[at..])`.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_at(&self, at: usize) -> (BitVec, BitVec) {
        (self.subrange(0, at), self.subrange(at, self.len - at))
    }

    /// Iterates over the bits, leftmost first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i).unwrap())
    }

    /// Collects the bits into a `Vec<bool>`.
    pub fn to_bits(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// A uniformly random bitvector of the given length, using the provided
    /// source of random 64-bit words.
    pub fn random_with(len: usize, mut next_u64: impl FnMut() -> u64) -> Self {
        let mut bv = BitVec {
            blocks: (0..len.div_ceil(BLOCK_BITS)).map(|_| next_u64()).collect(),
            len,
        };
        bv.mask_tail();
        bv
    }

    fn mask_tail(&mut self) {
        let rem = self.len % BLOCK_BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= u64::MAX << (BLOCK_BITS - rem);
            }
        }
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(\"{self}\")")
    }
}

/// Error parsing a [`BitVec`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitVecError {
    offending: char,
}

impl fmt::Display for ParseBitVecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid bit character {:?}; expected '0' or '1'",
            self.offending
        )
    }
}

impl std::error::Error for ParseBitVecError {}

impl FromStr for BitVec {
    type Err = ParseBitVecError;

    /// Parses a binary string such as `"10110"`. Underscores are ignored, so
    /// `"1011_0110"` is accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bv = BitVec::new();
        for c in s.chars() {
            match c {
                '0' => bv.push(false),
                '1' => bv.push(true),
                '_' => {}
                other => return Err(ParseBitVecError { offending: other }),
            }
        }
        Ok(bv)
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    #[test]
    fn empty_basics() {
        let e = BitVec::new();
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert_eq!(e.get(0), None);
        assert_eq!(e.to_string(), "");
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut w = BitVec::new();
        w.push(true);
        w.push(false);
        w.push(true);
        assert_eq!(w.to_string(), "101");
        assert_eq!(w.pop(), Some(true));
        assert_eq!(w.pop(), Some(false));
        assert_eq!(w.pop(), Some(true));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn pop_clears_tail_bit() {
        let mut w = bv("11");
        w.pop();
        w.push(false);
        assert_eq!(w.to_string(), "10");
    }

    #[test]
    fn from_u64_msb_first() {
        assert_eq!(BitVec::from_u64(0b1011, 4).to_string(), "1011");
        assert_eq!(BitVec::from_u64(1, 8).to_string(), "00000001");
        assert_eq!(BitVec::from_u64(0, 0).to_string(), "");
    }

    #[test]
    fn to_u64_roundtrip() {
        for v in [0u64, 1, 5, 0xff, 0xdead] {
            assert_eq!(BitVec::from_u64(v, 16).to_u64(), v & 0xffff);
        }
    }

    #[test]
    fn concat_matches_string_concat() {
        assert_eq!(bv("10").concat(&bv("0111")).to_string(), "100111");
        assert_eq!(bv("").concat(&bv("01")).to_string(), "01");
        assert_eq!(bv("01").concat(&bv("")).to_string(), "01");
    }

    #[test]
    fn clamped_slice_paper_semantics() {
        let w = bv("10110");
        // In-range inclusive slice.
        assert_eq!(w.slice(1, 3).to_string(), "011");
        // End clamps to |w| - 1.
        assert_eq!(w.slice(3, 100).to_string(), "10");
        // Start clamps to |w| - 1.
        assert_eq!(w.slice(100, 200).to_string(), "0");
        // Reversed after clamping: min(n1,|w|-1) = 4 > min(n2,|w|-1) = 2.
        assert_eq!(w.slice(100, 2).to_string(), "");
        // Slicing the empty vector is empty.
        assert_eq!(BitVec::new().slice(0, 5).to_string(), "");
    }

    #[test]
    fn subrange_exact() {
        let w = bv("10110");
        assert_eq!(w.subrange(0, 5).to_string(), "10110");
        assert_eq!(w.subrange(2, 2).to_string(), "11");
        assert_eq!(w.subrange(5, 0).to_string(), "");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subrange_out_of_range_panics() {
        bv("101").subrange(2, 2);
    }

    #[test]
    fn split_at_partitions() {
        let (a, b) = bv("10110").split_at(2);
        assert_eq!(a.to_string(), "10");
        assert_eq!(b.to_string(), "110");
    }

    #[test]
    fn equality_is_structural_across_block_boundaries() {
        let mut a = BitVec::zeros(130);
        let mut b = BitVec::zeros(130);
        a.set(129, true);
        b.set(129, true);
        assert_eq!(a, b);
        b.set(0, true);
        assert_ne!(a, b);
    }

    #[test]
    fn ones_and_zeros() {
        assert_eq!(BitVec::ones(3).to_string(), "111");
        assert_eq!(BitVec::zeros(3).to_string(), "000");
        let big = BitVec::ones(70);
        assert!(big.iter().all(|b| b));
        assert_eq!(big.len(), 70);
    }

    #[test]
    fn parse_rejects_garbage_and_ignores_underscores() {
        assert!("10x1".parse::<BitVec>().is_err());
        assert_eq!(bv("10_11").to_string(), "1011");
    }

    #[test]
    fn extend_fast_path_on_block_boundary() {
        let mut a = BitVec::from_bits(&[true; 64]);
        a.extend(&bv("01"));
        assert_eq!(a.len(), 66);
        assert_eq!(a.get(64), Some(false));
        assert_eq!(a.get(65), Some(true));
    }

    #[test]
    fn display_debug() {
        assert_eq!(format!("{:?}", bv("10")), "BitVec(\"10\")");
    }

    #[test]
    fn from_iterator_collects() {
        let w: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(w.to_string(), "101");
    }

    #[test]
    fn random_with_has_requested_length() {
        let mut state = 0x12345u64;
        let mut rng = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let w = BitVec::random_with(100, &mut rng);
        assert_eq!(w.len(), 100);
        // Tail bits beyond len must be masked so equality stays structural.
        let mut copy = BitVec::zeros(100);
        for i in 0..100 {
            copy.set(i, w.get(i).unwrap());
        }
        assert_eq!(w, copy);
    }
}
