//! Bit-level I/O for the host-only entropy stages.
//!
//! The accelerators in the paper cannot express these operations (no
//! bit-shift operators in their PyTorch dialects, §3.1) — this module is
//! deliberately host-only. It started life under `aicomp-baselines` for
//! the ZFP/JPEG comparators; it lives in core now because the extended
//! bit-plane coder ([`crate::ebpc`]) and the feature-map codec's entropy
//! stage ([`crate::fmap`]) share it, and `baselines` depends on core, not
//! the other way around. `aicomp_baselines::bitio` re-exports it, so the
//! old path keeps working.

/// MSB-first bit writer over a growable byte buffer.
///
/// Bits gather in a 64-bit accumulator and go to the buffer a whole 32-bit
/// big-endian word at a time. [`Self::put_codes`] appends a run of codes
/// with the accumulator held in locals — the entropy coders' hot loop.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, the newest in the low `filled` bits (`filled < 32`
    /// between calls: whole words go to `buf` as soon as they form).
    acc: u64,
    filled: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty writer with room for `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter { buf: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Append a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | bit as u64;
        self.filled += 1;
        if self.filled == 32 {
            self.buf.extend_from_slice(&(self.acc as u32).to_be_bytes());
            self.filled = 0;
        }
    }

    /// Append the low `n` bits of `value`, MSB first.
    pub fn put_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n > 32 {
            // Two halves keep `acc` (< 32 pending + ≤ 32 new bits) in range.
            self.put_bits(value >> 32, n - 32);
            self.put_bits(value, 32);
            return;
        }
        self.put_codes([((value & ((1u64 << n) - 1)) as u32, n)]);
    }

    /// Append a run of `(code, len)` pairs, each `len ≤ 32` bits MSB first
    /// — the same bits as [`Self::put_bits`] per pair. The bits of `code`
    /// above `len` must be zero: a table-built code has none, so the loop
    /// does not mask them off.
    #[inline]
    pub fn put_codes(&mut self, codes: impl IntoIterator<Item = (u32, u32)>) {
        let (mut acc, mut filled) = (self.acc, self.filled);
        for (code, len) in codes {
            debug_assert!(len <= 32 && u64::from(code) >> len == 0, "{code:#x} exceeds {len} bits");
            acc = (acc << len) | code as u64;
            filled += len;
            if filled >= 32 {
                filled -= 32;
                // Bits above the word are older ones, already flushed.
                self.buf.extend_from_slice(&((acc >> filled) as u32).to_be_bytes());
            }
        }
        (self.acc, self.filled) = (acc, filled);
    }

    /// Append a run of whole bytes — the same bits as [`Self::put_bits`]
    /// with `(b, 8)` per byte. On a byte boundary the pending bytes go out
    /// and the run is copied straight into the buffer; off one, the run
    /// goes through [`Self::put_codes`].
    pub fn put_bytes<I>(&mut self, bytes: I)
    where
        I: IntoIterator<Item = u8>,
    {
        if !self.filled.is_multiple_of(8) {
            self.put_codes(bytes.into_iter().map(|b| (b as u32, 8)));
            return;
        }
        while self.filled > 0 {
            self.filled -= 8;
            self.buf.push((self.acc >> self.filled) as u8);
        }
        self.buf.extend(bytes);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.filled as usize
    }

    /// Flush the pending whole bytes and the final partial byte
    /// (zero-padded), and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        while self.filled >= 8 {
            self.filled -= 8;
            self.buf.push((self.acc >> self.filled) as u8);
        }
        if self.filled > 0 {
            self.buf.push((self.acc << (8 - self.filled)) as u8);
        }
        self.buf
    }
}

/// MSB-first bit reader over a byte slice.
///
/// Besides bit-at-a-time reads it offers a lookahead window —
/// [`Self::peek_bits`] then [`Self::consume`] — so a table-driven decoder
/// can look at the next code's worth of bits in one load and advance by
/// the code's actual length.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Widest [`Self::peek_bits`] window: a 64-bit load less the up to 7
    /// bits already consumed from its first byte.
    pub const MAX_PEEK: u32 = 57;

    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos_bits: 0 }
    }

    /// Remaining readable bits.
    pub fn remaining_bits(&self) -> usize {
        self.data.len() * 8 - self.pos_bits
    }

    /// Absolute bit position from the start of the stream.
    pub fn position_bits(&self) -> usize {
        self.pos_bits
    }

    /// The next `n ≤ MAX_PEEK` bits MSB-first in the low bits of a u64,
    /// without advancing. Bits past the end of the stream read as zero;
    /// compare against [`Self::remaining_bits`] to tell them apart.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> u64 {
        assert!(n <= Self::MAX_PEEK, "peek of {n} bits exceeds {}", Self::MAX_PEEK);
        let byte = self.pos_bits / 8;
        let word = match self.data.get(byte..byte + 8) {
            Some(w) => u64::from_be_bytes(w.try_into().expect("8-byte slice")),
            None => {
                let tail = &self.data[byte..];
                let mut w = [0u8; 8];
                w[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(w)
            }
        };
        (word << (self.pos_bits % 8)).checked_shr(64 - n).unwrap_or(0)
    }

    /// Advance past `n` bits, which must not exceed
    /// [`Self::remaining_bits`].
    #[inline]
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.remaining_bits(), "consume of {n} bits past end of stream");
        self.pos_bits += n;
    }

    /// The next `n` whole bytes, advancing past them, when the reader sits
    /// on a byte boundary with at least `n` bytes left; otherwise `None`,
    /// with the reader unmoved.
    #[inline]
    pub fn aligned_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if !self.pos_bits.is_multiple_of(8) {
            return None;
        }
        let at = self.pos_bits / 8;
        let bytes = self.data.get(at..at.checked_add(n)?)?;
        self.pos_bits += 8 * n;
        Some(bytes)
    }

    /// Read one bit; `None` at end of stream.
    pub fn get_bit(&mut self) -> Option<bool> {
        if self.pos_bits >= self.data.len() * 8 {
            return None;
        }
        let byte = self.data[self.pos_bits / 8];
        let bit = (byte >> (7 - (self.pos_bits % 8))) & 1;
        self.pos_bits += 1;
        Some(bit == 1)
    }

    /// Read `n ≤ 64` bits MSB-first into the low bits of a u64. `None`
    /// when fewer than `n` remain, leaving the reader at end of stream
    /// (where a bit-at-a-time read would have stopped).
    pub fn get_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        if n as usize > self.remaining_bits() {
            self.pos_bits = self.data.len() * 8;
            return None;
        }
        let mut v = 0u64;
        let mut left = n;
        while left > 0 {
            let take = left.min(32);
            v = (v << take) | self.peek_bits(take);
            self.consume(take as usize);
            left -= take;
        }
        Some(v)
    }
}

/// Signed → negabinary (base −2) mapping used by ZFP:
/// `u = (i + 0xAAAAAAAA) ^ 0xAAAAAAAA` over 32-bit words. Negabinary makes
/// magnitude decay align with bit planes regardless of sign.
pub fn int_to_negabinary(i: i32) -> u32 {
    const MASK: u32 = 0xAAAA_AAAA;
    ((i as u32).wrapping_add(MASK)) ^ MASK
}

/// Negabinary → signed inverse of [`int_to_negabinary`].
pub fn negabinary_to_int(u: u32) -> i32 {
    const MASK: u32 = 0xAAAA_AAAA;
    (u ^ MASK).wrapping_sub(MASK) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit(), Some(b));
        }
    }

    #[test]
    fn roundtrip_multi_bit_values() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0xDEADBEEF, 32);
        w.put_bits(0x3, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4), Some(0b1011));
        assert_eq!(r.get_bits(32), Some(0xDEADBEEF));
        assert_eq!(r.get_bits(2), Some(0x3));
    }

    #[test]
    fn reader_detects_end() {
        let mut w = BitWriter::new();
        w.put_bits(0xFF, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(8), Some(0xFF));
        assert_eq!(r.get_bit(), None);
    }

    /// The bit-at-a-time read that `get_bits` replaced.
    fn get_bits_per_bit(r: &mut BitReader, n: u32) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | r.get_bit()? as u64;
        }
        Some(v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `put_bits`/`put_codes`/`get_bits` move whole words but write the
        /// same bytes and read the same values, to the same positions, as the
        /// per-bit `put_bit`/`get_bit` path — reads past the end included.
        /// A third writer takes each op as `put_bits` (`how` 0), bit by bit
        /// (1), or within a `put_codes` run of consecutive 2s; all three
        /// must match a plain list of the bits, packed at the end.
        #[test]
        fn word_bitio_matches_per_bit_path(
            ops in prop::collection::vec((0u64..=u64::MAX, 0u32..=64), 0..48),
            hows in prop::collection::vec(0u8..3, 48),
            overrun in 0u32..=64,
        ) {
            let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
            let (mut mixed, mut run, mut bits) = (BitWriter::new(), Vec::new(), Vec::new());
            for (k, &(v, n)) in ops.iter().enumerate() {
                fast.put_bits(v, n);
                for i in (0..n).rev() {
                    slow.put_bit((v >> i) & 1 == 1);
                    bits.push((v >> i) & 1 == 1);
                }
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
                match hows[k] {
                    0 => mixed.put_bits(v, n),
                    1 => (0..n).rev().for_each(|i| mixed.put_bit((v >> i) & 1 == 1)),
                    _ => {
                        // A code wider than 32 bits goes in as two; each
                        // is masked to its width, as `put_codes` requires.
                        let low = |x: u64, k: u32| (x & ((1u64 << k) - 1)) as u32;
                        if n > 32 {
                            run.push((low(v >> 32, n - 32), n - 32));
                        }
                        run.push((low(v, n.min(32)), n.min(32)));
                    }
                }
                if k + 1 == ops.len() || hows[k] != 2 || hows[k + 1] != 2 {
                    mixed.put_codes(run.drain(..));
                    prop_assert_eq!(mixed.bit_len(), bits.len());
                }
            }
            let bytes = fast.finish();
            prop_assert_eq!(&bytes, &slow.finish());
            prop_assert_eq!(&bytes, &mixed.finish());
            let packed: Vec<u8> = bits
                .chunks(8)
                .map(|byte| byte.iter().enumerate().fold(0u8, |b, (i, &x)| b | (x as u8) << (7 - i)))
                .collect();
            prop_assert_eq!(&bytes, &packed);

            let (mut a, mut b) = (BitReader::new(&bytes), BitReader::new(&bytes));
            let widths = ops.iter().map(|&(_, n)| n).chain([overrun, 1]);
            for (k, n) in widths.enumerate() {
                if n <= BitReader::MAX_PEEK && n as usize <= a.remaining_bits() {
                    let peeked = a.peek_bits(n);
                    prop_assert_eq!(Some(peeked), get_bits_per_bit(&mut b, n));
                    prop_assert_eq!(a.get_bits(n), Some(peeked));
                } else {
                    prop_assert_eq!(a.get_bits(n), get_bits_per_bit(&mut b, n));
                }
                if let Some(&(v, _)) = ops.get(k) {
                    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                    prop_assert_eq!(a.position_bits(), b.position_bits());
                    let mut c = BitReader::new(&bytes);
                    c.consume(a.position_bits() - n as usize);
                    prop_assert_eq!(c.get_bits(n), Some(v & mask));
                }
                prop_assert_eq!(a.position_bits(), b.position_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `put_bytes` writes what `put_bits(b, 8)` per byte writes, after
        /// every pending width from 0 to 40 bits: the byte-aligned copy at
        /// 0, 8, 16, 24, 32 and 40, the `put_codes` run at the rest. Bits
        /// written after the run land the same way too. `aligned_bytes`
        /// hands back the run exactly where the copy applies.
        #[test]
        fn byte_append_matches_put_bits(
            lead in 0u64..=u64::MAX,
            run in prop::collection::vec(0u8..=255, 0..70),
            tail in 0u64..=u64::MAX,
            tail_len in 0u32..=40,
        ) {
            for pending in 0..=40u32 {
                let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
                for w in [&mut fast, &mut slow] {
                    w.put_bits(lead, pending);
                }
                fast.put_bytes(run.iter().copied());
                run.iter().for_each(|&b| slow.put_bits(b as u64, 8));
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
                for w in [&mut fast, &mut slow] {
                    w.put_bits(tail, tail_len);
                }
                let bytes = fast.finish();
                prop_assert_eq!(&bytes, &slow.finish());

                let mut r = BitReader::new(&bytes);
                r.consume(pending as usize);
                match r.aligned_bytes(run.len()) {
                    Some(got) => {
                        prop_assert!(pending % 8 == 0);
                        prop_assert_eq!(got, &run[..]);
                        prop_assert_eq!(r.position_bits(), pending as usize + 8 * run.len());
                    }
                    None => {
                        prop_assert!(pending % 8 != 0);
                        prop_assert_eq!(r.position_bits(), pending as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn aligned_bytes_stops_at_the_end() {
        let bytes = [1u8, 2, 3];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.aligned_bytes(4), None);
        assert_eq!(r.aligned_bytes(2), Some(&bytes[..2]));
        assert_eq!(r.aligned_bytes(2), None);
        assert_eq!(r.position_bits(), 16);
        assert_eq!(r.aligned_bytes(usize::MAX), None);
        assert_eq!(r.aligned_bytes(1), Some(&bytes[2..]));
        assert_eq!(r.aligned_bytes(0), Some(&[][..]));
    }

    #[test]
    fn peek_zero_fills_past_the_end() {
        let bytes = [0b1010_0000u8];
        let mut r = BitReader::new(&bytes);
        r.consume(1);
        assert_eq!(r.peek_bits(3), 0b010);
        assert_eq!(r.peek_bits(12), 0b0100_0000_0000);
        assert_eq!(r.peek_bits(0), 0);
        r.consume(7);
        assert_eq!(r.peek_bits(BitReader::MAX_PEEK), 0);
        assert_eq!(r.get_bit(), None);
    }

    #[test]
    fn negabinary_roundtrip() {
        for i in [-1000, -1, 0, 1, 42, i32::MAX / 2, i32::MIN / 2] {
            assert_eq!(negabinary_to_int(int_to_negabinary(i)), i, "i={i}");
        }
    }

    #[test]
    fn negabinary_small_magnitudes_use_low_planes() {
        // Small |i| must occupy only low bit planes — the property bit-plane
        // truncation relies on.
        for i in -8i32..=8 {
            let u = int_to_negabinary(i);
            assert!(u < 64, "i={i} u={u:#x}");
        }
    }
}
