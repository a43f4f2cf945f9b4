//! Canonical Huffman coding — the other variable-length entropy stage the
//! paper names (§2.2: "JPEG compresses the quantized DCT matrix using a
//! variable-length encoding scheme, such as run-length encoding (RLE) or
//! Huffman coding"). Like RLE, it is built on exactly the bit operations
//! the accelerators lack (§3.1), which is the paper's point.
//!
//! Implementation: byte-alphabet Huffman with canonical code assignment
//! (codes reconstructible from the length table alone, as in JPEG/DEFLATE),
//! length-limited to 15 bits by frequency flattening.
//!
//! Encoding is one pass per run of symbols: [`HuffmanCode::encode_symbols`]
//! looks each symbol's `(code, len)` up and hands the run to
//! [`BitWriter::put_codes`], which keeps its accumulator in locals and
//! stores whole 32-bit words. A symbol without a code only sets a flag in
//! that loop; the error is built after the run.
//!
//! Decoding is table-driven, the libjpeg lookahead scheme: the next bits
//! of the stream, taken with [`BitReader::peek_bits`], index a 1024-entry
//! table that resolves every code of up to 10 bits in one lookup, and one
//! 57-bit peek serves several such codes in a row. The rare longer codes
//! fall to a per-length canonical range check. Both tables are built once
//! per code, when it is constructed.

use crate::bitio::{BitReader, BitWriter};
use crate::{BaselineError, Result};

const MAX_LEN: usize = 15;

/// Bits resolved by the primary decode table.
const PRIMARY_BITS: usize = 10;

/// Primary-table codes decoded from one lookahead window.
const GROUP: usize = BitReader::MAX_PEEK as usize / PRIMARY_BITS;

/// A canonical Huffman code over the byte alphabet.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Code length per symbol (0 = symbol absent).
    lengths: [u8; 256],
    /// Codeword per symbol (valid where length > 0).
    codes: [u16; 256],
    /// Indexed by the next `PRIMARY_BITS` bits: `(len << 8) | symbol` of
    /// the code of length ≤ `PRIMARY_BITS` they start with, or 0 if none.
    primary: [u16; 1 << PRIMARY_BITS],
    /// Per code length (slow path, lengths above `PRIMARY_BITS`): the
    /// first canonical code, how many codes follow it, and where their
    /// symbols start in `sorted`.
    first_code: [u16; MAX_LEN + 1],
    count: [u16; MAX_LEN + 1],
    first_index: [u16; MAX_LEN + 1],
    /// Coded symbols in canonical `(length, symbol)` order.
    sorted: [u8; 256],
}

impl HuffmanCode {
    /// Build from symbol frequencies (package-merge-free: plain Huffman,
    /// then flatten frequencies and retry if any code exceeds 15 bits).
    pub fn from_frequencies(freqs: &[u64; 256]) -> Result<HuffmanCode> {
        let mut adjusted: Vec<u64> = freqs.to_vec();
        loop {
            let lengths = huffman_lengths(&adjusted)?;
            if lengths.iter().all(|&l| (l as usize) <= MAX_LEN) {
                return Ok(Self::from_lengths_array(lengths));
            }
            // Flatten the distribution: halving (floor at 1) shortens the
            // deepest codes; converges because it approaches uniform.
            for f in adjusted.iter_mut().filter(|f| **f > 0) {
                *f = (*f / 2).max(1);
            }
        }
    }

    /// Build from an explicit length table (the decoder's entry point).
    pub fn from_lengths(lengths: &[u8; 256]) -> Result<HuffmanCode> {
        // Validate Kraft inequality for a prefix-free complete-enough code.
        let mut kraft = 0.0f64;
        for &l in lengths.iter() {
            if l as usize > MAX_LEN {
                return Err(BaselineError::Corrupt(format!("code length {l} exceeds {MAX_LEN}")));
            }
            if l > 0 {
                kraft += (2f64).powi(-(l as i32));
            }
        }
        if kraft > 1.0 + 1e-9 {
            return Err(BaselineError::Corrupt("length table violates Kraft inequality".into()));
        }
        Ok(Self::from_lengths_array(*lengths))
    }

    fn from_lengths_array(lengths: [u8; 256]) -> HuffmanCode {
        // Canonical assignment: sort by (length, symbol), assign
        // consecutive codes.
        let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
        order.sort_by_key(|&s| (lengths[s], s));
        let mut code = HuffmanCode {
            lengths,
            codes: [0; 256],
            primary: [0; 1 << PRIMARY_BITS],
            first_code: [0; MAX_LEN + 1],
            count: [0; MAX_LEN + 1],
            first_index: [0; MAX_LEN + 1],
            sorted: [0; 256],
        };
        let mut next = 0u16;
        let mut prev_len = 0u8;
        for (ix, &s) in order.iter().enumerate() {
            let len = lengths[s];
            next <<= len - prev_len;
            prev_len = len;
            code.codes[s] = next;
            code.sorted[ix] = s as u8;
            let l = len as usize;
            if code.count[l] == 0 {
                code.first_code[l] = next;
                code.first_index[l] = ix as u16;
            }
            code.count[l] += 1;
            if l <= PRIMARY_BITS {
                // Every primary index that starts with this code. Kraft ≤ 1
                // keeps the code prefix-free, so the ranges never overlap.
                let lo = (next as usize) << (PRIMARY_BITS - l);
                code.primary[lo..lo + (1 << (PRIMARY_BITS - l))]
                    .fill(((len as u16) << 8) | s as u16);
            }
            next += 1;
        }
        code
    }

    /// The length table (what a container format would store).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Encode a byte slice.
    pub fn encode(&self, data: &[u8], w: &mut BitWriter) -> Result<()> {
        self.encode_symbols(data.iter().copied(), w)
    }

    /// Encode a run of symbols in one [`BitWriter::put_codes`] pass — the
    /// form that lets a caller derive each symbol on the fly.
    ///
    /// A symbol without a code only sets a flag in the loop; after the run,
    /// the symbols are scanned again to name the first such one in the
    /// error. The writer then holds an unspecified prefix of the run.
    pub fn encode_symbols<I>(&self, symbols: I, w: &mut BitWriter) -> Result<()>
    where
        I: IntoIterator<Item = u8>,
        I::IntoIter: Clone,
    {
        let symbols = symbols.into_iter();
        let mut missing = false;
        w.put_codes(symbols.clone().map(|b| {
            let len = self.lengths[b as usize];
            missing |= len == 0;
            (self.codes[b as usize] as u32, len as u32)
        }));
        if missing {
            return Err(self.uncoded(symbols));
        }
        Ok(())
    }

    /// The error naming the first of `symbols` without a code.
    #[cold]
    fn uncoded(&self, mut symbols: impl Iterator<Item = u8>) -> BaselineError {
        let b = symbols.find(|&b| self.lengths[b as usize] == 0).expect("a symbol has no code");
        BaselineError::Corrupt(format!("symbol {b} has no code"))
    }

    /// Decode exactly `count` symbols.
    pub fn decode(&self, r: &mut BitReader, count: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; count];
        self.decode_into(r, &mut out, |slot, sym| *slot = sym)?;
        Ok(out)
    }

    /// Decode `out.len()` symbols, handing each to `put` with its slot —
    /// the form that lets a caller decode straight into its own layout.
    ///
    /// Errors as a bit-at-a-time decoder would: when the stream ends inside
    /// a code, "truncated Huffman stream" with the reader at end of stream;
    /// when 15 bits (the longest code length) match no code, "invalid
    /// Huffman code" with the reader past those bits. Slots before the
    /// failing symbol are written.
    pub fn decode_into<T>(
        &self,
        r: &mut BitReader,
        out: &mut [T],
        mut put: impl FnMut(&mut T, u8),
    ) -> Result<()> {
        let mut i = 0;
        while i < out.len() {
            // Fast path: one peek serves up to `GROUP` codes that resolve in
            // the primary table, with every bit they take inside the stream.
            if r.remaining_bits() >= GROUP * PRIMARY_BITS {
                let mut window = r.peek_bits(BitReader::MAX_PEEK) << (64 - BitReader::MAX_PEEK);
                let (mut used, stop) = (0, out.len().min(i + GROUP));
                while i < stop {
                    let entry = self.primary[(window >> (64 - PRIMARY_BITS)) as usize];
                    if entry == 0 {
                        break;
                    }
                    let len = (entry >> 8) as usize;
                    put(&mut out[i], entry as u8);
                    window <<= len;
                    used += len;
                    i += 1;
                }
                r.consume(used);
                if i == stop {
                    continue;
                }
            }
            // One code at a time: long codes, and the stream's last bits.
            let avail = r.remaining_bits();
            let window = r.peek_bits(MAX_LEN as u32) as usize;
            let entry = self.primary[window >> (MAX_LEN - PRIMARY_BITS)];
            let (len, sym) = match entry {
                0 => self.long_code(window),
                e => ((e >> 8) as usize, e as u8),
            };
            // Bits past the end peek as zeros, so a code found there is
            // only real if it fits in what remains.
            if len == 0 || len > avail {
                return Err(if len == 0 && avail >= MAX_LEN {
                    r.consume(MAX_LEN);
                    BaselineError::Corrupt("invalid Huffman code".into())
                } else {
                    r.consume(avail);
                    BaselineError::Corrupt("truncated Huffman stream".into())
                });
            }
            r.consume(len);
            put(&mut out[i], sym);
            i += 1;
        }
        Ok(())
    }

    /// Slow path: the code longer than `PRIMARY_BITS` that `window` (the
    /// next `MAX_LEN` bits) starts with, as `(length, symbol)`, or length 0
    /// when there is none.
    #[cold]
    fn long_code(&self, window: usize) -> (usize, u8) {
        for len in PRIMARY_BITS + 1..=MAX_LEN {
            let code = (window >> (MAX_LEN - len)) as u16;
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] {
                return (len, self.sorted[(self.first_index[len] + offset) as usize]);
            }
        }
        (0, 0)
    }

    /// Expected bits per symbol under `freqs`.
    pub fn expected_bits(&self, freqs: &[u64; 256]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        freqs.iter().enumerate().map(|(s, &f)| f as f64 * self.lengths[s] as f64).sum::<f64>()
            / total as f64
    }
}

/// Plain Huffman code lengths via the classic heap construction (arena
/// nodes; the heap stores indices so no ordering on the tree is needed).
fn huffman_lengths(freqs: &[u64]) -> Result<[u8; 256]> {
    enum Node {
        Leaf(usize),
        Internal(usize, usize),
    }
    let mut arena: Vec<Node> = Vec::new();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            arena.push(Node::Leaf(s));
            heap.push(std::cmp::Reverse((f, arena.len() - 1)));
        }
    }
    let mut lengths = [0u8; 256];
    match heap.len() {
        0 => return Ok(lengths),
        1 => {
            let std::cmp::Reverse((_, ix)) = heap.pop().expect("one element");
            if let Node::Leaf(s) = arena[ix] {
                lengths[s] = 1; // single symbol: 1-bit code by convention
            }
            return Ok(lengths);
        }
        _ => {}
    }
    while heap.len() > 1 {
        let std::cmp::Reverse((f1, n1)) = heap.pop().expect("len > 1");
        let std::cmp::Reverse((f2, n2)) = heap.pop().expect("len > 1");
        arena.push(Node::Internal(n1, n2));
        heap.push(std::cmp::Reverse((f1 + f2, arena.len() - 1)));
    }
    let std::cmp::Reverse((_, root)) = heap.pop().expect("one root");
    // Iterative depth assignment.
    let mut stack = vec![(root, 0u8)];
    while let Some((ix, depth)) = stack.pop() {
        match arena[ix] {
            Node::Leaf(s) => lengths[s] = depth.max(1),
            Node::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial decoder the lookup tables replaced: one bit at a
    /// time, a linear scan of the codes of each length. The reference the
    /// table-driven decoder must match in output, error and position.
    #[allow(clippy::needless_range_loop)] // per-length tables indexed by code length
    fn decode_bit_serial(code: &HuffmanCode, r: &mut BitReader, count: usize) -> Result<Vec<u8>> {
        let mut by_len: Vec<Vec<(u16, u8)>> = vec![Vec::new(); MAX_LEN + 1];
        for s in 0..256 {
            let l = code.lengths[s] as usize;
            if l > 0 {
                by_len[l].push((code.codes[s], s as u8));
            }
        }
        let mut out = Vec::with_capacity(count);
        'symbols: for _ in 0..count {
            let mut word = 0u16;
            for len in 1..=MAX_LEN {
                let bit = r
                    .get_bit()
                    .ok_or_else(|| BaselineError::Corrupt("truncated Huffman stream".into()))?;
                word = (word << 1) | (bit as u16);
                if let Some(&(_, sym)) = by_len[len].iter().find(|&&(c, _)| c == word) {
                    out.push(sym);
                    continue 'symbols;
                }
            }
            return Err(BaselineError::Corrupt("invalid Huffman code".into()));
        }
        Ok(out)
    }

    /// A length table of `kind`, from `picks` of `(symbol, length)`:
    /// - 0: the picked lengths, the shortest lengthened until Kraft ≤ 1 —
    ///   usually an incomplete code (Kraft < 1), often with 11–15-bit codes;
    /// - 1: a complete code fitted to frequencies halving pick by pick,
    ///   which the 15-bit limit flattens, so long picks give 11–15-bit codes;
    /// - 2: a single symbol, of the first pick's length;
    /// - 3: no symbols at all;
    /// - 4: every symbol at 8 bits, the table of a plane stored raw: symbol
    ///   `s` has code `s`, and every 8-bit window is a code.
    fn length_table(kind: u8, picks: &[(u8, u8)]) -> [u8; 256] {
        let mut lengths = [0u8; 256];
        match kind {
            0 => {
                for &(s, l) in picks {
                    lengths[s as usize] = l;
                }
                let kraft = |ls: &[u8; 256]| -> u32 {
                    ls.iter().filter(|&&l| l > 0).map(|&l| 1u32 << (MAX_LEN - l as usize)).sum()
                };
                while kraft(&lengths) > 1 << MAX_LEN {
                    let s = (0..256)
                        .filter(|&s| lengths[s] > 0 && (lengths[s] as usize) < MAX_LEN)
                        .min_by_key(|&s| lengths[s])
                        .expect("at most 256 codes fit in 15 bits");
                    lengths[s] += 1;
                }
            }
            1 => {
                let mut freqs = [0u64; 256];
                for (i, &(s, _)) in picks.iter().enumerate() {
                    freqs[s as usize] = 1u64 << (48 - i.min(48));
                }
                lengths = *HuffmanCode::from_frequencies(&freqs).unwrap().lengths();
            }
            2 => lengths[picks[0].0 as usize] = picks[0].1,
            3 => {}
            _ => lengths = [8; 256],
        }
        lengths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The table-driven decoder returns what the bit-serial reference
        /// returns — the same symbols or the same error — and leaves the
        /// reader at the same bit, on valid, truncated, bit-flipped and
        /// garbage streams, and when asked for more symbols than were coded.
        #[test]
        fn lut_decode_matches_bit_serial_reference(
            kind in 0u8..5,
            picks in prop::collection::vec((0u8..=255, 1u8..=15), 1..48),
            msg in prop::collection::vec(0u16..=u16::MAX, 0..300),
            mode in 0u8..5,
            at in 0u32..=u32::MAX,
        ) {
            let code = HuffmanCode::from_lengths(&length_table(kind, &picks)).unwrap();
            let coded: Vec<u8> = (0..=255u8).filter(|&s| code.lengths[s as usize] > 0).collect();
            let data: Vec<u8> = if coded.is_empty() {
                Vec::new()
            } else {
                msg.iter().map(|&m| coded[m as usize % coded.len()]).collect()
            };
            let mut w = BitWriter::new();
            code.encode(&data, &mut w).unwrap();
            let mut bytes = w.finish();
            let mut count = data.len();
            let at = at as usize;
            match mode {
                0 => {}
                1 => bytes.truncate(at % (bytes.len() + 1)),
                2 if !bytes.is_empty() => {
                    for k in 0..1 + at % 3 {
                        let bit = (at / 3 + 977 * k) % (8 * bytes.len());
                        bytes[bit / 8] ^= 0x80 >> (bit % 8);
                    }
                }
                3 => count += 1 + at % 8,
                _ => bytes = msg.iter().map(|&m| m as u8).collect(),
            }
            let (mut fast, mut slow) = (BitReader::new(&bytes), BitReader::new(&bytes));
            let got = code.decode(&mut fast, count).map_err(|e| e.to_string());
            let want = decode_bit_serial(&code, &mut slow, count).map_err(|e| e.to_string());
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast.position_bits(), slow.position_bits());
        }
    }

    #[test]
    fn long_codes_take_the_slow_path() {
        let picks: Vec<(u8, u8)> = (0..40u8).map(|s| (s, 1)).collect();
        let code = HuffmanCode::from_lengths(&length_table(1, &picks)).unwrap();
        assert_eq!(code.lengths.iter().max(), Some(&(MAX_LEN as u8)));
        assert!(code.lengths.iter().any(|&l| l as usize == PRIMARY_BITS + 1));
        let data: Vec<u8> = (0..40u8).rev().cycle().take(400).collect();
        let mut w = BitWriter::new();
        code.encode(&data, &mut w).unwrap();
        let bytes = w.finish();
        assert_eq!(code.decode(&mut BitReader::new(&bytes), data.len()).unwrap(), data);
    }

    #[test]
    fn all_eight_code_is_the_identity() {
        // Canonical order over 256 equal lengths gives symbol s the code s,
        // so the coded stream is the input bytes themselves.
        let code = HuffmanCode::from_lengths(&length_table(4, &[(0, 1)])).unwrap();
        let data: Vec<u8> = (0..=255u8).rev().chain(0..=255).collect();
        let mut w = BitWriter::new();
        code.encode(&data, &mut w).unwrap();
        let bytes = w.finish();
        assert_eq!(bytes, data);
        assert_eq!(code.decode(&mut BitReader::new(&bytes), data.len()).unwrap(), data);
    }

    #[test]
    fn decode_errors_name_their_cause() {
        // A single 1-bit code "0": a run of 1-bits matches nothing.
        let mut lengths = [0u8; 256];
        lengths[7] = 1;
        let code = HuffmanCode::from_lengths(&lengths).unwrap();
        let mut r = BitReader::new(&[0x00, 0xFF, 0xFF]);
        let err = code.decode(&mut r, 9).unwrap_err().to_string();
        assert!(err.contains("invalid Huffman code"), "{err}");
        assert_eq!(r.position_bits(), 8 + MAX_LEN);
        let mut r = BitReader::new(&[0x00, 0xFF]);
        let err = code.decode(&mut r, 9).unwrap_err().to_string();
        assert!(err.contains("truncated Huffman stream"), "{err}");
        assert_eq!(r.position_bits(), 16);
    }

    fn freq_of(data: &[u8]) -> [u64; 256] {
        let mut f = [0u64; 256];
        for &b in data {
            f[b as usize] += 1;
        }
        f
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let code = HuffmanCode::from_frequencies(&freq_of(data)).unwrap();
        let mut w = BitWriter::new();
        code.encode(data, &mut w).unwrap();
        let bytes = w.finish();
        // Decode via the canonical length table only (as a container would).
        let decoder = HuffmanCode::from_lengths(code.lengths()).unwrap();
        let mut r = BitReader::new(&bytes);
        decoder.decode(&mut r, data.len()).unwrap()
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, repeatedly the the the";
        assert_eq!(roundtrip(data), data);
    }

    #[test]
    fn roundtrip_single_symbol() {
        let data = vec![42u8; 100];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros (like quantized DCT tails) → well under 8 bits/symbol.
        let mut data = vec![0u8; 900];
        data.extend((1..=100u8).collect::<Vec<_>>());
        let code = HuffmanCode::from_frequencies(&freq_of(&data)).unwrap();
        let bps = code.expected_bits(&freq_of(&data));
        assert!(bps < 2.5, "expected bits/symbol {bps}");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let data: Vec<u8> = (0..200u8).flat_map(|b| vec![b; (b as usize % 7) + 1]).collect();
        let code = HuffmanCode::from_frequencies(&freq_of(&data)).unwrap();
        for a in 0..256usize {
            for b in 0..256usize {
                let (la, lb) = (code.lengths[a], code.lengths[b]);
                if a != b && la > 0 && lb > 0 && la <= lb {
                    let prefix = code.codes[b] >> (lb - la);
                    assert!(
                        prefix != code.codes[a] || la == lb && code.codes[a] != code.codes[b],
                        "code {a} is a prefix of {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_length_tables_rejected() {
        let mut lengths = [1u8; 256]; // wildly violates Kraft
        assert!(HuffmanCode::from_lengths(&lengths).is_err());
        lengths = [0u8; 256];
        lengths[0] = 16; // too long
        assert!(HuffmanCode::from_lengths(&lengths).is_err());
    }

    #[test]
    fn unknown_symbol_rejected_at_encode() {
        let data = vec![1u8, 1, 1];
        let code = HuffmanCode::from_frequencies(&freq_of(&data)).unwrap();
        let mut w = BitWriter::new();
        assert!(code.encode(&[2u8], &mut w).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let data = b"hello world hello world";
        let code = HuffmanCode::from_frequencies(&freq_of(data)).unwrap();
        let mut w = BitWriter::new();
        code.encode(data, &mut w).unwrap();
        let mut bytes = w.finish();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        assert!(code.decode(&mut r, data.len()).is_err());
    }

    #[test]
    fn beats_fixed_rate_on_dct_like_data() {
        // Quantized-DCT-like bytes: mostly zero, geometric tail.
        let mut data = Vec::new();
        for i in 0..2000usize {
            let v = match i % 16 {
                0 => (i % 11) as u8 + 1,
                1 | 2 => 1,
                _ => 0,
            };
            data.push(v);
        }
        let code = HuffmanCode::from_frequencies(&freq_of(&data)).unwrap();
        let mut w = BitWriter::new();
        code.encode(&data, &mut w).unwrap();
        let bits = w.bit_len();
        assert!(bits < data.len() * 8 / 3, "{bits} bits for {} bytes", data.len());
    }
}
