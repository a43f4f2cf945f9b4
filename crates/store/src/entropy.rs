//! Lossless entropy coding of coefficient sections (the EBPC-style stage
//! stacked on the transform stage).
//!
//! Chop's output is f32 DCT coefficients, and the container must preserve
//! them **bit-exactly** (the host/device numerical invariant extends to
//! disk), so the entropy stage is lossless: each f32 is split into its
//! four little-endian bytes, and each byte *plane* gets its own canonical
//! Huffman code (reusing [`aicomp_baselines::huffman`]). The planes have
//! wildly different entropy — the high byte carries sign + exponent and is
//! heavily skewed for DCT coefficients (magnitudes decay with frequency),
//! while mantissa planes are near-uniform — so per-plane codes capture
//! most of the available gain at byte granularity.
//!
//! A section (one frequency ring of one chunk) is a single bitstream:
//! plane 0 of every value, then plane 1, … plane 3, byte-aligned only at
//! the section end so sections can be located by the byte lengths in the
//! chunk prelude. Codes are chunk-wide (fitted over all rings) and stored
//! once per chunk as four 256-entry length tables — canonical codes
//! rebuild from lengths alone, as in JPEG/DEFLATE.
//!
//! Only the high plane has much structure: the fitted codes of the three
//! mantissa planes save a percent or two. [`PlaneCodes::fit`] therefore
//! gives a plane whose fitted code saves under 1/16 of its raw bits the
//! all-8 table, under which symbol `s` has code `s`: the plane's stream is
//! its raw bytes. Both directions move such a plane as a byte copy, and
//! the format is unchanged — to any reader it is one more canonical code.
//!
//! Neither direction builds a plane buffer: encode reads each plane's
//! bytes straight out of the f32 bit patterns, and decode ORs them back
//! into place.

use aicomp_baselines::bitio::{BitReader, BitWriter};
use aicomp_baselines::huffman::HuffmanCode;

use crate::{Result, StoreError};

/// Byte planes per f32 value.
pub const PLANES: usize = 4;

/// Serialized size of the four length tables.
pub const TABLES_LEN: usize = PLANES * 256;

/// A fitted code is kept only if it saves at least `1/RAW_SAVING_DIVISOR`
/// of its plane's raw bits; otherwise the plane is stored raw.
const RAW_SAVING_DIVISOR: u64 = 16;

/// The all-8 length table: symbol `s` has code `s`, so a plane coded with
/// it is its own bytes.
const RAW_LENGTHS: [u8; 256] = [8; 256];

/// The four per-plane canonical Huffman codes of one chunk.
#[derive(Debug, Clone)]
pub struct PlaneCodes {
    codes: Vec<HuffmanCode>,
    /// Planes whose table is all-8, read and written as byte copies.
    raw: [bool; PLANES],
}

impl PlaneCodes {
    /// Fit codes to the byte-plane frequencies of all values in `rings`.
    /// A plane whose fitted code saves less than 1/16 of its raw bits
    /// gets the all-8 table instead and is stored raw.
    pub fn fit<'a>(rings: impl IntoIterator<Item = &'a [f32]>) -> Result<PlaneCodes> {
        let mut freqs = [[0u64; 256]; PLANES];
        let mut any = false;
        for ring in rings {
            for v in ring {
                any = true;
                for (p, b) in v.to_le_bytes().into_iter().enumerate() {
                    freqs[p][b as usize] += 1;
                }
            }
        }
        if !any {
            // Degenerate but legal (empty chunk is rejected upstream);
            // give byte 0 a code so the tables stay well-formed.
            for f in freqs.iter_mut() {
                f[0] = 1;
            }
        }
        let mut codes = Vec::with_capacity(PLANES);
        for f in &freqs {
            let fitted = HuffmanCode::from_frequencies(f)?;
            let total: u64 = f.iter().sum();
            let fitted_bits: u64 =
                f.iter().zip(fitted.lengths()).map(|(&n, &l)| n * l as u64).sum();
            let saved = (8 * total).saturating_sub(fitted_bits);
            if RAW_SAVING_DIVISOR * saved < 8 * total {
                codes.push(HuffmanCode::from_lengths(&RAW_LENGTHS)?);
            } else {
                codes.push(fitted);
            }
        }
        Ok(Self::new(codes))
    }

    fn new(codes: Vec<HuffmanCode>) -> PlaneCodes {
        let raw = std::array::from_fn(|p| *codes[p].lengths() == RAW_LENGTHS);
        PlaneCodes { codes, raw }
    }

    /// The planes stored raw (their table is all-8), in ascending order.
    pub fn raw_planes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..PLANES).filter(|&p| self.raw[p])
    }

    /// Serialize as `PLANES × 256` code-length bytes.
    pub fn length_tables(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TABLES_LEN);
        for c in &self.codes {
            out.extend_from_slice(c.lengths());
        }
        out
    }

    /// Rebuild from [`Self::length_tables`] bytes (validates each table).
    pub fn from_length_tables(bytes: &[u8]) -> Result<PlaneCodes> {
        if bytes.len() != TABLES_LEN {
            return Err(StoreError::Format(format!(
                "huffman table block is {} bytes, expected {TABLES_LEN}",
                bytes.len()
            )));
        }
        let mut codes = Vec::with_capacity(PLANES);
        for p in 0..PLANES {
            let mut lengths = [0u8; 256];
            lengths.copy_from_slice(&bytes[p * 256..(p + 1) * 256]);
            codes.push(HuffmanCode::from_lengths(&lengths)?);
        }
        Ok(Self::new(codes))
    }

    /// Encode one section: plane-major, byte-aligned at the end. Each
    /// plane's symbols come straight from the values' bit patterns, so no
    /// plane buffer exists; the writer starts with room for the raw bytes.
    /// A raw plane's bytes are appended as they are.
    pub fn encode(&self, values: &[f32]) -> Result<Vec<u8>> {
        let mut w = BitWriter::with_capacity(values.len() * PLANES);
        for (p, code) in self.codes.iter().enumerate() {
            let shift = 8 * p;
            let symbols = values.iter().map(|v| (v.to_bits() >> shift) as u8);
            if self.raw[p] {
                w.put_bytes(symbols);
            } else {
                code.encode_symbols(symbols, &mut w)?;
            }
        }
        Ok(w.finish())
    }

    /// The section encode the fused one replaced: a `Vec<u8>` per plane,
    /// then one `put_bits` per symbol, with each plane's canonical codewords
    /// rebuilt here from its length table.
    #[cfg(test)]
    pub(crate) fn encode_per_symbol(&self, values: &[f32]) -> Result<Vec<u8>> {
        let mut w = BitWriter::new();
        for (p, code) in self.codes.iter().enumerate() {
            let lengths = code.lengths();
            let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
            order.sort_by_key(|&s| (lengths[s], s));
            let (mut codewords, mut next, mut prev_len) = ([0u64; 256], 0u64, 0u8);
            for s in order {
                next <<= lengths[s] - prev_len;
                prev_len = lengths[s];
                codewords[s] = next;
                next += 1;
            }
            let plane: Vec<u8> = values.iter().map(|v| v.to_le_bytes()[p]).collect();
            for b in plane {
                let len = lengths[b as usize];
                if len == 0 {
                    let msg = format!("symbol {b} has no code");
                    return Err(aicomp_baselines::BaselineError::Corrupt(msg).into());
                }
                w.put_bits(codewords[b as usize], len as u32);
            }
        }
        Ok(w.finish())
    }

    /// Decode a section of exactly `count` values.
    pub fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let mut words = vec![0u32; count];
        self.decode_words(bytes, &mut words)?;
        Ok(words.into_iter().map(f32::from_bits).collect())
    }

    /// Decode a section of exactly `words.len()` values into `words` as f32
    /// bit patterns. Each plane's bytes are ORed into place, so no plane
    /// buffer exists and a caller can reuse `words` from ring to ring.
    ///
    /// A raw plane on a byte boundary, with its bytes all in the section,
    /// is ORed in straight from them. Otherwise it goes through the
    /// general decode, so errors and the reader's position stay its own.
    pub(crate) fn decode_words(&self, bytes: &[u8], words: &mut [u32]) -> Result<()> {
        words.fill(0);
        let mut r = BitReader::new(bytes);
        for (p, code) in self.codes.iter().enumerate() {
            let shift = 8 * p;
            let plane = if self.raw[p] { r.aligned_bytes(words.len()) } else { None };
            if let Some(plane) = plane {
                for (w, &b) in words.iter_mut().zip(plane) {
                    *w |= (b as u32) << shift;
                }
                continue;
            }
            code.decode_into(&mut r, words, |w, b| *w |= (b as u32) << shift)?;
        }
        // A well-formed section is fully consumed up to its zero padding;
        // anything else means the stream desynced (corruption, or a caller
        // asking for the wrong value count).
        let left = r.remaining_bits();
        if left >= 8 {
            return Err(StoreError::Format(format!("section leaves {left} unread bits")));
        }
        if r.peek_bits(left as u32) != 0 {
            return Err(StoreError::Format("nonzero padding bits in section".into()));
        }
        Ok(())
    }

    /// The section decode the fused one replaced: a `Vec<u8>` per plane,
    /// the padding read bit by bit, then the planes zipped into values.
    #[cfg(test)]
    pub(crate) fn decode_per_plane(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let mut r = BitReader::new(bytes);
        let mut planes = Vec::with_capacity(PLANES);
        for code in &self.codes {
            planes.push(code.decode(&mut r, count)?);
        }
        if r.remaining_bits() >= 8 {
            return Err(StoreError::Format(format!(
                "section leaves {} unread bits",
                r.remaining_bits()
            )));
        }
        while let Some(bit) = r.get_bit() {
            if bit {
                return Err(StoreError::Format("nonzero padding bits in section".into()));
            }
        }
        Ok((0..count)
            .map(|i| f32::from_le_bytes([planes[0][i], planes[1][i], planes[2][i], planes[3][i]]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) / (1.0 + (i % 9) as f32)).collect()
    }

    /// An f32 bit pattern of `kind` from the random word `x`: ±0, a
    /// subnormal, a NaN with a payload, a small DCT-like value, or (4–7)
    /// any pattern at all.
    fn value_bits(kind: u8, x: u32) -> u32 {
        match kind {
            0 => x & 0x8000_0000,
            1 => x & 0x807f_ffff,
            2 => (x & 0x807f_ffff) | 0x7f80_0001,
            3 => ((x % 2001) as f32 / 64.0 - 15.625).to_bits(),
            _ => x,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fused `encode` writes the bytes the per-plane, per-symbol
        /// reference writes, and fails with the same error when a value
        /// has a byte the codes were not fitted to. Half the cases fit the
        /// codes to all values; the rest to a random prefix, possibly empty.
        #[test]
        fn plane_encode_matches_per_symbol_reference(
            words in prop::collection::vec((0u8..8, 0u32..=u32::MAX), 0..1100),
            (whole, prefix) in (0u8..2, 0usize..=1100),
        ) {
            let vals: Vec<f32> =
                words.iter().map(|&(kind, x)| f32::from_bits(value_bits(kind, x))).collect();
            let fit = if whole == 1 { vals.len() } else { prefix % (vals.len() + 1) };
            let codes = PlaneCodes::fit([&vals[..fit]]).unwrap();
            let got = codes.encode(&vals).map_err(|e| e.to_string());
            let want = codes.encode_per_symbol(&vals).map_err(|e| e.to_string());
            prop_assert_eq!(&got, &want);
            if let Ok(bytes) = got {
                let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&codes.decode(&bytes, vals.len()).unwrap()), bits(&vals));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The raw-plane fast paths match the general Huffman paths: `encode`
        /// writes the per-symbol reference's bytes, and `decode` returns the
        /// plane-by-plane reference's values or its error, on intact,
        /// truncated, extended, bit-flipped and padding-damaged sections and
        /// wrong value counts. Each plane's table is picked on its own —
        /// fitted to the values, fitted to a prefix of them (so some bytes
        /// may have no code), or all-8 — so a raw plane often starts off a
        /// byte boundary behind a fitted one.
        #[test]
        fn raw_plane_paths_match_general_huffman_path(
            words in prop::collection::vec((0u8..8, 0u32..=u32::MAX), 0..600),
            tables in prop::collection::vec(0u8..3, PLANES),
            prefix in 0usize..=600,
            mode in 0u8..6,
            at in 0u32..=u32::MAX,
        ) {
            let vals: Vec<f32> =
                words.iter().map(|&(kind, x)| f32::from_bits(value_bits(kind, x))).collect();
            let mut block = Vec::with_capacity(TABLES_LEN);
            for (p, &kind) in tables.iter().enumerate() {
                let fit_to = if kind == 1 { prefix % (vals.len() + 1) } else { vals.len() };
                let mut freqs = [0u64; 256];
                for v in &vals[..fit_to] {
                    freqs[v.to_le_bytes()[p] as usize] += 1;
                }
                freqs[0] += 1; // keep every table non-empty
                let fitted = HuffmanCode::from_frequencies(&freqs).unwrap();
                block.extend_from_slice(if kind == 2 { &RAW_LENGTHS } else { fitted.lengths() });
            }
            let codes = PlaneCodes::from_length_tables(&block).unwrap();
            let want_raw: Vec<usize> = (0..PLANES).filter(|&p| tables[p] == 2).collect();
            prop_assert_eq!(codes.raw_planes().collect::<Vec<_>>(), want_raw);

            let got = codes.encode(&vals).map_err(|e| e.to_string());
            prop_assert_eq!(&got, &codes.encode_per_symbol(&vals).map_err(|e| e.to_string()));
            let Ok(mut bytes) = got else { return Ok(()) };
            let mut count = vals.len();
            let at = at as usize;
            match mode {
                0 => {}
                1 => bytes.truncate(at % (bytes.len() + 1)),
                2 => bytes.extend(std::iter::repeat_n(at as u8, 1 + at % 3)),
                3 if !bytes.is_empty() => *bytes.last_mut().unwrap() |= 1 << (at % 8),
                4 if !bytes.is_empty() => {
                    let bit = at % (8 * bytes.len());
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                }
                _ if at.is_multiple_of(2) => count += 1 + at / 2 % 4,
                _ => count = count.saturating_sub(1),
            }
            let bits = |r: Result<Vec<f32>>| {
                r.map(|vs| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .map_err(|e| e.to_string())
            };
            let got = bits(codes.decode(&bytes, count));
            prop_assert_eq!(&got, &bits(codes.decode_per_plane(&bytes, count)));
            if mode == 0 {
                prop_assert_eq!(got, Ok(vals.iter().map(|v| v.to_bits()).collect()));
            }
        }
    }

    #[test]
    fn fit_stores_near_uniform_planes_raw() {
        // Mantissa bytes that cycle through every value, and a high byte
        // with a handful of exponents: the three low planes go raw, and a
        // raw plane's stream is its bytes.
        let vals: Vec<f32> = (0..4096u32)
            .map(|i| f32::from_bits(((126 + i % 3) << 23) | (i.wrapping_mul(0x9e37_79b9) >> 9)))
            .collect();
        let codes = PlaneCodes::fit([vals.as_slice()]).unwrap();
        assert_eq!(codes.raw_planes().collect::<Vec<_>>(), [0, 1, 2]);
        let bytes = codes.encode(&vals).unwrap();
        let low: Vec<u8> = vals.iter().map(|v| v.to_le_bytes()[0]).collect();
        assert_eq!(&bytes[..vals.len()], &low[..]);
        assert!(bytes.len() < 3 * vals.len() + vals.len() / 2, "{}", bytes.len());
        assert_eq!(codes.decode(&bytes, vals.len()).unwrap(), vals);
        let rebuilt = PlaneCodes::from_length_tables(&codes.length_tables()).unwrap();
        assert_eq!(rebuilt.raw_planes().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let vals = values(500);
        let codes = PlaneCodes::fit([vals.as_slice()]).unwrap();
        let bytes = codes.encode(&vals).unwrap();
        let back = codes.decode(&bytes, vals.len()).unwrap();
        let a: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_through_length_tables() {
        let vals = values(200);
        let codes = PlaneCodes::fit([vals.as_slice()]).unwrap();
        let bytes = codes.encode(&vals).unwrap();
        let rebuilt = PlaneCodes::from_length_tables(&codes.length_tables()).unwrap();
        assert_eq!(rebuilt.decode(&bytes, vals.len()).unwrap(), vals);
    }

    #[test]
    fn special_values_survive() {
        let vals = vec![0.0f32, -0.0, 1.0, -1.0, f32::MIN_POSITIVE, f32::MAX, f32::INFINITY, 1e-38];
        let codes = PlaneCodes::fit([vals.as_slice()]).unwrap();
        let back = codes.decode(&codes.encode(&vals).unwrap(), vals.len()).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dct_like_data_compresses() {
        // Magnitude-decaying coefficients: the exponent plane is skewed, so
        // the coded size must beat raw 4 bytes/value.
        let vals: Vec<f32> = (0..4000)
            .map(|i| 100.0 * (-(i % 64) as f32 / 8.0).exp() * ((i % 7) as f32 - 3.0))
            .collect();
        let codes = PlaneCodes::fit([vals.as_slice()]).unwrap();
        let bytes = codes.encode(&vals).unwrap();
        assert!(bytes.len() < vals.len() * 4, "{} vs {}", bytes.len(), vals.len() * 4);
    }

    #[test]
    fn truncated_section_errors() {
        let vals = values(100);
        let codes = PlaneCodes::fit([vals.as_slice()]).unwrap();
        let mut bytes = codes.encode(&vals).unwrap();
        bytes.truncate(bytes.len() / 4);
        assert!(codes.decode(&bytes, vals.len()).is_err());
    }

    #[test]
    fn bad_table_block_rejected() {
        assert!(PlaneCodes::from_length_tables(&[0u8; 100]).is_err());
        let mut tables = vec![0u8; TABLES_LEN];
        tables[0] = 16; // exceeds the 15-bit limit
        assert!(PlaneCodes::from_length_tables(&tables).is_err());
    }
}
