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

/// The four per-plane canonical Huffman codes of one chunk.
#[derive(Debug, Clone)]
pub struct PlaneCodes {
    codes: Vec<HuffmanCode>,
}

impl PlaneCodes {
    /// Fit codes to the byte-plane frequencies of all values in `rings`.
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
        let codes = freqs
            .iter()
            .map(HuffmanCode::from_frequencies)
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(PlaneCodes { codes })
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
        Ok(PlaneCodes { codes })
    }

    /// Encode one section: plane-major, byte-aligned at the end. Each
    /// plane's symbols come straight from the values' bit patterns, so no
    /// plane buffer exists; the writer starts with room for the raw bytes.
    pub fn encode(&self, values: &[f32]) -> Result<Vec<u8>> {
        let mut w = BitWriter::with_capacity(values.len() * PLANES);
        for (p, code) in self.codes.iter().enumerate() {
            let shift = 8 * p;
            code.encode_symbols(values.iter().map(|v| (v.to_bits() >> shift) as u8), &mut w)?;
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
    pub(crate) fn decode_words(&self, bytes: &[u8], words: &mut [u32]) -> Result<()> {
        words.fill(0);
        let mut r = BitReader::new(bytes);
        for (p, code) in self.codes.iter().enumerate() {
            let shift = 8 * p;
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
