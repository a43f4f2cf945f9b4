//! Chunk encoding/decoding: Chop coefficients → progressive ring sections
//! → entropy-coded payload (and back).
//!
//! Chunk layout (offsets relative to the chunk's index entry):
//!
//! ```text
//! ring_count   u16                    == the codec's chop factor
//! section_len  u32 × ring_count       bytes per ring section
//! tables       4 × 256 bytes          per-plane Huffman code lengths
//! sections     ring 0 … ring cf−1     byte-aligned Huffman bitstreams
//! ```
//!
//! The prelude (everything before the sections) has a length computable
//! from `cf` alone, so a progressive reader fetches the prelude, learns
//! the section lengths, and then reads only the ring prefix it needs.
//! Those *stored bytes* — the prelude plus rings `0..read_cf` — are what a
//! [`ChunkDecoder`] turns back into coefficients or samples, whether they
//! came off the disk or over the wire.

use std::collections::HashMap;

use aicomp_core::Codec;
use aicomp_tensor::Tensor;

use crate::bands::{gather_rings, ring_values, scatter_ring};
use crate::entropy::{PlaneCodes, PLANES, TABLES_LEN};
use crate::layout::Header;
use crate::{Result, StoreError};

/// Byte length of a chunk's prelude for chop factor `cf`.
pub fn prelude_len(cf: usize) -> usize {
    2 + 4 * cf + TABLES_LEN
}

/// Largest chunk [`encode_chunk`] can write for `values` coefficients at
/// chop factor `cf`: every byte-plane symbol at the 15-bit Huffman code
/// limit, each section padded to a whole byte, plus the prelude. `None`
/// when even that count overflows.
pub(crate) fn max_chunk_len(values: u128, cf: usize) -> Option<u128> {
    let bits = values.checked_mul(PLANES as u128 * 15)?;
    Some(bits.div_ceil(8) + (cf + prelude_len(cf)) as u128)
}

/// Parsed chunk prelude.
#[derive(Debug, Clone)]
pub struct ChunkPrelude {
    /// Byte length of each ring section.
    pub section_lens: Vec<u32>,
    /// The chunk's entropy codes.
    pub codes: PlaneCodes,
}

impl ChunkPrelude {
    /// Bytes to read past the prelude to cover rings `0..read_cf`.
    pub fn prefix_len(&self, read_cf: usize) -> usize {
        self.section_lens[..read_cf].iter().map(|&l| l as usize).sum()
    }
}

/// Encode one chunk: `[S, C, cs, cs]` Chop coefficients → chunk bytes.
pub fn encode_chunk(coeffs: &Tensor, cf: usize) -> Result<Vec<u8>> {
    let rings = gather_rings(coeffs, cf)?;
    let codes = PlaneCodes::fit(rings.iter().map(|r| r.as_slice()))?;
    let sections: Vec<Vec<u8>> = rings.iter().map(|r| codes.encode(r)).collect::<Result<_>>()?;

    let payload: usize = sections.iter().map(|s| s.len()).sum();
    let mut bytes = Vec::with_capacity(prelude_len(cf) + payload);
    bytes.extend_from_slice(&(cf as u16).to_le_bytes());
    for s in &sections {
        let len = u32::try_from(s.len()).map_err(|_| {
            StoreError::InvalidArg(format!("a {}-byte section overflows its u32 length", s.len()))
        })?;
        bytes.extend_from_slice(&len.to_le_bytes());
    }
    bytes.extend_from_slice(&codes.length_tables());
    for s in &sections {
        bytes.extend_from_slice(s);
    }
    Ok(bytes)
}

/// Parse a chunk prelude (`bytes` must be exactly [`prelude_len`] long).
pub fn decode_prelude(bytes: &[u8], header: &Header) -> Result<ChunkPrelude> {
    let cf = header.cf();
    if bytes.len() != prelude_len(cf) {
        return Err(StoreError::Format(format!(
            "chunk prelude is {} bytes, expected {}",
            bytes.len(),
            prelude_len(cf)
        )));
    }
    let ring_count = u16::from_le_bytes(bytes[0..2].try_into().expect("sized")) as usize;
    if ring_count != cf {
        return Err(StoreError::Format(format!(
            "chunk declares {ring_count} rings, header chop factor is {cf}"
        )));
    }
    let mut section_lens = Vec::with_capacity(cf);
    for r in 0..cf {
        let at = 2 + 4 * r;
        section_lens.push(u32::from_le_bytes(bytes[at..at + 4].try_into().expect("sized")));
    }
    let codes = PlaneCodes::from_length_tables(&bytes[2 + 4 * cf..])?;
    Ok(ChunkPrelude { section_lens, codes })
}

/// Decode rings `0..read_cf` from `section_bytes` (the bytes immediately
/// after the prelude, at least [`ChunkPrelude::prefix_len`] of them) into
/// the `[S, C, CF'·nb, CF'·nb]` coefficient tensor.
pub fn decode_sections(
    prelude: &ChunkPrelude,
    section_bytes: &[u8],
    header: &Header,
    samples: usize,
    read_cf: usize,
) -> Result<Tensor> {
    let cf = header.cf();
    if read_cf == 0 || read_cf > cf {
        return Err(StoreError::InvalidArg(format!("read chop factor {read_cf} outside 1..={cf}")));
    }
    if section_bytes.len() < prelude.prefix_len(read_cf) {
        return Err(StoreError::Format("chunk sections truncated".into()));
    }
    // Each ring decodes into one reused scratch of f32 bit patterns and is
    // scattered from there straight into the coefficient buffer.
    let (channels, nb) = (header.channels as usize, header.blocks_per_side());
    let cs = read_cf * nb;
    let mut data = vec![0.0f32; samples * channels * cs * cs];
    let mut words = Vec::with_capacity(ring_values(samples, channels, nb, read_cf - 1));
    let mut at = 0usize;
    for (r, &len) in prelude.section_lens.iter().enumerate().take(read_cf) {
        let len = len as usize;
        words.resize(ring_values(samples, channels, nb, r), 0);
        prelude.codes.decode_words(&section_bytes[at..at + len], &mut words)?;
        scatter_ring(&mut data, &words, f32::from_bits, nb, read_cf, r);
        at += len;
    }
    Ok(Tensor::from_vec(data, [samples, channels, cs, cs])
        .map_err(aicomp_core::CoreError::Tensor)?)
}

/// The one decoder of stored chunk bytes: the prelude plus rings
/// `0..read_cf` (the whole chunk at the stored chop factor), as
/// [`crate::DczReader::read_chunk_bytes_at`] returns them and a served
/// `Chunk` reply carries them. It owns the container header and the
/// per-fidelity codecs, built lazily through the registry (`read_cf →
/// codec`), so decoding a chunk at a fidelity it has seen costs no setup.
#[derive(Debug)]
pub struct ChunkDecoder {
    header: Header,
    codecs: HashMap<usize, Box<dyn Codec>>,
}

impl ChunkDecoder {
    /// A decoder for chunks of the container `header` describes (which
    /// must be valid: see [`Header::validate`]).
    pub fn new(header: Header) -> ChunkDecoder {
        ChunkDecoder { header, codecs: HashMap::new() }
    }

    /// Decode stored bytes holding `samples` samples into the
    /// `[S, C, CF'·nb, CF'·nb]` coefficients at `read_cf`. The bytes must be
    /// exactly the prelude plus the sections of rings `0..read_cf`.
    pub fn coefficients(&self, bytes: &[u8], samples: usize, read_cf: usize) -> Result<Tensor> {
        self.coefficients_with(None, bytes, samples, read_cf)
    }

    /// [`Self::coefficients`], then the codec's inverse at `read_cf`:
    /// `[S, C, n, n]` samples, bit-identical to the host codec's
    /// `decompress`.
    pub fn decompress(&mut self, bytes: &[u8], samples: usize, read_cf: usize) -> Result<Tensor> {
        self.decompress_with(None, bytes, samples, read_cf)
    }

    /// [`Self::coefficients`] with the prelude already parsed from `bytes`
    /// when `prelude` is given (a prefix read parses it to learn how much
    /// to read).
    pub(crate) fn coefficients_with(
        &self,
        prelude: Option<ChunkPrelude>,
        bytes: &[u8],
        samples: usize,
        read_cf: usize,
    ) -> Result<Tensor> {
        let cf = self.header.cf();
        if read_cf == 0 || read_cf > cf {
            return Err(StoreError::InvalidArg(format!(
                "read chop factor {read_cf} outside 1..={cf}"
            )));
        }
        if samples == 0 || samples > self.header.chunk_size as usize {
            return Err(StoreError::Format(format!(
                "a chunk of {samples} samples, outside 1..={}",
                self.header.chunk_size
            )));
        }
        let plen = prelude_len(cf);
        if bytes.len() < plen {
            return Err(StoreError::Format("chunk shorter than its prelude".into()));
        }
        let prelude = match prelude {
            Some(p) => p,
            None => decode_prelude(&bytes[..plen], &self.header)?,
        };
        let expected = plen + prelude.prefix_len(read_cf);
        if bytes.len() != expected {
            return Err(StoreError::Format(format!(
                "chunk bytes are {} long, the prelude promises {expected} for rings 0..{read_cf}",
                bytes.len()
            )));
        }
        // Every value costs at least one bit in each of its four planes, so
        // sections can hold at most two values per byte: a bound on the
        // decode buffer before it is allocated, whoever sent the geometry.
        let side = (read_cf * self.header.blocks_per_side()) as u128;
        let values = samples as u128 * u128::from(self.header.channels) * side * side;
        if values > 2 * (bytes.len() - plen) as u128 {
            return Err(StoreError::Format(format!(
                "{values} coefficients cannot fit in {} section bytes",
                bytes.len() - plen
            )));
        }
        decode_sections(&prelude, &bytes[plen..], &self.header, samples, read_cf)
    }

    /// [`Self::decompress`] over [`Self::coefficients_with`].
    pub(crate) fn decompress_with(
        &mut self,
        prelude: Option<ChunkPrelude>,
        bytes: &[u8],
        samples: usize,
        read_cf: usize,
    ) -> Result<Tensor> {
        let coeffs = self.coefficients_with(prelude, bytes, samples, read_cf)?;
        if !self.codecs.contains_key(&read_cf) {
            // Same codec family at the read fidelity, built through the one
            // registry — any family the header can carry decodes here.
            let c = self.header.codec.with_chop_factor(read_cf).build()?;
            self.codecs.insert(read_cf, c);
        }
        Ok(self.codecs[&read_cf].decompress(&coeffs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bands::assemble_rings;
    use aicomp_core::{ChopCompressor, CodecSpec};
    use proptest::prelude::*;

    /// The decode the fused path replaced: a `Vec<f32>` per ring from
    /// `decode_ring`, then `assemble_rings`.
    fn decode_sections_per_ring(
        prelude: &ChunkPrelude,
        section_bytes: &[u8],
        header: &Header,
        samples: usize,
        read_cf: usize,
        decode_ring: impl Fn(&PlaneCodes, &[u8], usize) -> Result<Vec<f32>>,
    ) -> Result<Tensor> {
        let cf = header.cf();
        if read_cf == 0 || read_cf > cf {
            return Err(StoreError::InvalidArg(format!(
                "read chop factor {read_cf} outside 1..={cf}"
            )));
        }
        if section_bytes.len() < prelude.prefix_len(read_cf) {
            return Err(StoreError::Format("chunk sections truncated".into()));
        }
        let (channels, nb) = (header.channels as usize, header.blocks_per_side());
        let mut rings = Vec::with_capacity(read_cf);
        let mut at = 0usize;
        for (r, &len) in prelude.section_lens.iter().enumerate().take(read_cf) {
            let len = len as usize;
            let section = &section_bytes[at..at + len];
            let count = ring_values(samples, channels, nb, r);
            rings.push(decode_ring(&prelude.codes, section, count)?);
            at += len;
        }
        assemble_rings(&rings, samples, channels, nb, read_cf)
    }

    /// A decode's outcome in comparable form: dims and coefficient bits,
    /// or the error's text.
    fn outcome(r: Result<Tensor>) -> std::result::Result<(Vec<usize>, Vec<u32>), String> {
        r.map(|t| (t.dims().to_vec(), t.data().iter().map(|v| v.to_bits()).collect()))
            .map_err(|e| e.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Fused `decode_sections` equals per-ring `PlaneCodes::decode` +
        /// `assemble_rings` bit for bit at every fidelity, and fails with the same error on
        /// truncated, bit-flipped or misframed sections and wrong sample
        /// counts.
        #[test]
        fn fused_decode_sections_matches_per_ring_reference(
            (samples, channels, n) in (1usize..4, 1u32..3, 1usize..3),
            cf in 1usize..=8,
            rc in 0usize..64,
            seed in prop::collection::vec(0u32..=u32::MAX, 16),
            dct_like in 0u8..2,
            mode in 0u8..5,
            at in 0u32..=u32::MAX,
        ) {
            let n = 8 * n;
            // Mostly a stored fidelity; now and then one outside 1..=cf.
            let read_cf = match rc % 16 {
                0 => 0,
                1 => cf + 1,
                _ => 1 + rc % cf,
            };
            let h = header(n as u32, channels, cf as u32);
            let cs = cf * n / 8;
            let total = samples * channels as usize * cs * cs;
            let vals: Vec<f32> = (0..total)
                .map(|i| {
                    let v = seed[i % 16].wrapping_mul(2 * i as u32 + 1).rotate_left(i as u32 / 16);
                    if dct_like == 1 {
                        ((v % 61) as f32 - 30.0) / (1 + i % cs) as f32
                    } else {
                        f32::from_bits(v)
                    }
                })
                .collect();
            let y = Tensor::from_vec(vals, [samples, channels as usize, cs, cs]).unwrap();
            let bytes = encode_chunk(&y, cf).unwrap();
            let plen = prelude_len(cf);
            let mut prelude = decode_prelude(&bytes[..plen], &h).unwrap();
            let mut sections = bytes[plen..].to_vec();
            let mut s = samples;
            let at = at as usize;
            match mode {
                0 => {}
                1 => sections.truncate(at % (sections.len() + 1)),
                2 => {
                    let bit = at % (8 * sections.len());
                    sections[bit / 8] ^= 0x80 >> (bit % 8);
                }
                3 => s = if at.is_multiple_of(2) { samples + 1 } else { samples - 1 },
                _ => {
                    // Move a section boundary: one ring loses bytes to the next.
                    let r = at % cf;
                    let shift = (1 + at / 8 % 3) as u32;
                    prelude.section_lens[r] = prelude.section_lens[r].saturating_sub(shift);
                    if r + 1 < cf {
                        prelude.section_lens[r + 1] += shift;
                    }
                }
            }
            let got = outcome(decode_sections(&prelude, &sections, &h, s, read_cf));
            // Against the public per-ring decode, and against the
            // plane-by-plane decode it replaced.
            for ring in [PlaneCodes::decode, PlaneCodes::decode_per_plane] {
                let want = decode_sections_per_ring(&prelude, &sections, &h, s, read_cf, ring);
                prop_assert_eq!(&got, &outcome(want));
            }
        }
    }

    fn header(n: u32, channels: u32, cf: u32) -> Header {
        Header {
            codec: CodecSpec::Dct2d { n: n as usize, cf: cf as usize },
            channels,
            sample_count: 0,
            chunk_size: 8,
            chunk_count: 0,
        }
    }

    fn coeffs(samples: usize, channels: usize, n: usize, cf: usize) -> Tensor {
        let x = Tensor::from_vec(
            (0..samples * channels * n * n).map(|i| ((i * 23 % 89) as f32) / 11.0 - 4.0).collect(),
            [samples, channels, n, n],
        )
        .unwrap();
        ChopCompressor::new(n, cf).unwrap().compress(&x).unwrap()
    }

    #[test]
    fn chunk_roundtrip_is_bit_exact() {
        let y = coeffs(5, 2, 16, 4);
        let h = header(16, 2, 4);
        let bytes = encode_chunk(&y, 4).unwrap();
        let back = ChunkDecoder::new(h).coefficients(&bytes, 5, 4).unwrap();
        assert_eq!(back.dims(), y.dims());
        let a: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn progressive_decode_matches_direct_chop() {
        let n = 16;
        let x = Tensor::from_vec(
            (0..2 * n * n).map(|i| ((i * 13 % 71) as f32) / 7.0).collect(),
            [2usize, 1, n, n],
        )
        .unwrap();
        let full = ChopCompressor::new(n, 6).unwrap().compress(&x).unwrap();
        let h = header(n as u32, 1, 6);
        let bytes = encode_chunk(&full, 6).unwrap();
        let plen = prelude_len(6);
        let prelude = decode_prelude(&bytes[..plen], &h).unwrap();
        for read_cf in 1..=6usize {
            let prefix = prelude.prefix_len(read_cf);
            // Only the prefix bytes are handed over — a reader never has
            // the rest.
            let got =
                decode_sections(&prelude, &bytes[plen..plen + prefix], &h, 2, read_cf).unwrap();
            let want = ChopCompressor::new(n, read_cf).unwrap().compress(&x).unwrap();
            let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "read_cf={read_cf}");
        }
    }

    #[test]
    fn malformed_chunks_error_not_panic() {
        let y = coeffs(3, 1, 16, 3);
        let h = header(16, 1, 3);
        let bytes = encode_chunk(&y, 3).unwrap();
        let d = ChunkDecoder::new(h);

        // Truncations at every structural boundary.
        for cut in [0, 1, prelude_len(3) - 1, prelude_len(3), bytes.len() - 1] {
            assert!(d.coefficients(&bytes[..cut], 3, 3).is_err(), "cut={cut}");
        }
        // Wrong declared ring count.
        let mut wrong = bytes.clone();
        wrong[0] = 7;
        assert!(d.coefficients(&wrong, 3, 3).is_err());
        // Wrong sample count → ring size mismatch; none, or more than a
        // chunk holds, is refused before any decode.
        for samples in [0, 4, 9, usize::MAX] {
            assert!(d.coefficients(&bytes, samples, 3).is_err(), "{samples} samples");
        }
        // A geometry the section bytes cannot hold is refused before the
        // decode buffer is allocated.
        let huge = Header { channels: u32::MAX, ..h };
        let err = ChunkDecoder::new(huge).coefficients(&bytes, 3, 3).unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
        // Fidelity outside the stored range.
        assert!(d.coefficients(&bytes, 3, 4).is_err());
        assert!(d.coefficients(&bytes, 3, 0).is_err());
        // A whole chunk is not the stored bytes of a coarser read.
        assert!(d.coefficients(&bytes, 3, 2).is_err());
    }

    #[test]
    fn stored_prefix_bytes_decode_like_a_direct_chop() {
        let n = 16;
        let x = Tensor::from_vec(
            (0..2 * n * n).map(|i| ((i * 29 % 67) as f32) / 5.0 - 6.0).collect(),
            [2usize, 1, n, n],
        )
        .unwrap();
        let bytes =
            encode_chunk(&ChopCompressor::new(n, 4).unwrap().compress(&x).unwrap(), 4).unwrap();
        let h = header(n as u32, 1, 4);
        let mut d = ChunkDecoder::new(h);
        let prelude = decode_prelude(&bytes[..prelude_len(4)], &h).unwrap();
        for read_cf in 1..=4usize {
            let stored = &bytes[..prelude_len(4) + prelude.prefix_len(read_cf)];
            let got = d.decompress(stored, 2, read_cf).unwrap();
            let want = ChopCompressor::new(n, read_cf).unwrap().roundtrip(&x).unwrap();
            let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "read_cf={read_cf}");
        }
    }
}
