//! The unified codec layer: one trait, one spec registry, one name parser.
//!
//! Every compressor variant in the paper — plain DCT+Chop (§3.2–3.4), the
//! 1-D signal variant (§6), partial serialization (§3.5.1), the IPU
//! scatter/gather triangle packing (§3.5.2), and the future-work ZFP block
//! transform (§6) — implements [`Codec`], and every one is constructible
//! from a [`CodecSpec`] (or its canonical string name) through
//! [`CodecSpec::build`]. Downstream layers (`sciml`, `store`, `accel`,
//! `bench`) select codecs by spec instead of naming concrete types, and the
//! accelerator pipeline lowers its device graphs from the *same* spec the
//! host path uses — which is what makes the bit-identical host/device
//! invariant structural.
//!
//! The activation-compression families added on top of the paper's set —
//! the lossless extended bit-plane codec ([`crate::ebpc`]) and the
//! transform-domain feature-map codec ([`crate::fmap`]) — register here
//! too, so the training-loop spill subsystem selects them exactly the way
//! every other consumer selects codecs.
//!
//! Canonical names are shell-safe hyphenated strings, e.g.
//! `dct2d-n32-cf4`, `chop1d-len64-cf2`, `partial-n512-cf4-s2`,
//! `sg-n32-cf4`, `zfp2d-n32-cf2`, `ebpc-len64`, `fmap-n32-cf4-q6`.
//! [`CodecSpec`]'s `Display` and `FromStr` are the single format/parse
//! path; `parse(format(s)) == s` for every valid spec.

use std::fmt;
use std::str::FromStr;

use aicomp_tensor::Tensor;

use crate::chop1d::Chop1d;
use crate::compressor::ChopCompressor;
use crate::ebpc::EbpcCodec;
use crate::fmap::FmapCodec;
use crate::partial::PartialSerialized;
use crate::scatter_gather::ScatterGatherChop;
use crate::zfp_transform::ZfpTransform;
use crate::{CoreError, Result};

/// The unified compressor interface.
///
/// Object-safe: consumers hold `Box<dyn Codec>` and stay agnostic of the
/// concrete variant. Shapes are *trailing* dims — a codec with
/// `input_shape() == [n, n]` accepts `[n, n]`, `[C, n, n]`, or
/// `[BD, C, n, n]`, exactly as the underlying compressors do.
pub trait Codec: Send + Sync + std::fmt::Debug {
    /// The spec this codec was built from (round-trips through
    /// [`CodecSpec::build`]).
    fn spec(&self) -> CodecSpec;

    /// Compress a batch (trailing dims must match [`Self::input_shape`]).
    fn compress(&self, input: &Tensor) -> Result<Tensor>;

    /// Decompress a batch (trailing dims must match
    /// [`Self::compressed_shape`]).
    fn decompress(&self, compressed: &Tensor) -> Result<Tensor>;

    /// Compress then decompress (the §4.1 training-loop usage).
    fn roundtrip(&self, input: &Tensor) -> Result<Tensor> {
        self.decompress(&self.compress(input)?)
    }

    /// Compression ratio (Eq. 3 and its per-variant refinements).
    fn compression_ratio(&self) -> f64;

    /// Trailing dims of an uncompressed unit (`[n, n]` or `[len]`).
    fn input_shape(&self) -> Vec<usize>;

    /// Trailing dims of a compressed unit.
    fn compressed_shape(&self) -> Vec<usize>;

    /// FLOPs to compress one input unit (Eq. 5 for 2-D DCT+Chop).
    fn compress_flops(&self) -> u64;

    /// FLOPs to decompress one unit (Eq. 7 for 2-D DCT+Chop).
    fn decompress_flops(&self) -> u64;

    /// Canonical registry name — the spec's string form.
    fn name(&self) -> String {
        self.spec().to_string()
    }

    /// Encode to a host-side byte stream (the activation-spill path).
    ///
    /// The default is the numeric path serialized verbatim: compress, then
    /// the compressed tensor's f32s little-endian. Codecs with a real
    /// entropy stage (EBPC, fmap) override this — the byte stage runs on
    /// the host only, because no accelerator dialect has bit shifts
    /// (§3.1), mirroring how the `.dcz` container stacks Huffman on top of
    /// the device-side transform.
    fn encode_bytes(&self, input: &Tensor) -> Result<Vec<u8>> {
        let y = self.compress(input)?;
        let mut out = Vec::with_capacity(y.numel() * 4);
        for v in y.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Ok(out)
    }

    /// Decode an [`Codec::encode_bytes`] stream back to a reconstruction
    /// shaped `dims` (the *original* dims of the encoded tensor; trailing
    /// dims must match [`Codec::input_shape`]). Lossless codecs round-trip
    /// bit-exact; lossy codecs return the same reconstruction their
    /// numeric [`Codec::roundtrip`] would.
    fn decode_bytes(&self, bytes: &[u8], dims: &[usize]) -> Result<Tensor> {
        let unit = self.input_shape();
        if dims.len() < unit.len() {
            return Err(CoreError::Corrupt(format!(
                "decode dims {dims:?} shorter than codec unit {unit:?}"
            )));
        }
        let lead = dims.len() - unit.len();
        let mut cdims = dims[..lead].to_vec();
        cdims.extend(self.compressed_shape());
        let count: usize = cdims.iter().product();
        if bytes.len() != count * 4 {
            return Err(CoreError::Corrupt(format!(
                "stream is {} bytes, expected {} for {cdims:?}",
                bytes.len(),
                count * 4
            )));
        }
        let data: Vec<f32> =
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        self.decompress(&Tensor::from_vec(data, cdims)?)
    }
}

/// A serializable description of a compressor variant: the registry key.
///
/// | Variant                  | Paper   | Builds                              |
/// |--------------------------|---------|-------------------------------------|
/// | [`CodecSpec::Dct2d`]     | §3.2    | [`ChopCompressor`] (DCT-II, 8×8)    |
/// | [`CodecSpec::Chop1d`]    | §6      | [`Chop1d`] (1-D signals)            |
/// | [`CodecSpec::Partial`]   | §3.5.1  | [`PartialSerialized`]               |
/// | [`CodecSpec::ScatterGather`] | §3.5.2 | [`ScatterGatherChop`] (IPU-only) |
/// | [`CodecSpec::Zfp`]       | §6      | [`ChopCompressor`] + ZFP transform  |
/// | [`CodecSpec::Ebpc`]      | —       | [`EbpcCodec`] (lossless, EBPC paper)|
/// | [`CodecSpec::Fmap`]      | —       | [`FmapCodec`] (feature-map paper)   |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecSpec {
    /// 2-D DCT+Chop at resolution `n`, chop factor `cf` (§3.2, Eq. 3–7).
    Dct2d { n: usize, cf: usize },
    /// 1-D blockwise chop for signals of length `len` (§6).
    Chop1d { len: usize, cf: usize },
    /// Partial serialization: `s×s` chunks compressed serially (§3.5.1).
    Partial { n: usize, cf: usize, s: usize },
    /// Triangle packing via gather/scatter, IPU-only (§3.5.2).
    ScatterGather { n: usize, cf: usize },
    /// Chop with the ZFP block transform (4×4 blocks) instead of DCT-II (§6).
    Zfp { n: usize, cf: usize },
    /// Lossless extended bit-plane coding over units of `len` values (the
    /// activation codec of the EBPC paper; device stage is a pass-through).
    Ebpc { len: usize },
    /// Transform-domain feature-map codec: DCT+Chop with per-frequency
    /// power-of-two quantization folded into the operators, exponent `q`.
    Fmap { n: usize, cf: usize, q: usize },
}

impl CodecSpec {
    /// Build the concrete codec this spec describes — the one registry.
    pub fn build(&self) -> Result<Box<dyn Codec>> {
        match *self {
            CodecSpec::Dct2d { .. } | CodecSpec::Zfp { .. } => Ok(Box::new(self.build_chop()?)),
            CodecSpec::Chop1d { len, cf } => Ok(Box::new(Chop1d::new(len, cf)?)),
            CodecSpec::Partial { n, cf, s } => Ok(Box::new(PartialSerialized::new(n, cf, s)?)),
            CodecSpec::ScatterGather { n, cf } => Ok(Box::new(ScatterGatherChop::new(n, cf)?)),
            CodecSpec::Ebpc { len } => Ok(Box::new(EbpcCodec::new(len)?)),
            CodecSpec::Fmap { n, cf, q } => Ok(Box::new(FmapCodec::new(n, cf, q)?)),
        }
    }

    /// Build the concrete [`ChopCompressor`] for the block-2-D families
    /// (`Dct2d`, `Zfp`). The streaming/store layer needs the concrete type
    /// for its per-block ring layout; every other caller should prefer
    /// [`CodecSpec::build`].
    pub fn build_chop(&self) -> Result<ChopCompressor> {
        match *self {
            CodecSpec::Dct2d { n, cf } => ChopCompressor::new(n, cf),
            CodecSpec::Zfp { n, cf } => ChopCompressor::with_transform(&ZfpTransform::new(), n, cf),
            other => Err(CoreError::BadSpec {
                spec: other.to_string(),
                why: "not a block-2-D codec (expected dct2d or zfp2d)".to_string(),
            }),
        }
    }

    /// Sample resolution for the 2-D families (`None` for [`CodecSpec::Chop1d`]).
    pub fn resolution(&self) -> Option<usize> {
        match *self {
            CodecSpec::Dct2d { n, .. }
            | CodecSpec::Partial { n, .. }
            | CodecSpec::ScatterGather { n, .. }
            | CodecSpec::Zfp { n, .. }
            | CodecSpec::Fmap { n, .. } => Some(n),
            CodecSpec::Chop1d { .. } | CodecSpec::Ebpc { .. } => None,
        }
    }

    /// Transform block size — the geometry a container layout needs without
    /// building the codec (`None` for [`CodecSpec::Chop1d`]).
    pub fn block_size(&self) -> Option<usize> {
        match *self {
            CodecSpec::Dct2d { .. }
            | CodecSpec::Partial { .. }
            | CodecSpec::ScatterGather { .. }
            | CodecSpec::Fmap { .. } => Some(crate::BLOCK),
            CodecSpec::Zfp { .. } => Some(crate::zfp_transform::ZFP_BLOCK),
            CodecSpec::Chop1d { .. } | CodecSpec::Ebpc { .. } => None,
        }
    }

    /// Chop factor — every lossy variant has one; the lossless [`Ebpc`]
    /// family reports the block size (the "keep everything" factor), which
    /// keeps `chop_factor`/`with_chop_factor` total without inventing a
    /// fidelity ladder the codec doesn't have.
    ///
    /// [`Ebpc`]: CodecSpec::Ebpc
    pub fn chop_factor(&self) -> usize {
        match *self {
            CodecSpec::Dct2d { cf, .. }
            | CodecSpec::Chop1d { cf, .. }
            | CodecSpec::Partial { cf, .. }
            | CodecSpec::ScatterGather { cf, .. }
            | CodecSpec::Zfp { cf, .. }
            | CodecSpec::Fmap { cf, .. } => cf,
            CodecSpec::Ebpc { .. } => crate::BLOCK,
        }
    }

    /// The same spec at a different chop factor (progressive `.dcz` reads
    /// re-decode a fidelity prefix with a coarser codec of the same
    /// family). [`Ebpc`] is lossless-only and returns itself unchanged.
    ///
    /// [`Ebpc`]: CodecSpec::Ebpc
    pub fn with_chop_factor(&self, cf: usize) -> CodecSpec {
        match *self {
            CodecSpec::Dct2d { n, .. } => CodecSpec::Dct2d { n, cf },
            CodecSpec::Chop1d { len, .. } => CodecSpec::Chop1d { len, cf },
            CodecSpec::Partial { n, s, .. } => CodecSpec::Partial { n, cf, s },
            CodecSpec::ScatterGather { n, .. } => CodecSpec::ScatterGather { n, cf },
            CodecSpec::Zfp { n, .. } => CodecSpec::Zfp { n, cf },
            CodecSpec::Ebpc { len } => CodecSpec::Ebpc { len },
            CodecSpec::Fmap { n, q, .. } => CodecSpec::Fmap { n, cf, q },
        }
    }
}

impl fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecSpec::Dct2d { n, cf } => write!(f, "dct2d-n{n}-cf{cf}"),
            CodecSpec::Chop1d { len, cf } => write!(f, "chop1d-len{len}-cf{cf}"),
            CodecSpec::Partial { n, cf, s } => write!(f, "partial-n{n}-cf{cf}-s{s}"),
            CodecSpec::ScatterGather { n, cf } => write!(f, "sg-n{n}-cf{cf}"),
            CodecSpec::Zfp { n, cf } => write!(f, "zfp2d-n{n}-cf{cf}"),
            CodecSpec::Ebpc { len } => write!(f, "ebpc-len{len}"),
            CodecSpec::Fmap { n, cf, q } => write!(f, "fmap-n{n}-cf{cf}-q{q}"),
        }
    }
}

impl FromStr for CodecSpec {
    type Err = CoreError;

    /// Parse a canonical name: `family-key<value>-key<value>...`.
    fn from_str(s: &str) -> Result<Self> {
        let bad = |why: &str| CoreError::BadSpec { spec: s.to_string(), why: why.to_string() };
        let mut parts = s.split('-');
        let family = parts.next().unwrap_or("");
        let mut fields: Vec<(&str, usize)> = Vec::new();
        for part in parts {
            let digits = part.find(|c: char| c.is_ascii_digit()).ok_or_else(|| {
                bad("expected key<number> segments after the family, e.g. n32 or cf4")
            })?;
            let (key, value) = part.split_at(digits);
            let value: usize =
                value.parse().map_err(|_| bad("segment value is not an unsigned integer"))?;
            fields.push((key, value));
        }
        let get = |key: &str| -> Result<usize> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .ok_or_else(|| bad(&format!("missing field '{key}'")))
        };
        let expect_fields = |keys: &[&str]| -> Result<()> {
            if fields.len() != keys.len() {
                return Err(bad(&format!("expected exactly the fields {keys:?}")));
            }
            for (k, _) in &fields {
                if !keys.contains(k) {
                    return Err(bad(&format!("unknown field '{k}' (expected {keys:?})")));
                }
            }
            Ok(())
        };
        match family {
            "dct2d" => {
                expect_fields(&["n", "cf"])?;
                Ok(CodecSpec::Dct2d { n: get("n")?, cf: get("cf")? })
            }
            "chop1d" => {
                expect_fields(&["len", "cf"])?;
                Ok(CodecSpec::Chop1d { len: get("len")?, cf: get("cf")? })
            }
            "partial" => {
                expect_fields(&["n", "cf", "s"])?;
                Ok(CodecSpec::Partial { n: get("n")?, cf: get("cf")?, s: get("s")? })
            }
            "sg" => {
                expect_fields(&["n", "cf"])?;
                Ok(CodecSpec::ScatterGather { n: get("n")?, cf: get("cf")? })
            }
            "zfp2d" => {
                expect_fields(&["n", "cf"])?;
                Ok(CodecSpec::Zfp { n: get("n")?, cf: get("cf")? })
            }
            "ebpc" => {
                expect_fields(&["len"])?;
                Ok(CodecSpec::Ebpc { len: get("len")? })
            }
            "fmap" => {
                expect_fields(&["n", "cf", "q"])?;
                Ok(CodecSpec::Fmap { n: get("n")?, cf: get("cf")?, q: get("q")? })
            }
            _ => Err(bad(
                "unknown codec family (expected dct2d, chop1d, partial, sg, zfp2d, ebpc, or fmap)",
            )),
        }
    }
}

/// Parse-and-build in one step: the `--codec <name>` entry point.
pub fn build_codec(name: &str) -> Result<Box<dyn Codec>> {
    name.parse::<CodecSpec>()?.build()
}

impl Codec for ChopCompressor {
    fn spec(&self) -> CodecSpec {
        // The transform name distinguishes the two registry families that
        // build a ChopCompressor.
        match self.transform_name() {
            "zfp-block" => CodecSpec::Zfp { n: self.resolution(), cf: self.chop_factor() },
            _ => CodecSpec::Dct2d { n: self.resolution(), cf: self.chop_factor() },
        }
    }
    fn compress(&self, input: &Tensor) -> Result<Tensor> {
        ChopCompressor::compress(self, input)
    }
    fn decompress(&self, compressed: &Tensor) -> Result<Tensor> {
        ChopCompressor::decompress(self, compressed)
    }
    fn compression_ratio(&self) -> f64 {
        ChopCompressor::compression_ratio(self)
    }
    fn input_shape(&self) -> Vec<usize> {
        vec![self.resolution(), self.resolution()]
    }
    fn compressed_shape(&self) -> Vec<usize> {
        vec![self.compressed_side(), self.compressed_side()]
    }
    fn compress_flops(&self) -> u64 {
        ChopCompressor::compress_flops(self)
    }
    fn decompress_flops(&self) -> u64 {
        ChopCompressor::decompress_flops(self)
    }
}

impl Codec for Chop1d {
    /// Note: `Chop1d` does not record its transform, so codecs built
    /// directly via [`Chop1d::with_transform`] report the registry's
    /// DCT-based spec. Registry-built codecs always match.
    fn spec(&self) -> CodecSpec {
        CodecSpec::Chop1d { len: self.len(), cf: self.chop_factor() }
    }
    fn compress(&self, input: &Tensor) -> Result<Tensor> {
        Chop1d::compress(self, input)
    }
    fn decompress(&self, compressed: &Tensor) -> Result<Tensor> {
        Chop1d::decompress(self, compressed)
    }
    fn compression_ratio(&self) -> f64 {
        Chop1d::compression_ratio(self)
    }
    fn input_shape(&self) -> Vec<usize> {
        vec![self.len()]
    }
    fn compressed_shape(&self) -> Vec<usize> {
        vec![self.compressed_len()]
    }
    /// One `[1, len]·[len, kept]` matmul per signal: `(2·len − 1)·kept`.
    fn compress_flops(&self) -> u64 {
        (2 * self.len() as u64 - 1) * self.compressed_len() as u64
    }
    /// One `[1, kept]·[kept, len]` matmul per signal: `(2·kept − 1)·len`.
    fn decompress_flops(&self) -> u64 {
        (2 * self.compressed_len() as u64 - 1) * self.len() as u64
    }
}

impl Codec for PartialSerialized {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Partial {
            n: self.resolution(),
            cf: self.chunk_compressor().chop_factor(),
            s: self.subdivision(),
        }
    }
    fn compress(&self, input: &Tensor) -> Result<Tensor> {
        PartialSerialized::compress(self, input)
    }
    fn decompress(&self, compressed: &Tensor) -> Result<Tensor> {
        PartialSerialized::decompress(self, compressed)
    }
    fn compression_ratio(&self) -> f64 {
        PartialSerialized::compression_ratio(self)
    }
    fn input_shape(&self) -> Vec<usize> {
        vec![self.resolution(), self.resolution()]
    }
    fn compressed_shape(&self) -> Vec<usize> {
        vec![self.compressed_side(), self.compressed_side()]
    }
    /// `s²` serial chunk passes, each Eq. 5 at resolution `n/s`.
    fn compress_flops(&self) -> u64 {
        self.serial_passes() as u64 * self.chunk_compressor().compress_flops()
    }
    /// `s²` serial chunk passes, each Eq. 7 at resolution `n/s`.
    fn decompress_flops(&self) -> u64 {
        self.serial_passes() as u64 * self.chunk_compressor().decompress_flops()
    }
}

impl Codec for ScatterGatherChop {
    fn spec(&self) -> CodecSpec {
        CodecSpec::ScatterGather { n: self.inner().resolution(), cf: self.inner().chop_factor() }
    }
    fn compress(&self, input: &Tensor) -> Result<Tensor> {
        ScatterGatherChop::compress(self, input)
    }
    fn decompress(&self, compressed: &Tensor) -> Result<Tensor> {
        ScatterGatherChop::decompress(self, compressed)
    }
    fn compression_ratio(&self) -> f64 {
        ScatterGatherChop::compression_ratio(self)
    }
    fn input_shape(&self) -> Vec<usize> {
        vec![self.inner().resolution(), self.inner().resolution()]
    }
    fn compressed_shape(&self) -> Vec<usize> {
        vec![self.packed_len()]
    }
    /// Gather/scatter are data movement — FLOPs are the inner Chop's (§3.5.2).
    fn compress_flops(&self) -> u64 {
        self.inner().compress_flops()
    }
    fn decompress_flops(&self) -> u64 {
        self.inner().decompress_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [CodecSpec; 7] = [
        CodecSpec::Dct2d { n: 32, cf: 4 },
        CodecSpec::Chop1d { len: 64, cf: 2 },
        CodecSpec::Partial { n: 32, cf: 4, s: 2 },
        CodecSpec::ScatterGather { n: 32, cf: 5 },
        CodecSpec::Zfp { n: 32, cf: 2 },
        CodecSpec::Ebpc { len: 64 },
        CodecSpec::Fmap { n: 32, cf: 4, q: 6 },
    ];

    #[test]
    fn names_roundtrip() {
        for spec in ALL {
            let name = spec.to_string();
            assert_eq!(name.parse::<CodecSpec>().unwrap(), spec, "{name}");
        }
    }

    #[test]
    fn canonical_names_are_stable() {
        assert_eq!(CodecSpec::Dct2d { n: 32, cf: 4 }.to_string(), "dct2d-n32-cf4");
        assert_eq!(CodecSpec::Chop1d { len: 64, cf: 2 }.to_string(), "chop1d-len64-cf2");
        assert_eq!(CodecSpec::Partial { n: 512, cf: 4, s: 2 }.to_string(), "partial-n512-cf4-s2");
        assert_eq!(CodecSpec::ScatterGather { n: 32, cf: 5 }.to_string(), "sg-n32-cf5");
        assert_eq!(CodecSpec::Zfp { n: 32, cf: 2 }.to_string(), "zfp2d-n32-cf2");
        assert_eq!(CodecSpec::Ebpc { len: 64 }.to_string(), "ebpc-len64");
        assert_eq!(CodecSpec::Fmap { n: 32, cf: 4, q: 6 }.to_string(), "fmap-n32-cf4-q6");
    }

    #[test]
    fn built_codec_reports_its_spec() {
        for spec in ALL {
            let codec = spec.build().unwrap();
            assert_eq!(codec.spec(), spec);
            assert_eq!(codec.name(), spec.to_string());
        }
    }

    #[test]
    fn bad_names_error_not_panic() {
        for bad in [
            "",
            "dct3d-n32-cf4",
            "dct2d",
            "dct2d-n32",
            "dct2d-n32-cf4-s2",
            "dct2d-cf4-len64",
            "dct2d-n32-cfx",
            "dct2d-nan-cf4",
            "partial-n32-cf4",
            "sg-n32-cf4-extra9",
            "ebpc",
            "ebpc-len64-cf2",
            "ebpc-n64",
            "fmap-n32-cf4",
            "fmap-n32-cf4-q6-s2",
        ] {
            assert!(bad.parse::<CodecSpec>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn build_rejects_invalid_geometry() {
        assert!(CodecSpec::Dct2d { n: 30, cf: 4 }.build().is_err());
        assert!(CodecSpec::Dct2d { n: 32, cf: 9 }.build().is_err());
        assert!(CodecSpec::Chop1d { len: 60, cf: 4 }.build().is_err());
        assert!(CodecSpec::Partial { n: 32, cf: 4, s: 3 }.build().is_err());
        // ZFP blocks are 4×4: cf ≤ 4 and n must divide by 4.
        assert!(CodecSpec::Zfp { n: 32, cf: 5 }.build().is_err());
        assert!(CodecSpec::Zfp { n: 30, cf: 2 }.build().is_err());
        assert!(CodecSpec::Ebpc { len: 0 }.build().is_err());
        assert!(CodecSpec::Fmap { n: 30, cf: 4, q: 6 }.build().is_err());
        assert!(CodecSpec::Fmap { n: 32, cf: 4, q: 0 }.build().is_err());
        assert!(CodecSpec::Fmap { n: 32, cf: 4, q: 99 }.build().is_err());
    }

    #[test]
    fn zfp_spec_builds_zfp_transform() {
        let codec = CodecSpec::Zfp { n: 16, cf: 2 }.build().unwrap();
        // 4×4 blocks, cf 2 → compressed side 16·2/4 = 8, CR = 16/4 = 4.
        assert_eq!(codec.compressed_shape(), vec![8, 8]);
        assert_eq!(codec.compression_ratio(), 4.0);
    }

    #[test]
    fn with_chop_factor_preserves_family_and_geometry() {
        for spec in ALL {
            let coarse = spec.with_chop_factor(1);
            if matches!(spec, CodecSpec::Ebpc { .. }) {
                // Lossless-only family: no fidelity ladder to walk.
                assert_eq!(coarse, spec);
            } else {
                assert_eq!(coarse.chop_factor(), 1);
            }
            assert_eq!(std::mem::discriminant(&coarse), std::mem::discriminant(&spec), "{spec}");
        }
    }

    #[test]
    fn byte_streams_roundtrip_for_every_family() {
        // decode_bytes(encode_bytes(x)) must equal the numeric roundtrip
        // bit-for-bit for every registered codec (default impl and
        // overrides alike) — the contract the activation spiller relies on.
        for spec in ALL {
            let codec = spec.build().unwrap();
            let dims: Vec<usize> = std::iter::once(3usize).chain(codec.input_shape()).collect();
            let mut rng = Tensor::seeded_rng(17);
            let x = Tensor::rand_uniform(dims.as_slice(), -1.0, 1.0, &mut rng);
            let bytes = codec.encode_bytes(&x).unwrap();
            let via_bytes = codec.decode_bytes(&bytes, x.dims()).unwrap();
            let numeric = codec.roundtrip(&x).unwrap();
            let a: Vec<u32> = via_bytes.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = numeric.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{spec}");
        }
    }

    /// FNV-1a (64-bit) over the little-endian bit patterns of `t`.
    fn fnv1a_bits(t: &Tensor) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in t.data() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the exact output bits of every Chop-family codec. Stored
    /// containers hold these coefficients, so a kernel change that moves a
    /// single bit shows up here. The digests were recorded with the dense
    /// gemm loop; the per-block kernel must reproduce them.
    #[test]
    fn codec_outputs_are_bit_stable() {
        // (spec name, FNV-1a of compress output, FNV-1a of decompress output)
        const PINNED: [(&str, u64, u64); 20] = [
            ("dct2d-n32-cf2", 0x1f83ace99f21cd29, 0x4ad9ea3b2d5564bf),
            ("dct2d-n32-cf4", 0xdbb574a84ba9b82e, 0x62058eba9e3d194d),
            ("dct2d-n32-cf7", 0x27ad9de389551a93, 0xcf71d2094aaaa27e),
            ("dct2d-n64-cf2", 0x0aecbd2e2ac3e944, 0x0eec3edbfb1a8fe3),
            ("dct2d-n64-cf4", 0xb2cd7afd66c87670, 0xeaf9fb322bd63fb1),
            ("dct2d-n64-cf7", 0x12f7d3e4c466d3f3, 0xf2cd0d06517ae3e1),
            ("dct2d-n128-cf2", 0xf2749fd6ed09d3f4, 0x8b09677b764d9fc3),
            ("dct2d-n128-cf4", 0xc3f9ba1476281f2b, 0x94086ed72a94125b),
            ("dct2d-n128-cf7", 0x4cf360672a7bd897, 0xccdc2942a7383168),
            ("dct2d-n256-cf2", 0x7cda5d81138c1ddd, 0xd242c959527596f5),
            ("dct2d-n256-cf4", 0x6c4e6c9685c85c01, 0x37e0092c6eec98aa),
            ("dct2d-n256-cf7", 0x15b65af8f6e4f8ef, 0x379a04055f619e03),
            ("dct2d-n512-cf2", 0xe4a51eb12f71c8ef, 0xbf5bc8e4d014dbcd),
            ("dct2d-n512-cf4", 0x83c4bdd8aa807884, 0xb1d67b782023b2ea),
            ("dct2d-n512-cf7", 0x3c787c184609d93e, 0x6b01fa1b2b2df8c3),
            ("zfp2d-n64-cf3", 0x9650c9210679695e, 0xf962cab4191472f7),
            ("fmap-n64-cf4-q6", 0x07c73a452e247778, 0xa5a25cff49854d64),
            ("chop1d-len256-cf3", 0xfebfa1fef3a7e198, 0x9dd4a13d27ae2bb2),
            ("partial-n128-cf4-s2", 0xc3f9ba1476281f2b, 0x94086ed72a94125b),
            ("sg-n64-cf5", 0xe23da4151aeff818, 0x881b2d67398401a9),
        ];
        let mut got = Vec::new();
        for (name, _, _) in PINNED {
            let codec = build_codec(name).unwrap();
            let dims: Vec<usize> = std::iter::once(2usize).chain(codec.input_shape()).collect();
            let mut rng = Tensor::seeded_rng(23);
            let x = Tensor::rand_uniform(dims.as_slice(), -1.0, 1.0, &mut rng);
            let y = codec.compress(&x).unwrap();
            let back = codec.decompress(&y).unwrap();
            got.push((name, fnv1a_bits(&y), fnv1a_bits(&back)));
        }
        assert_eq!(got, PINNED.to_vec());
    }

    #[test]
    fn codec_shapes_and_ratio_match_legacy_accessors() {
        let chop = ChopCompressor::new(32, 4).unwrap();
        let codec: Box<dyn Codec> = CodecSpec::Dct2d { n: 32, cf: 4 }.build().unwrap();
        assert_eq!(codec.compression_ratio(), chop.compression_ratio());
        assert_eq!(codec.compressed_shape(), vec![chop.compressed_side(); 2]);
        assert_eq!(codec.compress_flops(), chop.compress_flops());
        assert_eq!(codec.decompress_flops(), chop.decompress_flops());

        let sg = ScatterGatherChop::new(32, 5).unwrap();
        let codec = CodecSpec::ScatterGather { n: 32, cf: 5 }.build().unwrap();
        assert_eq!(codec.compression_ratio(), sg.compression_ratio());
        assert_eq!(codec.compressed_shape(), vec![sg.packed_len()]);
    }
}
