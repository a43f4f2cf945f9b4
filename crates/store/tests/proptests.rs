//! Property-based tests for the `.dcz` container: bit-exact round-trips
//! across random geometries (sample counts, chunk sizes, chop factors,
//! channel counts, ragged tails), progressive prefix reads matching direct
//! coarse compression, and corruption always surfacing as an error — never
//! a panic or silently wrong data.

use std::io::Cursor;

use aicomp_core::ChopCompressor;
use aicomp_store::writer::{DczWriter, StoreOptions};
use aicomp_store::{deep_verify, salvage, DczReader};
use aicomp_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 16;

fn random_samples(count: usize, channels: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let data: Vec<f32> =
                (0..channels * N * N).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
            Tensor::from_vec(data, [channels, N, N]).expect("sample shape")
        })
        .collect()
}

fn packed(samples: &[Tensor], channels: usize, cf: usize, chunk_size: usize) -> Vec<u8> {
    let opts = StoreOptions::dct(N, cf, channels, chunk_size);
    let (sink, _) = DczWriter::pack(Cursor::new(Vec::new()), &opts, samples.to_vec())
        .expect("pack random stream");
    sink.into_inner()
}

/// The samples of chunk `i` as one `[S, C, n, n]` batch.
fn chunk_batch(samples: &[Tensor], chunk_size: usize, i: usize) -> Tensor {
    let lo = i * chunk_size;
    let hi = (lo + chunk_size).min(samples.len());
    let refs: Vec<&Tensor> = samples[lo..hi].iter().collect();
    let stacked = Tensor::concat0(&refs).expect("stack chunk");
    let d = samples[0].dims().to_vec();
    stacked.reshaped([hi - lo, d[0], d[1], d[2]]).expect("chunk batch shape")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every chunk of every random geometry decodes bit-identically to the
    /// host compressor run on the same samples — including ragged tails
    /// (`count % chunk_size != 0`).
    #[test]
    fn roundtrip_is_bit_exact_across_geometries(
        count in 1usize..20,
        chunk_size in 1usize..9,
        cf in 2usize..=7,
        channels in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let samples = random_samples(count, channels, seed);
        let buf = packed(&samples, channels, cf, chunk_size);
        let mut reader = DczReader::new(Cursor::new(buf)).expect("open packed");
        prop_assert_eq!(reader.sample_count(), count as u64);
        prop_assert_eq!(reader.chunk_count(), count.div_ceil(chunk_size));

        let comp = ChopCompressor::new(N, cf).expect("compressor");
        for i in 0..reader.chunk_count() {
            let batch = chunk_batch(&samples, chunk_size, i);
            let expect = comp.roundtrip(&batch).expect("host roundtrip");
            let got = reader.decompress_chunk(i).expect("container decode");
            prop_assert_eq!(got.dims(), expect.dims());
            prop_assert!(
                got.data() == expect.data(),
                "chunk {i} not bit-identical (count={count} chunk={chunk_size} cf={cf})"
            );
        }
    }

    /// A container written at CF 7 serves any coarser factor from chunk
    /// *prefixes*: fewer payload bytes read, output bit-identical to
    /// compressing directly at the coarse factor.
    #[test]
    fn progressive_prefix_reads_match_direct_coarse_compression(
        count in 1usize..12,
        chunk_size in 1usize..6,
        read_cf in 2usize..7,
        seed in 0u64..1_000_000,
    ) {
        let samples = random_samples(count, 1, seed);
        let buf = packed(&samples, 1, 7, chunk_size);
        let mut reader = DczReader::new(Cursor::new(buf)).expect("open packed");
        let payload: u64 = reader.index().iter().map(|e| e.len as u64).sum();
        let coarse = ChopCompressor::new(N, read_cf).expect("coarse compressor");
        for i in 0..reader.chunk_count() {
            let batch = chunk_batch(&samples, chunk_size, i);
            let expect = coarse.roundtrip(&batch).expect("direct coarse roundtrip");
            let got = reader.decompress_chunk_at(i, read_cf).expect("prefix decode");
            prop_assert!(got.data() == expect.data(), "chunk {i} differs at read_cf {read_cf}");
        }
        prop_assert!(
            reader.bytes_read() < payload,
            "prefix reads read {} of {} payload bytes",
            reader.bytes_read(),
            payload
        );
    }

    /// Any single flipped payload byte is caught by the chunk CRC on a
    /// full-fidelity read.
    #[test]
    fn payload_corruption_is_detected(
        count in 1usize..10,
        chunk_size in 1usize..5,
        cf in 2usize..=7,
        seed in 0u64..1_000_000,
        pos_frac in 0.0f64..1.0,
    ) {
        let samples = random_samples(count, 1, seed);
        let mut buf = packed(&samples, 1, cf, chunk_size);
        let (payload_start, payload_end) = {
            let reader = DczReader::new(Cursor::new(buf.clone())).expect("open clean");
            let first = reader.index().first().expect("nonempty index");
            let last = reader.index().last().expect("nonempty index");
            (first.offset as usize, (last.offset + last.len as u64) as usize)
        };
        let span = payload_end - payload_start;
        let pos = payload_start + (((span as f64) * pos_frac) as usize).min(span - 1);
        buf[pos] ^= 0x40;
        let mut reader = DczReader::new(Cursor::new(buf)).expect("metadata still intact");
        prop_assert!(
            reader.verify().is_err(),
            "flip at byte {pos} of payload [{payload_start}, {payload_end}) went undetected"
        );
    }

    /// Arbitrary damage — several random bit flips plus truncation at a
    /// random length — never panics the reader, deep verification, or
    /// salvage. Every outcome is a clean `StoreError`, and whenever salvage
    /// succeeds its output is a container that itself verifies clean.
    #[test]
    fn mangled_containers_never_panic_and_salvage_output_verifies(
        count in 1usize..10,
        chunk_size in 1usize..5,
        seed in 0u64..1_000_000,
        flips in proptest::collection::vec((0.0f64..1.0, 0u32..8), 1..6),
        trunc_frac in 0.0f64..1.0,
    ) {
        let samples = random_samples(count, 1, seed);
        let mut buf = packed(&samples, 1, 4, chunk_size);
        for &(frac, bit) in &flips {
            let pos = ((buf.len() as f64 * frac) as usize).min(buf.len() - 1);
            buf[pos] ^= 1u8 << bit;
        }
        let keep = ((buf.len() as f64 * trunc_frac) as usize).max(1).min(buf.len());
        buf.truncate(keep);

        // Reading a mangled container: errors allowed, panics not.
        if let Ok(mut r) = DczReader::new(Cursor::new(buf.clone())) {
            let _ = r.verify();
            for c in 0..r.chunk_count() {
                let _ = r.decompress_chunk_salvage(c, r.header().cf());
            }
            let _ = deep_verify(&mut r);
        }

        match salvage(&buf) {
            Err(_) => {} // header unreadable — the one legitimate fatal case
            Ok((rebuilt, report)) => {
                let mut r = DczReader::new(Cursor::new(rebuilt))
                    .expect("salvaged container must open");
                r.verify().expect("salvaged container must verify clean");
                prop_assert_eq!(r.sample_count(), report.samples);
                prop_assert_eq!(r.chunk_count(), report.kept);
            }
        }
    }

    /// With the index intact, one flipped payload byte costs at most the
    /// chunk it lands in: salvage keeps every other chunk, bit-identical
    /// to the clean container.
    #[test]
    fn salvage_keeps_every_intact_chunk(
        count in 2usize..12,
        chunk_size in 1usize..5,
        cf in 2usize..=7,
        seed in 0u64..1_000_000,
        pos_frac in 0.0f64..1.0,
    ) {
        let samples = random_samples(count, 1, seed);
        let clean = packed(&samples, 1, cf, chunk_size);
        let (hit, payload) = {
            let reader = DczReader::new(Cursor::new(clean.clone())).expect("open clean");
            let first = reader.index().first().expect("nonempty index");
            let last = reader.index().last().expect("nonempty index");
            let (lo, hi) = (first.offset as usize, (last.offset + last.len as u64) as usize);
            let pos = lo + (((hi - lo) as f64 * pos_frac) as usize).min(hi - lo - 1);
            let hit = reader
                .index()
                .iter()
                .position(|e| (e.offset as usize..(e.offset + e.len as u64) as usize)
                    .contains(&pos))
                .expect("flip lands in some chunk");
            (hit, pos)
        };
        let mut bad = clean.clone();
        bad[payload] ^= 0x10;

        let (rebuilt, report) = salvage(&bad).expect("index intact, salvage succeeds");
        prop_assert!(!report.index_rebuilt);
        let total = count.div_ceil(chunk_size);
        prop_assert_eq!((report.kept, report.dropped), (total - 1, 1));

        let mut r = DczReader::new(Cursor::new(rebuilt)).expect("salvaged opens");
        r.verify().expect("salvaged verifies");
        let mut orig = DczReader::new(Cursor::new(clean)).expect("clean opens");
        let survivors = (0..total).filter(|&c| c != hit);
        for (new_i, old_i) in survivors.enumerate() {
            let a = r.decompress_chunk(new_i).expect("salvaged chunk decodes");
            let b = orig.decompress_chunk(old_i).expect("clean chunk decodes");
            prop_assert!(a.data() == b.data(), "survivor {old_i} not bit-identical");
        }
    }

    /// Truncation at any length — metadata or payload — is an error at
    /// open or verify, never a panic.
    #[test]
    fn truncation_is_detected(
        count in 1usize..8,
        chunk_size in 1usize..5,
        seed in 0u64..1_000_000,
        len_frac in 0.0f64..1.0,
    ) {
        let samples = random_samples(count, 1, seed);
        let buf = packed(&samples, 1, 4, chunk_size);
        let keep = ((buf.len() as f64 * len_frac) as usize).min(buf.len() - 1);
        let outcome = DczReader::new(Cursor::new(buf[..keep].to_vec()))
            .and_then(|mut r| r.verify());
        prop_assert!(outcome.is_err(), "truncation to {keep}/{} bytes went undetected", buf.len());
    }
}
