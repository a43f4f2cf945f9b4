//! Containers written before near-uniform byte planes were stored raw
//! still read, bit for bit, through today's reader.
//!
//! `fixtures/old_fit.dcz` was packed by the all-Huffman fitting, every
//! plane with its fitted code: twelve `[1, 32, 32]` samples from
//! [`sample`] at `dct2d-n32-cf4`, eight samples per chunk.

use std::path::PathBuf;

use aicomp_core::ChopCompressor;
use aicomp_store::writer::pack_file;
use aicomp_store::{DczReader, StoreOptions};
use aicomp_tensor::Tensor;

const N: usize = 32;
const CF: usize = 4;
const SAMPLES: usize = 12;
const CHUNK: usize = 8;

/// Sample `i` of the fixture: a sawtooth ramp plus hashed noise, so the
/// coefficients' mantissa bytes are near-uniform.
fn sample(i: usize) -> Tensor {
    let data = (0..N * N)
        .map(|k| {
            let (y, x) = (k / N, k % N);
            let hash = ((k as u32).wrapping_mul(2_654_435_761) ^ (i as u32 * 97)).rotate_left(7);
            ((x * 7 + y * 3 + i * 5) % N) as f32 / N as f32 - 0.5 + (hash % 1000) as f32 / 20_000.0
        })
        .collect();
    Tensor::from_vec(data, [1, N, N]).unwrap()
}

/// The Chop coefficients of samples `range` at chop factor `cf`, as bits.
fn coefficient_bits(range: std::ops::Range<usize>, cf: usize) -> Vec<u32> {
    let count = range.len();
    let data: Vec<f32> = range.flat_map(|i| sample(i).data().to_vec()).collect();
    let batch = Tensor::from_vec(data, [count, 1, N, N]).unwrap();
    let y = ChopCompressor::new(N, cf).unwrap().compress(&batch).unwrap();
    y.data().iter().map(|v| v.to_bits()).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/old_fit.dcz")
}

#[test]
fn all_huffman_container_decodes_to_the_same_coefficients() {
    let mut old = DczReader::open(fixture()).unwrap();
    old.verify().unwrap();
    assert_eq!((old.sample_count(), old.chunk_count()), (SAMPLES as u64, 2));
    for c in 0..old.chunk_count() {
        let prelude = old.read_prelude(c).unwrap();
        assert_eq!(prelude.codes.raw_planes().count(), 0, "chunk {c} has a raw plane");
        let range = c * CHUNK..SAMPLES.min((c + 1) * CHUNK);
        for cf in 1..=CF {
            let got = bits(&old.read_chunk_at(c, cf).unwrap());
            assert_eq!(got, coefficient_bits(range.clone(), cf), "chunk {c} at cf {cf}");
        }
    }

    // Today's fitting stores the mantissa planes of the same samples raw:
    // other bytes, the same coefficients and reconstructions.
    let path = std::env::temp_dir().join(format!("aicomp_compat_{}.dcz", std::process::id()));
    pack_file(&path, &StoreOptions::dct(N, CF, 1, CHUNK), (0..SAMPLES).map(sample)).unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), std::fs::read(fixture()).unwrap());
    let mut new = DczReader::open(&path).unwrap();
    assert_eq!(new.read_prelude(0).unwrap().codes.raw_planes().collect::<Vec<_>>(), [0, 1, 2]);
    for c in 0..old.chunk_count() {
        assert_eq!(bits(&new.read_chunk(c).unwrap()), bits(&old.read_chunk(c).unwrap()));
        let (a, b) = (new.decompress_chunk(c).unwrap(), old.decompress_chunk(c).unwrap());
        assert_eq!(bits(&a), bits(&b), "chunk {c} reconstruction");
    }
    std::fs::remove_file(&path).ok();
}
