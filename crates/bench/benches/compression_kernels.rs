//! Criterion benches for the host-side DCT+Chop kernels: wall-clock
//! compression/decompression over the paper's CF and resolution grids
//! (this measures *our* CPU kernels; device times are simulated by
//! `aicomp-accel` and reported by the figure binaries), codec construction,
//! and the container's entropy stage on one chunk.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aicomp_core::{ChopCompressor, CodecSpec, PartialSerialized, ScatterGatherChop};
use aicomp_store::bands::gather_rings;
use aicomp_store::chunk::{decode_prelude, decode_sections, encode_chunk, prelude_len};
use aicomp_store::entropy::PlaneCodes;
use aicomp_store::layout::Header;
use aicomp_tensor::Tensor;

fn batch(slices: usize, n: usize) -> Tensor {
    let mut rng = Tensor::seeded_rng(9);
    Tensor::rand_uniform([slices, n, n], -1.0, 1.0, &mut rng)
}

fn bench_compress_by_cf(c: &mut Criterion) {
    let n = 64;
    let x = batch(30, n);
    let mut group = c.benchmark_group("compress_by_cf");
    group.throughput(Throughput::Bytes(x.size_bytes() as u64));
    for cf in [2usize, 4, 7] {
        let comp = ChopCompressor::new(n, cf).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(cf), &cf, |b, _| {
            b.iter(|| comp.compress(&x).unwrap())
        });
    }
    group.finish();
}

fn bench_decompress_by_cf(c: &mut Criterion) {
    let n = 64;
    let x = batch(30, n);
    let mut group = c.benchmark_group("decompress_by_cf");
    group.throughput(Throughput::Bytes(x.size_bytes() as u64));
    for cf in [2usize, 4, 7] {
        let comp = ChopCompressor::new(n, cf).unwrap();
        let y = comp.compress(&x).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(cf), &cf, |b, _| {
            b.iter(|| comp.decompress(&y).unwrap())
        });
    }
    group.finish();
}

/// Resolutions of the flat-in-n check: with the per-block kernel, MB/s at
/// cf=4 should stay roughly level from n=32 to n=512 in both directions.
const RESOLUTIONS: [usize; 5] = [32, 64, 128, 256, 512];

/// About 3 MB of input per resolution, so every n times the same bytes.
fn slices_for(n: usize) -> usize {
    (768 * 1024 / (n * n)).max(1)
}

fn bench_compress_by_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_by_resolution");
    for n in RESOLUTIONS {
        let x = batch(slices_for(n), n);
        group.throughput(Throughput::Bytes(x.size_bytes() as u64));
        let comp = ChopCompressor::new(n, 4).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| comp.compress(&x).unwrap())
        });
    }
    group.finish();
}

fn bench_decompress_by_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompress_by_resolution");
    for n in RESOLUTIONS {
        let x = batch(slices_for(n), n);
        // Throughput in reconstructed (uncompressed) bytes, as for compress.
        group.throughput(Throughput::Bytes(x.size_bytes() as u64));
        let comp = ChopCompressor::new(n, 4).unwrap();
        let y = comp.compress(&x).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| comp.decompress(&y).unwrap())
        });
    }
    group.finish();
}

fn bench_partial_serialization(c: &mut Criterion) {
    let n = 128;
    let x = batch(6, n);
    let mut group = c.benchmark_group("partial_serialization");
    group.throughput(Throughput::Bytes(x.size_bytes() as u64));
    for s in [1usize, 2, 4] {
        let comp = PartialSerialized::new(n, 4, s).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            b.iter(|| comp.compress(&x).unwrap())
        });
    }
    group.finish();
}

fn bench_scatter_gather(c: &mut Criterion) {
    let n = 64;
    let x = batch(30, n);
    let mut group = c.benchmark_group("sg_vs_plain_roundtrip");
    group.throughput(Throughput::Bytes(x.size_bytes() as u64));
    let plain = ChopCompressor::new(n, 4).unwrap();
    group.bench_function("plain", |b| b.iter(|| plain.roundtrip(&x).unwrap()));
    let sg = ScatterGatherChop::new(n, 4).unwrap();
    group.bench_function("scatter_gather", |b| b.iter(|| sg.roundtrip(&x).unwrap()));
    group.finish();
}

/// Codec construction at dct2d cf=4: the operator build that `DczWriter`
/// pays once per container and `ChunkDecoder` once per read fidelity, so
/// `pack_file` pays it on every call.
fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    for n in [32usize, 256, 512] {
        let spec = CodecSpec::Dct2d { n, cf: 4 };
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec, |b, spec| {
            b.iter(|| spec.build().unwrap())
        });
    }
    group.finish();
}

/// One chunk at `pack_hires` geometry: four 256×256 smooth fields (two
/// plane waves each) plus noise, compressed at dct2d-n256-cf4 to
/// `[4, 1, 128, 128]` coefficients.
fn hires_chunk(n: usize, cf: usize) -> Tensor {
    let mut rng = Tensor::seeded_rng(11);
    let mut x = Tensor::rand_uniform([4, 1, n, n], -0.025, 0.025, &mut rng);
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        let (s, y, x) = ((i / (n * n)) as f32, ((i / n) % n) as f32, (i % n) as f32);
        let t = std::f32::consts::TAU / n as f32;
        *v += 0.5 * (t * ((1.0 + s) * x + 2.0 * y)).sin() + 0.3 * (t * (3.0 * x - s * y)).cos();
    }
    ChopCompressor::new(n, cf).unwrap().compress(&x).unwrap()
}

/// The entropy stage's steps on one chunk, each in coefficient bytes per
/// second: ring gather, code fit, section encode, and the fused decode of
/// every section back into the coefficient tensor.
fn bench_entropy(c: &mut Criterion) {
    let (n, cf) = (256, 4);
    let coeffs = hires_chunk(n, cf);
    let samples = coeffs.dims()[0];
    let rings = gather_rings(&coeffs, cf).unwrap();
    let codes = PlaneCodes::fit(rings.iter().map(|r| r.as_slice())).unwrap();
    let header = Header {
        codec: CodecSpec::Dct2d { n, cf },
        channels: 1,
        sample_count: samples as u64,
        chunk_size: samples as u32,
        chunk_count: 1,
    };
    let chunk = encode_chunk(&coeffs, cf).unwrap();
    let (prelude, sections) = chunk.split_at(prelude_len(cf));
    let prelude = decode_prelude(prelude, &header).unwrap();

    let mut group = c.benchmark_group("entropy");
    group.throughput(Throughput::Bytes(coeffs.size_bytes() as u64));
    group.bench_function("gather_rings", |b| b.iter(|| gather_rings(&coeffs, cf).unwrap()));
    group.bench_function("fit", |b| {
        b.iter(|| PlaneCodes::fit(rings.iter().map(|r| r.as_slice())).unwrap())
    });
    group.bench_function("encode", |b| {
        b.iter(|| rings.iter().map(|r| codes.encode(r).unwrap()).collect::<Vec<_>>())
    });
    group.bench_function("decode_sections", |b| {
        b.iter(|| decode_sections(&prelude, sections, &header, samples, cf).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compress_by_cf,
    bench_decompress_by_cf,
    bench_compress_by_resolution,
    bench_decompress_by_resolution,
    bench_partial_serialization,
    bench_scatter_gather,
    bench_construction,
    bench_entropy
);
criterion_main!(benches);
