//! Criterion benches for the host-side DCT+Chop kernels: wall-clock
//! compression/decompression over the paper's CF and resolution grids
//! (this measures *our* CPU kernels; device times are simulated by
//! `aicomp-accel` and reported by the figure binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aicomp_core::{ChopCompressor, PartialSerialized, ScatterGatherChop};
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

/// Resolutions of the flat-in-n check: with the block-span gemm, MB/s at
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

criterion_group!(
    benches,
    bench_compress_by_cf,
    bench_decompress_by_cf,
    bench_compress_by_resolution,
    bench_decompress_by_resolution,
    bench_partial_serialization,
    bench_scatter_gather
);
criterion_main!(benches);
