//! Criterion benches for the tensor substrate's hot kernels: the parallel
//! matmul (the simulated devices' compressor compute and the networks'
//! layers), broadcast batched matmul, and im2col convolution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aicomp_tensor::conv::conv2d;
use aicomp_tensor::Tensor;

fn square(n: usize, seed: u64) -> Tensor {
    let mut rng = Tensor::seeded_rng(seed);
    Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng)
}

fn bench_matmul_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_square");
    for n in [64usize, 128, 256] {
        let a = square(n, 1);
        let b = square(n, 2);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64)); // FLOPs
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| a.matmul(&b).unwrap())
        });
    }
    group.finish();
}

fn bench_broadcast_matmul(c: &mut Criterion) {
    // The compressor's actual pattern: [S, n, n] × [n, cs].
    let mut group = c.benchmark_group("broadcast_matmul");
    let mut rng = Tensor::seeded_rng(3);
    for slices in [30usize, 300] {
        let x = Tensor::rand_uniform([slices, 64, 64], -1.0, 1.0, &mut rng);
        let rhs = square(64, 4);
        group.throughput(Throughput::Bytes(x.size_bytes() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(slices), &slices, |bch, _| {
            bch.iter(|| x.matmul_broadcast(&rhs).unwrap())
        });
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_3x3");
    let mut rng = Tensor::seeded_rng(5);
    for n in [32usize, 64] {
        let x = Tensor::rand_uniform([8, 16, n, n], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([16usize, 16, 3, 3], -0.3, 0.3, &mut rng);
        group.throughput(Throughput::Bytes(x.size_bytes() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| conv2d(&x, &w, None, 1, 1).unwrap())
        });
    }
    group.finish();
}

fn bench_transpose_and_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout_ops");
    let a = square(256, 6);
    group.bench_function("transpose_256", |b| b.iter(|| a.transpose().unwrap()));
    group.bench_function("to_blocks_8", |b| b.iter(|| a.to_blocks(8).unwrap()));
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul_sizes,
    bench_broadcast_matmul,
    bench_conv2d,
    bench_transpose_and_blocks
);
criterion_main!(benches);
