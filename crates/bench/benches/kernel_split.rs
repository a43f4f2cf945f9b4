//! Per-call cost of the codec kernel at top level against the same call
//! inside `rayon::in_worker`, where it runs its planes inline, over
//! growing batches at dct2d cf=4. A top-level call splits its planes
//! across spawned threads only from the kernel's inline crossover up
//! (DESIGN.md §2.4), so below it both columns time the same inline run.
//!
//! `cargo bench -p aicomp-bench --bench kernel_split`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aicomp_core::ChopCompressor;
use aicomp_tensor::Tensor;

/// `(n, planes)` per call, in ascending full-resolution elements
/// (`planes·n²`): 32² classify planes and 256² `pack_hires` planes.
const SHAPES: [(usize, usize); 8] =
    [(32, 12), (32, 48), (256, 1), (256, 2), (32, 192), (256, 4), (256, 8), (256, 16)];

fn bench_kernel_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_split");
    for (n, planes) in SHAPES {
        let mut rng = Tensor::seeded_rng(5);
        let x = Tensor::rand_uniform([planes, 1, n, n], -1.0, 1.0, &mut rng);
        let comp = ChopCompressor::new(n, 4).unwrap();
        let y = comp.compress(&x).unwrap();
        let elems = planes * n * n;
        group.bench_with_input(BenchmarkId::new("compress/top", elems), &x, |b, x| {
            b.iter(|| comp.compress(x).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("compress/inline", elems), &x, |b, x| {
            b.iter(|| rayon::in_worker(|| comp.compress(x).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("decompress/top", elems), &y, |b, y| {
            b.iter(|| comp.decompress(y).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("decompress/inline", elems), &y, |b, y| {
            b.iter(|| rayon::in_worker(|| comp.decompress(y).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_split);
criterion_main!(benches);
