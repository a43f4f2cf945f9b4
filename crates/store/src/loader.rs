//! [`StoreBatchSource`] — train the sciml benchmarks straight from packed
//! `.dcz` files.
//!
//! Implements [`aicomp_sciml::BatchSource`]: training and test inputs are
//! decoded from two containers by background [`PrefetchLoader`]s while the
//! model computes, replacing the in-memory dataset + compressor round-trip.
//! Because the container preserves Chop's output bit-exactly and chunked
//! compression equals batched compression bitwise, a `.dcz` packed from a
//! dataset's inputs reproduces `tasks::train`'s losses exactly (the root
//! `store_training` integration test asserts this).
//!
//! The epoch loop reads batches in ascending sample order and rewinds to
//! sample 0 each epoch; `PassReader` detects the rewind (a batch start
//! below the retained window) and restarts its prefetch pass.
//!
//! Under a non-default [`crate::ReadPolicy`] the source keeps training
//! past damaged chunks; everything substituted or degraded is recorded in
//! a [`PassHealth`] ledger (cumulative across epochs, deduplicated by
//! chunk) so the run can report *exactly* what it trained on.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use aicomp_sciml::{BatchSource, SourceError};
use aicomp_tensor::Tensor;

use crate::prefetch::{ChunkFidelity, PrefetchConfig, PrefetchLoader};
use crate::reader::DczReader;
use crate::{Result, StoreError};

/// Ledger of every chunk a pass could not serve at full fidelity.
/// Cumulative over the reader's lifetime; chunks are deduplicated, so
/// multiple epochs over the same damage count it once.
#[derive(Debug, Clone, Default)]
pub struct PassHealth {
    /// Skipped (zeros-substituted) chunks: `chunk → (first_sample,
    /// samples, error)`.
    skipped: BTreeMap<usize, (u64, u32, String)>,
    /// Degraded chunks: `chunk → chop factor actually decoded`.
    degraded: BTreeMap<usize, usize>,
}

impl PassHealth {
    fn record(&mut self, chunk: usize, first_sample: u64, samples: u32, fid: &ChunkFidelity) {
        match fid {
            ChunkFidelity::Full => {}
            ChunkFidelity::Degraded { cf } => {
                self.degraded.insert(chunk, *cf);
            }
            ChunkFidelity::Skipped { error } => {
                self.skipped.insert(chunk, (first_sample, samples, error.clone()));
            }
        }
    }

    /// True when every chunk served decoded at full fidelity.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty() && self.degraded.is_empty()
    }

    /// Chunks substituted with zeros.
    pub fn skipped_chunks(&self) -> usize {
        self.skipped.len()
    }

    /// Samples inside the skipped chunks.
    pub fn skipped_samples(&self) -> u64 {
        self.skipped.values().map(|(_, s, _)| *s as u64).sum()
    }

    /// Chunks served from a coarser ring prefix.
    pub fn degraded_chunks(&self) -> usize {
        self.degraded.len()
    }

    /// Per-chunk detail of the skips: `(chunk, first_sample, samples,
    /// error)`, in chunk order.
    pub fn skipped(&self) -> impl Iterator<Item = (usize, u64, u32, &str)> {
        self.skipped.iter().map(|(c, (f, s, e))| (*c, *f, *s, e.as_str()))
    }

    /// One-line report for logs and test assertions.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "all chunks full fidelity".to_string()
        } else {
            format!(
                "{} chunk(s) skipped ({} samples zeroed), {} chunk(s) degraded",
                self.skipped_chunks(),
                self.skipped_samples(),
                self.degraded_chunks()
            )
        }
    }
}

/// One sequential decode pass over a container, restartable on rewind.
#[derive(Debug)]
struct PassReader {
    path: PathBuf,
    cfg: PrefetchConfig,
    loader: Option<PrefetchLoader>,
    /// Decoded chunks covering `[window start, next_sample)`:
    /// `(first_sample, [S, C, n', n'])`.
    window: Vec<(u64, Tensor)>,
    /// First sample index not yet pulled from the loader.
    next_sample: u64,
    /// What this reader could not serve at full fidelity (cumulative).
    health: PassHealth,
}

impl PassReader {
    fn new(path: PathBuf, cfg: PrefetchConfig) -> PassReader {
        PassReader {
            path,
            cfg,
            loader: None,
            window: Vec::new(),
            next_sample: 0,
            health: PassHealth::default(),
        }
    }

    /// First sample still available without restarting.
    fn low(&self) -> u64 {
        self.window.first().map_or(self.next_sample, |(s, _)| *s)
    }

    fn restart(&mut self) -> Result<()> {
        self.loader = Some(PrefetchLoader::open(&self.path, self.cfg)?);
        self.window.clear();
        self.next_sample = 0;
        Ok(())
    }

    fn batch(&mut self, start: usize, end: usize) -> Result<Tensor> {
        let (start, end) = (start as u64, end as u64);
        if start >= end {
            return Err(StoreError::InvalidArg(format!("empty batch {start}..{end}")));
        }
        if self.loader.is_none() || start < self.low() {
            self.restart()?;
        }
        // Drop chunks that end at or before the batch start.
        self.window.retain(|(first, data)| first + data.dims()[0] as u64 > start);
        // Pull until the window covers the batch end.
        while self.next_sample < end {
            let loader = self
                .loader
                .as_mut()
                .ok_or_else(|| StoreError::InvalidArg("prefetch pass not started".into()))?;
            let pulled = loader.next_chunk().ok_or_else(|| {
                StoreError::InvalidArg(format!(
                    "batch {start}..{end} past the container's {} samples",
                    self.next_sample
                ))
            });
            let chunk = match pulled.and_then(|r| r) {
                Ok(c) => c,
                Err(e) => {
                    // Poison the pass: the failed chunk leaves a hole in
                    // the window, so a retried batch must restart from
                    // scratch (and fail the same way, deterministically)
                    // rather than silently serve around the gap.
                    self.loader = None;
                    self.window.clear();
                    self.next_sample = 0;
                    return Err(e);
                }
            };
            let samples = chunk.data.dims()[0];
            self.health.record(chunk.chunk, chunk.first_sample, samples as u32, &chunk.fidelity);
            self.next_sample = chunk.first_sample + samples as u64;
            self.window.push((chunk.first_sample, chunk.data));
        }
        // Assemble the batch from the overlapping chunk slices.
        let mut parts = Vec::new();
        for (first, data) in &self.window {
            let len = data.dims()[0] as u64;
            let lo = start.max(*first);
            let hi = end.min(first + len);
            if lo < hi {
                parts.push(data.slice0((lo - first) as usize, (hi - first) as usize)?);
            }
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        Ok(Tensor::concat0(&refs)?)
    }
}

/// [`BatchSource`] over a pair of packed containers (train + test inputs).
#[derive(Debug)]
pub struct StoreBatchSource {
    train: PassReader,
    test: PassReader,
    ratio: f64,
    label: String,
}

impl StoreBatchSource {
    /// Open `train_path`/`test_path`, validating both containers and the
    /// requested read fidelity up front.
    pub fn open(
        train_path: impl AsRef<Path>,
        test_path: impl AsRef<Path>,
        cfg: PrefetchConfig,
    ) -> Result<StoreBatchSource> {
        let header = *DczReader::open(&train_path)?.header();
        let test_header = *DczReader::open(&test_path)?.header();
        if (test_header.codec, test_header.channels) != (header.codec, header.channels) {
            return Err(StoreError::InvalidArg(
                "train and test containers have mismatched geometry".into(),
            ));
        }
        let read_cf = cfg.read_cf.unwrap_or(header.cf());
        if read_cf == 0 || read_cf > header.cf() {
            return Err(StoreError::InvalidArg(format!(
                "read chop factor {read_cf} outside 1..={}",
                header.cf()
            )));
        }
        // Eq. 3 ratio at the read fidelity, from the same registry codec
        // the reader decodes with.
        let ratio = header.codec.with_chop_factor(read_cf).build()?.compression_ratio();
        Ok(StoreBatchSource {
            train: PassReader::new(train_path.as_ref().to_path_buf(), cfg),
            test: PassReader::new(test_path.as_ref().to_path_buf(), cfg),
            ratio,
            label: format!("dcz_cr{ratio:.2}"),
        })
    }

    /// Fidelity ledger for the training container (cumulative).
    pub fn train_health(&self) -> &PassHealth {
        &self.train.health
    }

    /// Fidelity ledger for the test container (cumulative).
    pub fn test_health(&self) -> &PassHealth {
        &self.test.health
    }
}

impl BatchSource for StoreBatchSource {
    fn train_batch(
        &mut self,
        start: usize,
        end: usize,
    ) -> std::result::Result<Tensor, SourceError> {
        self.train.batch(start, end).map_err(|e| SourceError(e.to_string()))
    }
    fn test_batch(&mut self, start: usize, end: usize) -> std::result::Result<Tensor, SourceError> {
        self.test.batch(start, end).map_err(|e| SourceError(e.to_string()))
    }
    fn ratio(&self) -> f64 {
        self.ratio
    }
    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::ReadPolicy;
    use crate::writer::{pack_file, StoreOptions};
    use aicomp_core::ChopCompressor;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k * 3 + i * 17) % 31) as f32 / 4.0 - 3.5).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aicomp_loader_{tag}_{}.dcz", std::process::id()))
    }

    #[test]
    fn batches_match_roundtrip_across_chunk_boundaries_and_epochs() {
        let train = temp_path("train");
        let test = temp_path("test");
        let opts = StoreOptions::dct(16, 4, 2, 3);
        let samples: Vec<Tensor> = (0..10).map(|i| sample(i, 2, 16)).collect();
        pack_file(&train, &opts, samples.iter().cloned()).unwrap();
        pack_file(&test, &opts, samples.iter().take(4).cloned()).unwrap();

        let mut src = StoreBatchSource::open(&train, &test, PrefetchConfig::default()).unwrap();
        assert_eq!(src.ratio(), 4.0);
        assert_eq!(src.label(), "dcz_cr4.00");

        let comp = ChopCompressor::new(16, 4).unwrap();
        let expect = |lo: usize, hi: usize| {
            let refs: Vec<&Tensor> = samples[lo..hi].iter().collect();
            let b = Tensor::concat0(&refs).unwrap().reshape([hi - lo, 2usize, 16, 16]).unwrap();
            comp.roundtrip(&b).unwrap()
        };

        // Two epochs of batch_size 4 over 10 samples (straddles the
        // chunk_size-3 boundaries), with a test read in between.
        for _epoch in 0..2 {
            for (lo, hi) in [(0usize, 4usize), (4, 8), (8, 10)] {
                let got = src.train_batch(lo, hi).unwrap();
                let want = expect(lo, hi);
                let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "batch {lo}..{hi}");
            }
            let t = src.test_batch(0, 4).unwrap();
            assert_eq!(t.dims(), &[4, 2, 16, 16]);
        }
        assert!(src.train_health().is_clean());
        assert_eq!(src.train_health().summary(), "all chunks full fidelity");
        std::fs::remove_file(&train).ok();
        std::fs::remove_file(&test).ok();
    }

    #[test]
    fn dropping_source_mid_epoch_joins_workers() {
        // Regression: a consumer that abandons an epoch mid-way (early
        // stopping, an error elsewhere in the training loop) drops the
        // source while prefetch workers are still decoding ahead and the
        // lookahead channel is full. The drop must cancel and join every
        // worker — a hang here is the deadlock this test guards against
        // (the test harness timeout is the enforcement).
        let train = temp_path("middrop");
        let opts = StoreOptions::dct(16, 4, 1, 1);
        let samples: Vec<Tensor> = (0..16).map(|i| sample(i, 1, 16)).collect();
        pack_file(&train, &opts, samples.iter().cloned()).unwrap();

        for workers in [1usize, 4] {
            let cfg = PrefetchConfig { workers, lookahead: 1, ..PrefetchConfig::default() };
            let mut src = StoreBatchSource::open(&train, &train, cfg).unwrap();
            // One batch into the epoch: workers are live and decoding ahead.
            let b = src.train_batch(0, 2).unwrap();
            assert_eq!(b.dims(), &[2, 1, 16, 16]);
            drop(src);
        }
        // The file is free again: a fresh pass still works end to end.
        let mut src = StoreBatchSource::open(&train, &train, PrefetchConfig::default()).unwrap();
        assert_eq!(src.train_batch(0, 16).unwrap().dims(), &[16, 1, 16, 16]);
        std::fs::remove_file(&train).ok();
    }

    #[test]
    fn out_of_range_batch_errors_with_context() {
        let train = temp_path("range");
        let opts = StoreOptions::dct(16, 4, 1, 2);
        pack_file(&train, &opts, (0..4).map(|i| sample(i, 1, 16))).unwrap();
        let mut src = StoreBatchSource::open(&train, &train, PrefetchConfig::default()).unwrap();
        assert!(src.train.batch(2, 8).is_err());
        assert!(src.train_batch(2, 8).is_err());
        std::fs::remove_file(&train).ok();
    }

    #[test]
    fn mismatched_containers_rejected() {
        let a = temp_path("geom_a");
        let b = temp_path("geom_b");
        let opts_a = StoreOptions::dct(16, 4, 1, 2);
        let opts_b = StoreOptions::dct(16, 5, 1, 2);
        pack_file(&a, &opts_a, (0..2).map(|i| sample(i, 1, 16))).unwrap();
        pack_file(&b, &opts_b, (0..2).map(|i| sample(i, 1, 16))).unwrap();
        assert!(StoreBatchSource::open(&a, &b, PrefetchConfig::default()).is_err());
        let bad = PrefetchConfig { read_cf: Some(7), ..PrefetchConfig::default() };
        assert!(StoreBatchSource::open(&a, &a, bad).is_err());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn skip_policy_serves_batches_and_reports_health() {
        let train = temp_path("health");
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let samples: Vec<Tensor> = (0..8).map(|i| sample(i, 1, 16)).collect();
        pack_file(&train, &opts, samples.iter().cloned()).unwrap();
        // Corrupt chunk 1 (samples 2..4).
        let mut bytes = std::fs::read(&train).unwrap();
        let e = DczReader::open(&train).unwrap().index()[1];
        bytes[(e.offset + 7) as usize] ^= 0x11;
        std::fs::write(&train, bytes).unwrap();

        let cfg = PrefetchConfig { policy: ReadPolicy::SkipChunk, ..PrefetchConfig::default() };
        let mut src = StoreBatchSource::open(&train, &train, cfg).unwrap();
        // Two epochs: health must deduplicate the repeated skip.
        for _ in 0..2 {
            let b = src.train_batch(0, 8).unwrap();
            assert_eq!(b.dims(), &[8, 1, 16, 16]);
            // Samples 2..4 are the zeros substitute.
            let flat = b.data();
            assert!(flat[2 * 256..4 * 256].iter().all(|v| *v == 0.0));
            assert!(flat[..2 * 256].iter().any(|v| *v != 0.0));
        }
        let health = src.train_health();
        assert!(!health.is_clean());
        assert_eq!(health.skipped_chunks(), 1);
        assert_eq!(health.skipped_samples(), 2);
        let detail: Vec<_> = health.skipped().collect();
        assert_eq!(detail[0].0, 1);
        assert_eq!(detail[0].1, 2);
        assert!(detail[0].3.contains("CRC"), "error detail: {}", detail[0].3);
        assert!(health.summary().contains("1 chunk(s) skipped"));

        // Same store under Fail: deterministic error instead.
        let mut strict = StoreBatchSource::open(&train, &train, PrefetchConfig::default()).unwrap();
        let e1 = strict.train_batch(0, 8).unwrap_err();
        let e2 = strict.train_batch(0, 8).unwrap_err();
        assert_eq!(e1, e2, "failure must be deterministic");
        std::fs::remove_file(&train).ok();
    }
}
