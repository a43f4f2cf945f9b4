//! Shared experiment sweeps used by more than one figure binary.
//!
//! The accuracy experiments (Figs. 7, 8, 9, 16) train the same models; the
//! sweep results are cached as CSV so Fig. 8 does not re-train what Fig. 7
//! already produced (pass `--fresh` to any binary to force a re-run).

use std::fs;
use std::path::PathBuf;

use aicomp_core::CodecSpec;
use aicomp_sciml::compressors::{DataCompressor, NoCompression};
use aicomp_sciml::{tasks, Benchmark, TrainConfig};

use crate::{results_dir, CF_SWEEP};

/// One row of the accuracy sweep: per-epoch metrics for one
/// (benchmark, compressor) pair.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Compressor label ("base" = no compression).
    pub compressor: String,
    /// Compression ratio.
    pub ratio: f64,
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Test loss.
    pub test_loss: f64,
    /// Test accuracy (classification only; NaN otherwise).
    pub test_accuracy: f64,
}

/// Scaled-but-meaningful default training configuration for the accuracy
/// sweeps (overridable from each binary's CLI).
pub fn sweep_config(benchmark: Benchmark, epochs: usize, train_size: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick(benchmark);
    cfg.epochs = epochs;
    cfg.train_size = train_size;
    cfg.test_size = (train_size / 4).max(16);
    cfg
}

/// Run (or load from cache) the Fig. 7/8 sweep: all four benchmarks ×
/// {base, CF 2..7}.
pub fn accuracy_sweep(epochs: usize, train_size: usize, fresh: bool) -> Vec<AccuracyRow> {
    let cache = cache_path("accuracy_sweep", epochs, train_size);
    if !fresh {
        if let Some(rows) = load_cache(&cache) {
            eprintln!("[sweep] loaded {} cached rows from {}", rows.len(), cache.display());
            return rows;
        }
    }

    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let n = benchmark.dataset_kind().sample_shape()[1];
        let cfg = sweep_config(benchmark, epochs, train_size);

        let mut compressors: Vec<Box<dyn DataCompressor>> = vec![Box::new(NoCompression)];
        for cf in CF_SWEEP {
            compressors.push(Box::new(CodecSpec::Dct2d { n, cf }.build().expect("valid cf")));
        }
        for comp in &compressors {
            eprintln!("[sweep] {} / {} (CR {:.2})", benchmark.name(), comp.label(), comp.ratio());
            let result = tasks::train(&cfg, comp.as_ref());
            for (e, m) in result.epochs.iter().enumerate() {
                rows.push(AccuracyRow {
                    benchmark: benchmark.name().to_string(),
                    compressor: result.compressor.clone(),
                    ratio: result.ratio,
                    epoch: e + 1,
                    train_loss: m.train_loss,
                    test_loss: m.test_loss,
                    test_accuracy: m.test_accuracy.unwrap_or(f64::NAN),
                });
            }
        }
    }
    save_cache(&cache, &rows);
    rows
}

fn cache_path(name: &str, epochs: usize, train_size: usize) -> PathBuf {
    results_dir().join(format!("{name}_e{epochs}_n{train_size}.csv"))
}

fn save_cache(path: &PathBuf, rows: &[AccuracyRow]) {
    let mut s =
        String::from("benchmark,compressor,ratio,epoch,train_loss,test_loss,test_accuracy\n");
    for r in rows {
        s.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.benchmark, r.compressor, r.ratio, r.epoch, r.train_loss, r.test_loss, r.test_accuracy
        ));
    }
    fs::write(path, s).expect("write sweep cache");
}

fn load_cache(path: &PathBuf) -> Option<Vec<AccuracyRow>> {
    let content = fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in content.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 7 {
            return None;
        }
        rows.push(AccuracyRow {
            benchmark: f[0].to_string(),
            compressor: f[1].to_string(),
            ratio: f[2].parse().ok()?,
            epoch: f[3].parse().ok()?,
            train_loss: f[4].parse().ok()?,
            test_loss: f[5].parse().ok()?,
            test_accuracy: f[6].parse().unwrap_or(f64::NAN),
        });
    }
    (!rows.is_empty()).then_some(rows)
}

/// Final-epoch rows only.
pub fn final_epoch(rows: &[AccuracyRow]) -> Vec<&AccuracyRow> {
    let max_epoch = rows.iter().map(|r| r.epoch).max().unwrap_or(0);
    rows.iter().filter(|r| r.epoch == max_epoch).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_roundtrip() {
        let rows = vec![AccuracyRow {
            benchmark: "classify".into(),
            compressor: "base".into(),
            ratio: 1.0,
            epoch: 1,
            train_loss: 2.0,
            test_loss: 2.1,
            test_accuracy: 0.3,
        }];
        let path = results_dir().join("_test_sweep_cache.csv");
        save_cache(&path, &rows);
        let loaded = load_cache(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].benchmark, "classify");
        assert_eq!(loaded[0].test_loss, 2.1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn final_epoch_filters() {
        let mk = |epoch| AccuracyRow {
            benchmark: "x".into(),
            compressor: "base".into(),
            ratio: 1.0,
            epoch,
            train_loss: 0.0,
            test_loss: 0.0,
            test_accuracy: f64::NAN,
        };
        let rows = vec![mk(1), mk(2), mk(3), mk(3)];
        assert_eq!(final_epoch(&rows).len(), 2);
    }
}
