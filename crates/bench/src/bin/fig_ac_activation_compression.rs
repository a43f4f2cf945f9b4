//! Activation-compression sweep — the Fig. 1 activation target measured
//! end to end: train each of the four §4.1 benchmarks with saved
//! activations spilled through each activation codec, and report
//! memory-saved vs accuracy-delta, plus the simulated per-step codec
//! overhead on each of the five Table 1 platforms via
//! [`StepModel`].
//!
//! Usage: `cargo run --release -p aicomp-bench
//!         --bin fig_ac_activation_compression
//!         [--epochs 3] [--train 96] [--quick]`
//!
//! Seeded end to end (`TrainConfig::quick` seeds data and weights), so
//! the CSV and the `BENCH_activation.json` records reproduce run-to-run.

use aicomp_accel::distributed::StepModel;
use aicomp_accel::{CompressorDeployment, Platform};
use aicomp_bench::{append_bench_record, CsvOut, Flags};
use aicomp_core::CodecSpec;
use aicomp_sciml::compressors::NoCompression;
use aicomp_sciml::tasks::{train, train_with_spill, SpillOptions, TrainResult};
use aicomp_sciml::Benchmark;

/// Nominal per-device compute per training step — the same ballpark the
/// distributed analysis uses; only the *ratio* codec/compute matters here.
const COMPUTE_S: f64 = 40e-3;

/// The activation codecs under test (None = no-spill baseline).
fn codecs() -> Vec<(&'static str, Option<CodecSpec>)> {
    vec![
        ("none", None),
        ("dct2d", Some(CodecSpec::Dct2d { n: 32, cf: 4 })),
        ("ebpc", Some(CodecSpec::Ebpc { len: 256 })),
        ("fmap", Some(CodecSpec::Fmap { n: 32, cf: 4, q: 8 })),
    ]
}

fn main() {
    let usage = "usage: fig_ac_activation_compression [--epochs <N>] [--train <N>] [--quick]";
    let flags = Flags::from_env(usage, &["--epochs", "--train"], &["--quick"]);
    let quick = flags.has("--quick");
    let epochs = flags.get("--epochs", if quick { 1 } else { 3 });
    let train_size = flags.get("--train", if quick { 32 } else { 96 });

    let mut csv = CsvOut::create(
        "fig_ac_activation_compression",
        &[
            "benchmark",
            "codec",
            "platform",
            "raw_mb",
            "resident_mb",
            "saved_mb",
            "measured_cr",
            "remats",
            "grad_err",
            "loss_delta_pct",
            "acc_delta_pct",
            "codec_ms_step",
            "step_overhead_pct",
        ],
    );

    println!(
        "{:<16} {:<6} {:<10} {:>9} {:>9} {:>8} {:>9} {:>10} {:>11} {:>13}",
        "benchmark",
        "codec",
        "platform",
        "raw MB",
        "saved MB",
        "CR",
        "grad err",
        "loss Δ%",
        "codec ms",
        "step ovhd %"
    );

    for benchmark in Benchmark::ALL {
        let mut cfg = aicomp_sciml::TrainConfig::quick(benchmark);
        cfg.epochs = epochs;
        cfg.train_size = train_size;
        cfg.test_size = (train_size / 4).max(8);

        let base: TrainResult = train(&cfg, &NoCompression);
        let steps = (epochs * (train_size / cfg.batch_size).max(1)) as f64;

        for (label, spec) in codecs() {
            let (result, report) = match spec {
                None => (base.clone(), None),
                Some(spec) => {
                    let mut opts = SpillOptions::new(spec);
                    opts.probe_gradients = true;
                    let (r, rep) = train_with_spill(&cfg, &NoCompression, &opts);
                    (r, Some(rep))
                }
            };

            let (raw_mb, resident_mb, cr, remats, grad_err) = match &report {
                Some(rep) => (
                    rep.ledger.peak_bytes_no_spill() as f64 / steps / 1e6,
                    rep.ledger.peak_bytes_spilled() as f64 / steps / 1e6,
                    rep.ledger.compression_ratio(),
                    rep.ledger.remats as f64 / steps,
                    rep.max_gradient_error.unwrap_or(0.0),
                ),
                None => (0.0, 0.0, 1.0, 0.0, 0.0),
            };
            let saved_mb = raw_mb - resident_mb;
            let loss_delta = result.test_loss_pct_diff(&base);
            let acc_delta = result.accuracy_pct_diff(&base);

            for platform in Platform::ALL {
                // Per-step device codec cost: the spilled bytes pushed
                // through this platform's simulated codec throughput.
                let codec_s = match spec {
                    None => 0.0,
                    Some(spec) => {
                        let dep = CompressorDeployment::from_spec(platform, spec, 300)
                            .expect("activation codec lowers everywhere");
                        let per_byte = (dep.compress_timing().seconds
                            + dep.decompress_timing().seconds)
                            / dep.uncompressed_bytes() as f64;
                        per_byte * raw_mb * 1e6
                    }
                };
                let m = StepModel::for_platform(platform, 1, 0, COMPUTE_S);
                let overhead_pct =
                    (m.step_time_compressed(1.0, codec_s) / m.step_time_uncompressed() - 1.0)
                        * 100.0;

                println!(
                    "{:<16} {:<6} {:<10} {:>9.2} {:>9.2} {:>8.2} {:>9.2e} {:>10.3} {:>11.3} {:>13.2}",
                    benchmark.name(),
                    label,
                    platform.name(),
                    raw_mb,
                    saved_mb,
                    cr,
                    grad_err,
                    loss_delta,
                    codec_s * 1e3,
                    overhead_pct
                );
                csv.row(&[
                    benchmark.name().into(),
                    label.into(),
                    platform.name().into(),
                    format!("{raw_mb:.3}"),
                    format!("{resident_mb:.3}"),
                    format!("{saved_mb:.3}"),
                    format!("{cr:.3}"),
                    format!("{remats:.1}"),
                    format!("{grad_err:.3e}"),
                    format!("{loss_delta:.4}"),
                    acc_delta.map(|a| format!("{a:.4}")).unwrap_or_default(),
                    format!("{:.4}", codec_s * 1e3),
                    format!("{overhead_pct:.3}"),
                ]);
            }

            // One trajectory record per benchmark × codec (platform-free
            // numbers: residency and accuracy are device-independent).
            append_bench_record(
                "activation",
                &[
                    ("benchmark", benchmark.name()),
                    (
                        "codec",
                        report.as_ref().map(|r| r.codec.clone()).as_deref().unwrap_or("none"),
                    ),
                ],
                &[
                    ("epochs", epochs as f64),
                    ("train_size", train_size as f64),
                    ("raw_mb_step", raw_mb),
                    ("saved_mb_step", saved_mb),
                    ("measured_cr", cr),
                    ("grad_err", grad_err),
                    ("loss_delta_pct", loss_delta),
                ],
            );
        }
    }

    println!("\nwrote {}", csv.path().display());
    println!("appended run records to BENCH_activation.json");
}
