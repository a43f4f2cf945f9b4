//! Fig. 16: accuracy of the torch.scatter/gather optimization — training
//! loss and test accuracy/loss percent difference vs baseline for the
//! classify and em_denoise benchmarks with CF ∈ {2, 7} (SG CRs in the
//! legend), compared against plain DCT+Chop at the same CFs.
//!
//! Usage: `cargo run --release -p aicomp-bench --bin fig16_sg_accuracy
//!         [--epochs 6] [--train 128]`

use aicomp_bench::sweeps::sweep_config;
use aicomp_bench::{CsvOut, Flags};
use aicomp_core::CodecSpec;
use aicomp_sciml::compressors::{DataCompressor, NoCompression};
use aicomp_sciml::{tasks, Benchmark};

fn main() {
    let usage = "usage: fig16_sg_accuracy [--epochs <N>] [--train <N>]";
    let flags = Flags::from_env(usage, &["--epochs", "--train"], &[]);
    let epochs = flags.get("--epochs", 6usize);
    let train = flags.get("--train", 128usize);

    let mut csv = CsvOut::create(
        "fig16_sg_accuracy",
        &["benchmark", "series", "epoch", "train_loss", "pct_diff_vs_base"],
    );
    for benchmark in [Benchmark::Classify, Benchmark::EmDenoise] {
        let n = benchmark.dataset_kind().sample_shape()[1];
        let cfg = sweep_config(benchmark, epochs, train);
        let is_classify = benchmark == Benchmark::Classify;

        eprintln!("[fig16] {} base...", benchmark.name());
        let base = tasks::train(&cfg, &NoCompression);

        let series: Vec<Box<dyn DataCompressor>> = vec![
            Box::new(CodecSpec::ScatterGather { n, cf: 2 }.build().expect("cf 2")),
            Box::new(CodecSpec::ScatterGather { n, cf: 7 }.build().expect("cf 7")),
            Box::new(CodecSpec::Dct2d { n, cf: 2 }.build().expect("cf 2")),
            Box::new(CodecSpec::Dct2d { n, cf: 7 }.build().expect("cf 7")),
        ];

        println!("\n{}:", benchmark.name());
        println!(
            "{:<14} {:>6} {:>16} {:>20}",
            "series",
            "CR",
            "final train loss",
            if is_classify { "acc % diff vs base" } else { "loss % diff vs base" }
        );
        for comp in &series {
            eprintln!("[fig16] {} {}...", benchmark.name(), comp.label());
            let r = tasks::train(&cfg, comp.as_ref());
            let pct = if is_classify {
                r.accuracy_pct_diff(&base).expect("classification")
            } else {
                r.test_loss_pct_diff(&base)
            };
            let final_train = r.epochs.last().expect("epochs").train_loss;
            println!("{:<14} {:>6.2} {:>16.5} {:>20.2}", r.compressor, r.ratio, final_train, pct);
            for (e, m) in r.epochs.iter().enumerate() {
                let base_m = &base.epochs[e];
                let epct = if is_classify {
                    (m.test_accuracy.unwrap_or(f64::NAN) - base_m.test_accuracy.unwrap_or(f64::NAN))
                        * 100.0
                } else {
                    (m.test_loss - base_m.test_loss) / base_m.test_loss * 100.0
                };
                csv.row(&[
                    benchmark.name().into(),
                    r.compressor.clone(),
                    (e + 1).to_string(),
                    format!("{:.6}", m.train_loss),
                    format!("{epct:.4}"),
                ]);
            }
        }
    }
    println!("\npaper: SG costs ~1-2% accuracy vs DCT+Chop at equal CF on classify; on");
    println!("em_denoise SG matches or slightly improves on DCT+Chop.");
    println!("wrote {}", csv.path().display());
}
