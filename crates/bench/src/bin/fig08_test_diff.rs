//! Fig. 8: per-epoch test loss percent difference from the no-compression
//! baseline (test *accuracy* difference for the classify benchmark), one
//! series per DCT+Chop compression ratio.
//!
//! Usage: `cargo run --release -p aicomp-bench --bin fig08_test_diff
//!         [--epochs 8] [--train 192] [--fresh]`

use aicomp_bench::sweeps::accuracy_sweep;
use aicomp_bench::{CsvOut, Flags};

fn main() {
    let usage = "usage: fig08_test_diff [--epochs <N>] [--train <N>] [--fresh]";
    let flags = Flags::from_env(usage, &["--epochs", "--train"], &["--fresh"]);
    let epochs = flags.get("--epochs", 8usize);
    let train = flags.get("--train", 192usize);
    let rows = accuracy_sweep(epochs, train, flags.has("--fresh"));

    let mut csv = CsvOut::create("fig08_test_diff", &["benchmark", "series", "epoch", "pct_diff"]);
    let mut benchmarks: Vec<String> = Vec::new();
    for r in &rows {
        if !benchmarks.contains(&r.benchmark) {
            benchmarks.push(r.benchmark.clone());
        }
    }
    for benchmark in &benchmarks {
        let is_classify = benchmark == "classify";
        let mut series: Vec<String> = Vec::new();
        for r in rows.iter().filter(|r| &r.benchmark == benchmark && r.compressor != "base") {
            if !series.contains(&r.compressor) {
                series.push(r.compressor.clone());
            }
        }
        println!(
            "\n{benchmark}: {} % difference vs base per epoch ({} is better)",
            if is_classify { "test accuracy" } else { "test loss" },
            if is_classify { "higher" } else { "lower" },
        );
        print!("{:>6}", "epoch");
        for s in &series {
            print!("{s:>14}");
        }
        println!();
        for e in 1..=epochs {
            let base = rows
                .iter()
                .find(|r| &r.benchmark == benchmark && r.compressor == "base" && r.epoch == e)
                .expect("baseline present");
            print!("{e:>6}");
            for s in &series {
                let row = rows
                    .iter()
                    .find(|r| &r.benchmark == benchmark && &r.compressor == s && r.epoch == e)
                    .expect("complete sweep");
                let pct = if is_classify {
                    (row.test_accuracy - base.test_accuracy) * 100.0
                } else {
                    (row.test_loss - base.test_loss) / base.test_loss * 100.0
                };
                print!("{pct:>14.2}");
                csv.row(&[benchmark.clone(), s.clone(), e.to_string(), format!("{pct:.4}")]);
            }
            println!();
        }
    }
    println!("\npaper: classify degrades with CR (≤3% for CF 5-7); em_denoise can *improve*;");
    println!("optical_damage shows larger % on small absolute losses; slstr_cloud stays close.");
    println!("wrote {}", csv.path().display());
}
