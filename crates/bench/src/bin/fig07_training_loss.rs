//! Fig. 7: average training loss per epoch for the four benchmarks, one
//! series per DCT+Chop compression ratio plus the uncompressed baseline.
//!
//! Usage: `cargo run --release -p aicomp-bench --bin fig07_training_loss
//!         [--epochs 8] [--train 192] [--fresh]`
//!
//! Shares its sweep cache with fig08 (results/accuracy_sweep_*.csv).

use aicomp_bench::sweeps::accuracy_sweep;
use aicomp_bench::{CsvOut, Flags};

fn main() {
    let usage = "usage: fig07_training_loss [--epochs <N>] [--train <N>] [--fresh]";
    let flags = Flags::from_env(usage, &["--epochs", "--train"], &["--fresh"]);
    let epochs = flags.get("--epochs", 8usize);
    let train = flags.get("--train", 192usize);
    let rows = accuracy_sweep(epochs, train, flags.has("--fresh"));

    let mut csv =
        CsvOut::create("fig07_training_loss", &["benchmark", "series", "epoch", "train_loss"]);
    let mut benchmarks: Vec<String> = Vec::new();
    for r in &rows {
        if !benchmarks.contains(&r.benchmark) {
            benchmarks.push(r.benchmark.clone());
        }
    }
    for benchmark in &benchmarks {
        let mut series: Vec<String> = Vec::new();
        for r in rows.iter().filter(|r| &r.benchmark == benchmark) {
            if !series.contains(&r.compressor) {
                series.push(r.compressor.clone());
            }
        }
        println!("\n{benchmark}: training loss per epoch");
        print!("{:>6}", "epoch");
        for s in &series {
            print!("{s:>14}");
        }
        println!();
        for e in 1..=epochs {
            print!("{e:>6}");
            for s in &series {
                let row = rows
                    .iter()
                    .find(|r| &r.benchmark == benchmark && &r.compressor == s && r.epoch == e)
                    .expect("complete sweep");
                print!("{:>14.5}", row.train_loss);
                csv.row(&[
                    benchmark.clone(),
                    s.clone(),
                    e.to_string(),
                    format!("{:.6}", row.train_loss),
                ]);
            }
            println!();
        }
    }
    println!("\nwrote {}", csv.path().display());
}
