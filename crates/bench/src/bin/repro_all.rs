//! Run every reproduction experiment end to end, refreshing `results/`.
//!
//! Usage: `cargo run --release -p aicomp-bench --bin repro_all
//!         [--epochs 8] [--train 192] [--quick]`
//!
//! `--quick` shrinks the training experiments (2 epochs, 64 samples) for a
//! smoke pass; default settings are the ones EXPERIMENTS.md records.

use std::process::Command;

use aicomp_bench::Flags;

fn main() {
    let usage = "usage: repro_all [--epochs <N>] [--train <N>] [--quick]";
    let flags = Flags::from_env(usage, &["--epochs", "--train"], &["--quick"]);
    let quick = flags.has("--quick");
    let epochs = flags.get("--epochs", if quick { 2 } else { 8usize });
    let train = flags.get("--train", if quick { 64 } else { 192usize });
    let epochs_s = epochs.to_string();
    let train_s = train.to_string();

    // (binary, extra args)
    let jobs: Vec<(&str, Vec<&str>)> = vec![
        ("table1_specs", vec![]),
        ("table2_datasets", vec![]),
        ("table3_benchmarks", vec![]),
        ("table_flops", vec![]),
        ("fig03_jpeg_heatmap", vec!["--images", if quick { "100" } else { "1000" }]),
        ("fig10_compress_resolution", vec![]),
        ("fig11_decompress_resolution", vec![]),
        ("fig12_compress_batch", vec![]),
        ("fig13_decompress_batch", vec![]),
        ("fig14_gpu_decompress", vec![]),
        ("fig15_partial_serialization", vec![]),
        ("fig17_sg_throughput", vec![]),
        ("fig07_training_loss", vec!["--epochs", &epochs_s, "--train", &train_s]),
        ("fig08_test_diff", vec!["--epochs", &epochs_s, "--train", &train_s]),
        ("fig09_zfp_compare", vec!["--epochs", &epochs_s, "--train", &train_s]),
        ("fig16_sg_accuracy", vec!["--epochs", &epochs_s, "--train", &train_s]),
        ("ablation_transforms", vec![]),
        ("ablation_block_size", vec![]),
        ("ablation_precision", vec![]),
        ("scaling_multichip", vec![]),
        ("analysis_pipeline_overlap", vec![]),
        ("analysis_time_breakdown", vec![]),
        ("analysis_spectra", vec![]),
        ("analysis_distributed", vec![]),
        ("analysis_codecs", vec![]),
        ("analysis_container", vec![]),
        ("future_targets", vec!["--epochs", &epochs_s, "--train", &train_s]),
    ];

    let exe_dir =
        std::env::current_exe().expect("current exe path").parent().expect("exe dir").to_path_buf();

    let mut failed = Vec::new();
    for (bin, extra) in &jobs {
        println!("\n=================================================================");
        println!("== {bin} {}", extra.join(" "));
        println!("=================================================================");
        // A binary that cannot even launch (missing from the target dir,
        // permission problem) is a failure of that experiment, not grounds
        // to abandon the rest of the sweep.
        match Command::new(exe_dir.join(bin)).args(extra).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{bin} exited with {status}");
                failed.push(*bin);
            }
            Err(e) => {
                eprintln!("failed to launch {bin}: {e}");
                failed.push(*bin);
            }
        }
    }

    println!("\n=================================================================");
    if failed.is_empty() {
        write_index(&jobs);
        println!("all {} experiments completed; CSVs are under results/", jobs.len());
    } else {
        println!("FAILED: {failed:?}");
        std::process::exit(1);
    }
}

/// Write results/INDEX.md: every experiment, its arguments, and the CSVs it
/// produced (with row counts) — the manifest EXPERIMENTS.md links against.
fn write_index(jobs: &[(&str, Vec<&str>)]) {
    use std::fmt::Write as _;
    let dir = aicomp_bench::results_dir();
    let mut md = String::from("# results/ index\n\nGenerated by `repro_all`.\n\n");
    md.push_str("| experiment | args | CSV | rows |\n|---|---|---|---|\n");
    for (bin, args) in jobs {
        // CSVs are named after the binary (some binaries write several;
        // match by prefix).
        let mut csvs: Vec<_> = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                // Match on the binary name up to its second underscore so
                // multi-CSV binaries (fig14_gpu_*) pick up all their files
                // without cross-matching other experiments.
                let prefix: String = {
                    let mut parts = bin.splitn(3, '_');
                    match (parts.next(), parts.next()) {
                        (Some(a), Some(b)) => format!("{a}_{b}"),
                        _ => (*bin).to_string(),
                    }
                };
                name.ends_with(".csv") && name.starts_with(&prefix)
            })
            .map(|e| e.path())
            .collect();
        csvs.sort();
        if csvs.is_empty() {
            let _ = writeln!(md, "| `{bin}` | {} | – | – |", args.join(" "));
        }
        for csv in csvs {
            let rows = std::fs::read_to_string(&csv)
                .map(|c| c.lines().count().saturating_sub(1))
                .unwrap_or(0);
            let fname = csv.file_name().unwrap_or_default().to_string_lossy().into_owned();
            let _ = writeln!(md, "| `{bin}` | {} | `{fname}` | {rows} |", args.join(" "));
        }
    }
    let path = dir.join("INDEX.md");
    if std::fs::write(&path, md).is_ok() {
        println!("wrote {}", path.display());
    }
}
