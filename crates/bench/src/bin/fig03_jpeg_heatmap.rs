//! Fig. 3: heatmap of nonzero DCT coefficients after JPEG quantization,
//! per 8×8 coefficient position, across quality factors and color
//! channels — the motivation for chopping the upper-left block.
//!
//! The paper uses 1000 CIFAR-10 images; we use 1000 synthetic classify
//! images (same 32×32 RGB shape).
//!
//! Usage: `cargo run --release -p aicomp-bench --bin fig03_jpeg_heatmap [--images 1000]`

use aicomp_baselines::JpegQuantizer;
use aicomp_bench::{CsvOut, Flags};
use aicomp_sciml::{Dataset, DatasetKind};

fn main() {
    let flags = Flags::from_env("usage: fig03_jpeg_heatmap [--images <N>]", &["--images"], &[]);
    let n_images = flags.get("--images", 1000usize);
    let qualities = [5u32, 10, 25, 50, 75, 95];

    eprintln!("generating {n_images} classify images...");
    let ds = Dataset::generate(DatasetKind::Classify, n_images, 555);

    let mut csv =
        CsvOut::create("fig03_jpeg_heatmap", &["quality", "channel", "i", "j", "pct_nonzero"]);
    for channel in 0..3 {
        for &q in &qualities {
            let quant = JpegQuantizer::new(q).expect("valid quality");
            let heat = quant.nonzero_heatmap(&ds.inputs, channel).expect("heatmap");
            println!(
                "\nchannel {channel}, quality factor {q} (% of blocks with nonzero coefficient):"
            );
            for i in 0..8 {
                for j in 0..8 {
                    let v = heat.at(&[i, j]);
                    print!("{v:>6.1}");
                    csv.row(&[
                        q.to_string(),
                        channel.to_string(),
                        i.to_string(),
                        j.to_string(),
                        format!("{v:.2}"),
                    ]);
                }
                println!();
            }
        }
    }

    // The paper's reading of this figure: nonzeros concentrate in the
    // upper-left; lower quality → sparser.
    println!("\nsummary (channel 0): mean %nonzero upper-left 4x4 vs lower-right 4x4");
    for &q in &qualities {
        let quant = JpegQuantizer::new(q).expect("valid quality");
        let heat = quant.nonzero_heatmap(&ds.inputs, 0).expect("heatmap");
        let (mut ul, mut lr) = (0.0f32, 0.0f32);
        for i in 0..4 {
            for j in 0..4 {
                ul += heat.at(&[i, j]);
                lr += heat.at(&[i + 4, j + 4]);
            }
        }
        println!("  QF {q:>3}: upper-left {:.1}%  lower-right {:.1}%", ul / 16.0, lr / 16.0);
    }
    println!("\nwrote {}", csv.path().display());
}
