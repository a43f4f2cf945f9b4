//! Downstream-user workflow: measure your dataset's block spectrum, let
//! the tuner pick the highest compression ratio meeting a PSNR target
//! (exact prediction via Parseval), then stream the dataset into a `.dcz`
//! container in bounded memory — the §1 scenario where the training set
//! is far larger than device memory.
//!
//! Run with: `cargo run --release --example tune_and_stream`

use aicomp::dct::tuning::{tune_for_psnr, BlockSpectrum};
use aicomp::store::writer::pack_file;
use aicomp::store::StoreOptions;
use aicomp::{DczReader, Tensor};

fn main() {
    // A "dataset": 200 synthetic 3x64x64 samples (think: a shard of the
    // 187 GB cloud_slstr_ds1 from Table 2).
    let make_sample = |i: usize| {
        Tensor::from_vec(
            (0..3 * 64 * 64)
                .map(|k| {
                    let x = (k % 64) as f32;
                    let y = ((k / 64) % 64) as f32;
                    ((x * 0.08 + i as f32 * 0.3).sin() + (y * 0.06).cos()) * 0.5
                        + ((k * 31 + i) % 17) as f32 * 0.004
                })
                .collect(),
            [3usize, 64, 64],
        )
        .expect("static shape")
    };

    // Step 1: measure the spectrum on a calibration slice.
    let calibration = {
        let samples: Vec<Tensor> = (0..16).map(make_sample).collect();
        let refs: Vec<&Tensor> = samples.iter().collect();
        Tensor::concat0(&refs).expect("same shapes").reshape([16, 3, 64, 64]).expect("counts match")
    };
    let spectrum = BlockSpectrum::measure(&calibration).expect("8-divisible");
    println!("block spectrum (energy compaction into the CFxCF corner):");
    for cf in 1..=8 {
        println!(
            "  CF {cf}: {:>6.2}% of energy, predicted MSE {:.6}",
            spectrum.compaction(cf) * 100.0,
            spectrum.predicted_mse(cf)
        );
    }

    // Step 2: tune for a 35 dB PSNR target.
    let target_db = 35.0;
    let compressor =
        tune_for_psnr(&calibration, target_db).expect("valid data").expect("achievable target");
    println!(
        "\ntuner: {target_db} dB target -> CF {} (CR {:.2})",
        compressor.chop_factor(),
        compressor.compression_ratio()
    );

    // Step 3: stream the full dataset into a container at that setting.
    // The writer holds a few chunks of raw samples at a time, however long
    // the stream.
    let chunk = 32;
    let path = std::env::temp_dir().join(format!("tune_and_stream_{}.dcz", std::process::id()));
    let opts = StoreOptions::dct(64, compressor.chop_factor(), 3, chunk);
    let summary = pack_file(&path, &opts, (0..200).map(make_sample)).expect("stream packs");
    println!(
        "\npacked {} samples in {} chunks: {:.1} MiB -> {:.1} MiB of chunk payload \
         (Chop CR {:.2} x entropy {:.2} = {:.2})",
        summary.samples,
        summary.chunks,
        summary.stream.bytes_in as f64 / (1024.0 * 1024.0),
        summary.payload_bytes as f64 / (1024.0 * 1024.0),
        summary.chop_ratio(),
        summary.entropy_gain(),
        summary.total_ratio()
    );

    // Step 4: verify the target held on real reconstructions.
    let rec = DczReader::open(&path).and_then(|mut r| r.decompress_chunk(0));
    std::fs::remove_file(&path).expect("remove the container");
    let rec = rec.expect("container reads back");
    let first_chunk = {
        let samples: Vec<Tensor> = (0..chunk).map(make_sample).collect();
        let refs: Vec<&Tensor> = samples.iter().collect();
        Tensor::concat0(&refs)
            .expect("same shapes")
            .reshape([chunk, 3, 64, 64])
            .expect("counts match")
    };
    let q = aicomp::dct::metrics::quality(&first_chunk, &rec).expect("same shapes");
    println!(
        "measured PSNR on the first chunk: {:.1} dB (target {target_db} dB) -> {}",
        q.psnr_db,
        if q.psnr_db >= target_db { "met" } else { "MISSED" }
    );
}
