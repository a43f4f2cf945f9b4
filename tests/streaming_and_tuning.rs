//! Integration: host compression, the quality tuner, and the simulated
//! devices working together — the full "downstream user" path.

use aicomp::accel::{CompressorDeployment, Platform};
use aicomp::dct::metrics::quality;
use aicomp::dct::tuning::{tune_for_psnr, BlockSpectrum};
use aicomp::sciml::{Dataset, DatasetKind};

#[test]
fn streamed_batches_decompress_on_device() {
    // Compress batches on the host, decompress each on a simulated
    // accelerator: the bytes must round-trip identically to the host path.
    let ds = Dataset::generate(DatasetKind::EmDenoise, 8, 99);
    let host = aicomp::ChopCompressor::new(64, 4).unwrap();
    let dep = CompressorDeployment::plain(Platform::Cs2, 64, 4, 4).unwrap();
    for b in 0..2 {
        let x = ds.inputs.slice0(4 * b, 4 * b + 4).unwrap().reshape([4, 1, 64, 64]).unwrap();
        let batch = host.compress(&x).unwrap();
        // Device expects [slices, cs, cs]; each batch is [4,1,32,32].
        let y = batch.reshape([4, 32, 32]).unwrap();
        let dev = dep.decompress(&y).unwrap();
        let host_rec = host.decompress(&batch).unwrap();
        assert!(dev.outputs[0]
            .reshape(host_rec.dims().to_vec())
            .unwrap()
            .allclose(&host_rec, 1e-5));
    }
}

#[test]
fn tuner_predictions_hold_on_every_benchmark_dataset() {
    // The Parseval-exact predicted MSE must match the realized chop error
    // on all four synthetic datasets.
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, 8, 3131);
        let spectrum = BlockSpectrum::measure(&ds.inputs).unwrap();
        for cf in [2usize, 4, 6] {
            let n = kind.sample_shape()[1];
            let comp = aicomp::ChopCompressor::new(n, cf).unwrap();
            let rec = comp.roundtrip(&ds.inputs).unwrap();
            let actual = rec.mse(&ds.inputs).unwrap();
            let predicted = spectrum.predicted_mse(cf);
            assert!(
                (actual - predicted).abs() <= 1e-6 + predicted * 0.02,
                "{} cf={cf}: actual {actual} vs predicted {predicted}",
                kind.name()
            );
        }
    }
}

#[test]
fn tuned_compressor_deploys_and_meets_target() {
    let ds = Dataset::generate(DatasetKind::SlstrCloud, 6, 555);
    let target = 30.0;
    let comp = tune_for_psnr(&ds.inputs, target).unwrap().expect("achievable");

    // Deploy the tuned configuration on the IPU and verify quality.
    let slices = 6 * 3;
    let dep = CompressorDeployment::plain(Platform::Ipu, 64, comp.chop_factor(), slices).unwrap();
    let x = ds.inputs.reshape([slices, 64, 64]).unwrap();
    let y = dep.compress(&x).unwrap();
    let rec = dep.decompress(&y.outputs[0]).unwrap();
    let q = quality(&x, &rec.outputs[0]).unwrap();
    assert!(q.psnr_db >= target - 0.5, "target {target}, got {}", q.psnr_db);
}
