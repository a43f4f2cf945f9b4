//! Failure-injection tests: every compile-time failure mode the paper
//! reports, plus graceful handling of bad inputs.

use aicomp::accel::{CompileError, CompressorDeployment, Device, DeviceError, Graph, Platform};
use aicomp::{ChopCompressor, PartialSerialized, ScatterGatherChop, Tensor};

#[test]
fn resolution_512_fails_exactly_where_the_paper_says() {
    // §4.2.2: "compilation for 512×512 resolution fails for SN30 and
    // GroqChip due to an out-of-memory error on-chip."
    for platform in [Platform::Sn30, Platform::GroqChip] {
        let err = CompressorDeployment::plain(platform, 512, 4, 300).unwrap_err();
        assert!(matches!(err, DeviceError::Compile(_)), "{platform}");
    }
    for platform in [Platform::Cs2, Platform::Ipu, Platform::A100] {
        assert!(CompressorDeployment::plain(platform, 512, 4, 300).is_ok(), "{platform}");
    }
}

#[test]
fn groq_batch_cliff_is_between_1000_and_2000() {
    assert!(CompressorDeployment::plain(Platform::GroqChip, 64, 4, 1000 * 3).is_ok());
    let err = CompressorDeployment::plain(Platform::GroqChip, 64, 4, 2000 * 3).unwrap_err();
    let DeviceError::Compile(CompileError::OutOfMemory { required, available }) = err else {
        panic!("expected OOM, got {err:?}");
    };
    assert!(required > available);
}

#[test]
fn unsupported_operator_error_names_op_and_platform() {
    let device = Device::new(Platform::Cs2);
    let mut g = Graph::new();
    let x = g.input([1usize, 8, 8]);
    let packed = g.gather(x, vec![0, 1]).unwrap();
    g.output(packed).unwrap();
    let err = device.compile(g).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("gather"), "{msg}");
    assert!(msg.contains("Cerebras"), "{msg}");
}

#[test]
fn compressor_constructor_rejections() {
    assert!(ChopCompressor::new(0, 4).is_err());
    assert!(ChopCompressor::new(12, 4).is_err()); // not divisible by 8
    assert!(ChopCompressor::new(32, 0).is_err());
    assert!(ChopCompressor::new(32, 9).is_err());
    assert!(PartialSerialized::new(64, 4, 3).is_err());
    assert!(ScatterGatherChop::new(17, 3).is_err());
}

#[test]
fn error_messages_are_informative() {
    let e = ChopCompressor::new(30, 4).unwrap_err();
    assert!(e.to_string().contains("30"), "{e}");
    let e = ChopCompressor::new(32, 12).unwrap_err();
    assert!(e.to_string().contains("12"), "{e}");
}

#[test]
fn nan_inputs_propagate_not_panic() {
    // Lossy compression of NaN-poisoned data must not panic; the NaN is
    // visible in the output (the per-block kernel spreads it through its
    // own block).
    let c = ChopCompressor::new(16, 4).unwrap();
    let mut x = Tensor::zeros([1, 1, 16, 16]);
    x.data_mut()[0] = f32::NAN;
    let y = c.compress(&x).unwrap();
    assert!(!y.all_finite());
}

#[test]
fn wrong_shape_inputs_rejected_at_every_level() {
    let c = ChopCompressor::new(32, 4).unwrap();
    assert!(c.compress(&Tensor::zeros([2, 3, 16, 16])).is_err());

    let dep = CompressorDeployment::plain(Platform::Cs2, 32, 4, 2).unwrap();
    let wrong = Tensor::zeros([2, 16, 16]);
    assert!(dep.compress(&wrong).is_err());
}

#[test]
fn device_rerun_is_deterministic() {
    let dep = CompressorDeployment::plain(Platform::Sn30, 32, 4, 4).unwrap();
    let mut rng = Tensor::seeded_rng(5);
    let x = Tensor::rand_uniform([4usize, 32, 32], -1.0, 1.0, &mut rng);
    let a = dep.compress(&x).unwrap();
    let b = dep.compress(&x).unwrap();
    assert!(a.outputs[0].allclose(&b.outputs[0], 0.0));
    assert_eq!(a.timing.seconds, b.timing.seconds);
}
