//! Beyond the paper: the Fig. 1 *blue* compression targets the paper
//! defers to future work, implemented and measured on the em_denoise
//! benchmark:
//!
//! 1. **training data** (the paper's red target — reference point),
//! 2. **activations** — DCT+Chop round-trip at the encoder-decoder
//!    bottleneck with a straight-through gradient (ActNN-style),
//! 3. **gradients** — every parameter gradient round-tripped through the
//!    ZFP fixed-rate codec before the optimizer step (QSGD/3LC-style;
//!    ZFP because parameter shapes aren't 8-divisible).
//!
//! Usage: `cargo run --release -p aicomp-bench --bin future_targets
//!         [--epochs 6] [--train 96]`

use std::rc::Rc;

use aicomp_baselines::ZfpFixedRate;
use aicomp_bench::{CsvOut, Flags};
use aicomp_core::ChopCompressor;
use aicomp_nn::{Adam, CompressedGradients, LossyBackward, LossyFn, Optimizer, Tape};
use aicomp_sciml::networks::EncoderDecoder;
use aicomp_sciml::{Dataset, DatasetKind};
use aicomp_tensor::Tensor;

struct RunSpec {
    name: &'static str,
    data_compression: bool,
    activation_hook: bool,
    gradient_compression: bool,
}

fn main() {
    let usage = "usage: future_targets [--epochs <N>] [--train <N>]";
    let flags = Flags::from_env(usage, &["--epochs", "--train"], &[]);
    let epochs = flags.get("--epochs", 6usize);
    let train_size = flags.get("--train", 96usize);
    let batch = 16usize;
    let lr = 1e-3f32;

    let train_ds = Dataset::generate(DatasetKind::EmDenoise, train_size, 808);
    let test_ds = Dataset::generate(DatasetKind::EmDenoise, 32, 809);

    let data_comp = ChopCompressor::new(64, 4).expect("valid");
    let act_comp = ChopCompressor::new(16, 4).expect("bottleneck is 16x16");
    let act_fn: LossyFn = Rc::new(move |t: &Tensor| act_comp.roundtrip(t).expect("shape matches"));
    let grad_codec = ZfpFixedRate::for_ratio(4.0).expect("rate 8");
    let grad_fn: Rc<dyn Fn(&Tensor) -> Tensor> = Rc::new(move |t: &Tensor| {
        // ZFP operates on the trailing 2 dims; lift rank-1 grads to rank-2.
        if t.dims().len() >= 2 {
            grad_codec.roundtrip(t).expect("zfp roundtrip")
        } else {
            let rows = t.reshape([1, t.numel()]).expect("rank lift");
            grad_codec
                .roundtrip(&rows)
                .expect("zfp roundtrip")
                .reshaped(t.dims().to_vec())
                .expect("rank restore")
        }
    });

    let specs = [
        RunSpec {
            name: "base",
            data_compression: false,
            activation_hook: false,
            gradient_compression: false,
        },
        RunSpec {
            name: "data_cr4",
            data_compression: true,
            activation_hook: false,
            gradient_compression: false,
        },
        RunSpec {
            name: "activations_cr4",
            data_compression: false,
            activation_hook: true,
            gradient_compression: false,
        },
        RunSpec {
            name: "gradients_cr4",
            data_compression: false,
            activation_hook: false,
            gradient_compression: true,
        },
    ];

    let mut csv = CsvOut::create("future_targets", &["target", "epoch", "train_loss", "test_loss"]);
    println!("em_denoise, {epochs} epochs x {train_size} samples — compression target comparison (CR 4):\n");
    println!("{:<18} {:>14} {:>14}", "target", "final train", "final test");

    let mut finals = Vec::new();
    for spec in &specs {
        eprintln!("[future_targets] {}...", spec.name);
        let mut rng = Tensor::seeded_rng(99);
        let net = EncoderDecoder::new(1, &mut rng);
        let base_opt = Adam::new(net.params(), lr);
        let mut opt: Box<dyn Optimizer> = if spec.gradient_compression {
            Box::new(CompressedGradients::new(base_opt, grad_fn.clone()))
        } else {
            Box::new(base_opt)
        };

        let nbatches = train_size / batch;
        let mut last = (0.0, 0.0);
        for epoch in 0..epochs {
            let mut train_loss = 0.0f64;
            for b in 0..nbatches {
                let raw = train_ds.input_batch(b * batch, (b + 1) * batch);
                let input = if spec.data_compression {
                    data_comp.roundtrip(&raw).expect("shape matches")
                } else {
                    raw
                };
                let target = train_ds.target_batch(b * batch, (b + 1) * batch);
                let mut tape = Tape::new();
                let x = tape.input(input);
                let pred = if spec.activation_hook {
                    net.forward_hooked(
                        &mut tape,
                        x,
                        Some((&act_fn, LossyBackward::StraightThrough)),
                    )
                } else {
                    net.forward(&mut tape, x)
                };
                let loss = tape.mse_loss(pred, &target);
                train_loss += tape.value(loss).data()[0] as f64;
                tape.backward(loss);
                opt.step();
            }
            train_loss /= nbatches as f64;

            // Test loss. Data compression lives in the loading path, so
            // test inputs pass through it too; the activation hook and
            // gradient compression are training-time mechanisms and are
            // absent at evaluation.
            let test_input = if spec.data_compression {
                data_comp.roundtrip(&test_ds.inputs).expect("shape matches")
            } else {
                test_ds.inputs.clone()
            };
            let mut tape = Tape::new();
            let x = tape.input(test_input);
            let pred = net.forward(&mut tape, x);
            let loss = tape.mse_loss(pred, &test_ds.targets);
            let test_loss = tape.value(loss).data()[0] as f64;
            csv.row(&[
                spec.name.into(),
                (epoch + 1).to_string(),
                format!("{train_loss:.6}"),
                format!("{test_loss:.6}"),
            ]);
            last = (train_loss, test_loss);
        }
        println!("{:<18} {:>14.5} {:>14.5}", spec.name, last.0, last.1);
        finals.push((spec.name, last.1));
    }

    let base = finals[0].1;
    println!("\n% difference vs base (negative = compression helped):");
    for (name, loss) in &finals[1..] {
        println!("  {:<18} {:+.2}%", name, (loss - base) / base * 100.0);
    }
    println!("\nwrote {}", csv.path().display());
}
