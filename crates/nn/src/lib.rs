//! # aicomp-nn — minimal deep-learning training framework
//!
//! The training substrate for the paper's four benchmarks (Table 3). The
//! accelerators run PyTorch; this crate is our PyTorch stand-in: an eager,
//! tape-based reverse-mode autograd engine over `aicomp-tensor`:
//!
//! * [`tape`] — the autograd engine: [`Tape`], [`Var`], elementwise ops,
//!   matmul/linear, and the backward pass.
//! * [`conv_ops`] — conv2d (im2col-backed), max/avg pooling, nearest
//!   upsampling, channel concat (UNet skips), batch norm.
//! * [`losses`] — MSE, softmax cross-entropy, binary cross-entropy.
//! * [`layers`] — parameterized modules ([`Conv2d`], [`Linear`],
//!   [`BatchNorm2d`]) built on shared [`Param`] handles.
//! * [`init`] — Kaiming/Xavier initializers.
//! * [`optim`] — SGD with momentum and Adam.
//! * [`compressed`] — lossy-compression hooks for activations and
//!   gradients (the paper's future-work targets).
//! * [`spill`] — activation spilling: saved forward tensors compressed
//!   through any `aicomp-core` codec, with memory-ledger accounting.
//!
//! Design: parameters are [`Param`] handles (shared, interior-mutable).
//! Each training step builds a fresh [`Tape`], binds the parameters,
//! runs forward eagerly, then [`Tape::backward`] accumulates gradients
//! straight into the `Param`s, which the optimizer consumes.

#![forbid(unsafe_code)]

pub mod compressed;
pub mod conv_ops;
pub mod init;
pub mod layers;
pub mod losses;
pub mod optim;
pub mod spill;
pub mod tape;

pub use compressed::{CompressedGradients, LossyBackward, LossyFn};
pub use layers::{BatchNorm2d, Conv2d, Linear};
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use spill::{gradient_error, SpillLedger, SpillPolicy};
pub use tape::{Param, Tape, Var};
