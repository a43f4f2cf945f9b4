//! # aicomp-sciml — the paper's four training benchmarks
//!
//! Table 3 of the paper evaluates DCT+Chop on four tasks: CIFAR-10
//! classification plus three SciML-Bench science benchmarks. We do not have
//! those datasets, so [`data`] generates seeded synthetic stand-ins with
//! the same *frequency structure* (see DESIGN.md for why that is the
//! property that matters), and [`networks`] provides scaled versions of the
//! same architecture families:
//!
//! | test | dataset stand-in | network | loss |
//! |---|---|---|---|
//! | `classify` | textured class images (3×32×32) | ResNet-lite | cross-entropy |
//! | `em_denoise` | lattice + high-freq noise (1×64×64) | encoder-decoder | MSE |
//! | `optical_damage` | smooth optics images (1×64×64) | autoencoder | MSE |
//! | `slstr_cloud` | multi-channel scenes + cloud masks (3×64×64) | UNet-lite | BCE |
//!
//! [`tasks`] runs the §4.1 protocol: every training batch is compressed
//! then decompressed before the forward pass (the compressor is pluggable
//! via [`compressors::DataCompressor`] — plain DCT+Chop, scatter/gather,
//! ZFP, or none), and per-epoch train/test metrics are recorded.

#![forbid(unsafe_code)]

pub mod compressors;
pub mod data;
pub mod metrics;
pub mod networks;
pub mod tasks;

pub use compressors::DataCompressor;
pub use data::{Dataset, DatasetKind};
pub use tasks::{
    BatchSource, Benchmark, EpochMetrics, SourceError, SpillOptions, SpillReport, TrainConfig,
    TrainResult,
};
