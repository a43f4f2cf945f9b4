//! # aicomp-store — the `.dcz` container format and training loader
//!
//! The paper's motivation (§1, §2.3) is training datasets of 10s–100s of
//! GB against 100s of MB of on-chip memory, yet the reproduction's
//! compressed tensors only ever lived in RAM. This crate is the missing
//! persistence layer: a chunked, checksummed, seekable on-disk container
//! for DCT+Chop-compressed `[C, n, n]` sample streams, and the loading
//! path that trains the four Table 3 benchmarks straight from a packed
//! file.
//!
//! Two related systems shape the design:
//!
//! * **Progressive Compressed Records** (Kuchnik et al., arXiv:1911.00472):
//!   storing compressed training data in *frequency-progressive scans*
//!   lets one file serve multiple fidelities — a reader consumes only a
//!   prefix. `.dcz` chunks store the chopped DCT coefficients grouped by
//!   frequency *ring* (the cells `max(i,j) == r` of each block's kept
//!   `CF×CF` corner), so reading rings `0..CF'` of a `CF`-file yields
//!   bit-exactly the `CF'` compressed representation — without reading
//!   the rest of the chunk.
//! * **EBPC** (Cavigelli et al., arXiv:1908.11645): an entropy stage
//!   stacked on a transform stage buys real extra ratio. Chunk payloads
//!   are entropy-coded (canonical Huffman per f32 byte plane, reusing
//!   [`aicomp_baselines::huffman`]/[`aicomp_baselines::bitio`]) —
//!   losslessly, so the bit-exactness invariant between the host and
//!   device paths extends to disk.
//!
//! Module map:
//!
//! * [`layout`] — the byte-level container format (header, chunk index,
//!   footer); documented in `FORMAT.md`.
//! * [`crc`] — CRC-32 (IEEE) for chunk and index integrity.
//! * [`bands`] — frequency-ring ordering: tensor layout ↔ progressive
//!   scan order.
//! * [`entropy`] — lossless byte-plane Huffman coding of coefficient
//!   sections.
//! * [`chunk`] — chunk encode/decode (compress → ring order → entropy),
//!   and [`ChunkDecoder`], the one decoder of a chunk's stored bytes,
//!   which readers and serve clients share.
//! * [`writer`] — [`DczWriter`]: the bounded-memory streaming writer; each
//!   full chunk's compress, entropy encode and CRC run as one item of a
//!   rayon fan-out.
//! * [`reader`] — [`DczReader`]: header/index access, random chunk
//!   access, progressive prefix reads, `verify`. A reader is
//!   single-threaded; concurrent consumers (the [`prefetch`] workers, the
//!   `aicomp-serve` workers) each own one.
//! * [`prefetch`] — [`PrefetchLoader`]: background worker threads decode
//!   ahead of the training loop (a bounded `std::sync::mpsc` channel).
//! * [`loader`] — [`StoreBatchSource`]: plugs packed files into
//!   [`aicomp_sciml::tasks`] so the benchmarks train from `.dcz`.
//! * [`fault`] — seeded, deterministic fault injection ([`FaultPlan`],
//!   off by default) and bounded-retry policies for transient I/O.
//! * [`recover`] — per-chunk health checks ([`deep_verify`]), index
//!   rebuild by chunk scanning, and container [`salvage`]/[`repair`].
//!
//! ## Quickstart
//!
//! ```
//! use aicomp_store::{DczReader, DczWriter, StoreOptions};
//! use aicomp_tensor::Tensor;
//! use std::io::Cursor;
//!
//! // Codec selected through the registry spec — `StoreOptions::dct(n, cf,
//! // channels, chunk_size)` is shorthand for the paper's DCT+Chop family.
//! let opts = StoreOptions::dct(16, 4, 1, 4);
//! let mut rng = Tensor::seeded_rng(3);
//! let samples: Vec<Tensor> =
//!     (0..6).map(|_| Tensor::rand_uniform([1usize, 16, 16], 0.0, 1.0, &mut rng)).collect();
//!
//! let (file, summary) =
//!     DczWriter::pack(Cursor::new(Vec::new()), &opts, samples.clone()).unwrap();
//! assert_eq!(summary.samples, 6);
//!
//! let mut reader = DczReader::new(Cursor::new(file.into_inner())).unwrap();
//! assert_eq!(reader.sample_count(), 6);
//! let restored = reader.decompress_chunk(0).unwrap(); // [4, 1, 16, 16]
//! assert_eq!(restored.dims(), &[4, 1, 16, 16]);
//! ```

#![forbid(unsafe_code)]

pub mod bands;
pub mod chunk;
pub mod crc;
pub mod entropy;
pub mod fault;
pub mod layout;
pub mod loader;
pub mod prefetch;
pub mod reader;
pub mod recover;
pub mod writer;

pub use chunk::ChunkDecoder;
pub use fault::{FaultPlan, FaultySink, FaultySource, RetryPolicy, SplitMix64};
pub use layout::{Header, IndexEntry};
pub use loader::{PassHealth, StoreBatchSource};
pub use prefetch::{ChunkFidelity, PrefetchConfig, PrefetchLoader, ReadPolicy};
pub use reader::{DczReader, VerifyReport};
pub use recover::{
    deep_verify, repair, salvage, ChunkHealth, ChunkStatus, DeepReport, SalvageReport,
};
pub use writer::{DczFileWriter, DczWriter, StoreOptions, StoreSummary};

/// Errors from the container format and loaders.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed container: bad magic, truncated structure, CRC mismatch.
    Format(String),
    /// Well-formed but not decodable by this build (version, transform).
    Unsupported(String),
    /// Invalid API usage (shape mismatch, chop factor out of range, …).
    InvalidArg(String),
    /// A sample pushed for packing holds a NaN or ±Inf: `element` is the
    /// flat index of the first one within the `sample`-th pushed sample.
    NonFinite { sample: u64, element: usize, value: f32 },
    /// Compressor-layer failure.
    Core(aicomp_core::CoreError),
    /// Entropy-coding failure.
    Codec(aicomp_baselines::BaselineError),
    /// A background worker panicked (caught and surfaced in order).
    Panic(String),
}

impl StoreError {
    /// Is this a transient I/O failure worth retrying (timeout, interrupt,
    /// would-block)? Everything else — corruption, format errors, panics —
    /// is permanent and retrying would only repeat it.
    pub fn is_transient(&self) -> bool {
        use std::io::ErrorKind;
        matches!(
            self,
            StoreError::Io(e) if matches!(
                e.kind(),
                ErrorKind::TimedOut | ErrorKind::WouldBlock | ErrorKind::Interrupted
            )
        )
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Format(msg) => write!(f, "malformed .dcz container: {msg}"),
            StoreError::Unsupported(msg) => write!(f, "unsupported .dcz feature: {msg}"),
            StoreError::InvalidArg(msg) => write!(f, "invalid argument: {msg}"),
            StoreError::NonFinite { sample, element, value } => {
                write!(f, "sample {sample} holds non-finite value {value} at element {element}")
            }
            StoreError::Core(e) => write!(f, "compressor error: {e}"),
            StoreError::Codec(e) => write!(f, "entropy codec error: {e}"),
            StoreError::Panic(msg) => write!(f, "worker panic: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<aicomp_core::CoreError> for StoreError {
    fn from(e: aicomp_core::CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<aicomp_baselines::BaselineError> for StoreError {
    fn from(e: aicomp_baselines::BaselineError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<aicomp_tensor::TensorError> for StoreError {
    fn from(e: aicomp_tensor::TensorError) -> Self {
        StoreError::Core(aicomp_core::CoreError::Tensor(e))
    }
}

/// Crate result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
