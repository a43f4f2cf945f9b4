//! [`PrefetchLoader`] — background-decoded chunk streaming.
//!
//! Training wants decoded batches faster than a single thread can Huffman-
//! decode and inverse-transform them, and the paper's whole premise (§1)
//! is that data loading must not stall the accelerator. The loader spawns
//! worker threads, each with its **own** [`DczReader`] over the same file
//! (seek positions are per-handle, so workers never contend on a shared
//! cursor), claiming chunk indices from a shared atomic counter and
//! pushing decoded tensors through a bounded `std::sync::mpsc` channel. The
//! consumer reorders them with a small buffer so chunks arrive in file
//! order regardless of which worker finished first.
//!
//! Memory is bounded by `max(lookahead, workers)` decoded chunks, plus the
//! one the caller holds: a worker may only start a chunk within that many
//! of the next one the consumer hands on, so a worker that stalls cannot
//! let the others fill the reorder buffer behind it.
//!
//! ## Failure handling
//!
//! A production loader must outlive its storage. Three layers:
//!
//! * **Transient I/O** (timeouts, interrupts) is retried with bounded
//!   backoff by each worker's reader ([`RetryPolicy`]); errors that
//!   persist past the retry budget propagate under *every* policy —
//!   they mean the source is unavailable, not that the data is bad.
//! * **Corruption** is governed by [`ReadPolicy`]: fail the stream
//!   (default), skip the chunk (zeros substitute, shape-stable), or
//!   degrade to the deepest intact ring prefix — the Progressive
//!   Compressed Records trade (Kuchnik et al., arXiv:1911.00472), which
//!   our frequency-ring chunks support natively. Each produced chunk
//!   carries a [`ChunkFidelity`] tag so consumers can report exactly what
//!   they trained on.
//! * **Worker panics** are caught and surfaced as an in-order
//!   [`StoreError::Panic`] for the claimed chunk (then handled per
//!   policy). Without this, a panicking worker loses its claimed index
//!   and the consumer stalls forever on the reorder gap.
//!
//! Fault injection ([`FaultPlan`], off by default) threads through
//! [`PrefetchConfig`] so every one of these paths is deterministically
//! testable.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use aicomp_tensor::Tensor;

use crate::fault::{FaultPlan, FaultySource, RetryPolicy};
use crate::layout::{Header, IndexEntry};
use crate::reader::DczReader;
use crate::{Result, StoreError};

/// What the loader does with a chunk that will not decode (corruption,
/// decode failures, worker panics — not transient I/O, which always
/// propagates after retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Surface the error to the consumer (in chunk order). The default.
    #[default]
    Fail,
    /// Substitute zeros of the chunk's shape and keep going; the chunk is
    /// tagged [`ChunkFidelity::Skipped`] with the underlying error.
    SkipChunk,
    /// Try coarser ring prefixes first — a chunk whose *tail* is damaged
    /// still decodes bit-exactly at a lower chop factor
    /// ([`DczReader::decompress_chunk_salvage`]). Falls back to the
    /// zeros substitute when no prefix survives, so this policy is a
    /// superset of [`ReadPolicy::SkipChunk`].
    DegradeToPrefix,
}

/// How faithfully a [`PrefetchedChunk`] reflects what was stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkFidelity {
    /// Decoded at the requested fidelity.
    Full,
    /// Tail damage: decoded from the intact ring prefix at chop factor
    /// `cf` (below the requested one).
    Degraded {
        /// Chop factor actually decoded.
        cf: usize,
    },
    /// Undecodable: the data is zeros and `error` says why.
    Skipped {
        /// The error that made the chunk undecodable.
        error: String,
    },
}

impl ChunkFidelity {
    /// True for a full-fidelity chunk.
    pub fn is_full(&self) -> bool {
        *self == ChunkFidelity::Full
    }
}

/// Prefetching knobs.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchConfig {
    /// Decoder threads. Each one owns a core and runs the codec serially
    /// on it: parallelism comes from decoding `workers` chunks at once,
    /// not from splitting one chunk's matmuls.
    pub workers: usize,
    /// Chunks the loader may decode ahead of the consumer: the channel's
    /// capacity, and the claim window when it is at least `workers`.
    pub lookahead: usize,
    /// Read at this chop factor instead of the stored one (progressive
    /// prefix reads); `None` reads full fidelity.
    pub read_cf: Option<usize>,
    /// Corrupt-chunk handling (default: [`ReadPolicy::Fail`]).
    pub policy: ReadPolicy,
    /// Injected faults for the workers' readers (default: none — the
    /// wrapper is a pass-through and the happy path is untouched).
    pub fault: FaultPlan,
    /// Transient-I/O retry budget for the workers' readers.
    pub retry: RetryPolicy,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            workers: 2,
            lookahead: 4,
            read_cf: None,
            policy: ReadPolicy::Fail,
            fault: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Decoded chunk with its position in the sample stream.
#[derive(Debug)]
pub struct PrefetchedChunk {
    /// Chunk index in the container.
    pub chunk: usize,
    /// Index of this chunk's first sample.
    pub first_sample: u64,
    /// Reconstructed samples, `[S, C, n', n']`.
    pub data: Tensor,
    /// Whether `data` is the full-fidelity decode, a degraded prefix, or
    /// a zeros substitute.
    pub fidelity: ChunkFidelity,
}

type FaultyReader = DczReader<FaultySource<BufReader<File>>>;

/// Container geometry shared with workers so policy substitutes (zeros of
/// the right shape) survive a dead reader.
type Meta = (Header, Vec<IndexEntry>);

/// Multi-threaded, in-order chunk iterator over a `.dcz` file.
#[derive(Debug)]
pub struct PrefetchLoader {
    rx: Option<Receiver<(usize, Result<PrefetchedChunk>)>>,
    workers: Vec<JoinHandle<()>>,
    /// Admits each claimed chunk once it is within the window, and tells
    /// workers to stop when the loader is dropped.
    gate: Arc<ClaimGate>,
    /// Reorder buffer for chunks that finished ahead of their turn.
    pending: BTreeMap<usize, Result<PrefetchedChunk>>,
    next: usize,
    chunk_count: usize,
}

/// Holds workers to chunks within `window` of the next one the consumer
/// hands on, and carries the loader's cancellation.
///
/// Cancellation matters: without it a dropped loader still joins (closing
/// the channel fails pending sends), but each worker first *finishes
/// decoding the chunk it already claimed* — for large chunks that is
/// seconds of wasted work per worker, and an epoch-loop rewind
/// ([`crate::StoreBatchSource`]) pays it on every restart. Closing the gate
/// bounds drop latency to the in-flight I/O op.
#[derive(Debug)]
struct ClaimGate {
    window: usize,
    /// Chunks handed to the caller so far, and whether the loader is gone.
    /// Each update is a single assignment, so a poisoned lock still holds a
    /// consistent state.
    state: Mutex<(usize, bool)>,
    moved: Condvar,
}

impl ClaimGate {
    fn new(window: usize) -> Self {
        ClaimGate { window, state: Mutex::new((0, false)), moved: Condvar::new() }
    }

    /// Wait until `chunk` is within the window; `false` once closed.
    fn admit(&self, chunk: usize) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !st.1 && chunk >= st.0 + self.window {
            st = self.moved.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        !st.1
    }

    /// One more chunk handed to the caller.
    fn advance(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).0 += 1;
        self.moved.notify_all();
    }

    /// Stop admitting chunks and wake every waiting worker.
    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.moved.notify_all();
    }
}

impl PrefetchLoader {
    /// Open `path` and start prefetching from chunk 0.
    pub fn open(path: impl AsRef<Path>, cfg: PrefetchConfig) -> Result<PrefetchLoader> {
        let path: PathBuf = path.as_ref().to_path_buf();
        // Validate the container (and the requested fidelity) up front, on
        // the caller's thread, so configuration errors surface here rather
        // than as a worker-side failure mid-iteration. The probe reads the
        // real file — injected faults only apply to the workers.
        let probe = DczReader::open(&path)?;
        let chunk_count = probe.chunk_count();
        let stored_cf = probe.header().cf();
        if let Some(cf) = cfg.read_cf {
            if cf == 0 || cf > stored_cf {
                return Err(StoreError::InvalidArg(format!(
                    "read chop factor {cf} outside 1..={stored_cf}"
                )));
            }
        }
        let meta: Arc<Meta> = Arc::new((*probe.header(), probe.index().to_vec()));
        drop(probe);

        let workers_n = cfg.workers.max(1);
        let (tx, rx) = sync_channel(cfg.lookahead.max(1));
        let cursor = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(ClaimGate::new(cfg.lookahead.max(workers_n)));
        let mut workers = Vec::with_capacity(workers_n);
        for _ in 0..workers_n {
            let tx = tx.clone();
            let cursor = Arc::clone(&cursor);
            let gate = Arc::clone(&gate);
            let meta = Arc::clone(&meta);
            let path = path.clone();
            // Each worker owns a core, so the codec's matmuls run inline
            // on it instead of spawning threads per chunk.
            workers.push(std::thread::spawn(move || {
                rayon::in_worker(|| {
                    // Opened lazily (and reopened after a panic poisons it).
                    let mut reader: Option<FaultyReader> = None;
                    loop {
                        let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                        if chunk >= meta.1.len() || !gate.admit(chunk) {
                            return;
                        }
                        // A panicking decode must not lose the claimed index —
                        // the consumer's reorder buffer would wait on it
                        // forever. Catch, surface in order, move on.
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            produce(&mut reader, &path, &cfg, &meta, chunk)
                        }));
                        let item = match outcome {
                            Ok(res) => res,
                            Err(payload) => {
                                // Reader state is unknown mid-panic: drop it
                                // and reopen on the next chunk.
                                reader = None;
                                Err(StoreError::Panic(panic_message(payload)))
                            }
                        };
                        let item = match item {
                            Ok(c) => Ok(c),
                            // Persistent transients mean the *source* is gone;
                            // no policy should paper over that.
                            Err(e) if e.is_transient() => Err(e),
                            Err(e) => match cfg.policy {
                                ReadPolicy::Fail => Err(e),
                                ReadPolicy::SkipChunk | ReadPolicy::DegradeToPrefix => {
                                    zeros_chunk(&meta, chunk, &e)
                                }
                            },
                        };
                        if tx.send((chunk, item)).is_err() {
                            return; // consumer dropped
                        }
                    }
                })
            }));
        }
        Ok(PrefetchLoader {
            rx: Some(rx),
            workers,
            gate,
            pending: BTreeMap::new(),
            next: 0,
            chunk_count,
        })
    }

    /// Chunks in the underlying container.
    pub fn chunk_count(&self) -> usize {
        self.chunk_count
    }

    /// The next chunk in file order; `None` once the container is drained.
    pub fn next_chunk(&mut self) -> Option<Result<PrefetchedChunk>> {
        if self.next >= self.chunk_count {
            return None;
        }
        loop {
            if let Some(ready) = self.pending.remove(&self.next) {
                self.next += 1;
                self.gate.advance();
                return Some(ready);
            }
            let rx = self.rx.as_ref()?;
            match rx.recv() {
                Ok((chunk, result)) => {
                    self.pending.insert(chunk, result);
                }
                Err(_) => {
                    // All workers exited without producing our chunk.
                    self.next = self.chunk_count;
                    return Some(Err(StoreError::Format("prefetch workers exited early".into())));
                }
            }
        }
    }
}

/// Decode one chunk on a worker, honouring the configured fidelity and
/// degrade policy. Opens (or reopens) the worker's reader on demand.
fn produce(
    reader: &mut Option<FaultyReader>,
    path: &Path,
    cfg: &PrefetchConfig,
    meta: &Meta,
    chunk: usize,
) -> Result<PrefetchedChunk> {
    let r = match reader {
        Some(r) => r,
        None => {
            // Open through an inactive wrapper, then arm: injected faults
            // target steady-state chunk reads, with op indices counted
            // from arming so injection is deterministic per chunk stream.
            let mut fresh = DczReader::new(FaultySource::new(
                BufReader::new(File::open(path)?),
                FaultPlan::none(),
            ))?;
            fresh.set_retry_policy(cfg.retry);
            fresh.source_mut().set_plan(cfg.fault);
            reader.insert(fresh)
        }
    };
    let first_sample = meta.1[chunk].first_sample;
    let target_cf = cfg.read_cf.unwrap_or(meta.0.cf());
    let (data, fidelity) = match cfg.policy {
        ReadPolicy::DegradeToPrefix => match r.decompress_chunk_salvage(chunk, target_cf)? {
            (t, cf) if cf == target_cf => (t, ChunkFidelity::Full),
            (t, cf) => (t, ChunkFidelity::Degraded { cf }),
        },
        ReadPolicy::Fail | ReadPolicy::SkipChunk => {
            (r.decompress_chunk_at(chunk, target_cf)?, ChunkFidelity::Full)
        }
    };
    Ok(PrefetchedChunk { chunk, first_sample, data, fidelity })
}

/// Shape-stable substitute for an undecodable chunk: zeros of the chunk's
/// `[S, C, n, n]`, tagged with the underlying error. Built from the probe
/// metadata so it works even when the worker's reader is dead.
fn zeros_chunk(meta: &Meta, chunk: usize, err: &StoreError) -> Result<PrefetchedChunk> {
    let e = meta.1[chunk];
    let (s, c, n) = (e.samples as usize, meta.0.channels as usize, meta.0.n());
    let data = Tensor::from_vec(vec![0.0; s * c * n * n], [s, c, n, n])?;
    Ok(PrefetchedChunk {
        chunk,
        first_sample: e.first_sample,
        data,
        fidelity: ChunkFidelity::Skipped { error: err.to_string() },
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

impl Iterator for PrefetchLoader {
    type Item = Result<PrefetchedChunk>;

    fn next(&mut self) -> Option<Result<PrefetchedChunk>> {
        self.next_chunk()
    }
}

impl Drop for PrefetchLoader {
    fn drop(&mut self) {
        // Close the gate first so workers stop claiming fresh chunks (and
        // any waiting on it wake), then drop the receiver so pending sends
        // fail, unblocking any worker waiting on the bounded channel; only
        // then is joining safe and bounded.
        self.gate.close();
        self.rx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{pack_file, StoreOptions};
    use aicomp_core::ChopCompressor;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k * 11 + i * 29) % 37) as f32 / 5.0 - 3.0).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aicomp_prefetch_{tag}_{}.dcz", std::process::id()))
    }

    #[test]
    fn chunks_arrive_in_order_and_bit_exact() {
        let path = temp_path("order");
        let opts = StoreOptions::dct(16, 4, 2, 2);
        let samples: Vec<Tensor> = (0..9).map(|i| sample(i, 2, 16)).collect();
        pack_file(&path, &opts, samples.iter().cloned()).unwrap();

        let cfg = PrefetchConfig { workers: 3, lookahead: 2, ..PrefetchConfig::default() };
        let loader = PrefetchLoader::open(&path, cfg).unwrap();
        let comp = ChopCompressor::new(16, 4).unwrap();
        let mut seen = 0usize;
        for (i, item) in loader.enumerate() {
            let c = item.unwrap();
            assert_eq!(c.chunk, i);
            assert_eq!(c.first_sample, (i * 2) as u64);
            assert!(c.fidelity.is_full());
            let lo = i * 2;
            let hi = (lo + 2).min(9);
            let refs: Vec<&Tensor> = samples[lo..hi].iter().collect();
            let batch = Tensor::concat0(&refs).unwrap().reshape([hi - lo, 2usize, 16, 16]).unwrap();
            let want = comp.roundtrip(&batch).unwrap();
            let a: Vec<u32> = c.data.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "chunk {i}");
            seen += 1;
        }
        assert_eq!(seen, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn claim_gate_holds_workers_to_the_window() {
        let gate = Arc::new(ClaimGate::new(2));
        assert!(gate.admit(0) && gate.admit(1));
        let waiter = |chunk| {
            let (g, (tx, rx)) = (Arc::clone(&gate), std::sync::mpsc::channel());
            let h = std::thread::spawn(move || tx.send(g.admit(chunk)).unwrap());
            (h, rx)
        };
        // Chunk 2 is outside a window of 2 until the consumer hands one on.
        let (h, rx) = waiter(2);
        assert!(rx.recv_timeout(std::time::Duration::from_millis(50)).is_err());
        gate.advance();
        assert_eq!(rx.recv(), Ok(true));
        h.join().unwrap();
        // Closing releases a waiter, refused.
        let (h, rx) = waiter(9);
        gate.close();
        assert_eq!(rx.recv(), Ok(false));
        h.join().unwrap();
        assert!(!gate.admit(0), "a closed gate admits nothing");
    }

    #[test]
    fn progressive_prefetch_matches_direct_chop() {
        let path = temp_path("prog");
        let opts = StoreOptions::dct(16, 6, 1, 3);
        let samples: Vec<Tensor> = (0..6).map(|i| sample(i, 1, 16)).collect();
        pack_file(&path, &opts, samples.iter().cloned()).unwrap();

        let cfg =
            PrefetchConfig { workers: 2, lookahead: 2, read_cf: Some(3), ..Default::default() };
        let loader = PrefetchLoader::open(&path, cfg).unwrap();
        let comp = ChopCompressor::new(16, 3).unwrap();
        for (i, item) in loader.enumerate() {
            let c = item.unwrap();
            let refs: Vec<&Tensor> = samples[i * 3..i * 3 + 3].iter().collect();
            let batch = Tensor::concat0(&refs).unwrap().reshape([3usize, 1, 16, 16]).unwrap();
            let want = comp.roundtrip(&batch).unwrap();
            let a: Vec<u32> = c.data.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn early_drop_joins_cleanly() {
        let path = temp_path("drop");
        let opts = StoreOptions::dct(16, 4, 1, 1);
        pack_file(&path, &opts, (0..12).map(|i| sample(i, 1, 16))).unwrap();

        let cfg = PrefetchConfig { workers: 2, lookahead: 1, ..PrefetchConfig::default() };
        let mut loader = PrefetchLoader::open(&path, cfg).unwrap();
        let first = loader.next_chunk().unwrap().unwrap();
        assert_eq!(first.chunk, 0);
        // Every worker holds a clone of the claim gate; zero strong refs
        // after the drop proves all worker threads actually exited (joined,
        // not leaked) rather than racing on toward the remaining 11 chunks.
        let workers_alive = Arc::downgrade(&loader.gate);
        drop(loader); // must not hang on blocked senders
        assert_eq!(workers_alive.strong_count(), 0, "worker threads leaked past drop");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_with_undrained_queue_joins_every_worker() {
        // Workers blocked mid-send on a full lookahead channel plus workers
        // mid-decode: dropping the loader must cancel and join them all.
        let path = temp_path("drop_full");
        let opts = StoreOptions::dct(16, 4, 1, 2);
        pack_file(&path, &opts, (0..24).map(|i| sample(i, 1, 16))).unwrap();

        let cfg = PrefetchConfig { workers: 4, lookahead: 1, ..PrefetchConfig::default() };
        let loader = PrefetchLoader::open(&path, cfg).unwrap();
        // Give workers time to claim chunks and jam the bounded channel.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let workers_alive = Arc::downgrade(&loader.gate);
        drop(loader);
        assert_eq!(workers_alive.strong_count(), 0, "worker threads leaked past drop");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_config_rejected() {
        let path = temp_path("cfg");
        let opts = StoreOptions::dct(16, 3, 1, 2);
        pack_file(&path, &opts, (0..2).map(|i| sample(i, 1, 16))).unwrap();
        let cfg =
            PrefetchConfig { workers: 1, lookahead: 1, read_cf: Some(5), ..Default::default() };
        assert!(PrefetchLoader::open(&path, cfg).is_err());
        assert!(PrefetchLoader::open(
            std::env::temp_dir().join("aicomp_no_such_file.dcz"),
            PrefetchConfig::default()
        )
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Writes a container, corrupts one byte in `chunk` at `at` bytes past
    /// the chunk's start, and returns the (path, clean samples).
    fn corrupted_store(tag: &str, chunk: usize, at: u64) -> (PathBuf, Vec<Tensor>) {
        let path = temp_path(tag);
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let samples: Vec<Tensor> = (0..8).map(|i| sample(i, 1, 16)).collect();
        pack_file(&path, &opts, samples.iter().cloned()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let e = DczReader::open(&path).unwrap().index()[chunk];
        let at = e.offset + if at == u64::MAX { e.len as u64 - 1 } else { at };
        bytes[at as usize] ^= 0x2A;
        std::fs::write(&path, bytes).unwrap();
        (path, samples)
    }

    #[test]
    fn stored_cf_reads_reject_every_section_bit_flip() {
        // `read_cf: Some(stored)` is the CRC-checked full read, not a
        // prefix read that trusts the Huffman bit counts alone.
        let path = temp_path("crcflip");
        pack_file(&path, &StoreOptions::dct(16, 4, 1, 1), [sample(0, 1, 16)]).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let e = DczReader::open(&path).unwrap().index()[0];
        let start = e.offset as usize + crate::chunk::prelude_len(4);
        let end = (e.offset + e.len as u64) as usize;
        let cfg = PrefetchConfig { workers: 1, read_cf: Some(4), ..Default::default() };
        for bit in start * 8..end * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, bad).unwrap();
            let results: Vec<_> = PrefetchLoader::open(&path, cfg).unwrap().collect();
            assert!(matches!(results[..], [Err(_)]), "flip of bit {bit} went undetected");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fail_policy_surfaces_corruption_in_order() {
        let (path, _) = corrupted_store("fail", 1, 6);
        let cfg = PrefetchConfig { workers: 2, ..PrefetchConfig::default() };
        let results: Vec<_> = PrefetchLoader::open(&path, cfg).unwrap().collect();
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok() && results[2].is_ok() && results[3].is_ok());
        assert!(matches!(results[1], Err(StoreError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn skip_policy_substitutes_zeros_and_reports() {
        let (path, samples) = corrupted_store("skip", 2, 6);
        let cfg =
            PrefetchConfig { workers: 2, policy: ReadPolicy::SkipChunk, ..Default::default() };
        let comp = ChopCompressor::new(16, 4).unwrap();
        for (i, item) in PrefetchLoader::open(&path, cfg).unwrap().enumerate() {
            let c = item.unwrap();
            if i == 2 {
                assert!(matches!(c.fidelity, ChunkFidelity::Skipped { .. }));
                assert_eq!(c.data.dims(), &[2, 1, 16, 16]);
                assert!(c.data.data().iter().all(|v| *v == 0.0));
            } else {
                assert!(c.fidelity.is_full());
                let refs: Vec<&Tensor> = samples[i * 2..i * 2 + 2].iter().collect();
                let batch = Tensor::concat0(&refs).unwrap().reshape([2usize, 1, 16, 16]).unwrap();
                let want = comp.roundtrip(&batch).unwrap();
                assert_eq!(c.data.data(), want.data());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degrade_policy_reads_intact_prefix_bit_exact() {
        // Corrupt the *last* byte of chunk 1: its cf-3 ring prefix is
        // intact, so DegradeToPrefix serves it at cf=3 instead of zeros.
        let (path, _) = corrupted_store("degrade", 1, u64::MAX);
        let cfg = PrefetchConfig {
            workers: 2,
            policy: ReadPolicy::DegradeToPrefix,
            ..Default::default()
        };
        let mut clean = DczReader::open(&path).unwrap();
        for (i, item) in PrefetchLoader::open(&path, cfg).unwrap().enumerate() {
            let c = item.unwrap();
            if i == 1 {
                assert_eq!(c.fidelity, ChunkFidelity::Degraded { cf: 3 });
                let want = clean.decompress_chunk_at(1, 3).unwrap();
                let a: Vec<u32> = c.data.data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b);
            } else {
                assert!(c.fidelity.is_full(), "chunk {i}: {:?}", c.fidelity);
            }
        }
        // Head corruption (prelude) on the same container leaves nothing
        // to degrade to — that chunk becomes a zeros substitute.
        let mut bytes = std::fs::read(&path).unwrap();
        let e = clean.index()[0];
        bytes[e.offset as usize] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let results: Vec<_> =
            PrefetchLoader::open(&path, cfg).unwrap().collect::<Result<_>>().unwrap();
        assert!(matches!(results[0].fidelity, ChunkFidelity::Skipped { .. }));
        assert_eq!(results[1].fidelity, ChunkFidelity::Degraded { cf: 3 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panicking_worker_surfaces_in_order_instead_of_stalling() {
        let path = temp_path("panic");
        let opts = StoreOptions::dct(16, 4, 1, 1);
        pack_file(&path, &opts, (0..12).map(|i| sample(i, 1, 16))).unwrap();

        // One worker, panic injected at the 5th steady-state I/O op
        // (~chunk 2: each 1-sample chunk costs a seek + a read).
        // Pre-fix, the panicking worker died with its claimed chunk and
        // next_chunk() blocked forever on the reorder gap; now the panic
        // arrives as an in-order StoreError::Panic.
        let cfg = PrefetchConfig {
            workers: 1,
            lookahead: 2,
            fault: FaultPlan { panic_on_op: Some(5), ..FaultPlan::none() },
            ..PrefetchConfig::default()
        };
        let results: Vec<_> = PrefetchLoader::open(&path, cfg).unwrap().collect();
        assert_eq!(results.len(), 12, "every chunk must be accounted for");
        let panics = results.iter().filter(|r| matches!(r, Err(StoreError::Panic(_)))).count();
        assert!(panics >= 1, "the injected panic must surface as StoreError::Panic");
        assert!(results.iter().all(|r| !matches!(r, Err(StoreError::Format(_)))));

        // Under SkipChunk the same panic degrades to a zeros chunk and the
        // stream completes clean.
        let cfg = PrefetchConfig { policy: ReadPolicy::SkipChunk, ..cfg };
        let results: Vec<_> =
            PrefetchLoader::open(&path, cfg).unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(results.len(), 12);
        assert!(results.iter().any(
            |c| matches!(&c.fidelity, ChunkFidelity::Skipped { error } if error.contains("panic"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_faults_ride_through_retries() {
        let path = temp_path("transient");
        let opts = StoreOptions::dct(16, 4, 2, 2);
        let samples: Vec<Tensor> = (0..8).map(|i| sample(i, 2, 16)).collect();
        pack_file(&path, &opts, samples.iter().cloned()).unwrap();

        // Worker op sequences depend on which worker claims which chunk,
        // so make the retry budget ample enough that any claim order rides
        // through a 20% per-op fault rate.
        let cfg = PrefetchConfig {
            workers: 2,
            fault: FaultPlan::transient(23, 0.2),
            retry: RetryPolicy { max_attempts: 10, backoff: std::time::Duration::ZERO },
            ..PrefetchConfig::default()
        };
        let comp = ChopCompressor::new(16, 4).unwrap();
        let mut seen = 0;
        for (i, item) in PrefetchLoader::open(&path, cfg).unwrap().enumerate() {
            let c = item.unwrap();
            let refs: Vec<&Tensor> = samples[i * 2..i * 2 + 2].iter().collect();
            let batch = Tensor::concat0(&refs).unwrap().reshape([2usize, 2, 16, 16]).unwrap();
            let want = comp.roundtrip(&batch).unwrap();
            assert_eq!(c.data.data(), want.data(), "chunk {i}");
            seen += 1;
        }
        assert_eq!(seen, 4);
        std::fs::remove_file(&path).ok();
    }
}
