//! [`SharedReader`] — many concurrent readers over one `.dcz` container.
//!
//! A [`DczReader`] is single-threaded by construction: reads seek its one
//! file cursor and its decompressor cache is `&mut`. A serving layer wants
//! the opposite shape — many threads fetching chunks from the *same*
//! container at once. `SharedReader` provides it without a global lock on
//! the read path: the header and index are parsed and validated **once**
//! at open, then each concurrent reader checks a private [`DczReader`] out
//! of a pool (opening a fresh file handle when the pool is empty — seek
//! positions are per-handle, so readers never contend on a cursor) and
//! returns it when done. The pool only grows to the peak number of
//! *simultaneous* readers; steady-state traffic recycles handles.
//!
//! A `SharedReader` hands out a chunk's *stored bytes* — what
//! [`DczReader::read_chunk_bytes_at`] reads — and leaves decoding to the
//! caller's [`crate::chunk::ChunkDecoder`] (a serve client decodes what the
//! server sends). The bytes are identical to a directly-opened
//! `DczReader`'s — they *are* `DczReader` reads; the
//! `shared_reader_is_bit_identical_across_threads` test pins this from
//! eight concurrent threads.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::layout::{Header, IndexEntry};
use crate::reader::DczReader;
use crate::Result;

/// Thread-safe, cheaply-shareable access to one `.dcz` container.
///
/// Wrap it in an `Arc` and hand clones of the `Arc` to every thread that
/// needs chunks; all read methods take `&self`.
#[derive(Debug)]
pub struct SharedReader {
    path: PathBuf,
    header: Header,
    index: Vec<IndexEntry>,
    /// Idle readers, recycled across checkouts. Capped at [`POOL_MAX`] so a
    /// one-off burst of concurrency does not pin file handles forever.
    pool: Mutex<Vec<DczReader<BufReader<File>>>>,
}

/// Idle file handles kept for reuse; checkouts beyond this still work, the
/// surplus handles are just closed on return instead of pooled.
const POOL_MAX: usize = 64;

impl SharedReader {
    /// Open and validate `path` once; subsequent per-thread handles reuse
    /// the validated metadata and only pay for the file open.
    pub fn open(path: impl AsRef<Path>) -> Result<SharedReader> {
        let path = path.as_ref().to_path_buf();
        let probe = DczReader::open(&path)?;
        let header = *probe.header();
        let index = probe.index().to_vec();
        Ok(SharedReader { path, header, index, pool: Mutex::new(vec![probe]) })
    }

    /// The container header (validated at open).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The chunk index (validated at open).
    pub fn index(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Chunks in the container.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Samples in the container.
    pub fn sample_count(&self) -> u64 {
        self.header.sample_count
    }

    /// The container path this reader serves.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Run `f` with a checked-out private reader. The handle returns to the
    /// pool only on success — after an error its cursor/decoder state is
    /// suspect, and handles are cheap to reopen.
    pub fn with_reader<T>(
        &self,
        f: impl FnOnce(&mut DczReader<BufReader<File>>) -> Result<T>,
    ) -> Result<T> {
        let mut reader = match self.lock_pool().pop() {
            Some(r) => r,
            None => DczReader::open(&self.path)?,
        };
        let out = f(&mut reader);
        if out.is_ok() {
            let mut pool = self.lock_pool();
            if pool.len() < POOL_MAX {
                pool.push(reader);
            }
        }
        out
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Vec<DczReader<BufReader<File>>>> {
        // A panic while holding the lock can only leave a Vec of readers,
        // which is valid in any state — ignore poisoning.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`DczReader::read_chunk_bytes_at`] through a pooled handle.
    pub fn read_chunk_bytes_at(&self, chunk: usize, read_cf: usize) -> Result<Vec<u8>> {
        self.with_reader(|r| r.read_chunk_bytes_at(chunk, read_cf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{pack_file, StoreOptions};
    use aicomp_tensor::Tensor;
    use std::sync::Arc;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k * 13 + i * 23) % 43) as f32 / 6.0 - 3.0).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aicomp_shared_{tag}_{}.dcz", std::process::id()))
    }

    #[test]
    fn shared_reader_is_bit_identical_across_threads() {
        let path = temp_path("concurrent");
        let opts = StoreOptions::dct(16, 4, 2, 3);
        let samples: Vec<Tensor> = (0..12).map(|i| sample(i, 2, 16)).collect();
        pack_file(&path, &opts, samples.iter().cloned()).unwrap();

        // Reference bytes from a plain single-threaded reader, at the
        // stored fidelity and at a ring prefix.
        let mut direct = DczReader::open(&path).unwrap();
        let chunks = direct.chunk_count();
        let want: Vec<[Vec<u8>; 2]> = (0..chunks)
            .map(|c| [4, 2].map(|cf| direct.read_chunk_bytes_at(c, cf).unwrap()))
            .collect();

        let shared = Arc::new(SharedReader::open(&path).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let shared = Arc::clone(&shared);
                let want = want.clone();
                std::thread::spawn(move || {
                    // Each thread walks every chunk from its own offset, at
                    // both fidelities, so pooled handles interleave hard.
                    for i in 0..2 * chunks {
                        let c = (t + i) % chunks;
                        for (k, cf) in [4, 2].into_iter().enumerate() {
                            let got = shared.read_chunk_bytes_at(c, cf).unwrap();
                            assert_eq!(got, want[c][k], "thread {t} chunk {c} cf {cf}");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The pool holds at most one idle handle per peak-concurrent reader.
        assert!(shared.lock_pool().len() <= 8 + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_read_does_not_recycle_the_handle() {
        let path = temp_path("poison");
        let opts = StoreOptions::dct(16, 4, 1, 2);
        pack_file(&path, &opts, (0..4).map(|i| sample(i, 1, 16))).unwrap();
        let shared = SharedReader::open(&path).unwrap();
        assert!(shared.read_chunk_bytes_at(99, 4).is_err());
        assert!(shared.read_chunk_bytes_at(0, 99).is_err());
        // Healthy reads still work (and refill the pool) afterwards.
        let a = shared.read_chunk_bytes_at(0, 4).unwrap();
        let b = shared.read_chunk_bytes_at(0, 4).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }
}
