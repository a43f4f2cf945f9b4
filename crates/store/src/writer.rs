//! [`DczWriter`] — streaming `.dcz` writer.
//!
//! The §1 bounded-memory path: samples of any stream length are kept, not
//! copied. [`DczWriter::push`] moves each owned sample into the open chunk
//! as it is; [`DczWriter::push_batch`] borrows its batch, so it copies it
//! as one run per chunk it fills. Each full chunk waits as its list of
//! runs in a small pending queue. When the queue fills, its chunks are
//! finished **in parallel** with rayon — each one's Chop compress (every
//! run straight into its slice of the chunk's `[S, C, cs, cs]`
//! coefficient buffer), ring gather, Huffman fit, bit packing and CRC-32
//! in one closure, as every chunk is independent — then written to the
//! sink and indexed in order. The ragged tail chunk is compressed at its
//! real sample count. Memory stays bounded by
//! `(pending-queue length + 1) × chunk size` raw samples regardless of
//! stream length.
//!
//! Chunk and section lengths are `u32` on disk, so [`DczWriter::new`]
//! refuses a geometry whose worst-case chunk could not fit one.
//!
//! File-backed packs go through [`DczFileWriter`], which writes to a
//! hidden temporary sibling and only renames it into place (after an
//! `fsync`) at [`DczFileWriter::finish`]. The destination path therefore
//! either holds the previous complete container or the new one — a pack
//! killed at any instant can never leave a file that parses as valid.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use aicomp_core::{ChopCompressor, CodecSpec};
use aicomp_tensor::{Tensor, TensorError};
use rayon::prelude::*;

use crate::chunk::{encode_chunk, max_chunk_len};
use crate::crc::crc32;
use crate::layout::{write_index, Header, IndexEntry, FOOTER_LEN, INDEX_ENTRY_LEN};
use crate::{Result, StoreError};

/// Container creation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Registry spec of the codec to store with (block-2-D families:
    /// `dct2d` or `zfp2d`). Store at the *highest* fidelity you may ever
    /// read — coarser chop factors decode from a prefix.
    pub codec: CodecSpec,
    /// Channels per sample (samples are `[channels, n, n]`).
    pub channels: usize,
    /// Samples per chunk: the random-access and prefetch granularity.
    pub chunk_size: usize,
}

impl StoreOptions {
    /// DCT+Chop shorthand: the paper's §3.2 pipeline at resolution `n`,
    /// chop factor `cf`.
    pub fn dct(n: usize, cf: usize, channels: usize, chunk_size: usize) -> Self {
        StoreOptions { codec: CodecSpec::Dct2d { n, cf }, channels, chunk_size }
    }
}

/// Raw and Chop-coefficient byte counts of a pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Uncompressed f32 sample bytes packed.
    pub bytes_in: u64,
    /// Chop coefficient bytes those samples compress to, before the
    /// entropy stage.
    pub bytes_out: u64,
}

/// What a finished pack achieved.
#[derive(Debug, Clone)]
pub struct StoreSummary {
    /// Samples packed.
    pub samples: u64,
    /// Chunks written.
    pub chunks: u32,
    /// Entropy-coded chunk payload bytes (prelude + sections).
    pub payload_bytes: u64,
    /// Total container size including header, index, and footer.
    pub file_bytes: u64,
    /// Raw vs. coefficient bytes.
    pub stream: StreamStats,
}

impl StoreSummary {
    /// Chop's own ratio (Eq. 3): raw bytes / coefficient bytes; 0.0 for an
    /// empty pack.
    pub fn chop_ratio(&self) -> f64 {
        if self.stream.bytes_out == 0 {
            0.0
        } else {
            self.stream.bytes_in as f64 / self.stream.bytes_out as f64
        }
    }

    /// Extra factor the entropy stage buys on top of Chop.
    pub fn entropy_gain(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.stream.bytes_out as f64 / self.payload_bytes as f64
        }
    }

    /// End-to-end ratio: raw bytes / stored payload bytes.
    pub fn total_ratio(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.stream.bytes_in as f64 / self.payload_bytes as f64
        }
    }
}

/// Streaming `.dcz` writer over any `Write + Seek` sink.
#[derive(Debug)]
pub struct DczWriter<W: Write + Seek> {
    sink: W,
    header: Header,
    codec: ChopCompressor,
    /// The open chunk as runs of whole samples, in push order: each
    /// pushed `[C, n, n]` sample as given, each `push_batch` run as one
    /// copied `[k, C, n, n]` tensor.
    open: Vec<Tensor>,
    /// Samples in `open`.
    open_samples: usize,
    /// Full chunks' runs, not yet compressed.
    pending: Vec<Vec<Tensor>>,
    index: Vec<IndexEntry>,
    offset: u64,
    /// Samples accepted by [`DczWriter::push`] (written or still buffered).
    samples_pushed: u64,
    samples_written: u64,
    payload_bytes: u64,
    /// Pending-queue length that triggers a parallel encode+flush.
    fanout: usize,
}

impl<W: Write + Seek> DczWriter<W> {
    /// Start a container on `sink` (positioned at its beginning).
    ///
    /// Fails with [`StoreError::InvalidArg`] when `channels` or
    /// `chunk_size` is zero, or when a chunk of this geometry could encode
    /// to more bytes than the format's `u32` lengths hold.
    pub fn new(mut sink: W, opts: &StoreOptions) -> Result<Self> {
        if opts.channels == 0 || opts.chunk_size == 0 {
            return Err(StoreError::InvalidArg(format!(
                "channels ({}) and chunk_size ({}) must be positive",
                opts.channels, opts.chunk_size
            )));
        }
        let codec = opts.codec.build_chop()?;
        // Chunk and section lengths are u32 on disk; refuse a geometry whose
        // chunks could outgrow them before a single sample is buffered.
        let side = codec.compressed_side() as u128;
        let worst = [opts.channels as u128, side, side]
            .into_iter()
            .try_fold(opts.chunk_size as u128, u128::checked_mul)
            .and_then(|values| max_chunk_len(values, opts.codec.chop_factor()));
        if worst.is_none_or(|w| w > u32::MAX as u128) {
            return Err(StoreError::InvalidArg(format!(
                "chunks of {} samples × {} channels can encode past the format's \
                 u32 chunk length",
                opts.chunk_size, opts.channels
            )));
        }
        let header = Header {
            codec: opts.codec,
            channels: opts.channels as u32,
            sample_count: 0, // patched at finish
            chunk_size: opts.chunk_size as u32,
            chunk_count: 0, // patched at finish
        };
        header.write(&mut sink)?;
        let offset = header.serialized_len();
        Ok(DczWriter {
            sink,
            header,
            codec,
            open: Vec::new(),
            open_samples: 0,
            pending: Vec::new(),
            index: Vec::new(),
            offset,
            samples_pushed: 0,
            samples_written: 0,
            payload_bytes: 0,
            fanout: rayon::current_num_threads().max(2),
        })
    }

    /// `[channels, n, n]`: the shape of one sample.
    fn sample_dims(&self) -> [usize; 3] {
        let n = self.codec.resolution();
        [self.header.channels as usize, n, n]
    }

    /// Append one `[channels, n, n]` sample. The writer keeps the tensor
    /// itself until its chunk is compressed; its floats are not copied.
    ///
    /// A sample of another shape is rejected with a shape-mismatch error,
    /// and a sample holding a NaN or ±Inf with [`StoreError::NonFinite`];
    /// either leaves the writer as it was. A non-finite value's Chop
    /// coefficients are undefined: the per-block kernel keeps it inside its
    /// own transform block (8×8 for DCT), but turns every coefficient of
    /// that block NaN/Inf.
    pub fn push(&mut self, sample: Tensor) -> Result<()> {
        let want = self.sample_dims();
        if sample.dims() != want {
            return Err(TensorError::ShapeMismatch {
                op: "DczWriter::push",
                lhs: sample.dims().to_vec(),
                rhs: want.to_vec(),
            }
            .into());
        }
        self.check_finite(sample.data())?;
        self.samples_pushed += 1;
        self.add_run(sample, 1)
    }

    /// Append every sample of a `[B, channels, n, n]` batch, in order.
    ///
    /// The batch is borrowed, so its floats are copied: one run per chunk
    /// it fills, each a single allocation. Each sample is accepted or
    /// rejected as by [`DczWriter::push`]; the first rejection is returned,
    /// and the samples before it stay pushed.
    pub fn push_batch(&mut self, batch: &Tensor) -> Result<()> {
        let [c, n, _] = self.sample_dims();
        let d = batch.dims();
        if d.len() != 4 || d[1..] != [c, n, n] {
            return Err(StoreError::InvalidArg(format!(
                "push_batch expects [B, {c}, {n}, {n}], got {d:?}"
            )));
        }
        let sample_len = c * n * n;
        let mut samples = batch.data().chunks_exact(sample_len);
        while samples.len() > 0 {
            let room = self.header.chunk_size as usize - self.open_samples;
            let mut run = Vec::with_capacity(room.min(samples.len()) * sample_len);
            let mut checked = Ok(());
            for sample in samples.by_ref().take(room) {
                checked = self.check_finite(sample);
                if checked.is_err() {
                    break;
                }
                run.extend_from_slice(sample);
                self.samples_pushed += 1;
            }
            let k = run.len() / sample_len;
            if k > 0 {
                self.add_run(Tensor::from_vec(run, [k, c, n, n])?, k)?;
            }
            checked?;
        }
        Ok(())
    }

    /// [`StoreError::NonFinite`] for the first NaN or ±Inf of the next
    /// sample to be pushed.
    fn check_finite(&self, sample: &[f32]) -> Result<()> {
        match first_non_finite(sample) {
            Some(element) => Err(StoreError::NonFinite {
                sample: self.samples_pushed,
                element,
                value: sample[element],
            }),
            None => Ok(()),
        }
    }

    /// Add a run of `samples` whole samples to the open chunk, queueing
    /// the chunk once it is full.
    fn add_run(&mut self, run: Tensor, samples: usize) -> Result<()> {
        self.open.push(run);
        self.open_samples += samples;
        if self.open_samples == self.header.chunk_size as usize {
            self.close_chunk()?;
        }
        Ok(())
    }

    /// Queue the open chunk's runs; flush the queue once it holds `fanout`.
    fn close_chunk(&mut self) -> Result<()> {
        self.pending.push(std::mem::take(&mut self.open));
        self.open_samples = 0;
        if self.pending.len() >= self.fanout {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Compress, encode and checksum all pending chunks in parallel, then
    /// write and index them in order. Each chunk's runs are compressed
    /// straight into one `[S, C, cs, cs]` coefficient buffer.
    fn flush_pending(&mut self) -> Result<()> {
        let cf = self.header.cf();
        let codec = &self.codec;
        let [c, n, _] = self.sample_dims();
        let cs = codec.compressed_side();
        let encoded: Vec<(Vec<u8>, u32, usize)> = std::mem::take(&mut self.pending)
            .par_iter()
            .map(|runs| {
                let planes = runs.iter().map(Tensor::numel).sum::<usize>() / (n * n);
                let mut coeffs = vec![0.0f32; planes * cs * cs];
                let mut at = 0;
                for run in runs {
                    let len = run.numel() / (n * n) * cs * cs;
                    codec.compress_into(run, &mut coeffs[at..at + len])?;
                    at += len;
                }
                let samples = planes / c;
                let coeffs = Tensor::from_vec(coeffs, [samples, c, cs, cs])?;
                let bytes = encode_chunk(&coeffs, cf)?;
                let crc = crc32(&bytes);
                Ok((bytes, crc, samples))
            })
            .collect::<Result<_>>()?;
        for (bytes, crc, samples) in encoded {
            let len = u32::try_from(bytes.len()).map_err(|_| {
                StoreError::InvalidArg(format!(
                    "a {}-byte chunk overflows its u32 length",
                    bytes.len()
                ))
            })?;
            self.index.push(IndexEntry {
                offset: self.offset,
                len,
                first_sample: self.samples_written,
                samples: samples as u32,
                crc,
            });
            self.sink.write_all(&bytes)?;
            self.offset += bytes.len() as u64;
            self.payload_bytes += bytes.len() as u64;
            self.samples_written += samples as u64;
        }
        Ok(())
    }

    /// Flush the tail, write index + footer, patch the header, and return
    /// the sink with a [`StoreSummary`].
    pub fn finish(mut self) -> Result<(W, StoreSummary)> {
        if !self.open.is_empty() {
            self.close_chunk()?;
        }
        self.flush_pending()?;

        let index_offset = self.offset;
        write_index(&mut self.sink, &self.index, index_offset)?;
        let file_bytes = index_offset + (self.index.len() * INDEX_ENTRY_LEN) as u64 + FOOTER_LEN;

        self.header.sample_count = self.samples_written;
        self.header.chunk_count = self.index.len() as u32;
        self.sink.seek(SeekFrom::Start(0))?;
        self.header.write(&mut self.sink)?;
        self.sink.seek(SeekFrom::Start(file_bytes))?;
        self.sink.flush()?;

        let [c, n, _] = self.sample_dims();
        let side = self.codec.compressed_side();
        let summary = StoreSummary {
            samples: self.samples_written,
            chunks: self.index.len() as u32,
            payload_bytes: self.payload_bytes,
            file_bytes,
            stream: StreamStats {
                bytes_in: self.samples_written * (c * n * n * 4) as u64,
                bytes_out: self.samples_written * (c * side * side * 4) as u64,
            },
        };
        Ok((self.sink, summary))
    }

    /// One-shot: pack a whole sample stream into `sink`.
    pub fn pack(
        sink: W,
        opts: &StoreOptions,
        samples: impl IntoIterator<Item = Tensor>,
    ) -> Result<(W, StoreSummary)> {
        let mut w = DczWriter::new(sink, opts)?;
        for s in samples {
            w.push(s)?;
        }
        w.finish()
    }
}

/// Flat index of the first NaN or ±Inf in `data`.
///
/// A value is non-finite when its exponent field is all ones; adding one
/// exponent step to that field then carries into bit 31, which no finite
/// value's field reaches. ORing those sums over a block of 256 values needs
/// no branch, so it vectorizes and keeps the check under 1% of the time a
/// sample takes to pack. Only a flagged block is searched element by element.
fn first_non_finite(data: &[f32]) -> Option<usize> {
    const EXP: u32 = 0x7f80_0000;
    const BLOCK: usize = 256;
    data.chunks(BLOCK).enumerate().find_map(|(b, block)| {
        let flags =
            block.iter().fold(0u32, |acc, v| acc | (v.to_bits() & EXP).wrapping_add(1 << 23));
        if flags & (1 << 31) == 0 {
            None
        } else {
            block.iter().position(|v| !v.is_finite()).map(|i| b * BLOCK + i)
        }
    })
}

/// Crash-safe file-backed writer: streams into a hidden temporary sibling
/// of the destination (`.{name}.tmp-{pid}`), and [`finish`] publishes it
/// with fsync + atomic rename. Dropping an unfinished writer removes the
/// temporary — an interrupted pack leaves the destination untouched.
///
/// [`finish`]: DczFileWriter::finish
#[derive(Debug)]
pub struct DczFileWriter {
    /// `None` only after `finish` has taken the writer.
    inner: Option<DczWriter<BufWriter<File>>>,
    tmp: PathBuf,
    dest: PathBuf,
}

impl DczFileWriter {
    /// Start a container destined for `path`. The destination is not
    /// created or modified until [`finish`](Self::finish) succeeds.
    pub fn create(path: impl AsRef<Path>, opts: &StoreOptions) -> Result<Self> {
        let dest = path.as_ref().to_path_buf();
        let tmp = tmp_sibling(&dest);
        let file = File::create(&tmp)?;
        match DczWriter::new(BufWriter::new(file), opts) {
            Ok(inner) => Ok(DczFileWriter { inner: Some(inner), tmp, dest }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Append one `[channels, n, n]` sample.
    pub fn push(&mut self, sample: Tensor) -> Result<()> {
        self.writer()?.push(sample)
    }

    /// Append every sample of a `[B, channels, n, n]` batch.
    pub fn push_batch(&mut self, batch: &Tensor) -> Result<()> {
        self.writer()?.push_batch(batch)
    }

    /// Finalize the container, fsync it, and atomically rename it into
    /// place. Only after this returns `Ok` does the destination exist (or
    /// change, if it already existed).
    pub fn finish(mut self) -> Result<StoreSummary> {
        let Some(inner) = self.inner.take() else {
            return Err(StoreError::InvalidArg("writer already finished".into()));
        };
        let (sink, summary) = inner.finish()?;
        let file = sink.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.dest)?;
        Ok(summary)
        // Drop still runs; its remove_file of the (now renamed-away)
        // temporary is a no-op.
    }

    fn writer(&mut self) -> Result<&mut DczWriter<BufWriter<File>>> {
        self.inner.as_mut().ok_or_else(|| StoreError::InvalidArg("writer already finished".into()))
    }
}

impl Drop for DczFileWriter {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.tmp);
    }
}

/// Hidden same-directory temporary for `dest` — same filesystem, so the
/// publishing `rename` is atomic.
fn tmp_sibling(dest: &Path) -> PathBuf {
    let name = dest
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "container.dcz".into());
    dest.with_file_name(format!(".{name}.tmp-{}", std::process::id()))
}

/// Write `bytes` to `dest` crash-safely: hidden temporary sibling, fsync,
/// atomic rename. Used by [`crate::recover::repair`].
pub(crate) fn atomic_write(dest: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = tmp_sibling(dest);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, dest)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Pack a sample stream into a file at `path`, crash-safely: the path only
/// appears (or changes) once the container is complete and fsynced.
pub fn pack_file(
    path: impl AsRef<Path>,
    opts: &StoreOptions,
    samples: impl IntoIterator<Item = Tensor>,
) -> Result<StoreSummary> {
    let mut w = DczFileWriter::create(path, opts)?;
    for s in samples {
        w.push(s)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k + i * 13) % 23) as f32 / 5.0 - 2.0).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    #[test]
    fn writes_well_formed_container() {
        let opts = StoreOptions::dct(16, 4, 2, 4);
        let samples: Vec<Tensor> = (0..10).map(|i| sample(i, 2, 16)).collect();
        let (cur, summary) = DczWriter::pack(Cursor::new(Vec::new()), &opts, samples).unwrap();
        let bytes = cur.into_inner();
        assert_eq!(summary.samples, 10);
        assert_eq!(summary.chunks, 3); // 4 + 4 + 2 (ragged tail)
        assert_eq!(summary.file_bytes, bytes.len() as u64);
        assert!(summary.chop_ratio() > 3.9);
        assert!(summary.entropy_gain() > 0.5, "gain {}", summary.entropy_gain());

        let h = Header::read(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(h.sample_count, 10);
        assert_eq!(h.chunk_count, 3);
        assert_eq!(h.codec, CodecSpec::Dct2d { n: 16, cf: 4 });
        assert_eq!(h.codec.to_string(), "dct2d-n16-cf4");
    }

    #[test]
    fn empty_stream_is_valid() {
        let opts = StoreOptions::dct(16, 3, 1, 4);
        let (cur, summary) =
            DczWriter::pack(Cursor::new(Vec::new()), &opts, std::iter::empty()).unwrap();
        assert_eq!(summary.samples, 0);
        assert_eq!(summary.chunks, 0);
        assert_eq!(summary.total_ratio(), 0.0);
        let bytes = cur.into_inner();
        let h = Header::read(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(h.chunk_count, 0);
    }

    #[test]
    fn bad_options_rejected() {
        let opts = StoreOptions::dct(30, 4, 1, 4);
        assert!(DczWriter::new(Cursor::new(Vec::new()), &opts).is_err());
        let opts = StoreOptions::dct(16, 0, 1, 4);
        assert!(DczWriter::new(Cursor::new(Vec::new()), &opts).is_err());
        let opts = StoreOptions::dct(16, 4, 1, 0);
        assert!(DczWriter::new(Cursor::new(Vec::new()), &opts).is_err());
        // Non-block-2-D specs cannot back a container.
        let opts = StoreOptions {
            codec: CodecSpec::Chop1d { len: 64, cf: 4 },
            channels: 1,
            chunk_size: 4,
        };
        assert!(DczWriter::new(Cursor::new(Vec::new()), &opts).is_err());
    }

    #[test]
    fn chunks_past_u32_lengths_rejected_up_front() {
        // 2^14 samples of 512×512 coefficients: 2^32 values, up to 30 GiB
        // per chunk. Rejected before any chunk memory exists.
        let opts = StoreOptions::dct(512, 8, 1, 1 << 14);
        let err = DczWriter::new(Cursor::new(Vec::new()), &opts).unwrap_err();
        assert!(matches!(err, StoreError::InvalidArg(_)), "{err}");
        assert!(err.to_string().contains("u32 chunk length"), "{err}");
        let opts = StoreOptions::dct(512, 8, usize::MAX, usize::MAX);
        assert!(DczWriter::new(Cursor::new(Vec::new()), &opts).is_err());
        // Just inside the limit: 2^32 bytes hold 2^32·8/60 coefficients.
        let opts = StoreOptions::dct(512, 8, 1, 2184);
        assert!(DczWriter::new(Cursor::new(Vec::new()), &opts).is_ok());
        let opts = StoreOptions::dct(512, 8, 1, 2185);
        assert!(DczWriter::new(Cursor::new(Vec::new()), &opts).is_err());
    }

    #[test]
    fn wrong_sample_shape_rejected() {
        let opts = StoreOptions::dct(16, 4, 2, 4);
        let mut w = DczWriter::new(Cursor::new(Vec::new()), &opts).unwrap();
        w.push(sample(0, 2, 16)).unwrap();
        for bad in [sample(0, 1, 16), sample(0, 2, 8), Tensor::zeros([2usize * 16 * 16])] {
            let err = w.push(bad).unwrap_err();
            assert!(
                matches!(err, StoreError::Core(aicomp_core::CoreError::Tensor(_))),
                "typed shape error: {err}"
            );
        }
        for batch in [Tensor::zeros([2usize, 1, 16, 16]), Tensor::zeros([2usize, 16, 16])] {
            let err = w.push_batch(&batch).unwrap_err();
            assert!(matches!(err, StoreError::InvalidArg(_)), "{err}");
        }
        // The rejections left the writer usable: the remaining samples pack.
        for i in 1..6 {
            w.push(sample(i, 2, 16)).unwrap();
        }
        let (cur, summary) = w.finish().unwrap();
        assert_eq!((summary.samples, summary.chunks), (6, 2));
        let mut r = crate::DczReader::new(Cursor::new(cur.into_inner())).unwrap();
        r.verify().unwrap();
        assert_eq!(r.sample_count(), 6);
    }

    /// `part` stacked into one `[B, C, n, n]` batch.
    fn batch_of(part: &[Tensor]) -> Tensor {
        let mut dims = vec![part.len()];
        dims.extend_from_slice(part[0].dims());
        let refs: Vec<&Tensor> = part.iter().collect();
        Tensor::concat0(&refs).unwrap().reshape(dims).unwrap()
    }

    #[test]
    fn push_batch_matches_per_sample_push() {
        // Owned pushes, borrowed batches of 3 (straddling every chunk edge
        // of 4 and 5), a mix of owned pushes and batches of 0, 2 and 4,
        // and one 11-sample batch through the file writer all pack the
        // same container; 11 samples end in a ragged tail for 4 and 5.
        // (batch?, samples) steps of the mix; an owned push is one sample.
        const MIX: [(bool, usize); 7] =
            [(false, 1), (true, 2), (true, 0), (false, 1), (true, 4), (false, 1), (true, 2)];
        for spec in ["dct2d-n16-cf4", "zfp2d-n16-cf3"] {
            for channels in [1, 3] {
                for chunk_size in [1, 4, 5] {
                    let case = format!("{spec} × {channels} channels, chunks of {chunk_size}");
                    let opts = StoreOptions { codec: spec.parse().unwrap(), channels, chunk_size };
                    let samples: Vec<Tensor> = (0..11).map(|i| sample(i, channels, 16)).collect();
                    let (owned, summary) =
                        DczWriter::pack(Cursor::new(Vec::new()), &opts, samples.clone()).unwrap();
                    let owned = owned.into_inner();
                    assert_eq!(summary.samples, 11, "{case}");
                    assert_eq!(summary.chunks as usize, 11usize.div_ceil(chunk_size), "{case}");

                    let mut w = DczWriter::new(Cursor::new(Vec::new()), &opts).unwrap();
                    for part in samples.chunks(3) {
                        w.push_batch(&batch_of(part)).unwrap();
                    }
                    assert_eq!(w.finish().unwrap().0.into_inner(), owned, "batches: {case}");

                    let mut w = DczWriter::new(Cursor::new(Vec::new()), &opts).unwrap();
                    let mut at = 0;
                    for (batch, k) in MIX {
                        if !batch {
                            w.push(samples[at].clone()).unwrap();
                        } else if k == 0 {
                            w.push_batch(&Tensor::zeros([0, channels, 16, 16])).unwrap();
                        } else {
                            w.push_batch(&batch_of(&samples[at..at + k])).unwrap();
                        }
                        at += k;
                    }
                    assert_eq!(at, 11);
                    assert_eq!(w.finish().unwrap().0.into_inner(), owned, "mix: {case}");

                    let dest = temp_dest("push_batch");
                    let mut w = DczFileWriter::create(&dest, &opts).unwrap();
                    w.push_batch(&batch_of(&samples)).unwrap();
                    w.finish().unwrap();
                    assert_eq!(std::fs::read(&dest).unwrap(), owned, "file writer: {case}");
                    std::fs::remove_file(&dest).ok();
                }
            }
        }
    }

    #[test]
    fn push_batch_rejects_a_non_finite_sample_mid_run() {
        // Two owned samples, then a batch of samples 2..9 into chunks of
        // 4: its runs are 2–3, 4–7 and 8. The bad sample opens the batch,
        // opens a run, or sits inside one.
        let opts = StoreOptions::dct(16, 4, 2, 4);
        let samples: Vec<Tensor> = (0..10).map(|i| sample(i, 2, 16)).collect();
        let packed = |samples: &[Tensor]| {
            DczWriter::pack(Cursor::new(Vec::new()), &opts, samples.to_vec())
                .unwrap()
                .0
                .into_inner()
        };
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for bad in [2usize, 4, 6] {
                let element = 300;
                let mut dirty = batch_of(&samples[2..9]);
                dirty.data_mut()[(bad - 2) * 2 * 16 * 16 + element] = value;
                let start = || {
                    let mut w = DczWriter::new(Cursor::new(Vec::new()), &opts).unwrap();
                    w.push(samples[0].clone()).unwrap();
                    w.push(samples[1].clone()).unwrap();
                    let err = w.push_batch(&dirty).unwrap_err();
                    assert!(
                        matches!(err, StoreError::NonFinite { sample, element: el, value: v }
                            if sample == bad as u64 && el == element && v.to_bits() == value.to_bits()),
                        "{value} in sample {bad}: {err}"
                    );
                    w
                };
                // Finishing keeps exactly the samples before the bad one.
                let (cur, summary) = start().finish().unwrap();
                assert_eq!(summary.samples, bad as u64);
                assert_eq!(cur.into_inner(), packed(&samples[..bad]), "{value} in sample {bad}");
                // The writer stays usable: the clean rest packs after it.
                let mut w = start();
                w.push_batch(&batch_of(&samples[bad..])).unwrap();
                let (cur, _) = w.finish().unwrap();
                assert_eq!(cur.into_inner(), packed(&samples), "{value} in sample {bad}, resumed");
            }
        }
    }

    #[test]
    fn streaming_stats_track_compile_time_ratio() {
        // CF 2 keeps 2×2 of every 8×8 block: CR 16 (Eq. 3), ragged tail
        // included (12 samples in chunks of 5).
        let opts = StoreOptions::dct(32, 2, 3, 5);
        let samples = (0..12u64).map(|i| {
            let mut rng = Tensor::seeded_rng(i);
            Tensor::rand_uniform([3usize, 32, 32], 0.0, 1.0, &mut rng)
        });
        let (_, summary) = DczWriter::pack(Cursor::new(Vec::new()), &opts, samples).unwrap();
        assert_eq!((summary.samples, summary.chunks), (12, 3));
        assert_eq!(summary.stream.bytes_in, 12 * 3 * 32 * 32 * 4);
        assert_eq!(summary.chop_ratio(), 16.0);
    }

    #[test]
    fn non_finite_samples_are_rejected_by_index() {
        let opts = StoreOptions::dct(16, 4, 2, 2);
        // The extremes of the finite range pass.
        let mut edge = sample(0, 2, 16);
        edge.data_mut()[..5].copy_from_slice(&[f32::MAX, f32::MIN, f32::from_bits(1), -0.0, 0.0]);
        let mut w = DczWriter::new(Cursor::new(Vec::new()), &opts).unwrap();
        w.push(edge).unwrap();
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // First sample, first element; then a middle sample, deep in
            // its second channel.
            for (bad_sample, element) in [(0u64, 0usize), (3, 16 * 16 + 37)] {
                let samples: Vec<Tensor> = (0..6)
                    .map(|i| {
                        let mut s = sample(i, 2, 16);
                        if i as u64 == bad_sample {
                            s.data_mut()[element] = value;
                        }
                        s
                    })
                    .collect();
                let is_expected = |e: &StoreError| {
                    matches!(e, StoreError::NonFinite { sample, element: el, value: v }
                        if *sample == bad_sample && *el == element && v.to_bits() == value.to_bits())
                };

                // The rejected push leaves the writer usable; the other
                // samples still pack.
                let mut w = DczWriter::new(Cursor::new(Vec::new()), &opts).unwrap();
                for (i, s) in samples.iter().enumerate() {
                    match w.push(s.clone()) {
                        Err(e) => assert!(is_expected(&e) && i as u64 == bad_sample, "{e}"),
                        Ok(()) => assert_ne!(i as u64, bad_sample, "{value} accepted"),
                    }
                }
                assert_eq!(w.finish().unwrap().1.samples, 5);

                // Through the file writer, nothing is left on disk.
                let dest = temp_dest("nonfinite");
                std::fs::remove_file(&dest).ok();
                let err = pack_file(&dest, &opts, samples).unwrap_err();
                assert!(is_expected(&err), "{err}");
                assert!(err.to_string().contains(&format!("sample {bad_sample}")), "{err}");
                assert!(!dest.exists());
                assert!(!tmp_sibling(&dest).exists(), "rejected pack left its temporary");
            }
        }
    }

    fn temp_dest(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aicomp_writer_{tag}_{}.dcz", std::process::id()))
    }

    #[test]
    fn killed_mid_pack_leaves_no_destination() {
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let dest = temp_dest("kill");
        let tmp = tmp_sibling(&dest);
        std::fs::remove_file(&dest).ok();
        {
            let mut w = DczFileWriter::create(&dest, &opts).unwrap();
            for i in 0..5 {
                w.push(sample(i, 1, 16)).unwrap();
            }
            // Mid-pack the destination must not exist in any form — a
            // `kill -9` here leaves at worst a hidden temporary.
            assert!(!dest.exists());
            assert!(tmp.exists());
            // Abandon without finish: the "crash" with cleanup running.
        }
        assert!(!dest.exists());
        assert!(!tmp.exists(), "unfinished writer must remove its temporary");
    }

    #[test]
    fn finish_publishes_valid_container_atomically() {
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let dest = temp_dest("finish");
        // Pre-existing destination survives byte-for-byte if a later pack
        // never finishes.
        std::fs::write(&dest, b"previous contents").unwrap();
        {
            let mut w = DczFileWriter::create(&dest, &opts).unwrap();
            w.push(sample(0, 1, 16)).unwrap();
        }
        assert_eq!(std::fs::read(&dest).unwrap(), b"previous contents");

        let mut w = DczFileWriter::create(&dest, &opts).unwrap();
        for i in 0..5 {
            w.push(sample(i, 1, 16)).unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.samples, 5);
        assert!(!tmp_sibling(&dest).exists());
        let mut r = crate::DczReader::open(&dest).unwrap();
        r.verify().unwrap();
        assert_eq!(r.sample_count(), 5);
        std::fs::remove_file(&dest).ok();
    }

    /// FNV-1a (64-bit) over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins the whole `DczWriter::pack` output, byte for byte: header,
    /// preludes, Huffman sections, CRCs, index and footer. The inputs are
    /// smooth seeded fields with noise, so the codes are skewed and the
    /// sections end at varied bit offsets. The digests were recorded with
    /// the symbol-at-a-time encoder, then re-recorded when near-uniform
    /// planes began to be stored raw (all-8 tables, a fitting change);
    /// any faster encoder must reproduce them.
    #[test]
    fn packed_container_bytes_are_stable() {
        // (spec, channels, chunk size, samples, FNV-1a of the container)
        const PINNED: [(&str, usize, usize, usize, u64); 3] = [
            ("dct2d-n32-cf4", 3, 4, 10, 0x60d4_8fb2_52b9_c833),
            ("dct2d-n256-cf4", 1, 2, 3, 0xd7e0_f04b_577e_dc60),
            ("zfp2d-n32-cf3", 2, 3, 7, 0x7a56_3bdb_5c2e_ecbc),
        ];
        let mut got = Vec::new();
        for (name, channels, chunk_size, count, _) in PINNED {
            let opts = StoreOptions { codec: name.parse().unwrap(), channels, chunk_size };
            let n = opts.codec.build_chop().unwrap().resolution();
            let mut rng = Tensor::seeded_rng(29);
            let samples: Vec<Tensor> = (0..count)
                .map(|i| {
                    let mut t = Tensor::rand_uniform([channels, n, n], -0.05, 0.05, &mut rng);
                    for (k, v) in t.data_mut().iter_mut().enumerate() {
                        let (y, x) = ((k / n) % n, k % n);
                        *v += ((x + 2 * y + i) % n) as f32 / n as f32 - 0.5;
                    }
                    t
                })
                .collect();
            let (cur, _) = DczWriter::pack(Cursor::new(Vec::new()), &opts, samples).unwrap();
            got.push((name, channels, chunk_size, count, fnv1a(&cur.into_inner())));
        }
        assert_eq!(got, PINNED.to_vec());
    }

    #[test]
    fn injected_sink_crash_surfaces_as_error() {
        use crate::fault::{FaultPlan, FaultySink};
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let samples: Vec<Tensor> = (0..6).map(|i| sample(i, 1, 16)).collect();
        let plan = FaultPlan { truncate_at: Some(200), ..FaultPlan::none() };
        let sink = FaultySink::new(Cursor::new(Vec::new()), plan);
        let err = DczWriter::pack(sink, &opts, samples).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "crash maps to a clean I/O error: {err}");
    }
}
