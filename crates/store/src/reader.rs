//! [`DczReader`] — random-access `.dcz` reading.
//!
//! Two access patterns, matching how training consumes data:
//!
//! 1. **Random chunk access** ([`DczReader::read_chunk`] /
//!    [`DczReader::decompress_chunk`]): the footer index maps chunk → byte
//!    range, so any chunk is one seek away.
//! 2. **Progressive** ([`DczReader::read_chunk_at`]): read only the ring
//!    prefix covering a coarser chop factor — the PCR-style trade of
//!    fidelity for I/O. Bytes actually read are tracked and exposed via
//!    [`DczReader::bytes_read`] so callers (and tests) can verify the
//!    saving is real.
//!
//! In-order streaming is [`crate::PrefetchLoader`]'s job: its workers
//! decode chunks ahead of the consumer, each through its own reader.
//!
//! Every decode goes through [`DczReader::read_chunk_bytes_at`], which
//! returns a chunk's stored bytes, and the reader's [`ChunkDecoder`] —
//! the same decoder a serve client runs on the bytes a server sends.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use aicomp_tensor::Tensor;

use crate::chunk::{decode_prelude, prelude_len, ChunkDecoder, ChunkPrelude};
use crate::crc::crc32;
use crate::fault::{with_retry, RetryPolicy};
use crate::layout::{read_footer, read_index, Header, IndexEntry, FOOTER_LEN, INDEX_ENTRY_LEN};
use crate::{Result, StoreError};

/// Outcome of a full-container [`DczReader::verify`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Chunks checked (CRC + full decode).
    pub chunks: u32,
    /// Total chunk payload bytes covered.
    pub payload_bytes: u64,
}

/// `.dcz` reader over any `Read + Seek` source.
#[derive(Debug)]
pub struct DczReader<R: Read + Seek> {
    src: R,
    header: Header,
    index: Vec<IndexEntry>,
    bytes_read: u64,
    /// Bounded-backoff retry for transient I/O (timeouts, interrupts).
    retry: RetryPolicy,
    /// Decodes the stored bytes this reader reads.
    decoder: ChunkDecoder,
}

impl DczReader<BufReader<File>> {
    /// Open a `.dcz` file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> DczReader<R> {
    /// Parse the header, footer, and index of `src`.
    pub fn new(mut src: R) -> Result<Self> {
        let header = Header::read(&mut src)?;

        let end = src.seek(SeekFrom::End(0))?;
        if end < header.serialized_len() + FOOTER_LEN {
            return Err(StoreError::Format("file too short for a footer".into()));
        }
        src.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut footer = [0u8; FOOTER_LEN as usize];
        src.read_exact(&mut footer)?;
        let (index_offset, index_crc, count) = read_footer(&footer)?;

        if count != header.chunk_count {
            return Err(StoreError::Format(format!(
                "footer lists {count} chunks, header lists {}",
                header.chunk_count
            )));
        }
        let index_len = count as u64 * INDEX_ENTRY_LEN as u64;
        if index_offset.checked_add(index_len).is_none_or(|e| e + FOOTER_LEN != end) {
            return Err(StoreError::Format("index does not sit between payload and footer".into()));
        }
        src.seek(SeekFrom::Start(index_offset))?;
        let mut index_bytes = vec![0u8; index_len as usize];
        src.read_exact(&mut index_bytes)?;
        let index = read_index(&index_bytes, index_crc, count)?;

        // Index coherence: chunks are contiguous in both bytes and samples.
        let mut offset = header.serialized_len();
        let mut sample = 0u64;
        for (i, e) in index.iter().enumerate() {
            if e.offset != offset || e.first_sample != sample || e.samples == 0 {
                return Err(StoreError::Format(format!("index entry {i} is incoherent")));
            }
            offset += e.len as u64;
            sample += e.samples as u64;
        }
        if offset != index_offset || sample != header.sample_count {
            return Err(StoreError::Format("index totals disagree with header".into()));
        }

        Ok(DczReader {
            src,
            header,
            index,
            bytes_read: 0,
            retry: RetryPolicy::default(),
            decoder: ChunkDecoder::new(header),
        })
    }

    /// Replace the transient-I/O retry policy (default: 3 attempts with
    /// sub-millisecond exponential backoff).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Mutable access to the underlying source. Exists so fault injection
    /// can be armed *after* the header/index parse (see
    /// [`crate::FaultySource::set_plan`]) — injecting into setup I/O
    /// would mostly test that opening fails, not that reads recover.
    pub fn source_mut(&mut self) -> &mut R {
        &mut self.src
    }

    /// The container header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The chunk index.
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

    /// Payload bytes actually read so far (excludes header/index parsing).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn entry(&self, chunk: usize) -> Result<IndexEntry> {
        self.index.get(chunk).copied().ok_or_else(|| {
            StoreError::InvalidArg(format!(
                "chunk {chunk} out of range (container has {})",
                self.index.len()
            ))
        })
    }

    /// Read `buf.len()` bytes at `offset`.
    fn read_payload(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        // Seek + read as one retried unit: a transient failure mid-read
        // leaves the cursor anywhere, so every attempt re-seeks.
        let (src, retry) = (&mut self.src, self.retry);
        with_retry(retry, || {
            src.seek(SeekFrom::Start(offset))?;
            src.read_exact(buf)?;
            Ok(())
        })?;
        self.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Read chunk `chunk` in full (CRC-checked) and decode its coefficient
    /// tensor at the stored chop factor.
    pub fn read_chunk(&mut self, chunk: usize) -> Result<Tensor> {
        self.read_chunk_at(chunk, self.header.cf())
    }

    /// Read the stored bytes of chunk `chunk` that a decode at chop factor
    /// `read_cf` needs: its prelude plus rings `0..read_cf`.
    ///
    /// At the stored chop factor this reads the whole payload in one read
    /// and checks it against the chunk CRC. Below it, the prelude is read
    /// and parsed first, then only the sections of rings `0..read_cf` —
    /// strictly fewer bytes. The chunk CRC covers the whole payload, so a
    /// prefix read relies on the per-section Huffman bit-count checks of
    /// the decode instead, which miss many bit flips.
    pub fn read_chunk_bytes_at(&mut self, chunk: usize, read_cf: usize) -> Result<Vec<u8>> {
        Ok(self.read_stored(chunk, read_cf)?.0)
    }

    /// [`Self::read_chunk_bytes_at`], plus the prelude a prefix read parsed
    /// on the way, so the decode does not parse it again.
    fn read_stored(
        &mut self,
        chunk: usize,
        read_cf: usize,
    ) -> Result<(Vec<u8>, Option<ChunkPrelude>)> {
        let e = self.entry(chunk)?;
        let stored_cf = self.header.cf();
        if read_cf == 0 || read_cf > stored_cf {
            return Err(StoreError::InvalidArg(format!(
                "read chop factor {read_cf} outside 1..={stored_cf}"
            )));
        }
        if read_cf == stored_cf {
            let mut bytes = vec![0u8; e.len as usize];
            self.read_payload(e.offset, &mut bytes)?;
            if crc32(&bytes) != e.crc {
                return Err(StoreError::Format(format!("chunk {chunk} fails its CRC check")));
            }
            return Ok((bytes, None));
        }
        let plen = prelude_len(stored_cf);
        let (mut bytes, prelude) = self.read_prelude_bytes(chunk)?;
        let prefix = prelude.prefix_len(read_cf);
        if plen + prefix > e.len as usize {
            return Err(StoreError::Format(format!("chunk {chunk} sections truncated")));
        }
        bytes.resize(plen + prefix, 0);
        self.read_payload(e.offset + plen as u64, &mut bytes[plen..])?;
        Ok((bytes, Some(prelude)))
    }

    /// Read chunk `chunk` at chop factor `read_cf` and decode the
    /// `[S, C, cf'·nb, cf'·nb]` coefficients (the bytes as
    /// [`Self::read_chunk_bytes_at`] reads them).
    pub fn read_chunk_at(&mut self, chunk: usize, read_cf: usize) -> Result<Tensor> {
        let samples = self.entry(chunk)?.samples as usize;
        let (bytes, prelude) = self.read_stored(chunk, read_cf)?;
        self.decoder.coefficients_with(prelude, &bytes, samples, read_cf)
    }

    /// Read and parse chunk `chunk`'s prelude: its section lengths and
    /// entropy codes. The chunk CRC covers the whole payload, so this read
    /// is not checked against it.
    pub fn read_prelude(&mut self, chunk: usize) -> Result<ChunkPrelude> {
        Ok(self.read_prelude_bytes(chunk)?.1)
    }

    /// [`Self::read_prelude`], with the bytes it parsed.
    fn read_prelude_bytes(&mut self, chunk: usize) -> Result<(Vec<u8>, ChunkPrelude)> {
        let e = self.entry(chunk)?;
        let plen = prelude_len(self.header.cf());
        if (e.len as usize) < plen {
            return Err(StoreError::Format(format!("chunk {chunk} shorter than its prelude")));
        }
        let mut bytes = vec![0u8; plen];
        self.read_payload(e.offset, &mut bytes)?;
        let prelude = decode_prelude(&bytes, &self.header)?;
        Ok((bytes, prelude))
    }

    /// Read chunk `chunk` and reconstruct samples: `[S, C, n, n]` —
    /// bit-identical to the host codec's `decompress`.
    pub fn decompress_chunk(&mut self, chunk: usize) -> Result<Tensor> {
        self.decompress_chunk_at(chunk, self.header.cf())
    }

    /// Reconstruct chunk `chunk` at chop factor `read_cf` (a CRC-checked
    /// full read at the stored one, a prefix read below it; see
    /// [`Self::read_chunk_bytes_at`]).
    pub fn decompress_chunk_at(&mut self, chunk: usize, read_cf: usize) -> Result<Tensor> {
        let samples = self.entry(chunk)?.samples as usize;
        let (bytes, prelude) = self.read_stored(chunk, read_cf)?;
        self.decoder.decompress_with(prelude, &bytes, samples, read_cf)
    }

    /// Best-effort decode of a damaged chunk: try `read_cf` first, then
    /// walk coarser ring prefixes (`read_cf−1 … 1`) until one decodes —
    /// the progressive layout means a chunk whose *tail* is corrupt still
    /// holds a bit-exact coarser encoding in its intact prefix (each
    /// section's Huffman bit count is checked, standing in for the
    /// full-payload CRC).
    ///
    /// Returns the reconstruction and the chop factor actually used, or the
    /// original error when no prefix decodes (prelude/ring-0 damage).
    /// Transient I/O errors are *not* walked down — they are retried by
    /// [`RetryPolicy`] and propagate if they persist, since a coarser read
    /// of a timing-out source would time out too — and neither is an
    /// invalid argument (a chunk or `read_cf` out of range).
    pub fn decompress_chunk_salvage(
        &mut self,
        chunk: usize,
        read_cf: usize,
    ) -> Result<(Tensor, usize)> {
        match self.decompress_chunk_at(chunk, read_cf) {
            Ok(t) => Ok((t, read_cf)),
            Err(e) if e.is_transient() || matches!(e, StoreError::InvalidArg(_)) => Err(e),
            Err(e) => {
                for cf in (1..read_cf).rev() {
                    if let Ok(t) = self.decompress_chunk_at(chunk, cf) {
                        return Ok((t, cf));
                    }
                }
                Err(e)
            }
        }
    }

    /// CRC-check and fully decode every chunk.
    pub fn verify(&mut self) -> Result<VerifyReport> {
        let mut payload_bytes = 0u64;
        for i in 0..self.index.len() {
            self.read_chunk(i)?;
            payload_bytes += self.index[i].len as u64;
        }
        Ok(VerifyReport { chunks: self.index.len() as u32, payload_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{DczWriter, StoreOptions};
    use aicomp_core::ChopCompressor;
    use std::io::Cursor;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k * 7 + i * 31) % 41) as f32 / 6.0 - 3.0).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    fn pack(samples: &[Tensor], opts: &StoreOptions) -> Vec<u8> {
        let (cur, _) =
            DczWriter::pack(Cursor::new(Vec::new()), opts, samples.iter().cloned()).unwrap();
        cur.into_inner()
    }

    #[test]
    fn random_access_matches_host_decompress() {
        let opts = StoreOptions::dct(16, 4, 2, 3);
        let samples: Vec<Tensor> = (0..8).map(|i| sample(i, 2, 16)).collect();
        let file = pack(&samples, &opts);
        let mut r = DczReader::new(Cursor::new(file)).unwrap();
        assert_eq!(r.chunk_count(), 3);
        assert_eq!(r.sample_count(), 8);

        let comp = ChopCompressor::new(16, 4).unwrap();
        // Read chunks out of order to exercise seeking.
        for chunk in [2usize, 0, 1] {
            let got = r.decompress_chunk(chunk).unwrap();
            let lo = chunk * 3;
            let hi = (lo + 3).min(8);
            let refs: Vec<&Tensor> = samples[lo..hi].iter().collect();
            let batch = Tensor::concat0(&refs).unwrap().reshape([hi - lo, 2usize, 16, 16]).unwrap();
            let want = comp.roundtrip(&batch).unwrap();
            let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "chunk {chunk}");
        }
    }

    #[test]
    fn progressive_read_is_cheaper_and_exact() {
        let opts = StoreOptions::dct(16, 7, 1, 4);
        let samples: Vec<Tensor> = (0..4).map(|i| sample(i, 1, 16)).collect();
        let file = pack(&samples, &opts);
        let mut r = DczReader::new(Cursor::new(file)).unwrap();
        let full_len = r.index()[0].len as u64;

        let got = r.read_chunk_at(0, 2).unwrap();
        assert!(
            r.bytes_read() < full_len,
            "prefix read {} should be under the full chunk {}",
            r.bytes_read(),
            full_len
        );
        let refs: Vec<&Tensor> = samples.iter().collect();
        let batch = Tensor::concat0(&refs).unwrap().reshape([4usize, 1, 16, 16]).unwrap();
        let want = ChopCompressor::new(16, 2).unwrap().compress(&batch).unwrap();
        let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn stored_bytes_are_the_prelude_and_ring_prefix() {
        let opts = StoreOptions::dct(16, 4, 2, 3);
        let samples: Vec<Tensor> = (0..7).map(|i| sample(i, 2, 16)).collect();
        let file = pack(&samples, &opts);
        let mut r = DczReader::new(Cursor::new(file.clone())).unwrap();
        let mut decoder = ChunkDecoder::new(*r.header());
        for chunk in 0..r.chunk_count() {
            let e = r.entry(chunk).unwrap();
            let prelude = r.read_prelude(chunk).unwrap();
            for cf in 1..=4 {
                let bytes = r.read_chunk_bytes_at(chunk, cf).unwrap();
                let at = e.offset as usize;
                assert_eq!(bytes, file[at..at + prelude_len(4) + prelude.prefix_len(cf)]);
                let got = decoder.decompress(&bytes, e.samples as usize, cf).unwrap();
                let want = r.decompress_chunk_at(chunk, cf).unwrap();
                let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "chunk {chunk} cf {cf}");
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let opts = StoreOptions::dct(16, 4, 1, 4);
        let samples: Vec<Tensor> = (0..4).map(|i| sample(i, 1, 16)).collect();
        let file = pack(&samples, &opts);

        // Flip a payload byte → CRC failure on full read.
        let mut bad = file.clone();
        let payload_at = {
            let r = DczReader::new(Cursor::new(file.clone())).unwrap();
            let e = r.entry(0).unwrap();
            (e.offset + e.len as u64 - 1) as usize
        };
        bad[payload_at] ^= 0x40;
        let mut r = DczReader::new(Cursor::new(bad)).unwrap();
        assert!(matches!(r.read_chunk(0), Err(StoreError::Format(_))));
        assert!(r.verify().is_err());

        // Truncated file → index/footer errors at open.
        for cut in [0usize, 4, file.len() - 1, file.len() - 10] {
            assert!(DczReader::new(Cursor::new(file[..cut].to_vec())).is_err(), "cut={cut}");
        }

        // Corrupted index CRC.
        let mut bad_index = file.clone();
        let at = file.len() - FOOTER_LEN as usize + 2;
        bad_index[at] ^= 0x01;
        assert!(DczReader::new(Cursor::new(bad_index)).is_err());
    }

    #[test]
    fn stored_cf_reads_reject_every_section_bit_flip() {
        // Below the stored cf only the Huffman bit counts guard a read;
        // at it, the chunk CRC must catch every flip past the prelude.
        let opts = StoreOptions::dct(16, 4, 1, 1);
        let file = pack(&[sample(0, 1, 16)], &opts);
        let e = DczReader::new(Cursor::new(file.clone())).unwrap().entry(0).unwrap();
        let sections = e.offset as usize + prelude_len(4)..(e.offset + e.len as u64) as usize;
        for bit in sections.start * 8..sections.end * 8 {
            let mut bad = file.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut r = DczReader::new(Cursor::new(bad)).unwrap();
            assert!(r.read_chunk_at(0, 4).is_err(), "flip of bit {bit} went undetected");
        }
    }

    #[test]
    fn verify_covers_all_chunks() {
        let opts = StoreOptions::dct(16, 3, 2, 2);
        let samples: Vec<Tensor> = (0..7).map(|i| sample(i, 2, 16)).collect();
        let file = pack(&samples, &opts);
        let mut r = DczReader::new(Cursor::new(file)).unwrap();
        let report = r.verify().unwrap();
        assert_eq!(report.chunks, 4);
        assert_eq!(report.payload_bytes, r.index().iter().map(|e| e.len as u64).sum::<u64>());
    }

    #[test]
    fn transient_faults_retried_transparently() {
        use crate::fault::{FaultPlan, FaultySource};
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let samples: Vec<Tensor> = (0..6).map(|i| sample(i, 1, 16)).collect();
        let file = pack(&samples, &opts);

        // ~25% of steady-state I/O ops time out (armed after open, so the
        // header/index parse is clean); a generous retry budget rides
        // through every chunk (each payload read is one seek + read unit,
        // and each attempt draws fresh per-op decisions).
        let mut r = DczReader::new(FaultySource::new(Cursor::new(file.clone()), FaultPlan::none()))
            .unwrap();
        r.source_mut().set_plan(FaultPlan::transient(11, 0.25));
        r.set_retry_policy(RetryPolicy { max_attempts: 10, backoff: std::time::Duration::ZERO });
        let mut clean = DczReader::new(Cursor::new(file)).unwrap();
        for chunk in 0..r.chunk_count() {
            let got = r.decompress_chunk(chunk).unwrap();
            let want = clean.decompress_chunk(chunk).unwrap();
            let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "chunk {chunk}");
        }

        // With retries disabled the same plan must surface timeouts.
        let mut r = DczReader::new(FaultySource::new(
            Cursor::new(pack(&samples, &opts)),
            FaultPlan::none(),
        ))
        .unwrap();
        r.source_mut().set_plan(FaultPlan::transient(11, 1.0));
        r.set_retry_policy(RetryPolicy::none());
        assert!(r.read_chunk(0).unwrap_err().is_transient());
    }

    #[test]
    fn tail_corruption_salvages_to_coarser_prefix() {
        let opts = StoreOptions::dct(16, 4, 1, 4);
        let samples: Vec<Tensor> = (0..4).map(|i| sample(i, 1, 16)).collect();
        let file = pack(&samples, &opts);
        let e = DczReader::new(Cursor::new(file.clone())).unwrap().entry(0).unwrap();

        // Flip the chunk's final byte: ring cf−1's section is damaged, the
        // prefix (prelude + rings 0..cf−1) is intact.
        let mut bad = file.clone();
        bad[(e.offset + e.len as u64 - 1) as usize] ^= 0x10;
        let mut r = DczReader::new(Cursor::new(bad)).unwrap();
        assert!(r.decompress_chunk(0).is_err());
        let (got, used_cf) = r.decompress_chunk_salvage(0, 4).unwrap();
        assert_eq!(used_cf, 3);
        let mut clean = DczReader::new(Cursor::new(file.clone())).unwrap();
        let want = clean.decompress_chunk_at(0, 3).unwrap();
        let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);

        // Prelude damage leaves nothing to salvage.
        let mut dead = file;
        dead[e.offset as usize] ^= 0xFF; // ring_count field
        let mut r = DczReader::new(Cursor::new(dead)).unwrap();
        assert!(r.decompress_chunk_salvage(0, 4).is_err());
    }

    #[test]
    fn a_failed_read_leaves_the_reader_usable() {
        // Every read seeks to its chunk first, so no failure — a refused
        // argument or a chunk failing its CRC after a whole read — can
        // leave the reader's cursor or buffer wrong for the next read.
        let opts = StoreOptions::dct(16, 4, 2, 3);
        let samples: Vec<Tensor> = (0..10).map(|i| sample(i, 2, 16)).collect();
        let mut file = pack(&samples, &opts);
        let e = DczReader::new(Cursor::new(file.clone())).unwrap().entry(1).unwrap();
        file[(e.offset + e.len as u64 - 1) as usize] ^= 0x20;
        let path =
            std::env::temp_dir().join(format!("aicomp_reader_fail_{}.dcz", std::process::id()));
        std::fs::write(&path, &file).unwrap();
        let mut used = DczReader::open(&path).unwrap();
        let fail = |r: &mut DczReader<_>| {
            assert!(matches!(r.read_chunk_bytes_at(99, 4), Err(StoreError::InvalidArg(_))));
            assert!(matches!(r.read_chunk_bytes_at(0, 0), Err(StoreError::InvalidArg(_))));
            assert!(matches!(r.read_chunk_bytes_at(0, 99), Err(StoreError::InvalidArg(_))));
            assert!(matches!(r.read_chunk_bytes_at(1, 4), Err(StoreError::Format(_))));
        };
        for chunk in [0, 2, 3] {
            for cf in 1..=4 {
                fail(&mut used);
                let mut fresh = DczReader::open(&path).unwrap();
                let bytes = used.read_chunk_bytes_at(chunk, cf).unwrap();
                assert_eq!(bytes, fresh.read_chunk_bytes_at(chunk, cf).unwrap(), "{chunk} {cf}");
                fail(&mut used);
                let got = used.decompress_chunk_at(chunk, cf).unwrap();
                let want = fresh.decompress_chunk_at(chunk, cf).unwrap();
                let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "chunk {chunk} cf {cf}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_chunk_rejected() {
        let opts = StoreOptions::dct(16, 4, 1, 4);
        let samples: Vec<Tensor> = (0..4).map(|i| sample(i, 1, 16)).collect();
        let file = pack(&samples, &opts);
        let mut r = DczReader::new(Cursor::new(file)).unwrap();
        assert!(r.read_chunk(1).is_err());
        assert!(r.read_chunk_at(0, 9).is_err());
        assert!(r.read_chunk_at(0, 0).is_err());
    }
}
