//! Container recovery: per-chunk health checks, index rebuild by chunk
//! scanning, and salvaged-container writing.
//!
//! A damaged `.dcz` is rarely a total loss. Three structural facts make
//! recovery tractable (see FORMAT.md's salvage appendix):
//!
//! 1. **Chunks are self-describing.** A chunk's prelude (`ring_count` +
//!    section lengths + Huffman tables) determines its exact byte length,
//!    so a scanner that can parse preludes can walk the chunk region
//!    without the index — which is how a container whose index/footer was
//!    torn off by truncation gets its index rebuilt.
//! 2. **Chunks are independently checksummed and decodable.** One corrupt
//!    chunk says nothing about its neighbours; salvage keeps every chunk
//!    that still CRC-validates (or, index lost, still decodes).
//! 3. **Sections are progressive.** A chunk with a damaged *tail* still
//!    serves a bit-exact coarser-fidelity read from its intact prefix
//!    ([`crate::DczReader::decompress_chunk_salvage`]) — reported here as
//!    `Degraded`.
//!
//! [`deep_verify`] reports per-chunk health; [`salvage`] rebuilds the best
//! container the surviving chunks support; [`repair`] writes it atomically.
//! The `dcz verify --deep` and `dcz repair` subcommands are thin wrappers.

use std::io::Cursor;
use std::path::Path;

use crate::chunk::{decode_prelude, prelude_len, ChunkDecoder};
use crate::crc::crc32;
use crate::layout::{write_index, Header, IndexEntry};
use crate::reader::DczReader;
use crate::writer::atomic_write;
use crate::{Result, StoreError};

/// Health of one chunk, from a [`deep_verify`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkStatus {
    /// CRC valid, full decode succeeds.
    Healthy,
    /// Full read fails, but the ring prefix up to `max_cf` decodes — a
    /// coarser-fidelity read of this chunk is still bit-exact.
    Degraded {
        /// Highest chop factor that decodes from the intact prefix.
        max_cf: usize,
        /// Why the full read failed.
        error: String,
    },
    /// No fidelity decodes (prelude or ring-0 damage).
    Dead {
        /// Why every read failed.
        error: String,
    },
}

/// Per-chunk entry of a [`DeepReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkHealth {
    /// Chunk index in the container.
    pub chunk: usize,
    /// The chunk's first sample index.
    pub first_sample: u64,
    /// Samples the chunk holds.
    pub samples: u32,
    /// What a reader can still get out of it.
    pub status: ChunkStatus,
}

/// Outcome of a [`deep_verify`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepReport {
    /// One entry per chunk, in file order.
    pub chunks: Vec<ChunkHealth>,
}

impl DeepReport {
    /// Chunks that fully verify.
    pub fn healthy(&self) -> usize {
        self.chunks.iter().filter(|c| c.status == ChunkStatus::Healthy).count()
    }

    /// Chunks readable only at reduced fidelity.
    pub fn degraded(&self) -> usize {
        self.chunks.iter().filter(|c| matches!(c.status, ChunkStatus::Degraded { .. })).count()
    }

    /// Chunks lost entirely.
    pub fn dead(&self) -> usize {
        self.chunks.iter().filter(|c| matches!(c.status, ChunkStatus::Dead { .. })).count()
    }

    /// True when every chunk is healthy.
    pub fn is_clean(&self) -> bool {
        self.healthy() == self.chunks.len()
    }
}

/// Per-chunk health scan: CRC + full decode, falling back to progressive
/// prefix probes for damaged chunks. Unlike [`DczReader::verify`], this
/// never stops at the first bad chunk — it reports all of them.
///
/// Transient I/O errors (after the reader's retries) abort the scan with
/// `Err`; corruption never does.
pub fn deep_verify<R: std::io::Read + std::io::Seek>(
    reader: &mut DczReader<R>,
) -> Result<DeepReport> {
    let stored_cf = reader.header().cf();
    let mut chunks = Vec::with_capacity(reader.chunk_count());
    for chunk in 0..reader.chunk_count() {
        let e = reader.index()[chunk];
        let status = match reader.read_chunk(chunk) {
            Ok(_) => ChunkStatus::Healthy,
            Err(err) if err.is_transient() => return Err(err),
            Err(err) => {
                let max_cf =
                    (1..stored_cf).rev().find(|&cf| reader.read_chunk_at(chunk, cf).is_ok());
                match max_cf {
                    Some(max_cf) => ChunkStatus::Degraded { max_cf, error: err.to_string() },
                    None => ChunkStatus::Dead { error: err.to_string() },
                }
            }
        };
        chunks.push(ChunkHealth {
            chunk,
            first_sample: e.first_sample,
            samples: e.samples,
            status,
        });
    }
    Ok(DeepReport { chunks })
}

/// What a [`salvage`]/[`repair`] pass achieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Chunks examined (index entries, or scanned candidates).
    pub scanned: usize,
    /// Chunks carried into the salvaged container.
    pub kept: usize,
    /// Chunks dropped (CRC/decode failures, or truncated tails).
    pub dropped: usize,
    /// Samples in the salvaged container.
    pub samples: u64,
    /// True when the index/footer was unreadable and the chunk region was
    /// re-scanned from preludes.
    pub index_rebuilt: bool,
}

/// Rebuild the best container the surviving chunks of `bytes` support.
///
/// Two modes, picked automatically:
///
/// * **Index intact** (the container opens): keep every chunk whose CRC
///   validates and whose payload decodes; drop the rest.
/// * **Index lost** (truncated/torn footer): rebuild the index by scanning
///   chunk preludes from the end of the header — each prelude gives the
///   chunk's exact length — keeping chunks that decode and skipping over
///   ones that don't.
///
/// Surviving chunks are renumbered with contiguous sample indices (a
/// dropped middle chunk shifts everything after it — sample *identity* is
/// not preserved across a repair, sample *integrity* is). Tail-damaged
/// (`Degraded`) chunks are dropped, not kept: a container's chunks all
/// share one chop factor, so a coarser prefix cannot be spliced in — use
/// [`crate::ReadPolicy::DegradeToPrefix`] at load time to exploit those.
///
/// Returns the rebuilt container bytes and a [`SalvageReport`]. Errors
/// only when the header itself is unreadable — with no geometry there is
/// nothing to scan for.
pub fn salvage(bytes: &[u8]) -> Result<(Vec<u8>, SalvageReport)> {
    let header = Header::read(&mut Cursor::new(bytes))
        .map_err(|e| StoreError::Format(format!("header unreadable, nothing to salvage: {e}")))?;

    // (chunk bytes, samples) for every survivor, in file order.
    let mut kept: Vec<(&[u8], u32)> = Vec::new();
    let mut scanned = 0usize;
    let index_rebuilt = match DczReader::new(Cursor::new(bytes)) {
        Ok(mut reader) => {
            for chunk in 0..reader.chunk_count() {
                scanned += 1;
                let e = reader.index()[chunk];
                if reader.read_chunk(chunk).is_ok() {
                    let (lo, hi) = (e.offset as usize, (e.offset + e.len as u64) as usize);
                    kept.push((&bytes[lo..hi], e.samples));
                }
            }
            false
        }
        Err(_) => {
            scan_chunks(bytes, &header, &mut kept, &mut scanned);
            true
        }
    };

    let samples: u64 = kept.iter().map(|(_, s)| *s as u64).sum();
    let mut header = header;
    header.sample_count = samples;
    header.chunk_count = kept.len() as u32;

    let mut out = Vec::with_capacity(bytes.len());
    header.write(&mut out)?;
    let mut index = Vec::with_capacity(kept.len());
    let mut offset = header.serialized_len();
    let mut first_sample = 0u64;
    for (chunk_bytes, chunk_samples) in &kept {
        index.push(IndexEntry {
            offset,
            len: chunk_bytes.len() as u32,
            first_sample,
            samples: *chunk_samples,
            crc: crc32(chunk_bytes),
        });
        out.extend_from_slice(chunk_bytes);
        offset += chunk_bytes.len() as u64;
        first_sample += *chunk_samples as u64;
    }
    write_index(&mut out, &index, offset)?;

    let report = SalvageReport {
        scanned,
        kept: kept.len(),
        dropped: scanned - kept.len(),
        samples,
        index_rebuilt,
    };
    Ok((out, report))
}

/// Walk the chunk region without an index: each readable prelude gives the
/// chunk's length; chunks that decode are kept, ones that don't are
/// skipped over. The walk stops at the first position that doesn't parse
/// as a prelude — the old index region, a truncation point, or damage too
/// early in a chunk to resynchronise past.
fn scan_chunks<'a>(
    bytes: &'a [u8],
    header: &Header,
    kept: &mut Vec<(&'a [u8], u32)>,
    scanned: &mut usize,
) {
    let cf = header.cf();
    let plen = prelude_len(cf);
    let mut offset = header.serialized_len() as usize;
    while offset + plen <= bytes.len() {
        let Ok(prelude) = decode_prelude(&bytes[offset..offset + plen], header) else {
            return;
        };
        let chunk_len = plen + prelude.prefix_len(cf);
        if offset + chunk_len > bytes.len() {
            // Truncated final chunk: its tail is gone for good.
            *scanned += 1;
            return;
        }
        let chunk_bytes = &bytes[offset..offset + chunk_len];
        *scanned += 1;
        if let Some(samples) = probe_samples(chunk_bytes, header) {
            kept.push((chunk_bytes, samples));
        }
        offset += chunk_len;
    }
}

/// Find the sample count a chunk decodes at, with no index to say. The
/// nominal `chunk_size` is tried first (every chunk but the last), then
/// smaller counts for the ragged tail. Counts are unambiguous: the ring
/// sections' Huffman streams check exact bit consumption, so only the true
/// count decodes cleanly.
fn probe_samples(chunk_bytes: &[u8], header: &Header) -> Option<u32> {
    let nominal = header.chunk_size as usize;
    let decoder = ChunkDecoder::new(*header);
    std::iter::once(nominal)
        .chain((1..nominal).rev())
        .find(|&s| decoder.coefficients(chunk_bytes, s, header.cf()).is_ok())
        .map(|s| s as u32)
}

/// Read `input`, [`salvage`] it, and write the result to `output`
/// atomically (tmp + fsync + rename — a crashed repair never leaves a
/// half-written `output`). `input` is untouched.
pub fn repair(input: impl AsRef<Path>, output: impl AsRef<Path>) -> Result<SalvageReport> {
    let bytes = std::fs::read(input)?;
    let (out, report) = salvage(&bytes)?;
    atomic_write(output.as_ref(), &out)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{DczWriter, StoreOptions};
    use aicomp_tensor::Tensor;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k * 13 + i * 7) % 43) as f32 / 6.0 - 3.0).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    fn pack(count: usize, opts: &StoreOptions) -> Vec<u8> {
        let samples = (0..count).map(|i| sample(i, opts.channels, 16));
        let (cur, _) = DczWriter::pack(Cursor::new(Vec::new()), opts, samples).unwrap();
        cur.into_inner()
    }

    fn entries(bytes: &[u8]) -> Vec<IndexEntry> {
        DczReader::new(Cursor::new(bytes.to_vec())).unwrap().index().to_vec()
    }

    #[test]
    fn deep_verify_reports_all_damage_classes() {
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let mut bytes = pack(8, &opts);
        let index = entries(&bytes);
        // Chunk 1: tail damage → degraded. Chunk 2: prelude damage → dead.
        let e1 = index[1];
        bytes[(e1.offset + e1.len as u64 - 1) as usize] ^= 0x20;
        let e2 = index[2];
        bytes[e2.offset as usize] ^= 0xFF;

        let mut r = DczReader::new(Cursor::new(bytes)).unwrap();
        let report = deep_verify(&mut r).unwrap();
        assert_eq!(report.chunks.len(), 4);
        assert_eq!((report.healthy(), report.degraded(), report.dead()), (2, 1, 1));
        assert!(!report.is_clean());
        assert!(matches!(report.chunks[1].status, ChunkStatus::Degraded { max_cf: 3, .. }));
        assert!(matches!(report.chunks[2].status, ChunkStatus::Dead { .. }));
    }

    #[test]
    fn salvage_with_intact_index_drops_only_bad_chunks() {
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let clean = pack(7, &opts); // chunks of 2,2,2,1
        let index = entries(&clean);
        let mut bad = clean.clone();
        let e = index[1];
        bad[(e.offset + 4) as usize] ^= 0x01;

        let (rebuilt, report) = salvage(&bad).unwrap();
        assert!(!report.index_rebuilt);
        assert_eq!((report.scanned, report.kept, report.dropped), (4, 3, 1));
        assert_eq!(report.samples, 5);

        // The rebuilt container verifies, and survivors are bit-identical
        // to the original chunks (0, 2, 3 → renumbered 0, 1, 2).
        let mut r = DczReader::new(Cursor::new(rebuilt)).unwrap();
        r.verify().unwrap();
        assert_eq!(r.sample_count(), 5);
        let mut orig = DczReader::new(Cursor::new(clean)).unwrap();
        for (new_i, old_i) in [(0usize, 0usize), (1, 2), (2, 3)] {
            let a = r.read_chunk(new_i).unwrap();
            let b = orig.read_chunk(old_i).unwrap();
            assert_eq!(a.data(), b.data(), "chunk {old_i}");
        }
    }

    #[test]
    fn salvage_rebuilds_index_after_truncation() {
        let opts = StoreOptions::dct(16, 4, 1, 3);
        let clean = pack(8, &opts); // chunks of 3,3,2
        let index = entries(&clean);
        // Cut mid-way through the last chunk's payload (past its prelude,
        // so the scan can still see a chunk started there): footer, index,
        // and the tail chunk are gone.
        let cut = index[2].offset as usize + prelude_len(4) + 2;
        assert!(cut < (index[2].offset + index[2].len as u64) as usize);
        let truncated = &clean[..cut];
        assert!(DczReader::new(Cursor::new(truncated.to_vec())).is_err());

        let (rebuilt, report) = salvage(truncated).unwrap();
        assert!(report.index_rebuilt);
        assert_eq!((report.kept, report.dropped), (2, 1));
        assert_eq!(report.samples, 6);
        let mut r = DczReader::new(Cursor::new(rebuilt)).unwrap();
        r.verify().unwrap();
        let mut orig = DczReader::new(Cursor::new(clean)).unwrap();
        for chunk in 0..2 {
            assert_eq!(r.read_chunk(chunk).unwrap().data(), orig.read_chunk(chunk).unwrap().data());
        }
    }

    #[test]
    fn salvage_scan_skips_dead_middle_chunk_and_renumbers() {
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let clean = pack(6, &opts); // 3 chunks of 2
        let index = entries(&clean);
        // Lose the footer (index unreadable) AND kill chunk 1's payload —
        // but leave its prelude intact so the scan can step over it.
        let mut bad = clean[..clean.len() - 4].to_vec();
        let e = index[1];
        let plen = prelude_len(4) as u64;
        bad[(e.offset + plen + 2) as usize] ^= 0x3C;

        let (rebuilt, report) = salvage(&bad).unwrap();
        assert!(report.index_rebuilt);
        assert_eq!((report.kept, report.dropped), (2, 1));
        let mut r = DczReader::new(Cursor::new(rebuilt)).unwrap();
        // Renumbered: old chunk 2 is now chunk 1, first_sample 2.
        assert_eq!(r.index()[1].first_sample, 2);
        let mut orig = DczReader::new(Cursor::new(clean)).unwrap();
        assert_eq!(r.read_chunk(1).unwrap().data(), orig.read_chunk(2).unwrap().data());
    }

    #[test]
    fn unreadable_header_is_the_only_fatal_case() {
        assert!(salvage(&[0u8; 3]).is_err());
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let mut bytes = pack(4, &opts);
        bytes[0] = b'X';
        assert!(salvage(&bytes).is_err());
        // An empty-but-valid container salvages to itself.
        let empty = {
            let (cur, _) =
                DczWriter::pack(Cursor::new(Vec::new()), &opts, std::iter::empty()).unwrap();
            cur.into_inner()
        };
        let (rebuilt, report) = salvage(&empty).unwrap();
        assert_eq!(report.kept, 0);
        assert!(DczReader::new(Cursor::new(rebuilt)).is_ok());
    }

    #[test]
    fn repair_writes_recoverable_file() {
        let opts = StoreOptions::dct(16, 4, 1, 2);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let src = dir.join(format!("aicomp_repair_src_{pid}.dcz"));
        let dst = dir.join(format!("aicomp_repair_dst_{pid}.dcz"));
        let mut bytes = pack(6, &opts);
        let e = entries(&bytes)[0];
        bytes[(e.offset + 8) as usize] ^= 0x40;
        std::fs::write(&src, &bytes).unwrap();

        let report = repair(&src, &dst).unwrap();
        assert_eq!((report.kept, report.dropped), (2, 1));
        let mut r = DczReader::open(&dst).unwrap();
        r.verify().unwrap();
        assert_eq!(r.sample_count(), 4);
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }
}
