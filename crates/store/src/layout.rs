//! The `.dcz` byte-level layout (see `FORMAT.md` for the narrative spec).
//!
//! ```text
//! ┌────────┬────────┬─────┬────────┬───────┬────────┐
//! │ header │ chunk0 │  …  │ chunkN │ index │ footer │
//! └────────┴────────┴─────┴────────┴───────┴────────┘
//! ```
//!
//! All integers little-endian. The header is written first with
//! placeholder counts and patched by the writer at finish (its length is
//! fixed once the transform name is known), so chunks stream straight to
//! the sink. The index lives at the end — located via the fixed-size
//! footer — so the writer never buffers chunk metadata longer than the
//! run, and a reader gets random access with two seeks.

use std::io::{Read, Write};

use aicomp_core::CodecSpec;

use crate::{crc::crc32, Result, StoreError};

/// Leading file magic.
pub const MAGIC: [u8; 4] = *b"DCZF";
/// Trailing footer magic.
pub const END_MAGIC: [u8; 4] = *b"DCZE";
/// Format version this build reads and writes. Version 2 replaced the v1
/// per-field compressor description (`n`/`block`/`cf`/transform name) with
/// the codec registry's canonical spec string.
pub const VERSION: u16 = 2;
/// Footer size: index offset (8) + index CRC (4) + chunk count (4) + magic (4).
pub const FOOTER_LEN: u64 = 20;
/// Serialized index entry size.
pub const INDEX_ENTRY_LEN: usize = 28;

/// Container header: everything needed to rebuild the compressor.
///
/// The compressor itself is recorded as a [`CodecSpec`] — serialized as its
/// canonical registry name (e.g. `dct2d-n32-cf4`), parsed back through the
/// one registry parser — so the container and the host/device paths can
/// never disagree about what codec the coefficients belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The codec the samples were stored with (block-2-D families only:
    /// `dct2d` or `zfp2d`).
    pub codec: CodecSpec,
    /// Channels per sample (samples are `[channels, n, n]`).
    pub channels: u32,
    /// Total samples in the container.
    pub sample_count: u64,
    /// Samples per chunk (the last chunk may hold fewer).
    pub chunk_size: u32,
    /// Number of chunks.
    pub chunk_count: u32,
}

impl Header {
    /// Serialized length (fixed once `codec` is set).
    pub fn serialized_len(&self) -> u64 {
        // magic + version + flags + channels + sample_count + chunk_size +
        // chunk_count + codec-name length + codec name
        (4 + 2 + 2 + 4 + 8 + 4 + 4 + 2 + self.codec.to_string().len()) as u64
    }

    /// Sample resolution `n`, from the codec spec.
    pub fn n(&self) -> usize {
        self.codec.resolution().expect("container codecs are block-2-D")
    }

    /// Chop factor the coefficients were stored at, from the codec spec.
    pub fn cf(&self) -> usize {
        self.codec.chop_factor()
    }

    /// Transform block size, from the codec spec.
    pub fn block(&self) -> usize {
        self.codec.block_size().expect("container codecs are block-2-D")
    }

    /// Compressed side length `CF·n/block`.
    pub fn compressed_side(&self) -> usize {
        self.cf() * self.n() / self.block()
    }

    /// Blocks per sample side.
    pub fn blocks_per_side(&self) -> usize {
        self.n() / self.block()
    }

    /// Write the header at the sink's current position.
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        w.write_all(&MAGIC)?;
        write_u16(w, VERSION)?;
        write_u16(w, 0)?; // flags, reserved
        write_u32(w, self.channels)?;
        write_u64(w, self.sample_count)?;
        write_u32(w, self.chunk_size)?;
        write_u32(w, self.chunk_count)?;
        let name = self.codec.to_string();
        write_u16(w, name.len() as u16)?;
        w.write_all(name.as_bytes())?;
        Ok(())
    }

    /// Read and validate a header from the source's current position.
    pub fn read(r: &mut impl Read) -> Result<Header> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(truncated)?;
        if magic != MAGIC {
            return Err(StoreError::Format(format!("bad magic {magic:02x?}")));
        }
        let version = read_u16(r)?;
        if version != VERSION {
            return Err(StoreError::Unsupported(format!(
                "container version {version}, this build reads {VERSION}"
            )));
        }
        let _flags = read_u16(r)?;
        let channels = read_u32(r)?;
        let sample_count = read_u64(r)?;
        let chunk_size = read_u32(r)?;
        let chunk_count = read_u32(r)?;
        let name_len = read_u16(r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name).map_err(truncated)?;
        let name = String::from_utf8(name)
            .map_err(|_| StoreError::Format("codec name is not UTF-8".into()))?;
        let codec: CodecSpec =
            name.parse().map_err(|e| StoreError::Format(format!("unreadable codec name: {e}")))?;
        let h = Header { codec, channels, sample_count, chunk_size, chunk_count };
        h.validate()?;
        Ok(h)
    }

    /// Check that the header describes a container this crate can read: a
    /// block-2-D codec whose block divides the resolution, a chop factor
    /// in `1..=block`, and nonzero channels and chunk size.
    pub fn validate(&self) -> Result<()> {
        let (Some(n), Some(block)) = (self.codec.resolution(), self.codec.block_size()) else {
            return Err(StoreError::Unsupported(format!(
                "container codec {} is not a block-2-D codec",
                self.codec
            )));
        };
        let cf = self.codec.chop_factor();
        if block == 0 || n == 0 || !n.is_multiple_of(block) {
            return Err(StoreError::Format(format!(
                "resolution {n} not divisible by block {block}"
            )));
        }
        if cf == 0 || cf > block {
            return Err(StoreError::Format(format!("chop factor {cf} outside 1..={block}")));
        }
        if self.channels == 0 || self.chunk_size == 0 {
            return Err(StoreError::Format("zero channels or chunk size".into()));
        }
        Ok(())
    }
}

/// Per-chunk index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the chunk from the start of the file.
    pub offset: u64,
    /// Chunk length in bytes (prelude + sections).
    pub len: u32,
    /// Index of the chunk's first sample.
    pub first_sample: u64,
    /// Samples in this chunk.
    pub samples: u32,
    /// CRC-32 of the chunk bytes.
    pub crc: u32,
}

impl IndexEntry {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.first_sample.to_le_bytes());
        out.extend_from_slice(&self.samples.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
    }

    fn read(b: &[u8; INDEX_ENTRY_LEN]) -> IndexEntry {
        IndexEntry {
            offset: u64::from_le_bytes(b[0..8].try_into().expect("sized")),
            len: u32::from_le_bytes(b[8..12].try_into().expect("sized")),
            first_sample: u64::from_le_bytes(b[12..20].try_into().expect("sized")),
            samples: u32::from_le_bytes(b[20..24].try_into().expect("sized")),
            crc: u32::from_le_bytes(b[24..28].try_into().expect("sized")),
        }
    }
}

/// Serialize the index + footer (appended after the last chunk).
pub fn write_index(w: &mut impl Write, index: &[IndexEntry], index_offset: u64) -> Result<()> {
    let mut bytes = Vec::with_capacity(index.len() * INDEX_ENTRY_LEN);
    for e in index {
        e.write(&mut bytes);
    }
    let crc = crc32(&bytes);
    w.write_all(&bytes)?;
    write_u64(w, index_offset)?;
    write_u32(w, crc)?;
    write_u32(w, index.len() as u32)?;
    w.write_all(&END_MAGIC)?;
    Ok(())
}

/// Parse a footer blob (the file's last [`FOOTER_LEN`] bytes) into
/// `(index_offset, index_crc, chunk_count)`.
pub fn read_footer(bytes: &[u8]) -> Result<(u64, u32, u32)> {
    if bytes.len() != FOOTER_LEN as usize {
        return Err(StoreError::Format("truncated footer".into()));
    }
    if bytes[16..20] != END_MAGIC {
        return Err(StoreError::Format("bad footer magic (truncated or overwritten file?)".into()));
    }
    let offset = u64::from_le_bytes(bytes[0..8].try_into().expect("sized"));
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("sized"));
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("sized"));
    Ok((offset, crc, count))
}

/// Parse and CRC-check the index region.
pub fn read_index(bytes: &[u8], expect_crc: u32, count: u32) -> Result<Vec<IndexEntry>> {
    if bytes.len() != count as usize * INDEX_ENTRY_LEN {
        return Err(StoreError::Format(format!(
            "index region is {} bytes for {count} chunks",
            bytes.len()
        )));
    }
    if crc32(bytes) != expect_crc {
        return Err(StoreError::Format("index CRC mismatch".into()));
    }
    Ok(bytes
        .chunks_exact(INDEX_ENTRY_LEN)
        .map(|c| IndexEntry::read(c.try_into().expect("chunks_exact")))
        .collect())
}

fn truncated(e: std::io::Error) -> StoreError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StoreError::Format("truncated container".into())
    } else {
        StoreError::Io(e)
    }
}

pub(crate) fn read_u16(r: &mut impl Read) -> Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b).map_err(truncated)?;
    Ok(u16::from_le_bytes(b))
}

pub(crate) fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(truncated)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(truncated)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn write_u16(w: &mut impl Write, v: u16) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

pub(crate) fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

pub(crate) fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn header() -> Header {
        Header {
            codec: CodecSpec::Dct2d { n: 32, cf: 4 },
            channels: 3,
            sample_count: 100,
            chunk_size: 16,
            chunk_count: 7,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        let mut buf = Vec::new();
        h.write(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, h.serialized_len());
        let back = Header::read(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, h);
        assert_eq!((back.n(), back.cf(), back.block()), (32, 4, 8));
    }

    #[test]
    fn zfp_header_roundtrip() {
        let h = Header { codec: CodecSpec::Zfp { n: 16, cf: 2 }, ..header() };
        let mut buf = Vec::new();
        h.write(&mut buf).unwrap();
        let back = Header::read(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, h);
        assert_eq!((back.n(), back.cf(), back.block()), (16, 2, 4));
    }

    #[test]
    fn corrupted_headers_rejected() {
        let h = header();
        let mut buf = Vec::new();
        h.write(&mut buf).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(Header::read(&mut Cursor::new(&bad_magic)).is_err());

        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(matches!(
            Header::read(&mut Cursor::new(&bad_version)),
            Err(StoreError::Unsupported(_))
        ));

        let truncated = &buf[..10];
        assert!(Header::read(&mut Cursor::new(truncated)).is_err());

        // The codec name ends the header; `dct2d-n32-cf4` → `...cf9` is a
        // chop factor outside 1..=8 and must be rejected by validation.
        let mut bad_cf = buf.clone();
        let last = bad_cf.len() - 1;
        bad_cf[last] = b'9';
        assert!(Header::read(&mut Cursor::new(&bad_cf)).is_err());

        // A parseable but non-block-2-D codec is rejected too.
        let mut mangled = Vec::new();
        Header { codec: CodecSpec::Chop1d { len: 64, cf: 4 }, ..header() }
            .write(&mut mangled)
            .unwrap();
        assert!(matches!(
            Header::read(&mut Cursor::new(&mangled)),
            Err(StoreError::Unsupported(_))
        ));
    }

    #[test]
    fn index_roundtrip_and_crc() {
        let entries: Vec<IndexEntry> = (0..5u64)
            .map(|i| IndexEntry {
                offset: 100 + i * 1000,
                len: 900 + i as u32,
                first_sample: i * 16,
                samples: 16,
                crc: 0xABCD_0000 | i as u32,
            })
            .collect();
        let mut buf = Vec::new();
        write_index(&mut buf, &entries, 5100).unwrap();
        let footer_at = buf.len() - FOOTER_LEN as usize;
        let (off, crc, count) = read_footer(&buf[footer_at..]).unwrap();
        assert_eq!(off, 5100);
        assert_eq!(count, 5);
        let back = read_index(&buf[..footer_at], crc, count).unwrap();
        assert_eq!(back, entries);

        let mut corrupt = buf.clone();
        corrupt[3] ^= 0x10;
        assert!(read_index(&corrupt[..footer_at], crc, count).is_err());
    }

    #[test]
    fn bad_footer_detected() {
        assert!(read_footer(&[0u8; 19]).is_err());
        assert!(read_footer(&[0u8; 20]).is_err()); // zeroed magic
    }
}
