//! Wire protocol: length-prefixed, checksummed binary frames (narrative in
//! `PROTOCOL.md`).
//!
//! Every frame is `[len: u32 LE][opcode: u8][body][crc: u32 LE]`, where
//! `len` counts opcode + body + CRC and `crc` is the CRC-32 of
//! `opcode ++ body`, so wire corruption surfaces as a typed, retryable
//! [`ErrorCode::BadFrame`] instead of a decoded lie — the transport
//! analogue of the store's per-chunk CRC. Requests use opcodes
//! `0x01..=0x08`, responses `0x81..=0x89` plus the error frame `0x7F`. All
//! integers are little-endian; strings are `u16` length + UTF-8 bytes;
//! a chunk payload is the container's stored bytes for the served
//! fidelity (the chunk prelude plus rings `0..served_cf`), which the
//! client decodes. Every field is mandatory: decoders reject both short
//! bodies and bytes left after the body.
//!
//! A connection starts with a `Hello` exchange carrying
//! [`PROTO_VERSION`]. There is one version and no negotiation: a peer
//! speaking any other version gets a typed error and a close instead of a
//! desynchronized stream. Fidelity is chosen per request: a `Fetch`
//! carries the chop factor to read at (`0` = the container's stored
//! fidelity) and a relative deadline (`deadline_ms`, `0` = none) the
//! server enforces before reading; the reply carries the factor actually
//! served.
//!
//! This module is the one implementation of framing: [`encode_frame`]
//! builds a frame, the incremental [`FrameDecoder`] reassembles frames
//! from transport bytes in any segmentation and checks their CRCs, and a
//! [`ResponseSlab`] is one encoded response body shared zero-copy by
//! every connection that sends it. The blocking helpers at the bottom
//! ([`write_frame`], [`read_frame`], …) are the only code that moves
//! frames through a `Read`/`Write`.

use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

use aicomp_store::crc::Crc32;
use aicomp_store::Header;

use crate::shard::ShardMap;
use crate::stats::StatsReport;
use crate::{Result, ServeError};

/// The protocol version this build speaks (in the `Hello` exchange).
pub const PROTO_VERSION: u16 = 7;
/// Magic leading the `Hello` request body.
pub const PROTO_MAGIC: [u8; 4] = *b"DCZS";
/// Upper bound on a frame (1 MiB control + payload chunks well under it).
pub const MAX_FRAME: u32 = 1 << 26; // 64 MiB

/// Typed error classes a server can answer with.
///
/// `Overloaded` is the load-shedding reply: the admission queue was full
/// and the request was rejected *before* consuming worker time — clients
/// should back off and retry. Everything else is not retryable as-is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or out-of-range request (bad fidelity, bad chunk, …).
    BadRequest,
    /// Unknown container or chunk index.
    NotFound,
    /// Admission queue full — request shed, retry with backoff.
    Overloaded,
    /// The container data failed its integrity checks.
    Corrupt,
    /// Unexpected server-side failure.
    Internal,
    /// The server is draining connections for shutdown.
    ShuttingDown,
    /// The request's deadline expired before the server reached it (shed
    /// from the queue without a read), or the server closed a connection
    /// that idled/stalled past its read deadline. Retryable — with a fresh
    /// deadline.
    DeadlineExceeded,
    /// A frame failed its integrity checks (CRC mismatch, oversize) — the
    /// stream may be desynchronized, so the peer closes after sending
    /// this. Retryable on a fresh connection.
    BadFrame,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::NotFound => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::Corrupt => 4,
            ErrorCode::Internal => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::DeadlineExceeded => 7,
            ErrorCode::BadFrame => 8,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode> {
        Ok(match v {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::Corrupt,
            5 => ErrorCode::Internal,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::DeadlineExceeded,
            8 => ErrorCode::BadFrame,
            other => return Err(ServeError::Protocol(format!("unknown error code {other}"))),
        })
    }

    /// Is a request that failed with this code safe and sensible to retry
    /// (on a fresh connection where noted above)? `Overloaded`,
    /// `ShuttingDown`, `DeadlineExceeded`, and `BadFrame` all describe
    /// transient conditions of *this* attempt, not of the request itself.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::ShuttingDown
                | ErrorCode::DeadlineExceeded
                | ErrorCode::BadFrame
        )
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotFound => "not-found",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::BadFrame => "bad-frame",
        };
        f.write_str(name)
    }
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version handshake; must be the first frame on a connection.
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u16,
        /// Tenant id for multi-tenant QoS accounting (`0` = the default
        /// tenant).
        tenant: u32,
        /// Weight class for deficit-round-robin admission; `0` is treated
        /// as `1`.
        weight: u8,
    },
    /// Describe a container (geometry, codec, fidelity range).
    Info {
        /// Container id (position in the server's `--store` list).
        container: u32,
    },
    /// Fetch one chunk's stored bytes at a chosen fidelity.
    Fetch {
        /// Container id.
        container: u32,
        /// Chunk index within the container.
        chunk: u32,
        /// Chop factor to read at; `0` means the stored fidelity, a lower
        /// value is served from a ring-prefix read.
        read_cf: u8,
        /// Relative deadline in milliseconds; `0` means none.
        deadline_ms: u32,
    },
    /// Fetch the server's counters and histograms.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown: stop accepting, drain in-flight work.
    Shutdown,
    /// Fetch the cluster's current [`ShardMap`] (any member answers with
    /// the same map; a solo server answers with its implicit one-member
    /// map at epoch 0).
    ShardMap,
    /// Install a new, higher-epoch [`ShardMap`] on a running shard —
    /// live reconfiguration. The body is the same encoding the
    /// `Response::ShardMap` reply uses, so a map fetched from one member
    /// can be re-pushed verbatim. Epoch-ordered: stale and same-epoch-
    /// conflicting pushes answer a typed `BadRequest`; re-pushing the
    /// exact current map is idempotent (`MapPushed { installed: false }`),
    /// making client retries safe. Keys the shard is losing finish their
    /// already-admitted work at the old epoch, then answer `WrongShard`
    /// at the new one (drain-and-handoff — see `PROTOCOL.md`).
    MapPush(ShardMap),
}

impl Request {
    /// This build's `Hello` for the default tenant (`0`) at weight `1` —
    /// what every tenancy-unaware client sends.
    pub fn hello() -> Request {
        Request::Hello { version: PROTO_VERSION, tenant: 0, weight: 1 }
    }
}

/// Geometry and codec of one served container (the `Info` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Total samples.
    pub samples: u64,
    /// Chunk count.
    pub chunks: u32,
    /// Samples per chunk (last chunk may hold fewer).
    pub chunk_size: u32,
    /// Channels per sample.
    pub channels: u32,
    /// Sample resolution `n` (samples are `[channels, n, n]`).
    pub n: u32,
    /// Stored chop factor — the maximum `read_cf` a fetch may ask for.
    pub cf: u8,
    /// Canonical codec registry name (e.g. `dct2d-n32-cf4`).
    pub codec: String,
}

impl ContainerInfo {
    /// The container header this description implies: what a client's
    /// chunk decoder reads the container's stored bytes by. A codec name
    /// that does not parse, or disagrees with `n` and `cf`, is a protocol
    /// error; a header the store cannot read is a store error.
    pub fn header(&self) -> Result<Header> {
        let codec = self.codec.parse().map_err(|e| {
            ServeError::Protocol(format!("unreadable codec name {:?}: {e}", self.codec))
        })?;
        let h = Header {
            codec,
            channels: self.channels,
            sample_count: self.samples,
            chunk_size: self.chunk_size,
            chunk_count: self.chunks,
        };
        h.validate()?;
        if (h.n(), h.cf()) != (self.n as usize, usize::from(self.cf)) {
            return Err(ServeError::Protocol(format!(
                "codec {} disagrees with n {} and cf {}",
                self.codec, self.n, self.cf
            )));
        }
        Ok(h)
    }
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement with the server's version.
    Hello {
        /// The server's [`PROTO_VERSION`].
        version: u16,
    },
    /// Container description.
    Info(ContainerInfo),
    /// One chunk's stored bytes, for the client to decode.
    Chunk {
        /// Index of the chunk's first sample in the container.
        first_sample: u64,
        /// Samples the chunk holds.
        samples: u32,
        /// Fidelity the server read (carried explicitly so a
        /// brownout-degraded reply is flagged, never silent — the client
        /// compares it against what it *requested*).
        served_cf: u8,
        /// The chunk prelude plus the sections of rings `0..served_cf`,
        /// as the container stores them.
        stored: Vec<u8>,
    },
    /// Counters and histograms snapshot (boxed: the per-tenant ledger
    /// makes the report by far the largest variant).
    Stats(Box<StatsReport>),
    /// `Ping` acknowledgement.
    Pong,
    /// `Shutdown` acknowledgement: the server is draining.
    ShuttingDown,
    /// The cluster's shard map (the `Request::ShardMap` reply; boxed
    /// indirectly by the contained vectors, small on the wire).
    ShardMap(ShardMap),
    /// This server does not serve the requested `(container, chunk)` key
    /// under the shard map at `epoch` — a typed redirect, not an error
    /// code: the client refreshes its map (if stale) and re-routes to
    /// `owner`. The request was rejected before any disk or worker time.
    WrongShard {
        /// Epoch of the map the server routed by.
        epoch: u64,
        /// Shard index of the key's primary owner under that map.
        owner: u32,
    },
    /// `MapPush` acknowledgement: the epoch the server now routes by.
    MapPushed {
        /// Epoch of the map the server holds after processing the push.
        epoch: u64,
        /// Whether this push changed the routing table (`false` = the
        /// pushed map was already installed; an idempotent re-push).
        installed: bool,
    },
    /// Typed failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// Request opcodes.
const OP_HELLO: u8 = 0x01;
const OP_INFO: u8 = 0x02;
const OP_FETCH: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_PING: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_SHARD_MAP: u8 = 0x07;
const OP_MAP_PUSH: u8 = 0x08;
// Response opcodes.
const OP_R_HELLO: u8 = 0x81;
const OP_R_INFO: u8 = 0x82;
const OP_R_CHUNK: u8 = 0x83;
const OP_R_STATS: u8 = 0x84;
const OP_R_PONG: u8 = 0x85;
const OP_R_SHUTDOWN: u8 = 0x86;
const OP_R_SHARD_MAP: u8 = 0x87;
const OP_R_WRONG_SHARD: u8 = 0x88;
const OP_R_MAP_PUSHED: u8 = 0x89;
const OP_R_ERROR: u8 = 0x7F;

/// Byte-wise body reader with protocol-typed errors.
pub(crate) struct BodyReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> BodyReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServeError::Protocol("frame body truncated".into()))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ServeError::Protocol("string field is not UTF-8".into()))
    }

    pub(crate) fn finish(self) -> Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.at
            )))
        }
    }
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serialize a request to its `(opcode, body)` pair.
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut b = Vec::new();
    let op = match req {
        Request::Hello { version, tenant, weight } => {
            b.extend_from_slice(&PROTO_MAGIC);
            b.extend_from_slice(&version.to_le_bytes());
            b.extend_from_slice(&tenant.to_le_bytes());
            b.push(*weight);
            OP_HELLO
        }
        Request::Info { container } => {
            b.extend_from_slice(&container.to_le_bytes());
            OP_INFO
        }
        Request::Fetch { container, chunk, read_cf, deadline_ms } => {
            b.extend_from_slice(&container.to_le_bytes());
            b.extend_from_slice(&chunk.to_le_bytes());
            b.push(*read_cf);
            b.extend_from_slice(&deadline_ms.to_le_bytes());
            OP_FETCH
        }
        Request::Stats => OP_STATS,
        Request::Ping => OP_PING,
        Request::Shutdown => OP_SHUTDOWN,
        Request::ShardMap => OP_SHARD_MAP,
        Request::MapPush(map) => {
            map.encode(&mut b);
            OP_MAP_PUSH
        }
    };
    (op, b)
}

/// Parse a request from its `(opcode, body)` pair.
pub fn decode_request(op: u8, body: &[u8]) -> Result<Request> {
    let mut r = BodyReader::new(body);
    let req = match op {
        OP_HELLO => {
            let mut magic = [0u8; 4];
            magic.copy_from_slice(r.take(4)?);
            if magic != PROTO_MAGIC {
                return Err(ServeError::Protocol(format!("bad hello magic {magic:02x?}")));
            }
            Request::Hello { version: r.u16()?, tenant: r.u32()?, weight: r.u8()? }
        }
        OP_INFO => Request::Info { container: r.u32()? },
        OP_FETCH => Request::Fetch {
            container: r.u32()?,
            chunk: r.u32()?,
            read_cf: r.u8()?,
            deadline_ms: r.u32()?,
        },
        OP_STATS => Request::Stats,
        OP_PING => Request::Ping,
        OP_SHUTDOWN => Request::Shutdown,
        OP_SHARD_MAP => Request::ShardMap,
        OP_MAP_PUSH => Request::MapPush(ShardMap::decode(&mut r)?),
        other => return Err(ServeError::Protocol(format!("unknown request opcode {other:#04x}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Serialize a response to its `(opcode, body)` pair.
pub fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut b = Vec::new();
    let op = match resp {
        Response::Hello { version } => {
            b.extend_from_slice(&version.to_le_bytes());
            OP_R_HELLO
        }
        Response::Info(info) => {
            b.extend_from_slice(&info.samples.to_le_bytes());
            b.extend_from_slice(&info.chunks.to_le_bytes());
            b.extend_from_slice(&info.chunk_size.to_le_bytes());
            b.extend_from_slice(&info.channels.to_le_bytes());
            b.extend_from_slice(&info.n.to_le_bytes());
            b.push(info.cf);
            put_string(&mut b, &info.codec);
            OP_R_INFO
        }
        Response::Chunk { first_sample, samples, served_cf, stored } => {
            b = chunk_body(*first_sample, *samples, *served_cf, stored);
            OP_R_CHUNK
        }
        Response::Stats(report) => {
            report.encode(&mut b);
            OP_R_STATS
        }
        Response::Pong => OP_R_PONG,
        Response::ShuttingDown => OP_R_SHUTDOWN,
        Response::ShardMap(map) => {
            map.encode(&mut b);
            OP_R_SHARD_MAP
        }
        Response::WrongShard { epoch, owner } => {
            b.extend_from_slice(&epoch.to_le_bytes());
            b.extend_from_slice(&owner.to_le_bytes());
            OP_R_WRONG_SHARD
        }
        Response::MapPushed { epoch, installed } => {
            b.extend_from_slice(&epoch.to_le_bytes());
            b.push(u8::from(*installed));
            OP_R_MAP_PUSHED
        }
        Response::Error { code, message } => {
            b.push(code.to_u8());
            put_string(&mut b, message);
            OP_R_ERROR
        }
    };
    (op, b)
}

/// Bytes of the fixed `Chunk` fields: `first_sample`, `samples`,
/// `served_cf` and the stored-bytes length.
const CHUNK_HEADER: u64 = 8 + 4 + 1 + 4;

/// The `len` field (opcode + body + CRC) of a `Chunk` reply carrying
/// `stored` bytes: the figure [`MAX_FRAME`] bounds.
pub(crate) fn chunk_frame_len(stored: u64) -> u64 {
    stored.saturating_add(1 + CHUNK_HEADER + 4)
}

/// The body of a `Chunk` reply.
fn chunk_body(first_sample: u64, samples: u32, served_cf: u8, stored: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(CHUNK_HEADER as usize + stored.len());
    b.extend_from_slice(&first_sample.to_le_bytes());
    b.extend_from_slice(&samples.to_le_bytes());
    b.push(served_cf);
    b.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    b.extend_from_slice(stored);
    b
}

/// Parse a response from its `(opcode, body)` pair.
pub fn decode_response(op: u8, body: &[u8]) -> Result<Response> {
    let mut r = BodyReader::new(body);
    let resp = match op {
        OP_R_HELLO => Response::Hello { version: r.u16()? },
        OP_R_INFO => Response::Info(ContainerInfo {
            samples: r.u64()?,
            chunks: r.u32()?,
            chunk_size: r.u32()?,
            channels: r.u32()?,
            n: r.u32()?,
            cf: r.u8()?,
            codec: r.string()?,
        }),
        OP_R_CHUNK => Response::Chunk {
            first_sample: r.u64()?,
            samples: r.u32()?,
            served_cf: r.u8()?,
            stored: {
                let len = r.u32()? as usize;
                r.take(len)?.to_vec()
            },
        },
        OP_R_STATS => Response::Stats(Box::new(StatsReport::decode(&mut r)?)),
        OP_R_PONG => Response::Pong,
        OP_R_SHUTDOWN => Response::ShuttingDown,
        OP_R_SHARD_MAP => Response::ShardMap(ShardMap::decode(&mut r)?),
        OP_R_WRONG_SHARD => Response::WrongShard { epoch: r.u64()?, owner: r.u32()? },
        OP_R_MAP_PUSHED => Response::MapPushed {
            epoch: r.u64()?,
            installed: match r.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(ServeError::Protocol(format!("bad installed flag {other}")));
                }
            },
        },
        OP_R_ERROR => Response::Error { code: ErrorCode::from_u8(r.u8()?)?, message: r.string()? },
        other => return Err(ServeError::Protocol(format!("unknown response opcode {other:#04x}"))),
    };
    r.finish()?;
    Ok(resp)
}

/// CRC-32 of a frame's `opcode ++ body` (the trailing checksum), hashed
/// in place.
pub fn frame_crc(op: u8, body: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[op]);
    crc.update(body);
    crc.finish()
}

/// Encode one `(opcode, body)` frame to bytes, CRC trailer included.
pub fn encode_frame(op: u8, body: &[u8]) -> Result<Vec<u8>> {
    let len = 1u32 + body.len() as u32 + 4;
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!("frame of {len} bytes exceeds {MAX_FRAME}")));
    }
    let mut out = Vec::with_capacity(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(op);
    out.extend_from_slice(body);
    out.extend_from_slice(&frame_crc(op, body).to_le_bytes());
    Ok(out)
}

/// Incremental frame parser: transport reads land in its buffer (in any
/// segmentation), and complete, CRC-verified `(opcode, body)` frames come
/// out — through [`read_frame`] and its siblings on a blocking stream.
///
/// Length sanity (`len` in `5..=MAX_FRAME`: opcode + CRC at least) is
/// checked as soon as the 4-byte prefix is buffered, so an attacker
/// announcing a 4 GiB frame is rejected before any payload accumulates.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Received bytes are `buf[..filled]`; the rest is room a read fills
    /// in place, initialized once when the buffer grows.
    buf: Vec<u8>,
    filled: usize,
}

/// Room a read asks for while no frame length is known yet.
const READ_AHEAD: usize = 8 * 1024;
/// Most room a read offers past the bytes held, so a length prefix alone
/// cannot make a peer's buffer large.
const READ_MAX: usize = 64 * 1024;

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// One `read` from `r` straight into the buffer. The room offered
    /// reaches the end of the frame being received once its length prefix
    /// is in, but at most [`READ_MAX`] bytes past the bytes held, and is
    /// at least [`READ_AHEAD`] bytes; the buffer keeps its size between
    /// frames, so it is zero-filled only when it grows. Returns what
    /// `read` returned.
    pub(crate) fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let frame_end = match self.buf[..self.filled].first_chunk() {
            Some(&len) => 4 + u32::from_le_bytes(len).min(MAX_FRAME) as usize,
            None => 0,
        };
        let want = frame_end.min(self.filled + READ_MAX).max(self.filled + READ_AHEAD);
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Is a frame *started* but not yet complete? (The slow-loris clock
    /// runs exactly while this is true.)
    pub fn has_partial(&self) -> bool {
        self.filled > 0
    }

    /// Pop one complete frame, verifying its CRC trailer, and hand its
    /// `(opcode, body)` to `f` where it lies in the buffer instead of
    /// copying the body out: a client parses a reply straight from the
    /// received bytes. `f` runs only after the CRC check passes.
    /// `Ok(None)` means more bytes are needed; `Err` means the stream is
    /// desynchronized (bad length or CRC mismatch) and the connection must
    /// close.
    pub(crate) fn pop_with<T>(&mut self, f: impl FnOnce(u8, &[u8]) -> T) -> Result<Option<T>> {
        let buf = &self.buf[..self.filled];
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
        if !(5..=MAX_FRAME).contains(&len) {
            return Err(ServeError::Protocol(format!("bad frame length {len}")));
        }
        if buf.len() < 4 + len as usize {
            return Ok(None);
        }
        // Verify in place, then lend the body out.
        let end = 4 + len as usize;
        let (op, body, tail) = (buf[4], &buf[5..end - 4], &buf[end - 4..end]);
        let want = u32::from_le_bytes(tail.try_into().unwrap());
        let got = frame_crc(op, body);
        if got != want {
            return Err(ServeError::Protocol(format!(
                "frame checksum mismatch (got {got:#010x}, want {want:#010x})"
            )));
        }
        let out = f(op, body);
        // Bytes past the frame move to the front; the buffer keeps its size.
        self.buf.copy_within(end..self.filled, 0);
        self.filled -= end;
        Ok(Some(out))
    }
}

/// One encoded response body shared zero-copy across connections.
///
/// Workers build a slab once per chunk read (its stored bytes behind the
/// `Chunk` fields); each connection serving it writes
/// `header ++ body ++ trailer`. The body `Arc` is the only large
/// allocation and it is never copied per connection. The CRC is computed
/// once at build time, so serving a slab costs no hashing either.
#[derive(Debug)]
pub struct ResponseSlab {
    op: u8,
    body: Arc<[u8]>,
    crc: u32,
}

impl ResponseSlab {
    /// Build a slab from an already-encoded `(opcode, body)` pair.
    pub fn new(op: u8, body: Vec<u8>) -> ResponseSlab {
        let crc = frame_crc(op, &body);
        ResponseSlab { op, body: body.into(), crc }
    }

    /// Encode a `Response::Chunk` body around a chunk's stored bytes. The
    /// `served_cf` field is the fidelity those bytes hold — a slab is
    /// cached and shared across requests, so it can only describe what
    /// it *contains*; degradation is judged against what each client
    /// *asked* for.
    pub fn chunk(first_sample: u64, samples: u32, served_cf: u8, stored: &[u8]) -> ResponseSlab {
        ResponseSlab::new(OP_R_CHUNK, chunk_body(first_sample, samples, served_cf, stored))
    }

    /// Frame header for this slab: `[len u32 LE][opcode]`.
    pub fn header(&self) -> [u8; 5] {
        let len = 1u32 + self.body.len() as u32 + 4;
        let l = len.to_le_bytes();
        [l[0], l[1], l[2], l[3], self.op]
    }

    /// The shared encoded body.
    pub fn body(&self) -> &Arc<[u8]> {
        &self.body
    }

    /// The trailing CRC-32 (over `opcode ++ body`), little-endian.
    pub fn trailer(&self) -> [u8; 4] {
        self.crc.to_le_bytes()
    }
}

/// Write one `(opcode, body)` frame with its CRC trailer through
/// [`encode_frame`], then flush.
pub fn write_frame(w: &mut impl Write, op: u8, body: &[u8]) -> Result<()> {
    w.write_all(&encode_frame(op, body)?)?;
    w.flush()?;
    Ok(())
}

/// Read one `(opcode, body)` frame through the caller's decoder,
/// verifying its CRC; `Ok(None)` on clean EOF at a frame boundary (the
/// peer closed between frames). Bytes read past the frame, and a frame an
/// error (a read timeout) cut short, stay in `dec` for the next call.
pub fn read_frame(r: &mut impl Read, dec: &mut FrameDecoder) -> Result<Option<(u8, Vec<u8>)>> {
    read_frame_with(r, dec, |op, body| (op, body.to_vec()))
}

/// [`read_frame`], handing the verified frame to `f` in place.
pub(crate) fn read_frame_with<T>(
    r: &mut impl Read,
    dec: &mut FrameDecoder,
    mut f: impl FnMut(u8, &[u8]) -> T,
) -> Result<Option<T>> {
    loop {
        if let Some(out) = dec.pop_with(&mut f)? {
            return Ok(Some(out));
        }
        match dec.read_from(r) {
            Ok(0) => {
                return if dec.has_partial() {
                    Err(ServeError::Protocol("EOF mid-frame".into()))
                } else {
                    Ok(None)
                };
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Write a [`Request`] frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<()> {
    let (op, body) = encode_request(req);
    write_frame(w, op, &body)
}

/// Write a [`Response`] frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<()> {
    let (op, body) = encode_response(resp);
    write_frame(w, op, &body)
}

/// Read a [`Response`] frame through the caller's decoder (blocking;
/// `None` on clean EOF).
pub fn read_response(r: &mut impl Read, dec: &mut FrameDecoder) -> Result<Option<Response>> {
    read_frame_with(r, dec, decode_response)?.transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let (op, body) = encode_request(&req);
        assert_eq!(decode_request(op, &body).unwrap(), req);
        // And through the framed byte stream.
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let (op, body) =
            read_frame(&mut wire.as_slice(), &mut FrameDecoder::new()).unwrap().unwrap();
        assert_eq!(decode_request(op, &body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let got = read_response(&mut wire.as_slice(), &mut FrameDecoder::new()).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    fn two_members(prefix: &str) -> Vec<crate::shard::ShardMember> {
        (0..2)
            .map(|i| crate::shard::ShardMember {
                name: format!("{prefix}{i}"),
                addr: format!("127.0.0.1:745{i}"),
            })
            .collect()
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::hello());
        roundtrip_request(Request::Hello { version: PROTO_VERSION, tenant: 7, weight: 4 });
        roundtrip_request(Request::Info { container: 3 });
        roundtrip_request(Request::Fetch { container: 1, chunk: 42, read_cf: 2, deadline_ms: 0 });
        roundtrip_request(Request::Fetch { container: 0, chunk: 1, read_cf: 0, deadline_ms: 250 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::ShardMap);
        roundtrip_request(Request::MapPush(crate::shard::ShardMap::new(
            5,
            0xFEED,
            64,
            2,
            two_members("s"),
        )));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Hello { version: PROTO_VERSION });
        roundtrip_response(Response::Info(ContainerInfo {
            samples: 100,
            chunks: 13,
            chunk_size: 8,
            channels: 3,
            n: 32,
            cf: 4,
            codec: "dct2d-n32-cf4".into(),
        }));
        roundtrip_response(Response::Chunk {
            first_sample: 16,
            samples: 2,
            served_cf: 4,
            stored: (0..40).map(|i| (i * 7) as u8).collect(),
        });
        // A brownout-degraded reply carries its served fidelity.
        roundtrip_response(Response::Chunk {
            first_sample: 0,
            samples: 1,
            served_cf: 2,
            stored: vec![5, 0, 250],
        });
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::ShardMap(crate::shard::ShardMap::new(
            4,
            0xFEED,
            128,
            2,
            two_members("shard"),
        )));
        roundtrip_response(Response::WrongShard { epoch: 4, owner: 2 });
        roundtrip_response(Response::MapPushed { epoch: 5, installed: true });
        roundtrip_response(Response::MapPushed { epoch: 5, installed: false });
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full (64)".into(),
        });
    }

    #[test]
    fn every_field_is_mandatory() {
        // Dropping the last byte of any body with fields is a typed
        // truncation error, never a default; one extra byte is rejected
        // as trailing garbage.
        let requests = [
            Request::hello(),
            Request::Info { container: 3 },
            Request::Fetch { container: 1, chunk: 2, read_cf: 1, deadline_ms: 9 },
        ];
        for req in requests {
            let (op, mut body) = encode_request(&req);
            body.push(0);
            assert!(decode_request(op, &body).is_err(), "{req:?} + 1 byte");
            body.truncate(body.len() - 2);
            assert!(decode_request(op, &body).is_err(), "{req:?} - 1 byte");
        }
        let responses = [
            Response::Hello { version: PROTO_VERSION },
            Response::Chunk { first_sample: 4, samples: 1, served_cf: 3, stored: vec![1, 2, 3, 4] },
            Response::MapPushed { epoch: 7, installed: true },
        ];
        for resp in responses {
            let (op, mut body) = encode_response(&resp);
            body.push(0);
            assert!(decode_response(op, &body).is_err(), "{resp:?} + 1 byte");
            body.truncate(body.len() - 2);
            assert!(decode_response(op, &body).is_err(), "{resp:?} - 1 byte");
        }
        // The installed flag is a boolean, not any byte.
        let (op, mut body) = encode_response(&Response::MapPushed { epoch: 7, installed: true });
        *body.last_mut().unwrap() = 2;
        assert!(decode_response(op, &body).is_err());
    }

    #[test]
    fn malformed_frames_error_not_panic() {
        // Unknown opcodes.
        assert!(decode_request(0x44, &[]).is_err());
        assert!(decode_response(0x45, &[]).is_err());
        // Truncated body.
        assert!(decode_request(OP_FETCH, &[1, 0, 0]).is_err());
        // Trailing garbage.
        let (op, mut body) = encode_request(&Request::Ping);
        body.push(9);
        assert!(decode_request(op, &body).is_err());
        // Bad hello magic.
        assert!(decode_request(OP_HELLO, b"NOPE\x03\x00\x00\x00\x00\x00\x01").is_err());
        // Zero / short / oversize frame lengths.
        for len in [0, 4, MAX_FRAME + 1] {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[OP_PING, 0, 0, 0]);
            assert!(
                read_frame(&mut wire.as_slice(), &mut FrameDecoder::new()).is_err(),
                "len {len}"
            );
        }
        // Clean EOF at the boundary is None, mid-frame EOF is an error.
        assert!(read_frame(&mut [].as_slice(), &mut FrameDecoder::new()).unwrap().is_none());
        let mut partial = Vec::new();
        write_request(&mut partial, &Request::Stats).unwrap();
        partial.truncate(4);
        assert!(read_frame(&mut partial.as_slice(), &mut FrameDecoder::new()).is_err());
    }

    fn frame(req: &Request) -> Vec<u8> {
        let (op, body) = encode_request(req);
        encode_frame(op, &body).unwrap()
    }

    #[test]
    fn decoder_reassembles_any_segmentation() {
        use crate::chaos::scripted::Scripted;
        let mut wire = Vec::new();
        for req in [Request::Ping, Request::Stats, Request::Info { container: 7 }] {
            wire.extend_from_slice(&frame(&req));
        }
        for chunk_size in [1, 2, 3, 7, wire.len()] {
            // One transport read per piece, each handed to `read_frame`.
            let mut r = Scripted::new(wire.chunks(chunk_size).map(|p| Ok(p.to_vec())));
            let mut dec = FrameDecoder::new();
            let got: Vec<_> =
                std::iter::from_fn(|| read_frame(&mut r, &mut dec).unwrap()).collect();
            assert_eq!(got.len(), 3, "chunk size {chunk_size}");
            assert!(!dec.has_partial());
        }
    }

    #[test]
    fn a_length_prefix_alone_does_not_grow_the_buffer() {
        let mut dec = FrameDecoder::new();
        dec.read_from(&mut MAX_FRAME.to_le_bytes().as_slice()).unwrap();
        assert_eq!(dec.read_from(&mut [].as_slice()).unwrap(), 0);
        assert!(dec.buf.len() <= 4 + READ_MAX, "room {} for 4 bytes held", dec.buf.len());
    }

    #[test]
    fn decoder_rejects_bad_lengths_immediately() {
        // Each prefix is refused from the bytes shown, without waiting
        // for (or reading) a body.
        let mut len4 = 4u32.to_le_bytes().to_vec();
        len4.extend_from_slice(&[0x05, 0, 0, 0]); // 4 < 5: opcode + CRC alone need 5
        for wire in [(MAX_FRAME + 1).to_le_bytes().to_vec(), 0u32.to_le_bytes().to_vec(), len4] {
            let got = read_frame(&mut wire.as_slice(), &mut FrameDecoder::new());
            assert!(
                matches!(got, Err(ServeError::Protocol(ref m)) if m.contains("bad frame length"))
            );
        }
    }

    #[test]
    fn slabs_frame_identically_to_plain_encoding() {
        let stored: Vec<u8> = (0..64).map(|i| (i * 13 + 5) as u8).collect();
        let slab = ResponseSlab::chunk(9, 2, 3, &stored);
        let resp = Response::Chunk { first_sample: 9, samples: 2, served_cf: 3, stored };
        let (op, body) = encode_response(&resp);
        let want = encode_frame(op, &body).unwrap();
        let mut got = slab.header().to_vec();
        got.extend_from_slice(slab.body());
        got.extend_from_slice(&slab.trailer());
        assert_eq!(got, want);
    }

    #[test]
    fn slab_fanout_shares_one_allocation() {
        let slab = Arc::new(ResponseSlab::chunk(0, 1, 1, &[1, 2, 3, 4]));
        let a = Arc::clone(slab.body());
        let b = Arc::clone(slab.body());
        assert!(Arc::ptr_eq(&a, &b), "fan-out must be refcounts, not copies");
    }

    #[test]
    fn frames_reject_every_single_bit_flip() {
        for req in [
            Request::hello(),
            Request::Fetch { container: 2, chunk: 9, read_cf: 1, deadline_ms: 125 },
        ] {
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            // Pristine frame parses.
            let (op, body) =
                read_frame(&mut wire.as_slice(), &mut FrameDecoder::new()).unwrap().unwrap();
            assert_eq!(decode_request(op, &body).unwrap(), req);
            // Any bit flip past the length prefix must be *detected* —
            // the handshake included.
            for byte in 4..wire.len() {
                for bit in 0..8 {
                    let mut evil = wire.clone();
                    evil[byte] ^= 1 << bit;
                    assert!(
                        read_frame(&mut evil.as_slice(), &mut FrameDecoder::new()).is_err(),
                        "{req:?}: flip at byte {byte} bit {bit} went undetected"
                    );
                }
            }
        }
    }
}
