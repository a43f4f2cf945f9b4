//! # aicomp-serve — a concurrent compression service over `.dcz` containers
//!
//! The paper's pitch (§3.1, Eq. 5/7) is that DCT+Chop is *two matmuls* —
//! cheap enough to sit on the data path between storage and consumers.
//! After the store layer (PR 1–3) every consumer of a container was still
//! a single in-process training loop; this crate is the first subsystem
//! that multiplexes **many concurrent readers over one store**: a
//! multi-threaded TCP service (pure `std::net`, matching the workspace's
//! offline dependency policy) speaking a length-prefixed binary protocol
//! ([`protocol`], documented in `PROTOCOL.md`).
//!
//! Two serving ideas from the related literature shape the internals:
//!
//! * **Per-request fidelity** — Progressive Compressed Records (Kuchnik
//!   et al., arXiv:1911.00472): one container serves every client at the
//!   fidelity it asks for. A fetch carries a chop factor; coarse requests
//!   ride the store's frequency-ring layout, so they are *prefix reads*
//!   bit-identical to a direct coarse compression.
//! * **Stay compressed until the last moment** — EBPC (Cavigelli et al.,
//!   arXiv:1908.11645), and the paper's own deployment, which moves
//!   DCT+Chop coefficients and runs the inverse matmuls on the consumer:
//!   bytes cross the disk, the queue *and the wire* compressed. Each of
//!   the [`server`]'s workers reads one chunk's stored bytes per job
//!   through its own `DczReader::read_chunk_bytes_at` (the ring prefix
//!   for a coarse fetch), the reply fans out through a sharded LRU
//!   [`cache`] keyed `(container, chunk, fidelity)`, and the [`client`]
//!   decodes with the store's `ChunkDecoder` — the decoder every
//!   `DczReader` uses, so a fetched chunk is bit-identical to a local
//!   read.
//!
//! Overload is a typed answer, not a hang — and shedding is the *last*
//! resort, not the first. Admission runs through a weighted-fair
//! per-tenant [`queue`] ([`Wfq`]): each connection's `Hello` names a
//! tenant and weight class, lanes drain by deficit-round-robin, and
//! per-tenant quotas shed only the offender with a typed
//! [`ErrorCode::Overloaded`] (never a silent drop). Before shedding at
//! all, the [`server`]'s brownout governor steps served fidelity down —
//! coarse chop factors are cheap ring-prefix reads (§3.2), so the server
//! degrades resolution before availability, and every reply carries its
//! `served_cf` so degradation is explicit. Shed and brownout counts are
//! visible in the stats frame.
//!
//! Module map:
//!
//! * [`protocol`] — wire frames, opcodes, error codes (`PROTOCOL.md`),
//!   and the *one* implementation of framing and CRC: the incremental
//!   [`FrameDecoder`], zero-copy [`ResponseSlab`]s, and blocking
//!   read/write helpers that read through the caller's persistent
//!   [`FrameDecoder`].
//! * [`queue`] — the weighted-fair admission queue [`Wfq`] (per-tenant
//!   lanes, deficit-round-robin drain, quotas, a priority lane for cheap
//!   ring-prefix fetches); `try_push` is the load-shedding edge.
//! * [`cache`] — sharded LRU over encoded chunk replies (stored bytes),
//!   holding exactly its configured number of entries.
//! * [`stats`] — one declaration table of named counters and
//!   histograms, from which the live atomics, the serializable
//!   [`StatsReport`], and its positional wire encoding and display are
//!   generated.
//! * [`server`] — listener, one thread per connection, worker pool,
//!   graceful shutdown. Each connection thread owns
//!   every server-side protocol rule: the `Hello` exchange, one
//!   [`FrameDecoder`], and the handshake, idle and frame deadlines.
//! * [`client`] — blocking client used by the `dcz` subcommands, the
//!   `loadgen` benchmark, the [`RobustClient`], and the tests. It owns
//!   every client-side rule: the `Hello` exchange, one persistent
//!   [`FrameDecoder`] per connection, request/reply pairing, and the
//!   decode of each fetched chunk (one chunk decoder per container,
//!   built from one `Info` round trip).
//! * [`chaos`] — seeded, deterministic wire-fault injection
//!   ([`FaultyStream`]): the network analogue of the store's `FaultPlan`.
//! * [`robust`] — [`RobustClient`]: bounded retry with backoff,
//!   reconnect, per-endpoint circuit breakers, replica failover over the
//!   idempotent read path, shard-aware ring routing, and hedged reads
//!   for tail tolerance.
//! * [`shard`] — consistent-hash cluster layout: the seeded [`ShardMap`]
//!   ring (virtual nodes, ordered replica sets) every cluster member
//!   serves as a typed frame and a redirected [`RobustClient`] routes by, the
//!   [`MapInstall`] epoch-ordering rule for live map pushes, and the
//!   clock-injected [`FailureDetector`] behind `dcz cluster suspect`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod robust;
pub mod server;
pub mod shard;
pub mod stats;

pub use cache::{CacheKey, CacheSnapshot, ChunkCache};
pub use chaos::{FaultyStream, Wire, WireCounters, WireFaultPlan};
pub use client::{Client, FetchedChunk};
pub use protocol::{
    ContainerInfo, ErrorCode, FrameDecoder, Request, Response, ResponseSlab, MAX_FRAME,
    PROTO_VERSION,
};
pub use queue::{PushError, TenantQuota, Wfq};
pub use robust::{RobustClient, RobustConfig, RobustCounters};
pub use server::{BrownoutConfig, ServeConfig, Server, ServerHandle, ShardRole};
pub use shard::{FailureDetector, MapInstall, ShardMap, ShardMember};
pub use stats::{StatsReport, TenantStats};

/// Errors from the service and its client.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or protocol-violating frame.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Container-layer failure: a store the server could not open at
    /// bind, or stored bytes a client could not decode. Never retryable —
    /// the same bytes fail the same way — and a fetch reply that fails to
    /// decode was read whole, so its connection stays usable.
    Store(aicomp_store::StoreError),
    /// The server answered a fetch with a typed shard redirect: it does
    /// not serve that key under the map at `epoch`. Not a failure of the
    /// request — the ring-aware [`RobustClient`] consumes this
    /// internally (refresh map, re-route); it only surfaces to callers
    /// that fetched from a cluster member without ring routing.
    WrongShard {
        /// Epoch of the map the server routed by.
        epoch: u64,
        /// Shard index of the key's primary owner under that map.
        owner: u32,
    },
    /// A container offered to [`Server::bind`] holds a chunk whose stored
    /// bytes cannot fit in one `Chunk` reply frame ([`MAX_FRAME`]), so no
    /// full-fidelity fetch of it could ever be answered.
    ReplyTooLarge {
        /// The container's path.
        store: String,
        /// The `len` field its largest `Chunk` reply would need.
        frame_len: u64,
    },
}

impl ServeError {
    /// True when the server shed this request under load — the one error
    /// a client is expected to retry (with backoff).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ServeError::Server { code: ErrorCode::Overloaded, .. })
    }

    /// Is this failure transient for an *idempotent* request — worth a
    /// bounded, backed-off retry (possibly on a fresh connection or a
    /// different replica)? I/O and protocol failures qualify because
    /// Fetch/Info/Stats are read-only: re-asking cannot double-apply
    /// anything. Typed server errors qualify per
    /// [`ErrorCode::is_retryable`]; store errors never do.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Io(_) | ServeError::Protocol(_) => true,
            ServeError::Server { code, .. } => code.is_retryable(),
            ServeError::Store(_) | ServeError::ReplyTooLarge { .. } => false,
            // Blind retry against the same server gets the same redirect
            // — only the routing layer (refresh + re-route) can help.
            ServeError::WrongShard { .. } => false,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::WrongShard { epoch, owner } => {
                write!(f, "wrong shard: key is owned by shard {owner} under map epoch {epoch}")
            }
            ServeError::ReplyTooLarge { store, frame_len } => write!(
                f,
                "container {store}: its largest chunk reply is a {frame_len}-byte frame, \
                 over the {MAX_FRAME}-byte limit"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<aicomp_store::StoreError> for ServeError {
    fn from(e: aicomp_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Crate result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
