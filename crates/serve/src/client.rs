//! Blocking client for the serve protocol.
//!
//! One request in flight per connection (the protocol is strictly
//! request/reply), which keeps the client a thin wrapper: write a frame,
//! read a frame, turn `Error` frames into [`ServeError::Server`]. Used by
//! the `dcz fetch`/`stats`/`shutdown` subcommands, the `loadgen`
//! benchmark, and the concurrency tests — many connections, one client
//! each, is the intended way to drive the server in parallel.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use aicomp_tensor::Tensor;

use crate::chaos::Wire;
use crate::protocol::{
    client_handshake, read_response, write_request, ContainerInfo, Request, Response, PROTO_VERSION,
};
use crate::stats::StatsReport;
use crate::{Result, ServeError};

/// One decompressed chunk as fetched over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedChunk {
    /// Index of the chunk's first sample in the container.
    pub first_sample: u64,
    /// Payload dims `[S, C, n, n]`.
    pub dims: [u32; 4],
    /// Chop factor the server decoded at (a `read_cf` of 0 resolves to
    /// the container's stored fidelity).
    pub read_cf: u8,
    /// Fidelity the reply itself declares (equals `read_cf`; carried
    /// explicitly so brownout degradation is never silent).
    pub served_cf: u8,
    /// The chop factor this client asked for (0 = stored fidelity) —
    /// kept client-side so [`FetchedChunk::degraded`] needs no lookup.
    pub requested_cf: u8,
    /// Row-major samples.
    pub data: Vec<f32>,
}

impl FetchedChunk {
    /// Samples in this chunk.
    pub fn samples(&self) -> usize {
        self.dims[0] as usize
    }

    /// Was this reply served below the fidelity it asked for (brownout)?
    /// A request for the stored fidelity (`read_cf = 0`) can't be judged
    /// without the container header, so it reports `false` here — check
    /// `served_cf` against `Info.cf` if you need that case.
    pub fn degraded(&self) -> bool {
        self.requested_cf != 0 && self.served_cf < self.requested_cf
    }

    /// Reassemble the payload as a `[S, C, n, n]` tensor.
    pub fn tensor(&self) -> Result<Tensor> {
        let d = [
            self.dims[0] as usize,
            self.dims[1] as usize,
            self.dims[2] as usize,
            self.dims[3] as usize,
        ];
        Tensor::from_vec(self.data.clone(), d)
            .map_err(|e| ServeError::Protocol(format!("chunk payload malformed: {e}")))
    }
}

/// A connected, handshaken client. Holds any [`Wire`] stream — a plain
/// `TcpStream` from [`Client::connect`], or a chaos-wrapped one handed in
/// through [`Client::from_parts`] by tests and the `RobustClient`.
pub struct Client {
    stream: Box<dyn Wire>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connect to `addr` and perform the `Hello` handshake as the default
    /// tenant.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_tenant(addr, 0, 1)
    }

    /// [`Client::connect`], identifying as `tenant` at `weight` in the
    /// handshake — the connection's fetches land in that tenant's
    /// weighted-fair lane and count against its quotas. A weight of 0 is
    /// treated as 1.
    pub fn connect_tenant(addr: impl ToSocketAddrs, tenant: u32, weight: u8) -> Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        client_handshake(&mut stream, tenant, weight)?;
        Ok(Client { stream: Box::new(stream) })
    }

    /// Handshake an already-established stream and wrap it. `version`
    /// must be [`PROTO_VERSION`], the one version this build speaks; any
    /// other is refused before a byte is written.
    pub fn from_stream(mut stream: Box<dyn Wire>, version: u16) -> Result<Client> {
        if version != PROTO_VERSION {
            return Err(ServeError::Protocol(format!(
                "this build speaks only protocol version {PROTO_VERSION}, not {version}"
            )));
        }
        client_handshake(&mut stream, 0, 1)?;
        Ok(Client { stream })
    }

    /// Wrap a stream whose handshake the *caller* already ran (the
    /// chaos path: handshake clean, arm the fault plan, then wrap).
    pub fn from_parts(stream: Box<dyn Wire>) -> Client {
        Client { stream }
    }

    /// Bound the time any single reply read may block (`None` = forever).
    /// The socket-level guard under the `RobustClient`'s per-call budget.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn read(&mut self) -> Result<Response> {
        match read_response(&mut self.stream)? {
            Some(Response::Error { code, message }) => Err(ServeError::Server { code, message }),
            // A shard redirect is typed all the way up: the ring-aware
            // RobustClient catches it and re-routes; plain callers see
            // where the key lives instead of a generic failure.
            Some(Response::WrongShard { epoch, owner }) => {
                Err(ServeError::WrongShard { epoch, owner })
            }
            Some(resp) => Ok(resp),
            None => Err(ServeError::Protocol("server closed the connection".into())),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        write_request(&mut self.stream, req)?;
        self.read()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Describe one served container.
    pub fn info(&mut self, container: u32) -> Result<ContainerInfo> {
        match self.roundtrip(&Request::Info { container })? {
            Response::Info(info) => Ok(info),
            other => Err(unexpected("Info", &other)),
        }
    }

    /// Fetch one decompressed chunk; `read_cf = 0` asks for the stored
    /// fidelity, lower values for a coarser (cheaper) decode.
    pub fn fetch(&mut self, container: u32, chunk: u32, read_cf: u8) -> Result<FetchedChunk> {
        self.fetch_deadline(container, chunk, read_cf, None)
    }

    /// [`Client::fetch`] with a relative deadline the server enforces
    /// *before* decoding (shedding expired work like `Overloaded`).
    pub fn fetch_deadline(
        &mut self,
        container: u32,
        chunk: u32,
        read_cf: u8,
        deadline: Option<Duration>,
    ) -> Result<FetchedChunk> {
        let deadline_ms = deadline.map_or(0, |d| d.as_millis().clamp(1, u32::MAX as u128) as u32);
        let requested_cf = read_cf;
        match self.roundtrip(&Request::Fetch { container, chunk, read_cf, deadline_ms })? {
            Response::Chunk { first_sample, dims, read_cf, served_cf, data } => {
                Ok(FetchedChunk { first_sample, dims, read_cf, served_cf, requested_cf, data })
            }
            other => Err(unexpected("Chunk", &other)),
        }
    }

    /// Fetch the server's counters and histograms.
    pub fn stats(&mut self) -> Result<StatsReport> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(report) => Ok(*report),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetch the cluster's shard map. Every member answers with the same
    /// map; a solo server answers with its implicit one-member map at
    /// epoch 0.
    pub fn shard_map(&mut self) -> Result<crate::shard::ShardMap> {
        match self.roundtrip(&Request::ShardMap)? {
            Response::ShardMap(map) => Ok(map),
            other => Err(unexpected("ShardMap", &other)),
        }
    }

    /// Push a new cluster map to the connected server (the admin plane
    /// behind `dcz cluster push`). Returns the epoch the server is now
    /// routing by and whether this push actually installed anything
    /// (`false` = idempotent re-push of the map already live). Stale and
    /// conflicting pushes come back as typed `BadRequest` server errors.
    pub fn push_map(&mut self, map: &crate::shard::ShardMap) -> Result<(u64, bool)> {
        match self.roundtrip(&Request::MapPush(map.clone()))? {
            Response::MapPushed { epoch, installed } => Ok((epoch, installed)),
            other => Err(unexpected("MapPushed", &other)),
        }
    }

    /// Read one reply frame without writing a request — the
    /// `RobustClient`'s drain hook for hedged reads, consuming a late
    /// reply that a hedge-window timeout left in flight so the
    /// connection's request/reply pairing realigns.
    pub(crate) fn drain_reply(&mut self) -> Result<Response> {
        self.read()
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    // Responses can embed whole chunks; name the variant, don't dump it.
    let name = match got {
        Response::Hello { .. } => "Hello",
        Response::Info(_) => "Info",
        Response::Chunk { .. } => "Chunk",
        Response::Stats(_) => "Stats",
        Response::Pong => "Pong",
        Response::ShuttingDown => "ShuttingDown",
        Response::ShardMap(_) => "ShardMap",
        Response::MapPushed { .. } => "MapPushed",
        Response::WrongShard { .. } => "WrongShard",
        Response::Error { .. } => "Error",
    };
    ServeError::Protocol(format!("expected a {wanted} reply, got {name}"))
}
