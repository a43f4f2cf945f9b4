//! Blocking client for the serve protocol.
//!
//! One request in flight per connection (the protocol is strictly
//! request/reply), which keeps the client thin: write a frame, read a
//! frame, turn `Error` frames into [`ServeError::Server`]. The client owns
//! every client-side protocol rule: the `Hello` exchange, one
//! [`FrameDecoder`] for the connection's whole life (bytes past a frame,
//! or a frame cut by a read timeout, stay buffered), and request/reply
//! pairing. Used by the `dcz` subcommands, the `loadgen` benchmark, the
//! [`crate::RobustClient`] and the tests — many connections, one client
//! each, is the intended way to drive the server in parallel.
//!
//! The client is also where a fetched chunk is decoded, as the paper
//! places the inverse transform on the consumer: a `Chunk` reply carries
//! the container's stored bytes, and the store's [`ChunkDecoder`] — the
//! one every `DczReader` decodes through — turns them into samples. The
//! first fetch from a container on a connection asks for its `Info` once
//! to build that decoder.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use aicomp_store::ChunkDecoder;
use aicomp_tensor::Tensor;

use crate::chaos::Wire;
use crate::protocol::{
    decode_response, read_frame_with, read_response, write_request, ContainerInfo, FrameDecoder,
    Request, Response, PROTO_VERSION,
};
use crate::stats::StatsReport;
use crate::{Result, ServeError};

/// One fetched chunk, decoded by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedChunk {
    /// Index of the chunk's first sample in the container.
    pub first_sample: u64,
    /// Payload dims `[S, C, n, n]`.
    pub dims: [u32; 4],
    /// Chop factor the chunk was served and decoded at (a `read_cf` of 0
    /// resolves to the container's stored fidelity; a browned-out server
    /// may serve lower, and says so here).
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
/// `TcpStream` from [`Client::connect`], or a chaos-wrapped one handed to
/// [`Client::from_stream`] by tests and the `RobustClient`.
pub struct Client {
    stream: Box<dyn Wire>,
    decoder: FrameDecoder,
    /// Requests written whose replies have not been read in full — a read
    /// timeout leaves one behind. They are read off before the next
    /// request is written, so no reply answers the wrong request.
    owed: u32,
    /// One chunk decoder per container fetched from, each built from the
    /// container's `Info` reply.
    decoders: HashMap<u32, ChunkDecoder>,
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
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Client::handshake(stream, tenant, weight, |s| Box::new(s))
    }

    /// Handshake an already-established stream and wrap it. `version`
    /// must be [`PROTO_VERSION`], the one version this build speaks; any
    /// other is refused before a byte is written.
    pub fn from_stream(stream: Box<dyn Wire>, version: u16) -> Result<Client> {
        if version != PROTO_VERSION {
            return Err(ServeError::Protocol(format!(
                "this build speaks only protocol version {PROTO_VERSION}, not {version}"
            )));
        }
        Client::handshake(stream, 0, 1, |s| s)
    }

    /// Run the `Hello` exchange on a fresh stream, identifying as `tenant`
    /// at `weight` (0 is sent as 1), then hand the concrete stream to
    /// `wrap` to box it — the point where the `RobustClient` arms a chaos
    /// plan after the handshake. An ack at another version or a non-ack
    /// reply is `Protocol`, a typed rejection is `Server`.
    pub(crate) fn handshake<S: Read + Write>(
        mut stream: S,
        tenant: u32,
        weight: u8,
        wrap: impl FnOnce(S) -> Box<dyn Wire>,
    ) -> Result<Client> {
        let mut decoder = FrameDecoder::new();
        let hello = Request::Hello { version: PROTO_VERSION, tenant, weight: weight.max(1) };
        write_request(&mut stream, &hello)?;
        let Some(hello) = read_response(&mut stream, &mut decoder)? else {
            return Err(ServeError::Protocol("connection closed during handshake".into()));
        };
        match hello {
            Response::Hello { version: PROTO_VERSION } => {
                Ok(Client { stream: wrap(stream), decoder, owed: 0, decoders: HashMap::new() })
            }
            Response::Hello { version } => Err(ServeError::Protocol(format!(
                "server speaks protocol version {version}, client speaks {PROTO_VERSION}"
            ))),
            Response::Error { code, message } => Err(ServeError::Server { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected hello acknowledgement, got {}",
                variant(&other)
            ))),
        }
    }

    /// Bound the time any single reply read may block (`None` = forever).
    /// The socket-level guard under the `RobustClient`'s per-call budget.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Replies this connection still owes: requests whose reply a read
    /// timeout cut off.
    pub(crate) fn owed(&self) -> u32 {
        self.owed
    }

    /// Read the next whole reply; it settles one owed reply, whatever it
    /// holds — a typed error frame included. The `RobustClient` calls it
    /// to read a hedge's late reply off as waste.
    pub(crate) fn read_reply(&mut self) -> Result<Response> {
        let Some(reply) = read_frame_with(&mut self.stream, &mut self.decoder, decode_response)?
        else {
            return Err(ServeError::Protocol("server closed the connection".into()));
        };
        self.owed = self.owed.saturating_sub(1);
        reply
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        while self.owed > 0 {
            self.read_reply()?;
        }
        write_request(&mut self.stream, req)?;
        self.owed += 1;
        match self.read_reply()? {
            Response::Error { code, message } => Err(ServeError::Server { code, message }),
            // A shard redirect is typed all the way up: the ring-aware
            // RobustClient catches it and re-routes; plain callers see
            // where the key lives instead of a generic failure.
            Response::WrongShard { epoch, owner } => Err(ServeError::WrongShard { epoch, owner }),
            resp => Ok(resp),
        }
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

    /// Fetch one chunk and decode it; `read_cf = 0` asks for the stored
    /// fidelity, lower values for a coarser (shorter) ring prefix.
    pub fn fetch(&mut self, container: u32, chunk: u32, read_cf: u8) -> Result<FetchedChunk> {
        self.fetch_deadline(container, chunk, read_cf, None)
    }

    /// [`Client::fetch`] with a relative deadline the server enforces
    /// *before* reading (shedding expired work like `Overloaded`). Stored
    /// bytes that do not decode are a [`ServeError::Store`]; the reply was
    /// read whole, so the connection stays usable.
    pub fn fetch_deadline(
        &mut self,
        container: u32,
        chunk: u32,
        read_cf: u8,
        deadline: Option<Duration>,
    ) -> Result<FetchedChunk> {
        let mut decoder = match self.decoders.remove(&container) {
            Some(d) => d,
            None => ChunkDecoder::new(self.info(container)?.header()?),
        };
        let deadline_ms = deadline.map_or(0, |d| d.as_millis().clamp(1, u32::MAX as u128) as u32);
        let reply = self.roundtrip(&Request::Fetch { container, chunk, read_cf, deadline_ms });
        let got = reply.and_then(|resp| match resp {
            Response::Chunk { first_sample, samples, served_cf, stored } => {
                let t = decoder.decompress(&stored, samples as usize, served_cf as usize)?;
                let d = t.dims();
                Ok(FetchedChunk {
                    first_sample,
                    dims: [d[0], d[1], d[2], d[3]].map(|x| x as u32),
                    served_cf,
                    requested_cf: read_cf,
                    data: t.into_vec(),
                })
            }
            other => Err(unexpected("Chunk", &other)),
        });
        self.decoders.insert(container, decoder);
        got
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

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    ServeError::Protocol(format!("expected a {wanted} reply, got {}", variant(got)))
}

/// The variant name of a reply — responses can embed whole chunks, so
/// errors name the variant instead of dumping it.
fn variant(resp: &Response) -> &'static str {
    match resp {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    use crate::chaos::scripted::{timeout, Scripted};
    use crate::protocol::{encode_frame, encode_response, ErrorCode};
    use aicomp_store::chunk::encode_chunk;

    fn reply(resp: &Response) -> Vec<u8> {
        let (op, body) = encode_response(resp);
        encode_frame(op, &body).unwrap()
    }

    /// The `Info` reply a fetch from container 0 asks for first.
    fn info() -> Vec<u8> {
        reply(&Response::Info(ContainerInfo {
            samples: 24,
            chunks: 12,
            chunk_size: 2,
            channels: 1,
            n: 8,
            cf: 3,
            codec: "dct2d-n8-cf3".into(),
        }))
    }

    fn chunk(first_sample: u64) -> Response {
        let coeffs = (0..18).map(|i| i as f32 / 3.0 - first_sample as f32).collect();
        let coeffs = Tensor::from_vec(coeffs, [2, 1, 3, 3]).unwrap();
        let stored = encode_chunk(&coeffs, 3).unwrap();
        Response::Chunk { first_sample, samples: 2, served_cf: 3, stored }
    }

    #[test]
    fn reply_split_by_a_timeout_is_drained_whole() {
        let ack = reply(&Response::Hello { version: PROTO_VERSION });
        let (late, next) = (reply(&chunk(8)), reply(&chunk(16)));
        let half = late.len() / 2;

        // The late reply is read off whole, and the next request gets its
        // own reply.
        let script = [Ok(ack.clone()), Ok(info()), Ok(late[..half].to_vec()), timeout()]
            .into_iter()
            .chain([Ok(late[half..].to_vec()), Ok(next.clone())]);
        let mut client =
            Client::from_stream(Box::new(Scripted::new(script)), PROTO_VERSION).unwrap();
        let err = client.fetch(0, 1, 3).unwrap_err();
        assert!(matches!(&err, ServeError::Io(e) if e.kind() == ErrorKind::WouldBlock), "{err}");
        assert_eq!(client.read_reply().unwrap(), chunk(8));
        assert_eq!(client.fetch(0, 2, 3).unwrap().first_sample, 16);

        // Without an explicit drain, the next request reads the owed reply
        // off first instead of taking it as its own answer.
        let script = [Ok(ack), Ok(info()), Ok(late[..half].to_vec()), timeout()]
            .into_iter()
            .chain([Ok(late[half..].to_vec()), Ok(reply(&Response::Pong))]);
        let mut client =
            Client::from_stream(Box::new(Scripted::new(script)), PROTO_VERSION).unwrap();
        assert!(client.fetch(0, 1, 3).is_err());
        client.ping().unwrap();
    }

    #[test]
    fn handshake_rejects_bad_grants() {
        let handshake = |script: Vec<Vec<u8>>| {
            let wire = Scripted::new(script.into_iter().map(Ok));
            Client::handshake(wire, 0, 1, |s| Box::new(s)).unwrap_err()
        };
        // An ack at any other version.
        let err = handshake(vec![reply(&Response::Hello { version: PROTO_VERSION + 1 })]);
        assert!(err.to_string().contains("server speaks protocol version"), "{err}");
        // Non-hello handshake reply.
        let err = handshake(vec![reply(&Response::Pong)]);
        assert!(err.to_string().contains("expected hello acknowledgement"), "{err}");
        // A typed rejection surfaces as a server error.
        let rejection = Response::Error { code: ErrorCode::Overloaded, message: "full".into() };
        let err = handshake(vec![reply(&rejection)]);
        assert!(matches!(err, ServeError::Server { code: ErrorCode::Overloaded, .. }), "{err}");
        // EOF before the ack.
        let err = handshake(vec![]);
        assert!(err.to_string().contains("closed during handshake"), "{err}");
    }
}
