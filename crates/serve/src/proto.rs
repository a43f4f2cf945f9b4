//! Sans-I/O protocol core: bytes in, typed actions out — no sockets.
//!
//! This module is the *one* implementation of framing, CRC verification
//! and server-side connection discipline for the serve protocol. It
//! deliberately imports nothing from `std::net` or `std::io`: a
//! [`FrameDecoder`] is fed raw bytes (however the transport chopped them)
//! and yields complete frames; a [`ServerConn`] consumes frames and emits
//! [`Action`]s (`Send` these bytes, `Deliver` this request, `Close` for
//! this reason). The server's connection threads drive the machine, so
//! the server's rules live in one place and are unit-tested without a
//! socket (the shape IronRDP's sans-I/O session crates use). The client
//! side needs no machine of its own: the blocking [`crate::Client`] owns
//! one persistent `FrameDecoder` per connection, and with it the `Hello`
//! exchange and request/reply pairing.
//!
//! Clocks stay outside: the state machine never reads time. Transports
//! own deadlines and call [`ServerConn::expire`] when one fires; the
//! machine answers with the typed close.
//!
//! The response hot path is zero-copy: a [`ResponseSlab`] is one encoded
//! response body in an `Arc<[u8]>`, built once per decoded chunk. Every
//! connection that needs it — including deduped in-flight duplicates —
//! writes `header ++ shared body ++ trailer`, so fan-out costs refcount
//! bumps, not memcpys.

use std::sync::Arc;

use aicomp_store::crc::Crc32;

use crate::protocol::{
    decode_request, encode_response, ErrorCode, Request, Response, MAX_FRAME, PROTO_VERSION,
};
use crate::{Result, ServeError};

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

// ------------------------------------------------------------ FrameDecoder

/// Incremental frame parser: push transport bytes in (in any
/// segmentation), pop complete, CRC-verified `(opcode, body)` frames out.
///
/// Length sanity (`len` in `5..=MAX_FRAME`: opcode + CRC at least) is
/// checked as soon as the 4-byte prefix is buffered, so an attacker
/// announcing a 4 GiB frame is rejected before any payload accumulates.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed transport bytes (any segmentation, including 0 bytes).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Is a frame *started* but not yet complete? (The slow-loris clock
    /// runs exactly while this is true.)
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pop one complete frame, verifying its CRC trailer. `Ok(None)`
    /// means more bytes are needed; `Err` means the stream is
    /// desynchronized (bad length or CRC mismatch) and the connection
    /// must close.
    pub fn pop(&mut self) -> Result<Option<(u8, Vec<u8>)>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        if !(5..=MAX_FRAME).contains(&len) {
            return Err(ServeError::Protocol(format!("bad frame length {len}")));
        }
        if self.buf.len() < 4 + len as usize {
            return Ok(None);
        }
        // Verify in place, then copy the body out once.
        let end = 4 + len as usize;
        let (op, body, tail) = (self.buf[4], &self.buf[5..end - 4], &self.buf[end - 4..end]);
        let want = u32::from_le_bytes(tail.try_into().unwrap());
        let got = frame_crc(op, body);
        if got != want {
            return Err(ServeError::Protocol(format!(
                "frame checksum mismatch (got {got:#010x}, want {want:#010x})"
            )));
        }
        let body = body.to_vec();
        self.buf.drain(..end);
        Ok(Some((op, body)))
    }
}

// ------------------------------------------------------------ ResponseSlab

/// One encoded response body shared zero-copy across connections.
///
/// Workers build a slab once per decoded chunk (straight from the tensor
/// data — no intermediate `Vec<f32>`); each connection serving it writes
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

    /// Encode a `Response::Chunk` body directly from tensor data. The
    /// `served_cf` field always equals the decoded fidelity — a slab is
    /// cached and shared across requests, so it can only describe what
    /// it *contains*; degradation is judged against what each client
    /// *asked* for.
    pub fn chunk(first_sample: u64, dims: [u32; 4], read_cf: u8, data: &[f32]) -> ResponseSlab {
        let mut b = Vec::new();
        crate::protocol::put_chunk_header(&mut b, first_sample, dims, read_cf, read_cf, data.len());
        for v in data {
            b.extend_from_slice(&v.to_le_bytes());
        }
        ResponseSlab::new(crate::protocol::OP_R_CHUNK, b)
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

// ----------------------------------------------------------------- actions

/// Why a connection machine decided to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed cleanly at a frame boundary.
    PeerClosed,
    /// The `Hello` exchange did not finish before its deadline.
    HandshakeTimeout,
    /// No frame started before the idle deadline.
    Idle,
    /// A started frame did not finish before the frame deadline
    /// (slow-loris).
    SlowFrame,
    /// Framing-integrity failure: bad length, CRC mismatch, EOF
    /// mid-frame — the byte stream can no longer be trusted.
    BadFrame,
    /// The first frame was not a usable `Hello` (wrong request, or a
    /// protocol version other than [`PROTO_VERSION`]).
    BadHandshake,
    /// A request body failed to decode; the stream may be misaligned.
    BadRequest,
}

/// Which supervision deadline fired (transport clocks → typed closes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// `handshake_timeout` elapsed before the `Hello` exchange finished.
    Handshake,
    /// `idle_timeout` elapsed with no frame started.
    Idle,
    /// `frame_deadline` elapsed with a frame started but unfinished.
    Frame,
}

/// What a connection machine wants its transport to do next.
#[derive(Debug)]
pub enum Action {
    /// Write these bytes to the peer.
    Send(Vec<u8>),
    /// Write `slab.header() ++ slab.body() ++ slab.trailer()` — the
    /// zero-copy reply path (the transport may reference the shared
    /// body instead of copying it).
    SendSlab(Arc<ResponseSlab>),
    /// A complete, integrity-checked request for the application.
    Deliver(Request),
    /// Close the connection (after flushing prior `Send`s).
    Close(CloseReason),
}

// -------------------------------------------------------------- ServerConn

/// Handshake / steady-state phases of a server-side connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// Handshake done; serving requests.
    Steady,
    /// A fatal close was emitted; all further input is ignored.
    Closed,
}

/// Server-side connection state machine: handshake → steady → closed.
///
/// Feed it transport bytes with [`ServerConn::on_bytes`], EOF with
/// [`ServerConn::on_eof`], fired deadlines with [`ServerConn::expire`];
/// drain [`Action`]s with [`ServerConn::next_action`]. Application
/// replies go back in through [`ServerConn::push_response`] /
/// [`ServerConn::push_slab`], which frame them.
#[derive(Debug)]
pub struct ServerConn {
    decoder: FrameDecoder,
    phase: Phase,
    tenant: u32,
    weight: u8,
    actions: std::collections::VecDeque<Action>,
    frames: u64,
}

impl Default for ServerConn {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerConn {
    /// Fresh connection in the handshake phase.
    pub fn new() -> ServerConn {
        ServerConn {
            decoder: FrameDecoder::new(),
            phase: Phase::Handshake,
            tenant: 0,
            weight: 1,
            actions: std::collections::VecDeque::new(),
            frames: 0,
        }
    }

    /// Tenant id the `Hello` declared (`0` — the default tenant — until
    /// the handshake lands).
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Admission weight class the `Hello` declared (a declared `0` is
    /// normalized to `1` — zero-weight tenants would starve themselves).
    pub fn weight(&self) -> u8 {
        self.weight
    }

    /// Total complete frames parsed so far. Transports diff this across
    /// reads to reset idle clocks.
    pub fn frames_parsed(&self) -> u64 {
        self.frames
    }

    /// Has the `Hello` exchange completed?
    pub fn handshaken(&self) -> bool {
        self.phase == Phase::Steady
    }

    /// Is a frame started but unfinished? (Drives the slow-loris clock.)
    pub fn has_partial_frame(&self) -> bool {
        self.decoder.has_partial()
    }

    /// Has a fatal close been emitted?
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Next queued [`Action`], if any.
    pub fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    fn send_error(&mut self, code: ErrorCode, message: impl Into<String>) {
        self.push_response(&Response::Error { code, message: message.into() });
    }

    fn close(&mut self, reason: CloseReason) {
        self.phase = Phase::Closed;
        self.actions.push_back(Action::Close(reason));
    }

    /// Feed transport bytes; parses as many complete frames as arrived.
    pub fn on_bytes(&mut self, bytes: &[u8]) {
        if self.phase == Phase::Closed {
            return;
        }
        self.decoder.push(bytes);
        self.pump();
    }

    fn pump(&mut self) {
        loop {
            if self.phase == Phase::Closed {
                return;
            }
            match self.decoder.pop() {
                Ok(Some((op, body))) => {
                    self.frames += 1;
                    self.on_frame(op, &body);
                }
                Ok(None) => return,
                Err(e) => {
                    // Bad length or CRC mismatch: answer typed
                    // (best-effort) and close — the stream is
                    // desynchronized.
                    let msg = match e {
                        ServeError::Protocol(m) => m,
                        other => other.to_string(),
                    };
                    self.send_error(ErrorCode::BadFrame, msg);
                    self.close(CloseReason::BadFrame);
                    return;
                }
            }
        }
    }

    fn on_frame(&mut self, op: u8, body: &[u8]) {
        let req = match decode_request(op, body) {
            Ok(r) => r,
            Err(e) => {
                self.send_error(ErrorCode::BadRequest, e.to_string());
                self.close(CloseReason::BadRequest);
                return;
            }
        };
        match self.phase {
            Phase::Handshake => match req {
                Request::Hello { version: PROTO_VERSION, tenant, weight } => {
                    self.tenant = tenant;
                    self.weight = weight.max(1);
                    self.phase = Phase::Steady;
                    self.push_response(&Response::Hello { version: PROTO_VERSION });
                }
                Request::Hello { version: v, .. } => {
                    self.send_error(
                        ErrorCode::BadRequest,
                        format!(
                            "client speaks protocol version {v}, server speaks {PROTO_VERSION}"
                        ),
                    );
                    self.close(CloseReason::BadHandshake);
                }
                _ => {
                    self.send_error(ErrorCode::BadRequest, "first frame must be Hello");
                    self.close(CloseReason::BadHandshake);
                }
            },
            Phase::Steady => match req {
                // A duplicate Hello is a typed error but NOT fatal — the
                // stream is still aligned.
                Request::Hello { .. } => self.send_error(ErrorCode::BadRequest, "duplicate Hello"),
                other => self.actions.push_back(Action::Deliver(other)),
            },
            Phase::Closed => {}
        }
    }

    /// Peer closed its write side. Clean at a frame boundary; a typed
    /// `BadFrame` close mid-frame.
    pub fn on_eof(&mut self) {
        if self.phase == Phase::Closed {
            return;
        }
        if self.decoder.has_partial() {
            self.send_error(ErrorCode::BadFrame, "EOF mid-frame");
            self.close(CloseReason::BadFrame);
        } else {
            self.close(CloseReason::PeerClosed);
        }
    }

    /// A transport-owned deadline fired: emit the typed
    /// `DeadlineExceeded` reply and close. The machine never reads
    /// clocks — transports decide *when*, it decides *what*.
    pub fn expire(&mut self, kind: DeadlineKind) {
        if self.phase == Phase::Closed {
            return;
        }
        let (what, reason) = match kind {
            DeadlineKind::Handshake => {
                ("handshake deadline exceeded", CloseReason::HandshakeTimeout)
            }
            DeadlineKind::Idle => ("idle timeout exceeded", CloseReason::Idle),
            DeadlineKind::Frame => ("frame read deadline exceeded", CloseReason::SlowFrame),
        };
        self.send_error(ErrorCode::DeadlineExceeded, what);
        self.close(reason);
    }

    /// Frame an application [`Response`].
    pub fn push_response(&mut self, resp: &Response) {
        let (op, body) = encode_response(resp);
        if let Ok(bytes) = encode_frame(op, &body) {
            self.actions.push_back(Action::Send(bytes));
        }
    }

    /// Queue a shared [`ResponseSlab`] — the zero-copy reply path.
    pub fn push_slab(&mut self, slab: Arc<ResponseSlab>) {
        self.actions.push_back(Action::SendSlab(slab));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_request};

    fn drain(conn: &mut ServerConn) -> Vec<Action> {
        std::iter::from_fn(|| conn.next_action()).collect()
    }

    fn hello_frame() -> Vec<u8> {
        frame(&Request::hello())
    }

    fn frame(req: &Request) -> Vec<u8> {
        let (op, body) = encode_request(req);
        encode_frame(op, &body).unwrap()
    }

    #[test]
    fn decoder_reassembles_any_segmentation() {
        let mut wire = Vec::new();
        for req in [Request::Ping, Request::Stats, Request::Info { container: 7 }] {
            wire.extend_from_slice(&frame(&req));
        }
        for chunk_size in [1, 2, 3, 7, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk_size) {
                dec.push(piece);
                while let Some(f) = dec.pop().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got.len(), 3, "chunk size {chunk_size}");
            assert!(!dec.has_partial());
        }
    }

    #[test]
    fn decoder_rejects_bad_lengths_immediately() {
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME + 1).to_le_bytes());
        assert!(dec.pop().is_err());
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert!(dec.pop().is_err());
        // len 4 < 5 is impossible (opcode + CRC alone need 5).
        let mut dec = FrameDecoder::new();
        dec.push(&4u32.to_le_bytes());
        dec.push(&[0x05, 0, 0, 0]);
        assert!(dec.pop().is_err());
    }

    #[test]
    fn server_conn_handshakes_and_delivers() {
        let mut conn = ServerConn::new();
        assert!(!conn.handshaken());
        conn.on_bytes(&hello_frame());
        assert!(conn.handshaken());
        let actions = drain(&mut conn);
        assert!(matches!(actions[0], Action::Send(_)), "hello ack first");
        // Steady state: a ping is delivered.
        conn.on_bytes(&frame(&Request::Ping));
        match drain(&mut conn).pop() {
            Some(Action::Deliver(Request::Ping)) => {}
            other => panic!("expected Deliver(Ping), got {other:?}"),
        }
    }

    #[test]
    fn server_conn_captures_tenant_and_weight_from_hello() {
        // Declared tenancy lands on the connection.
        let mut conn = ServerConn::new();
        conn.on_bytes(&frame(&Request::Hello { version: PROTO_VERSION, tenant: 42, weight: 5 }));
        assert!(conn.handshaken());
        assert_eq!(conn.tenant(), 42);
        assert_eq!(conn.weight(), 5);

        // A declared weight of 0 is normalized to 1.
        let mut conn = ServerConn::new();
        conn.on_bytes(&frame(&Request::Hello { version: PROTO_VERSION, tenant: 7, weight: 0 }));
        assert_eq!(conn.weight(), 1);
    }

    #[test]
    fn server_conn_rejects_bad_handshakes_fatally() {
        // Any version but this build's, older or newer.
        for v in [0, 1, 2, PROTO_VERSION + 1, 99] {
            let mut conn = ServerConn::new();
            conn.on_bytes(&frame(&Request::Hello { version: v, tenant: 0, weight: 1 }));
            let actions = drain(&mut conn);
            assert!(matches!(actions[0], Action::Send(_)), "typed error before the close");
            assert!(matches!(actions.last(), Some(Action::Close(CloseReason::BadHandshake))));
            assert!(conn.is_closed());
        }
        // Non-Hello first frame.
        let mut conn = ServerConn::new();
        conn.on_bytes(&frame(&Request::Ping));
        assert!(matches!(drain(&mut conn).last(), Some(Action::Close(CloseReason::BadHandshake))));
        // A CRC-less (pre-checksum) Hello is a framing failure.
        let mut conn = ServerConn::new();
        let (op, body) = encode_request(&Request::hello());
        let mut bare = (1 + body.len() as u32).to_le_bytes().to_vec();
        bare.push(op);
        bare.extend_from_slice(&body);
        conn.on_bytes(&bare);
        assert!(matches!(drain(&mut conn).last(), Some(Action::Close(CloseReason::BadFrame))));
    }

    #[test]
    fn duplicate_hello_is_typed_but_not_fatal() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame());
        drain(&mut conn);
        conn.on_bytes(&hello_frame());
        let actions = drain(&mut conn);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Send(_)));
        assert!(!conn.is_closed(), "duplicate Hello must not kill the stream");
    }

    #[test]
    fn crc_mismatch_closes_with_bad_frame() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame());
        drain(&mut conn);
        let mut stats = frame(&Request::Stats);
        let n = stats.len();
        stats[n - 1] ^= 1; // corrupt the CRC
        conn.on_bytes(&stats);
        let actions = drain(&mut conn);
        assert!(matches!(actions.last(), Some(Action::Close(CloseReason::BadFrame))));
        assert!(conn.is_closed());
    }

    #[test]
    fn expire_emits_typed_deadline_closes() {
        for (kind, reason) in [
            (DeadlineKind::Handshake, CloseReason::HandshakeTimeout),
            (DeadlineKind::Idle, CloseReason::Idle),
            (DeadlineKind::Frame, CloseReason::SlowFrame),
        ] {
            let mut conn = ServerConn::new();
            if kind != DeadlineKind::Handshake {
                conn.on_bytes(&hello_frame());
                drain(&mut conn);
            }
            conn.expire(kind);
            let actions = drain(&mut conn);
            assert!(matches!(actions.first(), Some(Action::Send(_))), "{kind:?} replies first");
            match actions.last() {
                Some(Action::Close(r)) => assert_eq!(*r, reason),
                other => panic!("{kind:?}: expected Close, got {other:?}"),
            }
        }
    }

    #[test]
    fn eof_mid_frame_is_bad_frame_at_boundary_is_clean() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame());
        drain(&mut conn);
        conn.on_eof();
        assert!(matches!(drain(&mut conn).last(), Some(Action::Close(CloseReason::PeerClosed))));

        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame());
        drain(&mut conn);
        conn.on_bytes(&[3, 0, 0]); // half a length prefix
        conn.on_eof();
        assert!(matches!(drain(&mut conn).last(), Some(Action::Close(CloseReason::BadFrame))));
    }

    /// Relay every `Send` action from the server machine into a
    /// client-side decoder and parse the replies — the no-socket "wire"
    /// the shard test drives.
    fn relay(server: &mut ServerConn, client: &mut FrameDecoder) -> Vec<Response> {
        while let Some(a) = server.next_action() {
            if let Action::Send(bytes) = a {
                client.push(&bytes);
            }
        }
        std::iter::from_fn(|| client.pop().unwrap())
            .map(|(op, body)| decode_response(op, &body).unwrap())
            .collect()
    }

    #[test]
    fn wrong_shard_redirect_round_trips_machine_to_machine() {
        use crate::shard::{ShardMap, ShardMember};
        // The full redirect conversation, no sockets: a misdirected
        // fetch is answered WrongShard, the client fetches the map and
        // recomputes the owner — which matches the redirect.
        let map = ShardMap::new(
            2,
            77,
            64,
            2,
            vec![
                ShardMember { name: "shard0".into(), addr: "a:1".into() },
                ShardMember { name: "shard1".into(), addr: "b:2".into() },
                ShardMember { name: "shard2".into(), addr: "c:3".into() },
            ],
        );
        // Find a key shard 0 does not serve.
        let (container, chunk) =
            (0..100u32).map(|k| (0, k)).find(|&(c, k)| !map.serves(0, c, k)).unwrap();
        let owner = map.owner(container, chunk).unwrap();

        let mut server = ServerConn::new();
        let mut client = FrameDecoder::new();
        server.on_bytes(&hello_frame());
        match &relay(&mut server, &mut client)[..] {
            [Response::Hello { version: PROTO_VERSION }] => {}
            other => panic!("expected the hello ack, got {other:?}"),
        }

        // Misdirected fetch → the application (here: the test, standing
        // in for `admit_fetch`) answers with the typed redirect.
        let fetch = Request::Fetch { container, chunk, read_cf: 0, deadline_ms: 0 };
        server.on_bytes(&frame(&fetch));
        match server.next_action() {
            Some(Action::Deliver(req)) => assert_eq!(req, fetch),
            other => panic!("expected fetch delivery, got {other:?}"),
        }
        server.push_response(&Response::WrongShard { epoch: map.epoch, owner: owner as u32 });
        let redirected_to = match &relay(&mut server, &mut client)[..] {
            [Response::WrongShard { epoch, owner }] => {
                assert_eq!(*epoch, map.epoch);
                *owner
            }
            other => panic!("expected WrongShard, got {other:?}"),
        };

        // The client refreshes its map over the same connection...
        server.on_bytes(&frame(&Request::ShardMap));
        match server.next_action() {
            Some(Action::Deliver(Request::ShardMap)) => {}
            other => panic!("expected map request delivery, got {other:?}"),
        }
        server.push_response(&Response::ShardMap(map.clone()));
        let fetched = match relay(&mut server, &mut client).pop() {
            Some(Response::ShardMap(m)) => m,
            other => panic!("expected ShardMap, got {other:?}"),
        };
        // ...and re-routes to exactly the shard the redirect named.
        assert_eq!(fetched.owner(container, chunk).unwrap() as u32, redirected_to);
    }

    #[test]
    fn slabs_frame_identically_to_plain_encoding() {
        let resp = Response::Chunk {
            first_sample: 9,
            dims: [2, 1, 4, 4],
            read_cf: 3,
            served_cf: 3,
            data: (0..32).map(|i| i as f32 / 3.0 - 5.0).collect(),
        };
        let (data, first_sample, dims, read_cf) = match &resp {
            Response::Chunk { first_sample, dims, read_cf, data, .. } => {
                (data.clone(), *first_sample, *dims, *read_cf)
            }
            _ => unreachable!(),
        };
        let slab = ResponseSlab::chunk(first_sample, dims, read_cf, &data);
        let (op, body) = encode_response(&resp);
        let want = encode_frame(op, &body).unwrap();
        let mut got = slab.header().to_vec();
        got.extend_from_slice(slab.body());
        got.extend_from_slice(&slab.trailer());
        assert_eq!(got, want);
    }

    #[test]
    fn slab_fanout_shares_one_allocation() {
        let slab = Arc::new(ResponseSlab::chunk(0, [1, 1, 2, 2], 1, &[1.0, 2.0, 3.0, 4.0]));
        let a = Arc::clone(slab.body());
        let b = Arc::clone(slab.body());
        assert!(Arc::ptr_eq(&a, &b), "fan-out must be refcounts, not copies");
    }
}
