//! The service: listener, connection threads, worker pool.
//!
//! Threading model (pure `std::thread` / `std::net`):
//!
//! * one **listener** loop accepting connections (non-blocking + poll, so
//!   it notices the shutdown flag);
//! * one **connection thread** per client, which parses frames, answers
//!   metadata requests inline, serves cache hits directly, and admits
//!   cache misses to the worker queue with a non-blocking `try_push` —
//!   a full queue is answered with a typed `Overloaded` frame
//!   immediately (load shedding, never a silent drop);
//! * a fixed **worker pool** draining the queue. Each worker owns one
//!   [`DczReader`] per container, as each `PrefetchLoader` worker does,
//!   and pops one job at a time: it reads the chunk's stored bytes with
//!   [`DczReader::read_chunk_bytes_at`] — the read behind every decode,
//!   CRC-checked at the stored fidelity — wraps them in the reply slab
//!   once, caches it, and answers the job. The server runs no codec: the
//!   client decodes the bytes with the store's own chunk decoder, so a
//!   served chunk *is* the reference decode.
//!
//! Graceful shutdown is a strict ordering: the `Shutdown` frame (or
//! [`ServerHandle::shutdown`]) sets the flag → the listener stops
//! accepting → connection threads finish their in-flight request and
//! exit at the next frame boundary → the listener joins them → the queue
//! is closed → workers drain what was admitted and exit → the listener
//! thread returns. Every admitted request is answered; nothing is
//! dropped on the floor.
//!
//! Connections are **supervised**: a peer must finish the `Hello`
//! exchange within `handshake_timeout`, deliver each started frame
//! within `frame_deadline` (the slow-loris guard — a byte per tick no
//! longer pins a thread forever), and — when `idle_timeout` is set —
//! keep the connection non-idle between frames. Each limit closes the
//! connection with a typed error and a dedicated counter in the stats
//! frame, and `max_conns` bounds the thread count with a typed
//! `Overloaded` rejection at accept time.
//!
//! Admission is **multi-tenant**: each connection's `Hello` names a
//! tenant and weight class, fetches land in that tenant's lane of a
//! weighted-fair [`Wfq`] drained by deficit-round-robin (so one
//! aggressive tenant fills *its* lane, not the shared pipe), and
//! per-tenant in-flight/byte quotas shed the offender with a typed
//! `Overloaded` while everyone else keeps flowing. Under sustained
//! pressure the brownout governor ([`BrownoutConfig`]) steps served
//! fidelity down — coarse chop factors are cheap ring-*prefix* reads
//! (paper §3.2) — and replies carry their `served_cf` so degradation is
//! explicit, never silent. Shedding is the last resort, not the first.

use std::fs::File;
use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use aicomp_store::{DczReader, Header, IndexEntry, StoreError};

use crate::cache::ChunkCache;
use crate::chaos::{FaultyStream, Wire, WireFaultPlan};
use crate::protocol::{
    self, decode_request, ContainerInfo, ErrorCode, FrameDecoder, Request, Response, ResponseSlab,
    MAX_FRAME, PROTO_VERSION,
};
use crate::queue::{PushError, TenantQuota, Wfq};
use crate::shard::{MapInstall, ShardMap, ShardMember};
use crate::stats::{ServeStats, StatsReport};
use crate::ServeError;

/// Tunables for [`Server::bind`]. `Default` is sized for tests and small
/// deployments; the `dcz serve` CLI exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. Each pops one admitted fetch at a time, reads the
    /// chunk's stored bytes (CRC-checked at the stored fidelity) and wraps
    /// them in the reply slab; decoding is the client's.
    pub workers: usize,
    /// Admission queue bound — beyond this, fetches are shed.
    pub queue_depth: usize,
    /// Reply-slab cache capacity, in entries (0 disables caching). An
    /// entry is one chunk's stored bytes at one fidelity.
    pub cache_entries: usize,
    /// Test/bench knob: sleep this long before every job a worker pops,
    /// so saturation (and thus shedding) is reproducible.
    pub worker_delay: Option<Duration>,
    /// A fresh connection must complete the `Hello` exchange within this,
    /// counted from accept whatever it has sent (part of a `Hello`
    /// included). The frame deadline applies meanwhile too; whichever
    /// expires first cuts the connection.
    pub handshake_timeout: Duration,
    /// Close handshaken connections that send nothing for this long after
    /// their last reply (`None` keeps them open indefinitely).
    pub idle_timeout: Option<Duration>,
    /// A started frame must arrive in full within this (slow-loris guard).
    pub frame_deadline: Duration,
    /// Most concurrently-open connections; excess accepts are answered
    /// with a typed `Overloaded` and closed.
    pub max_conns: usize,
    /// Test/CI knob: wrap every accepted connection in a [`FaultyStream`]
    /// seeded per connection (`plan.derive(i)`) — server-side wire chaos.
    pub chaos: Option<WireFaultPlan>,
    /// Deficit-round-robin quantum: pops a weight-1 tenant may take per
    /// scheduling round (a weight-`w` tenant gets `w × quantum`).
    pub quantum: u64,
    /// Per-tenant cap on requests in flight (queued or being read but not
    /// yet answered); `0` is unlimited. Excess is shed with a typed
    /// `Overloaded` naming the tenant — the offender pays, not the pool.
    pub tenant_inflight: usize,
    /// Per-tenant cap on in-flight reply bytes, each fetch charged its
    /// chunk's stored length; `0` is unlimited.
    pub tenant_bytes: u64,
    /// Brownout governor: degrade served fidelity under pressure instead
    /// of shedding. `None` (the default) disables it — fetches are served
    /// at exactly the fidelity they asked for.
    pub brownout: Option<BrownoutConfig>,
    /// This server's place in a cluster: the shared [`ShardMap`] plus
    /// which member it is. `None` (the default) runs solo — the server
    /// serves every key under the implicit epoch-0 map and never
    /// redirects.
    pub shard: Option<ShardRole>,
    /// Stable member identity for a server started *outside* any map
    /// (`shard: None`) that expects to be adopted by a later `MapPush` —
    /// the join flow: the newcomer boots solo under this name, and the
    /// first pushed map naming it makes it a serving member. Ignored when
    /// `shard` is set (the role's member name wins); `None` boots as the
    /// anonymous `"solo"`.
    pub shard_name: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            cache_entries: 256,
            worker_delay: None,
            handshake_timeout: Duration::from_secs(5),
            idle_timeout: None,
            frame_deadline: Duration::from_secs(30),
            max_conns: 256,
            chaos: None,
            quantum: 4,
            tenant_inflight: 0,
            tenant_bytes: 0,
            brownout: None,
            shard: None,
            shard_name: None,
        }
    }
}

/// One cluster member's identity: the map every member shares plus this
/// server's index into it. Fetches for keys outside `map.replicas(..)`
/// of `index` are answered with a typed `WrongShard` redirect *before*
/// any container lookup or read — a shard touches only the chunk ranges
/// it owns, so its cache concentrates on ~1/N of the keyspace
/// (DESIGN.md §8.3).
#[derive(Debug, Clone)]
pub struct ShardRole {
    /// The cluster-wide map (identical on every member).
    pub map: ShardMap,
    /// This server's shard index into `map.members`.
    pub index: usize,
}

/// Hysteresis controller for fidelity brownout. Each *step* lowers the
/// served chop factor by one — a cheaper ring-prefix read (§3.2) — so
/// under overload the server trades resolution for throughput before it
/// trades availability. Watermarks are queue-fill fractions; the gap
/// between them (plus `dwell`) is the hysteresis that prevents level
/// flapping at the boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Step fidelity *down* when the queue fill fraction reaches this.
    pub high_watermark: f64,
    /// Step fidelity back *up* when the fill fraction drops to this.
    pub low_watermark: f64,
    /// A worker job (the read and slab of one chunk) slower than this
    /// also counts as pressure: queue depth alone misses a slow disk.
    pub slow_batch: Duration,
    /// Minimum time between level changes in either direction.
    pub dwell: Duration,
    /// Most fidelity steps the governor may take (served cf never drops
    /// below 1 regardless).
    pub max_steps: u8,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            high_watermark: 0.75,
            low_watermark: 0.25,
            slow_batch: Duration::from_millis(200),
            dwell: Duration::from_millis(250),
            max_steps: 2,
        }
    }
}

/// Runtime state of the brownout governor: the current level (fidelity
/// steps currently shaved off every fetch) plus the dwell clock. Inert
/// when the config is `None` — `level()` is pinned at 0 and observations
/// are no-ops, so brownout-off servers behave exactly as before.
struct Brownout {
    config: Option<BrownoutConfig>,
    level: AtomicU32,
    last_change: Mutex<Instant>,
}

impl Brownout {
    fn new(config: Option<BrownoutConfig>) -> Brownout {
        Brownout { config, level: AtomicU32::new(0), last_change: Mutex::new(Instant::now()) }
    }

    /// Fidelity steps currently applied to every admitted fetch.
    fn level(&self) -> u8 {
        if self.config.is_none() {
            return 0;
        }
        self.level.load(Ordering::Relaxed).min(u32::from(u8::MAX)) as u8
    }

    /// Feed one observation (queue depth at admission, or a finished
    /// worker job with its wall time) and maybe step the level. Steps
    /// serialize on the dwell clock's mutex so concurrent observations
    /// can't double-step.
    fn observe(&self, depth: usize, capacity: usize, job: Option<Duration>, stats: &ServeStats) {
        let Some(cfg) = &self.config else { return };
        let fill = depth as f64 / capacity.max(1) as f64;
        let slow = job.is_some_and(|d| d >= cfg.slow_batch);
        let pressure = slow || fill >= cfg.high_watermark;
        let relieved = !slow && fill <= cfg.low_watermark;
        let mut last = self.last_change.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        if now.duration_since(*last) < cfg.dwell {
            return;
        }
        let lvl = self.level.load(Ordering::Relaxed);
        if pressure && lvl < u32::from(cfg.max_steps) {
            self.level.store(lvl + 1, Ordering::Relaxed);
            *last = now;
            stats.brownout_steps_down.fetch_add(1, Ordering::Relaxed);
        } else if relieved && lvl > 0 {
            self.level.store(lvl - 1, Ordering::Relaxed);
            *last = now;
            stats.brownout_steps_up.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What a worker sends back for one admitted fetch: the encoded,
/// shareable reply slab, or a typed error.
type JobResult = std::result::Result<Arc<ResponseSlab>, (ErrorCode, String)>;

/// One admitted cache miss: read `chunk` of `container` at `read_cf`
/// (already resolved — never 0) and send the result to `reply`. A job
/// that sits in the queue past `expires` is shed with
/// `DeadlineExceeded` instead of read — by then the client has (or
/// should have) moved on, so reading would burn a worker pass on an
/// answer nobody reads.
struct Job {
    container: u32,
    chunk: u32,
    read_cf: u8,
    expires: Option<Instant>,
    reply: mpsc::SyncSender<JobResult>,
    /// Admitting tenant — `Wfq::complete` releases its quota when the
    /// reply is sent.
    tenant: u32,
    /// Reply bytes charged against the tenant's byte quota.
    cost: u64,
}

impl Job {
    /// Deliver the result and release this request's slice of its
    /// tenant's in-flight quota — the single place both happen, so the
    /// conservation invariant (answered exactly once, released exactly
    /// once) holds on every exit path out of a worker.
    ///
    /// The quota is released *before* the reply leaves: the instant a
    /// client holds the answer, the in-flight accounting has already let
    /// go, so a quiesced observer (a stats poll, a map push counting its
    /// drains) can never see a request that was in fact answered.
    fn finish(self, shared: &Shared, result: JobResult) {
        shared.queue.complete(self.tenant, self.cost);
        let _ = self.reply.send(result);
    }
}

/// The server's *live* cluster identity: the map it routes by right now
/// plus where it sits in that map. Unlike the boot-time [`ShardRole`],
/// the slot is mutable — a `MapPush` swaps the map (and possibly the
/// index) on a running server under the `Shared::shard` write lock.
struct ShardSlot {
    /// Stable member name — survives every push; the index is re-derived
    /// from it against each installed map (`usize::MAX` when the new map
    /// no longer names this server: it then serves nothing and answers
    /// every fetch with `WrongShard`, the post-handoff state of a member
    /// that left).
    name: String,
    /// The map this server currently routes by.
    map: ShardMap,
    /// This server's index into `map.members` (out of range = not a
    /// member).
    index: usize,
    /// `(container, chunk)` keys served under `map` (0 at epoch 0) —
    /// the stats figure, recomputed at every install.
    owned: u64,
}

/// One served container as the bind-time [`DczReader::open`] probe found
/// it: where it lives, plus the validated header and index that admission,
/// `Info`, quota costs and reply slabs read.
struct Container {
    path: PathBuf,
    header: Header,
    index: Vec<IndexEntry>,
}

/// State shared by the listener, connection threads, and workers. The
/// cache stores *encoded* reply slabs, so a hit skips the read and the
/// slab copy, and fan-out is an `Arc` bump.
struct Shared {
    containers: Vec<Container>,
    queue: Wfq<Job>,
    cache: ChunkCache,
    stats: ServeStats,
    shutdown: AtomicBool,
    config: ServeConfig,
    brownout: Brownout,
    /// This server's live cluster identity. A read lock guards every
    /// admission-path ownership check; the write lock is taken only by
    /// the (rare) `MapPush` install, so steady-state contention is nil.
    shard: RwLock<ShardSlot>,
    /// Chunk count per served container, frozen at bind — the key-space
    /// geometry the owned/handoff figures are computed over.
    chunk_counts: Vec<u32>,
}

/// A bound (but not yet accepting) server. [`Server::run`] blocks the
/// calling thread; [`Server::spawn`] runs it on a background thread and
/// returns a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Control handle for a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: thread::JoinHandle<()>,
}

impl Server {
    /// Open every container in `stores`, bind `addr`, and start the
    /// worker pool. Accepting begins when `run`/`spawn` is called.
    pub fn bind(
        addr: impl ToSocketAddrs,
        stores: &[impl AsRef<Path>],
        config: ServeConfig,
    ) -> crate::Result<Server> {
        let mut containers = Vec::with_capacity(stores.len());
        for p in stores {
            let probe = DczReader::open(p)?;
            // A reply that cannot be framed could never be answered:
            // refuse the container now instead of failing every fetch.
            let frame_len = largest_reply_frame(probe.index());
            if frame_len > u64::from(MAX_FRAME) {
                let store = p.as_ref().display().to_string();
                return Err(ServeError::ReplyTooLarge { store, frame_len });
            }
            let (header, index) = (*probe.header(), probe.index().to_vec());
            containers.push(Container { path: p.as_ref().to_path_buf(), header, index });
        }
        let quota =
            TenantQuota { max_inflight: config.tenant_inflight, max_bytes: config.tenant_bytes };
        // Bind before building the shared state: a solo server's implicit
        // shard map names the *bound* address (port 0 resolves here).
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let chunk_counts: Vec<u32> = containers.iter().map(|c| c.index.len() as u32).collect();
        let slot = match &config.shard {
            Some(role) => {
                if role.index >= role.map.len() {
                    return Err(ServeError::Protocol(format!(
                        "shard index {} outside the {}-member map",
                        role.index,
                        role.map.len()
                    )));
                }
                ShardSlot {
                    name: role.map.members[role.index].name.clone(),
                    map: role.map.clone(),
                    index: role.index,
                    owned: 0,
                }
            }
            None => {
                // Boot solo under the configured member name (or the
                // anonymous "solo"): a one-member map owns every key
                // whatever the name, and a later MapPush naming this
                // server adopts it into the cluster by that name.
                let name = config.shard_name.clone().unwrap_or_else(|| "solo".into());
                let map = ShardMap::new(
                    0,
                    0,
                    1,
                    1,
                    vec![ShardMember { name: name.clone(), addr: addr.to_string() }],
                );
                ShardSlot { name, map, index: 0, owned: 0 }
            }
        };
        // Precompute the owned-key count for the stats frame. A solo map
        // owns everything trivially; report 0 there so the figure only
        // carries signal in a real cluster.
        let slot = ShardSlot {
            owned: if slot.map.epoch == 0 {
                0
            } else {
                slot.map.owned_keys(slot.index, &chunk_counts)
            },
            ..slot
        };
        let shared = Arc::new(Shared {
            containers,
            queue: Wfq::new(config.queue_depth, config.quantum, quota),
            cache: ChunkCache::new(config.cache_entries),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            brownout: Brownout::new(config.brownout),
            config: config.clone(),
            shard: RwLock::new(slot),
            chunk_counts,
        });
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            // A failed spawn is a typed bind error, not a process abort;
            // closing the queue lets any workers that did start exit.
            let handle = thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .map_err(|e| {
                    shared.queue.close();
                    ServeError::Io(e)
                })?;
            workers.push(handle);
        }
        Ok(Server { listener, addr, shared, workers })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept and serve until a `Shutdown` frame (or a handle) sets the
    /// flag, then tear down in order: drain connections, close the
    /// queue, join workers.
    pub fn run(self) {
        let Server { listener, shared, workers, .. } = self;
        accept_loop(&listener, &shared);
        // Every job a connection admitted has been replied to by now, so
        // closing the queue lets workers drain the (empty) backlog and exit.
        shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
    }

    /// Run on a background thread; the returned handle can stop it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = thread::Builder::new()
            .name("serve-listener".into())
            .spawn(move || self.run())
            .expect("spawn listener thread");
        ServerHandle { addr, shared, thread }
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Set the shutdown flag (equivalent to a `Shutdown` frame).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Wait for the full teardown ordering to finish.
    pub fn join(self) {
        let _ = self.thread.join();
    }

    /// [`ServerHandle::shutdown`] + [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// The accept loop: nonblocking listener polled at 5 ms, one blocking
/// [`handle_conn`] thread per accepted connection.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    // Failing to unblock the listener would turn the shutdown poll into a
    // hang — refuse to serve instead of aborting the process.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("serve: cannot set listener non-blocking, refusing to serve: {e}");
        return;
    }
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut conn_index: u64 = 0;
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.retain(|h| !h.is_finished());
                if conns.len() >= shared.config.max_conns.max(1) {
                    reject_at_accept(shared, stream);
                    continue;
                }
                shared.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                shared.stats.conns_active.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let index = conn_index;
                conn_index += 1;
                conns.push(thread::spawn(move || {
                    match shared.config.chaos {
                        Some(plan) if plan.is_active() => {
                            handle_conn(&shared, FaultyStream::new(stream, plan.derive(index)))
                        }
                        _ => handle_conn(&shared, stream),
                    }
                    shared.stats.conns_active.fetch_sub(1, Ordering::Relaxed);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    // Connections answer their in-flight request, then exit at the
    // next frame boundary (they poll the same flag).
    for c in conns {
        let _ = c.join();
    }
}

/// Typed `Overloaded` rejection, sent without reading the Hello first.
fn reject_at_accept(shared: &Shared, stream: std::net::TcpStream) {
    shared.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
    let mut s = stream;
    let _ =
        protocol::write_response(&mut s, &err(ErrorCode::Overloaded, "connection limit reached"));
}

/// The `len` field of the largest `Chunk` reply a container can produce:
/// its longest chunk's stored bytes, served whole at the stored fidelity.
fn largest_reply_frame(index: &[IndexEntry]) -> u64 {
    protocol::chunk_frame_len(index.iter().map(|e| u64::from(e.len)).max().unwrap_or(0))
}

fn classify(e: &StoreError) -> ErrorCode {
    match e {
        StoreError::InvalidArg(_) | StoreError::NonFinite { .. } | StoreError::Unsupported(_) => {
            ErrorCode::BadRequest
        }
        StoreError::Format(_) | StoreError::Core(_) | StoreError::Codec(_) => ErrorCode::Corrupt,
        StoreError::Io(_) | StoreError::Panic(_) => ErrorCode::Internal,
    }
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

// ---------------------------------------------------------------- workers

/// A worker's own reader of each served container, opened on its first
/// job there and kept after a failed read: every read seeks to its chunk
/// first.
type Readers = Vec<Option<DczReader<BufReader<File>>>>;

fn worker_loop(shared: &Shared) {
    let mut readers: Readers = shared.containers.iter().map(|_| None).collect();
    while let Some(job) = shared.queue.pop() {
        if let Some(d) = shared.config.worker_delay {
            thread::sleep(d);
        }
        let t0 = Instant::now();
        process_job(shared, &mut readers, job);
        // Job wall time feeds the brownout governor: a slow read is
        // pressure even when the queue looks shallow.
        shared.brownout.observe(
            shared.queue.len(),
            shared.queue.capacity(),
            Some(t0.elapsed()),
            &shared.stats,
        );
    }
}

/// Answer one admitted fetch: read its chunk's stored bytes and copy them
/// into **one** shared [`ResponseSlab`] — the only per-chunk memcpy on the
/// reply path — that the cache and the client both hold.
fn process_job(shared: &Shared, readers: &mut Readers, job: Job) {
    // Shed a job whose deadline expired while it queued — before any read,
    // the same pre-worker edge as `Overloaded`.
    if job.expires.is_some_and(|e| e <= Instant::now()) {
        shared.stats.deadline_rejected.fetch_add(1, Ordering::Relaxed);
        let message = format!("chunk {}: deadline expired before read", job.chunk);
        return job.finish(shared, Err((ErrorCode::DeadlineExceeded, message)));
    }
    // Re-check the cache under the key a sibling worker may have filled
    // between admission and now.
    let key = (job.container, job.chunk, job.read_cf);
    if let Some(hit) = shared.cache.peek(&key) {
        return job.finish(shared, Ok(hit));
    }
    // Containers/chunks/fidelities were validated at admission.
    let container = &shared.containers[job.container as usize];
    let reader = &mut readers[job.container as usize];
    let stored = match reader {
        Some(r) => Ok(r),
        None => DczReader::open(&container.path).map(|r| reader.insert(r)),
    }
    .and_then(|r| r.read_chunk_bytes_at(job.chunk as usize, job.read_cf as usize));
    let result = match stored {
        Ok(stored) => {
            shared.stats.chunks_decoded.fetch_add(1, Ordering::Relaxed);
            let e = container.index[job.chunk as usize];
            let slab = ResponseSlab::chunk(e.first_sample, e.samples, job.read_cf, &stored);
            shared.stats.slab_bytes_copied.fetch_add(slab.body().len() as u64, Ordering::Relaxed);
            Ok(Arc::new(slab))
        }
        Err(e) => Err((classify(&e), format!("chunk {}: {e}", job.chunk))),
    };
    if let Ok(slab) = &result {
        shared.cache.insert(key, Arc::clone(slab));
    }
    job.finish(shared, result);
}

// ------------------------------------------------------------ connections

/// One blocking connection thread: the server's one connection path. It
/// owns the connection's [`FrameDecoder`], the `(tenant, weight)` its
/// `Hello` declared, and the three supervision clocks, and it answers each
/// complete frame inline, writing the reply straight to the stream. 50 ms
/// read timeouts keep the clocks ticking.
fn handle_conn<S: Wire>(shared: &Shared, mut stream: S) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let (config, stats) = (&shared.config, &shared.stats);
    let mut decoder = FrameDecoder::new();
    let mut hello: Option<(u32, u8)> = None;
    // The handshake clock runs from accept until the `Hello` exchange
    // completes, whatever the decoder holds; the idle clock restarts at
    // each reply; the slow-loris clock runs while a frame is started but
    // unfinished.
    let opened = Instant::now();
    let mut last_frame = opened;
    let mut partial_since: Option<Instant> = None;
    loop {
        // Shutdown is honored at frame boundaries: every parsed request
        // has been answered by now.
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        let over = |since: Instant, limit: Duration| now.duration_since(since).checked_sub(limit);
        let handshake = hello.is_none().then(|| over(opened, config.handshake_timeout)).flatten();
        let frame = partial_since.and_then(|t0| over(t0, config.frame_deadline));
        let idle = config
            .idle_timeout
            .filter(|_| hello.is_some() && partial_since.is_none())
            .and_then(|limit| over(last_frame, limit));
        // Whichever deadline expired first cuts the connection.
        let expired = [
            (handshake, &stats.handshake_timeouts, "handshake deadline exceeded"),
            (frame, &stats.slow_closed, "frame read deadline exceeded"),
            (idle, &stats.idle_closed, "idle timeout exceeded"),
        ]
        .into_iter()
        .filter_map(|(overdue, counter, what)| Some((overdue?, counter, what)))
        .max_by_key(|&(overdue, ..)| overdue);
        if let Some((_, counter, what)) = expired {
            counter.fetch_add(1, Ordering::Relaxed);
            let _ = protocol::write_response(&mut stream, &err(ErrorCode::DeadlineExceeded, what));
            return;
        }
        match decoder.read_from(&mut stream) {
            // EOF closes silently at a frame boundary, typed mid-frame.
            Ok(0) => {
                if decoder.has_partial() {
                    stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                    let _ = protocol::write_response(
                        &mut stream,
                        &err(ErrorCode::BadFrame, "EOF mid-frame"),
                    );
                }
                return;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return, // I/O failure: nothing to say it to.
        }
        loop {
            match decoder.pop_with(decode_request) {
                Ok(Some(req)) => {
                    partial_since = None;
                    if !answer_frame(shared, &mut stream, &mut hello, req) {
                        return;
                    }
                    // Idle time starts once the reply is out: a fetch
                    // waiting on a worker is not the peer idling.
                    last_frame = Instant::now();
                }
                Ok(None) => break,
                // Bad length or CRC mismatch: the stream is desynchronized.
                Err(e) => {
                    stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                    let message = match e {
                        ServeError::Protocol(m) => m,
                        other => other.to_string(),
                    };
                    let _ =
                        protocol::write_response(&mut stream, &err(ErrorCode::BadFrame, message));
                    return;
                }
            }
        }
        if decoder.has_partial() {
            partial_since.get_or_insert_with(Instant::now);
        }
    }
}

/// Answer one complete frame, parsed in place: the `Hello` exchange
/// first, then every request inline (a fetch blocks on the worker
/// rendezvous). Returns `false` when the connection must close — a fatal
/// protocol error, or a reply that could not be written (or framed) in
/// full.
fn answer_frame<S: Wire>(
    shared: &Shared,
    stream: &mut S,
    hello: &mut Option<(u32, u8)>,
    req: crate::Result<Request>,
) -> bool {
    let req = match req {
        Ok(req) => req,
        // The stream may be misaligned: answer typed, then close.
        Err(e) => {
            let _ = protocol::write_response(stream, &err(ErrorCode::BadRequest, e.to_string()));
            return false;
        }
    };
    let Some((tenant, weight)) = *hello else {
        let refusal = match req {
            Request::Hello { version: PROTO_VERSION, tenant, weight } => {
                // A zero-weight tenant would starve itself.
                *hello = Some((tenant, weight.max(1)));
                let ack = Response::Hello { version: PROTO_VERSION };
                return protocol::write_response(stream, &ack).is_ok();
            }
            Request::Hello { version, .. } => {
                format!("client speaks protocol version {version}, server speaks {PROTO_VERSION}")
            }
            _ => "first frame must be Hello".into(),
        };
        let _ = protocol::write_response(stream, &err(ErrorCode::BadRequest, refusal));
        return false;
    };
    let resp = match req {
        Request::Fetch { container, chunk, read_cf, deadline_ms } => {
            match serve_fetch(shared, tenant, weight, container, chunk, read_cf, deadline_ms) {
                Ok(slab) => return write_slab(shared, stream, &slab).is_ok(),
                Err(resp) => resp,
            }
        }
        // A duplicate Hello is a typed error but not fatal: the stream is
        // still aligned.
        Request::Hello { .. } => err(ErrorCode::BadRequest, "duplicate Hello"),
        Request::Ping => Response::Pong,
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Relaxed);
            Response::ShuttingDown
        }
        Request::Info { container } => {
            let t0 = Instant::now();
            let resp = info(shared, container);
            shared.stats.info_latency_us.record_us(t0.elapsed());
            resp
        }
        Request::Stats => {
            let t0 = Instant::now();
            let resp = Response::Stats(Box::new(stats_report(shared)));
            shared.stats.stats_latency_us.record_us(t0.elapsed());
            resp
        }
        Request::ShardMap => {
            shared.stats.shard_map_fetches.fetch_add(1, Ordering::Relaxed);
            Response::ShardMap(shared.shard.read().unwrap_or_else(|e| e.into_inner()).map.clone())
        }
        Request::MapPush(map) => push_map(shared, &map),
    };
    protocol::write_response(stream, &resp).is_ok()
}

/// Write a shared reply slab — `header ++ body ++ trailer`, then flush —
/// without copying its body.
fn write_slab<S: Wire>(
    shared: &Shared,
    stream: &mut S,
    slab: &ResponseSlab,
) -> std::io::Result<()> {
    shared.stats.slab_bytes_shared.fetch_add(slab.body().len() as u64, Ordering::Relaxed);
    stream.write_all(&slab.header())?;
    stream.write_all(slab.body())?;
    stream.write_all(&slab.trailer())?;
    stream.flush()
}

/// The `Stats` reply: the live counters plus the gauges kept by the
/// queue, cache, brownout governor and shard slot.
fn stats_report(shared: &Shared) -> StatsReport {
    let mut report = shared.stats.snapshot(&shared.queue.depths());
    let cache = shared.cache.snapshot();
    let slot = shared.shard.read().unwrap_or_else(|e| e.into_inner());
    report.queue_depth = shared.queue.len() as u64;
    report.queue_capacity = shared.queue.capacity() as u64;
    report.brownout_level = shared.brownout.level().into();
    report.shard_owned = slot.owned;
    report.shard_epoch = slot.map.epoch;
    report.cache_evictions = cache.evictions;
    report.cache_entries = cache.entries;
    report.cache_capacity = cache.capacity;
    report
}

/// Admit one fetch through [`admit_fetch`] and, when it queues, park on
/// the worker rendezvous until its reply slab (or typed error) arrives.
fn serve_fetch(
    shared: &Shared,
    tenant: u32,
    weight: u8,
    container: u32,
    chunk: u32,
    read_cf: u8,
    deadline_ms: u32,
) -> std::result::Result<Arc<ResponseSlab>, Response> {
    let t0 = Instant::now();
    let expires = (deadline_ms > 0).then(|| t0 + Duration::from_millis(deadline_ms as u64));
    let (tx, rx) = mpsc::sync_channel(1);
    let reply = match admit_fetch(shared, tenant, weight, container, chunk, read_cf, expires, tx) {
        Admission::Ready(slab) => Ok(slab),
        Admission::Rejected(resp) => Err(*resp),
        Admission::Queued => match rx.recv() {
            Ok(Ok(slab)) => Ok(slab),
            Ok(Err((code, message))) => Err(Response::Error { code, message }),
            // A worker died mid-job; its reply sender was dropped.
            Err(_) => Err(err(ErrorCode::Internal, "worker abandoned the request")),
        },
    };
    shared.stats.fetch_latency_us.record_us(t0.elapsed());
    reply
}

/// Install a pushed [`ShardMap`] on this running server — the live-
/// reconfiguration entry point (it runs inline on the pushing
/// connection's thread, under the shard write lock).
///
/// Epoch-ordered: only a strictly higher epoch installs; a re-push of
/// the exact current map is an idempotent ack; stale and same-epoch-
/// conflicting pushes are typed `BadRequest` rejections (and counted).
///
/// Drain-and-handoff: work admitted before the install was validated
/// against the *old* map and carries its reply slot with it, so it
/// completes and is answered normally — at the old epoch — no matter
/// what the new map says (`drained` counts those jobs). Keys this server
/// serves under the old map but not the new one answer `WrongShard`
/// from the very next admission on (`handoffs` counts them). Together:
/// every admitted request is answered exactly once across the epoch
/// boundary, and no key is ever served by a map that does not own it.
fn push_map(shared: &Shared, map: &ShardMap) -> Response {
    let mut slot = shared.shard.write().unwrap_or_else(|e| e.into_inner());
    match ShardMap::plan_install(&slot.map, map) {
        MapInstall::Idempotent => Response::MapPushed { epoch: slot.map.epoch, installed: false },
        MapInstall::Stale => {
            shared.stats.map_push_rejected.fetch_add(1, Ordering::Relaxed);
            err(
                ErrorCode::BadRequest,
                format!(
                    "stale map push: epoch {} is not above current {}",
                    map.epoch, slot.map.epoch
                ),
            )
        }
        MapInstall::Conflict => {
            shared.stats.map_push_rejected.fetch_add(1, Ordering::Relaxed);
            err(
                ErrorCode::BadRequest,
                format!(
                    "conflicting map push: epoch {} already installed with different contents",
                    map.epoch
                ),
            )
        }
        MapInstall::Install => {
            // Everything admitted so far finishes at the old epoch: the
            // jobs carry their own reply slots and never re-consult the
            // map, so the install only has to *count* them.
            let draining: u64 =
                shared.queue.depths().iter().map(|&(_, _, _, inflight)| inflight as u64).sum();
            shared.stats.drained.fetch_add(draining, Ordering::Relaxed);
            let index = map.members.iter().position(|m| m.name == slot.name).unwrap_or(usize::MAX);
            let mut handoffs = 0u64;
            for (container, &n) in shared.chunk_counts.iter().enumerate() {
                for chunk in 0..n {
                    if slot.map.serves(slot.index, container as u32, chunk)
                        && !map.serves(index, container as u32, chunk)
                    {
                        handoffs += 1;
                    }
                }
            }
            shared.stats.handoffs.fetch_add(handoffs, Ordering::Relaxed);
            slot.owned =
                if index >= map.len() { 0 } else { map.owned_keys(index, &shared.chunk_counts) };
            slot.index = index;
            slot.map = map.clone();
            shared.stats.map_pushes.fetch_add(1, Ordering::Relaxed);
            Response::MapPushed { epoch: slot.map.epoch, installed: true }
        }
    }
}

/// How [`admit_fetch`] disposed of one fetch.
enum Admission {
    /// Cache hit — the shared slab, ready to send.
    Ready(Arc<ResponseSlab>),
    /// Admitted to the worker queue; the result arrives at the job's
    /// reply rendezvous.
    Queued,
    /// Validation failure or load shed — answer with this and move on
    /// (boxed: `Response` dwarfs the other variants).
    Rejected(Box<Response>),
}

/// Validate and admit one fetch for `tenant`: resolve `read_cf = 0` to
/// the stored fidelity, apply the brownout fidelity cap, serve cache
/// hits immediately, and shed with a typed `Overloaded` only when the
/// global queue is full or the tenant is over quota. `reply` receives the
/// result when the job queues.
///
/// Brownout applies *before* the cache lookup, so the cache key, the
/// worker's read, and the reply's `served_cf` all see the same
/// effective fidelity — a degraded reply is
/// indistinguishable from an honest coarse fetch at that level, which
/// is exactly the §3.2 prefix property.
#[allow(clippy::too_many_arguments)]
fn admit_fetch(
    shared: &Shared,
    tenant: u32,
    weight: u8,
    container: u32,
    chunk: u32,
    read_cf: u8,
    expires: Option<Instant>,
    reply: mpsc::SyncSender<JobResult>,
) -> Admission {
    // Shard ownership is checked before anything else — a misdirected key
    // is rejected without touching the container, so a cluster member
    // only ever reads (and caches) the chunk ranges it serves. The solo
    // map serves every key, so standalone servers never take this branch.
    // The read lock scopes to this check: once admitted, a job never
    // re-consults the map — that is what lets a concurrent MapPush drain
    // old-epoch work instead of orphaning it.
    {
        let slot = shared.shard.read().unwrap_or_else(|e| e.into_inner());
        if !slot.map.serves(slot.index, container, chunk) {
            shared.stats.shard_misdirected.fetch_add(1, Ordering::Relaxed);
            return match slot.map.owner(container, chunk) {
                Ok(owner) => Admission::Rejected(Box::new(Response::WrongShard {
                    epoch: slot.map.epoch,
                    owner: owner as u32,
                })),
                // An empty map has no owner to point at — unroutable,
                // but still a typed answer rather than a panic.
                Err(e) => Admission::Rejected(Box::new(err(ErrorCode::Internal, e.to_string()))),
            };
        }
    }
    let Some(c) = shared.containers.get(container as usize) else {
        return Admission::Rejected(Box::new(err(
            ErrorCode::NotFound,
            format!("container {container} (server has {})", shared.containers.len()),
        )));
    };
    let Some(entry) = c.index.get(chunk as usize) else {
        return Admission::Rejected(Box::new(err(
            ErrorCode::NotFound,
            format!("chunk {chunk} (container has {})", c.index.len()),
        )));
    };
    let stored = c.header.cf() as u8;
    let resolved = if read_cf == 0 { stored } else { read_cf };
    if resolved > stored {
        return Admission::Rejected(Box::new(err(
            ErrorCode::BadRequest,
            format!("read chop factor {read_cf} outside 1..={stored}"),
        )));
    }
    shared.brownout.observe(shared.queue.len(), shared.queue.capacity(), None, &shared.stats);
    let cf = resolved.saturating_sub(shared.brownout.level()).max(1);
    // Counted only on accepted fetches: a degraded request that is then
    // shed produced no degraded *reply*.
    let count_degraded = || {
        if cf < resolved {
            shared.stats.tenant_degraded(tenant, weight);
        }
    };
    // Hits and misses count admitted fetches only: a shed fetch is neither.
    if let Some(hit) = shared.cache.peek(&(container, chunk, cf)) {
        shared.stats.tenant_accepted(tenant, weight);
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        count_degraded();
        return Admission::Ready(hit);
    }
    // Quota charge: the chunk's stored length (an upper bound — a ring
    // prefix is shorter).
    let cost = u64::from(entry.len);
    // Coarser-than-stored fetches are cheap ring-prefix reads — they ride
    // the priority lane so brownout relief is not stuck behind the very
    // backlog it is trying to drain.
    let priority = cf < stored;
    let job = Job { container, chunk, read_cf: cf, expires, reply, tenant, cost };
    match shared.queue.try_push(tenant, weight, cost, priority, job) {
        Ok(()) => {
            shared.stats.tenant_accepted(tenant, weight);
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            count_degraded();
            Admission::Queued
        }
        Err(PushError::Full(_)) => {
            shared.stats.tenant_shed(tenant, weight);
            Admission::Rejected(Box::new(err(
                ErrorCode::Overloaded,
                format!("admission queue full ({})", shared.queue.capacity()),
            )))
        }
        Err(PushError::Quota(_)) => {
            shared.stats.tenant_shed(tenant, weight);
            Admission::Rejected(Box::new(err(
                ErrorCode::Overloaded,
                format!("tenant {tenant} over its in-flight quota"),
            )))
        }
        Err(PushError::Closed(_)) => {
            Admission::Rejected(Box::new(err(ErrorCode::ShuttingDown, "server is draining")))
        }
    }
}

fn info(shared: &Shared, container: u32) -> Response {
    let Some(c) = shared.containers.get(container as usize) else {
        return err(
            ErrorCode::NotFound,
            format!("container {container} (server has {})", shared.containers.len()),
        );
    };
    let h = &c.header;
    Response::Info(ContainerInfo {
        samples: h.sample_count,
        chunks: h.chunk_count,
        chunk_size: h.chunk_size,
        channels: h.channels,
        n: h.n() as u32,
        cf: h.cf() as u8,
        codec: h.codec.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::scripted::{timeout, Scripted};
    use crate::client::Client;
    use crate::protocol::{encode_frame, encode_request};
    use aicomp_store::writer::pack_file;
    use aicomp_store::StoreOptions;
    use aicomp_tensor::Tensor;
    use std::io::Write;
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k * 17 + i * 29) % 37) as f32 / 5.0 - 3.0).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    fn temp_container(tag: &str, samples: usize) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("aicomp_serve_{tag}_{}.dcz", std::process::id()));
        let opts = StoreOptions::dct(16, 4, 2, 3);
        pack_file(&path, &opts, (0..samples).map(|i| sample(i, 2, 16))).unwrap();
        path
    }

    fn start(tag: &str, config: ServeConfig) -> (PathBuf, ServerHandle) {
        let path = temp_container(tag, 10);
        let server = Server::bind("127.0.0.1:0", &[&path], config).unwrap();
        (path, server.spawn())
    }

    #[test]
    fn hello_info_ping_shutdown_lifecycle() {
        let (path, handle) = start("lifecycle", ServeConfig::default());
        let mut c = Client::connect(handle.addr()).unwrap();
        c.ping().unwrap();
        let info = c.info(0).unwrap();
        assert_eq!(info.samples, 10);
        assert_eq!(info.chunks, 4);
        assert_eq!(info.chunk_size, 3);
        assert_eq!(info.channels, 2);
        assert_eq!(info.n, 16);
        assert_eq!(info.cf, 4);
        assert_eq!(info.codec, "dct2d-n16-cf4");
        assert!(matches!(
            c.info(7),
            Err(crate::ServeError::Server { code: ErrorCode::NotFound, .. })
        ));
        c.shutdown().unwrap();
        handle.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fetch_is_bit_identical_to_direct_reads_and_caches() {
        let (path, handle) = start("fetch", ServeConfig::default());
        let mut direct = aicomp_store::DczReader::open(&path).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        for chunk in 0..direct.chunk_count() as u32 {
            for cf in [0u8, 4, 2, 1] {
                let got = c.fetch(0, chunk, cf).unwrap();
                let eff = if cf == 0 { 4 } else { cf };
                assert_eq!(got.served_cf, eff);
                let want = direct.decompress_chunk_at(chunk as usize, eff as usize).unwrap();
                assert_eq!(got.first_sample, direct.index()[chunk as usize].first_sample);
                let a: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "chunk {chunk} cf {cf}");
            }
        }
        // cf 0 and cf 4 share a cache key; repeat the sweep warm and the
        // bytes must not change.
        for chunk in 0..direct.chunk_count() as u32 {
            let cold = direct.decompress_chunk(chunk as usize).unwrap();
            let warm = c.fetch(0, chunk, 0).unwrap();
            let a: Vec<u32> = warm.data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = cold.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
        let stats = c.stats().unwrap();
        assert!(stats.cache_hits > 0, "warm sweep must hit the cache: {stats:?}");
        assert_eq!(stats.shed, 0);
        c.shutdown().unwrap();
        handle.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn each_admitted_fetch_counts_one_cache_outcome() {
        // N distinct keys cold, then the same N warm: N misses (counted
        // at admission only, not again at the worker's re-check) and N
        // hits — a hit ratio of exactly one half.
        let (path, handle) = start("hitratio", ServeConfig::default());
        let mut c = Client::connect(handle.addr()).unwrap();
        let keys: Vec<(u32, u8)> = (0..4).flat_map(|chunk| [(chunk, 4), (chunk, 2)]).collect();
        for _ in 0..2 {
            for &(chunk, cf) in &keys {
                c.fetch(0, chunk, cf).unwrap();
            }
        }
        let stats = c.stats().unwrap();
        let n = keys.len() as u64;
        assert_eq!((stats.cache_hits, stats.cache_misses), (n, n), "{stats:?}");
        assert_eq!(stats.accepted, 2 * n);
        assert!((stats.cache_hit_ratio() - 0.5).abs() < 1e-12);
        c.shutdown().unwrap();
        handle.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_requests_get_typed_errors_not_hangs() {
        let (path, handle) = start("badreq", ServeConfig::default());
        let mut c = Client::connect(handle.addr()).unwrap();
        for (container, chunk, cf, want) in [
            (9u32, 0u32, 0u8, ErrorCode::NotFound),
            (0, 99, 0, ErrorCode::NotFound),
            (0, 0, 9, ErrorCode::BadRequest),
        ] {
            match c.fetch(container, chunk, cf) {
                Err(crate::ServeError::Server { code, .. }) => assert_eq!(code, want),
                other => panic!("expected {want}, got {other:?}"),
            }
        }
        // The connection survives typed errors.
        c.ping().unwrap();
        c.shutdown().unwrap();
        handle.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_and_missing_hello_are_rejected() {
        let (path, handle) = start("hello", ServeConfig::default());
        // Any version but this build's, older or newer.
        for bad in [0u16, 1, 2, protocol::PROTO_VERSION + 1] {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            let hello = Request::Hello { version: bad, tenant: 0, weight: 1 };
            protocol::write_request(&mut s, &hello).unwrap();
            match protocol::read_response(&mut s, &mut FrameDecoder::new()).unwrap().unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
                other => panic!("expected error, got {other:?}"),
            }
        }
        // No hello at all.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        protocol::write_request(&mut s, &Request::Ping).unwrap();
        match protocol::read_response(&mut s, &mut FrameDecoder::new()).unwrap().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected error, got {other:?}"),
        }
        // `Client::from_stream` refuses any other version up front and
        // handshakes at this build's.
        let stream = || Box::new(TcpStream::connect(handle.addr()).unwrap());
        assert!(Client::from_stream(stream(), protocol::PROTO_VERSION - 1).is_err());
        Client::from_stream(stream(), protocol::PROTO_VERSION).unwrap().ping().unwrap();
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saturation_sheds_with_typed_overloaded() {
        // One slow worker, a queue of 1: concurrent fetches of distinct
        // chunks (no cache help) must split into served and shed — and
        // every client gets *some* typed answer.
        let config = ServeConfig {
            workers: 1,
            queue_depth: 1,
            cache_entries: 0,
            worker_delay: Some(Duration::from_millis(40)),
            ..ServeConfig::default()
        };
        let (path, handle) = start("overload", config);
        let addr = handle.addr();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    match c.fetch(0, t % 4, 0) {
                        Ok(_) => "ok",
                        Err(e) if e.is_overloaded() => "shed",
                        Err(e) => panic!("expected Ok or Overloaded, got {e}"),
                    }
                })
            })
            .collect();
        let outcomes: Vec<&str> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let shed = outcomes.iter().filter(|o| **o == "shed").count();
        assert!(shed >= 1, "8 clients into a depth-1 queue must shed: {outcomes:?}");
        assert!(outcomes.len() - shed >= 1, "someone must be served: {outcomes:?}");
        let mut c = Client::connect(addr).unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(stats.shed, shed as u64);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn brownout_degrades_fidelity_and_flags_served_cf() {
        // Watermarks that always read as pressure and a zero dwell force
        // the governor to its max level immediately — every fetch is
        // served 2 fidelity steps down, flagged, and bit-identical to a
        // direct ring-prefix read at that level.
        let config = ServeConfig {
            brownout: Some(BrownoutConfig {
                high_watermark: 0.0,
                low_watermark: -1.0,
                slow_batch: Duration::from_secs(3600),
                dwell: Duration::ZERO,
                max_steps: 2,
            }),
            ..ServeConfig::default()
        };
        let (path, handle) = start("brownout", config);
        let mut direct = aicomp_store::DczReader::open(&path).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        // Two admissions ratchet the level 0 → 1 → 2 (one step per
        // observation); from the third fetch on the level is pinned.
        c.fetch(0, 0, 4).unwrap();
        c.fetch(0, 0, 4).unwrap();
        for chunk in 0..direct.chunk_count() as u32 {
            let got = c.fetch(0, chunk, 4).unwrap();
            assert_eq!(got.served_cf, 2, "stored cf 4 minus 2 brownout steps");
            assert!(got.degraded(), "served below the requested fidelity must be flagged");
            let want = direct.decompress_chunk_at(chunk as usize, 2).unwrap();
            let a: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "degraded chunk {chunk} must bit-match a direct cf-2 read");
        }
        let stats = c.stats().unwrap();
        assert_eq!(stats.brownout_level, 2);
        assert_eq!(stats.brownout_steps_down, 2);
        assert_eq!(stats.brownout_steps_up, 0);
        assert_eq!(stats.shed, 0, "brownout degrades instead of shedding");
        assert!(stats.degraded >= direct.chunk_count() as u64);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tenant_quota_sheds_the_offender_only() {
        // A tenant may hold at most one request in flight. A slow worker
        // keeps the first fetch in flight while a second connection of
        // the *same* tenant tries to queue another distinct chunk — that
        // one sheds with a typed Overloaded; a different tenant admits
        // fine through the same (deep) global queue.
        let config = ServeConfig {
            workers: 1,
            cache_entries: 0,
            worker_delay: Some(Duration::from_millis(150)),
            tenant_inflight: 1,
            ..ServeConfig::default()
        };
        let (path, handle) = start("quota", config);
        let addr = handle.addr();
        let hog = std::thread::spawn(move || {
            let mut c = Client::connect_tenant(addr, 7, 1).unwrap();
            c.fetch(0, 0, 0).unwrap()
        });
        thread::sleep(Duration::from_millis(50));
        let mut same = Client::connect_tenant(addr, 7, 1).unwrap();
        match same.fetch(0, 1, 0) {
            Err(e) if e.is_overloaded() => {}
            other => panic!("expected a tenant-quota shed, got {other:?}"),
        }
        let mut other = Client::connect_tenant(addr, 8, 1).unwrap();
        other.fetch(0, 2, 0).unwrap();
        hog.join().unwrap();
        // With the hog answered its quota is released and the same
        // tenant admits again.
        same.fetch(0, 1, 0).unwrap();
        let stats = same.stats().unwrap();
        assert_eq!(stats.shed, 1);
        let t7 = stats.tenants.iter().find(|t| t.tenant == 7).unwrap();
        assert_eq!(t7.shed, 1);
        assert_eq!(t7.accepted, 2);
        let t8 = stats.tenants.iter().find(|t| t.tenant == 8).unwrap();
        assert_eq!(t8.shed, 0);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    /// A script entry carrying one framed request.
    fn frame(req: &Request) -> std::io::Result<Vec<u8>> {
        let (op, body) = encode_request(req);
        Ok(encode_frame(op, &body).unwrap())
    }

    fn hello() -> std::io::Result<Vec<u8>> {
        frame(&Request::hello())
    }

    /// Enough scripted read timeouts to outlast any test deadline.
    fn silence() -> impl Iterator<Item = std::io::Result<Vec<u8>>> {
        std::iter::repeat_with(timeout).take(5_000)
    }

    /// Run one connection over a scripted wire until `handle_conn` closes
    /// it, and return every reply it wrote, decoded in order.
    fn converse(
        handle: &ServerHandle,
        script: impl IntoIterator<Item = std::io::Result<Vec<u8>>>,
    ) -> Vec<Response> {
        let wire = Scripted::new(script);
        let written = wire.written();
        handle_conn(&handle.shared, wire);
        // `read_response` errs on EOF mid-frame: every reply is a whole frame.
        let written = written.lock().unwrap();
        let (mut r, mut dec) = (written.as_slice(), FrameDecoder::new());
        std::iter::from_fn(|| protocol::read_response(&mut r, &mut dec).unwrap()).collect()
    }

    fn assert_error(resp: &Response, want: ErrorCode, text: &str) {
        match resp {
            Response::Error { code, message } => {
                assert_eq!(*code, want, "{message}");
                assert!(message.contains(text), "{message:?} lacks {text:?}");
            }
            other => panic!("expected a {want} error, got {other:?}"),
        }
    }

    const ACK: Response = Response::Hello { version: PROTO_VERSION };

    #[test]
    fn conn_handshakes_then_answers_each_frame() {
        let (path, handle) = start("conn_hello", ServeConfig::default());
        let replies = converse(&handle, [hello(), frame(&Request::Ping)]);
        assert_eq!(replies, [ACK, Response::Pong]);
        // EOF at a frame boundary closed the connection silently.
        assert_eq!(stats_report(&handle.shared).bad_frames, 0);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn conn_records_the_hello_tenant_and_weight() {
        let (path, handle) = start("conn_tenant", ServeConfig::default());
        let fetch =
            |chunk| frame(&Request::Fetch { container: 0, chunk, read_cf: 0, deadline_ms: 0 });
        for (tenant, weight, chunk) in [(42, 5, 0), (7, 0, 1)] {
            let hello = frame(&Request::Hello { version: PROTO_VERSION, tenant, weight });
            let replies = converse(&handle, [hello, fetch(chunk)]);
            assert_eq!(replies[0], ACK);
            assert!(matches!(replies[1], Response::Chunk { .. }), "{:?}", replies[1]);
        }
        let ledger = stats_report(&handle.shared).tenants;
        let weight_of = |id| ledger.iter().find(|t| t.tenant == id).map(|t| (t.weight, t.accepted));
        assert_eq!(weight_of(42), Some((5, 1)));
        assert_eq!(weight_of(7), Some((1, 1)), "a declared weight of 0 reads as 1");
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_handshakes_get_a_typed_reply_then_close() {
        let (path, handle) = start("conn_badhello", ServeConfig::default());
        // Each refusal is the only reply: the Ping behind it goes unread.
        let ping = || frame(&Request::Ping);
        for v in [0, 1, 2, PROTO_VERSION + 1, 99] {
            let hello = frame(&Request::Hello { version: v, tenant: 0, weight: 1 });
            let replies = converse(&handle, [hello, ping()]);
            let text = format!("client speaks protocol version {v}, server speaks {PROTO_VERSION}");
            assert_eq!(replies.len(), 1, "version {v}: {replies:?}");
            assert_error(&replies[0], ErrorCode::BadRequest, &text);
        }
        let replies = converse(&handle, [ping(), hello()]);
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert_error(&replies[0], ErrorCode::BadRequest, "first frame must be Hello");
        // A CRC-less (pre-checksum) Hello is a framing failure.
        let (op, body) = encode_request(&Request::hello());
        let mut bare = (1 + body.len() as u32).to_le_bytes().to_vec();
        bare.push(op);
        bare.extend_from_slice(&body);
        let replies = converse(&handle, [Ok(bare), ping()]);
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert_error(&replies[0], ErrorCode::BadFrame, "");
        // After the handshake, a body that does not decode is fatal too.
        let (op, mut body) = encode_request(&Request::Ping);
        body.push(9);
        let replies = converse(&handle, [hello(), Ok(encode_frame(op, &body).unwrap()), ping()]);
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert_error(&replies[1], ErrorCode::BadRequest, "trailing bytes");
        assert_eq!(stats_report(&handle.shared).bad_frames, 1);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_hello_is_typed_but_not_fatal() {
        let (path, handle) = start("conn_duphello", ServeConfig::default());
        let replies = converse(&handle, [hello(), hello(), frame(&Request::Ping)]);
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert_eq!(replies[0], ACK);
        assert_error(&replies[1], ErrorCode::BadRequest, "duplicate Hello");
        assert_eq!(replies[2], Response::Pong, "the stream survives a duplicate Hello");
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_mismatch_closes_with_bad_frame() {
        let (path, handle) = start("conn_crc", ServeConfig::default());
        let mut stats = frame(&Request::Stats).unwrap();
        *stats.last_mut().unwrap() ^= 1; // corrupt the CRC
        let replies = converse(&handle, [hello(), Ok(stats), frame(&Request::Ping)]);
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert_error(&replies[1], ErrorCode::BadFrame, "frame checksum mismatch");
        assert_eq!(stats_report(&handle.shared).bad_frames, 1);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eof_mid_frame_is_bad_frame_at_boundary_is_clean() {
        let (path, handle) = start("conn_eof", ServeConfig::default());
        assert_eq!(converse(&handle, [hello()]), [ACK]);
        assert_eq!(stats_report(&handle.shared).bad_frames, 0);
        let replies = converse(&handle, [hello(), Ok(vec![3, 0, 0])]); // half a length prefix
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert_error(&replies[1], ErrorCode::BadFrame, "EOF mid-frame");
        assert_eq!(stats_report(&handle.shared).bad_frames, 1);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn each_deadline_cuts_with_its_reply_and_counter() {
        let limit = Duration::from_millis(40);
        let config = ServeConfig {
            handshake_timeout: limit,
            idle_timeout: Some(limit),
            frame_deadline: limit,
            ..ServeConfig::default()
        };
        let (path, handle) = start("conn_deadlines", config);
        let counters = || {
            let s = stats_report(&handle.shared);
            [s.handshake_timeouts, s.idle_closed, s.slow_closed]
        };
        // The Hello, then a 64-byte frame of which 1 byte is sent, in one
        // read, so the idle clock never runs between them.
        let started = || Ok([hello().unwrap(), vec![64, 0, 0, 0, 2]].concat());
        for (script, what, want) in [
            (vec![], "handshake deadline exceeded", [1, 0, 0]),
            (vec![hello()], "idle timeout exceeded", [1, 1, 0]),
            (vec![started()], "frame read deadline exceeded", [1, 1, 1]),
        ] {
            let acks = usize::from(!script.is_empty());
            let replies = converse(&handle, script.into_iter().chain(silence()));
            assert_eq!(replies[..acks], [ACK][..acks], "{what}: {replies:?}");
            assert_eq!(replies.len(), acks + 1, "{what}: {replies:?}");
            assert_error(&replies[acks], ErrorCode::DeadlineExceeded, what);
            assert_eq!(counters(), want, "{what}");
        }
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_clock_restarts_after_the_reply() {
        // A fetch that waits on the worker longer than the idle timeout
        // is not idleness: the next request on the connection is served.
        let config = ServeConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            worker_delay: Some(Duration::from_millis(500)),
            cache_entries: 0,
            ..ServeConfig::default()
        };
        let (path, handle) = start("conn_idle_reply", config);
        let fetch = Request::Fetch { container: 0, chunk: 0, read_cf: 0, deadline_ms: 0 };
        let script = [hello(), frame(&fetch), timeout(), frame(&Request::Ping)];
        match &converse(&handle, script)[..] {
            [ACK, Response::Chunk { .. }, Response::Pong] => {}
            [.., last] => panic!("expected ack, Chunk, Pong; the last reply is {last:?}"),
            [] => panic!("no reply"),
        }
        assert_eq!(stats_report(&handle.shared).idle_closed, 0);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_hello_is_cut_at_the_handshake_deadline() {
        // The frame deadline is far longer than the handshake deadline:
        // part of a Hello must not stretch the handshake to it.
        let config = ServeConfig {
            handshake_timeout: Duration::from_millis(100),
            frame_deadline: Duration::from_secs(3),
            ..ServeConfig::default()
        };
        let (path, handle) = start("conn_partialhello", config);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let t0 = Instant::now();
        s.write_all(&[64, 0]).unwrap(); // half a length prefix
        match protocol::read_response(&mut s, &mut FrameDecoder::new()).unwrap() {
            Some(Response::Error { code: ErrorCode::DeadlineExceeded, message }) => {
                assert_eq!(message, "handshake deadline exceeded");
            }
            other => panic!("expected the handshake deadline, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(2), "cut after {:?}", t0.elapsed());
        let stats = Client::connect(handle.addr()).unwrap().stats().unwrap();
        assert_eq!((stats.handshake_timeouts, stats.slow_closed), (1, 0), "{stats:?}");
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_shard_redirect_round_trips_over_one_connection() {
        use crate::shard::ShardMember;
        // The full redirect conversation: a misdirected fetch is answered
        // WrongShard, the client fetches the map on the same connection
        // and recomputes the owner, which matches the redirect.
        let members = ["a:1", "b:2", "c:3"].iter().enumerate();
        let map = ShardMap::new(
            2,
            77,
            64,
            2,
            members
                .map(|(i, addr)| ShardMember { name: format!("shard{i}"), addr: addr.to_string() })
                .collect(),
        );
        let config = ServeConfig {
            shard: Some(ShardRole { map: map.clone(), index: 0 }),
            ..ServeConfig::default()
        };
        let (path, handle) = start("conn_redirect", config);
        // Find a key shard 0 does not serve.
        let (container, chunk) =
            (0..100u32).map(|k| (0, k)).find(|&(c, k)| !map.serves(0, c, k)).unwrap();
        let owner = map.owner(container, chunk).unwrap() as u32;
        let fetch = Request::Fetch { container, chunk, read_cf: 0, deadline_ms: 0 };
        let replies = converse(&handle, [hello(), frame(&fetch), frame(&Request::ShardMap)]);
        match &replies[..] {
            [ACK, Response::WrongShard { epoch, owner: to }, Response::ShardMap(fetched)] => {
                assert_eq!((*epoch, *to), (map.epoch, owner));
                // ...and re-routes to exactly the shard the redirect named.
                assert_eq!(fetched.owner(container, chunk).unwrap() as u32, owner);
            }
            other => panic!("expected ack, WrongShard, ShardMap; got {other:?}"),
        }
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bind_refuses_containers_whose_replies_cannot_be_framed() {
        let entry = |len| IndexEntry { offset: 0, len, first_sample: 0, samples: 1, crc: 0 };
        let index = |lens: &[u32]| lens.iter().map(|&l| entry(l)).collect::<Vec<_>>();
        // `len` = opcode 1 + Chunk fields 17 + stored bytes + CRC 4, for the
        // longest chunk in the index, whatever the fidelity asked for.
        let frame = |stored: u32| 22 + u64::from(stored);
        let fits = MAX_FRAME - 22;
        assert_eq!(largest_reply_frame(&index(&[fits])), u64::from(MAX_FRAME));
        assert_eq!(largest_reply_frame(&index(&[7, fits + 1, 9])), frame(fits + 1));
        assert!(frame(fits + 1) > u64::from(MAX_FRAME));
        assert_eq!(largest_reply_frame(&index(&[1042, 21_717, 6_197])), frame(21_717));
        // A servable container binds; the refusal names the store and sizes.
        let path = temp_container("bind_fits", 10);
        Server::bind("127.0.0.1:0", &[&path], ServeConfig::default())
            .unwrap()
            .spawn()
            .shutdown_and_join();
        std::fs::remove_file(&path).ok();
        let big = frame(u32::MAX);
        let refusal = ServeError::ReplyTooLarge { store: "big.dcz".into(), frame_len: big };
        let text = refusal.to_string();
        assert!(text.contains("big.dcz") && text.contains(&big.to_string()), "{text}");
        assert!(text.contains(&MAX_FRAME.to_string()) && !refusal.is_retryable(), "{text}");
    }
}
