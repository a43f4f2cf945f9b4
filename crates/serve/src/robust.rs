//! Self-healing client: bounded retry, reconnect, circuit breaking, and
//! replica failover over the idempotent read path.
//!
//! The plain [`Client`] gives up on the first error. That is the right
//! primitive — but a training loader streaming chunks from a replica pool
//! (the Progressive Compressed Records deployment model) must ride
//! through flaky links and replica kills without corrupting or silently
//! dropping data. [`RobustClient`] layers three classic mechanisms over
//! the primitive, all bounded and all seeded:
//!
//! * **Retry with backoff** — reuses the store layer's
//!   [`RetryPolicy`] (the same budget that
//!   governs disk retries governs wire retries). Only *idempotent*
//!   requests go through here — Fetch/Info/Stats/Ping re-ask safely, and
//!   `Shutdown` is idempotent by construction (a second one is a no-op).
//!   Connection-level failures (reset, CRC-mismatch close) drop the
//!   cached connection so the retry reconnects from scratch.
//! * **Per-endpoint circuit breakers** — closed → open (after
//!   `breaker_threshold` consecutive failures) → half-open (one probe
//!   after a seeded cooldown: `cooldown × (0.5 + uniform)` drawn from
//!   SplitMix64, so replicas recovering together don't probe in
//!   lock-step, yet every schedule replays from the seed).
//! * **Failover** — endpoints are tried sticky-first: the preferred
//!   replica serves everything until its breaker opens, then the next
//!   available one becomes preferred. When every breaker is open the
//!   client sleeps until the earliest half-open eligibility instead of
//!   spinning.
//!
//! One engine serves a replica pool and a sharded cluster alike; the
//! addresses passed to [`RobustClient::new`] are whatever the caller can
//! dial. A solo server owns every key, so over replicas the client never
//! leaves the sticky rotation. A cluster member answers a key it does not
//! own with a typed `WrongShard`; the client then fetches the cluster's
//! [`ShardMap`], rebuilds its endpoint set to the full membership, and
//! from then on pins each fetch to the key's replica set in primary-first
//! order, failing over — through the same breakers — only within that
//! set. A stale map is corrected by the next redirect, never by guessing.
//!
//! Pinned fetches can also be **hedged** (opt-in via
//! [`RobustConfig::hedge_fraction`]), which targets tail latency rather
//! than failure. The primary attempt for a key is given only a
//! *fraction* of the call budget at the socket; if no reply lands inside
//! that hedge window, the same fetch fires at the next member of the
//! key's replica set and the first reply wins. The slow
//! primary is not punished — a hedge-window timeout never trips its
//! breaker, and its late reply is *drained* (counted as wasted, not
//! errored) before the connection is reused, so request/reply pairing
//! stays aligned. Fetch is idempotent, so the duplicate ask is safe by
//! construction.
//!
//! Every decision is observable: [`RobustCounters`] tallies attempts,
//! retries, reconnects, failovers, breaker opens, probes, deadline
//! hits, redirects, map refreshes, map pushes, and hedge outcomes
//! (fired/won/lost/wasted), and the chaos tests assert these match the
//! injected fault counts exactly.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aicomp_store::{RetryPolicy, SplitMix64};

use crate::chaos::{FaultyStream, WireCounters, WireFaultPlan};
use crate::client::{Client, FetchedChunk};
use crate::protocol::ContainerInfo;
use crate::shard::{MapInstall, ShardMap};
use crate::stats::StatsReport;
use crate::{Result, ServeError};

/// Tunables for [`RobustClient`].
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// Attempt budget and backoff base, shared with the store layer.
    pub retry: RetryPolicy,
    /// Overall wall-clock budget per call (`None` = unbounded). Also
    /// forwarded to the server as the request deadline, so work the
    /// client will no longer wait for is shed before it is read.
    pub timeout: Option<Duration>,
    /// Consecutive failures that open an endpoint's breaker.
    pub breaker_threshold: u32,
    /// Base cooldown before an open breaker allows a half-open probe.
    pub breaker_cooldown: Duration,
    /// Seed for probe-cooldown jitter (and chaos connection derivation).
    pub seed: u64,
    /// Wrap every connection in a [`FaultyStream`] armed *after* the
    /// handshake with `chaos.derive(k)` for the k-th connection — the
    /// client side of a chaos test.
    pub chaos: Option<WireFaultPlan>,
    /// Tenant id offered in every handshake (0 = the anonymous lane).
    pub tenant: u32,
    /// Weight class offered in every handshake (0 is treated as 1).
    pub weight: u8,
    /// Fraction of [`RobustConfig::timeout`] the primary replica gets
    /// before the same fetch is hedged at the key's next replica
    /// (`0.0` disables hedging; values are meaningful in `(0, 1)`).
    /// Applies once a shard map is installed, and is inert without a
    /// `timeout` — the hedge window is a slice of the call budget, so
    /// there must be one.
    pub hedge_fraction: f64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            retry: RetryPolicy::default(),
            timeout: None,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            seed: 0,
            chaos: None,
            tenant: 0,
            weight: 1,
            hedge_fraction: 0.0,
        }
    }
}

/// Recovery-side counters (all monotonic), shared so tests can hold them
/// while the client is in use elsewhere.
#[derive(Debug, Default)]
pub struct RobustCounters {
    /// Request attempts issued (first tries included).
    pub attempts: AtomicU64,
    /// Attempts that were retries of a failed call.
    pub retries: AtomicU64,
    /// Connections established (first connects included).
    pub connects: AtomicU64,
    /// Connections re-established after a drop.
    pub reconnects: AtomicU64,
    /// Times the preferred endpoint moved to a different replica.
    pub failovers: AtomicU64,
    /// Breaker transitions into open.
    pub breaker_opens: AtomicU64,
    /// Half-open probe attempts.
    pub probes: AtomicU64,
    /// Calls abandoned because the overall budget ran out.
    pub deadline_hits: AtomicU64,
    /// Replies served below the fidelity they asked for (brownout).
    pub degraded: AtomicU64,
    /// Typed `WrongShard` redirects consumed (each one triggers a map
    /// refresh and a re-route).
    pub redirects: AtomicU64,
    /// Shard-map fetches (the first one a redirect triggers, plus every
    /// later refresh).
    pub map_refreshes: AtomicU64,
    /// `MapPush` frames a server acknowledged as installed (via
    /// [`RobustClient::push_map`]; idempotent re-pushes not counted).
    pub map_pushes: AtomicU64,
    /// Hedges fired: primary attempts whose hedge window elapsed without
    /// a reply, triggering a duplicate fetch at the next replica.
    pub hedges_fired: AtomicU64,
    /// Hedges where the duplicate fetch delivered the winning reply.
    pub hedges_won: AtomicU64,
    /// Hedges where the duplicate fetch failed too (the call's outcome
    /// is the hedge's error).
    pub hedges_lost: AtomicU64,
    /// Late primary replies drained and discarded before their
    /// connection was reused — work the cluster did twice.
    pub hedges_wasted: AtomicU64,
}

impl RobustCounters {
    fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }
}

/// Circuit-breaker states (classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests skip this endpoint until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request is allowed through.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Instant,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker { state: BreakerState::Closed, consecutive_failures: 0, open_until: Instant::now() }
    }

    /// May a request go to this endpoint right now? Transitions
    /// open→half-open when the cooldown has elapsed.
    fn admits(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open if now >= self.open_until => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open => false,
        }
    }

    fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Returns true when this failure *opened* the breaker.
    fn on_failure(
        &mut self,
        now: Instant,
        threshold: u32,
        cooldown: Duration,
        rng: &mut SplitMix64,
    ) -> bool {
        self.consecutive_failures += 1;
        let trip =
            self.state == BreakerState::HalfOpen || self.consecutive_failures >= threshold.max(1);
        if trip {
            self.state = BreakerState::Open;
            // Seeded jitter: 0.5×–1.5× the base cooldown, replayable.
            self.open_until = now + cooldown.mul_f64(0.5 + rng.uniform());
        }
        trip
    }
}

struct Endpoint {
    addr: SocketAddr,
    conn: Option<Client>,
    breaker: Breaker,
    ever_connected: bool,
}

impl Endpoint {
    fn new(addr: SocketAddr) -> Endpoint {
        Endpoint { addr, conn: None, breaker: Breaker::new(), ever_connected: false }
    }
}

/// A client over one or more endpoints with retry, circuit breaking,
/// failover, and shard-aware routing once a cluster redirects it.
/// Single-threaded (like [`Client`]); spawn one per worker thread.
pub struct RobustClient {
    endpoints: Vec<Endpoint>,
    config: RobustConfig,
    counters: Arc<RobustCounters>,
    wire: Arc<WireCounters>,
    rng: SplitMix64,
    conn_seq: u64,
    preferred: usize,
    /// The installed cluster map: `None` until a redirect (or a push)
    /// brings one.
    map: Option<ShardMap>,
    /// Fetches served by each shard under pinned routing (asks made
    /// before a map is installed are not tallied — they are not routed).
    routed: Vec<u64>,
}

impl std::fmt::Debug for RobustClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobustClient")
            .field("endpoints", &self.endpoints.iter().map(|e| e.addr).collect::<Vec<_>>())
            .field("preferred", &self.preferred)
            .finish_non_exhaustive()
    }
}

impl RobustClient {
    /// Build a client over `addrs`: replicas of one server, or seed
    /// members of a sharded cluster. They are tried in order (the first
    /// is the initial preferred endpoint) until a `WrongShard` redirect
    /// installs the cluster's map; from then on each fetch goes to its
    /// key's replica set (see the module doc). Connections are opened
    /// lazily, per endpoint, on first use.
    pub fn new(addrs: &[SocketAddr], config: RobustConfig) -> Result<RobustClient> {
        if addrs.is_empty() {
            return Err(ServeError::Protocol("RobustClient needs at least one endpoint".into()));
        }
        let rng = SplitMix64(config.seed ^ 0xC1EC_0B8A_5EED_0001);
        Ok(RobustClient {
            endpoints: addrs.iter().map(|&addr| Endpoint::new(addr)).collect(),
            config,
            counters: Arc::new(RobustCounters::default()),
            wire: Arc::new(WireCounters::default()),
            rng,
            conn_seq: 0,
            preferred: 0,
            map: None,
            routed: Vec::new(),
        })
    }

    /// The recovery counters (shared; keep a clone across calls).
    pub fn counters(&self) -> Arc<RobustCounters> {
        Arc::clone(&self.counters)
    }

    /// Injected-fault counters summed over every chaos-wrapped connection
    /// this client opened (all zero without a chaos plan).
    pub fn wire_counters(&self) -> Arc<WireCounters> {
        Arc::clone(&self.wire)
    }

    /// Fetch and decode one chunk (retried, failed over, and re-routed;
    /// see the module doc). A browned-out server may answer below
    /// `read_cf`; the reply's [`FetchedChunk::degraded`] flag says so and
    /// the `degraded` counter tallies it. Typed `WrongShard` redirects
    /// are consumed by refreshing the map and re-routing. The hop budget
    /// covers the first redirect plus an epoch race — a cluster still
    /// redirecting after that disagrees with its own map, and the
    /// redirect surfaces to the caller.
    pub fn fetch(&mut self, container: u32, chunk: u32, read_cf: u8) -> Result<FetchedChunk> {
        const MAX_HOPS: usize = 3;
        // The remaining budget rides along as the server-side deadline, so
        // queued work we stopped waiting for is shed.
        let op = move |client: &mut Client, remaining: Option<Duration>| {
            client.fetch_deadline(container, chunk, read_cf, remaining)
        };
        let mut last: Option<ServeError> = None;
        for _ in 0..MAX_HOPS {
            let pin = match &self.map {
                Some(m) => Some(m.replicas(container, chunk)?),
                None => None,
            };
            let result = match pin.as_deref() {
                Some(p) => self.fetch_hedged(p, op),
                None => self.call_routed(None, op),
            };
            match result {
                Ok((got, index)) => {
                    if pin.is_some() {
                        if let Some(slot) = self.routed.get_mut(index) {
                            *slot += 1;
                        }
                    }
                    if got.degraded() {
                        self.counters.bump(&self.counters.degraded);
                    }
                    return Ok(got);
                }
                Err(e @ ServeError::WrongShard { .. }) => {
                    self.counters.bump(&self.counters.redirects);
                    self.refresh_map()?;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ServeError::Protocol("redirect loop with no error".into())))
    }

    /// The hedge window for a routed fetch, when hedging applies: the
    /// configured fraction of the call budget, needing a budget to slice
    /// and at least one fallback replica to hedge at.
    fn hedge_window(&self, pin: &[usize]) -> Option<Duration> {
        if self.config.hedge_fraction <= 0.0 || pin.len() < 2 {
            return None;
        }
        let window = self.config.timeout?.mul_f64(self.config.hedge_fraction.min(1.0));
        (window > Duration::ZERO).then_some(window)
    }

    /// One pinned fetch, hedged when `hedge_window` allows. The primary
    /// attempt runs with the *socket* read timeout clamped to the hedge
    /// window while the wire deadline stays the full budget — the server
    /// should still finish the work; it is the client that stops waiting
    /// early. When the window elapses without a reply the connection is
    /// left parked (its late reply is drained before the next request it
    /// carries) and the same fetch re-fires, through the ordinary retry
    /// engine, at the key's remaining replicas. Any other primary failure
    /// gets the ordinary failure bookkeeping and falls back to the plain
    /// routed path.
    fn fetch_hedged<T>(
        &mut self,
        pin: &[usize],
        op: impl Fn(&mut Client, Option<Duration>) -> Result<T> + Copy,
    ) -> Result<(T, usize)> {
        let Some(window) = self.hedge_window(pin) else {
            return self.call_routed(Some(pin), op);
        };
        let primary = pin[0];
        // Hedge only a healthy primary: open breakers and half-open
        // probes belong to the failover machinery, not this one.
        if primary >= self.endpoints.len()
            || self.endpoints[primary].breaker.state != BreakerState::Closed
        {
            return self.call_routed(Some(pin), op);
        }
        let full = self.config.timeout;
        self.counters.bump(&self.counters.attempts);
        match self.attempt_on(primary, Some(window), &mut |client, _| op(client, full)) {
            Ok(got) => {
                self.endpoints[primary].breaker.on_success();
                Ok((got, primary))
            }
            Err(e) if hedge_timeout(&e) => {
                // No reply inside the window: the primary is slow, not
                // known broken — no breaker blame, connection kept (the
                // reply it owes is still coming). Fire the duplicate.
                self.counters.bump(&self.counters.hedges_fired);
                let hedged = self.call_routed(Some(&pin[1..]), op);
                match &hedged {
                    Ok(_) => self.counters.bump(&self.counters.hedges_won),
                    Err(_) => self.counters.bump(&self.counters.hedges_lost),
                }
                hedged
            }
            Err(e) => {
                self.record_failure(primary, e)?;
                self.call_routed(Some(pin), op)
            }
        }
    }

    /// Fetch the cluster map from whichever endpoint answers first and
    /// install it (no-op for a stale answer — a lower epoch than the one
    /// already installed).
    fn refresh_map(&mut self) -> Result<()> {
        self.counters.bump(&self.counters.map_refreshes);
        let (map, _) = self.call_routed(None, |client, _| client.shard_map())?;
        self.install_map(map)
    }

    /// Adopt `map`: rebuild the endpoint set to the full membership in
    /// shard-index order (endpoint index == shard index from here on),
    /// preserving each surviving address's live connection and breaker
    /// state across the refresh.
    fn install_map(&mut self, map: ShardMap) -> Result<()> {
        if let Some(cur) = self.map.as_ref() {
            match ShardMap::plan_install(cur, &map) {
                MapInstall::Install => {}
                // Re-learning the installed map, or hearing an older one
                // from a lagging member, changes nothing.
                MapInstall::Idempotent | MapInstall::Stale => return Ok(()),
                // Two different maps at one epoch means the cluster is
                // inconsistent; routing by either would be a guess.
                MapInstall::Conflict => {
                    return Err(ServeError::Protocol(format!(
                        "conflicting shard map: a member serves a different map at the \
                         installed epoch {}",
                        map.epoch
                    )))
                }
            }
        }
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(map.members.len());
        for m in &map.members {
            let addr = match m.addr.parse() {
                Ok(a) => a,
                Err(_) => {
                    m.addr.to_socket_addrs().ok().and_then(|mut it| it.next()).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "shard map member {:?} has undialable address {:?}",
                            m.name, m.addr
                        ))
                    })?
                }
            };
            addrs.push(addr);
        }
        let mut old = std::mem::take(&mut self.endpoints);
        self.endpoints = addrs
            .into_iter()
            .map(|addr| match old.iter().position(|e| e.addr == addr) {
                Some(i) => old.swap_remove(i),
                None => Endpoint::new(addr),
            })
            .collect();
        self.preferred = 0;
        self.routed.resize(map.members.len(), 0);
        self.map = Some(map);
        Ok(())
    }

    /// Push `map` to the cluster (retried/failed-over like any call) and
    /// adopt it locally, so this client immediately routes by what it
    /// pushed. Returns the epoch the answering server now
    /// routes by and whether the push installed anything (`false` = the
    /// map was already live there). Stale and conflicting pushes are
    /// typed `BadRequest` server errors.
    pub fn push_map(&mut self, map: &ShardMap) -> Result<(u64, bool)> {
        let wire = map.clone();
        let ((epoch, installed), _) =
            self.call_routed(None, move |client, _| client.push_map(&wire))?;
        if installed {
            self.counters.bump(&self.counters.map_pushes);
        }
        self.install_map(map.clone())?;
        Ok((epoch, installed))
    }

    /// The installed cluster map (`None` until a redirect or a push
    /// installs one).
    pub fn ring_map(&self) -> Option<&ShardMap> {
        self.map.as_ref()
    }

    /// Per-shard `(member name, fetches served)` tallies for pinned
    /// fetches — how this client's traffic spread over the cluster.
    /// Empty until a map is installed.
    pub fn routed_counts(&self) -> Vec<(String, u64)> {
        match &self.map {
            Some(map) => {
                map.members.iter().zip(&self.routed).map(|(m, &n)| (m.name.clone(), n)).collect()
            }
            None => Vec::new(),
        }
    }

    /// Describe one served container (retried/failed-over).
    pub fn info(&mut self, container: u32) -> Result<ContainerInfo> {
        self.call(|client, _| client.info(container))
    }

    /// Fetch the preferred replica's counters (retried/failed-over).
    pub fn stats(&mut self) -> Result<StatsReport> {
        self.call(|client, _| client.stats())
    }

    /// Liveness probe (retried/failed-over).
    pub fn ping(&mut self) -> Result<()> {
        self.call(|client, _| client.ping())
    }

    /// Gracefully stop the preferred replica (idempotent: a repeat lands
    /// on an already-draining server and is answered or refused typed).
    pub fn shutdown(&mut self) -> Result<()> {
        self.call(|client, _| client.shutdown())
    }

    /// The retry/failover engine over the sticky endpoint rotation.
    fn call<T>(&mut self, op: impl FnMut(&mut Client, Option<Duration>) -> Result<T>) -> Result<T> {
        self.call_routed(None, op).map(|(v, _)| v)
    }

    /// The retry/failover engine shared by every request kind. With a
    /// `pin`, attempts are confined to those endpoint indices in that
    /// order (a key's replica set, primary first) instead of the sticky
    /// rotation. Returns the successful value *and* the endpoint index
    /// that served it (pinned fetches tally it per shard).
    fn call_routed<T>(
        &mut self,
        pin: Option<&[usize]>,
        mut op: impl FnMut(&mut Client, Option<Duration>) -> Result<T>,
    ) -> Result<(T, usize)> {
        let start = Instant::now();
        let budget = |start: Instant, timeout: Option<Duration>| -> Option<Option<Duration>> {
            // None = budget exhausted; Some(r) = r remaining (None = ∞).
            match timeout {
                None => Some(None),
                Some(t) => t.checked_sub(start.elapsed()).map(Some),
            }
        };
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut last_err: Option<ServeError> = None;
        for attempt in 0..max_attempts {
            let Some(remaining) = budget(start, self.config.timeout) else {
                self.counters.bump(&self.counters.deadline_hits);
                return Err(budget_exhausted(last_err));
            };
            if attempt > 0 {
                self.counters.bump(&self.counters.retries);
                // Same schedule as the store's `with_retry`: backoff << k,
                // shift capped — bounded exponential, never unbounded.
                let nap = self.config.retry.backoff * (1u32 << (attempt - 1).min(6));
                std::thread::sleep(match remaining {
                    Some(r) => nap.min(r),
                    None => nap,
                });
            }
            let index = match self.pick_endpoint(remaining, pin) {
                Ok(i) => i,
                Err(e) => {
                    self.counters.bump(&self.counters.deadline_hits);
                    return Err(e);
                }
            };
            self.counters.bump(&self.counters.attempts);
            match self.attempt_on(index, remaining, &mut op) {
                Ok(v) => {
                    self.endpoints[index].breaker.on_success();
                    return Ok((v, index));
                }
                Err(e) => last_err = Some(self.record_failure(index, e)?),
            }
        }
        Err(last_err
            .unwrap_or_else(|| ServeError::Protocol("retry budget of zero attempts".into())))
    }

    /// The bookkeeping after one failed attempt on endpoint `index`: a
    /// transport failure drops the connection; a fatal typed answer is a
    /// *healthy* server rejecting the request itself, so it clears the
    /// breaker and comes back as `Err` to surface; any other failure is
    /// blamed on the breaker and handed back to retry.
    fn record_failure(&mut self, index: usize, e: ServeError) -> Result<ServeError> {
        if matches!(e, ServeError::Io(_) | ServeError::Protocol(_)) {
            self.endpoints[index].conn = None;
        }
        if !e.is_retryable() {
            self.endpoints[index].breaker.on_success();
            return Err(e);
        }
        let opened = self.endpoints[index].breaker.on_failure(
            Instant::now(),
            self.config.breaker_threshold,
            self.config.breaker_cooldown,
            &mut self.rng,
        );
        if opened {
            self.counters.bump(&self.counters.breaker_opens);
        }
        Ok(e)
    }

    /// Choose the endpoint for the next attempt. Unpinned: sticky
    /// preferred, else the next replica whose breaker admits traffic
    /// (counted as a failover). Pinned: the first index in `pin` whose
    /// breaker admits, in the given (primary-first) order — serving from
    /// any non-primary is counted as a failover, and the sticky
    /// preference is untouched (it is per-key, not global). Either way,
    /// when every candidate breaker is open, sleep until the earliest
    /// can half-open.
    fn pick_endpoint(
        &mut self,
        remaining: Option<Duration>,
        pin: Option<&[usize]>,
    ) -> Result<usize> {
        let n = self.endpoints.len();
        loop {
            let now = Instant::now();
            let order: Vec<usize> = match pin {
                Some(p) => p.iter().copied().filter(|&i| i < n).collect(),
                None => (0..n).map(|off| (self.preferred + off) % n).collect(),
            };
            for (k, &i) in order.iter().enumerate() {
                if self.endpoints[i].breaker.admits(now) {
                    if self.endpoints[i].breaker.state == BreakerState::HalfOpen {
                        self.counters.bump(&self.counters.probes);
                    }
                    match pin {
                        None => {
                            if i != self.preferred {
                                self.counters.bump(&self.counters.failovers);
                                self.preferred = i;
                            }
                        }
                        Some(_) => {
                            if k != 0 {
                                self.counters.bump(&self.counters.failovers);
                            }
                        }
                    }
                    return Ok(i);
                }
            }
            // Every candidate breaker is open: wait for the earliest
            // probe window instead of burning attempts that cannot be
            // admitted. (`new` rejects empty endpoint lists, but a typed
            // error here keeps an impossible state from taking the
            // process down.)
            let Some(earliest) = order.iter().map(|&i| self.endpoints[i].breaker.open_until).min()
            else {
                return Err(ServeError::Protocol("RobustClient has no endpoints".into()));
            };
            let nap = earliest.saturating_duration_since(now);
            if let Some(r) = remaining {
                if nap >= r {
                    return Err(budget_exhausted(None));
                }
            }
            std::thread::sleep(nap + Duration::from_millis(1));
        }
    }

    /// Ensure endpoint `index` has a live connection, then run one
    /// attempt on it with the socket read timeout pinned to the budget.
    fn attempt_on<T>(
        &mut self,
        index: usize,
        remaining: Option<Duration>,
        op: &mut impl FnMut(&mut Client, Option<Duration>) -> Result<T>,
    ) -> Result<T> {
        // Settle replies owed by earlier hedge-window timeouts before
        // this connection carries a new request — a late reply read off
        // here is a hedge's waste, not the answer to the next ask.
        while let Some(conn) = self.endpoints[index].conn.as_mut().filter(|c| c.owed() > 0) {
            self.counters.bump(&self.counters.hedges_wasted);
            // A typed error frame is still a whole reply — the stream
            // stays aligned. Only transport failures poison it.
            if conn.set_op_timeout(self.config.timeout).and_then(|()| conn.read_reply()).is_err() {
                self.endpoints[index].conn = None;
            }
        }
        if self.endpoints[index].conn.is_none() {
            let client = self.open(index)?;
            let ep = &mut self.endpoints[index];
            self.counters.bump(&self.counters.connects);
            if ep.ever_connected {
                self.counters.bump(&self.counters.reconnects);
            }
            ep.ever_connected = true;
            ep.conn = Some(client);
        }
        // Ensured non-None just above; stay typed rather than panicking
        // on a refactor slip — this path runs inside training loops.
        let Some(conn) = self.endpoints[index].conn.as_mut() else {
            return Err(ServeError::Protocol("connection vanished after open".into()));
        };
        conn.set_op_timeout(remaining)?;
        op(conn, remaining)
    }

    /// Dial and handshake one connection. Under a chaos plan the
    /// handshake runs on the *clean* stream and the faults are armed
    /// after it (the arm-after-open discipline), so injected faults hit
    /// steady-state traffic deterministically, not the handshake —
    /// unless the plan's `cover_handshake` flag moves the arming point
    /// before the handshake, putting the `Hello` window in scope too.
    fn open(&mut self, index: usize) -> Result<Client> {
        let stream = TcpStream::connect(self.endpoints[index].addr)?;
        let _ = stream.set_nodelay(true);
        let (tenant, weight) = (self.config.tenant, self.config.weight);
        let Some(plan) = self.config.chaos.filter(WireFaultPlan::is_active) else {
            return Client::handshake(stream, tenant, weight, |s| Box::new(s));
        };
        // The seq is consumed up front, so a fault-killed handshake still
        // advances the per-connection schedule deterministically.
        let derived = plan.derive(self.conn_seq);
        self.conn_seq += 1;
        let (before, after) = match plan.cover_handshake {
            true => (derived, None),
            false => (WireFaultPlan::none(), Some(derived)),
        };
        let faulty = FaultyStream::with_counters(stream, before, Arc::clone(&self.wire));
        Client::handshake(faulty, tenant, weight, move |mut s| {
            if let Some(plan) = after {
                s.set_plan(plan);
            }
            Box::new(s)
        })
    }
}

/// Is this the socket-level "no reply inside the hedge window" signal?
/// `SO_RCVTIMEO` surfaces as `WouldBlock` on Unix and `TimedOut` on
/// Windows; both mean the wait elapsed, not that the peer failed.
fn hedge_timeout(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(io)
        if matches!(io.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut))
}

fn budget_exhausted(last_err: Option<ServeError>) -> ServeError {
    let detail = match last_err {
        Some(e) => format!("call budget exhausted; last error: {e}"),
        None => "call budget exhausted".to_string(),
    };
    ServeError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seed: u64) -> (Breaker, SplitMix64) {
        (Breaker::new(), SplitMix64(seed))
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let (mut b, mut rng) = mk(7);
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(100);
        assert!(b.admits(t0));
        assert!(!b.on_failure(t0, 3, cooldown, &mut rng));
        assert!(!b.on_failure(t0, 3, cooldown, &mut rng));
        assert!(b.admits(t0), "two failures under threshold 3 keep it closed");
        assert!(b.on_failure(t0, 3, cooldown, &mut rng), "third failure trips");
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.admits(t0), "open breaker rejects immediately");
        // Jitter keeps the cooldown in [0.5×, 1.5×].
        let wait = b.open_until - t0;
        assert!(wait >= cooldown / 2 && wait <= cooldown * 3 / 2, "jittered wait {wait:?}");
        // After the window: exactly one probe; success closes it.
        let later = t0 + cooldown * 2;
        assert!(b.admits(later));
        assert_eq!(b.state, BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
    }

    #[test]
    fn half_open_failure_reopens_immediately() {
        let (mut b, mut rng) = mk(9);
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(50);
        for _ in 0..3 {
            b.on_failure(t0, 3, cooldown, &mut rng);
        }
        let later = t0 + cooldown * 2;
        assert!(b.admits(later));
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert!(b.on_failure(later, 3, cooldown, &mut rng), "failed probe re-trips at once");
        assert_eq!(b.state, BreakerState::Open);
    }

    #[test]
    fn breaker_jitter_is_seeded() {
        let schedule = |seed| {
            let (mut b, mut rng) = mk(seed);
            let t0 = Instant::now();
            let mut waits = Vec::new();
            for _ in 0..4 {
                b.on_failure(t0, 1, Duration::from_millis(80), &mut rng);
                waits.push(b.open_until - t0);
                b.on_success();
            }
            waits
        };
        assert_eq!(schedule(3), schedule(3), "same seed, same probe schedule");
        assert_ne!(schedule(3), schedule(4), "different seeds decorrelate");
    }

    #[test]
    fn zero_endpoints_is_an_error_not_a_panic() {
        assert!(RobustClient::new(&[], RobustConfig::default()).is_err());
    }
}
