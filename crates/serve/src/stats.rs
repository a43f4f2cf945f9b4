//! Service counters, histograms, and the serializable stats frame.
//!
//! Two layers: [`ServeStats`] is the live, lock-free (atomic) collector
//! the server threads write into on every request, and [`StatsReport`]
//! is the plain-data snapshot that crosses the wire in a `Stats` reply.
//! Latency is kept as log2-µs histograms — constant memory, no per-request
//! allocation, and good-enough p50/p99 for the `loadgen` benchmark and
//! the `dcz stats` subcommand. Batch sizes are a small linear histogram:
//! its mass above bucket 1 is the direct evidence that the dynamic
//! batcher is coalescing requests into shared decompress passes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cache::CacheSnapshot;
use crate::protocol::BodyReader;
use crate::Result;

/// Log2-µs latency buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` µs; bucket 0 also absorbs sub-µs, the last absorbs
/// everything ≥ ~33 s.
const LATENCY_BUCKETS: usize = 26;
/// Linear batch-size buckets: bucket `i` counts passes of `i + 1` chunks;
/// the last absorbs everything larger.
const BATCH_BUCKETS: usize = 32;

/// Request classes tracked separately in the stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `Info` requests.
    Info = 0,
    /// `Fetch` requests (the hot path).
    Fetch = 1,
    /// `Stats` requests.
    Stats = 2,
}

/// Number of [`Endpoint`] classes.
pub const ENDPOINTS: usize = 3;

/// Names matching [`Endpoint`] discriminants, for display.
pub const ENDPOINT_NAMES: [&str; ENDPOINTS] = ["info", "fetch", "stats"];

#[derive(Debug)]
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let idx = if us <= 1 { 0 } else { (63 - us.leading_zeros()) as usize };
        self.buckets[idx.min(LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// Live counters the server threads write into.
#[derive(Debug)]
pub struct ServeStats {
    /// Requests admitted past the queue (or served from cache).
    pub accepted: AtomicU64,
    /// Requests shed with `Overloaded` at the admission edge.
    pub shed: AtomicU64,
    /// Coalesced decompress passes executed by workers.
    pub decompress_passes: AtomicU64,
    /// Chunks decoded across all passes.
    pub chunks_decoded: AtomicU64,
    /// Connections accepted by the listener.
    pub conns_accepted: AtomicU64,
    /// Connections rejected at accept time (`max_conns` reached).
    pub conns_rejected: AtomicU64,
    /// Connections open right now (gauge: incremented on accept,
    /// decremented when the connection thread finishes).
    pub conns_active: AtomicU64,
    /// Connections closed for not completing the `Hello` exchange within
    /// the handshake deadline.
    pub handshake_timeouts: AtomicU64,
    /// Connections closed after idling past `idle_timeout` between frames.
    pub idle_closed: AtomicU64,
    /// Connections closed for dribbling a frame past `frame_deadline`
    /// (the slow-loris guard).
    pub slow_closed: AtomicU64,
    /// Frames rejected for integrity failures (CRC mismatch, oversize,
    /// malformed) — each also closes its connection.
    pub bad_frames: AtomicU64,
    /// Fetches shed with `DeadlineExceeded` before decoding.
    pub deadline_rejected: AtomicU64,
    /// Bytes encoded into response slabs (one per distinct decode/encode
    /// — the only memcpy of a chunk reply body).
    pub slab_bytes_copied: AtomicU64,
    /// Bytes served *from* shared slabs (every chunk reply; the ratio
    /// shared/copied is the mean fan-out per encode).
    pub slab_bytes_shared: AtomicU64,
    /// Fetches served below the fidelity they resolved to — the brownout
    /// governor stepped them down (each reply carries its `served_cf`).
    pub degraded: AtomicU64,
    /// Brownout level increments (fidelity stepped *down* under pressure).
    pub brownout_steps_down: AtomicU64,
    /// Brownout level decrements (fidelity recovered as pressure cleared).
    pub brownout_steps_up: AtomicU64,
    /// Fetches rejected with a typed `WrongShard` redirect: the key is
    /// not this shard's under the current map (misdirected requests).
    pub misdirected: AtomicU64,
    /// `ShardMap` requests answered (clients refreshing their routing).
    pub shard_map_fetches: AtomicU64,
    /// `MapPush` frames that installed a new shard map (live
    /// reconfiguration; idempotent re-pushes are not counted).
    pub map_pushes: AtomicU64,
    /// `MapPush` frames rejected as stale or same-epoch-conflicting.
    pub map_push_rejected: AtomicU64,
    /// Jobs already admitted when a map push landed — they finish at the
    /// old epoch (the drain half of drain-and-handoff).
    pub drained: AtomicU64,
    /// Keys this shard served under the old map but not the new one at
    /// install time (the handoff half: those keys answer `WrongShard`
    /// from the next request on).
    pub handoffs: AtomicU64,
    requests: [AtomicU64; ENDPOINTS],
    latency: [LatencyHistogram; ENDPOINTS],
    batch: [AtomicU64; BATCH_BUCKETS],
    /// Per-tenant admission counters, keyed by tenant id. A mutex (not
    /// atomics) because the tenant set is dynamic; the critical section
    /// is a hash probe + integer bump.
    tenants: Mutex<HashMap<u32, TenantCounters>>,
}

/// Live per-tenant counters behind the [`ServeStats`] tenant mutex.
#[derive(Debug, Default, Clone, Copy)]
struct TenantCounters {
    weight: u8,
    accepted: u64,
    shed: u64,
    degraded: u64,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    /// Fresh, all-zero collector.
    pub fn new() -> ServeStats {
        ServeStats {
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            decompress_passes: AtomicU64::new(0),
            chunks_decoded: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            handshake_timeouts: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            slow_closed: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            slab_bytes_copied: AtomicU64::new(0),
            slab_bytes_shared: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            brownout_steps_down: AtomicU64::new(0),
            brownout_steps_up: AtomicU64::new(0),
            misdirected: AtomicU64::new(0),
            shard_map_fetches: AtomicU64::new(0),
            map_pushes: AtomicU64::new(0),
            map_push_rejected: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| LatencyHistogram::new()),
            batch: std::array::from_fn(|_| AtomicU64::new(0)),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn tenant_entry(&self, tenant: u32, weight: u8, bump: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let entry = map.entry(tenant).or_default();
        entry.weight = weight.max(1);
        bump(entry);
    }

    /// Count one accepted fetch for `tenant` (queue or cache).
    pub fn tenant_accepted(&self, tenant: u32, weight: u8) {
        self.tenant_entry(tenant, weight, |t| t.accepted += 1);
    }

    /// Count one shed fetch for `tenant` (global queue full or quota).
    pub fn tenant_shed(&self, tenant: u32, weight: u8) {
        self.tenant_entry(tenant, weight, |t| t.shed += 1);
    }

    /// Count one fetch served below its resolved fidelity for `tenant`.
    pub fn tenant_degraded(&self, tenant: u32, weight: u8) {
        self.tenant_entry(tenant, weight, |t| t.degraded += 1);
    }

    /// Record one completed request on `endpoint` taking `elapsed`.
    pub fn record_request(&self, endpoint: Endpoint, elapsed: Duration) {
        self.requests[endpoint as usize].fetch_add(1, Ordering::Relaxed);
        self.latency[endpoint as usize].record(elapsed);
    }

    /// Record one coalesced decompress pass over `batch` chunks.
    pub fn record_batch(&self, batch: usize) {
        if batch == 0 {
            return;
        }
        self.decompress_passes.fetch_add(1, Ordering::Relaxed);
        self.chunks_decoded.fetch_add(batch as u64, Ordering::Relaxed);
        self.batch[(batch - 1).min(BATCH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Freeze everything into a wire-ready [`StatsReport`].
    /// `lanes` is the scheduler's `(tenant, weight, queued, inflight)`
    /// snapshot ([`crate::queue::Wfq::depths`]) — merged with the
    /// admission counters into one per-tenant section. `shard_owned` and
    /// `shard_epoch` describe the server's shard role (0/0 for a solo
    /// server: every key owned is reported as 0 because there is no ring
    /// to own a fraction of — see `Shared::shard_owned`).
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        queue_depth: u32,
        queue_capacity: u32,
        cache: CacheSnapshot,
        brownout_level: u8,
        lanes: &[(u32, u8, usize, usize)],
        shard_owned: u64,
        shard_epoch: u64,
    ) -> StatsReport {
        let mut tenants: Vec<TenantStats> = {
            let map = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
            map.iter()
                .map(|(&tenant, c)| TenantStats {
                    tenant,
                    weight: c.weight,
                    accepted: c.accepted,
                    shed: c.shed,
                    degraded: c.degraded,
                    queued: 0,
                    inflight: 0,
                })
                .collect()
        };
        for &(tenant, weight, queued, inflight) in lanes {
            match tenants.iter_mut().find(|t| t.tenant == tenant) {
                Some(t) => {
                    t.queued = queued as u64;
                    t.inflight = inflight as u64;
                }
                None => tenants.push(TenantStats {
                    tenant,
                    weight,
                    accepted: 0,
                    shed: 0,
                    degraded: 0,
                    queued: queued as u64,
                    inflight: inflight as u64,
                }),
            }
        }
        tenants.sort_by_key(|t| t.tenant);
        StatsReport {
            queue_depth,
            queue_capacity,
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            cache_capacity: cache.capacity,
            decompress_passes: self.decompress_passes.load(Ordering::Relaxed),
            chunks_decoded: self.chunks_decoded.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
            handshake_timeouts: self.handshake_timeouts.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            slow_closed: self.slow_closed.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            deadline_rejected: self.deadline_rejected.load(Ordering::Relaxed),
            slab_bytes_copied: self.slab_bytes_copied.load(Ordering::Relaxed),
            slab_bytes_shared: self.slab_bytes_shared.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            brownout_level,
            brownout_steps_down: self.brownout_steps_down.load(Ordering::Relaxed),
            brownout_steps_up: self.brownout_steps_up.load(Ordering::Relaxed),
            shard_owned,
            shard_epoch,
            shard_misdirected: self.misdirected.load(Ordering::Relaxed),
            shard_map_fetches: self.shard_map_fetches.load(Ordering::Relaxed),
            map_pushes: self.map_pushes.load(Ordering::Relaxed),
            map_push_rejected: self.map_push_rejected.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            handoffs: self.handoffs.load(Ordering::Relaxed),
            tenants,
            batch_sizes: self.batch.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            endpoints: (0..ENDPOINTS)
                .map(|i| EndpointStats {
                    requests: self.requests[i].load(Ordering::Relaxed),
                    latency_us: self.latency[i].snapshot(),
                })
                .collect(),
        }
    }
}

/// Per-endpoint slice of the stats frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointStats {
    /// Completed requests.
    pub requests: u64,
    /// Log2-µs latency histogram (see [`StatsReport::quantile_us`]).
    pub latency_us: Vec<u64>,
}

/// Per-tenant slice of the stats frame: admission counters merged with
/// the weighted-fair scheduler's live lane depths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id from the `Hello` handshake (`0` = default tenant).
    pub tenant: u32,
    /// Last declared weight class.
    pub weight: u8,
    /// Fetches accepted (queue or cache).
    pub accepted: u64,
    /// Fetches shed (global queue full or per-tenant quota).
    pub shed: u64,
    /// Fetches served below their resolved fidelity (brownout).
    pub degraded: u64,
    /// Jobs waiting in this tenant's lane at snapshot time.
    pub queued: u64,
    /// Requests in flight (queued + decoding, not yet answered).
    pub inflight: u64,
}

/// Snapshot of the server's counters — the body of a `Stats` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Jobs waiting in the admission queue at snapshot time.
    pub queue_depth: u32,
    /// The admission bound.
    pub queue_capacity: u32,
    /// Requests admitted (queue or cache).
    pub accepted: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Cache lookups served from the cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Cache entries evicted to stay within capacity.
    pub cache_evictions: u64,
    /// Cache entries resident at snapshot time.
    pub cache_entries: u64,
    /// Cache capacity in entries.
    pub cache_capacity: u64,
    /// Coalesced decompress passes.
    pub decompress_passes: u64,
    /// Chunks decoded across all passes.
    pub chunks_decoded: u64,
    /// Connections accepted by the listener.
    pub conns_accepted: u64,
    /// Connections rejected at accept (`max_conns`).
    pub conns_rejected: u64,
    /// Connections open at snapshot time.
    pub conns_active: u64,
    /// Connections closed at the handshake deadline.
    pub handshake_timeouts: u64,
    /// Connections closed for idling past `idle_timeout`.
    pub idle_closed: u64,
    /// Connections closed for dribbling a frame past `frame_deadline`.
    pub slow_closed: u64,
    /// Frames rejected for integrity failures.
    pub bad_frames: u64,
    /// Fetches shed with `DeadlineExceeded` before decoding.
    pub deadline_rejected: u64,
    /// Bytes encoded into response slabs (one copy per encode).
    pub slab_bytes_copied: u64,
    /// Bytes served from shared slabs (shared/copied = mean fan-out).
    pub slab_bytes_shared: u64,
    /// Fetches served below their resolved fidelity (brownout).
    pub degraded: u64,
    /// Brownout level at snapshot time (fidelity steps currently shaved
    /// off every fetch; 0 = full fidelity).
    pub brownout_level: u8,
    /// Times the governor stepped fidelity down.
    pub brownout_steps_down: u64,
    /// Times the governor stepped fidelity back up.
    pub brownout_steps_up: u64,
    /// `(container, chunk)` keys this server serves (primary or replica)
    /// under its shard map; 0 on a solo server.
    pub shard_owned: u64,
    /// Epoch of the shard map this server routes by (0 = solo).
    pub shard_epoch: u64,
    /// Fetches rejected with a `WrongShard` redirect.
    pub shard_misdirected: u64,
    /// `ShardMap` requests answered.
    pub shard_map_fetches: u64,
    /// Map pushes that installed a new epoch (live reconfigurations).
    pub map_pushes: u64,
    /// Map pushes rejected (stale epoch or same-epoch conflict).
    pub map_push_rejected: u64,
    /// Admitted jobs that finished at a superseded epoch (drains).
    pub drained: u64,
    /// Keys handed off to other shards across all installs.
    pub handoffs: u64,
    /// Per-tenant counters and lane depths, sorted by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Linear histogram: `batch_sizes[i]` passes decoded `i + 1` chunks
    /// (last bucket absorbs larger).
    pub batch_sizes: Vec<u64>,
    /// Per-endpoint counters, indexed by [`Endpoint`].
    pub endpoints: Vec<EndpointStats>,
}

impl StatsReport {
    /// Cache hits over lookups (0.0 when idle).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean chunks per decompress pass (1.0 = batching never coalesced).
    pub fn mean_batch(&self) -> f64 {
        if self.decompress_passes == 0 {
            0.0
        } else {
            self.chunks_decoded as f64 / self.decompress_passes as f64
        }
    }

    /// Mean connections each encoded slab byte was served to (1.0 = no
    /// sharing; higher = zero-copy fan-out is paying).
    pub fn slab_share_ratio(&self) -> f64 {
        if self.slab_bytes_copied == 0 {
            0.0
        } else {
            self.slab_bytes_shared as f64 / self.slab_bytes_copied as f64
        }
    }

    /// Approximate latency quantile (in µs, upper bucket bound) for one
    /// endpoint; `None` when no requests were recorded. `q` in `[0, 1]`.
    pub fn quantile_us(&self, endpoint: Endpoint, q: f64) -> Option<u64> {
        let hist = &self.endpoints.get(endpoint as usize)?.latency_us;
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(1u64 << (i + 1));
            }
        }
        Some(1u64 << hist.len())
    }

    /// Append the wire encoding to `out` (field order matches `decode`).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.queue_depth.to_le_bytes());
        out.extend_from_slice(&self.queue_capacity.to_le_bytes());
        for v in [
            self.accepted,
            self.shed,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_entries,
            self.cache_capacity,
            self.decompress_passes,
            self.chunks_decoded,
            self.conns_accepted,
            self.conns_rejected,
            self.conns_active,
            self.handshake_timeouts,
            self.idle_closed,
            self.slow_closed,
            self.bad_frames,
            self.deadline_rejected,
            self.slab_bytes_copied,
            self.slab_bytes_shared,
            self.degraded,
            self.brownout_steps_down,
            self.brownout_steps_up,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(self.batch_sizes.len() as u8);
        for v in &self.batch_sizes {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(self.endpoints.len() as u8);
        for ep in &self.endpoints {
            out.extend_from_slice(&ep.requests.to_le_bytes());
            out.push(ep.latency_us.len() as u8);
            for v in &ep.latency_us {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        // QoS section: brownout level and the per-tenant ledger.
        out.push(self.brownout_level);
        out.extend_from_slice(&(self.tenants.len().min(u16::MAX as usize) as u16).to_le_bytes());
        for t in self.tenants.iter().take(u16::MAX as usize) {
            out.extend_from_slice(&t.tenant.to_le_bytes());
            out.push(t.weight);
            for v in [t.accepted, t.shed, t.degraded, t.queued, t.inflight] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        // Shard section, then reconfiguration section.
        for v in
            [self.shard_owned, self.shard_epoch, self.shard_misdirected, self.shard_map_fetches]
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [self.map_pushes, self.map_push_rejected, self.drained, self.handoffs] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Parse the wire encoding produced by `encode`.
    pub(crate) fn decode(r: &mut BodyReader<'_>) -> Result<StatsReport> {
        let queue_depth = r.u32()?;
        let queue_capacity = r.u32()?;
        let mut fixed = [0u64; 22];
        for slot in &mut fixed {
            *slot = r.u64()?;
        }
        let n_batch = r.u8()? as usize;
        let mut batch_sizes = Vec::with_capacity(n_batch);
        for _ in 0..n_batch {
            batch_sizes.push(r.u64()?);
        }
        let n_eps = r.u8()? as usize;
        let mut endpoints = Vec::with_capacity(n_eps);
        for _ in 0..n_eps {
            let requests = r.u64()?;
            let n_lat = r.u8()? as usize;
            let mut latency_us = Vec::with_capacity(n_lat);
            for _ in 0..n_lat {
                latency_us.push(r.u64()?);
            }
            endpoints.push(EndpointStats { requests, latency_us });
        }
        let brownout_level = r.u8()?;
        let n = r.u16()? as usize;
        let mut tenants = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            tenants.push(TenantStats {
                tenant: r.u32()?,
                weight: r.u8()?,
                accepted: r.u64()?,
                shed: r.u64()?,
                degraded: r.u64()?,
                queued: r.u64()?,
                inflight: r.u64()?,
            });
        }
        Ok(StatsReport {
            queue_depth,
            queue_capacity,
            accepted: fixed[0],
            shed: fixed[1],
            cache_hits: fixed[2],
            cache_misses: fixed[3],
            cache_evictions: fixed[4],
            cache_entries: fixed[5],
            cache_capacity: fixed[6],
            decompress_passes: fixed[7],
            chunks_decoded: fixed[8],
            conns_accepted: fixed[9],
            conns_rejected: fixed[10],
            conns_active: fixed[11],
            handshake_timeouts: fixed[12],
            idle_closed: fixed[13],
            slow_closed: fixed[14],
            bad_frames: fixed[15],
            deadline_rejected: fixed[16],
            slab_bytes_copied: fixed[17],
            slab_bytes_shared: fixed[18],
            degraded: fixed[19],
            brownout_steps_down: fixed[20],
            brownout_steps_up: fixed[21],
            brownout_level,
            shard_owned: r.u64()?,
            shard_epoch: r.u64()?,
            shard_misdirected: r.u64()?,
            shard_map_fetches: r.u64()?,
            map_pushes: r.u64()?,
            map_push_rejected: r.u64()?,
            drained: r.u64()?,
            handoffs: r.u64()?,
            tenants,
            batch_sizes,
            endpoints,
        })
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "queue      {}/{} waiting", self.queue_depth, self.queue_capacity)?;
        writeln!(f, "admission  {} accepted, {} shed", self.accepted, self.shed)?;
        writeln!(
            f,
            "brownout   level {}, {} steps down, {} steps up, {} degraded replies",
            self.brownout_level, self.brownout_steps_down, self.brownout_steps_up, self.degraded
        )?;
        writeln!(
            f,
            "shard      map epoch {}, {} owned keys, {} misdirected, {} map fetches",
            self.shard_epoch, self.shard_owned, self.shard_misdirected, self.shard_map_fetches
        )?;
        writeln!(
            f,
            "reconfig   {} map pushes, {} rejected, {} drained, {} keys handed off",
            self.map_pushes, self.map_push_rejected, self.drained, self.handoffs
        )?;
        writeln!(f, "tenants    {} tracked", self.tenants.len())?;
        for t in &self.tenants {
            writeln!(
                f,
                "  tenant {:<8} w{} — {} accepted, {} shed, {} degraded, {} queued, {} in flight",
                t.tenant, t.weight, t.accepted, t.shed, t.degraded, t.queued, t.inflight
            )?;
        }
        writeln!(
            f,
            "cache      {} hits / {} misses ({:.1}% hit), {} evictions, {}/{} entries",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_ratio(),
            self.cache_evictions,
            self.cache_entries,
            self.cache_capacity
        )?;
        writeln!(
            f,
            "batching   {} passes, {} chunks ({:.2} chunks/pass)",
            self.decompress_passes,
            self.chunks_decoded,
            self.mean_batch()
        )?;
        writeln!(
            f,
            "conns      {} active, {} accepted, {} rejected",
            self.conns_active, self.conns_accepted, self.conns_rejected
        )?;
        writeln!(
            f,
            "discipline {} handshake timeouts, {} idle closes, {} slow closes, \
             {} bad frames, {} deadline sheds",
            self.handshake_timeouts,
            self.idle_closed,
            self.slow_closed,
            self.bad_frames,
            self.deadline_rejected
        )?;
        writeln!(
            f,
            "slabs      {} bytes encoded, {} bytes served ({:.2}x shared)",
            self.slab_bytes_copied,
            self.slab_bytes_shared,
            self.slab_share_ratio()
        )?;
        for (i, name) in ENDPOINT_NAMES.iter().enumerate() {
            let Some(ep) = self.endpoints.get(i) else { continue };
            let endpoint = match i {
                0 => Endpoint::Info,
                1 => Endpoint::Fetch,
                _ => Endpoint::Stats,
            };
            match (self.quantile_us(endpoint, 0.5), self.quantile_us(endpoint, 0.99)) {
                (Some(p50), Some(p99)) => writeln!(
                    f,
                    "{name:<10} {} requests, p50 ≤ {p50} µs, p99 ≤ {p99} µs",
                    ep.requests
                )?,
                _ => writeln!(f, "{name:<10} {} requests", ep.requests)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_wire() {
        let stats = ServeStats::new();
        stats.accepted.store(120, Ordering::Relaxed);
        stats.shed.store(8, Ordering::Relaxed);
        stats.conns_accepted.store(17, Ordering::Relaxed);
        stats.conns_active.store(2, Ordering::Relaxed);
        stats.slow_closed.store(1, Ordering::Relaxed);
        stats.bad_frames.store(3, Ordering::Relaxed);
        stats.deadline_rejected.store(5, Ordering::Relaxed);
        stats.slab_bytes_copied.store(4096, Ordering::Relaxed);
        stats.slab_bytes_shared.store(12288, Ordering::Relaxed);
        stats.record_request(Endpoint::Fetch, Duration::from_micros(350));
        stats.record_request(Endpoint::Fetch, Duration::from_millis(12));
        stats.record_request(Endpoint::Info, Duration::from_micros(40));
        stats.record_batch(1);
        stats.record_batch(7);
        stats.record_batch(500); // clamps into the last bucket
        stats.degraded.store(9, Ordering::Relaxed);
        stats.brownout_steps_down.store(4, Ordering::Relaxed);
        stats.brownout_steps_up.store(2, Ordering::Relaxed);
        stats.tenant_accepted(7, 3);
        stats.tenant_accepted(7, 3);
        stats.tenant_shed(42, 1);
        stats.tenant_degraded(7, 3);
        stats.misdirected.store(6, Ordering::Relaxed);
        stats.shard_map_fetches.store(2, Ordering::Relaxed);
        stats.map_pushes.store(3, Ordering::Relaxed);
        stats.map_push_rejected.store(1, Ordering::Relaxed);
        stats.drained.store(4, Ordering::Relaxed);
        stats.handoffs.store(12, Ordering::Relaxed);
        let cache = CacheSnapshot { hits: 30, misses: 10, evictions: 2, entries: 5, capacity: 64 };
        let report = stats.snapshot(3, 64, cache, 1, &[(7, 3, 2, 5), (9, 2, 1, 1)], 11, 4);

        assert_eq!(report.brownout_level, 1);
        assert_eq!(
            (
                report.shard_owned,
                report.shard_epoch,
                report.shard_misdirected,
                report.shard_map_fetches
            ),
            (11, 4, 6, 2)
        );
        assert_eq!(
            (report.map_pushes, report.map_push_rejected, report.drained, report.handoffs),
            (3, 1, 4, 12)
        );
        let t7 = report.tenants.iter().find(|t| t.tenant == 7).unwrap();
        assert_eq!((t7.accepted, t7.shed, t7.degraded, t7.queued, t7.inflight), (2, 0, 1, 2, 5));
        let t9 = report.tenants.iter().find(|t| t.tenant == 9).unwrap();
        assert_eq!((t9.accepted, t9.queued, t9.inflight), (0, 1, 1), "lane-only tenant included");
        assert!(report.tenants.iter().any(|t| t.tenant == 42));

        let mut wire = Vec::new();
        report.encode(&mut wire);
        let mut r = BodyReader::new(&wire);
        let decoded = StatsReport::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn every_section_is_mandatory() {
        let report = ServeStats::new().snapshot(0, 8, CacheSnapshot::default(), 0, &[], 7, 2);
        let mut wire = Vec::new();
        report.encode(&mut wire);
        // Cut at the end of each section (reconfig 32 bytes, shard 32,
        // empty QoS 3): every shorter body is a typed error, not defaults.
        for cut in [1, 32, 64, 67] {
            let mut r = BodyReader::new(&wire[..wire.len() - cut]);
            assert!(StatsReport::decode(&mut r).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn quantiles_bound_recorded_latencies() {
        let stats = ServeStats::new();
        for _ in 0..99 {
            stats.record_request(Endpoint::Fetch, Duration::from_micros(100));
        }
        stats.record_request(Endpoint::Fetch, Duration::from_millis(50));
        let report = stats.snapshot(0, 1, CacheSnapshot::default(), 0, &[], 0, 0);
        let p50 = report.quantile_us(Endpoint::Fetch, 0.5).unwrap();
        let p99 = report.quantile_us(Endpoint::Fetch, 0.99).unwrap();
        // p50 lands in the 100 µs bucket (≤ 128 µs); p99 must not be
        // dragged up to the 50 ms outlier.
        assert_eq!(p50, 128);
        assert_eq!(p99, 128);
        let p100 = report.quantile_us(Endpoint::Fetch, 1.0).unwrap();
        assert!(p100 >= 50_000, "max quantile must cover the outlier, got {p100}");
        assert_eq!(report.quantile_us(Endpoint::Stats, 0.5), None);
    }

    #[test]
    fn batch_histogram_indexes_by_size() {
        let stats = ServeStats::new();
        stats.record_batch(0); // ignored
        stats.record_batch(1);
        stats.record_batch(1);
        stats.record_batch(4);
        let report = stats.snapshot(0, 1, CacheSnapshot::default(), 0, &[], 0, 0);
        assert_eq!(report.batch_sizes[0], 2);
        assert_eq!(report.batch_sizes[3], 1);
        assert_eq!(report.decompress_passes, 3);
        assert_eq!(report.chunks_decoded, 6);
        assert!((report.mean_batch() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_every_section() {
        let report = ServeStats::new().snapshot(0, 8, CacheSnapshot::default(), 0, &[], 0, 0);
        let text = report.to_string();
        for needle in [
            "queue",
            "admission",
            "cache",
            "batching",
            "conns",
            "discipline",
            "slabs",
            "fetch",
            "shard",
            "reconfig",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn slab_share_ratio_is_served_over_encoded() {
        let stats = ServeStats::new();
        stats.slab_bytes_copied.store(100, Ordering::Relaxed);
        stats.slab_bytes_shared.store(250, Ordering::Relaxed);
        let report = stats.snapshot(0, 1, CacheSnapshot::default(), 0, &[], 0, 0);
        assert!((report.slab_share_ratio() - 2.5).abs() < 1e-9);
    }
}
