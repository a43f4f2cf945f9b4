//! Service counters, histograms, and the serializable stats frame.
//!
//! Every scalar and histogram is declared once, in the `stats_table!`
//! list below; the live atomics of [`ServeStats`], the fields of
//! [`StatsReport`], and the snapshot, wire encoding, decoding and
//! `Display` are all generated from it. Adding a counter is one table line
//! plus the increment where the event happens. The wire body is
//! positional, so any change to the table is a wire change: bump
//! `PROTO_VERSION` with it.
//!
//! Two layers: [`ServeStats`] is the live, lock-free (atomic) collector
//! the server threads write into on every request, and [`StatsReport`]
//! is the plain-data snapshot that crosses the wire in a `Stats` reply.
//! Latency is kept as log2-µs histograms — constant memory, no per-request
//! allocation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::protocol::BodyReader;
use crate::{Result, ServeError};

/// Log2-µs latency buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` µs; bucket 0 also absorbs sub-µs, the last absorbs
/// everything ≥ ~33 s.
const LATENCY_BUCKETS: usize = 26;

/// Expands the declaration list into [`ServeStats`] and [`StatsReport`].
///
/// A scalar row is `section kind name "doc"`. `live` scalars are atomics
/// in [`ServeStats`], bumped where the event happens; `fill` scalars are
/// written at snapshot time — gauges the server reads from its queue,
/// cache, governor and shard map, and totals derived from the tenant
/// ledger or another counter. A histogram row is `name [buckets] "doc"`.
macro_rules! stats_table {
    // Collect the `live` rows: they alone get an atomic.
    (@live $hists:tt [$($acc:tt)*] live $field:ident $doc:literal, $($rest:tt)*) => {
        stats_table!(@live $hists [$($acc)* $field $doc,] $($rest)*);
    };
    (@live $hists:tt [$($acc:tt)*] fill $field:ident $doc:literal, $($rest:tt)*) => {
        stats_table!(@live $hists [$($acc)*] $($rest)*);
    };
    (@live {$($hist:ident $buckets:ident $hdoc:literal,)*} [$($field:ident $doc:literal,)*]) => {
        /// Live counters the server threads write into.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $(#[doc = $doc] pub $field: AtomicU64,)*
            $(#[doc = $hdoc] pub $hist: Histogram<$buckets>,)*
            /// Per-tenant admission counters, keyed by tenant id. A mutex
            /// (not atomics) because the tenant set is dynamic; the critical
            /// section is a hash probe + integer bump.
            tenants: Mutex<HashMap<u32, TenantCounters>>,
        }

        impl ServeStats {
            fn load_into(&self, report: &mut StatsReport) {
                $(report.$field = self.$field.load(Ordering::Relaxed);)*
                $(report.$hist = self.$hist.snapshot();)*
            }
        }
    };
    (
        scalars { $($section:ident $kind:ident $field:ident $doc:literal,)* }
        histograms { $($hist:ident [$buckets:ident] $hdoc:literal,)* }
    ) => {
        stats_table!(@live {$($hist $buckets $hdoc,)*} [] $($kind $field $doc,)*);

        /// Snapshot of the server's counters — the body of a `Stats` reply.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsReport {
            $(#[doc = $doc] pub $field: u64,)*
            $(#[doc = $hdoc] pub $hist: Vec<u64>,)*
            /// Per-tenant counters and lane depths, sorted by tenant id.
            pub tenants: Vec<TenantStats>,
        }

        impl StatsReport {
            /// `(section, name)` of every scalar, in wire and display order.
            pub const SCALARS: &'static [(&'static str, &'static str)] =
                &[$((stringify!($section), stringify!($field)),)*];
            /// `(name, bucket count)` of every histogram, in wire and
            /// display order.
            pub const HISTOGRAMS: &'static [(&'static str, usize)] =
                &[$((stringify!($hist), $buckets),)*];

            fn scalars(&self) -> Vec<u64> {
                vec![$(self.$field,)*]
            }

            fn scalars_mut(&mut self) -> Vec<&mut u64> {
                vec![$(&mut self.$field,)*]
            }

            fn histograms(&self) -> Vec<&[u64]> {
                vec![$(&self.$hist,)*]
            }

            fn histograms_mut(&mut self) -> Vec<&mut Vec<u64>> {
                vec![$(&mut self.$hist,)*]
            }
        }
    };
}

stats_table! {
    scalars {
        queue      fill queue_depth        "Jobs waiting in the admission queue at snapshot time.",
        queue      fill queue_capacity     "The admission bound.",
        admission  fill accepted           "Fetches admitted (queue or cache): the tenant ledger's total.",
        admission  fill shed               "Fetches shed with `Overloaded` (queue full or tenant quota): \
                                            the tenant ledger's total.",
        brownout   fill brownout_level     "Fidelity steps the brownout governor shaves off every fetch at \
                                            snapshot time (0 = full fidelity).",
        brownout   live brownout_steps_down "Times the governor stepped fidelity down under pressure.",
        brownout   live brownout_steps_up  "Times the governor stepped fidelity back up as pressure cleared.",
        brownout   fill degraded           "Fetches served below their resolved fidelity (each reply carries \
                                            its `served_cf`): the tenant ledger's total.",
        shard      fill shard_owned        "`(container, chunk)` keys this server serves (primary or \
                                            replica) under its shard map; 0 on a solo server.",
        shard      fill shard_epoch        "Epoch of the shard map this server routes by (0 = solo).",
        shard      live shard_misdirected  "Fetches rejected with a typed `WrongShard` redirect: the key is \
                                            not this shard's under the current map.",
        shard      live shard_map_fetches  "`ShardMap` requests answered (clients refreshing their routing).",
        reconfig   live map_pushes         "`MapPush` frames that installed a new shard map (idempotent \
                                            re-pushes are not counted).",
        reconfig   live map_push_rejected  "`MapPush` frames rejected as stale or same-epoch-conflicting.",
        reconfig   live drained            "Jobs already admitted when a map push landed: they finish at the \
                                            old epoch (the drain half of drain-and-handoff).",
        reconfig   live handoffs           "Keys this shard served under the old map but not the new one, \
                                            summed over installs (they answer `WrongShard` from then on).",
        cache      live cache_hits         "Admitted fetches served from the cache.",
        cache      live cache_misses       "Admitted fetches that missed the cache and queued for a worker.",
        cache      fill cache_evictions    "Cache entries evicted to stay within capacity.",
        cache      fill cache_entries      "Cache entries resident at snapshot time.",
        cache      fill cache_capacity     "Cache capacity in entries (0 = caching disabled).",
        decode     fill decompress_passes  "Worker passes: equal to `chunks_decoded`, since each pass \
                                            reads one chunk (the server decodes none; clients do).",
        decode     live chunks_decoded     "Chunks the workers read, one per queued fetch that no sibling \
                                            worker had cached first.",
        conns      live conns_accepted     "Connections accepted by the listener.",
        conns      live conns_rejected     "Connections rejected at accept time (`max_conns` reached).",
        conns      live conns_active       "Connections open right now (incremented on accept, decremented \
                                            when the connection thread finishes).",
        discipline live handshake_timeouts "Connections closed for not completing the `Hello` exchange \
                                            within the handshake deadline.",
        discipline live idle_closed        "Connections closed after idling past `idle_timeout` between frames.",
        discipline live slow_closed        "Connections closed for dribbling a frame past `frame_deadline` \
                                            (the slow-loris guard).",
        discipline live bad_frames         "Frames rejected for integrity failures (CRC mismatch, oversize, \
                                            malformed); each also closes its connection.",
        discipline live deadline_rejected  "Fetches shed with `DeadlineExceeded` before any read.",
        slabs      live slab_bytes_copied  "Bytes encoded into response slabs (one copy per chunk read).",
        slabs      live slab_bytes_shared  "Bytes served from shared slabs (shared / copied is the mean \
                                            fan-out per encode).",
    }
    histograms {
        info_latency_us  [LATENCY_BUCKETS] "Log2-µs latency of `Info` requests; its total is the request count.",
        fetch_latency_us [LATENCY_BUCKETS] "Log2-µs latency of `Fetch` requests; its total is the request count.",
        stats_latency_us [LATENCY_BUCKETS] "Log2-µs latency of `Stats` requests; its total is the request count.",
    }
}

/// Live histogram: `N` atomic buckets, the last absorbing every larger
/// index.
#[derive(Debug)]
pub struct Histogram<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for Histogram<N> {
    fn default() -> Self {
        Histogram(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl<const N: usize> Histogram<N> {
    fn add(&self, bucket: usize) {
        self.0[bucket.min(N - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one duration in its log2-µs bucket: bucket `i` holds
    /// `[2^i, 2^(i+1))` µs, and bucket 0 also sub-µs.
    pub fn record_us(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.add(us.max(1).ilog2() as usize);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.0.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// Live per-tenant counters behind the [`ServeStats`] tenant mutex.
#[derive(Debug, Default, Clone, Copy)]
struct TenantCounters {
    weight: u8,
    accepted: u64,
    shed: u64,
    degraded: u64,
}

impl ServeStats {
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

    /// Freeze the live counters into a [`StatsReport`], deriving the
    /// admission totals from the tenant ledger. `lanes` is the scheduler's
    /// `(tenant, weight, queued, inflight)` snapshot
    /// ([`crate::queue::Wfq::depths`]), merged with the admission counters
    /// into one per-tenant section.
    /// The gauges the server keeps elsewhere (queue, cache, brownout level,
    /// shard role) are left 0 for the caller to fill.
    pub fn snapshot(&self, lanes: &[(u32, u8, usize, usize)]) -> StatsReport {
        let mut report = StatsReport::default();
        self.load_into(&mut report);
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
        report.accepted = tenants.iter().map(|t| t.accepted).sum();
        report.shed = tenants.iter().map(|t| t.shed).sum();
        report.degraded = tenants.iter().map(|t| t.degraded).sum();
        report.decompress_passes = report.chunks_decoded;
        report.tenants = tenants;
        report
    }
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

impl StatsReport {
    /// Cache hits over lookups (0.0 when idle).
    pub fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Append the wire encoding to `out`: the scalars and then the
    /// histograms, each in table order behind its count, then the tenant
    /// rows.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(Self::SCALARS.len() as u16).to_le_bytes());
        for v in self.scalars() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(Self::HISTOGRAMS.len() as u8);
        for buckets in self.histograms() {
            out.push(buckets.len() as u8);
            for v in buckets {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.tenants.len().min(u16::MAX as usize) as u16).to_le_bytes());
        for t in self.tenants.iter().take(u16::MAX as usize) {
            out.extend_from_slice(&t.tenant.to_le_bytes());
            out.push(t.weight);
            for v in [t.accepted, t.shed, t.degraded, t.queued, t.inflight] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Parse the wire encoding produced by `encode`. The scalar and
    /// histogram counts must equal the table's, and every histogram must
    /// carry its declared bucket count: both ends build from one table and
    /// the `Hello` version check fails fast, so position alone names each
    /// value.
    pub(crate) fn decode(r: &mut BodyReader<'_>) -> Result<StatsReport> {
        let mut report = StatsReport::default();
        let count = r.u16()? as usize;
        if count != Self::SCALARS.len() {
            return Err(ServeError::Protocol(format!(
                "stats frame has {count} scalars, expected {}",
                Self::SCALARS.len()
            )));
        }
        for v in report.scalars_mut() {
            *v = r.u64()?;
        }
        let count = r.u8()? as usize;
        if count != Self::HISTOGRAMS.len() {
            return Err(ServeError::Protocol(format!(
                "stats frame has {count} histograms, expected {}",
                Self::HISTOGRAMS.len()
            )));
        }
        for (&(name, want), hist) in Self::HISTOGRAMS.iter().zip(report.histograms_mut()) {
            let n = r.u8()? as usize;
            if n != want {
                return Err(ServeError::Protocol(format!(
                    "stats histogram `{name}` has {n} buckets, expected {want}"
                )));
            }
            *hist = (0..n).map(|_| r.u64()).collect::<Result<_>>()?;
        }
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
        report.tenants = tenants;
        Ok(report)
    }
}

/// `num / den`, or 0.0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Upper bound in µs of the log2 bucket holding quantile `q` of a latency
/// histogram (`None` when it is empty).
fn log2_quantile_us(buckets: &[u64], q: f64) -> Option<u64> {
    let rank = ((buckets.iter().sum::<u64>() as f64 * q).ceil() as u64).max(1);
    let mut seen = 0;
    let i = buckets.iter().position(|&n| {
        seen += n;
        seen >= rank
    })?;
    Some(1u64 << (i + 1))
}

impl std::fmt::Display for StatsReport {
    /// One line per section (`section name value, …`), one per histogram
    /// (total, then each nonzero `[bucket] count`), one of ratios derived
    /// from them, then the tenant rows.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<_> = Self::SCALARS.iter().zip(self.scalars()).collect();
        for section in rows.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            write!(f, "{:<10}", section[0].0 .0)?;
            for (i, &(&(_, name), v)) in section.iter().enumerate() {
                write!(f, "{} {name} {v}", if i == 0 { "" } else { "," })?;
            }
            writeln!(f)?;
        }
        for (&(name, _), buckets) in Self::HISTOGRAMS.iter().zip(self.histograms()) {
            write!(f, "{name} {} total", buckets.iter().sum::<u64>())?;
            for (i, n) in buckets.iter().enumerate().filter(|&(_, &n)| n > 0) {
                write!(f, ", [{i}] {n}")?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "derived    {:.1}% cache hit, {:.1}x slab fan-out",
            100.0 * self.cache_hit_ratio(),
            ratio(self.slab_bytes_shared, self.slab_bytes_copied)
        )?;
        let fetch = &self.fetch_latency_us;
        if let (Some(p50), Some(p99)) =
            (log2_quantile_us(fetch, 0.5), log2_quantile_us(fetch, 0.99))
        {
            write!(f, ", fetch p50 ≤ {p50} µs, p99 ≤ {p99} µs")?;
        }
        writeln!(f)?;
        writeln!(f, "tenants    {} tracked", self.tenants.len())?;
        for t in &self.tenants {
            writeln!(
                f,
                "  tenant {:<8} w{} — {} accepted, {} shed, {} degraded, {} queued, {} in flight",
                t.tenant, t.weight, t.accepted, t.shed, t.degraded, t.queued, t.inflight
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_response, Response};

    fn wire(report: &StatsReport) -> (u8, Vec<u8>) {
        encode_response(&Response::Stats(Box::new(report.clone())))
    }

    fn decode(op: u8, body: &[u8]) -> Result<StatsReport> {
        match decode_response(op, body)? {
            Response::Stats(report) => Ok(*report),
            other => panic!("decoded {other:?}"),
        }
    }

    /// A stats body built entry by entry, for frames `encode` never writes.
    fn body(scalars: &[u64], histograms: &[&[u64]]) -> Vec<u8> {
        let mut out = (scalars.len() as u16).to_le_bytes().to_vec();
        scalars.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
        out.push(histograms.len() as u8);
        for buckets in histograms {
            out.push(buckets.len() as u8);
            buckets.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
        }
        out.extend_from_slice(&0u16.to_le_bytes());
        out
    }

    #[test]
    fn every_scalar_and_bucket_roundtrips_distinctly() {
        // Distinct values everywhere: a swap of any two scalars, two
        // histograms or two buckets changes the decoded report.
        let mut report = ServeStats::default().snapshot(&[]);
        let mut next = 1u64..;
        for v in report.scalars_mut() {
            *v = next.next().unwrap();
        }
        for v in report.histograms_mut().into_iter().flatten() {
            *v = next.next().unwrap();
        }
        report.tenants = vec![
            TenantStats {
                tenant: 7,
                weight: 3,
                accepted: 2,
                shed: 4,
                degraded: 1,
                queued: 2,
                inflight: 5,
            },
            TenantStats {
                tenant: 9,
                weight: 2,
                accepted: 6,
                shed: 0,
                degraded: 3,
                queued: 1,
                inflight: 8,
            },
        ];
        let (op, bytes) = wire(&report);
        assert_eq!(decode(op, &bytes).unwrap(), report);
    }

    #[test]
    fn malformed_bodies_are_typed_protocol_errors() {
        let report = ServeStats::default().snapshot(&[(3, 1, 0, 0)]);
        let (op, good) = wire(&report);
        assert_eq!(decode(op, &good).unwrap(), report);
        let scalars = vec![1u64; StatsReport::SCALARS.len()];
        let zeros = [0u64; 64];
        let hists: Vec<&[u64]> =
            StatsReport::HISTOGRAMS.iter().map(|&(_, len)| &zeros[..len]).collect();
        assert!(decode(op, &body(&scalars, &hists)).is_ok());
        let resized = |len: usize| {
            let mut h = hists.clone();
            h[0] = &zeros[..len];
            body(&scalars, &h)
        };
        let (_, want) = StatsReport::HISTOGRAMS[0];

        let mut bad = vec![
            ("missing scalar", body(&scalars[1..], &hists)),
            ("extra scalar", body(&[&scalars[..], &[1]].concat(), &hists)),
            ("missing histogram", body(&scalars, &hists[1..])),
            ("extra histogram", body(&scalars, &[&hists[..], &hists[..1]].concat())),
            ("short histogram", resized(want - 1)),
            ("long histogram", resized(want + 1)),
            ("empty histogram", resized(0)),
            ("trailing bytes", [&good[..], &[0]].concat()),
        ];
        bad.extend((0..good.len()).map(|cut| ("truncated", good[..cut].to_vec())));
        for (what, bytes) in bad {
            match decode(op, &bytes) {
                Err(ServeError::Protocol(_)) => {}
                other => panic!("{what} ({} bytes) gave {other:?}", bytes.len()),
            }
        }
    }

    #[test]
    fn snapshot_derives_totals_from_the_ledger_and_histograms() {
        let stats = ServeStats::default();
        stats.tenant_accepted(7, 3);
        stats.tenant_accepted(7, 3);
        stats.tenant_shed(42, 1);
        stats.tenant_degraded(7, 3);
        stats.fetch_latency_us.record_us(Duration::from_micros(350));
        stats.fetch_latency_us.record_us(Duration::from_millis(12));
        stats.info_latency_us.record_us(Duration::from_micros(40));
        stats.chunks_decoded.store(3, Ordering::Relaxed);
        let report = stats.snapshot(&[(7, 3, 2, 5), (9, 2, 1, 1)]);
        assert_eq!((report.accepted, report.shed, report.degraded), (2, 1, 1));
        assert_eq!(report.decompress_passes, 3, "one pass per decoded chunk");
        let t7 = report.tenants.iter().find(|t| t.tenant == 7).unwrap();
        assert_eq!((t7.accepted, t7.shed, t7.degraded, t7.queued, t7.inflight), (2, 0, 1, 2, 5));
        let t9 = report.tenants.iter().find(|t| t.tenant == 9).unwrap();
        assert_eq!((t9.accepted, t9.queued, t9.inflight), (0, 1, 1), "lane-only tenant included");
        assert!(report.tenants.iter().any(|t| t.tenant == 42));
        assert_eq!(report.fetch_latency_us.iter().sum::<u64>(), 2);
        assert_eq!(report.info_latency_us.iter().sum::<u64>(), 1);
    }

    #[test]
    fn latency_lands_in_its_log2_bucket() {
        let stats = ServeStats::default();
        for _ in 0..99 {
            stats.fetch_latency_us.record_us(Duration::from_micros(100));
        }
        stats.fetch_latency_us.record_us(Duration::from_millis(50));
        stats.fetch_latency_us.record_us(Duration::from_nanos(300));
        stats.fetch_latency_us.record_us(Duration::from_secs(3600));
        let hist = stats.snapshot(&[]).fetch_latency_us;
        // 100 µs is in [64, 128); 50 ms in [32768, 65536) µs; sub-µs in
        // bucket 0; an hour clamps into the last bucket.
        assert_eq!((hist[6], hist[15], hist[0], hist[LATENCY_BUCKETS - 1]), (99, 1, 1, 1));
        assert_eq!(hist.iter().sum::<u64>(), 102);
    }

    #[test]
    fn display_derives_hit_ratio_fan_out_and_fetch_quantiles() {
        let stats = ServeStats::default();
        stats.slab_bytes_copied.store(100, Ordering::Relaxed);
        stats.slab_bytes_shared.store(250, Ordering::Relaxed);
        for us in [100, 100, 100, 5000] {
            stats.fetch_latency_us.record_us(Duration::from_micros(us));
        }
        let mut report = stats.snapshot(&[]);
        (report.cache_hits, report.cache_misses) = (3, 1);
        let text = report.to_string();
        let needle = "derived    75.0% cache hit, 2.5x slab fan-out, \
                      fetch p50 ≤ 128 µs, p99 ≤ 8192 µs";
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    #[test]
    fn display_mentions_every_section() {
        let report = ServeStats::default().snapshot(&[]);
        let text = report.to_string();
        for needle in [
            "queue",
            "admission",
            "cache",
            "decode",
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
}
