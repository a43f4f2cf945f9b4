//! `loadgen` — concurrent load generator for the `aicomp-serve` service.
//!
//! ```text
//! loadgen [--addr <ip:port> | --store <file.dcz> | --cluster <a,b,c>]
//!         [--clients 32] [--requests 16]
//!         [--coarse 0.5] [--cf <coarser>] [--seed 7] [--verify <file.dcz>]
//!         [--chaos <seed>] [--timeout <ms>] [--retries <attempts>]
//!         [--tenant <id> --weight <class> | --tenants <n>]
//!         [--churn] [--hedge <fraction of --timeout>]
//! ```
//!
//! Spawns `--clients` threads, each with its own connection, issuing
//! `--requests` fetches over random chunks; a `--coarse` fraction asks for
//! a ring-prefix read at `--cf` (default: half the stored chop factor).
//! With `--addr` it drives an already-running server; otherwise it
//! self-hosts one over `--store` (or a generated synthetic container), so
//! the benchmark runs with zero setup.
//!
//! Reports client-side throughput and exact p50/p99/max latency, plus an
//! error taxonomy (sheds, deadline hits, retries, breaker opens) and the
//! server's own stats frame — chunks read against cache misses, and the
//! cache hit ratio showing repeat traffic skipping the server's read.
//! With `--verify` (implied when self-hosting) every fetched chunk is
//! bit-compared against a direct [`DczReader`] decode — queueing and
//! caching must not change a single bit.
//!
//! `--chaos <seed>` drives every worker through a [`RobustClient`] whose
//! connections are wrapped in the seeded [`aicomp_serve::FaultyStream`]
//! wire-fault injector (resets, corruption, stalls, partial writes): the
//! client must retry/reconnect its way to the same bits. Fault decisions
//! are keyed on byte positions, so two runs with the same seed against
//! the same store print an identical `chaos-counters:` line — CI diffs it.
//!
//! Any argument that is not one of the flags above (`--help` included)
//! is a usage error: nonzero exit, no server started.
//!
//! QoS modes: `--tenant <id> --weight <class>` files every connection
//! under one tenant (the aggressor/victim halves of the CI `qos-smoke`
//! job), while `--tenants <n>` round-robins clients over tenants
//! `1..=n` — each client keeps its own splitmix64 request stream, so any
//! one tenant's traffic replays from the seed alone. Either mode reports
//! per-tenant ok/shed/degraded counts and p50/p99 latency, prints one
//! machine-diffable `qos-counters:` line (CI greps the victim's
//! `shed=0`). Replies the brownout governor degraded are verified against
//! the reference decode *at the fidelity they declare* — degradation must
//! never mean wrong bits, only coarser ones.
//!
//! `--cluster <addr,addr,...>` drives a sharded cluster (e.g. one started
//! by `dcz cluster`): every client is a [`RobustClient`] over those
//! members. The first typed `WrongShard` redirect makes it fetch the
//! cluster's map; from then on fetches go to each key's owning shard and
//! dead shards fail over within the key's replica set. The run prints one
//! machine-greppable `cluster-counters:` line with redirect/refresh/
//! failover totals and per-shard routed counts (`s0=… s1=…`) — the CI
//! `cluster-smoke` job asserts `failed=0` through a shard kill.
//!
//! `--churn` (cluster mode only) reconfigures the cluster mid-run: every
//! client runs half its requests, all quiesce at a barrier, the control
//! thread pushes an epoch+1 map that drops the last member to *every*
//! member (the leaver included — it must start redirecting) and sweeps
//! the old membership through the seeded [`FailureDetector`], then the
//! clients run their second half against the shrunk cluster (their stale
//! maps are corrected by typed `WrongShard` redirects). After the run
//! the original roster is pushed back at epoch+2, so a second identical
//! invocation starts from the same state — the `churn-counters:` line
//! prints server-side counter *deltas* (pushes, drains, handoffs) plus
//! client hedge totals, and CI runs the whole thing twice and diffs it.
//! `--hedge <fraction>` arms hedged reads on every cluster client (a
//! slice of `--timeout`; see `RobustConfig::hedge_fraction`).

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aicomp_bench::Flags;
use aicomp_serve::{
    Client, ErrorCode, FailureDetector, FetchedChunk, RobustClient, RobustConfig, ServeConfig,
    ServeError, Server, ServerHandle, ShardMap, WireFaultPlan,
};
use aicomp_store::writer::pack_file;
use aicomp_store::{DczReader, RetryPolicy, StoreOptions};
use aicomp_tensor::Tensor;

const USAGE: &str = "usage: loadgen [--addr <ip:port> | --store <file.dcz> | --cluster <a,b,c>] \
     [--clients <N>] [--requests <N>] [--coarse <fraction>] [--cf <coarser>] [--seed <S>] \
     [--verify <file.dcz>] [--chaos <seed>] [--timeout <ms>] [--retries <attempts>] \
     [--tenant <id> --weight <class> | --tenants <n>] [--churn] [--hedge <fraction>]";

/// Flags taking one value; `--churn` is the only switch.
const VALUE_FLAGS: [&str; 16] = [
    "--addr",
    "--store",
    "--cluster",
    "--clients",
    "--requests",
    "--coarse",
    "--cf",
    "--seed",
    "--verify",
    "--chaos",
    "--timeout",
    "--retries",
    "--tenant",
    "--weight",
    "--tenants",
    "--hedge",
];

/// splitmix64 — deterministic per-client request streams with no deps.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn synthetic_container() -> Result<PathBuf, String> {
    let path = std::env::temp_dir().join(format!("aicomp_loadgen_{}.dcz", std::process::id()));
    let opts = StoreOptions::dct(32, 4, 3, 8);
    let samples = (0..32).map(|i| {
        Tensor::from_vec(
            (0..3 * 32 * 32).map(|k| ((k * 13 + i * 41) % 97) as f32 / 16.0 - 3.0).collect(),
            [3usize, 32, 32],
        )
        .expect("synthetic sample")
    });
    pack_file(&path, &opts, samples).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Bit patterns of every chunk at *every* fidelity `1..=stored`, decoded
/// directly (no server) — the ground truth fetches are compared against.
/// All fidelities, not just the two requested ones, because a browned-out
/// server may answer any coarser prefix; the reply is checked at the
/// fidelity its `served_cf` declares.
fn reference_bits(
    path: &PathBuf,
    chunks: u32,
    stored_cf: u8,
) -> Result<HashMap<(u32, u8), Vec<u32>>, String> {
    let mut reader = DczReader::open(path).map_err(|e| e.to_string())?;
    let mut map = HashMap::new();
    for chunk in 0..chunks {
        for cf in 1..=stored_cf {
            let t = reader
                .decompress_chunk_at(chunk as usize, cf as usize)
                .map_err(|e| e.to_string())?;
            map.insert((chunk, cf), t.data().iter().map(|v| v.to_bits()).collect());
        }
    }
    Ok(map)
}

#[derive(Clone, Default)]
struct Outcome {
    ok: usize,
    shed: usize,
    deadline: usize,
    failed: usize,
    mismatched: usize,
    degraded: usize,
    retries: u64,
    reconnects: u64,
    failovers: u64,
    breaker_opens: u64,
    disruptions: u64,
    redirects: u64,
    map_refreshes: u64,
    hedges_fired: u64,
    hedges_won: u64,
    hedges_lost: u64,
    hedges_wasted: u64,
    /// Pinned fetches served by each shard (cluster mode).
    routed: Vec<u64>,
    latencies: Vec<Duration>,
}

impl Outcome {
    fn absorb(&mut self, other: &mut Outcome) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.degraded += other.degraded;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.failovers += other.failovers;
        self.breaker_opens += other.breaker_opens;
        self.disruptions += other.disruptions;
        self.redirects += other.redirects;
        self.map_refreshes += other.map_refreshes;
        self.hedges_fired += other.hedges_fired;
        self.hedges_won += other.hedges_won;
        self.hedges_lost += other.hedges_lost;
        self.hedges_wasted += other.hedges_wasted;
        if self.routed.len() < other.routed.len() {
            self.routed.resize(other.routed.len(), 0);
        }
        for (slot, n) in self.routed.iter_mut().zip(&other.routed) {
            *slot += n;
        }
        self.latencies.append(&mut other.latencies);
    }
}

/// One worker's fetch path: a plain [`Client`] in the normal benchmark, a
/// [`RobustClient`] over a fault-injected wire (`--chaos`) or over a
/// cluster's members (`--cluster`).
enum Fetcher {
    Plain(Client),
    Robust(Box<RobustClient>),
}

impl Fetcher {
    fn fetch(&mut self, container: u32, chunk: u32, cf: u8) -> aicomp_serve::Result<FetchedChunk> {
        match self {
            Fetcher::Plain(c) => c.fetch(container, chunk, cf),
            Fetcher::Robust(r) => r.fetch(container, chunk, cf),
        }
    }
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Outcome of the mid-run reconfiguration push (`--churn`).
struct ChurnReport {
    dropped: String,
    pause: Duration,
    suspicions: u64,
}

/// Sum of the four reconfiguration counters (map pushes, rejected pushes,
/// drained requests, handed-off keys) across every member of `map`. Two
/// snapshots bracket the churn run; the delta replays exactly under a
/// fixed seed, while the raw values are cumulative since each shard booted.
fn reconfig_totals(map: &ShardMap) -> Result<[u64; 4], String> {
    let mut t = [0u64; 4];
    for m in &map.members {
        let report = Client::connect(&m.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats from {}: {e}", m.addr))?;
        t[0] += report.map_pushes;
        t[1] += report.map_push_rejected;
        t[2] += report.drained;
        t[3] += report.handoffs;
    }
    Ok(t)
}

/// The quiesced reconfiguration between the two load phases: push an
/// epoch+1 map that drops the last member to *every* member (the leaver
/// included — it must answer `WrongShard` for keys it no longer owns),
/// then sweep the old membership through the seeded failure detector.
/// Everyone is alive here, so the sweep reports zero suspicions — the
/// nonzero detection path is exercised by the integration tests' shard
/// kill and `dcz cluster suspect`.
fn run_churn(cur: &ShardMap) -> Result<ChurnReport, String> {
    let keep = cur.members[..cur.members.len() - 1].to_vec();
    let dropped = cur.members.last().expect("validated non-empty").name.clone();
    let next_map = ShardMap::new(
        cur.epoch + 1,
        cur.seed,
        cur.vnodes,
        cur.replication.min(keep.len() as u8),
        keep,
    );
    let t0 = Instant::now();
    for m in &cur.members {
        let (epoch, installed) = Client::connect(&m.addr)
            .and_then(|mut c| c.push_map(&next_map))
            .map_err(|e| format!("map push to {}: {e}", m.addr))?;
        if !installed {
            return Err(format!(
                "{} refused epoch {} (it is at {epoch}; is another churn run active?)",
                m.addr, next_map.epoch
            ));
        }
    }
    let pause = t0.elapsed();
    let mut det = FailureDetector::new(cur.members.len(), 50, 2);
    for round in 0..2u64 {
        for (i, m) in cur.members.iter().enumerate() {
            let ok = Client::connect(&m.addr).and_then(|mut c| c.ping()).is_ok();
            det.observe(i, ok, round * 50);
        }
    }
    Ok(ChurnReport { dropped, pause, suspicions: det.suspicions() })
}

/// Undo the churn: push the original roster back at epoch+2 so a second
/// identical invocation starts from the same membership (the run-twice
/// determinism diff in CI depends on it).
fn restore_members(cur: &ShardMap) -> Result<(), String> {
    let restore =
        ShardMap::new(cur.epoch + 2, cur.seed, cur.vnodes, cur.replication, cur.members.clone());
    for m in &cur.members {
        Client::connect(&m.addr)
            .and_then(|mut c| c.push_map(&restore))
            .map_err(|e| format!("restore push to {}: {e}", m.addr))?;
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    let flags = Flags::from_env(USAGE, &VALUE_FLAGS, &["--churn"]);
    let clients: usize = flags.get("--clients", 32);
    let requests: usize = flags.get("--requests", 16);
    let coarse_frac: f64 = flags.get("--coarse", 0.5);
    let coarse_cf: Option<u8> = flags.opt("--cf");
    let seed: u64 = flags.get("--seed", 7);
    let chaos: Option<u64> = flags.opt("--chaos");
    let timeout_ms: u64 = flags.get("--timeout", 10_000);
    let retries: u32 = flags.get("--retries", 6);
    let tenant: u32 = flags.get("--tenant", 0);
    let weight: u8 = flags.get("--weight", 1);
    let tenants: u32 = flags.get("--tenants", 0);
    let hedge: f64 = flags.get("--hedge", 0.0);
    if tenants > 0 && flags.has("--tenant") {
        return Err("--tenants (round-robin) and --tenant (fixed) are mutually exclusive".into());
    }
    let qos_mode = tenants > 0 || flags.has("--tenant");
    // Cluster mode: comma-separated seed members of a sharded cluster.
    let cluster_seeds: Option<Vec<SocketAddr>> = match flags.value("--cluster") {
        Some(list) => {
            if chaos.is_some() {
                return Err("--cluster and --chaos are mutually exclusive".into());
            }
            if flags.has("--addr") || flags.has("--store") {
                return Err("--cluster drives an external cluster; drop --addr/--store \
                     (use --verify <file.dcz> for bit checks)"
                    .into());
            }
            let mut seeds = Vec::new();
            for part in list.split(',').filter(|p| !p.is_empty()) {
                let sock = part
                    .to_socket_addrs()
                    .map_err(|e| format!("{part}: {e}"))?
                    .next()
                    .ok_or_else(|| format!("{part}: no address"))?;
                seeds.push(sock);
            }
            if seeds.is_empty() {
                return Err("--cluster needs at least one seed address".into());
            }
            Some(seeds)
        }
        None => None,
    };
    let churn = flags.has("--churn");
    if churn {
        if cluster_seeds.is_none() {
            return Err("--churn reconfigures a cluster; it requires --cluster".into());
        }
        if requests < 2 {
            return Err(
                "--churn splits each client's requests around the push; use --requests >= 2".into(),
            );
        }
    }
    if hedge > 0.0 && cluster_seeds.is_none() {
        return Err("--hedge arms hedged reads over a cluster; it requires --cluster".into());
    }
    // Which tenant a client thread identifies as: round-robin over
    // `1..=tenants`, or the one fixed `--tenant` for every thread.
    let tenant_of = move |id: usize| -> u32 {
        if tenants > 0 {
            (id as u32 % tenants) + 1
        } else {
            tenant
        }
    };

    // Resolve the server: external (--addr), self-hosted over --store, or
    // self-hosted over a generated container.
    let mut handle: Option<ServerHandle> = None;
    let mut generated: Option<PathBuf> = None;
    let mut verify_path: Option<PathBuf> = flags.value("--verify").map(PathBuf::from);
    let addr = match (&cluster_seeds, flags.value("--addr")) {
        // Cluster mode: the control connection (info/stats) goes to the
        // first seed; the workers route by the shard map.
        (Some(seeds), _) => seeds[0].to_string(),
        (None, Some(a)) => a.to_string(),
        (None, None) => {
            let path = match flags.value("--store") {
                Some(s) => PathBuf::from(s),
                None => {
                    let p = synthetic_container()?;
                    generated = Some(p.clone());
                    p
                }
            };
            verify_path.get_or_insert_with(|| path.clone());
            let server = Server::bind("127.0.0.1:0", &[path], ServeConfig::default())
                .map_err(|e| e.to_string())?;
            let h = server.spawn();
            let addr = h.addr().to_string();
            handle = Some(h);
            addr
        }
    };

    let mut control = Client::connect(&addr).map_err(|e| e.to_string())?;
    let info = control.info(0).map_err(|e| e.to_string())?;
    let stored_cf = info.cf;
    let coarse_cf = coarse_cf.unwrap_or((stored_cf / 2).max(1));
    if coarse_cf > stored_cf {
        return Err(format!("--cf {coarse_cf} exceeds the stored chop factor {stored_cf}"));
    }
    let expected = match &verify_path {
        Some(p) => Some(Arc::new(reference_bits(p, info.chunks, stored_cf)?)),
        None => None,
    };
    println!(
        "driving {addr}{}: {} chunks of {} samples, stored cf {stored_cf}, \
         {clients} clients x {requests} requests, {:.0}% coarse (cf {coarse_cf}){}",
        if handle.is_some() { " (self-hosted)" } else { "" },
        info.chunks,
        info.chunk_size,
        coarse_frac * 100.0,
        if expected.is_some() { ", verifying bits" } else { "" }
    );

    // Churn bookkeeping: the initial map and a counter snapshot taken
    // before any load, so the `churn-counters:` line can print pure
    // deltas (the cluster's counters are cumulative since boot, and CI
    // runs this twice expecting identical output).
    let churn_base = if churn {
        let map = control.shard_map().map_err(|e| e.to_string())?;
        if map.members.len() < 2 {
            return Err("--churn drops the last member; the cluster needs at least 2".into());
        }
        let before = reconfig_totals(&map)?;
        Some((map, before))
    } else {
        None
    };
    // clients + 1 parties: every worker plus the control thread, which
    // reconfigures the cluster while the workers are parked between
    // their two load phases.
    let barrier = Arc::new(std::sync::Barrier::new(clients + 1));

    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|id| {
            let addr = addr.clone();
            let expected = expected.clone();
            let seeds = cluster_seeds.clone();
            let chunks = info.chunks;
            let my_tenant = tenant_of(id);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Result<Outcome, String> {
                let mut rng = seed ^ (id as u64).wrapping_mul(0x0DDB_1A5E_5BAD_5EED);
                // The robust client's addresses: the cluster's members,
                // or the one server a chaos run drives.
                let addrs = match (seeds, chaos) {
                    (Some(sv), _) => Some(sv),
                    (None, Some(_)) => Some(vec![addr
                        .to_socket_addrs()
                        .map_err(|e| e.to_string())?
                        .next()
                        .ok_or_else(|| format!("{addr}: no address"))?]),
                    (None, None) => None,
                };
                let mut client = match addrs {
                    Some(addrs) => {
                        // `standard` is calibrated for short test exchanges;
                        // loadgen moves ~100 KiB per fetch, so space the
                        // faults out or every attempt dies mid-response and
                        // no retry budget can win.
                        let plan = chaos.map(|cs| WireFaultPlan {
                            reset_every: Some(1 << 20),
                            corrupt_every: Some(512 << 10),
                            stall_every: Some(256 << 10),
                            stall: Duration::from_millis(1),
                            ..WireFaultPlan::standard(cs).derive(id as u64 + 1)
                        });
                        let (jitter_seed, backoff_ms) = match chaos {
                            Some(cs) => (cs, 1),
                            None => (seed, 5),
                        };
                        let config = RobustConfig {
                            retry: RetryPolicy {
                                max_attempts: retries.max(1),
                                backoff: Duration::from_millis(backoff_ms),
                            },
                            timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
                            seed: jitter_seed ^ (id as u64).wrapping_mul(0x0DDB_1A5E_5BAD_5EED),
                            chaos: plan,
                            tenant: my_tenant,
                            weight,
                            hedge_fraction: hedge,
                            ..RobustConfig::default()
                        };
                        Fetcher::Robust(Box::new(
                            RobustClient::new(&addrs, config).map_err(|e| e.to_string())?,
                        ))
                    }
                    None => Fetcher::Plain(
                        Client::connect_tenant(&addr, my_tenant, weight)
                            .map_err(|e| e.to_string())?,
                    ),
                };
                let mut out = Outcome::default();
                let phase1 = if churn { requests / 2 } else { requests };
                for i in 0..requests {
                    if churn && i == phase1 {
                        // Quiesce for the reconfiguration: every admitted
                        // request is already answered when the control
                        // thread pushes the epoch-bumped map, then resume
                        // against the shrunk cluster (this client's stale
                        // map is corrected by a WrongShard redirect).
                        barrier.wait();
                        barrier.wait();
                    }
                    let chunk = (next(&mut rng) % chunks as u64) as u32;
                    let coarse = (next(&mut rng) as f64 / u64::MAX as f64) < coarse_frac;
                    let cf = if coarse { coarse_cf } else { 0 };
                    let t = Instant::now();
                    match client.fetch(0, chunk, cf) {
                        Ok(got) => {
                            out.latencies.push(t.elapsed());
                            out.ok += 1;
                            // A requested cf of 0 means "stored fidelity";
                            // anything served below what was asked for is a
                            // brownout degradation (counted, not failed).
                            let asked = if cf == 0 { stored_cf } else { cf };
                            if got.served_cf < asked {
                                out.degraded += 1;
                            }
                            if let Some(exp) = &expected {
                                // Verify at the fidelity the reply declares:
                                // degraded bits must equal a direct decode
                                // at that coarser chop factor.
                                let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
                                if exp.get(&(chunk, got.served_cf)) != Some(&bits) {
                                    out.mismatched += 1;
                                }
                            }
                        }
                        Err(e) if e.is_overloaded() => out.shed += 1,
                        Err(ServeError::Server { code: ErrorCode::DeadlineExceeded, .. }) => {
                            out.deadline += 1;
                        }
                        Err(e) => {
                            eprintln!("client {id}: fetch failed: {e}");
                            out.failed += 1;
                        }
                    }
                }
                if let Fetcher::Robust(r) = &client {
                    let c = r.counters();
                    out.retries = c.retries.load(Ordering::Relaxed);
                    out.reconnects = c.reconnects.load(Ordering::Relaxed);
                    out.failovers = c.failovers.load(Ordering::Relaxed);
                    out.breaker_opens = c.breaker_opens.load(Ordering::Relaxed);
                    out.disruptions = r.wire_counters().disruptions();
                    out.redirects = c.redirects.load(Ordering::Relaxed);
                    out.map_refreshes = c.map_refreshes.load(Ordering::Relaxed);
                    out.hedges_fired = c.hedges_fired.load(Ordering::Relaxed);
                    out.hedges_won = c.hedges_won.load(Ordering::Relaxed);
                    out.hedges_lost = c.hedges_lost.load(Ordering::Relaxed);
                    out.hedges_wasted = c.hedges_wasted.load(Ordering::Relaxed);
                    out.routed = r.routed_counts().iter().map(|(_, n)| *n).collect();
                }
                Ok(out)
            })
        })
        .collect();

    let mut churn_report: Option<ChurnReport> = None;
    if let Some((map, _)) = &churn_base {
        barrier.wait();
        // All workers are parked; reconfigure, then release them. The
        // second wait happens even when the push failed, so the worker
        // threads never hang — the error surfaces after they drain.
        let result = run_churn(map);
        barrier.wait();
        churn_report = Some(result?);
    }

    let mut per_tenant: BTreeMap<u32, Outcome> = BTreeMap::new();
    for (id, t) in threads.into_iter().enumerate() {
        let mut out = t.join().map_err(|_| "client thread panicked".to_string())??;
        per_tenant.entry(tenant_of(id)).or_default().absorb(&mut out);
    }
    let wall = t0.elapsed();
    let mut total = Outcome::default();
    for out in per_tenant.values_mut() {
        out.latencies.sort_unstable();
        total.absorb(&mut out.clone());
    }
    total.latencies.sort_unstable();

    println!(
        "{} ok ({} degraded), {} shed, {} failed, {} bit-mismatched in {:.3} s ({:.0} fetches/s)",
        total.ok,
        total.degraded,
        total.shed,
        total.failed,
        total.mismatched,
        wall.as_secs_f64(),
        total.ok as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!(
        "latency: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        quantile(&total.latencies, 0.50).as_secs_f64() * 1e3,
        quantile(&total.latencies, 0.99).as_secs_f64() * 1e3,
        quantile(&total.latencies, 1.0).as_secs_f64() * 1e3,
    );
    println!(
        "errors: {} shed, {} deadline-exceeded, {} failed; \
         recovery: {} retries, {} reconnects, {} breaker opens",
        total.shed,
        total.deadline,
        total.failed,
        total.retries,
        total.reconnects,
        total.breaker_opens,
    );
    if qos_mode {
        for (t, out) in &per_tenant {
            println!(
                "tenant {t}: {} ok ({} degraded), {} shed, {} failed; p50 {:.3} ms, p99 {:.3} ms",
                out.ok,
                out.degraded,
                out.shed,
                out.failed,
                quantile(&out.latencies, 0.50).as_secs_f64() * 1e3,
                quantile(&out.latencies, 0.99).as_secs_f64() * 1e3,
            );
        }
        // One machine-greppable line; counts only (latencies are not
        // deterministic). The CI qos-smoke job greps the victim tenant's
        // `shed=0` out of this.
        let fields: Vec<String> = per_tenant
            .iter()
            .map(|(t, o)| {
                format!(
                    "t{t}_ok={} t{t}_shed={} t{t}_degraded={} t{t}_failed={} t{t}_mismatched={}",
                    o.ok, o.shed, o.degraded, o.failed, o.mismatched
                )
            })
            .collect();
        println!("qos-counters: seed={seed} {}", fields.join(" "));
    }
    if let Some(seeds) = &cluster_seeds {
        // One machine-greppable line (counts only). Routed counts are a
        // pure function of the seed, the keys, and the map — identical
        // across runs against a healthy cluster; failovers/redirects stay
        // exact under the controlled kill of the integration test.
        let shards: Vec<String> =
            total.routed.iter().enumerate().map(|(i, n)| format!("s{i}={n}")).collect();
        println!(
            "cluster-counters: seed={seed} seeds={} ok={} shed={} failed={} mismatched={} \
             redirects={} refreshes={} failovers={} {}",
            seeds.len(),
            total.ok,
            total.shed,
            total.failed,
            total.mismatched,
            total.redirects,
            total.map_refreshes,
            total.failovers,
            shards.join(" "),
        );
    }
    if let Some(cs) = chaos {
        // One machine-diffable line: every field is a pure function of the
        // seed and the store, so CI runs twice and asserts equality.
        println!(
            "chaos-counters: seed={cs} ok={} shed={} deadline={} failed={} mismatched={} \
             retries={} reconnects={} failovers={} breaker_opens={} disruptions={}",
            total.ok,
            total.shed,
            total.deadline,
            total.failed,
            total.mismatched,
            total.retries,
            total.reconnects,
            total.failovers,
            total.breaker_opens,
            total.disruptions,
        );
    }
    if let Some((map, before)) = &churn_base {
        let report = churn_report.as_ref().expect("churn ran before the threads were joined");
        // Put the roster back at epoch+2 so a re-run of the same command
        // starts from the same membership, then read the counter deltas
        // (the restore's own pushes and handoffs are part of the same
        // deterministic schedule, so they are included in the line).
        restore_members(map)?;
        let after = reconfig_totals(map)?;
        let delta: Vec<u64> = after.iter().zip(before.iter()).map(|(a, b)| a - b).collect();
        println!(
            "reconfiguration: dropped {} at epoch {}, push pause {:.3} ms, {} suspicions",
            report.dropped,
            map.epoch + 1,
            report.pause.as_secs_f64() * 1e3,
            report.suspicions,
        );
        // One machine-diffable line: every field is a pure function of
        // the seed, the keys, and the push schedule (latency-free counts
        // only) — the CI churn-smoke job runs twice and asserts equality.
        println!(
            "churn-counters: seed={seed} pushes={} rejected={} drained={} handoffs={} \
             suspicions={} hedges_fired={} hedges_won={} hedges_lost={} hedges_wasted={}",
            delta[0],
            delta[1],
            delta[2],
            delta[3],
            report.suspicions,
            total.hedges_fired,
            total.hedges_won,
            total.hedges_lost,
            total.hedges_wasted,
        );
    }
    let stats = control.stats().map_err(|e| e.to_string())?;
    println!("server stats:\n{stats}");

    if let Some(h) = handle {
        control.shutdown().map_err(|e| e.to_string())?;
        h.join();
    }
    if let Some(p) = generated {
        std::fs::remove_file(p).ok();
    }
    Ok(total.failed == 0 && total.mismatched == 0 && total.ok > 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("loadgen: run had failures or bit mismatches (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
