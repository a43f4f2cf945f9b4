//! Multi-tenant QoS under saturation: an aggressor tenant hammering the
//! server through its quota must not cost a victim tenant a single shed,
//! and the brownout governor must degrade fidelity *explicitly* — every
//! reply carries `served_cf`, and degraded bytes bit-match a direct
//! [`DczReader`] decode at that coarser chop factor (§3.2: coarse reads
//! are ring-prefix reads, so "degraded" means *coarser*, never *wrong*).
//!
//! The isolation claim is structural, not statistical: the victim keeps
//! at most one request in flight and the aggressor is capped by its
//! in-flight quota well below the global queue depth, so the weighted-
//! fair queue always has room for the victim — `victim shed == 0` is a
//! theorem the test checks. Each scenario
//! runs twice with the same seed and must reproduce its structurally
//! deterministic counters exactly.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use aicomp::serve::{BrownoutConfig, Client, ServeConfig, Server};
use aicomp::store::writer::pack_file;
use aicomp::store::StoreOptions;
use aicomp::{DczReader, Tensor};

const CHANNELS: usize = 2;
const N: usize = 16;
const CF: usize = 4;
const CHUNK: usize = 4;
const SAMPLES: usize = 18;
const COARSE: u8 = 2;
const MAX_STEPS: u8 = 2;

const AGGRESSOR: u32 = 7;
const VICTIM: u32 = 8;
const AGG_THREADS: usize = 3;
const AGG_REQUESTS: usize = 20;

fn sample(i: usize) -> Tensor {
    Tensor::from_vec(
        (0..CHANNELS * N * N).map(|k| ((k * 11 + i * 37) % 53) as f32 / 7.0 - 3.5).collect(),
        [CHANNELS, N, N],
    )
    .unwrap()
}

fn packed(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("aicomp_qos_{tag}_{}.dcz", std::process::id()));
    let opts = StoreOptions::dct(N, CF, CHANNELS, CHUNK);
    pack_file(&path, &opts, (0..SAMPLES).map(sample)).unwrap();
    path
}

/// Direct (server-free) decodes of every chunk at *every* fidelity — a
/// browned-out reply may come back at any coarser prefix.
fn reference(path: &PathBuf) -> HashMap<(u32, u8), Vec<u32>> {
    let mut reader = DczReader::open(path).unwrap();
    let mut map = HashMap::new();
    for chunk in 0..reader.chunk_count() {
        for cf in 1..=CF as u8 {
            let t = reader.decompress_chunk_at(chunk, cf as usize).unwrap();
            map.insert(
                (chunk as u32, cf),
                t.data().iter().map(|v: &f32| v.to_bits()).collect::<Vec<u32>>(),
            );
        }
    }
    map
}

/// The structurally deterministic outcome of one saturation run — two
/// runs with the same configuration must produce this value bit-for-bit.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    victim_ok: u64,
    victim_shed: u64,
    victim_degraded: u64,
    aggressor_total: u64,
    brownout_level: u64,
    brownout_steps_down: u64,
    brownout_steps_up: u64,
}

fn mixed_tenant_saturation(path: &PathBuf) -> RunOutcome {
    let want = Arc::new(reference(path));
    let chunks = (SAMPLES as u32).div_ceil(CHUNK as u32);

    // One slow worker + a forced governor (pressure on every observation,
    // zero dwell): the level ratchets to MAX_STEPS within the warmup and
    // stays pinned, making every later reply's served_cf deterministic.
    // The aggressor's in-flight quota (2) is far below the queue depth
    // (16), so the victim's single in-flight request always finds room.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 16,
        cache_entries: 0, // every fetch decodes: keeps the worker saturated
        worker_delay: Some(Duration::from_millis(2)),
        tenant_inflight: 2,
        brownout: Some(BrownoutConfig {
            high_watermark: 0.0,
            low_watermark: -1.0,
            slow_batch: Duration::from_secs(3600),
            dwell: Duration::ZERO,
            max_steps: MAX_STEPS,
        }),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", &[path], config).unwrap().spawn();
    let addr = handle.addr();

    // Warm the governor to its floor so the measured phase is steady-state.
    let mut warm = Client::connect(addr).unwrap();
    for step in 0..u32::from(MAX_STEPS) {
        warm.fetch(0, step % chunks, 0).unwrap();
    }

    // Aggressor: several connections under ONE tenant id, firing as fast
    // as sheds allow. Quota sheds are its own problem — counted, ignored.
    let aggressors: Vec<_> = (0..AGG_THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect_tenant(addr, AGGRESSOR, 1).unwrap();
                let (mut ok, mut shed) = (0u64, 0u64);
                for i in 0..AGG_REQUESTS {
                    match client.fetch(0, i as u32 % chunks, 0) {
                        Ok(_) => ok += 1,
                        Err(e) if e.is_overloaded() => shed += 1,
                        Err(e) => panic!("aggressor fetch died untyped: {e}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    // Victim: a sequential full-container walk at both fidelities while
    // the aggressor saturates. Every reply must verify at the fidelity it
    // *declares*, and no request may be shed.
    let victim = {
        let want = Arc::clone(&want);
        std::thread::spawn(move || {
            let mut client = Client::connect_tenant(addr, VICTIM, 1).unwrap();
            let (mut ok, mut degraded) = (0u64, 0u64);
            for chunk in 0..chunks {
                for req_cf in [0u8, COARSE] {
                    let got = client.fetch(0, chunk, req_cf).unwrap();
                    ok += 1;
                    // Brownout floor: served = max(1, resolved − level).
                    let resolved = if req_cf == 0 { CF as u8 } else { req_cf };
                    let expect_cf = resolved.saturating_sub(MAX_STEPS).max(1);
                    assert_eq!(
                        got.served_cf, expect_cf,
                        "chunk {chunk} cf {req_cf}: steady-state brownout must serve {expect_cf}"
                    );
                    assert_eq!(
                        got.degraded(),
                        req_cf != 0 && got.served_cf < req_cf,
                        "degradation flag must match the served/requested gap"
                    );
                    if got.served_cf < resolved {
                        degraded += 1;
                    }
                    let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        bits,
                        want[&(chunk, got.served_cf)],
                        "chunk {chunk}: degraded bytes must bit-match a direct cf-{} read",
                        got.served_cf
                    );
                }
            }
            (ok, degraded)
        })
    };

    let (victim_ok, victim_degraded) = victim.join().unwrap();
    let mut agg_counted = 0u64;
    for a in aggressors {
        let (ok, shed) = a.join().unwrap();
        // Conservation on the aggressor side: every request is answered
        // exactly once, as a chunk or a typed shed — nothing vanishes.
        agg_counted += ok + shed;
    }

    let mut control = Client::connect(addr).unwrap();
    let stats = control.stats().unwrap();
    control.shutdown().unwrap();
    handle.join();

    // The server's own per-tenant ledger tells the same story.
    let tenant = |id: u32| stats.tenants.iter().find(|t| t.tenant == id).expect("tenant in stats");
    let victim_stats = tenant(VICTIM);
    assert_eq!(victim_stats.shed, 0, "aggressor starved the victim: {victim_stats:?}");
    assert_eq!(victim_stats.accepted, victim_ok);
    assert_eq!(victim_stats.degraded, victim_degraded);
    let agg_stats = tenant(AGGRESSOR);
    assert_eq!(
        agg_stats.accepted + agg_stats.shed,
        agg_counted,
        "aggressor requests must all be accounted for"
    );
    assert!(stats.brownout_level > 0, "forced governor must be engaged");

    RunOutcome {
        victim_ok,
        victim_shed: victim_stats.shed,
        victim_degraded,
        aggressor_total: agg_counted,
        brownout_level: stats.brownout_level,
        brownout_steps_down: stats.brownout_steps_down,
        brownout_steps_up: stats.brownout_steps_up,
    }
}

#[test]
fn aggressor_cannot_starve_victim_threads_backend() {
    let path = packed("threads");
    let first = mixed_tenant_saturation(&path);
    // Steady-state counters are structural: victim sees every reply at
    // the brownout floor, the governor takes exactly MAX_STEPS downward
    // steps (mutex-serialized, level-capped), and never steps up.
    let chunks = (SAMPLES as u64).div_ceil(CHUNK as u64);
    assert_eq!(first.victim_ok, chunks * 2);
    assert_eq!(first.victim_shed, 0);
    assert_eq!(first.victim_degraded, chunks * 2);
    assert_eq!(first.aggressor_total, (AGG_THREADS * AGG_REQUESTS) as u64);
    assert_eq!(first.brownout_level, u64::from(MAX_STEPS));
    assert_eq!(first.brownout_steps_down, u64::from(MAX_STEPS));
    assert_eq!(first.brownout_steps_up, 0);
    let second = mixed_tenant_saturation(&path);
    assert_eq!(first, second, "same seed and config must reproduce the counters");
    std::fs::remove_file(&path).ok();
}
