//! Cluster serving end-to-end: a 3-shard consistent-hash cluster must be
//! invisible to the reader — every chunk a ring-routed [`RobustClient`]
//! fetches is bit-identical to what a single solo server (and a direct
//! [`DczReader`] decode) produces — and the routing machinery must be
//! deterministic under failure: killing one shard mid-walk replays the
//! exact same [routed, redirects, map refreshes, failovers] counters
//! across two runs with the same seed (the chaos run-twice discipline,
//! applied to topology instead of wire faults).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use aicomp::serve::{
    Client, RobustClient, RobustConfig, ServeConfig, Server, ServerHandle, ShardMap, ShardMember,
    ShardRole,
};
use aicomp::store::writer::pack_file;
use aicomp::store::{RetryPolicy, StoreOptions};
use aicomp::{DczReader, Tensor};

const CHANNELS: usize = 2;
const N: usize = 16;
const CF: usize = 4;
const CHUNK: usize = 4;
const SAMPLES: usize = 18;
const COARSE: u8 = 2;
const CHUNKS: u32 = SAMPLES.div_ceil(CHUNK) as u32;
const CONTAINERS: u32 = 2;

fn sample(container: usize, i: usize) -> Tensor {
    Tensor::from_vec(
        (0..CHANNELS * N * N)
            .map(|k| ((k * 19 + i * 31 + container * 101) % 59) as f32 / 6.0 - 4.0)
            .collect(),
        [CHANNELS, N, N],
    )
    .unwrap()
}

/// Pack `CONTAINERS` distinct stores so the ring has keys in more than
/// one container (routing hashes `(container, chunk)`, not just chunks).
fn packed(tag: &str) -> Vec<PathBuf> {
    (0..CONTAINERS as usize)
        .map(|c| {
            let path = std::env::temp_dir()
                .join(format!("aicomp_cluster_{tag}_{c}_{}.dcz", std::process::id()));
            let opts = StoreOptions::dct(N, CF, CHANNELS, CHUNK);
            pack_file(&path, &opts, (0..SAMPLES).map(move |i| sample(c, i))).unwrap();
            path
        })
        .collect()
}

/// Direct (server-free) decodes of every chunk at both fidelities.
fn reference(paths: &[PathBuf]) -> HashMap<(u32, u32, u8), Vec<u32>> {
    let mut map = HashMap::new();
    for (c, path) in paths.iter().enumerate() {
        let mut reader = DczReader::open(path).unwrap();
        for chunk in 0..reader.chunk_count() {
            for cf in [CF as u8, COARSE] {
                let t = reader.decompress_chunk_at(chunk, cf as usize).unwrap();
                map.insert(
                    (c as u32, chunk as u32, cf),
                    t.data().iter().map(|v: &f32| v.to_bits()).collect::<Vec<u32>>(),
                );
            }
        }
    }
    map
}

/// Reserve `n` distinct loopback ports. The shard map must name final
/// addresses *before* any server binds (ownership is decided by member
/// names, but clients dial the advertised addresses), so the test grabs
/// ephemeral ports, releases them, and rebinds immediately.
fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| l.local_addr().unwrap().port()).collect()
}

/// Start a 3-shard cluster sharing one map; returns (map, handles).
fn start_cluster(paths: &[PathBuf], ring_seed: u64) -> (ShardMap, Vec<ServerHandle>) {
    let ports = reserve_ports(3);
    let members: Vec<ShardMember> = ports
        .iter()
        .enumerate()
        .map(|(i, &p)| ShardMember { name: format!("s{i}"), addr: format!("127.0.0.1:{p}") })
        .collect();
    let map = ShardMap::new(1, ring_seed, 128, 2, members);
    let handles = (0..3)
        .map(|i| {
            let config = ServeConfig {
                shard: Some(ShardRole { map: map.clone(), index: i }),
                ..ServeConfig::default()
            };
            Server::bind(map.members[i].addr.as_str(), paths, config).unwrap().spawn()
        })
        .collect();
    (map, handles)
}

/// Every (container, chunk, fidelity) triple the walk covers.
fn all_keys() -> Vec<(u32, u32, u8)> {
    let mut keys = Vec::new();
    for c in 0..CONTAINERS {
        for chunk in 0..CHUNKS {
            for cf in [0u8, COARSE] {
                keys.push((c, chunk, cf));
            }
        }
    }
    keys
}

/// SplitMix64 step — the same generator the serving layer seeds its
/// chaos and jitter with, re-rolled here so the walk order is a pure
/// function of the test seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffled(keys: &[(u32, u32, u8)], state: &mut u64) -> Vec<(u32, u32, u8)> {
    let mut v = keys.to_vec();
    for i in (1..v.len()).rev() {
        let j = (mix(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn verify(
    client: &mut RobustClient,
    want: &HashMap<(u32, u32, u8), Vec<u32>>,
    (c, chunk, cf): (u32, u32, u8),
) {
    let got = client.fetch(c, chunk, cf).unwrap();
    let eff = if cf == 0 { CF as u8 } else { cf };
    let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, want[&(c, chunk, eff)], "container {c} chunk {chunk} cf {eff}");
}

#[test]
fn three_shard_cluster_is_bit_identical_to_a_single_node() {
    let paths = packed("ident");
    let want = reference(&paths);

    // Single-node reference: a solo server (no shard role) over the same
    // stores, asked through the plain client.
    let solo = Server::bind("127.0.0.1:0", &paths, ServeConfig::default()).unwrap().spawn();
    let mut single = Client::connect(solo.addr()).unwrap();

    // The cluster: same stores split across 3 shards, asked through a
    // ring-routed client seeded with one member address.
    let (map, handles) = start_cluster(&paths, 42);
    let seed_addr: SocketAddr = map.members[0].addr.parse().unwrap();
    let mut ring = RobustClient::new(&[seed_addr], RobustConfig::default()).unwrap();

    for (c, chunk, cf) in all_keys() {
        let via_ring = ring.fetch(c, chunk, cf).unwrap();
        let via_solo = single.fetch(c, chunk, cf).unwrap();
        let eff = if cf == 0 { CF as u8 } else { cf };
        let ring_bits: Vec<u32> = via_ring.data.iter().map(|v| v.to_bits()).collect();
        let solo_bits: Vec<u32> = via_solo.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ring_bits, want[&(c, chunk, eff)], "ring vs direct decode");
        assert_eq!(ring_bits, solo_bits, "ring vs single node, chunk ({c}, {chunk}, {eff})");
    }

    // The walk covers keys the seed member does not serve, so the lazy
    // map load must have happened — and installed the cluster's epoch.
    let installed = ring.ring_map().expect("ring client must have learned the map");
    assert_eq!(installed.epoch, 1);
    assert_eq!(installed.len(), 3);
    // With the map installed, routed traffic lands on every shard.
    let routed = ring.routed_counts();
    assert_eq!(routed.len(), 3);
    assert!(
        routed.iter().all(|(_, n)| *n > 0),
        "every shard should serve some ring-routed keys: {routed:?}"
    );
    // Misdirected asks were rejected *before* any read, and counted.
    let stats = ring.stats().unwrap();
    assert_eq!(stats.shard_epoch, 1);
    assert!(stats.shard_owned > 0, "{stats:?}");

    single.shutdown().unwrap();
    solo.join();
    for h in handles {
        h.shutdown_and_join();
    }
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// A client built over one member's address, as it would be over a
/// replica, learns the cluster from its first `WrongShard` redirect:
/// every key comes back bit-exact, and the redirects and the map refresh
/// they triggered are counted.
#[test]
fn a_client_over_one_member_follows_redirects_to_every_key() {
    let paths = packed("redirect");
    let want = reference(&paths);
    let (map, handles) = start_cluster(&paths, 42);
    let seed_addr: SocketAddr = map.members[0].addr.parse().unwrap();
    let mut client = RobustClient::new(&[seed_addr], RobustConfig::default()).unwrap();
    for key in all_keys() {
        verify(&mut client, &want, key);
    }
    let c = client.counters();
    assert!(c.redirects.load(Ordering::Relaxed) > 0, "the seed must not own every key");
    assert!(c.map_refreshes.load(Ordering::Relaxed) >= 1, "a redirect must refresh the map");
    for h in handles {
        h.shutdown_and_join();
    }
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// One full kill-a-shard pass: fresh 3-shard cluster, a seeded shuffled
/// walk over every key, shard 1 killed between the two rounds, every
/// byte verified throughout. Returns the routing counters.
fn cluster_pass(
    paths: &[PathBuf],
    want: &HashMap<(u32, u32, u8), Vec<u32>>,
    seed: u64,
) -> [u64; 6] {
    let (map, mut handles) = start_cluster(paths, 42);
    let seed_addr: SocketAddr = map.members[0].addr.parse().unwrap();
    let config = RobustConfig {
        retry: RetryPolicy { max_attempts: 2, backoff: Duration::from_millis(1) },
        // A single failure opens the breaker and the long cooldown keeps
        // it open for the rest of the pass: no half-open probes, so the
        // counters are a pure function of the seed, not of timing.
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(60),
        seed,
        ..RobustConfig::default()
    };
    let mut client = RobustClient::new(&[seed_addr], config).unwrap();
    let mut order = seed;

    // Round A: all shards healthy.
    for key in shuffled(&all_keys(), &mut order) {
        verify(&mut client, want, key);
    }
    // Kill shard 1. Every key keeps at least one live replica
    // (replication 2 of 3), so the walk must still complete — keys whose
    // primary died fail over within their replica set.
    handles.remove(1).shutdown_and_join();
    // Round B: a reshuffled walk over the degraded cluster.
    for key in shuffled(&all_keys(), &mut order) {
        verify(&mut client, want, key);
    }

    let routed = client.routed_counts();
    let c = client.counters();
    let out = [
        routed[0].1,
        routed[1].1,
        routed[2].1,
        c.redirects.load(Ordering::Relaxed),
        c.map_refreshes.load(Ordering::Relaxed),
        c.failovers.load(Ordering::Relaxed),
    ];
    for h in handles {
        h.shutdown_and_join();
    }
    out
}

#[test]
fn killing_one_shard_replays_deterministic_routing_counters() {
    let paths = packed("kill");
    let want = reference(&paths);

    let first = cluster_pass(&paths, &want, 0xD1CE);
    let second = cluster_pass(&paths, &want, 0xD1CE);
    assert_eq!(
        first, second,
        "same seed, same topology change: [routed0, routed1, routed2, redirects, \
         refreshes, failovers] must replay exactly"
    );
    // The degraded round must actually have exercised failover, and the
    // blind first asks must have drawn at least one typed redirect.
    assert!(first[5] > 0, "killing a shard must force replica failovers: {first:?}");
    assert!(first[3] > 0, "the blind first asks must hit a WrongShard redirect: {first:?}");
    assert_eq!(first[4], first[3], "each redirect refreshes the map exactly once: {first:?}");

    // A different walk order is a genuinely different routing history.
    let other = cluster_pass(&paths, &want, 0xFEED);
    assert_ne!(first, other, "distinct seeds should not replay the same routing history");
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}
