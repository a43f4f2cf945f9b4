//! End-to-end serving: the `aicomp-serve` service must hand 32+ concurrent
//! clients bit-exactly the same chunks a direct [`DczReader`] decodes —
//! through the worker pool, the reply cache (hit path is the miss path's
//! allocation), and both fidelities (stored and ring-prefix coarse). A
//! reply carries the container's stored bytes and the client decodes them,
//! so the bytes on the wire are pinned to the file too. Saturation must shed with a
//! typed `Overloaded` reply — never a hang, panic, or silent drop — and
//! graceful shutdown must drain in-flight work.
//!
//! This is the serving layer's analogue of `all_platforms_agree_numerically`:
//! the transport, queueing, and caching machinery may change *when* and
//! *how often* decompression runs (Eq. 5/7 FLOPs), but never a single bit
//! of what it produces.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use aicomp::serve::protocol::{read_response, write_request, FrameDecoder};
use aicomp::serve::{
    Client, ContainerInfo, ErrorCode, Request, Response, RobustClient, RobustConfig, ServeConfig,
    ServeError, Server,
};
use aicomp::store::chunk::{decode_prelude, prelude_len};
use aicomp::store::writer::pack_file;
use aicomp::store::RetryPolicy;
use aicomp::store::StoreOptions;
use aicomp::{DczReader, Tensor};

const CHANNELS: usize = 2;
const N: usize = 16;
const CF: usize = 4;
const CHUNK: usize = 4;
const SAMPLES: usize = 18;
const COARSE: u8 = 2;

fn sample(i: usize) -> Tensor {
    Tensor::from_vec(
        (0..CHANNELS * N * N).map(|k| ((k * 11 + i * 37) % 53) as f32 / 7.0 - 3.5).collect(),
        [CHANNELS, N, N],
    )
    .unwrap()
}

fn packed(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("aicomp_serving_{tag}_{}.dcz", std::process::id()));
    let opts = StoreOptions::dct(N, CF, CHANNELS, CHUNK);
    pack_file(&path, &opts, (0..SAMPLES).map(sample)).unwrap();
    path
}

/// Direct (server-free) decodes of every chunk at both fidelities.
fn reference(path: &PathBuf) -> HashMap<(u32, u8), Vec<u32>> {
    let mut reader = DczReader::open(path).unwrap();
    let mut map = HashMap::new();
    for chunk in 0..reader.chunk_count() {
        for cf in [CF as u8, COARSE] {
            let t = reader.decompress_chunk_at(chunk, cf as usize).unwrap();
            map.insert(
                (chunk as u32, cf),
                t.data().iter().map(|v: &f32| v.to_bits()).collect::<Vec<u32>>(),
            );
        }
    }
    map
}

#[test]
fn thirty_two_concurrent_clients_are_bit_identical() {
    let path = packed("concurrent");
    let want = Arc::new(reference(&path));

    // Few workers under 32 clients keep the queue busy; the cache is on,
    // so hits and misses interleave too.
    let config = ServeConfig {
        workers: 2,
        queue_depth: 64,
        cache_entries: 4, // smaller than the 5×2 working set: evictions happen
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", &[&path], config).unwrap().spawn();
    let addr = handle.addr();
    let chunks = (SAMPLES as u32).div_ceil(CHUNK as u32);

    let clients: Vec<_> = (0..32)
        .map(|id: u32| {
            let want = Arc::clone(&want);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Every client walks every chunk twice at both fidelities,
                // phase-shifted so duplicate requests race in flight.
                for step in 0..2 * chunks {
                    let chunk = (id + step) % chunks;
                    for req_cf in [0u8, COARSE] {
                        let got = client.fetch(0, chunk, req_cf).unwrap();
                        let eff = if req_cf == 0 { CF as u8 } else { req_cf };
                        assert_eq!(got.served_cf, eff);
                        let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            bits,
                            want[&(chunk, eff)],
                            "client {id} chunk {chunk} cf {eff} differs from direct read"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // The machinery actually engaged: workers decoded, the cache served
    // repeats, nothing was shed (the queue was deep enough), and every
    // accepted request is accounted for.
    let mut control = Client::connect(addr).unwrap();
    let stats = control.stats().unwrap();
    let fetches = 32 * 2 * chunks as u64 * 2;
    assert_eq!(stats.accepted, fetches);
    assert_eq!(stats.shed, 0);
    assert!(stats.cache_hits > 0, "repeat traffic must hit the cache: {stats:?}");
    assert!(stats.cache_evictions > 0, "a 4-entry cache over 10 keys must evict");
    assert_eq!(stats.fetch_latency_us.iter().sum::<u64>(), fetches);
    // A worker decodes only a queued miss, and skips one a sibling
    // worker cached first.
    assert!(
        0 < stats.chunks_decoded && stats.chunks_decoded <= stats.cache_misses,
        "decodes must be nonzero and bounded by misses: {stats:?}"
    );

    control.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn cache_hit_path_is_bit_identical_to_cold_decode() {
    let path = packed("cachehit");
    let want = reference(&path);
    let handle = Server::bind("127.0.0.1:0", &[&path], ServeConfig::default()).unwrap().spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Cold pass misses, warm passes hit; bits must be identical each time.
    for pass in 0..3 {
        for chunk in 0..(SAMPLES as u32).div_ceil(CHUNK as u32) {
            for cf in [CF as u8, COARSE] {
                let got = client.fetch(0, chunk, cf).unwrap();
                let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, want[&(chunk, cf)], "pass {pass} chunk {chunk} cf {cf}");
            }
        }
        let stats = client.stats().unwrap();
        if pass == 0 {
            assert!(stats.cache_misses > 0);
        } else {
            assert!(stats.cache_hits > 0, "warm pass {pass} must be served from cache");
        }
    }

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn saturation_sheds_typed_overloaded_and_recovers() {
    let path = packed("saturate");
    // One deliberately slow worker and a depth-2 queue: 32 clients racing
    // distinct uncached chunks must overflow admission.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 2,
        cache_entries: 0, // no cache bailout — every fetch needs a worker
        worker_delay: Some(Duration::from_millis(25)),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", &[&path], config).unwrap().spawn();
    let addr = handle.addr();

    let clients: Vec<_> = (0..32)
        .map(|id: u32| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                match client.fetch(0, id % 5, 0) {
                    Ok(chunk) => {
                        assert!(!chunk.data.is_empty());
                        "ok"
                    }
                    Err(e) if e.is_overloaded() => "shed",
                    Err(e) => panic!("client {id}: expected Ok or Overloaded, got {e}"),
                }
            })
        })
        .collect();
    let outcomes: Vec<&str> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let shed = outcomes.iter().filter(|o| **o == "shed").count();
    let ok = outcomes.len() - shed;
    assert!(shed > 0, "32 clients into a depth-2 queue with one slow worker must shed");
    assert!(ok > 0, "admission must keep serving while shedding: {outcomes:?}");

    // Typed shedding, exact accounting, and the server still works after.
    let mut control = Client::connect(addr).unwrap();
    let stats = control.stats().unwrap();
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(stats.accepted, ok as u64);
    // A shed fetch is neither a hit nor a miss.
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.accepted, "{stats:?}");
    let after = control.fetch(0, 0, 0).unwrap();
    assert_eq!(after.samples(), CHUNK);

    control.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn graceful_shutdown_answers_in_flight_work_and_rejects_late_fetches() {
    let path = packed("shutdown");
    let config = ServeConfig {
        workers: 1,
        worker_delay: Some(Duration::from_millis(30)),
        cache_entries: 0,
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", &[&path], config).unwrap().spawn();
    let addr = handle.addr();

    // A slow fetch is in flight when shutdown lands; it must still get its
    // (bit-exact) answer — admitted work is never dropped.
    let want = reference(&path);
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.fetch(0, 0, 0).unwrap()
    });
    std::thread::sleep(Duration::from_millis(10));
    let mut control = Client::connect(addr).unwrap();
    control.shutdown().unwrap();
    let got = in_flight.join().unwrap();
    let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, want[&(0, CF as u8)]);

    // Teardown completes (joining would hang forever if a thread leaked),
    // and the port stops answering.
    handle.join();
    assert!(Client::connect(addr).is_err(), "listener must be gone after shutdown completes");
    std::fs::remove_file(&path).ok();
}

#[test]
fn replica_failover_completes_bit_identically_with_exact_counters() {
    let path = packed("failover");
    let want = reference(&path);
    let chunks = (SAMPLES as u32).div_ceil(CHUNK as u32);

    // Two replicas over the same container. The client prefers the first
    // and must not notice — beyond its counters — when it dies mid-run.
    let a = Server::bind("127.0.0.1:0", &[&path], ServeConfig::default()).unwrap().spawn();
    let b = Server::bind("127.0.0.1:0", &[&path], ServeConfig::default()).unwrap().spawn();
    let config = RobustConfig {
        retry: RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) },
        // Threshold 1 and a cooldown longer than the test: the dead
        // replica is tried exactly once, opens its breaker, and is never
        // probed again — making every counter below exact.
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(120),
        seed: 11,
        ..RobustConfig::default()
    };
    let mut client = RobustClient::new(&[a.addr(), b.addr()], config).unwrap();

    let verify = |got: aicomp::serve::FetchedChunk, chunk: u32, eff: u8| {
        let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want[&(chunk, eff)], "chunk {chunk} cf {eff} differs from direct read");
    };
    // First half of the walk lands on replica A...
    for chunk in 0..chunks / 2 {
        verify(client.fetch(0, chunk, 0).unwrap(), chunk, CF as u8);
    }
    // ...which is then killed outright (shutdown + join: the port is gone,
    // the client's open connection is dead).
    Client::connect(a.addr()).unwrap().shutdown().unwrap();
    a.join();
    // The rest of the walk must complete bit-identically at both
    // fidelities — the failed attempt on A is retried onto B.
    for chunk in chunks / 2..chunks {
        verify(client.fetch(0, chunk, 0).unwrap(), chunk, CF as u8);
    }
    for chunk in 0..chunks {
        verify(client.fetch(0, chunk, COARSE).unwrap(), chunk, COARSE);
    }

    // Exact accounting: one fault injected, one of everything observed.
    let c = client.counters();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&c.retries), 1, "exactly the one fetch that hit dead A retries");
    assert_eq!(load(&c.breaker_opens), 1, "A's breaker opens exactly once");
    assert_eq!(load(&c.failovers), 1, "the preferred endpoint moves to B exactly once");
    assert_eq!(load(&c.connects), 2, "one connection per replica, B reused ever after");
    assert_eq!(load(&c.reconnects), 0);

    Client::connect(b.addr()).unwrap().shutdown().unwrap();
    b.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn typed_errors_cover_the_request_space() {
    let path = packed("errors");
    let handle = Server::bind("127.0.0.1:0", &[&path], ServeConfig::default()).unwrap().spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    let cases: [(u32, u32, u8, ErrorCode); 4] = [
        (1, 0, 0, ErrorCode::NotFound),   // unknown container
        (0, 99, 0, ErrorCode::NotFound),  // unknown chunk
        (0, 0, 9, ErrorCode::BadRequest), // fidelity above stored cf
        (0, 0, CF as u8 + 1, ErrorCode::BadRequest),
    ];
    for (container, chunk, cf, want) in cases {
        match client.fetch(container, chunk, cf) {
            Err(ServeError::Server { code, .. }) => assert_eq!(code, want),
            other => panic!("({container},{chunk},{cf}): expected {want}, got {other:?}"),
        }
    }
    // The connection survives every typed error.
    assert_eq!(client.info(0).unwrap().samples, SAMPLES as u64);

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn chunk_replies_carry_the_stored_prelude_and_ring_prefix() {
    let path = packed("stored");
    let file = std::fs::read(&path).unwrap();
    let reader = DczReader::open(&path).unwrap();
    let header = *reader.header();
    let handle = Server::bind("127.0.0.1:0", &[&path], ServeConfig::default()).unwrap().spawn();
    let mut wire = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut dec = FrameDecoder::new();
    write_request(&mut wire, &Request::hello()).unwrap();
    assert!(matches!(read_response(&mut wire, &mut dec).unwrap(), Some(Response::Hello { .. })));

    let plen = prelude_len(CF);
    for (chunk, e) in reader.index().iter().enumerate() {
        let at = e.offset as usize;
        let prelude = decode_prelude(&file[at..at + plen], &header).unwrap();
        for read_cf in 0..=CF as u8 {
            let cf = if read_cf == 0 { CF } else { read_cf as usize };
            let fetch =
                Request::Fetch { container: 0, chunk: chunk as u32, read_cf, deadline_ms: 0 };
            write_request(&mut wire, &fetch).unwrap();
            match read_response(&mut wire, &mut dec).unwrap() {
                Some(Response::Chunk { first_sample, samples, served_cf, stored }) => {
                    assert_eq!((first_sample, samples), (e.first_sample, e.samples));
                    assert_eq!(served_cf as usize, cf);
                    let want = &file[at..at + plen + prelude.prefix_len(cf)];
                    assert!(
                        stored == want,
                        "chunk {chunk} read_cf {read_cf}: not the file's bytes"
                    );
                }
                other => panic!("chunk {chunk} read_cf {read_cf}: expected a Chunk, got {other:?}"),
            }
        }
    }
    handle.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn undecodable_stored_bytes_are_a_typed_store_error_and_the_connection_survives() {
    let path = packed("moved_boundary");
    let want = reference(&path);
    // Move one byte from ring 0 to ring 1 in chunk 1's section-length
    // table. The prefix of rings 0..2 keeps its length, so the server reads
    // and sends it; only the client's decode finds ring 0 a byte short.
    let at = DczReader::open(&path).unwrap().index()[1].offset as usize + 2;
    let mut file = std::fs::read(&path).unwrap();
    let len =
        |f: &[u8], r: usize| u32::from_le_bytes(f[at + 4 * r..at + 4 * r + 4].try_into().unwrap());
    let (ring0, ring1) = (len(&file, 0) - 1, len(&file, 1) + 1);
    file[at..at + 4].copy_from_slice(&ring0.to_le_bytes());
    file[at + 4..at + 8].copy_from_slice(&ring1.to_le_bytes());
    std::fs::write(&path, &file).unwrap();
    let handle = Server::bind("127.0.0.1:0", &[&path], ServeConfig::default()).unwrap().spawn();
    let addr = handle.addr();

    let bits = |got: aicomp::serve::FetchedChunk| -> Vec<u32> {
        got.data.iter().map(|v| v.to_bits()).collect()
    };
    let mut client = Client::connect(addr).unwrap();
    match client.fetch(0, 1, COARSE) {
        Err(ServeError::Store(e)) => assert!(!ServeError::Store(e).is_retryable()),
        other => panic!("expected a store error from the client's decode, got {other:?}"),
    }
    // The reply was read whole: the same connection keeps serving.
    assert_eq!(bits(client.fetch(0, 0, COARSE).unwrap()), want[&(0, COARSE)]);

    let config = RobustConfig {
        retry: RetryPolicy { max_attempts: 4, backoff: Duration::from_millis(1) },
        ..RobustConfig::default()
    };
    let mut robust = RobustClient::new(&[addr], config).unwrap();
    let counters = robust.counters();
    assert!(matches!(robust.fetch(0, 1, COARSE), Err(ServeError::Store(_))));
    let spent = |c: &aicomp::serve::RobustCounters| {
        [&c.attempts, &c.retries, &c.reconnects].map(|n| n.load(Ordering::Relaxed))
    };
    assert_eq!(spent(&counters), [1, 0, 0], "a typed, non-retryable error costs one attempt");
    assert_eq!(bits(robust.fetch(0, 2, COARSE).unwrap()), want[&(2, COARSE)]);
    assert_eq!(spent(&counters), [2, 0, 0], "the next fetch rides the same connection");

    handle.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_chunk_failing_its_crc_is_typed_corrupt_and_the_worker_serves_on() {
    let path = packed("crc_fail");
    let want = reference(&path);
    let e = DczReader::open(&path).unwrap().index()[1];
    let mut file = std::fs::read(&path).unwrap();
    file[(e.offset + u64::from(e.len)) as usize - 1] ^= 0x08;
    std::fs::write(&path, &file).unwrap();
    // One worker: every read below goes through the same reader.
    let config = ServeConfig { workers: 1, ..ServeConfig::default() };
    let handle = Server::bind("127.0.0.1:0", &[&path], config).unwrap().spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let bits = |chunk: u32, client: &mut Client| -> Vec<u32> {
        client.fetch(0, chunk, CF as u8).unwrap().data.iter().map(|v| v.to_bits()).collect()
    };

    assert_eq!(bits(0, &mut client), want[&(0, CF as u8)]);
    match client.fetch(0, 1, CF as u8) {
        Err(ServeError::Server { code: ErrorCode::Corrupt, message }) => {
            assert!(message.contains("fails its CRC check"), "{message}");
        }
        other => panic!("expected a typed Corrupt reply, got {other:?}"),
    }
    // The worker kept its reader, and the connection its stream.
    assert_eq!(bits(2, &mut client), want[&(2, CF as u8)]);

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn info_replies_describe_a_header_or_fail_typed() {
    let info = ContainerInfo {
        samples: 18,
        chunks: 5,
        chunk_size: 4,
        channels: 2,
        n: 16,
        cf: 4,
        codec: "dct2d-n16-cf4".into(),
    };
    let h = info.header().unwrap();
    assert_eq!((h.n(), h.cf(), h.channels, h.chunk_size), (16, 4, 2, 4));
    // A name that does not parse, or disagrees with `n` and `cf`, is a
    // protocol error; a header the store cannot read is a store error.
    let with =
        |codec: &str, n: u32, cf: u8| ContainerInfo { codec: codec.into(), n, cf, ..info.clone() };
    for bad in
        [with("dct2d-n16", 16, 4), with("dct2d-n32-cf4", 16, 4), with("dct2d-n16-cf2", 16, 4)]
    {
        assert!(matches!(bad.header(), Err(ServeError::Protocol(_))), "{bad:?}");
    }
    let one_d = with("chop1d-len64-cf2", 16, 2);
    assert!(matches!(one_d.header(), Err(ServeError::Store(_))), "{one_d:?}");
    let no_channels = ContainerInfo { channels: 0, ..info };
    assert!(matches!(no_channels.header(), Err(ServeError::Store(_))));
}
