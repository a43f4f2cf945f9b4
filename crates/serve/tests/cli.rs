//! `dcz` rejects what it does not understand: every subcommand checks its
//! arguments against the flags it declares, so a misspelled or retired
//! flag is a usage error with a nonzero exit — never a silent no-op that
//! runs with defaults.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use aicomp_serve::{Client, ServeConfig, Server, ShardMap, ShardMember, ShardRole, StatsReport};
use aicomp_store::writer::pack_file;
use aicomp_store::{DczReader, StoreOptions};
use aicomp_tensor::Tensor;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aicomp_cli_{name}_{}", std::process::id()))
}

/// Run `dcz` with `args`, killing it if it is still running after 20 s
/// (a command that ignored a bad flag and started serving would hang).
fn dcz(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dcz"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dcz");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll dcz").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("dcz {args:?} still running: an unknown flag was ignored");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect dcz output")
}

fn assert_usage_error(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, stderr: {stderr}");
    assert!(stderr.contains("usage:"), "expected usage text, got: {stderr}");
    assert!(stderr.contains(flag), "usage error should name {flag}: {stderr}");
}

#[test]
fn serve_rejects_the_retired_backend_flag() {
    let store = scratch("serve.dcz");
    let sample = Tensor::from_vec(vec![0.5; 16 * 16], [1, 16, 16]).unwrap();
    pack_file(&store, &StoreOptions::dct(16, 4, 1, 1), [sample]).unwrap();
    // The transport choice, the batch cap and the cache shard count are
    // all gone; each must be refused, not ignored.
    for (flag, value) in [("--backend", "epoll"), ("--batch", "2"), ("--shards", "8")] {
        let out = dcz(&[
            "serve",
            "--store",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            flag,
            value,
        ]);
        assert_usage_error(&out, flag);
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn pack_rejects_unknown_flags_and_writes_nothing() {
    let raw = scratch("pack.f32");
    let out_path = scratch("pack.dcz");
    std::fs::write(&raw, vec![0u8; 2 * 32 * 32 * 4]).unwrap();
    let base = [
        "pack",
        "--input",
        raw.to_str().unwrap(),
        "--codec",
        "dct2d-n32-cf4",
        "--channels",
        "1",
        "--chunk",
        "1",
        "--out",
        out_path.to_str().unwrap(),
    ];
    for extra in [&["--entropy", "none"][..], &["--help"][..]] {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        assert_usage_error(&dcz(&args), extra[0]);
        assert!(!out_path.exists(), "a rejected pack must not write {}", out_path.display());
    }
    // The declared flags alone still pack.
    let ok = dcz(&base);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(out_path.exists());
    std::fs::remove_file(&raw).ok();
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn pack_rejects_non_finite_samples_and_writes_nothing() {
    let raw = scratch("nonfinite.f32");
    let out_path = scratch("nonfinite.dcz");
    // Three 1×32×32 samples; sample 1 holds a NaN at element 100.
    let mut floats = vec![0.25f32; 3 * 32 * 32];
    floats[32 * 32 + 100] = f32::NAN;
    let bytes: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(&raw, bytes).unwrap();
    let out = dcz(&[
        "pack",
        "--input",
        raw.to_str().unwrap(),
        "--codec",
        "dct2d-n32-cf4",
        "--channels",
        "1",
        "--chunk",
        "2",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("sample 1") && stderr.contains("element 100"), "{stderr}");
    assert!(!out_path.exists(), "a rejected pack must not write {}", out_path.display());
    let dir = out_path.parent().unwrap();
    let name = out_path.file_name().unwrap().to_str().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_str().is_some_and(|f| f.starts_with(&format!(".{name}"))))
        .collect();
    assert!(leftovers.is_empty(), "temporary left behind: {leftovers:?}");
    std::fs::remove_file(&raw).ok();
}

#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    assert_usage_error(&dcz(&["codecs", "--n"]), "--n");
    assert_usage_error(&dcz(&["cluster", "suspect", "--addr", "127.0.0.1:1", "--ring"]), "--ring");
}

#[test]
fn stats_prints_every_counter_by_name() {
    let store = scratch("stats.dcz");
    let sample = Tensor::from_vec(vec![0.5; 16 * 16], [1, 16, 16]).unwrap();
    pack_file(&store, &StoreOptions::dct(16, 4, 1, 1), [sample]).unwrap();
    let handle = Server::bind("127.0.0.1:0", &[&store], ServeConfig::default()).unwrap().spawn();
    let addr = handle.addr().to_string();
    let out = dcz(&["stats", "--addr", &addr]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let names = StatsReport::SCALARS.iter().map(|&(_, name)| name);
    for name in names.chain(StatsReport::HISTOGRAMS.iter().map(|&(name, _)| name)) {
        assert!(stdout.contains(name), "`dcz stats` omits {name}:\n{stdout}");
    }
    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&store).ok();
}

/// `dcz inspect | head` and `dcz verify --deep | head`: a reader that
/// closes stdout after the first line must not make `dcz` panic. The
/// listing stops and the command keeps the exit code of its work. The
/// container has enough chunks that each listing outgrows a pipe buffer,
/// so `dcz` is still writing when the pipe closes.
#[test]
fn listings_end_quietly_when_the_reader_closes_early() {
    use std::io::{BufRead, BufReader};

    let store = scratch("listing.dcz");
    let samples = (0..2048).map(|i| Tensor::full([1, 8, 8], i as f32));
    pack_file(&store, &StoreOptions::dct(8, 2, 1, 1), samples).unwrap();
    for args in [&["inspect"][..], &["verify", "--deep"][..]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dcz"))
            .args(args)
            .args(["--input", store.to_str().unwrap()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn dcz");
        let mut first = String::new();
        BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
        assert!(first.contains("listing.dcz"), "{args:?}: first line {first:?}");
        // The reader is dropped here, closing the pipe.
        let out = child.wait_with_output().expect("collect dcz output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
    }
    std::fs::remove_file(&store).ok();
}

/// `dcz inspect` names the byte planes each chunk stores raw: the mantissa
/// planes of noisy fields, none for a constant chunk, and "?" for a chunk
/// whose prelude no longer parses.
#[test]
fn inspect_lists_raw_byte_planes_per_chunk() {
    let store = scratch("rawplanes.dcz");
    let mut rng = Tensor::seeded_rng(3);
    let noisy = (0..32).map(|_| Tensor::rand_uniform([1, 32, 32], -1.0, 1.0, &mut rng));
    let flat = (0..32).map(|_| Tensor::full([1, 32, 32], 0.5));
    pack_file(&store, &StoreOptions::dct(32, 4, 1, 32), noisy.chain(flat)).unwrap();
    let rows = |out: &Output| -> Vec<String> {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("crc32     byte planes"), "{stdout}");
        stdout.lines().filter(|l| l.contains(" raw ")).map(str::to_string).collect()
    };
    let listed = rows(&dcz(&["inspect", "--input", store.to_str().unwrap()]));
    assert_eq!(listed.len(), 2, "{listed:?}");
    assert!(listed[0].ends_with("raw 0,1,2"), "{}", listed[0]);
    assert!(listed[1].ends_with("raw -"), "{}", listed[1]);

    // A length over 15 bits in chunk 1's first table.
    let offset = aicomp_store::DczReader::open(&store).unwrap().index()[1].offset as usize;
    let mut bytes = std::fs::read(&store).unwrap();
    bytes[offset + 2 + 4 * 4] = 16;
    std::fs::write(&store, bytes).unwrap();
    let listed = rows(&dcz(&["inspect", "--input", store.to_str().unwrap()]));
    assert!(listed[0].ends_with("raw 0,1,2"), "{}", listed[0]);
    assert!(listed[1].ends_with("raw ?"), "{}", listed[1]);
    std::fs::remove_file(&store).ok();
}

/// `dcz fetch` has one routing mode: `--ring` is a usage error, and a plain fetch
/// through one cluster member of a key that member does not own follows
/// the `WrongShard` redirect to the bytes a direct read decodes.
#[test]
fn fetch_follows_a_cluster_redirect_without_a_mode_flag() {
    let store = scratch("cluster.dcz");
    let samples = (0..8).map(|i| {
        let data = (0..16 * 16).map(|k| ((k * 7 + i * 13) % 29) as f32 / 4.0 - 3.0).collect();
        Tensor::from_vec(data, [1, 16, 16]).unwrap()
    });
    pack_file(&store, &StoreOptions::dct(16, 4, 1, 1), samples).unwrap();
    // The map names final addresses before any member binds: reserve
    // ephemeral ports, release them, and rebind.
    let listeners: Vec<TcpListener> =
        (0..3).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let members = listeners
        .iter()
        .enumerate()
        .map(|(i, l)| ShardMember {
            name: format!("s{i}"),
            addr: l.local_addr().unwrap().to_string(),
        })
        .collect();
    drop(listeners);
    let map = ShardMap::new(1, 42, 64, 2, members);
    let handles: Vec<_> = (0..3)
        .map(|index| {
            let role = ShardRole { map: map.clone(), index };
            let config = ServeConfig { shard: Some(role), ..ServeConfig::default() };
            Server::bind(map.members[index].addr.as_str(), &[&store], config).unwrap().spawn()
        })
        .collect();
    let seed = map.members[0].addr.as_str();
    let chunk = (0..8u32)
        .find(|&c| !map.replicas(0, c).unwrap().contains(&0))
        .expect("replication 2 of 3 leaves member 0 some keys it does not own");
    let chunk_arg = chunk.to_string();

    let base = ["fetch", "--addr", seed, "--container", "0", "--chunk", &chunk_arg];
    assert_usage_error(&dcz(&[&base[..], &["--ring"]].concat()), "--ring");

    let out_path = scratch("redirected.f32");
    let out_arg = out_path.to_str().unwrap();
    let out = dcz(&[&base[..], &["--out", out_arg]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let want = DczReader::open(&store).unwrap().decompress_chunk_at(chunk as usize, 4).unwrap();
    let want: Vec<u8> = want.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(std::fs::read(&out_path).unwrap(), want, "chunk {chunk} via a redirect");

    for h in handles {
        h.shutdown_and_join();
    }
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&out_path).ok();
}
