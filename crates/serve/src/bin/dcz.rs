//! `dcz` — command-line front end for `.dcz` containers and the serve layer.
//!
//! ```text
//! dcz codecs   [--n 32] [--cf 4]
//! dcz gen      --dataset classify --count 64 --seed 1 --out raw.f32
//! dcz pack     --input raw.f32 --codec dct2d-n32-cf4 --channels 3 --chunk 16 --out data.dcz
//! dcz unpack   --input data.dcz --out raw.f32 [--cf 2]
//! dcz inspect  --input data.dcz
//! dcz verify   --input data.dcz [--deep]
//! dcz repair   --input broken.dcz --out salvaged.dcz
//! dcz serve    --store data.dcz [--store more.dcz ...] [--addr 127.0.0.1:7440] [--workers 4]
//! dcz cluster  --store data.dcz -n 3 [--addr-base 127.0.0.1:7450] [--replication 2]
//! dcz cluster push    --addr 127.0.0.1:7450,127.0.0.1:7451 --epoch 2 [--members s0@..,s1@..]
//! dcz cluster join    --addr 127.0.0.1:7450 --name shard3 --member-addr 127.0.0.1:7453
//! dcz cluster leave   --addr 127.0.0.1:7450,127.0.0.1:7451 --name shard2
//! dcz cluster suspect --addr 127.0.0.1:7450,127.0.0.1:7451 [--beats 3] [--threshold 3]
//! dcz fetch    --addr 127.0.0.1:7440 --container 0 --chunk 3 [--cf 2] [--out chunk.f32]
//! dcz stats    --addr 127.0.0.1:7440
//! dcz shutdown --addr 127.0.0.1:7440
//! ```
//!
//! `codecs` lists every registered [`CodecSpec`] family at one
//! representative geometry — canonical name, compression ratio, and the
//! Eq. 5/Eq. 7 per-unit FLOP counts — so the valid `--codec` names are
//! discoverable without reading the registry source.
//!
//! `gen` writes a seeded sciml benchmark dataset's inputs as raw
//! little-endian f32 (the interchange format `pack` consumes), so the full
//! pack → verify → unpack path can be exercised without any external data.
//! `verify --deep` reports per-chunk health (healthy / degraded / dead)
//! instead of stopping at the first bad chunk; `repair` writes the best
//! container the surviving chunks support (rebuilding the index by
//! scanning when the footer is gone).
//!
//! `serve` runs the concurrent compression service over one or more
//! containers (workers that read each chunk's stored bytes, a cache of
//! those replies, load shedding; wire format in `crates/serve/PROTOCOL.md`);
//! `fetch`/`stats`/`shutdown` are its client-side counterparts, and `fetch`
//! decodes the stored bytes it receives.
//!
//! `cluster` launches N shards of a consistent-hash cluster over the same
//! containers on consecutive ports: every shard serves the shared
//! [`ShardMap`] and redirects misdirected keys with a typed `WrongShard`.
//! `fetch` follows such a redirect: it learns the map from the member it
//! asked and re-routes, so any member's address will do.
//!
//! The `cluster` subcommands reconfigure a *running* cluster live:
//! `push` installs an epoch-bumped map on every listed member (stale and
//! conflicting pushes are typed rejections), `join`/`leave` fetch the
//! current map, add or drop one member, and push the epoch+1 successor —
//! including to the member joining (which boots solo with `serve
//! --shard-name`) or leaving (which then answers every key with
//! `WrongShard`, the drain-and-handoff rule). `suspect` sweeps the
//! members with `Ping` beats through the seeded, clock-injected
//! [`FailureDetector`] and reports who is suspected — the decision is a
//! pure function of which probes answered, so it replays.
//!
//! Every subcommand checks its arguments against the flags it declares:
//! an unknown flag (or `--help`, or a stray word) is a usage error with a
//! nonzero exit, and nothing runs.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::time::Duration;

use aicomp_core::CodecSpec;
use aicomp_sciml::{Dataset, DatasetKind};
use aicomp_serve::{
    BrownoutConfig, Client, FailureDetector, RobustClient, RobustConfig, ServeConfig, Server,
    ShardMap, ShardMember, ShardRole, WireFaultPlan,
};
use aicomp_store::writer::{DczFileWriter, StoreOptions};
use aicomp_store::{deep_verify, repair, ChunkStatus, DczReader, RetryPolicy};
use aicomp_tensor::Tensor;

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_all(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// Reject every argument past the first `skip` (the subcommand words)
/// that is not a declared flag: `values` take one argument each,
/// `switches` none.
fn check_flags(
    args: &[String],
    skip: usize,
    values: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut i = skip;
    while i < args.len() {
        let a = args[i].as_str();
        if switches.contains(&a) {
            i += 1;
        } else if values.contains(&a) && i + 1 < args.len() {
            i += 2;
        } else if values.contains(&a) {
            return Err(format!("flag {a} needs a value\n{}", usage()));
        } else {
            return Err(format!("unknown argument {a:?}\n{}", usage()));
        }
    }
    Ok(())
}

fn required(args: &[String], name: &str) -> Result<String, String> {
    arg(args, name).ok_or_else(|| format!("missing required flag {name} <value>"))
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match arg(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v:?}")),
        None => Ok(default),
    }
}

fn usage() -> String {
    "usage: dcz <codecs|gen|pack|unpack|inspect|verify|repair|serve|cluster|fetch|stats|shutdown> \
     [flags]\n\
     \x20 codecs   [--n <resolution>] [--cf <chop factor>]   (list the codec registry)\n\
     \x20 gen      --dataset <classify|em_denoise|optical_damage|slstr_cloud> \
     --count <N> --seed <S> --out <raw.f32>\n\
     \x20 pack     --input <raw.f32> --codec <name, e.g. dct2d-n32-cf4> \
     --channels <C> --chunk <samples> --out <file.dcz>\n\
     \x20 unpack   --input <file.dcz> --out <raw.f32> [--cf <coarser>]\n\
     \x20 inspect  --input <file.dcz>\n\
     \x20 verify   --input <file.dcz> [--deep]   (--deep: per-chunk health report)\n\
     \x20 repair   --input <file.dcz> --out <salvaged.dcz>\n\
     \x20 serve    --store <file.dcz> [--store <more.dcz> ...] [--addr <ip:port>] \
     [--shard-name <name, identity for a later cluster join>] \
     [--workers <N>] [--queue <depth>] [--cache <chunks>] \
     [--idle-timeout <ms, 0 = never>] [--max-conns <N>] [--chaos <seed, 0 = off>] \
     [--quantum <pops>] [--tenant-inflight <N, 0 = unlimited>] \
     [--tenant-bytes <B, 0 = unlimited>] [--brownout] [--worker-delay <ms, 0 = off>]\n\
     \x20 cluster  --store <file.dcz> [--store <more.dcz> ...] -n <shards> \
     [--addr-base <ip:port, fixed — port 0 rejected>] \
     [--seed <ring seed>] [--vnodes <per member>] [--replication <R>] [--epoch <nonzero>] \
     [--workers <N>] [--queue <depth>] [--cache <chunks>] \
     [--worker-delay <ms> [--slow-shard <index, default: all shards>]  (hedging demos)]\n\
     \x20 cluster push    --addr <member[,member...]> --epoch <E, above the live one> \
     [--members <name@ip:port,...>  (default: the current membership)] \
     [--seed <S>] [--vnodes <V>] [--replication <R>]\n\
     \x20 cluster join    --addr <member[,member...]> --name <new member's name> \
     --member-addr <its ip:port>   (pushes the epoch+1 map, newcomer included)\n\
     \x20 cluster leave   --addr <member[,member...]> --name <leaving member>\n\
     \x20 cluster suspect --addr <member[,member...]> [--beats <rounds>] \
     [--threshold <missed beats>] [--interval <ms>] [--timeout <probe ms>]\n\
     \x20 fetch    --addr <ip:port> [--addr <replica or cluster member> ...] --container <id> \
     --chunk <index> [--cf <coarser, 0 = stored>] [--out <raw.f32>] [--timeout <ms>] \
     [--retries <N>] [--tenant <id>] [--weight <class>] \
     [--hedge <fraction of --timeout before the duplicate fires; clusters>]\n\
     \x20 stats    --addr <ip:port> [--timeout <ms>] [--retries <N>]\n\
     \x20 shutdown --addr <ip:port> [--timeout <ms>] [--retries <N>]"
        .into()
}

/// Default service address (see `crates/serve/PROTOCOL.md`).
const DEFAULT_ADDR: &str = "127.0.0.1:7440";

fn addr_of(args: &[String]) -> String {
    arg(args, "--addr").unwrap_or_else(|| DEFAULT_ADDR.into())
}

/// Build a [`RobustClient`] over every `--addr` (replicas or cluster
/// members), honoring `--timeout <ms, 0 = unbounded>` and
/// `--retries <attempts>`.
fn robust_client(args: &[String]) -> Result<RobustClient, String> {
    let mut addrs = arg_all(args, "--addr");
    if addrs.is_empty() {
        addrs.push(DEFAULT_ADDR.into());
    }
    let mut resolved = Vec::new();
    for a in &addrs {
        let mut it = a.to_socket_addrs().map_err(|e| format!("{a}: {e}"))?;
        resolved.push(it.next().ok_or_else(|| format!("{a}: no address"))?);
    }
    let retries: u32 = parse(args, "--retries", 3)?;
    let timeout_ms: u64 = parse(args, "--timeout", 0)?;
    let config = RobustConfig {
        retry: RetryPolicy { max_attempts: retries.max(1), backoff: Duration::from_millis(50) },
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        tenant: parse(args, "--tenant", 0)?,
        weight: parse(args, "--weight", 1)?,
        hedge_fraction: parse(args, "--hedge", 0.0)?,
        ..RobustConfig::default()
    };
    RobustClient::new(&resolved, config).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first() {
        Some(c) => c.clone(),
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "codecs" => codecs(&args),
        "gen" => gen(&args),
        "pack" => pack(&args),
        "unpack" => unpack(&args),
        "inspect" => inspect(&args),
        "verify" => verify(&args),
        "repair" => repair_cmd(&args),
        "serve" => serve(&args),
        "cluster" => cluster(&args),
        "fetch" => fetch(&args),
        "stats" => stats(&args),
        "shutdown" => shutdown(&args),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcz {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// List every registered codec family at one representative geometry:
/// canonical name (what `--codec` parses), compression ratio, and the
/// Eq. 5 compress / Eq. 7 decompress per-unit FLOP counts.
fn codecs(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--n", "--cf"], &[])?;
    let n: usize = parse(args, "--n", 32)?;
    let cf: usize = parse(args, "--cf", 4)?;
    // One spec per registry family, sharing the requested geometry (the
    // 1-D families use len = n² so every row compresses the same unit).
    let specs = [
        CodecSpec::Dct2d { n, cf },
        CodecSpec::Chop1d { len: n * n, cf },
        CodecSpec::Partial { n, cf, s: 2 },
        CodecSpec::ScatterGather { n, cf },
        CodecSpec::Zfp { n, cf },
        CodecSpec::Ebpc { len: n * n },
        CodecSpec::Fmap { n, cf, q: 8 },
    ];
    println!(
        "{:<18} {:<12} {:>8} {:>16} {:>16}",
        "codec", "unit", "CR", "compress FLOPs", "decompress FLOPs"
    );
    for spec in specs {
        let codec = spec.build().map_err(|e| e.to_string())?;
        let unit = codec.input_shape().iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x");
        println!(
            "{:<18} {:<12} {:>8.2} {:>16} {:>16}",
            codec.name(),
            unit,
            codec.compression_ratio(),
            codec.compress_flops(),
            codec.decompress_flops()
        );
    }
    println!(
        "\nCR and FLOPs are per input unit (Eq. 3/5/7); ebpc's numeric-path \
         CR is 1.0 — its bitstream ratio is data-dependent."
    );
    Ok(())
}

fn gen(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--dataset", "--count", "--seed", "--out"], &[])?;
    let name = required(args, "--dataset")?;
    let kind = DatasetKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let count: usize = parse(args, "--count", 64)?;
    let seed: u64 = parse(args, "--seed", 1)?;
    let out = required(args, "--out")?;

    let ds = Dataset::generate(kind, count, seed);
    let inputs = ds.input_batch(0, ds.len());
    let mut w = BufWriter::new(File::create(&out).map_err(|e| e.to_string())?);
    for v in inputs.data() {
        w.write_all(&v.to_le_bytes()).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    let [c, h, _] = kind.sample_shape();
    println!("wrote {count} samples of {name} to {out}");
    println!("pack with: --codec dct2d-n{h}-cf4 --channels {c}");
    Ok(())
}

fn pack(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--input", "--out", "--codec", "--channels", "--chunk"], &[])?;
    let input = required(args, "--input")?;
    let out = required(args, "--out")?;
    // One parser for every codec name: the core registry's `FromStr`.
    let codec: CodecSpec = required(args, "--codec")?.parse().map_err(|e| format!("{e}"))?;
    let n = codec.resolution().ok_or_else(|| {
        format!("codec {codec} is not a block-2-D codec; containers need dct2d or zfp2d")
    })?;
    let channels: usize =
        required(args, "--channels")?.parse().map_err(|_| "bad --channels".to_string())?;
    let chunk_size: usize = parse(args, "--chunk", 16)?;

    let mut raw = Vec::new();
    File::open(&input)
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| format!("{input}: {e}"))?;
    let sample_bytes = channels * n * n * 4;
    if sample_bytes == 0 || raw.len() % sample_bytes != 0 {
        return Err(format!(
            "{input} is {} bytes, not a multiple of the {sample_bytes}-byte sample \
             ([{channels}, {n}, {n}] f32)",
            raw.len()
        ));
    }
    let count = raw.len() / sample_bytes;

    let opts = StoreOptions { codec, channels, chunk_size };
    // Crash-safe: streams into a temporary and renames into place at
    // finish, so an interrupted pack never leaves a half-valid `out`.
    let mut writer = DczFileWriter::create(&out, &opts).map_err(|e| e.to_string())?;
    for s in 0..count {
        let floats: Vec<f32> = raw[s * sample_bytes..(s + 1) * sample_bytes]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let t = Tensor::from_vec(floats, [channels, n, n]).map_err(|e| e.to_string())?;
        writer.push(t).map_err(|e| e.to_string())?;
    }
    let summary = writer.finish().map_err(|e| e.to_string())?;
    println!(
        "packed {} samples into {} chunks: {} -> {} bytes \
         (chop x{:.2}, entropy x{:.2}, total x{:.2})",
        summary.samples,
        summary.chunks,
        summary.stream.bytes_in,
        summary.payload_bytes,
        summary.chop_ratio(),
        summary.entropy_gain(),
        summary.total_ratio()
    );
    Ok(())
}

fn unpack(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--input", "--out", "--cf"], &[])?;
    let input = required(args, "--input")?;
    let out = required(args, "--out")?;
    let mut reader = DczReader::open(&input).map_err(|e| e.to_string())?;
    let read_cf: usize = parse(args, "--cf", reader.header().cf())?;

    let mut w = BufWriter::new(File::create(&out).map_err(|e| e.to_string())?);
    let mut samples = 0u64;
    for chunk in 0..reader.chunk_count() {
        let batch = reader.decompress_chunk_at(chunk, read_cf).map_err(|e| e.to_string())?;
        samples += batch.dims()[0] as u64;
        for v in batch.data() {
            w.write_all(&v.to_le_bytes()).map_err(|e| e.to_string())?;
        }
    }
    w.flush().map_err(|e| e.to_string())?;
    let payload: u64 = reader.index().iter().map(|e| e.len as u64).sum();
    println!(
        "unpacked {samples} samples at chop factor {read_cf} \
         ({} of {payload} payload bytes read)",
        reader.bytes_read()
    );
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--input"], &[])?;
    let input = required(args, "--input")?;
    let mut reader = DczReader::open(&input).map_err(|e| e.to_string())?;
    let h = *reader.header();
    print_listing(|out| {
        writeln!(out, "{input}:")?;
        writeln!(out, "  codec        {} (block {})", h.codec, h.block())?;
        writeln!(
            out,
            "  samples      {} x [{}, {}, {}]",
            h.sample_count,
            h.channels,
            h.n(),
            h.n()
        )?;
        writeln!(out, "  chop factor  {} (compressed side {})", h.cf(), h.compressed_side())?;
        writeln!(out, "  chunks       {} x {} samples", h.chunk_count, h.chunk_size)?;
        writeln!(out, "  chunk  offset      bytes  first  samples  crc32     byte planes")?;
        for i in 0..reader.chunk_count() {
            let e = reader.index()[i];
            // Planes stored raw (all-8 tables); "?" when the prelude is unreadable.
            let raw = match reader.read_prelude(i) {
                Ok(p) => {
                    let planes: Vec<String> = p.codes.raw_planes().map(|p| p.to_string()).collect();
                    if planes.is_empty() {
                        "-".to_string()
                    } else {
                        planes.join(",")
                    }
                }
                Err(_) => "?".to_string(),
            };
            writeln!(
                out,
                "  {i:>5}  {:>10}  {:>9}  {:>5}  {:>7}  {:08x}  raw {raw}",
                e.offset, e.len, e.first_sample, e.samples, e.crc
            )?;
        }
        Ok(())
    })
}

/// Write a listing through one locked stdout. A reader that closes early
/// (`dcz inspect ... | head`) is not an error: the listing just stops, and
/// the command's result is what it would have been.
fn print_listing(print: impl FnOnce(&mut io::StdoutLock) -> io::Result<()>) -> Result<(), String> {
    let mut out = io::stdout().lock();
    match print(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e.to_string()),
        _ => Ok(()),
    }
}

fn verify(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--input"], &["--deep"])?;
    let input = required(args, "--input")?;
    let mut reader = DczReader::open(&input).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--deep") {
        let report = deep_verify(&mut reader).map_err(|e| e.to_string())?;
        print_listing(|out| {
            writeln!(out, "{input}: per-chunk health")?;
            writeln!(out, "  chunk  first  samples  status")?;
            for c in &report.chunks {
                let status = match &c.status {
                    ChunkStatus::Healthy => "healthy".to_string(),
                    ChunkStatus::Degraded { max_cf, error } => {
                        format!("DEGRADED (readable to cf {max_cf}): {error}")
                    }
                    ChunkStatus::Dead { error } => format!("DEAD: {error}"),
                };
                writeln!(
                    out,
                    "  {:>5}  {:>5}  {:>7}  {status}",
                    c.chunk, c.first_sample, c.samples
                )?;
            }
            writeln!(
                out,
                "  {} healthy, {} degraded, {} dead of {} chunks",
                report.healthy(),
                report.degraded(),
                report.dead(),
                report.chunks.len()
            )
        })?;
        if !report.is_clean() {
            return Err("container has damaged chunks (see report above)".into());
        }
    } else {
        let report = reader.verify().map_err(|e| format!("FAILED: {e}"))?;
        println!(
            "{input}: OK ({} chunks, {} payload bytes, {} samples)",
            report.chunks,
            report.payload_bytes,
            reader.sample_count()
        );
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        1,
        &[
            "--store",
            "--addr",
            "--shard-name",
            "--workers",
            "--queue",
            "--cache",
            "--idle-timeout",
            "--max-conns",
            "--chaos",
            "--quantum",
            "--tenant-inflight",
            "--tenant-bytes",
            "--worker-delay",
        ],
        &["--brownout"],
    )?;
    let stores = arg_all(args, "--store");
    if stores.is_empty() {
        return Err("at least one --store <file.dcz> is required".into());
    }
    let idle_ms: u64 = parse(args, "--idle-timeout", 0)?;
    let chaos_seed: u64 = parse(args, "--chaos", 0)?;
    let config = ServeConfig {
        workers: parse(args, "--workers", 4)?,
        queue_depth: parse(args, "--queue", 64)?,
        cache_entries: parse(args, "--cache", 256)?,
        worker_delay: {
            let ms: u64 = parse(args, "--worker-delay", 0)?;
            (ms > 0).then(|| Duration::from_millis(ms))
        },
        handshake_timeout: Duration::from_secs(5),
        idle_timeout: (idle_ms > 0).then(|| Duration::from_millis(idle_ms)),
        frame_deadline: Duration::from_secs(30),
        max_conns: parse(args, "--max-conns", 256)?,
        // Chaos testing: every accepted connection's stream is wrapped in
        // a seeded FaultyStream. Intervals are spaced for ~100 KiB chunk
        // replies (the `standard` plan is calibrated for short unit-test
        // exchanges and would kill nearly every response mid-frame).
        chaos: (chaos_seed != 0).then(|| {
            let mut plan = WireFaultPlan::standard(chaos_seed);
            plan.reset_every = Some(1 << 20);
            plan.corrupt_every = Some(512 << 10);
            plan.stall_every = Some(256 << 10);
            plan.stall = Duration::from_millis(1);
            plan
        }),
        quantum: parse(args, "--quantum", 4)?,
        tenant_inflight: parse(args, "--tenant-inflight", 0)?,
        tenant_bytes: parse(args, "--tenant-bytes", 0)?,
        // `--brownout` enables the governor at its default hysteresis;
        // the watermarks are tuned relative to queue depth, not absolute.
        brownout: args.iter().any(|a| a == "--brownout").then(BrownoutConfig::default),
        shard: None,
        shard_name: arg(args, "--shard-name"),
    };
    let addr = addr_of(args);
    let server = Server::bind(addr.as_str(), &stores, config).map_err(|e| e.to_string())?;
    let bound = server.local_addr();
    println!("serving {} container(s) on {bound}:", stores.len());
    if chaos_seed != 0 {
        println!("  CHAOS: injecting wire faults on every connection (seed {chaos_seed})");
    }
    for (i, s) in stores.iter().enumerate() {
        println!("  [{i}] {s}");
    }
    println!("stop with: dcz shutdown --addr {bound}");
    server.run();
    println!("shut down cleanly");
    Ok(())
}

/// Launch an `n`-shard consistent-hash cluster over the same containers
/// on consecutive ports. Every shard gets the same [`ShardMap`] (member
/// `shard{i}` at `base + i`) and its own index; each stops on its own
/// `Shutdown` frame, and the command returns when all have drained.
fn cluster(args: &[String]) -> Result<(), String> {
    // Live-reconfiguration subcommands operate on an already-running
    // cluster; everything else below launches a new one.
    match args.get(1).map(|s| s.as_str()) {
        Some("push") => return cluster_push(args),
        Some("join") => return cluster_join(args),
        Some("leave") => return cluster_leave(args),
        Some("suspect") => return cluster_suspect(args),
        _ => {}
    }
    check_flags(
        args,
        1,
        &[
            "--store",
            "-n",
            "--addr-base",
            "--seed",
            "--vnodes",
            "--replication",
            "--epoch",
            "--workers",
            "--queue",
            "--cache",
            "--worker-delay",
            "--slow-shard",
        ],
        &[],
    )?;
    let stores = arg_all(args, "--store");
    if stores.is_empty() {
        return Err("at least one --store <file.dcz> is required".into());
    }
    let n: usize = parse(args, "-n", 3)?;
    if n == 0 {
        return Err("a cluster needs at least one shard (-n 1)".into());
    }
    let base = arg(args, "--addr-base").unwrap_or_else(|| "127.0.0.1:7450".into());
    let base: std::net::SocketAddr =
        base.parse().map_err(|e| format!("bad --addr-base {base:?}: {e}"))?;
    // The map must name dialable addresses *before* any server binds, so
    // ephemeral ports cannot work here — the OS would assign them after
    // the map is already fixed.
    if base.port() == 0 {
        return Err("--addr-base needs a fixed port (the shard map is built before binding)".into());
    }
    let seed: u64 = parse(args, "--seed", 7)?;
    let vnodes: u16 = parse(args, "--vnodes", 128)?;
    let replication: u8 = parse(args, "--replication", 2)?;
    let epoch: u64 = parse(args, "--epoch", 1)?;
    if epoch == 0 {
        return Err("--epoch 0 is reserved for solo servers; a cluster map starts at 1".into());
    }
    let mut members = Vec::with_capacity(n);
    for i in 0..n {
        let port = base
            .port()
            .checked_add(i as u16)
            .ok_or_else(|| format!("port {} + {i} overflows", base.port()))?;
        members.push(ShardMember {
            name: format!("shard{i}"),
            addr: std::net::SocketAddr::new(base.ip(), port).to_string(),
        });
    }
    let map = ShardMap::new(epoch, seed, vnodes, replication, members);
    println!(
        "cluster of {n} shard(s) over {} container(s) \
         (epoch {epoch}, seed {seed}, {vnodes} vnodes, replication {}):",
        stores.len(),
        map.replication
    );
    // A per-job delay on one shard (or all of them) makes the cluster a
    // ready-made tail-latency demo: point `dcz fetch --hedge` or
    // `loadgen --hedge` at it and watch the duplicates win.
    let delay_ms: u64 = parse(args, "--worker-delay", 0)?;
    let slow: usize = parse(args, "--slow-shard", usize::MAX)?;
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let config = ServeConfig {
            workers: parse(args, "--workers", 4)?,
            queue_depth: parse(args, "--queue", 64)?,
            cache_entries: parse(args, "--cache", 256)?,
            worker_delay: (delay_ms > 0 && (slow == usize::MAX || slow == i))
                .then(|| Duration::from_millis(delay_ms)),
            shard: Some(ShardRole { map: map.clone(), index: i }),
            ..ServeConfig::default()
        };
        let addr = map.members[i].addr.clone();
        let server =
            Server::bind(addr.as_str(), &stores, config).map_err(|e| format!("{addr}: {e}"))?;
        println!("  {} {}", map.members[i].name, server.local_addr());
        handles.push(server.spawn());
    }
    println!("stop each shard with: dcz shutdown --addr <its ip:port>");
    for h in handles {
        h.join();
    }
    println!("cluster shut down cleanly");
    Ok(())
}

/// Every `--addr`, comma-splitting each occurrence, so member lists read
/// naturally either way: `--addr a,b,c` or `--addr a --addr b`.
fn member_addrs(args: &[String]) -> Result<Vec<String>, String> {
    let addrs: Vec<String> = arg_all(args, "--addr")
        .iter()
        .flat_map(|a| a.split(','))
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err("at least one --addr <ip:port> is required".into());
    }
    Ok(addrs)
}

/// Fetch the live [`ShardMap`] from the first listed member that answers.
fn fetch_map(addrs: &[String]) -> Result<ShardMap, String> {
    let mut last = String::new();
    for a in addrs {
        match Client::connect(a.as_str()).and_then(|mut c| c.shard_map()) {
            Ok(map) => return Ok(map),
            Err(e) => last = format!("{a}: {e}"),
        }
    }
    Err(format!("no member answered a ShardMap request (last error: {last})"))
}

/// Parse `--members name@ip:port,name@ip:port,...`.
fn parse_members(spec: &str) -> Result<Vec<ShardMember>, String> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|m| {
            let (name, addr) = m
                .trim()
                .split_once('@')
                .ok_or_else(|| format!("bad member {m:?}: expected name@ip:port"))?;
            Ok(ShardMember { name: name.to_string(), addr: addr.to_string() })
        })
        .collect()
}

/// Push `map` to every address, one plain connection each, reporting
/// each member's typed answer. Fails if any push failed — partial
/// installs are visible, not silent (the epoch rule makes a re-push of
/// the same map idempotent, so retrying this command is safe).
fn push_to_all(addrs: &[String], map: &ShardMap) -> Result<(), String> {
    println!(
        "pushing map epoch {} ({} member(s), replication {}) to {} server(s):",
        map.epoch,
        map.len(),
        map.replication,
        addrs.len()
    );
    let mut failed = 0;
    for a in addrs {
        match Client::connect(a.as_str()).and_then(|mut c| c.push_map(map)) {
            Ok((epoch, true)) => println!("  {a}: installed (now at epoch {epoch})"),
            Ok((epoch, false)) => println!("  {a}: already current (epoch {epoch})"),
            Err(e) => {
                failed += 1;
                println!("  {a}: FAILED: {e}");
            }
        }
    }
    if failed > 0 {
        Err(format!("{failed} push(es) failed"))
    } else {
        Ok(())
    }
}

/// `dcz cluster push`: install an explicit epoch-bumped map on every
/// listed member. Unspecified ring parameters are inherited from the
/// live map, and `--members` defaults to the current membership — the
/// bare form re-keys the ring (new seed/vnodes) without a roster change.
fn cluster_push(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        2,
        &["--addr", "--epoch", "--members", "--seed", "--vnodes", "--replication"],
        &[],
    )?;
    let addrs = member_addrs(args)?;
    let epoch: u64 = required(args, "--epoch")?.parse().map_err(|_| "bad --epoch".to_string())?;
    let cur = fetch_map(&addrs)?;
    let members = match arg(args, "--members") {
        Some(spec) => parse_members(&spec)?,
        None => cur.members.clone(),
    };
    let replication = parse(args, "--replication", cur.replication)?;
    let map = ShardMap::new(
        epoch,
        parse(args, "--seed", cur.seed)?,
        parse(args, "--vnodes", cur.vnodes)?,
        replication.min(members.len() as u8),
        members,
    );
    push_to_all(&addrs, &map)
}

/// `dcz cluster join`: add one member (booted solo with `dcz serve
/// --shard-name <name>`) to the live map and push the epoch+1 successor
/// to every old member *and* the newcomer, which adopts the cluster map
/// in the same push.
fn cluster_join(args: &[String]) -> Result<(), String> {
    check_flags(args, 2, &["--addr", "--name", "--member-addr"], &[])?;
    let addrs = member_addrs(args)?;
    let name = required(args, "--name")?;
    let member_addr = required(args, "--member-addr")?;
    let cur = fetch_map(&addrs)?;
    if cur.members.iter().any(|m| m.name == name) {
        return Err(format!("member {name:?} is already in the map (epoch {})", cur.epoch));
    }
    let mut members = cur.members.clone();
    members.push(ShardMember { name, addr: member_addr.clone() });
    let map = ShardMap::new(cur.epoch + 1, cur.seed, cur.vnodes, cur.replication, members);
    let mut targets = addrs;
    if !targets.contains(&member_addr) {
        targets.push(member_addr);
    }
    push_to_all(&targets, &map)
}

/// `dcz cluster leave`: drop one member and push the epoch+1 successor.
/// The leaver gets the push too (when listed): under the new map it owns
/// nothing, finishes its admitted in-flight work at the old epoch, and
/// answers every key with a `WrongShard` redirect from then on.
fn cluster_leave(args: &[String]) -> Result<(), String> {
    check_flags(args, 2, &["--addr", "--name"], &[])?;
    let addrs = member_addrs(args)?;
    let name = required(args, "--name")?;
    let cur = fetch_map(&addrs)?;
    let members: Vec<ShardMember> =
        cur.members.iter().filter(|m| m.name != name).cloned().collect();
    if members.len() == cur.members.len() {
        return Err(format!("member {name:?} is not in the map (epoch {})", cur.epoch));
    }
    if members.is_empty() {
        return Err("cannot remove the last member; shut the server down instead".into());
    }
    let replication = cur.replication.min(members.len() as u8);
    let map = ShardMap::new(cur.epoch + 1, cur.seed, cur.vnodes, replication, members);
    push_to_all(&addrs, &map)
}

/// `dcz cluster suspect`: sweep the members with `--beats` rounds of
/// `Ping` through the seeded [`FailureDetector`]. The detector's clock
/// is synthetic (`round × interval`), injected by this sweep — the
/// verdict is a pure function of which probes answered, so two sweeps
/// over the same cluster state print the same suspicions.
fn cluster_suspect(args: &[String]) -> Result<(), String> {
    check_flags(args, 2, &["--addr", "--beats", "--threshold", "--interval", "--timeout"], &[])?;
    let addrs = member_addrs(args)?;
    let beats: u32 = parse(args, "--beats", 3)?;
    let threshold: u32 = parse(args, "--threshold", 3)?;
    let interval_ms: u64 = parse(args, "--interval", 100)?;
    let probe_ms: u64 = parse(args, "--timeout", 250)?;
    let probe = Duration::from_millis(probe_ms.max(1));
    let mut detector = FailureDetector::new(addrs.len(), interval_ms, threshold);
    for round in 0..beats.max(1) {
        let now_ms = round as u64 * interval_ms;
        for (i, a) in addrs.iter().enumerate() {
            let ok = ping_once(a, probe);
            if let Some(m) = detector.observe(i, ok, now_ms) {
                println!("  {}: suspected at beat {}", addrs[m], round + 1);
            }
        }
    }
    for (i, a) in addrs.iter().enumerate() {
        println!("  {a}: {}", if detector.is_suspected(i) { "SUSPECTED" } else { "alive" });
    }
    println!("suspicions={}", detector.suspicions());
    Ok(())
}

/// One connect + `Ping` probe with a bounded reply wait.
fn ping_once(addr: &str, timeout: Duration) -> bool {
    let Ok(mut c) = Client::connect(addr) else {
        return false;
    };
    if c.set_op_timeout(Some(timeout)).is_err() {
        return false;
    }
    c.ping().is_ok()
}

fn fetch(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        1,
        &[
            "--addr",
            "--container",
            "--chunk",
            "--cf",
            "--out",
            "--timeout",
            "--retries",
            "--tenant",
            "--weight",
            "--hedge",
        ],
        &[],
    )?;
    let container: u32 =
        required(args, "--container")?.parse().map_err(|_| "bad --container".to_string())?;
    let chunk: u32 = required(args, "--chunk")?.parse().map_err(|_| "bad --chunk".to_string())?;
    let read_cf: u8 = parse(args, "--cf", 0)?;
    let mut client = robust_client(args)?;
    let got = client.fetch(container, chunk, read_cf).map_err(|e| e.to_string())?;
    let [s, c, h, w] = got.dims;
    println!(
        "container {container} chunk {chunk}: {s} samples x [{c}, {h}, {w}] \
         at chop factor {} (first sample {})",
        got.served_cf, got.first_sample
    );
    if got.degraded() {
        println!(
            "  BROWNOUT: asked for chop factor {}, served at {} (re-fetch when pressure clears)",
            got.requested_cf, got.served_cf
        );
    }
    if let Some(out) = arg(args, "--out") {
        let mut file = BufWriter::new(File::create(&out).map_err(|e| e.to_string())?);
        for v in &got.data {
            file.write_all(&v.to_le_bytes()).map_err(|e| e.to_string())?;
        }
        file.flush().map_err(|e| e.to_string())?;
        println!("wrote {} f32 values to {out}", got.data.len());
    }
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--addr", "--timeout", "--retries"], &[])?;
    let mut client = robust_client(args)?;
    print!("{}", client.stats().map_err(|e| e.to_string())?);
    Ok(())
}

fn shutdown(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--addr", "--timeout", "--retries"], &[])?;
    let addr = addr_of(args);
    let mut client = robust_client(args)?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("{addr}: shutting down");
    Ok(())
}

fn repair_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, 1, &["--input", "--out"], &[])?;
    let input = required(args, "--input")?;
    let out = required(args, "--out")?;
    let report = repair(&input, &out).map_err(|e| e.to_string())?;
    println!(
        "{input} -> {out}: kept {} of {} chunks ({} samples{}{})",
        report.kept,
        report.scanned,
        report.samples,
        if report.index_rebuilt { ", index rebuilt by scan" } else { "" },
        if report.dropped > 0 {
            format!(", {} chunk(s) dropped", report.dropped)
        } else {
            String::new()
        }
    );
    Ok(())
}
