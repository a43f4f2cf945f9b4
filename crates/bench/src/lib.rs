//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper: it prints the series to stdout (same rows/series the paper
//! plots) and writes a CSV under `results/`. EXPERIMENTS.md records the
//! paper-vs-measured comparison for each.

#![forbid(unsafe_code)]

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

pub mod sweeps;
pub mod timing;

/// Resolve the `results/` directory (workspace root), creating it if
/// needed.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir.canonicalize().unwrap_or(dir)
}

/// A CSV writer that also keeps the header for pretty stdout printing.
pub struct CsvOut {
    file: fs::File,
    path: PathBuf,
}

impl CsvOut {
    /// Create `results/<name>.csv` with a header row.
    pub fn create(name: &str, header: &[&str]) -> Self {
        let path = results_dir().join(format!("{name}.csv"));
        let mut file = fs::File::create(&path).expect("create csv");
        writeln!(file, "{}", header.join(",")).expect("write header");
        CsvOut { file, path }
    }

    /// Append one row.
    pub fn row(&mut self, fields: &[String]) {
        writeln!(self.file, "{}", fields.join(",")).expect("write row");
    }

    /// Where the CSV landed.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Append one run record to `BENCH_<name>.json` at the workspace root —
/// the perf-trajectory log (one JSON array of flat objects) that lets
/// later sessions compare memory/throughput numbers over time. Hand-rolled
/// writer: the workspace has no JSON dependency. `texts` are quoted with
/// minimal escaping; `nums` print raw (non-finite values become `null`).
/// Returns the log's path.
pub fn append_bench_record(name: &str, texts: &[(&str, &str)], nums: &[(&str, f64)]) -> PathBuf {
    let mut fields: Vec<String> = Vec::with_capacity(texts.len() + nums.len());
    for (k, v) in texts {
        fields.push(format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    for (k, v) in nums {
        let val = if v.is_finite() { format!("{v}") } else { "null".into() };
        fields.push(format!("\"{}\":{val}", json_escape(k)));
    }
    let record = format!("{{{}}}", fields.join(","));

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(format!("BENCH_{name}.json"));
    let body = match fs::read_to_string(&path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                // Splice into the existing array, keeping one record per line.
                Some(head) if head.trim_end().ends_with('[') => format!("[\n{record}\n]\n"),
                Some(head) => format!("{},\n{record}\n]\n", head.trim_end()),
                None => format!("[\n{record}\n]\n"), // corrupt/empty: restart the log
            }
        }
        Err(_) => format!("[\n{record}\n]\n"),
    };
    fs::write(&path, body).expect("write bench log");
    path.canonicalize().unwrap_or(path)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.001 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// A binary's command line, checked against the flags it declares: value
/// flags (`--epochs 8`) and switches (`--quick`). An undeclared argument
/// (`--help` included), a value flag without its value, or a value that
/// does not parse is refused with the binary's usage line, and the process
/// exits 1 before it does any work.
#[derive(Debug)]
pub struct Flags {
    usage: &'static str,
    /// Each flag given, in order, with its value (`None` for a switch).
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Check `args` (the program name excluded) against the declared
    /// `values` and `switches`; a refusal names the argument and carries
    /// `usage`.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        usage: &'static str,
        values: &[&str],
        switches: &[&str],
    ) -> Result<Flags, String> {
        let mut args = args.into_iter();
        let mut given = Vec::new();
        while let Some(a) = args.next() {
            if switches.contains(&a.as_str()) {
                given.push((a, None));
            } else if values.contains(&a.as_str()) {
                let v = args.next().ok_or_else(|| format!("flag {a} needs a value\n{usage}"))?;
                given.push((a, Some(v)));
            } else {
                return Err(format!("unknown argument {a:?}\n{usage}"));
            }
        }
        Ok(Flags { usage, given })
    }

    /// [`Flags::parse`] of this process's arguments; a refusal is printed
    /// and the process exits 1.
    pub fn from_env(usage: &'static str, values: &[&str], switches: &[&str]) -> Flags {
        Flags::parse(std::env::args().skip(1), usage, values, switches)
            .unwrap_or_else(|e| refuse(&e))
    }

    /// Was the switch (or value flag) `name` given?
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// The value given for `name`, as typed.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(flag, _)| flag == name).and_then(|(_, v)| v.as_deref())
    }

    /// The value of `name` parsed as `T`, `None` when not given; a value
    /// that does not parse is refused (exit 1).
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        let refusal = || format!("bad value for {name}: {v:?}\n{}", self.usage);
        Some(v.parse().unwrap_or_else(|_| refuse(&refusal())))
    }

    /// [`Flags::opt`], with `default` when `name` is not given.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.opt(name).unwrap_or(default)
    }
}

/// Print a command-line refusal and exit 1.
fn refuse(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}

/// The chop factors the paper sweeps (CF 2..7) with their CRs.
pub const CF_SWEEP: [usize; 6] = [2, 3, 4, 5, 6, 7];

/// Compression ratio for a chop factor, taken from the codec registry
/// (Eq. 3 makes it independent of the resolution, so the smallest valid
/// geometry stands in for the whole sweep).
pub fn chop_ratio(cf: usize) -> f64 {
    aicomp_core::CodecSpec::Dct2d { n: 8, cf }
        .build()
        .expect("valid chop factor")
        .compression_ratio()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_declared_flags_and_refuse_the_rest() {
        const USAGE: &str = "usage: prog [--epochs <N>] [--lr <x>] [--quick]";
        let parse = |args: &[&str]| {
            Flags::parse(
                args.iter().map(|s| s.to_string()),
                USAGE,
                &["--epochs", "--lr"],
                &["--quick"],
            )
        };
        let flags = parse(&["--epochs", "12", "--lr", "0.5"]).unwrap();
        assert_eq!(flags.get("--epochs", 3usize), 12);
        assert_eq!(flags.get("--lr", 0.1f64), 0.5);
        assert_eq!(flags.opt::<usize>("--missing"), None);
        assert!(!flags.has("--quick"));
        // A switch cannot be the value of a flag it follows, nor a value a switch.
        let flags = parse(&["--lr", "--quick"]).unwrap();
        assert_eq!((flags.value("--lr"), flags.has("--quick")), (Some("--quick"), false));
        for (args, names) in [
            (&["--epcohs", "1"][..], "\"--epcohs\""),
            (&["--quikc"][..], "\"--quikc\""),
            (&["--help"][..], "\"--help\""),
            (&["--quick", "1"][..], "\"1\""),
            (&["--epochs"][..], "flag --epochs needs a value"),
        ] {
            let refusal = parse(args).unwrap_err();
            assert!(refusal.contains(names) && refusal.ends_with(USAGE), "{args:?}: {refusal}");
        }
    }

    #[test]
    fn chop_ratio_delegates_to_registry() {
        assert_eq!(chop_ratio(2), 16.0);
        assert_eq!(chop_ratio(4), 4.0);
    }

    #[test]
    fn bench_log_appends_valid_array() {
        let p = append_bench_record("_test_log", &[("codec", "ebpc")], &[("cr", 3.5)]);
        let p2 = append_bench_record(
            "_test_log",
            &[("codec", "fmap \"q\"")],
            &[("cr", 2.0), ("err", f64::NAN)],
        );
        assert_eq!(p, p2);
        let content = std::fs::read_to_string(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(
            content,
            "[\n{\"codec\":\"ebpc\",\"cr\":3.5},\n{\"codec\":\"fmap \\\"q\\\"\",\"cr\":2,\"err\":null}\n]\n"
        );
    }

    #[test]
    fn csv_roundtrip() {
        let mut out = CsvOut::create("_test_csv", &["a", "b"]);
        out.row(&["1".into(), "2".into()]);
        let content = std::fs::read_to_string(out.path()).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(out.path()).ok();
    }
}
