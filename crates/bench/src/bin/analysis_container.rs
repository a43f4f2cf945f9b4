//! On-disk container analysis for the `.dcz` format (§4.4 direction of the
//! paper: partial/progressive serialization, here measured end to end on
//! the packed container instead of a simulated stream).
//!
//! Two tables:
//! - `analysis_container_ratio.csv` — per dataset and chop factor: the
//!   chop's analytical ratio, the extra gain from byte-plane entropy
//!   coding, the total on-disk ratio including container overhead, and the
//!   reconstruction PSNR (identical to the host compressor's, by the
//!   bit-exactness invariant).
//! - `analysis_container_progressive.csv` — pack once at CF 7, then decode
//!   the same container at every coarser factor: fraction of payload bytes
//!   actually read vs the quality obtained (the container's ring-major
//!   chunk layout makes coarse reads chunk-prefix reads).

use std::io::Cursor;

use aicomp_bench::{CsvOut, CF_SWEEP};
use aicomp_core::metrics::quality;
use aicomp_sciml::{Dataset, DatasetKind};
use aicomp_store::writer::{DczWriter, StoreOptions};
use aicomp_store::DczReader;
use aicomp_tensor::Tensor;

const SAMPLES: usize = 32;
const CHUNK: usize = 8;
const SEED: u64 = 2929;

fn pack_in_memory(inputs: &Tensor, cf: usize) -> (DczReader<Cursor<Vec<u8>>>, f64, f64, f64, u64) {
    let d = inputs.dims();
    let opts = StoreOptions::dct(d[2], cf, d[1], CHUNK);
    let mut w = DczWriter::new(Cursor::new(Vec::new()), &opts).expect("writer");
    w.push_batch(inputs).expect("push");
    let (sink, summary) = w.finish().expect("finish");
    let reader = DczReader::new(Cursor::new(sink.into_inner())).expect("reader");
    (
        reader,
        summary.chop_ratio(),
        summary.entropy_gain(),
        summary.total_ratio(),
        summary.file_bytes,
    )
}

fn decode_all(reader: &mut DczReader<Cursor<Vec<u8>>>, read_cf: Option<usize>) -> Tensor {
    let read_cf = read_cf.unwrap_or(reader.header().cf());
    let chunks: Vec<Tensor> = (0..reader.chunk_count())
        .map(|c| reader.decompress_chunk_at(c, read_cf).expect("decode"))
        .collect();
    let refs: Vec<&Tensor> = chunks.iter().collect();
    Tensor::concat0(&refs).expect("concat")
}

fn main() {
    let kinds = [DatasetKind::Classify, DatasetKind::EmDenoise, DatasetKind::SlstrCloud];

    let mut ratio_csv = CsvOut::create(
        "analysis_container_ratio",
        &[
            "dataset",
            "cf",
            "cr_chop",
            "entropy_gain",
            "total_ratio",
            "file_overhead_pct",
            "psnr_db",
        ],
    );
    println!("=== on-disk ratio by chop factor ===");
    println!(
        "{:<14} {:>3} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "dataset", "cf", "chop", "entropy", "total", "ovhd %", "PSNR dB"
    );
    for kind in kinds {
        let ds = Dataset::generate(kind, SAMPLES, SEED);
        let imgs = &ds.inputs;
        let raw_bytes = imgs.size_bytes() as f64;
        for cf in CF_SWEEP {
            let (mut reader, chop, entropy, total, file_bytes) = pack_in_memory(imgs, cf);
            let rec = decode_all(&mut reader, None);
            let q = quality(imgs, &rec).expect("shapes");
            // Payload-only vs whole-file ratio gap = index + header + tables.
            let overhead_pct = (raw_bytes / file_bytes as f64 / total - 1.0).abs() * 100.0;
            println!(
                "{:<14} {:>3} {:>8.2} {:>9.3} {:>9.2} {:>9.2} {:>9.2}",
                kind.name(),
                cf,
                chop,
                entropy,
                total,
                overhead_pct,
                q.psnr_db
            );
            ratio_csv.row(&[
                kind.name().to_string(),
                cf.to_string(),
                format!("{chop:.4}"),
                format!("{entropy:.4}"),
                format!("{total:.4}"),
                format!("{overhead_pct:.4}"),
                format!("{:.4}", q.psnr_db),
            ]);
        }
    }
    println!("wrote {}", ratio_csv.path().display());

    let mut prog_csv = CsvOut::create(
        "analysis_container_progressive",
        &["dataset", "stored_cf", "read_cf", "payload_read_frac", "effective_ratio", "psnr_db"],
    );
    println!("\n=== progressive reads from one CF-7 container ===");
    println!(
        "{:<14} {:>7} {:>9} {:>9} {:>9}",
        "dataset", "read_cf", "read frac", "eff. CR", "PSNR dB"
    );
    for kind in kinds {
        let ds = Dataset::generate(kind, SAMPLES, SEED);
        let imgs = &ds.inputs;
        for read_cf in CF_SWEEP {
            let (mut reader, _, _, _, _) = pack_in_memory(imgs, 7);
            let payload: u64 = reader.index().iter().map(|e| e.len as u64).sum();
            let rec = decode_all(&mut reader, Some(read_cf));
            let q = quality(imgs, &rec).expect("shapes");
            let frac = reader.bytes_read() as f64 / payload as f64;
            let eff = imgs.size_bytes() as f64 / reader.bytes_read() as f64;
            println!(
                "{:<14} {:>7} {:>9.3} {:>9.2} {:>9.2}",
                kind.name(),
                read_cf,
                frac,
                eff,
                q.psnr_db
            );
            prog_csv.row(&[
                kind.name().to_string(),
                "7".to_string(),
                read_cf.to_string(),
                format!("{frac:.4}"),
                format!("{eff:.4}"),
                format!("{:.4}", q.psnr_db),
            ]);
        }
    }
    println!("wrote {}", prog_csv.path().display());
}
