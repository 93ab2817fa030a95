//! `bench_encode` — ReFloat block-encoding throughput (the work a cache miss pays).
//!
//! Encodes a 2-D Laplacian into ReFloat blocks repeatedly and reports host-side
//! rows/s and nnz/s, then re-encodes it incrementally against a copy whose values
//! in a fixed, seeded quarter of the blocks are perturbed (the work of one transient
//! chain step) and reports that as `incremental_nnz_per_s`.  Refreshes the tracked
//! `BENCH_encode.json` trajectory file.
//! Wall-clock numbers are host-dependent (see the clock contract in
//! `refloat-telemetry`); the trajectory tracks relative movement on CI's fixed
//! runner class, not absolute speed.
//!
//! ```text
//! bench_encode [--scale N] [--reps N] [--quick] [--bench-dir DIR]
//! ```

use std::time::Instant;

use refloat_bench::args::{parse_positive_usize, UsageError};
use refloat_bench::bench_emit::{default_bench_dir, emit};
use refloat_bench::json::has_flag;
use refloat_core::{assert_bitwise_identical, reencode_incremental, ReFloatConfig, ReFloatMatrix};
use refloat_matgen::generators;
use refloat_sparse::CsrMatrix;
use refloat_telemetry::BenchReport;

/// `(scale, reps)` from `--scale N` and `--reps N`, each a positive integer.
fn parse_sizes(args: &[String], quick: bool) -> Result<(usize, usize), UsageError> {
    let scale = parse_positive_usize(args, "--scale")?.unwrap_or(if quick { 96 } else { 192 });
    let reps = parse_positive_usize(args, "--reps")?.unwrap_or(if quick { 4 } else { 16 });
    Ok((scale, reps))
}

/// Blocks whose values [`perturb_blocks`] changes: one in `PERTURBED_ONE_IN`.
const PERTURBED_ONE_IN: u64 = 4;

/// A copy of `a` with every value of a seeded share of its `2^b × 2^b` blocks
/// scaled by `1 + 1e-3` (same structure, so the re-encode takes the diff path).
fn perturb_blocks(a: &CsrMatrix, b: u32, seed: u64) -> CsrMatrix {
    let mut out = a.clone();
    for ((r, c, _), v) in a.iter().zip(out.values_mut()) {
        // SplitMix64 finalizer over the block coordinates.
        let mut z = seed ^ (((r >> b) as u64) << 32 | (c >> b) as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        if (z ^ (z >> 31)).is_multiple_of(PERTURBED_ONE_IN) {
            *v *= 1.0 + 1e-3;
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let (scale, reps) = match parse_sizes(&args, quick) {
        Ok(sizes) => sizes,
        Err(usage) => {
            eprintln!("bench_encode: {usage}");
            std::process::exit(2);
        }
    };
    let format = ReFloatConfig::paper_default();

    let a = generators::laplacian_2d(scale, scale, 0.2).to_csr();
    println!(
        "bench_encode: {} rows, {} nnz, {} reps, format {}",
        a.nrows(),
        a.nnz(),
        reps,
        format,
    );

    // Warm-up encode (page in the matrix, stabilise allocator state), then the
    // timed repetitions.
    let warm = ReFloatMatrix::from_csr(&a, format);
    let blocks = warm.num_blocks();
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — this bench bin
    // measures *real host* encode throughput by design; its numbers feed
    // BENCH_encode.json, not any deterministic digest.
    let start = Instant::now();
    for _ in 0..reps {
        let encoded = ReFloatMatrix::from_csr(&a, format);
        assert_eq!(encoded.num_blocks(), blocks, "encode must be deterministic");
    }
    // refloat-analysis: allow(wall-clock-in-deterministic-path)
    let total_s = start.elapsed().as_secs_f64().max(1e-9);

    let rows_per_s = (a.nrows() * reps) as f64 / total_s;
    let nnz_per_s = (a.nnz() * reps) as f64 / total_s;
    println!(
        "encoded {blocks} blocks/rep: {rows_per_s:.0} rows/s, {nnz_per_s:.0} nnz/s \
         ({total_s:.3} s total)"
    );

    let next = perturb_blocks(&a, format.b, 2023);
    let first = reencode_incremental(&warm, &a, &next);
    assert_bitwise_identical(&first.matrix, &ReFloatMatrix::from_csr(&next, format));
    // refloat-analysis: allow(wall-clock-in-deterministic-path)
    let start = Instant::now();
    for _ in 0..reps {
        let inc = reencode_incremental(&warm, &a, &next);
        assert_eq!(inc.stats, first.stats, "re-encode must be deterministic");
    }
    // refloat-analysis: allow(wall-clock-in-deterministic-path)
    let incremental_s = start.elapsed().as_secs_f64().max(1e-9);
    let incremental_nnz_per_s = (next.nnz() * reps) as f64 / incremental_s;
    println!(
        "re-encoded {} of {blocks} blocks/rep incrementally: {incremental_nnz_per_s:.0} nnz/s \
         ({incremental_s:.3} s total)",
        first.stats.blocks_reencoded()
    );

    let bench = BenchReport::new("encode", "bench_encode")
        .config_num("scale", scale as f64)
        .config_num("reps", reps as f64)
        .config_num("rows", a.nrows() as f64)
        .config_num("nnz", a.nnz() as f64)
        .config_num("blocks", blocks as f64)
        .config_str("format", &format.to_string())
        .config_num("blocks_reencoded", first.stats.blocks_reencoded() as f64)
        .metric("rows_per_s", rows_per_s)
        .metric("nnz_per_s", nnz_per_s)
        .metric("encode_s_total", total_s)
        .metric("incremental_nnz_per_s", incremental_nnz_per_s);
    emit(&bench, &default_bench_dir(&args));
}
