//! Test-only reference for the flat matrix encoding in [`crate::matrix`] and
//! [`crate::incremental`].
//!
//! The oracle is the encoder as it was before the flat layout: block the CSR matrix
//! with [`BlockedMatrix::from_csr`], encode each block into its own
//! [`ReFloatBlock`], and re-encode incrementally by blocking both steps and
//! merge-walking their block lists.  The flat encoder, the incremental re-encoder and
//! the apply loop must match it bit for bit, and the delta accounting exactly.

use std::collections::BTreeMap;

use crate::block::ReFloatBlock;
use crate::format::ReFloatConfig;
use crate::incremental::{reencode_incremental, IncrementalStats};
use crate::matrix::ReFloatMatrix;
use crate::oracle::{any_config, any_input, bits};
use crate::vector::VectorConverter;
use proptest::prelude::*;
use refloat_solvers::LinearOperator;
use refloat_sparse::{blocked::Block, BlockedMatrix, CsrMatrix};

/// The reference encode: one owned block per non-empty block, block-row-major.
fn oracle_encode(a: &CsrMatrix, config: &ReFloatConfig) -> Vec<ReFloatBlock> {
    BlockedMatrix::from_csr(a, config.b)
        .expect("b in 1..=3")
        .blocks()
        .iter()
        .map(|blk| ReFloatBlock::encode(blk, config))
        .collect()
}

fn blocks_bitwise_equal(a: &Block, b: &Block) -> bool {
    a.rows == b.rows && a.cols == b.cols && bits(&a.vals) == bits(&b.vals)
}

fn changed_cells(prev: &Block, next: &Block) -> u64 {
    let (mut i, mut j, mut changed) = (0, 0, 0u64);
    while i < prev.nnz() && j < next.nnz() {
        match (prev.rows[i], prev.cols[i]).cmp(&(next.rows[j], next.cols[j])) {
            std::cmp::Ordering::Less => {
                changed += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                changed += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                changed += u64::from(prev.vals[i].to_bits() != next.vals[j].to_bits());
                i += 1;
                j += 1;
            }
        }
    }
    changed + (prev.nnz() - i) as u64 + (next.nnz() - j) as u64
}

/// The reference incremental re-encode against `previous`, the reference encoding
/// of `previous_source`.
fn oracle_reencode(
    previous: &[ReFloatBlock],
    previous_source: &CsrMatrix,
    a: &CsrMatrix,
    config: &ReFloatConfig,
) -> (Vec<ReFloatBlock>, IncrementalStats) {
    let prev_blocked = BlockedMatrix::from_csr(previous_source, config.b).expect("b in 1..=3");
    let next_blocked = BlockedMatrix::from_csr(a, config.b).expect("b in 1..=3");
    let (prev_blocks, next_blocks) = (prev_blocked.blocks(), next_blocked.blocks());
    let mut stats = IncrementalStats {
        blocks_total: next_blocks.len(),
        ..IncrementalStats::default()
    };
    let mut encoded = Vec::with_capacity(next_blocks.len());
    let mut p = 0;
    for next in next_blocks {
        let key = (next.block_row, next.block_col);
        while p < prev_blocks.len() && (prev_blocks[p].block_row, prev_blocks[p].block_col) < key {
            stats.blocks_vanished += 1;
            stats.cells_reprogrammed += prev_blocks[p].nnz() as u64;
            p += 1;
        }
        stats.cells_total += next.nnz() as u64;
        let matched =
            p < prev_blocks.len() && (prev_blocks[p].block_row, prev_blocks[p].block_col) == key;
        if matched && blocks_bitwise_equal(&prev_blocks[p], next) {
            stats.blocks_reused += 1;
            encoded.push(previous[p].clone());
        } else {
            let fresh = ReFloatBlock::encode(next, config);
            if matched && fresh.eb == previous[p].eb {
                stats.blocks_partial += 1;
                stats.cells_reprogrammed += changed_cells(&prev_blocks[p], next);
            } else {
                stats.blocks_full += 1;
                stats.cells_reprogrammed += fresh.nnz() as u64;
            }
            encoded.push(fresh);
        }
        p += usize::from(matched);
    }
    for blk in &prev_blocks[p..] {
        stats.blocks_vanished += 1;
        stats.cells_reprogrammed += blk.nnz() as u64;
    }
    (encoded, stats)
}

/// Asserts `m`'s blocks equal the reference blocks, field by field, bitwise.
fn assert_matches(m: &ReFloatMatrix, oracle: &[ReFloatBlock]) {
    assert_eq!(m.num_blocks(), oracle.len(), "block count");
    assert_eq!(m.nnz(), oracle.iter().map(ReFloatBlock::nnz).sum::<usize>());
    for (got, want) in m.blocks().zip(oracle) {
        let at = (want.block_row, want.block_col);
        assert_eq!((got.block_row, got.block_col), at);
        assert_eq!(got.eb, want.eb, "eb of block {at:?}");
        assert_eq!(got.rows, &want.rows[..], "rows of block {at:?}");
        assert_eq!(got.cols, &want.cols[..], "cols of block {at:?}");
        assert_eq!(got.signs, &want.signs[..], "signs of block {at:?}");
        assert_eq!(got.offsets, &want.offsets[..], "offsets of block {at:?}");
        assert_eq!(
            got.fraction_codes,
            &want.fraction_codes[..],
            "codes of block {at:?}"
        );
        assert_eq!(
            bits(got.decoded),
            bits(&want.decoded),
            "decoded of block {at:?}"
        );
    }
}

/// The apply loop as it ran over owned blocks: quantize `x`, then accumulate every
/// block's decoded products in block order.
fn oracle_apply(
    oracle: &[ReFloatBlock],
    config: &ReFloatConfig,
    x: &[f64],
    nrows: usize,
) -> Vec<f64> {
    let xq = VectorConverter::new(*config).convert(x);
    let bs = config.block_size();
    let mut y = vec![0.0; nrows];
    for blk in oracle {
        for (ii, jj, v) in blk.iter_decoded() {
            y[blk.block_row * bs + ii as usize] += v * xq[blk.block_col * bs + jj as usize];
        }
    }
    y
}

type Cells = BTreeMap<(usize, usize), f64>;

fn csr(nrows: usize, ncols: usize, cells: &Cells) -> CsrMatrix {
    let mut row_ptr = vec![0; nrows + 1];
    for &(r, _) in cells.keys() {
        row_ptr[r + 1] += 1;
    }
    for r in 0..nrows {
        row_ptr[r + 1] += row_ptr[r];
    }
    let col_idx = cells.keys().map(|&(_, c)| c).collect();
    let vals = cells.values().copied().collect();
    CsrMatrix::from_raw(nrows, ncols, row_ptr, col_idx, vals).expect("valid CSR")
}

/// A random matrix whose last block-row and block-column are usually ragged, with
/// block-row `hole` emptied; values mix explicit ±0, subnormals and non-finite ones.
fn matrix_cells(
    (nrows, ncols): (usize, usize),
    entries: &[(usize, usize, f64)],
    hole: usize,
    b: u32,
) -> Cells {
    entries
        .iter()
        .map(|&(r, c, v)| ((r % nrows, c % ncols), v))
        .filter(|&((r, _), _)| r >> b != hole)
        .collect()
}

/// Applies `edits` to `cells`.  Ops 0–1 change values only (a new value, a sign
/// flip); with `restructure`, op 2 writes a cell (adding it if absent), op 3 removes
/// one and op 4 clears the whole block around it.
fn edit(
    cells: &Cells,
    (nrows, ncols): (usize, usize),
    edits: &[(usize, usize, u32, f64)],
    restructure: bool,
    b: u32,
) -> Cells {
    let mut next = cells.clone();
    for &(r, c, op, v) in edits {
        let op = if restructure { op } else { op % 2 };
        let (r, c) = (r % nrows, c % ncols);
        let nth = next.keys().nth(r % next.len().max(1)).copied();
        match (op, nth) {
            (0, Some(key)) => {
                next.insert(key, v);
            }
            (1, Some(key)) => {
                let flipped = -next[&key];
                next.insert(key, flipped);
            }
            (2, _) => {
                next.insert((r, c), v);
            }
            (3, _) => {
                next.remove(&(r, c));
            }
            (4, _) => next.retain(|&(i, j), _| (i >> b, j >> b) != (r >> b, c >> b)),
            _ => {}
        }
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn flat_encoder_and_apply_match_the_oracle_bitwise(
        config in any_config(),
        dims in (1usize..48, 1usize..48),
        entries in proptest::collection::vec((0usize..4096, 0usize..4096, any_input()), 0..200),
        hole in 0usize..8,
        x in proptest::collection::vec(-4.0f64..4.0, 48),
    ) {
        let a = csr(dims.0, dims.1, &matrix_cells(dims, &entries, hole, config.b));
        let oracle = oracle_encode(&a, &config);
        let mut m = ReFloatMatrix::from_csr(&a, config);
        assert_matches(&m, &oracle);
        let blocked = BlockedMatrix::from_csr(&a, config.b).expect("b in 1..=3");
        assert_matches(&ReFloatMatrix::from_blocked(&blocked, config), &oracle);

        let x = &x[..dims.1];
        let mut y = vec![0.0; dims.0];
        m.apply(x, &mut y);
        prop_assert_eq!(bits(&y), bits(&oracle_apply(&oracle, &config, x, dims.0)));
    }

    #[test]
    fn incremental_matches_scratch_and_the_oracle_stats(
        config in any_config(),
        dims in (1usize..48, 1usize..48),
        entries in proptest::collection::vec((0usize..4096, 0usize..4096, any_input()), 0..200),
        hole in 0usize..8,
        edits in proptest::collection::vec(
            (0usize..4096, 0usize..4096, 0u32..5, any_input()), 0..40),
        restructure in proptest::bool::ANY,
    ) {
        let cells = matrix_cells(dims, &entries, hole, config.b);
        let prev_src = csr(dims.0, dims.1, &cells);
        let next = csr(dims.0, dims.1, &edit(&cells, dims, &edits, restructure, config.b));
        let previous = ReFloatMatrix::from_csr(&prev_src, config);
        let inc = reencode_incremental(&previous, &prev_src, &next);

        let (oracle, oracle_stats) =
            oracle_reencode(&oracle_encode(&prev_src, &config), &prev_src, &next, &config);
        prop_assert_eq!(inc.stats, oracle_stats);
        assert_matches(&inc.matrix, &oracle);
        crate::incremental::assert_bitwise_identical(
            &inc.matrix,
            &ReFloatMatrix::from_csr(&next, config),
        );
        prop_assert_eq!(LinearOperator::nrows(&inc.matrix), dims.0);
    }
}
