//! The ReFloat-quantized matrix operator.
//!
//! [`ReFloatMatrix`] stores a sparse matrix as ReFloat-encoded blocks and implements the
//! paper's computation procedure (Eq. 8–9): every SpMV first re-encodes the input vector
//! segment-by-segment (the vector converter of Fig. 6d), then accumulates the per-block
//! products `2^{eb+ebv} · Ã_c · x̃_c` in double precision, exactly as the accelerator's
//! processing engines emit FP64 partial results that the MAC units accumulate.
//!
//! Numerically, this functional model is identical to the hardware pipeline: the
//! crossbars compute the fixed-point products of the encoded fractions exactly
//! (verified against [`ReFloatMatrix::apply`] by the crossbar simulator in `reram-sim`),
//! and the final scaling by `2^{eb+ebv}` is a pure exponent addition.
//!
//! # Layout
//!
//! The encoding is one struct of arrays shared by every clone of the operator: a
//! block table (block coordinates, base `eb`, first element) and per-element arrays
//! (local row and column, sign, offset, fraction code, decoded value).  Elements are
//! block-row-major, block columns ascending, row-major within a block — the
//! block-major layout of Fig. 7 — so an apply walks one contiguous array.
//! [`ReFloatMatrix::from_csr`] builds it in one pass per block-row (count the entries
//! per block column, assign starts, scatter), then encodes each block in place.
//! [`ReFloatMatrix::blocks`] and [`ReFloatMatrix::block`] read it as [`BlockView`]s.

use std::ops::Range;
use std::sync::Arc;

use crate::block::{encode_in_place, matrix_quantizer, optimal_exponent_base, BlockView};
use crate::format::ReFloatConfig;
use crate::scalar::Quantizer;
use crate::vector::VectorConverter;
use refloat_solvers::LinearOperator;
use refloat_sparse::{BlockedMatrix, CsrMatrix};

/// One row of the block table: where a block sits, its base and its first element.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockEntry {
    pub block_row: usize,
    pub block_col: usize,
    pub eb: i32,
    /// Index of the block's first element in the per-element arrays.
    pub start: usize,
}

impl BlockEntry {
    /// The block-row-major sort key.
    pub fn key(&self) -> (usize, usize) {
        (self.block_row, self.block_col)
    }
}

/// A matrix's ReFloat encoding as one struct of arrays.
///
/// The block table lists the non-empty blocks block-row-major, block columns
/// ascending; block `k` owns elements `range(k)` of the per-element arrays, row-major
/// within the block and in CSR order within a row.  So the elements of one block-row
/// fill exactly that block-row's CSR index range, permuted.
#[derive(Debug, Clone)]
pub(crate) struct Encoding {
    pub blocks: Vec<BlockEntry>,
    pub rows: Vec<u16>,
    pub cols: Vec<u16>,
    pub signs: Vec<bool>,
    pub offsets: Vec<i8>,
    pub fraction_codes: Vec<u32>,
    /// Decoded values; raw values between [`layout`](Self::layout) and
    /// [`encode_block`](Self::encode_block).
    pub decoded: Vec<f64>,
}

impl Encoding {
    /// Lays `a` out in `2^b × 2^b` blocks in one pass per block-row: count the
    /// entries per block column, assign each block its start, and scatter.  The
    /// block table and local indices are final; `decoded` holds the raw values and
    /// every base is 0 until the blocks are encoded.
    pub fn layout(a: &CsrMatrix, b: u32) -> Self {
        let (row_ptr, col_idx, vals) = (a.row_ptr(), a.col_idx(), a.values());
        let nnz = vals.len();
        let mask = (1usize << b) - 1;
        let mut enc = Encoding {
            blocks: Vec::new(),
            rows: vec![0; nnz],
            cols: vec![0; nnz],
            signs: vec![false; nnz],
            offsets: vec![0; nnz],
            fraction_codes: vec![0; nnz],
            decoded: vec![0.0; nnz],
        };
        // Per block column: the entry count while counting, then the scatter cursor.
        let mut slot = vec![0usize; a.ncols().div_ceil(1 << b)];
        let mut present: Vec<usize> = Vec::new();
        for brow in 0..a.nrows().div_ceil(1 << b) {
            let row_lo = brow << b;
            let row_hi = (row_lo + (1 << b)).min(a.nrows());
            let (lo, hi) = (row_ptr[row_lo], row_ptr[row_hi]);
            for &c in &col_idx[lo..hi] {
                if slot[c >> b] == 0 {
                    present.push(c >> b);
                }
                slot[c >> b] += 1;
            }
            present.sort_unstable();
            let mut start = lo;
            for &bcol in &present {
                enc.blocks.push(BlockEntry {
                    block_row: brow,
                    block_col: bcol,
                    eb: 0,
                    start,
                });
                start += std::mem::replace(&mut slot[bcol], start);
            }
            for r in row_lo..row_hi {
                for i in row_ptr[r]..row_ptr[r + 1] {
                    let c = col_idx[i];
                    let at = slot[c >> b];
                    slot[c >> b] += 1;
                    enc.rows[at] = (r - row_lo) as u16;
                    enc.cols[at] = (c & mask) as u16;
                    enc.decoded[at] = vals[i];
                }
            }
            for &bcol in &present {
                slot[bcol] = 0;
            }
            present.clear();
        }
        enc
    }

    /// Lays a blocked matrix out flat, keeping its block and element order.
    fn from_blocked(blocked: &BlockedMatrix) -> Self {
        let nnz = blocked.nnz();
        let mut enc = Encoding {
            blocks: Vec::with_capacity(blocked.num_blocks()),
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            signs: vec![false; nnz],
            offsets: vec![0; nnz],
            fraction_codes: vec![0; nnz],
            decoded: Vec::with_capacity(nnz),
        };
        for blk in blocked.blocks() {
            enc.blocks.push(BlockEntry {
                block_row: blk.block_row,
                block_col: blk.block_col,
                eb: 0,
                start: enc.decoded.len(),
            });
            enc.rows.extend_from_slice(&blk.rows);
            enc.cols.extend_from_slice(&blk.cols);
            enc.decoded.extend_from_slice(&blk.vals);
        }
        enc
    }

    /// Element index range of block `k`.
    pub fn range(&self, k: usize) -> Range<usize> {
        let end = self
            .blocks
            .get(k + 1)
            .map_or(self.decoded.len(), |next| next.start);
        self.blocks[k].start..end
    }

    /// Encodes block `k`, whose `decoded` slots hold raw values, in place at its
    /// Eq. 5 base.
    pub fn encode_block(&mut self, k: usize, quantizer: &Quantizer) {
        let r = self.range(k);
        let eb = optimal_exponent_base(self.decoded[r.clone()].iter());
        self.blocks[k].eb = eb;
        encode_in_place(
            quantizer,
            eb,
            &mut self.decoded[r.clone()],
            &mut self.signs[r.clone()],
            &mut self.offsets[r.clone()],
            &mut self.fraction_codes[r],
        );
    }

    /// Encodes every block in place.
    fn encode_all(&mut self, config: &ReFloatConfig) {
        let quantizer = matrix_quantizer(config);
        for k in 0..self.blocks.len() {
            self.encode_block(k, &quantizer);
        }
    }

    /// Copies the encoded values of block `j` of `from`, which holds the same
    /// elements, into block `k`.
    pub fn copy_block(&mut self, k: usize, from: &Encoding, j: usize) {
        let (r, src) = (self.range(k), from.range(j));
        self.blocks[k].eb = from.blocks[j].eb;
        self.signs[r.clone()].copy_from_slice(&from.signs[src.clone()]);
        self.offsets[r.clone()].copy_from_slice(&from.offsets[src.clone()]);
        self.fraction_codes[r.clone()].copy_from_slice(&from.fraction_codes[src.clone()]);
        self.decoded[r].copy_from_slice(&from.decoded[src]);
    }

    /// Block `k` as a view.
    pub fn view(&self, k: usize) -> BlockView<'_> {
        let r = self.range(k);
        let entry = self.blocks[k];
        BlockView {
            block_row: entry.block_row,
            block_col: entry.block_col,
            eb: entry.eb,
            rows: &self.rows[r.clone()],
            cols: &self.cols[r.clone()],
            signs: &self.signs[r.clone()],
            offsets: &self.offsets[r.clone()],
            fraction_codes: &self.fraction_codes[r.clone()],
            decoded: &self.decoded[r],
        }
    }
}

/// A sparse matrix encoded block-by-block in ReFloat format, usable as a solver operator.
#[derive(Debug, Clone)]
pub struct ReFloatMatrix {
    nrows: usize,
    ncols: usize,
    config: ReFloatConfig,
    /// The encoding, immutable once built: clones (a solver takes one per solve,
    /// since applying mutates the converter scratch) share it.
    encoding: Arc<Encoding>,
    converter: VectorConverter,
    /// Scratch buffer holding the quantized input vector (reused across applies).
    quantized_input: Vec<f64>,
    /// Whether the input vector is re-encoded through the vector converter on every
    /// apply (the full ReFloat pipeline) or passed through exactly (ablation).
    quantize_vectors: bool,
}

impl ReFloatMatrix {
    /// Encodes a blocked matrix into ReFloat format, keeping its block order.
    pub fn from_blocked(blocked: &BlockedMatrix, config: ReFloatConfig) -> Self {
        assert_eq!(
            blocked.b(),
            config.b,
            "ReFloatMatrix: the blocking exponent ({}) must match the format's b ({})",
            blocked.b(),
            config.b
        );
        let mut encoding = Encoding::from_blocked(blocked);
        encoding.encode_all(&config);
        Self::from_encoding(blocked.nrows(), blocked.ncols(), config, encoding)
    }

    /// Wraps a finished encoding; [`crate::incremental`] assembles them too.
    pub(crate) fn from_encoding(
        nrows: usize,
        ncols: usize,
        config: ReFloatConfig,
        encoding: Encoding,
    ) -> Self {
        ReFloatMatrix {
            nrows,
            ncols,
            config,
            encoding: Arc::new(encoding),
            converter: VectorConverter::new(config),
            quantized_input: vec![0.0; ncols],
            quantize_vectors: true,
        }
    }

    /// Encodes a CSR matrix in `2^b × 2^b` blocks of the configuration's `b`, in one
    /// pass into flat arrays.
    pub fn from_csr(a: &CsrMatrix, config: ReFloatConfig) -> Self {
        let mut encoding = Encoding::layout(a, config.b);
        encoding.encode_all(&config);
        Self::from_encoding(a.nrows(), a.ncols(), config, encoding)
    }

    /// The format configuration.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    pub(crate) fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// The encoded blocks in block-row-major order, as views.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BlockView<'_>> + '_ {
        (0..self.num_blocks()).map(|k| self.encoding.view(k))
    }

    /// Encoded block `k` (block-row-major order).
    ///
    /// # Panics
    /// Panics if `k >= self.num_blocks()`.
    pub fn block(&self, k: usize) -> BlockView<'_> {
        self.encoding.view(k)
    }

    /// Number of non-empty blocks (= crossbar clusters required per SpMV).
    pub fn num_blocks(&self) -> usize {
        self.encoding.blocks.len()
    }

    /// Total number of encoded non-zeros.
    pub fn nnz(&self) -> usize {
        self.encoding.decoded.len()
    }

    /// Disables (or re-enables) the per-iteration vector re-encoding.  With vector
    /// quantization off, only the one-time matrix quantization error remains — an
    /// ablation that isolates the two error sources.
    pub fn set_vector_quantization(&mut self, enabled: bool) {
        self.quantize_vectors = enabled;
    }

    /// The vector converter (exposes the last bases/statistics for instrumentation).
    pub fn converter(&self) -> &VectorConverter {
        &self.converter
    }

    /// Reconstructs the quantized matrix `Ã` as a CSR matrix (what the accelerator
    /// effectively multiplies by); useful for analysis and tests.
    pub fn to_quantized_csr(&self) -> CsrMatrix {
        let mut coo = refloat_sparse::CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        let bs = self.config.block_size();
        for blk in self.blocks() {
            let row0 = blk.block_row * bs;
            let col0 = blk.block_col * bs;
            for (ii, jj, v) in blk.iter_decoded() {
                if v != 0.0 {
                    coo.push(row0 + ii as usize, col0 + jj as usize, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Total storage bits of the encoded matrix under the Fig. 4 accounting.
    pub fn storage_bits(&self) -> u64 {
        crate::memory::encoded_storage_bits(self.nnz(), self.num_blocks(), &self.config)
    }

    /// The blocked SpMV of Eq. 8–9 on the already-quantized input held in
    /// `self.quantized_input`.
    fn blocked_spmv(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        let bs = self.config.block_size();
        let enc = &*self.encoding;
        for (k, blk) in enc.blocks.iter().enumerate() {
            let row0 = blk.block_row * bs;
            let col0 = blk.block_col * bs;
            let r = enc.range(k);
            let elements = enc.rows[r.clone()]
                .iter()
                .zip(&enc.cols[r.clone()])
                .zip(&enc.decoded[r]);
            for ((&ii, &jj), &v) in elements {
                y[row0 + ii as usize] += v * x[col0 + jj as usize];
            }
        }
    }
}

impl LinearOperator for ReFloatMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.ncols,
            "ReFloatMatrix apply: x length mismatch"
        );
        assert_eq!(
            y.len(),
            self.nrows,
            "ReFloatMatrix apply: y length mismatch"
        );
        if self.quantize_vectors {
            // Re-encode the input vector with per-segment bases (the vector converter),
            // then multiply by the quantized blocks.
            let mut buf = std::mem::take(&mut self.quantized_input);
            self.converter.convert_into(x, &mut buf);
            self.blocked_spmv(&buf, y);
            self.quantized_input = buf;
        } else {
            self.blocked_spmv(x, y);
        }
    }

    fn name(&self) -> String {
        format!(
            "refloat {} ({} blocks, {} nnz)",
            self.config,
            self.num_blocks(),
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;
    use refloat_solvers::{bicgstab, cg, SolverConfig};
    use refloat_sparse::vecops;

    fn test_config(b: u32) -> ReFloatConfig {
        ReFloatConfig::new(b, 3, 8, 3, 8)
    }

    #[test]
    fn quantized_spmv_is_close_to_exact_for_well_scaled_matrices() {
        let a = generators::laplacian_2d(20, 20, 0.3).to_csr();
        let mut rf = ReFloatMatrix::from_csr(&a, test_config(4));
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((i * 31 % 17) as f64) / 17.0 + 0.1)
            .collect();
        let exact = a.spmv(&x);
        let mut approx = vec![0.0; a.nrows()];
        rf.apply(&x, &mut approx);
        assert!(vecops::rel_err(&approx, &exact) < 0.02, "rel err too large");
    }

    #[test]
    fn matrix_quantization_error_respects_fraction_bits() {
        let a = generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.5, 3).to_csr();
        for f_bits in [3u32, 8, 16] {
            let cfg = ReFloatConfig::new(4, 3, f_bits, 3, 8);
            let rf = ReFloatMatrix::from_csr(&a, cfg);
            let quantized = rf.to_quantized_csr();
            let mut max_rel: f64 = 0.0;
            for (r, c, v) in a.iter() {
                let q = quantized.get(r, c);
                if v != 0.0 {
                    max_rel = max_rel.max(((q - v) / v).abs());
                }
            }
            // Exponent locality of the mass matrix keeps offsets in range, so the error
            // is the fraction truncation bound.
            assert!(
                max_rel <= 2.0f64.powi(-(f_bits as i32)) + 1e-12,
                "f = {f_bits}: max rel err {max_rel}"
            );
        }
    }

    #[test]
    fn cg_converges_with_refloat_operator_and_matches_fp64_solution() {
        let a = generators::laplacian_2d(24, 24, 0.5).to_csr();
        let x_star: Vec<f64> = (0..a.nrows())
            .map(|i| ((i % 13) as f64) / 13.0 + 0.2)
            .collect();
        let b = a.spmv(&x_star);
        let cfg = SolverConfig::relative(1e-8);

        let mut exact_op = a.clone();
        let exact = cg(&mut exact_op, &b, &cfg);

        let mut rf = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8));
        let quant = cg(&mut rf, &b, &cfg);

        assert!(exact.converged());
        assert!(quant.converged(), "refloat CG stop = {:?}", quant.stop);
        // The quantized solve needs a similar (slightly larger) number of iterations.
        assert!(quant.iterations >= exact.iterations);
        assert!(quant.iterations <= 3 * exact.iterations + 10);
        // And its solution solves the quantized system: check against x_star loosely.
        assert!(vecops::rel_err(&quant.x, &x_star) < 0.05);
    }

    #[test]
    fn bicgstab_converges_with_refloat_operator() {
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        let b = vec![1.0; a.nrows()];
        let cfg = SolverConfig::relative(1e-8);
        let mut rf = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8));
        let r = bicgstab(&mut rf, &b, &cfg);
        assert!(r.converged(), "stop = {:?}", r.stop);
    }

    #[test]
    fn paper_default_bits_converge_on_a_mass_matrix_analogue() {
        // e = f = 3 matrix bits and (ev, fv) = (3, 8) vector bits — the Table VII
        // setting — must be enough for convergence on a crystm-like block-local matrix.
        let a = generators::mass_matrix_3d(8, 8, 8, 1e-12, 0.8, 11).to_csr();
        let (b, _x_star) = refloat_matgen::rhs::default_rhs(&a);
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(2000);
        let mut rf = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(5, 3, 3, 3, 8));
        let r = cg(&mut rf, &b, &cfg);
        assert!(
            r.converged(),
            "stop = {:?} after {} iters",
            r.stop,
            r.iterations
        );
    }

    #[test]
    fn disabling_vector_quantization_reduces_error() {
        let a = generators::laplacian_2d(12, 12, 0.3).to_csr();
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.05).cos() + 2.0)
            .collect();
        let exact = a.spmv(&x);

        let cfg = ReFloatConfig::new(4, 3, 20, 3, 4); // coarse vectors, fine matrix
        let mut with_vq = ReFloatMatrix::from_csr(&a, cfg);
        let mut without_vq = ReFloatMatrix::from_csr(&a, cfg);
        without_vq.set_vector_quantization(false);

        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        with_vq.apply(&x, &mut y1);
        without_vq.apply(&x, &mut y2);
        assert!(vecops::rel_err(&y2, &exact) < vecops::rel_err(&y1, &exact));
    }

    #[test]
    fn block_count_matches_blocked_matrix() {
        let a = generators::laplacian_2d(30, 30, 0.1).to_csr();
        let blocked = refloat_sparse::BlockedMatrix::from_csr(&a, 4).unwrap();
        let rf = ReFloatMatrix::from_blocked(&blocked, test_config(4));
        assert_eq!(rf.num_blocks(), blocked.num_blocks());
        assert_eq!(rf.nnz(), blocked.nnz());
        assert!(rf.storage_bits() > 0);
        assert!(LinearOperator::nrows(&rf) == 900 && LinearOperator::ncols(&rf) == 900);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_blocking_is_rejected() {
        let a = generators::laplacian_2d(8, 8, 0.1).to_csr();
        let blocked = refloat_sparse::BlockedMatrix::from_csr(&a, 3).unwrap();
        let _ = ReFloatMatrix::from_blocked(&blocked, test_config(4));
    }
}
