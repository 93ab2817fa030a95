//! Bench-side timing wrappers around the solvers' operator trait.
//!
//! [`TimedQuantized`] wraps an encoded [`ReFloatMatrix`]: it times the real
//! `apply` and, on the *same input*, shadow-times a separate
//! `VectorConverter::convert_into` (the converter stage of that apply) and an
//! fp64 `CsrMatrix::spmv_into` (the in-run baseline).  The shadows write only
//! to the wrapper's scratch buffer, so the solver sees exactly the wrapped
//! operator's output: a solve through the wrapper is bitwise the solve the
//! runtime ran (the replay-transparency test checks this).
//!
//! [`TimedExact`] wraps the exact fp64 operator the refinement loop measures
//! residuals with.

use refloat_core::vector::VectorConverter;
use refloat_core::ReFloatMatrix;
use refloat_solvers::LinearOperator;
use refloat_sparse::CsrMatrix;
use refloat_telemetry::Clock;

/// What a [`TimedQuantized`] saw.
#[derive(Debug, Default, Clone)]
pub struct ApplyTimes {
    pub applies: u64,
    /// Input elements converted, summed over applies.
    pub elems: u64,
    /// Encoded non-zeros multiplied, summed over applies.
    pub nnz: u64,
    /// The wrapped operator's `apply` (converter + blocked SpMV).
    pub apply_s: f64,
    /// Shadow `convert_into` on the same inputs.
    pub convert_s: f64,
    /// Shadow fp64 `spmv_into` on the same inputs.
    pub csr_s: f64,
    /// Everything inside the wrapper (apply, shadows, clock reads).
    pub wrapper_s: f64,
    pub saturated: u64,
    pub flushed: u64,
}

impl ApplyTimes {
    pub fn absorb(&mut self, other: &ApplyTimes) {
        self.applies += other.applies;
        self.elems += other.elems;
        self.nnz += other.nnz;
        self.apply_s += other.apply_s;
        self.convert_s += other.convert_s;
        self.csr_s += other.csr_s;
        self.wrapper_s += other.wrapper_s;
        self.saturated += other.saturated;
        self.flushed += other.flushed;
    }
}

/// An encoded operator timed per apply, with converter and fp64 shadows.
pub struct TimedQuantized<'a> {
    op: ReFloatMatrix,
    csr: &'a CsrMatrix,
    converter: VectorConverter,
    scratch: Vec<f64>,
    nnz: u64,
    clock: &'a dyn Clock,
    pub times: ApplyTimes,
}

impl<'a> TimedQuantized<'a> {
    /// Wraps `op`, the encoding of `csr`.
    pub fn new(op: ReFloatMatrix, csr: &'a CsrMatrix, clock: &'a dyn Clock) -> Self {
        TimedQuantized {
            converter: VectorConverter::new(*op.config()),
            scratch: vec![0.0; op.ncols().max(op.nrows())],
            nnz: op.nnz() as u64,
            op,
            csr,
            clock,
            times: ApplyTimes::default(),
        }
    }
}

impl LinearOperator for TimedQuantized<'_> {
    fn nrows(&self) -> usize {
        self.op.nrows()
    }

    fn ncols(&self) -> usize {
        self.op.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let t0 = self.clock.now_s();
        self.op.apply(x, y);
        let t1 = self.clock.now_s();
        let n = x.len();
        self.converter.convert_into(x, &mut self.scratch[..n]);
        let t2 = self.clock.now_s();
        self.csr.spmv_into(x, &mut self.scratch[..self.csr.nrows()]);
        let t3 = self.clock.now_s();
        let stats = self.converter.last_stats();
        let t = &mut self.times;
        t.applies += 1;
        t.elems += n as u64;
        t.nnz += self.nnz;
        t.apply_s += t1 - t0;
        t.convert_s += t2 - t1;
        t.csr_s += t3 - t2;
        t.saturated += stats.saturated as u64;
        t.flushed += stats.flushed as u64;
        t.wrapper_s += self.clock.now_s() - t0;
    }

    fn name(&self) -> String {
        format!("timed {}", self.op.name())
    }
}

/// The exact fp64 operator, timed per apply.
pub struct TimedExact<'a> {
    csr: &'a CsrMatrix,
    clock: &'a dyn Clock,
    pub apply_s: f64,
    pub wrapper_s: f64,
}

impl<'a> TimedExact<'a> {
    pub fn new(csr: &'a CsrMatrix, clock: &'a dyn Clock) -> Self {
        TimedExact {
            csr,
            clock,
            apply_s: 0.0,
            wrapper_s: 0.0,
        }
    }
}

impl LinearOperator for TimedExact<'_> {
    fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let t0 = self.clock.now_s();
        self.csr.spmv_into(x, y);
        self.apply_s += self.clock.now_s() - t0;
        self.wrapper_s += self.clock.now_s() - t0;
    }

    fn name(&self) -> String {
        "timed fp64 (exact)".to_string()
    }
}

/// Computed (not measured) work of one fp64 CSR SpMV: 2 flops per non-zero;
/// bytes = values and column indices (8 + 8 per non-zero), row pointers, one
/// read of `x` and one write of `y`.  Every array is counted once, so gathers
/// that miss cache are not included.
pub fn csr_computed(nrows: usize, nnz: usize) -> (f64, f64) {
    let flops = 2.0 * nnz as f64;
    let bytes = 16.0 * nnz as f64 + 8.0 * (nrows as f64 + 1.0) + 16.0 * nrows as f64;
    (flops, bytes)
}

/// Computed work of one quantized apply: 2 flops per encoded non-zero (the
/// converter's per-element work is not counted); bytes = the blocked arrays
/// read per non-zero (row and column `u16`, decoded `f64`: 12 bytes), the
/// converter reading `x` and writing its buffer, the SpMV reading that buffer,
/// and `y` zeroed then accumulated.
pub fn quantized_computed(nrows: usize, ncols: usize, nnz: usize) -> (f64, f64) {
    let flops = 2.0 * nnz as f64;
    let bytes = 12.0 * nnz as f64 + 24.0 * ncols as f64 + 16.0 * nrows as f64;
    (flops, bytes)
}
