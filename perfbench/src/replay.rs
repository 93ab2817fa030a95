//! The layer replay: every distinct solve of a workload re-run serially through
//! the public layer functions — `ReFloatMatrix::from_csr`,
//! `reencode_incremental`, `SolverKind::solve` / `refine_warm` — with the
//! operators wrapped in [`TimedQuantized`] / [`TimedExact`].  Because the
//! wrappers do not change what the solver sees, each replayed solve is the
//! runtime's solve, bit for bit; the gate checks that against the runtime's
//! outcomes before any per-layer number is used.

use refloat_core::{
    assert_bitwise_identical, reencode_incremental, IncrementalStats, ReFloatConfig, ReFloatMatrix,
};
use refloat_matgen::SolveStep;
use refloat_solvers::{refine_warm, PrecisionLadder, SolveResult, SolverConfig, SolverKind};
use refloat_sparse::CsrMatrix;
use refloat_telemetry::Clock;

use crate::inputs::{serve_solver_config, transient_format, transient_refinement, CatalogEntry};
use crate::stats::timed;
use crate::timed::{ApplyTimes, TimedExact, TimedQuantized};

/// One replayed solve.
#[derive(Debug, Clone)]
pub struct SolveReplay {
    pub x: Vec<f64>,
    /// Solver iterations (total inner iterations for a refined solve) — the
    /// figure `JobTelemetry::iterations` reports.
    pub iterations: usize,
    /// Wall seconds of the whole solve (`solve` or `refine_warm`).
    pub solve_s: f64,
    /// Quantized applies, over every rung used.
    pub quantized: ApplyTimes,
    /// Exact fp64 applies (refinement residuals and the warm-start guard).
    pub exact_s: f64,
    /// Wrapper-internal time to subtract from `solve_s` for solver self time.
    pub wrapper_s: f64,
    /// Seconds spent encoding extra rungs inside the solve (escalation).
    pub rung_fetch_s: f64,
    pub outer_passes: usize,
    /// `from_csr` of the base format.
    pub encode_s: f64,
    /// `reencode_incremental` against the predecessor step, when there is one.
    pub incremental_s: Option<f64>,
    pub blocks_reencoded: u64,
    pub nrows: usize,
    pub nnz: usize,
}

impl SolveReplay {
    /// Solve time outside every operator apply: the solver's own vector work
    /// and control (the `solvers` layer's self time).
    pub fn self_s(&self) -> f64 {
        (self.solve_s - self.wrapper_s - self.rung_fetch_s).max(0.0)
    }
}

/// Replays a plain serving solve of catalog entry `entry` (right-hand side all
/// ones, as the runtime defaults).
pub fn replay_plain(entry: &CatalogEntry, clock: &dyn Clock) -> SolveReplay {
    let csr = entry.handle.csr();
    let (op, encode_s) = timed(clock, || ReFloatMatrix::from_csr(csr, entry.format));
    let mut op = TimedQuantized::new(op, csr, clock);
    let b = vec![1.0; csr.nrows()];
    let config = serve_solver_config();
    let (result, solve_s) = timed(clock, || entry.solver.solve(&mut op, &b, &config));
    SolveReplay {
        iterations: result.iterations,
        x: result.x,
        solve_s,
        wrapper_s: op.times.wrapper_s,
        quantized: op.times,
        exact_s: 0.0,
        rung_fetch_s: 0.0,
        outer_passes: 0,
        encode_s,
        incremental_s: None,
        blocks_reencoded: 0,
        nrows: csr.nrows(),
        nnz: csr.nnz(),
    }
}

/// The refinement ladder of the replay: the runtime's rungs (the escalation
/// ladder over the base format, then fp64), each wrapped for timing.
struct ReplayLadder<'a> {
    csr: &'a CsrMatrix,
    clock: &'a dyn Clock,
    solver: SolverKind,
    formats: Vec<ReFloatConfig>,
    fp64_fallback: bool,
    rungs: Vec<Option<TimedQuantized<'a>>>,
    exact: Option<TimedExact<'a>>,
    fetch_s: f64,
}

impl PrecisionLadder for ReplayLadder<'_> {
    fn levels(&self) -> usize {
        self.formats.len() + usize::from(self.fp64_fallback)
    }

    fn level_name(&self, level: usize) -> String {
        match self.formats.get(level) {
            Some(format) => format.to_string(),
            None => "fp64 (exact)".to_string(),
        }
    }

    fn solve(&mut self, level: usize, rhs: &[f64], config: &SolverConfig) -> SolveResult {
        if level < self.formats.len() {
            if self.rungs[level].is_none() {
                let (csr, format) = (self.csr, self.formats[level]);
                let (op, fetch_s) = timed(self.clock, || ReFloatMatrix::from_csr(csr, format));
                self.fetch_s += fetch_s;
                self.rungs[level] = Some(TimedQuantized::new(op, csr, self.clock));
            }
            let op = self.rungs[level].as_mut().expect("rung built above");
            self.solver.solve(op, rhs, config)
        } else {
            let (csr, clock) = (self.csr, self.clock);
            let exact = self
                .exact
                .get_or_insert_with(|| TimedExact::new(csr, clock));
            self.solver.solve(exact, rhs, config)
        }
    }
}

/// The predecessor a transient step re-encodes against.
pub struct Predecessor<'a> {
    pub csr: &'a CsrMatrix,
    pub encoding: &'a ReFloatMatrix,
}

/// Re-encodes `step` incrementally against `prev` and checks the result is
/// bit for bit `scratch`, the step's from-scratch encode.  Returns what the
/// delta touched and the seconds the re-encode took; `Err` names the step.
pub fn checked_reencode(
    prev: &Predecessor<'_>,
    step: &SolveStep,
    scratch: &ReFloatMatrix,
    clock: &dyn Clock,
) -> Result<(IncrementalStats, f64), String> {
    let (inc, seconds) = timed(clock, || {
        reencode_incremental(prev.encoding, prev.csr, &step.matrix)
    });
    let identical = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert_bitwise_identical(&inc.matrix, scratch)
    }));
    match identical {
        Ok(()) => Ok((inc.stats, seconds)),
        Err(_) => Err(format!(
            "step {}: incremental re-encode differs from the scratch encode",
            step.index
        )),
    }
}

/// Replays transient step `step`: incremental re-encode against `prev` (checked
/// bitwise against the from-scratch encode), then the warm-started refinement
/// from `guess`.  Returns the replay and the step's base encoding (the next
/// step's predecessor).  `Err` carries a bitwise-identity failure.
pub fn replay_step(
    step: &SolveStep,
    prev: Option<&Predecessor<'_>>,
    guess: Option<&[f64]>,
    clock: &dyn Clock,
) -> Result<(SolveReplay, ReFloatMatrix), String> {
    let csr = &step.matrix;
    let base = transient_format();
    let (scratch, encode_s) = timed(clock, || ReFloatMatrix::from_csr(csr, base));
    let mut incremental_s = None;
    let mut blocks_reencoded = 0;
    if let Some(prev) = prev {
        let (stats, seconds) = checked_reencode(prev, step, &scratch, clock)?;
        incremental_s = Some(seconds);
        blocks_reencoded = stats.blocks_reencoded() as u64;
    }

    let spec = transient_refinement();
    let formats = spec.escalation.ladder(base);
    let mut rungs: Vec<Option<TimedQuantized<'_>>> = formats.iter().map(|_| None).collect();
    rungs[0] = Some(TimedQuantized::new(scratch.clone(), csr, clock));
    let mut ladder = ReplayLadder {
        csr,
        clock,
        solver: SolverKind::Cg,
        fp64_fallback: spec.escalation.fp64_fallback,
        formats,
        rungs,
        exact: None,
        fetch_s: 0.0,
    };
    let mut exact = TimedExact::new(csr, clock);
    let config = spec.refinement_config();
    let (refined, solve_s) = timed(clock, || {
        refine_warm(&mut exact, &step.rhs, guess, &mut ladder, &config)
    });
    let mut quantized = ApplyTimes::default();
    for rung in ladder.rungs.iter().flatten() {
        quantized.absorb(&rung.times);
    }
    let mut exact_s = exact.apply_s;
    let mut wrapper_s = quantized.wrapper_s + exact.wrapper_s;
    if let Some(rung) = &ladder.exact {
        exact_s += rung.apply_s;
        wrapper_s += rung.wrapper_s;
    }
    let replay = SolveReplay {
        iterations: refined.inner_iterations,
        outer_passes: refined.outer_iterations,
        x: refined.x,
        solve_s,
        quantized,
        exact_s,
        wrapper_s,
        rung_fetch_s: ladder.fetch_s,
        encode_s,
        incremental_s,
        blocks_reencoded,
        nrows: csr.nrows(),
        nnz: csr.nnz(),
    };
    Ok((replay, scratch))
}

/// Replays a whole chain, each step warm-started from the previous replayed
/// solution (the guess the runtime's `SolveSequence` passes).
pub fn replay_chain(
    steps: impl IntoIterator<Item = SolveStep>,
    clock: &dyn Clock,
) -> Result<Vec<SolveReplay>, String> {
    let mut out: Vec<SolveReplay> = Vec::new();
    let mut prev: Option<(SolveStep, ReFloatMatrix)> = None;
    for step in steps {
        let guess = out.last().map(|r| r.x.as_slice());
        let pred = prev.as_ref().map(|(s, encoding)| Predecessor {
            csr: &s.matrix,
            encoding,
        });
        let (replay, encoding) = replay_step(&step, pred.as_ref(), guess, clock)?;
        prev = Some((step, encoding));
        out.push(replay);
    }
    Ok(out)
}
