//! Replay transparency: the per-layer numbers come from solves replayed
//! through the timing wrappers, so those solves must *be* the runtime's
//! solves.  The wrapped operator must return bitwise the same `x` as the
//! unwrapped one, and the replay must report the iteration count the runtime's
//! `JobTelemetry` reported for the same job.

use perfbench::inputs::{
    catalog, serve_plan, serve_solver_config, transient_chain, transient_format, transient_plan,
    transient_refinement,
};
use perfbench::replay::{replay_chain, replay_plain};
use perfbench::timed::TimedQuantized;
use refloat_core::ReFloatMatrix;
use refloat_runtime::{RuntimeConfig, SolveRuntime, WallClock};
use refloat_solvers::{refine_warm, LinearOperator, OperatorLadder};

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_timing_wrapper_returns_the_unwrapped_operators_output_bitwise() {
    let clock = WallClock::new();
    for entry in catalog().iter().take(3) {
        let csr = entry.handle.csr();
        let x: Vec<f64> = (0..csr.ncols())
            .map(|i| ((i * 7) % 13) as f64 - 6.5)
            .collect();
        let mut plain = ReFloatMatrix::from_csr(csr, entry.format);
        let mut wrapped =
            TimedQuantized::new(ReFloatMatrix::from_csr(csr, entry.format), csr, &clock);
        let (mut y0, mut y1) = (vec![0.0; csr.nrows()], vec![f64::NAN; csr.nrows()]);
        for _ in 0..3 {
            plain.apply(&x, &mut y0);
            wrapped.apply(&x, &mut y1);
            assert_eq!(bits(&y0), bits(&y1), "{}", entry.handle.name());
        }
        assert_eq!(wrapped.times.applies, 3);
        assert!(wrapped.times.apply_s > 0.0 && wrapped.times.convert_s > 0.0);
    }
}

#[test]
fn a_replayed_serving_solve_is_the_runtimes_solve() {
    let clock = WallClock::new();
    let catalog = catalog();
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    });
    // A CG entry and the BiCGSTAB entry.
    for item in [2, 7] {
        let entry = &catalog[item];
        let outcome = client
            .submit(serve_plan(0, entry))
            .unwrap()
            .wait()
            .completed()
            .expect("completes");
        let replayed = replay_plain(entry, &clock);
        assert_eq!(
            bits(&replayed.x),
            bits(&outcome.result.x),
            "{}",
            entry.handle.name()
        );
        assert_eq!(replayed.iterations, outcome.telemetry.iterations);
        // And the unwrapped solve agrees too.
        let mut op = ReFloatMatrix::from_csr(entry.handle.csr(), entry.format);
        let b = vec![1.0; entry.handle.csr().nrows()];
        let unwrapped = entry.solver.solve(&mut op, &b, &serve_solver_config());
        assert_eq!(bits(&unwrapped.x), bits(&replayed.x));
        assert_eq!(replayed.quantized.applies as usize, unwrapped.spmv_count);
    }
    client.shutdown();
}

#[test]
fn a_replayed_transient_chain_is_the_sequences_chain() {
    let clock = WallClock::new();
    let steps: Vec<_> = transient_chain(12, 5).collect();
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        cache_capacity: 8,
        ..RuntimeConfig::default()
    });
    let mut sequence = client.sequence();
    let outcomes: Vec<_> = steps
        .iter()
        .map(|s| {
            sequence
                .step(transient_plan(s))
                .unwrap()
                .completed()
                .expect("completes")
        })
        .collect();
    drop(sequence);
    client.shutdown();
    let replayed = replay_chain(steps.clone(), &clock).expect("incremental encodes match scratch");
    for (outcome, replay) in outcomes.iter().zip(&replayed) {
        assert_eq!(bits(&replay.x), bits(&outcome.result.x));
        assert_eq!(replay.iterations, outcome.telemetry.iterations);
        assert_eq!(
            replay.outer_passes,
            outcome
                .telemetry
                .refinement
                .as_ref()
                .unwrap()
                .outer_iterations
        );
    }
    // Step 0 unwrapped: the same ladder built from plain operators.
    let spec = transient_refinement();
    let csr = &steps[0].matrix;
    let mut ladder = OperatorLadder::new(refloat_solvers::SolverKind::Cg);
    for format in spec.escalation.ladder(transient_format()) {
        ladder.push(Box::new(ReFloatMatrix::from_csr(csr, format)));
    }
    ladder.push(Box::new(csr.clone()));
    let mut exact = csr.clone();
    let unwrapped = refine_warm(
        &mut exact,
        &steps[0].rhs,
        None,
        &mut ladder,
        &spec.refinement_config(),
    );
    assert_eq!(bits(&unwrapped.x), bits(&replayed[0].x));
}
