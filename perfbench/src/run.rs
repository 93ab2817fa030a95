//! One benchmark invocation: set-up, measured rounds, the gate, the metrics.

use std::collections::BTreeMap;

use refloat_core::ReFloatMatrix;
use refloat_matgen::SolveStep;
use refloat_runtime::{Clock, WallClock};

use crate::attribution::attribute;
use crate::check::{round_digest, Gate};
use crate::cli::{Options, Workload};
use crate::drive::Resolution;
use crate::inputs::transient_format;
use crate::layers::{replay_layers, runtime_layers, trace_layers, vecops_ns_per_elem, Weighted};
use crate::output::Metrics;
use crate::replay::{checked_reencode, replay_chain, replay_plain, Predecessor, SolveReplay};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::workloads::{run_round, slo_ms, start_runtime, Inputs, Round};

/// Set-up repetitions before the first round.  More follow during the run:
/// [`SETUP_BURST`] before each round, and as many every
/// [`SETUP_EVERY_STEPS`](crate::workloads::SETUP_EVERY_STEPS) chain steps.
pub const SETUP_REPS: usize = 5;
/// Set-up repetitions taken back to back at each point during the run.
pub const SETUP_BURST: usize = 3;

/// What a run hands to the output stage.
pub struct RunResult {
    pub gate: Gate,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Timed set-up repetitions: input generation alone, and generation plus
/// runtime start (the `setup_s` definition: everything before the first
/// submit).  `setup_s` is their median.  The repetitions are spread over the
/// run rather than taken all at its start: a set-up lasts 7-10 ms, and a
/// shared machine runs it up to 40% faster or slower for seconds at a time,
/// so repetitions taken together all land in one such spell.
pub struct SetupSamples {
    workload: Workload,
    seed: u64,
    round_s: f64,
    pub generate_s: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl SetupSamples {
    /// Sets up once, timing it, and returns the generated inputs.  The
    /// runtime started is shut down again: every round starts its own.
    pub fn take(&mut self, clock: &dyn Clock) -> Inputs {
        let start = clock.now_s();
        let inputs = Inputs::generate(self.workload, self.seed, self.round_s);
        let generated = clock.now_s();
        let client = start_runtime(self.workload, None);
        let started = clock.now_s();
        client.shutdown();
        self.generate_s.push(generated - start);
        self.setup_s.push(started - start);
        inputs
    }
}

/// Sets up [`SETUP_REPS`] times and keeps the last repetition's inputs.
/// `round_s` is how long one round should take (it sizes the chain).
pub fn setup(
    workload: Workload,
    seed: u64,
    round_s: f64,
    clock: &dyn Clock,
) -> (Inputs, SetupSamples) {
    let mut samples = SetupSamples {
        workload,
        seed,
        round_s,
        generate_s: Vec::new(),
        setup_s: Vec::new(),
    };
    let mut inputs = samples.take(clock);
    for _ in 1..SETUP_REPS {
        // Drop the previous repetition's inputs first, so peak memory holds one copy.
        drop(inputs);
        inputs = samples.take(clock);
    }
    (inputs, samples)
}

/// Runs rounds until the next one would overrun `budget_s` (at least one).
/// `between` runs before each round and at the quiet points inside one (see
/// [`run_round`]), outside every timed span.  `finish` gets each round, with
/// its index, as soon as it has run (to check it and free what it no longer
/// needs, so that memory does not grow with the number of rounds).
pub fn rounds(
    workload: Workload,
    inputs: &Inputs,
    clock: &dyn Clock,
    budget_s: f64,
    traced: bool,
    between: &mut dyn FnMut(),
    finish: &mut dyn FnMut(usize, &mut Round),
) -> Vec<Round> {
    let start = clock.now_s();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        between();
        let round_start = clock.now_s();
        let mut round = run_round(workload, inputs, clock, traced, between);
        let last = clock.now_s() - round_start;
        finish(rounds.len(), &mut round);
        rounds.push(round);
        if clock.now_s() - start + last > budget_s {
            return rounds;
        }
    }
}

/// Offered and failed jobs over `rounds`.  A job fails when it was shed,
/// cancelled, degraded, failed, or completed without converging.
pub fn attempted_failed(rounds: &[Round]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for record in rounds.iter().flat_map(|r| &r.records) {
        attempted += 1;
        let ok = matches!(&record.resolution,
            Resolution::Completed(o) if o.telemetry.converged && o.result.converged());
        if !ok {
            failed += 1;
        }
    }
    (attempted, failed)
}

/// The end-to-end metrics of untraced `rounds`.
pub fn end_to_end(
    workload: Workload,
    setup: &SetupSamples,
    rounds: &[Round],
    metrics: &mut Metrics,
) {
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.completed().is_some())
        .map(|r| r.latency_s * 1e3)
        .collect();
    let limit_ms = slo_ms(workload);
    let offered = rounds.iter().map(|r| r.records.len()).sum::<usize>();
    let within = rounds
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| {
            r.completed().is_some_and(|o| o.telemetry.converged) && r.latency_s * 1e3 <= limit_ms
        })
        .count();
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    metrics.put("jobs_per_s", per_round(&Round::jobs_per_s), "1/s");
    metrics.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
    metrics.put("latency_p95_ms", quantile(&latencies, 0.95), "ms");
    metrics.put(
        "slo_attainment",
        within as f64 / offered.max(1) as f64,
        "fraction",
    );
    metrics.put(
        "sim_solver_s",
        per_round(&|r| r.report.simulated_total_s),
        "s",
    );
    metrics.put(
        "model_cycles",
        per_round(&|r| r.report.simulated_cycles as f64),
        "count",
    );
    metrics.put("setup_s", median(&setup.setup_s), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Prints the set-up samples.
fn print_setup(setup: &SetupSamples) {
    println!(
        "  set-up: median {:.4}s of {} repetitions (range {:.4}-{:.4}s)",
        median(&setup.setup_s),
        setup.setup_s.len(),
        setup.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup.setup_s.iter().copied().fold(0.0, f64::max),
    );
}

/// Checks one round, prints it, and frees its solutions unless `keep`.
fn check_and_print(
    gate: &mut Gate,
    inputs: &Inputs,
    kind: &str,
    i: usize,
    round: &mut Round,
    keep: bool,
) {
    gate.check_round(&format!("{kind} round {i}"), inputs, round);
    println!(
        "  {kind} round {i}: {:.3}s wall, {:.2} jobs/s, simulated {:.6e}s, {} cycles, \
             per-node jobs {:?}, digest {:016x}",
        round.wall_s,
        round.jobs_per_s(),
        round.report.simulated_total_s,
        round.report.simulated_cycles,
        round.report.per_node_jobs,
        round_digest(&round.records),
    );
    if !keep {
        round.drop_solutions();
    }
}

/// Kernel context: the largest matrix of the workload, so SpMV rates can be
/// read as in-cache rates (every workload matrix fits a 2 MiB L2).
fn print_matrix_sizes(inputs: &Inputs) {
    let matrices = inputs.matrices();
    let max_nnz = matrices.iter().map(|m| m.nnz()).max().unwrap_or(0);
    let max_bytes = matrices
        .iter()
        .map(|m| 16 * m.nnz() + 8 * (m.nrows() + 1))
        .max()
        .unwrap_or(0);
    println!(
        "  matrices: {} distinct, largest {max_nnz} nnz, largest CSR {:.3} MiB \
         (values + column indices + row pointers)",
        matrices.len(),
        max_bytes as f64 / (1024.0 * 1024.0)
    );
}

/// The in-run incremental-vs-scratch check of the transient chain: step 1
/// re-encoded against step 0 must equal step 1 encoded from scratch, bit for
/// bit, and must reuse blocks.
fn transient_spot_check(inputs: &Inputs, clock: &dyn Clock, gate: &mut Gate) {
    if !matches!(inputs, Inputs::Transient { .. }) {
        return;
    }
    let steps: Vec<SolveStep> = inputs.chain().take(2).collect();
    let encode = |step: &SolveStep| ReFloatMatrix::from_csr(&step.matrix, transient_format());
    let first = encode(&steps[0]);
    let prev = Predecessor {
        csr: &steps[0].matrix,
        encoding: &first,
    };
    match checked_reencode(&prev, &steps[1], &encode(&steps[1]), clock) {
        Ok((stats, _)) if stats.blocks_reused > 0 => {}
        Ok(_) => gate.fail("step 1: the incremental re-encode reused no block".into()),
        Err(message) => gate.fail(message),
    }
}

/// The layer replay of a traced run, checked against the runtime's own
/// outcomes in `reference` (bitwise solution, iteration count).  Returns the
/// replayed solve per item.
fn replay(
    inputs: &Inputs,
    reference: &Round,
    clock: &dyn Clock,
    gate: &mut Gate,
) -> BTreeMap<usize, SolveReplay> {
    let mut replays = BTreeMap::new();
    match inputs {
        Inputs::Serve { catalog, .. } => {
            for (item, entry) in catalog.iter().enumerate() {
                replays.insert(item, replay_plain(entry, clock));
            }
        }
        Inputs::Transient { .. } => match replay_chain(inputs.chain(), clock) {
            Ok(chain) => replays.extend(chain.into_iter().enumerate()),
            Err(message) => gate.fail(message),
        },
    }
    for record in &reference.records {
        let (Some(outcome), Some(replayed)) = (record.completed(), replays.get(&record.item))
        else {
            continue;
        };
        let same_bits = outcome.result.x.len() == replayed.x.len()
            && outcome
                .result
                .x
                .iter()
                .zip(&replayed.x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits || outcome.telemetry.iterations != replayed.iterations {
            gate.fail(format!(
                "replay of item {} is not the runtime's solve ({} vs {} iterations, bits {})",
                record.item,
                replayed.iterations,
                outcome.telemetry.iterations,
                if same_bits { "equal" } else { "differ" }
            ));
        }
    }
    replays
}

/// Runs the benchmark as `options` asks.
pub fn run(options: &Options) -> RunResult {
    let clock = WallClock::new();
    let workload = options.workload;
    // A traced run splits its time between an untraced and a traced phase.
    let phase_s = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let (inputs, mut setup) = setup(workload, options.seed, phase_s, &clock);
    println!(
        "perfbench: {} seed {} — {} jobs per round, {} hardware threads",
        workload.name(),
        options.seed,
        inputs.jobs_per_round(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    print_matrix_sizes(&inputs);
    let mut gate = Gate::default();
    let mut metrics = Metrics::default();
    transient_spot_check(&inputs, &clock, &mut gate);
    let mut set_up_again = || {
        for _ in 0..SETUP_BURST {
            drop(setup.take(&clock));
        }
    };

    if !options.trace {
        let mut finish = |i: usize, round: &mut Round| {
            check_and_print(&mut gate, &inputs, "untraced", i, round, false)
        };
        let measured = rounds(
            workload,
            &inputs,
            &clock,
            phase_s,
            false,
            &mut set_up_again,
            &mut finish,
        );
        print_setup(&setup);
        end_to_end(workload, &setup, &measured, &mut metrics);
        let (attempted, failed) = attempted_failed(&measured);
        println!("  latency samples: {attempted} offered jobs");
        return RunResult {
            gate,
            attempted,
            failed,
            metrics,
        };
    }

    // Traced run: untraced rounds, traced rounds, then the layer replay.
    // Untraced round 0 keeps its solutions for the replay check.
    let mut finish = |i: usize, round: &mut Round| {
        check_and_print(&mut gate, &inputs, "untraced", i, round, i == 0)
    };
    let untraced = rounds(
        workload,
        &inputs,
        &clock,
        phase_s,
        false,
        &mut set_up_again,
        &mut finish,
    );
    let mut finish = |i: usize, round: &mut Round| {
        check_and_print(&mut gate, &inputs, "traced", i, round, false)
    };
    let traced = rounds(
        workload,
        &inputs,
        &clock,
        phase_s,
        true,
        &mut set_up_again,
        &mut finish,
    );
    print_setup(&setup);
    let replays = replay(&inputs, &untraced[0], &clock, &mut gate);

    let attribution = attribute(&traced, |item| &replays[&item]);
    print!("{}", attribution.render(workload.name()));

    // Replays weighted by how often the workload solved each item.
    let mut counts: BTreeMap<usize, f64> = BTreeMap::new();
    for record in untraced[0]
        .records
        .iter()
        .filter(|r| r.completed().is_some())
    {
        *counts.entry(record.item).or_default() += 1.0;
    }
    let weighted = Weighted {
        replays: counts
            .iter()
            .filter_map(|(item, &w)| replays.get(item).map(|r| (r, w)))
            .collect(),
    };
    replay_layers(&weighted, &mut metrics);
    let n = inputs
        .matrices()
        .iter()
        .map(|m| m.nrows())
        .max()
        .unwrap_or(1);
    let (dot_ns, axpy_ns) = vecops_ns_per_elem(n, &clock);
    metrics.put("sparse.vecops.dot_ns_per_elem", dot_ns, "ns/elem");
    metrics.put("sparse.vecops.axpy_ns_per_elem", axpy_ns, "ns/elem");
    metrics.put(
        "solvers.true_rel_residual_max",
        gate.true_residual_max,
        "ratio",
    );
    runtime_layers(&untraced, &mut metrics);
    trace_layers(&traced, &attribution, &mut metrics);
    let jobs_per_s =
        |rounds: &[Round]| median(&rounds.iter().map(Round::jobs_per_s).collect::<Vec<_>>());
    metrics.put(
        "telemetry.trace_overhead",
        jobs_per_s(&traced) / jobs_per_s(&untraced),
        "ratio",
    );
    metrics.put("matgen.generate_s", median(&setup.generate_s), "s");
    let lags: Vec<f64> = untraced
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.completed().is_some())
        .map(|r| r.lag_s * 1e3)
        .collect();
    metrics.put("harness.generator_lag_p95_ms", quantile(&lags, 0.95), "ms");
    metrics.put("harness.latency_samples", lags.len() as f64, "count");
    let all: Vec<Round> = untraced.into_iter().chain(traced).collect();
    let (attempted, failed) = attempted_failed(&all);
    metrics.put(
        "harness.failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
    RunResult {
        gate,
        attempted,
        failed,
        metrics,
    }
}
