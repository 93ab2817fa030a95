//! The two workloads: how each generates its inputs from the seed (the
//! set-up) and how one *round* — one pass of the generated traffic through a
//! freshly started runtime — runs.  Every round of a run offers identical work,
//! so per-round figures can be compared and their median taken.

use std::sync::Arc;

use refloat_matgen::SolveStep;
use refloat_runtime::cluster::{AdmissionConfig, ClusterConfig, ClusterRuntime};
use refloat_runtime::{
    Clock, MetricsSnapshot, RuntimeConfig, RuntimeReport, SolveClient, SolveRuntime, TraceEvent,
    TraceSink,
};
use refloat_sparse::CsrMatrix;

use crate::cli::Workload;
use crate::drive::{chain, closed_loop, JobRecord};
use crate::inputs::{
    catalog, serve_plan, smooth_mix, transient_chain, transient_plan, CatalogEntry,
};

/// `serve_hot`: jobs per round.  Half the `serve_traffic` trace, so a run
/// holds about ten rounds and their median rides out the few-second swings a
/// shared machine puts on any single round (±12% round to round).
pub const SERVE_JOBS: usize = 120;
/// `serve_hot`: jobs the closed-loop client keeps outstanding.
pub const SERVE_IN_FLIGHT: usize = 4;
/// `serve_hot`: worker threads (never more than this machine class's 2 cores).
pub const SERVE_WORKERS: usize = 2;
/// `serve_hot`: tenants the jobs are spread over, round robin.
pub const SERVE_TENANTS: usize = 16;
/// `serve_hot`: admission bounds of its one-node cluster (above what the
/// closed loop keeps in flight, so nothing is shed; every submit still passes
/// the router and admission).
pub const ADMISSION: AdmissionConfig = AdmissionConfig {
    max_in_system: Some(64),
    per_tenant_quota: Some(32),
};

/// `transient_seq`: FEM grid (n = 3906 unknowns, 34k non-zeros).
pub const TRANSIENT_NX: usize = 64;
/// `transient_seq`: chain steps per second of `--seconds`.  A step takes
/// about 20 ms to solve and 5 ms to generate, and the chain's stagnating steps
/// about 1.5 s each, so a 25-second run solves a 550-step chain, and each
/// phase of a traced run (half the time) a 275-step chain.
pub const TRANSIENT_STEPS_PER_S: f64 = 22.0;
/// `transient_seq`: the seed adds `seed % TRANSIENT_EXTRA_STEPS` steps to the
/// chain.  The chain itself is fixed ([`CHAIN_SEED`](crate::inputs::CHAIN_SEED)),
/// so this is all the seed changes: under 2% of the work, which keeps the
/// simulated figures from reading the same on every seed.
pub const TRANSIENT_EXTRA_STEPS: u64 = 8;
/// `transient_seq`: chain steps between the set-up repetitions a run takes
/// while the chain is solved (see `run::SetupSamples`).
pub const SETUP_EVERY_STEPS: usize = 25;

/// The job latency within which a job counts toward `slo_attainment`, per
/// workload, milliseconds (also stated in `BENCHMARK.json`'s workload notes).
pub fn slo_ms(workload: Workload) -> f64 {
    match workload {
        Workload::ServeHot => 500.0,
        Workload::TransientSeq => 100.0,
    }
}

/// A workload's generated inputs.
pub enum Inputs {
    Serve {
        catalog: Vec<CatalogEntry>,
        mix: Vec<usize>,
    },
    /// The chain is generated step by step while it is solved (it would not
    /// fit in memory whole); set-up builds the base operator and step 0.
    Transient { steps: usize, first: SolveStep },
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`, sized for rounds of
    /// about `round_s` seconds (the chain scales with it; a serving round is
    /// a fixed number of jobs).
    pub fn generate(workload: Workload, seed: u64, round_s: f64) -> Inputs {
        match workload {
            Workload::ServeHot => {
                let catalog = catalog();
                let weights: Vec<f64> = catalog.iter().map(|e| e.weight).collect();
                let mix = smooth_mix(&weights, SERVE_JOBS, seed);
                Inputs::Serve { catalog, mix }
            }
            Workload::TransientSeq => {
                let steps = (TRANSIENT_STEPS_PER_S * round_s).round() as usize
                    + (seed % TRANSIENT_EXTRA_STEPS) as usize;
                let steps = steps.max(2);
                let first = transient_chain(TRANSIENT_NX, steps)
                    .next()
                    .expect("a chain has a first step");
                Inputs::Transient { steps, first }
            }
        }
    }

    /// The chain's steps, generated afresh (transient inputs only).
    pub fn chain(&self) -> impl Iterator<Item = SolveStep> {
        let steps = match self {
            Inputs::Transient { steps, .. } => *steps,
            _ => 0,
        };
        transient_chain(TRANSIENT_NX, steps).take(steps)
    }

    /// The catalog of a serving workload (empty for the chain).
    pub fn catalog(&self) -> &[CatalogEntry] {
        match self {
            Inputs::Serve { catalog, .. } => catalog,
            Inputs::Transient { .. } => &[],
        }
    }

    /// The workload's matrices: the catalog, or the chain's first step (every
    /// step has its structure).
    pub fn matrices(&self) -> Vec<&CsrMatrix> {
        match self {
            Inputs::Transient { first, .. } => vec![&first.matrix],
            _ => self.catalog().iter().map(|e| e.handle.csr()).collect(),
        }
    }

    /// Jobs offered per round.
    pub fn jobs_per_round(&self) -> usize {
        match self {
            Inputs::Serve { mix, .. } => mix.len(),
            Inputs::Transient { steps, .. } => *steps,
        }
    }
}

/// Starts the runtime a round of `workload` runs on.  `serve_hot` runs on a
/// one-node `ClusterRuntime`, which is the 2-worker node behind the cluster's
/// router and admission control.
pub fn start_runtime(workload: Workload, trace: Option<Arc<TraceSink>>) -> SolveClient {
    match workload {
        Workload::ServeHot => ClusterRuntime::start(ClusterConfig {
            nodes: 1,
            node: RuntimeConfig {
                workers: SERVE_WORKERS,
                queue_capacity: 2 * SERVE_WORKERS,
                cache_capacity: 32,
                trace,
                ..RuntimeConfig::default()
            },
            chips_per_node: Vec::new(),
            admission: ADMISSION,
            router: Default::default(),
        }),
        Workload::TransientSeq => SolveRuntime::start(RuntimeConfig {
            workers: 1,
            cache_capacity: 8,
            trace,
            ..RuntimeConfig::default()
        }),
    }
}

/// One round's measurements.
pub struct Round {
    /// Every offered job, in resolution order.
    pub records: Vec<JobRecord>,
    /// Serving time of the round, seconds: first submit (or trace start) to
    /// last outcome; for the chain, the sum of its step latencies (the time
    /// spent generating the next step between solves is not serving time).
    pub wall_s: f64,
    /// The runtime's own report for the round.
    pub report: RuntimeReport,
    /// The client's live metrics at the end of the round (a cluster's router
    /// counters live here, not in the report).
    pub metrics: MetricsSnapshot,
    /// The trace of a traced round.
    pub trace: Vec<TraceEvent>,
}

impl Round {
    /// Completed jobs per second of serving time.
    pub fn jobs_per_s(&self) -> f64 {
        let completed = self.records.iter().filter(|r| r.completed().is_some());
        completed.count() as f64 / self.wall_s
    }

    /// Drops the solution vectors (kept only where a later check needs them),
    /// so a run's memory does not grow with its round count.
    pub fn drop_solutions(&mut self) {
        for record in &mut self.records {
            record.drop_solution();
        }
    }
}

/// Runs one round of `workload` over `inputs` on a fresh runtime.  A chain
/// round calls `between` every [`SETUP_EVERY_STEPS`] steps, between one
/// step's outcome and the next step's submit.
pub fn run_round(
    workload: Workload,
    inputs: &Inputs,
    clock: &dyn Clock,
    traced: bool,
    between: &mut dyn FnMut(),
) -> Round {
    let sink = traced.then(|| Arc::new(TraceSink::wall()));
    let client = start_runtime(workload, sink.clone());
    let start = clock.now_s();
    let records = match inputs {
        Inputs::Serve { catalog, mix } => {
            let jobs = mix
                .iter()
                .enumerate()
                .map(|(i, &item)| (item, serve_plan(i % SERVE_TENANTS, &catalog[item])));
            closed_loop(&client, clock, jobs, SERVE_IN_FLIGHT)
        }
        Inputs::Transient { .. } => {
            let steps = inputs.chain().inspect(|step| {
                if step.index > 0 && step.index % SETUP_EVERY_STEPS == 0 {
                    between();
                }
            });
            chain(&client, clock, steps, transient_plan)
        }
    };
    let wall_s = match inputs {
        Inputs::Transient { .. } => records.iter().map(|r| r.latency_s).sum(),
        _ => clock.now_s() - start,
    };
    let metrics = client.metrics_snapshot();
    let report = client.shutdown();
    Round {
        records,
        wall_s,
        report,
        metrics,
        trace: sink.map(|s| s.snapshot()).unwrap_or_default(),
    }
}
