//! Per-layer metrics of a traced run, named `<module>.<metric>` after the
//! workspace modules they measure.  Sources:
//!
//! * the layer replay (`core.vector`, `core.matrix`, `sparse.csr`, `solvers`,
//!   `solvers.refinement`, `core.encode`, `core.incremental`), weighted by how
//!   often the workload solved each distinct system;
//! * a vecops loop over vectors of the workload's size (`sparse.vecops`);
//! * the runtime's own telemetry — `JobTelemetry`, `RuntimeReport` and the
//!   client's `metrics_snapshot` — from the untraced rounds (`runtime.*`);
//! * the trace spans of the traced rounds (`runtime.cache.lookup_ms`, the
//!   `attribution.*` rows);
//! * the client loop itself (`harness.*`, `matgen.generate_s`,
//!   `telemetry.trace_overhead`).

use refloat_runtime::metric_names;
use refloat_runtime::{Clock, SpanKind};
use refloat_sparse::vecops;

use crate::attribution::{Attribution, ROWS};
use crate::output::Metrics;
use crate::replay::SolveReplay;
use crate::stats::{median, quantile};
use crate::timed::{csr_computed, quantized_computed};
use crate::workloads::Round;

/// Nanoseconds per element of `dot` and `axpy` on vectors of length `n`,
/// each the median of several timed batches.
pub fn vecops_ns_per_elem(n: usize, clock: &dyn Clock) -> (f64, f64) {
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut y: Vec<f64> = (0..n).map(|i| 0.5 - (i % 5) as f64 * 0.125).collect();
    let x = std::hint::black_box(x);
    let reps = (200_000 / n.max(1)).max(1);
    let mut dot_ns = Vec::new();
    let mut axpy_ns = Vec::new();
    let mut sink = 0.0;
    for _ in 0..9 {
        let t0 = clock.now_s();
        for _ in 0..reps {
            sink += vecops::dot(&x, &y);
        }
        let t1 = clock.now_s();
        for _ in 0..reps {
            vecops::axpy(1e-9, &x, &mut y);
        }
        let t2 = clock.now_s();
        let elems = (reps * n) as f64;
        dot_ns.push((t1 - t0) * 1e9 / elems);
        axpy_ns.push((t2 - t1) * 1e9 / elems);
    }
    std::hint::black_box((sink, &y));
    (median(&dot_ns), median(&axpy_ns))
}

/// Replayed solves with the weight (job count) each carries in the workload.
pub struct Weighted<'a> {
    pub replays: Vec<(&'a SolveReplay, f64)>,
}

impl Weighted<'_> {
    fn sum(&self, f: impl Fn(&SolveReplay) -> f64) -> f64 {
        self.replays.iter().map(|(r, w)| w * f(r)).sum()
    }

    fn jobs(&self) -> f64 {
        self.sum(|_| 1.0)
    }

    fn ratio(&self, num: impl Fn(&SolveReplay) -> f64, den: impl Fn(&SolveReplay) -> f64) -> f64 {
        let d = self.sum(den);
        if d > 0.0 {
            self.sum(num) / d
        } else {
            0.0
        }
    }
}

/// Replay-derived layer metrics.
pub fn replay_layers(w: &Weighted<'_>, metrics: &mut Metrics) {
    let applies = |r: &SolveReplay| r.quantized.applies as f64;
    metrics.put(
        "core.vector.convert_ns_per_elem",
        1e9 * w.ratio(|r| r.quantized.convert_s, |r| r.quantized.elems as f64),
        "ns/elem",
    );
    metrics.put(
        "core.vector.share_of_apply",
        w.ratio(|r| r.quantized.convert_s, |r| r.quantized.apply_s),
        "fraction",
    );
    metrics.put(
        "core.vector.saturated_per_apply",
        w.ratio(|r| r.quantized.saturated as f64, applies),
        "count",
    );
    metrics.put(
        "core.vector.flushed_per_apply",
        w.ratio(|r| r.quantized.flushed as f64, applies),
        "count",
    );
    metrics.put(
        "core.matrix.apply_nnz_per_s",
        w.ratio(|r| r.quantized.nnz as f64, |r| r.quantized.apply_s),
        "1/s",
    );
    metrics.put(
        "core.matrix.apply_over_csr",
        w.ratio(|r| r.quantized.apply_s, |r| r.quantized.csr_s),
        "ratio",
    );
    let q = |r: &SolveReplay| quantized_computed(r.nrows, r.nrows, r.nnz);
    let c = |r: &SolveReplay| csr_computed(r.nrows, r.nnz);
    metrics.put(
        "core.matrix.computed_flops_per_apply",
        w.ratio(|r| applies(r) * q(r).0, applies),
        "flop",
    );
    metrics.put(
        "core.matrix.computed_bytes_per_apply",
        w.ratio(|r| applies(r) * q(r).1, applies),
        "B",
    );
    metrics.put(
        "sparse.csr.spmv_nnz_per_s",
        w.ratio(|r| r.quantized.nnz as f64, |r| r.quantized.csr_s),
        "1/s",
    );
    metrics.put(
        "sparse.csr.computed_flops_per_spmv",
        w.ratio(|r| applies(r) * c(r).0, applies),
        "flop",
    );
    metrics.put(
        "sparse.csr.computed_bytes_per_spmv",
        w.ratio(|r| applies(r) * c(r).1, applies),
        "B",
    );
    let jobs = w.jobs().max(1.0);
    metrics.put(
        "solvers.iterations",
        w.sum(|r| r.iterations as f64) / jobs,
        "count",
    );
    metrics.put("solvers.applies", w.sum(applies) / jobs, "count");
    metrics.put("solvers.self_s", w.sum(SolveReplay::self_s) / jobs, "s");
    metrics.put(
        "solvers.refinement.outer_passes",
        w.sum(|r| r.outer_passes as f64) / jobs,
        "count",
    );
    metrics.put(
        "solvers.refinement.host_fp64_wall_s",
        w.sum(|r| r.exact_s) / jobs,
        "s",
    );
    // Encoding is per distinct matrix, not per job.
    let distinct = w.replays.len().max(1) as f64;
    let encode_total: f64 = w.replays.iter().map(|(r, _)| r.encode_s).sum();
    let nnz_total: f64 = w.replays.iter().map(|(r, _)| r.nnz as f64).sum();
    metrics.put(
        "core.encode.ms_per_matrix",
        1e3 * encode_total / distinct,
        "ms",
    );
    metrics.put(
        "core.encode.nnz_per_s",
        if encode_total > 0.0 {
            nnz_total / encode_total
        } else {
            0.0
        },
        "1/s",
    );
    let steps: Vec<(f64, u64)> = w
        .replays
        .iter()
        .filter_map(|(r, _)| r.incremental_s.map(|s| (s, r.blocks_reencoded)))
        .collect();
    let per_step = |f: &dyn Fn(&(f64, u64)) -> f64| {
        if steps.is_empty() {
            0.0
        } else {
            steps.iter().map(f).sum::<f64>() / steps.len() as f64
        }
    };
    metrics.put(
        "core.incremental.ms_per_step",
        1e3 * per_step(&|s| s.0),
        "ms",
    );
    metrics.put(
        "core.incremental.blocks_reencoded",
        per_step(&|s| s.1 as f64),
        "count",
    );
}

/// Runtime-telemetry layer metrics over untraced rounds.
pub fn runtime_layers(rounds: &[Round], metrics: &mut Metrics) {
    let outcomes: Vec<_> = rounds
        .iter()
        .flat_map(|r| &r.records)
        .filter_map(|r| r.completed())
        .collect();
    let jobs = outcomes.len().max(1) as f64;
    let per_job = |f: &dyn Fn(&refloat_runtime::JobTelemetry) -> f64| {
        outcomes.iter().map(|o| f(&o.telemetry)).sum::<f64>() / jobs
    };
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());

    // Every step after the first offers a warm start.
    metrics.put(
        "runtime.sequence.warm_start_hit_rate",
        per_round(&|r| match r.report.seq_steps {
            0 | 1 => 0.0,
            steps => r.report.warm_start_hits as f64 / (steps - 1) as f64,
        }),
        "fraction",
    );
    metrics.put(
        "runtime.sequence.blocks_reused_fraction",
        per_round(&|r| {
            let diffed = r.report.blocks_reused + r.report.blocks_reencoded;
            if diffed == 0 {
                0.0
            } else {
                r.report.blocks_reused as f64 / diffed as f64
            }
        }),
        "fraction",
    );
    metrics.put(
        "runtime.cache.hit_rate",
        per_round(&|r| r.report.cache.hit_rate()),
        "fraction",
    );
    metrics.put(
        "runtime.cache.misses",
        per_round(&|r| r.report.cache.misses as f64),
        "count",
    );
    metrics.put(
        "runtime.cache.evictions",
        per_round(&|r| r.report.cache.evictions as f64),
        "count",
    );
    let waits: Vec<f64> = outcomes
        .iter()
        .map(|o| o.telemetry.queue_wait_s * 1e3)
        .collect();
    metrics.put(
        "runtime.sched.queue_wait_p50_ms",
        quantile(&waits, 0.5),
        "ms",
    );
    metrics.put(
        "runtime.sched.queue_wait_p95_ms",
        quantile(&waits, 0.95),
        "ms",
    );
    metrics.put(
        "runtime.sched.queue_depth_peak",
        per_round(&|r| r.report.queue_depth_peak as f64),
        "count",
    );
    metrics.put(
        "runtime.cluster.node_load_max_over_mean",
        per_round(&|r| {
            let loads = &r.report.per_node_jobs;
            let total: u64 = loads.iter().sum();
            let max = loads.iter().copied().max().unwrap_or(0);
            if total == 0 {
                0.0
            } else {
                max as f64 * loads.len() as f64 / total as f64
            }
        }),
        "ratio",
    );
    let counter = |r: &Round, name: &str| r.metrics.counter(name).unwrap_or(0) as f64;
    metrics.put(
        "runtime.cluster.affinity_hit_rate",
        per_round(&|r| {
            let routed = counter(r, metric_names::JOBS_ROUTED);
            if routed == 0.0 {
                0.0
            } else {
                counter(r, metric_names::ROUTE_AFFINITY_HITS) / routed
            }
        }),
        "fraction",
    );
    metrics.put(
        "runtime.cluster.spills",
        per_round(&|r| counter(r, metric_names::ROUTE_SPILLS)),
        "count",
    );
    metrics.put(
        "runtime.cluster.shed",
        per_round(&|r| (r.report.shed_overloaded + r.report.shed_quota) as f64),
        "count",
    );
    metrics.put("runtime.worker.encode_s", per_job(&|t| t.encode_s), "s");
    metrics.put("runtime.worker.solve_s", per_job(&|t| t.solve_s), "s");
    metrics.put(
        "runtime.worker.overhead_s",
        per_job(&|t| (t.latency_s - t.queue_wait_s - t.encode_s - t.solve_s).max(0.0)),
        "s",
    );
    let sim = |f: &dyn Fn(&refloat_runtime::SimulatedRun) -> f64| {
        per_round(&|r| {
            r.records
                .iter()
                .filter_map(|rec| rec.completed())
                .map(|o| f(&o.telemetry.simulated))
                .sum()
        })
    };
    metrics.put("runtime.accel.compute_s", sim(&|s| s.compute_s), "s");
    metrics.put("runtime.accel.program_s", sim(&|s| s.program_s), "s");
    metrics.put("runtime.accel.host_fp64_s", sim(&|s| s.host_fp64_s), "s");
    metrics.put(
        "runtime.accel.stream_write_s",
        sim(&|s| s.stream_write_s),
        "s",
    );
    metrics.put(
        "runtime.accel.remaps",
        per_round(&|r| r.report.remaps as f64),
        "count",
    );
}

/// Span-derived metrics of the traced rounds.
pub fn trace_layers(traced: &[Round], attribution: &Attribution, metrics: &mut Metrics) {
    let lookups: Vec<f64> = traced
        .iter()
        .flat_map(|r| &r.trace)
        .filter(|e| e.kind == SpanKind::CacheLookup)
        .map(|e| e.duration_s() * 1e3)
        .collect();
    let mean = if lookups.is_empty() {
        0.0
    } else {
        lookups.iter().sum::<f64>() / lookups.len() as f64
    };
    metrics.put("runtime.cache.lookup_ms", mean, "ms");
    for row in ROWS {
        metrics.put(
            &format!("attribution.{row}_ms"),
            attribution.ms_per_job(row),
            "ms",
        );
    }
}
