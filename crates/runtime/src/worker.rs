//! The worker loop: drain the queue, resolve the job's format (auto-tuned decisions
//! come through the format-decision cache) and the encoded matrix (or its per-chip
//! shards) through the encode cache, solve (plain, sharded, batched multi-RHS, or
//! mixed-precision refined), and account the simulated-chip cost.

use refloat_core::autotune::{self, AutotuneConfig};
use refloat_core::incremental::{reencode_incremental, IncrementalStats};
use refloat_core::{OperatorShard, ReFloatConfig, ReFloatMatrix, ShardedReFloatMatrix};
use refloat_solvers::{
    refine_warm, solve_warm_split, LinearOperator, PrecisionLadder, SolveResult, SolverConfig,
};
use refloat_sparse::{block_row_shards, extract_row_range, CsrMatrix};

use refloat_telemetry::{sync, Clock, SpanKind, TraceEvent, TraceSink};
use reram_sim::{DeviceHealth, FaultyReFloatOperator};

use crate::accel::{RefinedPassCost, SimulatedAccelerator, SimulatedRun};
use crate::cache::{CacheKey, CacheOutcome, EncodedMatrixCache, ShardId};
use crate::client::{DegradedJob, DegradedReason, QueuedTicket, TicketOutcome};
use crate::decision::{DecisionKey, DecisionOutcome, FormatDecisionCache};
use crate::health::{FaultPolicy, HealthTracker, CROSSBAR_GRID};
use crate::job::{JobOutcome, QueuedJob, RefinementSpec, SolveJob};
use crate::node::NodeCore;
use crate::sched::Popped;
use crate::telemetry::{
    metric_names, AutotuneTelemetry, CacheOutcomeKind, JobMetricHandles, JobTelemetry,
    RefinementTelemetry, SequenceTelemetry,
};
use crate::trace_job::JobTrace;

/// Runs until the client's scheduler closes and drains; one simulated accelerator
/// per worker.  Completed outcomes resolve the job's ticket; a telemetry copy is
/// appended to the client's report log.
///
/// A panicking job is *contained*: the ticket resolves to
/// [`TicketOutcome::Failed`] with the panic message, the scheduler's in-flight
/// accounting is balanced, and the worker keeps serving — a poisoned job can
/// neither hang `drain`/`shutdown` nor strand its waiter.  (The pre-service
/// scoped-thread pool propagated the panic to the batch caller instead; the batch
/// wrappers in `lib.rs` restore that behaviour by re-panicking on `Failed`.)
pub(crate) fn worker_loop(worker_id: usize, core: &NodeCore) {
    let build_accelerator = || {
        let accelerator =
            SimulatedAccelerator::new(worker_id).with_chip_crossbars(core.chip_crossbars);
        match &core.fault {
            Some(policy) => accelerator.with_fault_model(policy.model, CROSSBAR_GRID, policy.abft),
            None => accelerator,
        }
    };
    let mut accelerator = build_accelerator();
    // The worker's "programmed" operator, mirroring the simulated chip state: reused
    // across consecutive jobs on the same (matrix, format[, shard set]) so hot
    // traffic skips even the O(nnz) clone of the cached encoding.
    let mut programmed: Option<ProgrammedOp> = None;
    // Handles on the client's live metrics registry: per-job recording below is
    // atomic increments only, pollable mid-traffic via metrics_snapshot().
    let metric_handles = JobMetricHandles::register(&core.metrics);
    while let Some(popped) = core.sched.pop() {
        if core.health.is_killed(worker_id) {
            // A killed chip serves nothing, but it never loses what it already
            // dequeued: hand the job to a live peer or resolve it as Degraded,
            // then stop serving.  The last live worker to die also drains the
            // queue so no queued ticket is stranded.
            resolve_on_killed_chip(worker_id, core, popped);
            if core
                .health
                .live_workers_in(core.worker_id_base, core.workers)
                == 0
            {
                core.sched.close();
                while let Some(stranded) = core.sched.try_pop() {
                    degrade_on_dead_node(core, stranded.id, stranded.payload);
                    core.sched.finish_one();
                }
            }
            break;
        }
        let QueuedTicket {
            plan,
            submitted_at_s,
            ticket,
            permit,
            trace_seq_base,
        } = popped.payload;
        let queued = QueuedJob {
            id: popped.id,
            job: plan.job,
            priority: popped.priority,
            submitted_at_s,
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(
                queued,
                &core.cache,
                &core.decisions,
                core.chip_crossbars,
                &mut accelerator,
                &mut programmed,
                core.fault.as_ref(),
                &core.health,
                core.trace.as_deref(),
                core.clock.as_ref(),
                trace_seq_base,
            )
        }));
        // Refund the tenant's admission quota (cluster path) only after the job's
        // full lifetime — completed, failed, or contained-panic — so the in-system
        // bound counts running work, not just queued work; but *before* resolving
        // the ticket, so a tenant that observed `wait()` return is guaranteed its
        // slot is already free for the next submit.
        drop(permit);
        match run {
            Ok((mut outcome, degraded)) => {
                outcome.telemetry.node = core.node_id;
                if degraded {
                    // Like cancelled/failed jobs, a degraded job carries no
                    // telemetry row — the report's `jobs` counts clean completions
                    // only — but its fault counters still reach the live registry.
                    core.metrics
                        .counter(metric_names::FAULTS_DETECTED)
                        .add(outcome.telemetry.faults_detected);
                    core.metrics
                        .counter(metric_names::FAULT_RETRIES)
                        .add(outcome.telemetry.fault_retries);
                    core.metrics.counter(metric_names::JOBS_DEGRADED).inc();
                    ticket.complete(TicketOutcome::Degraded(Box::new(DegradedJob {
                        job_id: outcome.job_id,
                        tenant: outcome.telemetry.tenant.clone(),
                        reason: DegradedReason::AbftUnresolved,
                        outcome: Some(outcome),
                    })));
                } else {
                    metric_handles.record(&outcome.telemetry);
                    core.node_jobs.inc();
                    sync::lock(&core.completed).push(outcome.telemetry.clone());
                    ticket.complete(TicketOutcome::Completed(Box::new(outcome)));
                }
            }
            Err(payload) => {
                // The accelerator and programmed-operator mirror may be mid-update;
                // rebuild both so subsequent jobs see a consistent (cold) chip.
                accelerator = build_accelerator();
                programmed = None;
                ticket.complete(TicketOutcome::Failed(panic_message(payload.as_ref())));
            }
        }
        if core.fault.is_some() {
            // Refresh the chip's degradation score so the cluster router's health
            // signals track accumulated wear and drift.
            core.health
                .update_degradation(worker_id, accelerator.health().degradation);
        }
        core.sched.finish_one();
    }
}

/// Disposes of a job a killed chip dequeued: re-push it for a live peer on the
/// same node (a *reroute*), or — when this worker was the node's last live one —
/// resolve the ticket with the typed `Degraded` outcome.  Either way the job is
/// accounted for and its waiter unblocked; nothing is lost or corrupted.
fn resolve_on_killed_chip(worker_id: usize, core: &NodeCore, popped: Popped<QueuedTicket>) {
    let Popped {
        id,
        priority,
        payload,
    } = popped;
    if core
        .health
        .live_workers_in(core.worker_id_base, core.workers)
        > 0
    {
        let mut payload = payload;
        if let Some(sink) = &core.trace {
            let now = core.clock.now_s();
            sink.record(TraceEvent {
                job_id: id,
                seq: payload.trace_seq_base,
                worker: Some(worker_id as u64),
                kind: SpanKind::Reroute,
                start_s: now,
                end_s: now,
                detail: format!("from_worker={worker_id}"),
            });
            // The re-executing worker starts its seqs after the reroute event.
            payload.trace_seq_base += 1;
        }
        // The pop above freed a queue slot, so this push does not block in steady
        // state; the original deadline was consumed at the first dequeue.
        match core.sched.push(id, priority, None, payload) {
            Ok(()) => core.metrics.counter(metric_names::JOBS_REROUTED).inc(),
            // The scheduler closed while we held the job (shutdown race): the
            // degraded resolution below still reaches the waiter.
            Err(payload) => degrade_on_dead_node(core, id, payload),
        }
    } else {
        degrade_on_dead_node(core, id, payload);
    }
    core.sched.finish_one();
}

/// Resolves a queued job's ticket as `Degraded(ChipKilled)` — the typed outcome of
/// a job stranded on a node with no live worker left.
fn degrade_on_dead_node(core: &NodeCore, id: u64, payload: QueuedTicket) {
    core.metrics.counter(metric_names::JOBS_DEGRADED).inc();
    let tenant = payload.plan.job.tenant.to_string();
    let ticket = std::sync::Arc::clone(&payload.ticket);
    // Dropping the payload releases the admission permit before the ticket
    // resolves, mirroring the completed-job ordering.
    drop(payload);
    ticket.complete(TicketOutcome::Degraded(Box::new(DegradedJob {
        job_id: id,
        tenant,
        reason: DegradedReason::ChipKilled,
        outcome: None,
    })));
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// What the worker holds "programmed" between jobs, mirroring the simulated chip
/// state: either the whole-matrix operator of an unsharded job or the assembled
/// multi-chip operator of a sharded job, keyed so only an exactly-matching follow-up
/// job may adopt it (the encode is a pure function of the key, so the content is
/// guaranteed identical).
enum ProgrammedOp {
    /// An unsharded operator and its cache key.
    Whole(crate::cache::CacheKey, ReFloatMatrix),
    /// A sharded operator and its per-shard key set, in shard order.
    Sharded(Vec<crate::cache::CacheKey>, ShardedReFloatMatrix),
}

/// The runtime's [`PrecisionLadder`]: quantized rungs resolved lazily through the
/// shared encoded-matrix cache (so escalation re-uses encodings across jobs and
/// tenants, and concurrent first touches coalesce), with the exact CSR matrix as the
/// optional final fp64 rung.
struct CachedLadder<'a> {
    cache: &'a EncodedMatrixCache,
    /// The runtime clock rung-fetch timing is read from.
    clock: &'a dyn Clock,
    csr: &'a CsrMatrix,
    fingerprint: u64,
    formats: Vec<ReFloatConfig>,
    fp64_fallback: bool,
    solver: refloat_solvers::SolverKind,
    /// Programmed operators per quantized rung, fetched on first use.
    ops: Vec<Option<ReFloatMatrix>>,
    /// The worker's held operator from the previous job; adopted (no clone) by the
    /// rung whose key matches, exactly like the plain path's programmed-operator
    /// reuse.
    seed: Option<(crate::cache::CacheKey, ReFloatMatrix)>,
    /// Seconds this job spent encoding (cache misses only).
    encode_s: f64,
    /// Seconds spent obtaining rung operators in total: encoding, waiting on a
    /// concurrent encode, and cloning the cached entry.  Subtracted from `solve_s` so
    /// solver time stays solver time.
    fetch_s: f64,
    /// How the *base* rung was resolved (the job-level cache outcome).
    base_outcome: Option<CacheOutcomeKind>,
    /// The sequence predecessor rung misses diff against (sequence steps only).
    predecessor: Option<&'a crate::job::SequencePredecessor>,
    /// Whether any rung fetch re-encoded incrementally, and its block accounting
    /// summed across rungs (in practice only the base rung of a sequence step).
    incremental: bool,
    blocks_reencoded: u64,
    blocks_reused: u64,
}

impl<'a> CachedLadder<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cache: &'a EncodedMatrixCache,
        clock: &'a dyn Clock,
        csr: &'a CsrMatrix,
        fingerprint: u64,
        spec: &RefinementSpec,
        base_format: ReFloatConfig,
        solver: refloat_solvers::SolverKind,
        seed: Option<(crate::cache::CacheKey, ReFloatMatrix)>,
        predecessor: Option<&'a crate::job::SequencePredecessor>,
    ) -> Self {
        let formats = spec.escalation.ladder(base_format);
        let ops = formats.iter().map(|_| None).collect();
        CachedLadder {
            cache,
            clock,
            csr,
            fingerprint,
            formats,
            fp64_fallback: spec.escalation.fp64_fallback,
            solver,
            ops,
            seed,
            encode_s: 0.0,
            fetch_s: 0.0,
            base_outcome: None,
            predecessor,
            incremental: false,
            blocks_reencoded: 0,
            blocks_reused: 0,
        }
    }

    /// Non-empty blocks of a fetched rung (0 for the fp64 rung or an unused rung).
    fn num_blocks(&self, level: usize) -> u64 {
        self.ops
            .get(level)
            .and_then(|op| op.as_ref())
            .map(|op| op.num_blocks() as u64)
            .unwrap_or(0)
    }

    /// Hands the base-rung operator (the one identical follow-up jobs will ask for
    /// first) back to the worker's programmed slot; falls back to the unused seed.
    fn into_programmed(mut self) -> Option<(crate::cache::CacheKey, ReFloatMatrix)> {
        if let Some(op) = self.ops.get_mut(0).and_then(Option::take) {
            return Some((CacheKey::whole(self.fingerprint, self.formats[0]), op));
        }
        self.seed
    }
}

impl PrecisionLadder for CachedLadder<'_> {
    fn levels(&self) -> usize {
        self.formats.len() + usize::from(self.fp64_fallback)
    }

    fn level_name(&self, level: usize) -> String {
        if level < self.formats.len() {
            self.formats[level].to_string()
        } else {
            "fp64 (exact)".to_string()
        }
    }

    fn solve(&mut self, level: usize, rhs: &[f64], config: &SolverConfig) -> SolveResult {
        if level < self.formats.len() {
            if self.ops[level].is_none() {
                let fetch_started_s = self.clock.now_s();
                let format = self.formats[level];
                let key = CacheKey::whole(self.fingerprint, format);
                // A sequence step's rung miss diffs against the predecessor's cached
                // encoding at the same format, exactly like the plain path: only
                // dirty blocks re-quantize, and the result is bitwise identical to a
                // from-scratch encode.
                let (cache, csr, predecessor) = (self.cache, self.csr, self.predecessor);
                let mut inc_stats: Option<IncrementalStats> = None;
                let (encoded, outcome) = {
                    let inc_stats = &mut inc_stats;
                    cache.get_or_encode(key, self.clock, || {
                        if let Some(pred) = predecessor {
                            let pred_key = CacheKey::whole(pred.fingerprint, format);
                            if let Some(prev) = cache.peek(&pred_key) {
                                let inc = reencode_incremental(&prev, &pred.csr, csr);
                                *inc_stats = Some(inc.stats);
                                return inc.matrix;
                            }
                        }
                        ReFloatMatrix::from_csr(csr, format)
                    })
                };
                if let Some(stats) = inc_stats {
                    self.incremental = true;
                    self.blocks_reencoded += stats.blocks_reencoded() as u64;
                    self.blocks_reused += stats.blocks_reused as u64;
                }
                if let CacheOutcome::Miss { encode_seconds } = outcome {
                    self.encode_s += encode_seconds;
                }
                if level == 0 {
                    self.base_outcome = Some(outcome.into());
                }
                // Adopt the worker's held operator when it is this very rung (the
                // cache lookup above still records the hit); clone otherwise.
                let op = match self.seed.take() {
                    Some((held_key, op)) if held_key == key => op,
                    other => {
                        self.seed = other;
                        (*encoded).clone()
                    }
                };
                self.ops[level] = Some(op);
                self.fetch_s += (self.clock.now_s() - fetch_started_s).max(0.0);
            }
            // refloat-analysis: allow(panic-in-service-path) — the branch above just
            // populated this rung; absence is a construction bug, not a job state.
            let op = self.ops[level].as_mut().expect("rung fetched above");
            self.solver.solve(op, rhs, config)
        } else {
            self.solver.solve(&mut self.csr, rhs, config)
        }
    }
}

/// What one refined job reports back to `execute_job`.
struct RefinedOutcome {
    result: SolveResult,
    simulated: SimulatedRun,
    encode_s: f64,
    solve_s: f64,
    cache: CacheOutcomeKind,
    telemetry: RefinementTelemetry,
    /// Sequence-step details when the job carried a [`SequenceSpec`]; the
    /// decision-reuse flag is filled in by `execute_job`.
    sequence: Option<SequenceTelemetry>,
}

/// Runs one refined job: the outer fp64 defect-correction loop over the cache-backed
/// ladder, then charges every inner pass (and the host-side fp64 work) to the chip.
#[allow(clippy::too_many_arguments)]
fn run_refined(
    job: &SolveJob,
    spec: &RefinementSpec,
    rhs: &[f64],
    cache: &EncodedMatrixCache,
    accelerator: &mut SimulatedAccelerator,
    programmed: &mut Option<ProgrammedOp>,
    jt: &mut JobTrace<'_>,
    clock: &dyn Clock,
) -> RefinedOutcome {
    let csr = job.matrix.csr();
    // The ladder can only adopt a whole-matrix operator; a held sharded operator is
    // simply dropped (the chip is being re-programmed anyway).
    let seed = match programmed.take() {
        Some(ProgrammedOp::Whole(key, op)) => Some((key, op)),
        _ => None,
    };
    let seq = job.sequence.as_ref();
    let mut ladder = CachedLadder::new(
        cache,
        clock,
        csr,
        job.matrix.fingerprint(),
        spec,
        job.format,
        job.solver,
        seed,
        seq.and_then(|s| s.predecessor.as_ref()),
    );
    let config = spec.refinement_config();
    let solve_anchor = jt.now_s();
    let solve_started_s = clock.now_s();
    // A sequence step warm-starts the outer loop from the previous solution; the
    // guard residual is exact (one extra fp64 SpMV, priced below with the other
    // host-side work), so a carried-over iterate typically starts decades below
    // ‖b‖ and skips most of the cold passes.
    let guess = seq.and_then(|s| s.initial_guess.as_deref().map(Vec::as_slice));
    let refined = refine_warm(&mut job.matrix.csr(), rhs, guess, &mut ladder, &config);
    // Rung fetches (encode / coalesced wait / clone) interleave with the solve; keep
    // solver time clean of them.
    let solve_s = (clock.now_s() - solve_started_s - ladder.fetch_s).max(0.0);
    jt.span(SpanKind::Execute, solve_anchor, || {
        format!(
            "refined outer={} inner={} escalations={}",
            refined.outer_iterations, refined.inner_iterations, refined.escalations
        )
    });
    jt.instant(SpanKind::CacheLookup, || {
        format!(
            "outcome={} rung=base",
            ladder.base_outcome.unwrap_or(CacheOutcomeKind::Hit).label()
        )
    });
    if ladder.encode_s > 0.0 {
        jt.span_backdated(SpanKind::Encode, ladder.encode_s, || {
            "rung-encodes".to_string()
        });
    }
    if jt.enabled() {
        for pass in &refined.passes {
            jt.instant(SpanKind::RefinementPass, || {
                format!(
                    "level={} inner_iterations={}",
                    ladder.level_name(pass.level),
                    pass.inner_iterations
                )
            });
        }
    }

    let pass_costs: Vec<RefinedPassCost> = refined
        .passes
        .iter()
        .map(|pass| {
            if pass.level < ladder.formats.len() {
                let format = ladder.formats[pass.level];
                RefinedPassCost::Quantized {
                    key: CacheKey::whole(ladder.fingerprint, format),
                    format,
                    num_blocks: ladder.num_blocks(pass.level),
                    iterations: pass.inner_iterations as u64,
                }
            } else {
                RefinedPassCost::HostFp64 {
                    iterations: pass.inner_iterations as u64,
                }
            }
        })
        .collect();
    let simulated = accelerator.execute_refined(
        &pass_costs,
        refined.fp64_spmvs as u64,
        csr.nnz() as u64,
        csr.nrows() as u64,
        job.solver,
    );

    let telemetry = RefinementTelemetry {
        outer_iterations: refined.outer_iterations,
        inner_iterations: refined.inner_iterations,
        escalations: refined.escalations,
        final_level: ladder.level_name(refined.final_level),
        fp64_spmvs: refined.fp64_spmvs,
        final_relative_residual: refined.final_relative_residual,
        stalled: refined.stop == refloat_solvers::RefinementStop::Stalled,
    };
    let sequence = seq.map(|_| SequenceTelemetry {
        warm_start_used: refined.warm_path.used(),
        initial_residual: refined.initial_residual,
        incremental: ladder.incremental,
        blocks_reencoded: ladder.blocks_reencoded,
        blocks_reused: ladder.blocks_reused,
        decision_cache_hit: false,
    });
    let encode_s = ladder.encode_s;
    let cache = ladder.base_outcome.unwrap_or(CacheOutcomeKind::Hit);
    *programmed = ladder
        .into_programmed()
        .map(|(key, op)| ProgrammedOp::Whole(key, op));
    RefinedOutcome {
        result: refined.into_solve_result(),
        simulated,
        encode_s,
        solve_s,
        cache,
        telemetry,
        sequence,
    }
}

/// What the plain (non-refined) execution paths report back to `execute_job`.
struct PlainOutcome {
    results: Vec<SolveResult>,
    simulated: SimulatedRun,
    encode_s: f64,
    solve_s: f64,
    cache: CacheOutcomeKind,
    /// Chips the job actually spanned (the partitioner may return fewer shards than
    /// requested for small matrices).
    shards: usize,
    /// Sequence-step details when the job carried a [`SequenceSpec`]; the
    /// decision-reuse flag is filled in by `execute_job` (the auto-format block runs
    /// before the plain paths).
    sequence: Option<SequenceTelemetry>,
}

/// Runs one unsharded job: resolve the whole-matrix encoding through the cache, then
/// solve every right-hand side of the batch against the same programmed operator.
fn run_plain(
    job: &SolveJob,
    rhss: &[&[f64]],
    cache: &EncodedMatrixCache,
    accelerator: &mut SimulatedAccelerator,
    programmed: &mut Option<ProgrammedOp>,
    jt: &mut JobTrace<'_>,
    clock: &dyn Clock,
) -> PlainOutcome {
    let key = job.cache_key();
    let seq = job.sequence.as_ref();
    let predecessor = seq.and_then(|s| s.predecessor.as_ref());
    // Filled by the encode closure when the encoding came from an incremental
    // re-encode against the predecessor's cached encoding (sequence steps only).
    let mut inc_stats: Option<IncrementalStats> = None;
    let lookup_anchor = jt.now_s();
    let (encoded, cache_outcome) = {
        let inc_stats = &mut inc_stats;
        // The closure runs outside the cache lock, so the nested peek cannot
        // deadlock.  A hit on `key` itself still wins outright — the closure never
        // runs and the step pays nothing.
        cache.get_or_encode(key, clock, || {
            if let Some(pred) = predecessor {
                let pred_key = CacheKey::whole(pred.fingerprint, job.format);
                if let Some(prev) = cache.peek(&pred_key) {
                    let inc = reencode_incremental(&prev, &pred.csr, job.matrix.csr());
                    *inc_stats = Some(inc.stats);
                    return inc.matrix;
                }
            }
            ReFloatMatrix::from_csr(job.matrix.csr(), job.format)
        })
    };
    let encode_s = match cache_outcome {
        CacheOutcome::Miss { encode_seconds } => encode_seconds,
        CacheOutcome::Hit | CacheOutcome::Coalesced => 0.0,
    };
    jt.span(SpanKind::CacheLookup, lookup_anchor, || {
        format!("outcome={}", CacheOutcomeKind::from(cache_outcome).label())
    });
    if encode_s > 0.0 {
        jt.span_backdated(SpanKind::Encode, encode_s, || {
            format!("blocks={}", encoded.num_blocks())
        });
    }

    // The worker needs a mutable operator (applying it mutates the converter
    // scratch), while the cache entry is shared and immutable.  Reuse the
    // worker's programmed operator when the key matches — the encode is a pure
    // function of the key, so the content is the same — and otherwise clone the
    // cached encoding (the clone shares its blocks and owns only the converter
    // scratch).  Either way the numerics are bit-identical to the serial path:
    // same `ReFloatMatrix`, same block order.
    let mut operator = match programmed.take() {
        Some(ProgrammedOp::Whole(held_key, op)) if held_key == key => op,
        _ => (*encoded).clone(),
    };
    let solve_anchor = jt.now_s();
    let solve_started_s = clock.now_s();
    // A sequence step warm-starts its primary right-hand side from the previous
    // solution.  The guess residual is measured on the host's fp64 matrix
    // (solve_warm_split): through the quantized operator a good guess drowns in
    // the format's noise floor, while the fp64 residual stays small and smooth so
    // the correction solve genuinely starts decades ahead.  The guard falls back
    // to the plain zero-start solve (bit for bit) when the guess does not help.
    // Jobs without a sequence take the exact pre-sequence path.
    let guess = seq.and_then(|s| s.initial_guess.as_deref());
    let (results, warm_used, initial_residual) = match guess {
        Some(x0) => {
            let warm = solve_warm_split(
                job.solver,
                &mut operator,
                &mut job.matrix.csr(),
                rhss[0],
                Some(x0),
                &job.solver_config,
            );
            let mut results = vec![warm.result];
            if rhss.len() > 1 {
                results.extend(job.solver.solve_batch(
                    &mut operator,
                    &rhss[1..],
                    &job.solver_config,
                ));
            }
            (results, warm.path.used(), warm.initial_residual)
        }
        None => (
            job.solver
                .solve_batch(&mut operator, rhss, &job.solver_config),
            false,
            None,
        ),
    };
    let solve_s = (clock.now_s() - solve_started_s).max(0.0);
    let iterations: Vec<u64> = results.iter().map(|r| r.iterations as u64).collect();
    jt.span(SpanKind::Execute, solve_anchor, || {
        format!("rhs={} iterations={:?}", rhss.len(), iterations)
    });
    let mut simulated = match (predecessor, inc_stats.as_ref()) {
        (Some(pred), Some(stats)) => accelerator.execute_batch_delta(
            key,
            CacheKey::whole(pred.fingerprint, job.format),
            stats.reprogram_fraction(),
            stats.blocks_reencoded() as u64,
            &job.format,
            operator.num_blocks() as u64,
            &iterations,
            job.solver,
        ),
        _ => accelerator.execute_batch(
            key,
            &job.format,
            operator.num_blocks() as u64,
            &iterations,
            job.solver,
        ),
    };
    if initial_residual.is_some() {
        // The residual-guard SpMV ran on the host fp64 matrix, not the chip.
        let csr = job.matrix.csr();
        let guard_s = accelerator.host_spmv_time_s(csr.nnz() as u64, csr.nrows() as u64);
        simulated.host_fp64_s += guard_s;
        simulated.total_s += guard_s;
    }
    let sequence = seq.map(|_| SequenceTelemetry {
        warm_start_used: warm_used,
        initial_residual,
        incremental: inc_stats.is_some(),
        blocks_reencoded: inc_stats.map_or(0, |s| s.blocks_reencoded() as u64),
        blocks_reused: inc_stats.map_or(0, |s| s.blocks_reused as u64),
        decision_cache_hit: false,
    });
    *programmed = Some(ProgrammedOp::Whole(key, operator));
    PlainOutcome {
        results,
        simulated,
        encode_s,
        solve_s,
        cache: cache_outcome.into(),
        shards: 1,
        sequence,
    }
}

/// What the fault-injected plain path reports on top of its [`PlainOutcome`].
struct FaultOutcome {
    /// ABFT checksum failures observed (probes and the committed solve).
    detections: u64,
    /// Re-encode retries paid after a detected corruption.
    retries: u64,
    /// The retry budget ran out with ABFT still detecting: the attached result is
    /// best-effort and the ticket must resolve as `Degraded`.
    degraded: bool,
}

/// Runs one unsharded job on faulty hardware: the clean encoding still comes from
/// the shared cache, but execution goes through a [`FaultyReFloatOperator`] over
/// the worker chip's persistent fault state (spare remapping, residual corruption,
/// drift, optional ABFT).
///
/// With ABFT on, each attempt starts with a one-SpMV *probe* against the first
/// RHS: deterministic corruption trips the checksum immediately, so a failing
/// attempt costs one SpMV — not a full solve — before the re-encode retry moves
/// the encoding onto a fresh crossbar range (stuck cells never heal in place, so
/// retrying the same crossbars could never succeed).  When the retry budget runs
/// out, the solve runs anyway for a best-effort answer and the job degrades.
#[allow(clippy::too_many_arguments)]
fn run_plain_faulty(
    job: &SolveJob,
    rhss: &[&[f64]],
    policy: &FaultPolicy,
    health: &HealthTracker,
    cache: &EncodedMatrixCache,
    accelerator: &mut SimulatedAccelerator,
    jt: &mut JobTrace<'_>,
    clock: &dyn Clock,
) -> (PlainOutcome, FaultOutcome) {
    let key = job.cache_key();
    let lookup_anchor = jt.now_s();
    let (encoded, cache_outcome) = cache.get_or_encode(key, clock, || {
        ReFloatMatrix::from_csr(job.matrix.csr(), job.format)
    });
    let encode_s = match cache_outcome {
        CacheOutcome::Miss { encode_seconds } => encode_seconds,
        CacheOutcome::Hit | CacheOutcome::Coalesced => 0.0,
    };
    jt.span(SpanKind::CacheLookup, lookup_anchor, || {
        format!("outcome={}", CacheOutcomeKind::from(cache_outcome).label())
    });
    if encode_s > 0.0 {
        jt.span_backdated(SpanKind::Encode, encode_s, || {
            format!("blocks={}", encoded.num_blocks())
        });
    }

    let worker = accelerator.worker_id();
    let num_blocks = encoded.num_blocks();
    let abft_threshold = policy.abft.then_some(policy.abft_threshold);
    let mut fault = FaultOutcome {
        detections: 0,
        retries: 0,
        degraded: false,
    };
    let mut simulated = SimulatedRun::zero();
    let solve_anchor = jt.now_s();
    let solve_started_s = clock.now_s();
    let mut attempt: u32 = 0;
    let results = loop {
        let state = accelerator.fault_state();
        // refloat-analysis: allow(panic-in-service-path) — the worker attached a
        // fault model to its accelerator whenever a policy is configured; absence
        // here is an in-crate construction bug.
        let state = state.expect("fault policy implies fault state");
        // Each attempt programs block i onto crossbar i + attempt·blocks: a fresh
        // draw of the same persistent fault map (defects are monotone per
        // crossbar, so in-place retries could never clear them).
        let mut operator = FaultyReFloatOperator::remapped(
            (*encoded).clone(),
            state,
            policy.spares(),
            abft_threshold,
            attempt as usize * num_blocks,
        );
        if abft_threshold.is_some() {
            let mut probe = vec![0.0; LinearOperator::nrows(&operator)];
            operator.apply(rhss[0], &mut probe);
            if operator.detections() > 0 {
                fault.detections += operator.detections();
                health.record_detections(worker, operator.detections());
                jt.instant(SpanKind::FaultDetect, || {
                    format!("attempt={attempt} worker={worker}")
                });
                // The probe still cost one SpMV's worth of chip time.
                simulated.absorb(&accelerator.execute_batch(
                    key,
                    &job.format,
                    num_blocks as u64,
                    &[1],
                    job.solver,
                ));
                if attempt < policy.max_retries {
                    fault.retries += 1;
                    health.record_re_encode(worker);
                    let re_encode_anchor = jt.now_s();
                    // Wear the chip: the next execution re-programs (and ages) it.
                    accelerator.force_remap();
                    jt.span(SpanKind::ReEncode, re_encode_anchor, || {
                        format!("attempt={} blocks={num_blocks}", attempt + 1)
                    });
                    attempt += 1;
                    continue;
                }
                // Retry budget exhausted: commit the solve anyway so the waiter
                // gets a best-effort answer inside its typed Degraded outcome.
                fault.degraded = true;
            }
        }
        let counted = operator.detections();
        let results = job
            .solver
            .solve_batch(&mut operator, rhss, &job.solver_config);
        // Mid-solve detections (corruption is input-dependent, so a clean probe
        // does not guarantee a clean iteration history) are recorded but not
        // retried — the solve already committed.
        let late = operator.detections() - counted;
        if late > 0 {
            fault.detections += late;
            health.record_detections(worker, late);
        }
        break results;
    };
    let solve_s = (clock.now_s() - solve_started_s).max(0.0);
    let iterations: Vec<u64> = results.iter().map(|r| r.iterations as u64).collect();
    jt.span(SpanKind::Execute, solve_anchor, || {
        format!(
            "rhs={} iterations={:?} detections={} retries={}",
            rhss.len(),
            iterations,
            fault.detections,
            fault.retries
        )
    });
    simulated.absorb(&accelerator.execute_batch(
        key,
        &job.format,
        num_blocks as u64,
        &iterations,
        job.solver,
    ));
    (
        PlainOutcome {
            results,
            simulated,
            encode_s,
            solve_s,
            cache: cache_outcome.into(),
            shards: 1,
            sequence: None,
        },
        fault,
    )
}

/// Runs one sharded job: resolve each block-row shard's encoding through the cache
/// (keyed by `(fingerprint, shard, format)`), assemble the multi-chip operator, solve
/// every right-hand side, and charge the pool (makespan + inter-chip gather).
fn run_sharded(
    job: &SolveJob,
    rhss: &[&[f64]],
    cache: &EncodedMatrixCache,
    accelerator: &mut SimulatedAccelerator,
    programmed: &mut Option<ProgrammedOp>,
    jt: &mut JobTrace<'_>,
    clock: &dyn Clock,
) -> PlainOutcome {
    let csr = job.matrix.csr();
    let parts = block_row_shards(csr, job.format.b, job.shards)
        // refloat-analysis: allow(panic-in-service-path) — `b` comes from a
        // ReFloatConfig the plan validator already accepted; failure here is an
        // in-crate construction bug the catch_unwind containment converts to Failed.
        .expect("valid blocking exponent from a validated ReFloatConfig");
    let count = parts.len() as u32;
    let mut keys = Vec::with_capacity(parts.len());
    let mut cached = Vec::with_capacity(parts.len());
    let mut encode_s = 0.0;
    let mut any_miss = false;
    let mut any_coalesced = false;
    let lookup_anchor = jt.now_s();
    for part in &parts {
        let key = CacheKey::sharded(
            job.matrix.fingerprint(),
            ShardId::of(part.index as u32, count),
            job.format,
        );
        // The shard CSR is only materialized on a cache miss; hits skip both the row
        // extraction and the encode.
        let (encoded, outcome) = cache.get_or_encode(key, clock, || {
            ReFloatMatrix::from_csr(&extract_row_range(csr, part.rows.clone()), job.format)
        });
        match outcome {
            CacheOutcome::Miss { encode_seconds } => {
                encode_s += encode_seconds;
                any_miss = true;
            }
            CacheOutcome::Coalesced => any_coalesced = true,
            CacheOutcome::Hit => {}
        }
        keys.push(key);
        cached.push(encoded);
    }
    jt.span(SpanKind::CacheLookup, lookup_anchor, || {
        format!(
            "shards={count} outcome={}",
            if any_miss {
                "miss"
            } else if any_coalesced {
                "coalesced"
            } else {
                "hit"
            }
        )
    });
    if encode_s > 0.0 {
        jt.span_backdated(SpanKind::Encode, encode_s, || format!("shards={count}"));
    }
    // Adopt the worker's held multi-chip operator when it is exactly this shard set
    // (the cache lookups above still record the hits); assemble from clones of the
    // cached encodings otherwise.
    let mut operator = match programmed.take() {
        Some(ProgrammedOp::Sharded(held_keys, op)) if held_keys == keys => op,
        _ => ShardedReFloatMatrix::from_parts(
            csr.nrows(),
            csr.ncols(),
            parts
                .iter()
                .zip(cached)
                .map(|(part, encoded)| OperatorShard {
                    rows: part.rows.clone(),
                    op: (*encoded).clone(),
                })
                .collect(),
        ),
    };

    let solve_anchor = jt.now_s();
    let solve_started_s = clock.now_s();
    let results = job
        .solver
        .solve_batch(&mut operator, rhss, &job.solver_config);
    let solve_s = (clock.now_s() - solve_started_s).max(0.0);
    let iterations: Vec<u64> = results.iter().map(|r| r.iterations as u64).collect();
    jt.span(SpanKind::Execute, solve_anchor, || {
        format!("rhs={} iterations={:?}", rhss.len(), iterations)
    });
    let shard_blocks = operator.shard_blocks();
    let shard_rows = operator.shard_rows();
    if jt.enabled() {
        for (index, (blocks, rows)) in shard_blocks.iter().zip(shard_rows.iter()).enumerate() {
            jt.instant(SpanKind::ShardExecute, || {
                format!("shard={index} blocks={blocks} rows={rows}")
            });
        }
    }
    let simulated = accelerator.execute_sharded(
        &keys,
        &job.format,
        &shard_blocks,
        &shard_rows,
        &iterations,
        job.solver,
    );
    let shards = keys.len();
    *programmed = Some(ProgrammedOp::Sharded(keys, operator));
    PlainOutcome {
        results,
        simulated,
        encode_s,
        solve_s,
        cache: if any_miss {
            CacheOutcomeKind::Miss
        } else if any_coalesced {
            CacheOutcomeKind::Coalesced
        } else {
            CacheOutcomeKind::Hit
        },
        shards,
        sequence: None,
    }
}

/// Executes one job end to end.  The second return value reports whether the job
/// *degraded*: ABFT kept detecting corruption after the fault policy's retry
/// budget, so the outcome is best-effort and the caller must resolve the ticket
/// as `Degraded` instead of `Completed`.
#[allow(clippy::too_many_arguments)]
fn execute_job(
    queued: QueuedJob,
    cache: &EncodedMatrixCache,
    decisions: &FormatDecisionCache,
    chip_crossbars: Option<u64>,
    accelerator: &mut SimulatedAccelerator,
    programmed: &mut Option<ProgrammedOp>,
    fault: Option<&FaultPolicy>,
    health: &HealthTracker,
    trace: Option<&TraceSink>,
    clock: &dyn Clock,
    trace_seq_base: u32,
) -> (JobOutcome, bool) {
    let QueuedJob {
        id,
        mut job,
        priority,
        submitted_at_s,
    } = queued;
    let queue_wait_s = (clock.now_s() - submitted_at_s).max(0.0);
    let mut jt = JobTrace::new(trace, id, accelerator.worker_id(), trace_seq_base);
    jt.span_backdated(SpanKind::QueueWait, queue_wait_s, || {
        format!("priority={}", priority.label())
    });
    jt.instant(SpanKind::Dequeue, || {
        format!("tenant={} matrix={}", job.tenant, job.matrix.name())
    });

    // Resolve an auto-format job's actual format before anything touches the encode
    // cache: the decision is memoized under (fingerprint, b, tolerance, chip), so
    // repeat tenants skip the analysis entirely.
    let mut autotune_tele: Option<AutotuneTelemetry> = None;
    let mut seq_decision_hit = false;
    if let Some(spec) = job.auto_format.clone() {
        // A sharded job spreads its clusters over `shards` chips, so the streaming
        // rounds the cost model charges must be computed against the pooled capacity
        // (the makespan chip holds ~1/shards of the blocks).
        let chip = chip_crossbars
            .unwrap_or(autotune::TABLE_IV_CROSSBARS)
            .saturating_mul(job.shards.max(1) as u64);
        let key = DecisionKey::new(
            job.matrix.fingerprint(),
            job.format.b,
            spec.tolerance,
            chip,
            job.solver,
        );
        // A sequence step may inherit its predecessor's decision: consecutive
        // matrices differ by a small perturbation, so the analysis verdict rarely
        // changes — and the true-residual epilogue below re-verifies the chosen
        // format against *this* matrix, falling back to refinement if the reused
        // decision no longer holds.  The inherited decision is published under this
        // step's key so the next step can chain off it.
        let predecessor_decision = job
            .sequence
            .as_ref()
            .and_then(|s| s.predecessor.as_ref())
            .and_then(|p| {
                decisions.peek(&DecisionKey::new(
                    p.fingerprint,
                    job.format.b,
                    spec.tolerance,
                    chip,
                    job.solver,
                ))
            });
        let analysis_anchor = jt.now_s();
        let (decision, outcome) =
            decisions.get_or_analyse(key, clock, || match predecessor_decision {
                Some(reused) => {
                    seq_decision_hit = true;
                    reused
                }
                None => autotune::plan_format(
                    job.matrix.csr(),
                    &AutotuneConfig::new(spec.tolerance, job.format.b)
                        .with_chip_crossbars(chip)
                        .with_solver(job.solver),
                )
                .decision(),
            });
        let analysis_s = match outcome {
            DecisionOutcome::Miss { analysis_seconds } => analysis_seconds,
            DecisionOutcome::Hit | DecisionOutcome::Coalesced => 0.0,
        };
        jt.span(SpanKind::AutotuneAnalysis, analysis_anchor, || {
            format!(
                "cached={} format={}",
                outcome.skipped_analysis(),
                decision.format
            )
        });
        job.format = decision.format;
        // Re-couple the solver criterion to the auto-format tolerance: a
        // with_solver_config applied after with_auto_format may have overwritten it,
        // and a plain attempt that stops short of the tolerance would force a
        // needless refinement fallback.
        job.solver_config.tolerance = spec.tolerance;
        job.solver_config.relative = true;
        // Cap the plain attempt near the predicted iteration count: if the chosen
        // format is going to stall anyway, burn bounded work before the refinement
        // fallback engages.
        let cap = decision
            .predicted_iterations
            .saturating_mul(4)
            .saturating_add(100)
            .min(usize::MAX as u64) as usize;
        job.solver_config.max_iterations = job.solver_config.max_iterations.min(cap);
        autotune_tele = Some(AutotuneTelemetry {
            chosen_format: decision.format,
            tolerance: spec.tolerance,
            decision_cached: outcome.skipped_analysis(),
            analysis_s,
            kappa: decision.kappa,
            degraded_confidence: decision.degraded_confidence,
            predicted_convergent: decision.predicted_convergent,
            predicted_iterations: decision.predicted_iterations,
            predicted_cycles_per_spmv: decision.predicted_cycles_per_spmv,
            achieved_iterations: 0,
            achieved_relative_residual: f64::NAN,
            fell_back: false,
        });
    }
    let job = job;

    let ones;
    let rhs: &[f64] = match &job.rhs {
        Some(b) => b,
        None => {
            ones = vec![1.0; job.matrix.csr().nrows()];
            &ones
        }
    };
    let rhss: Vec<&[f64]> = std::iter::once(rhs)
        .chain(job.extra_rhs.iter().map(|b| b.as_slice()))
        .collect();

    let mut faults_detected: u64 = 0;
    let mut fault_retries: u64 = 0;
    let mut fault_degraded = false;
    let (
        mut result,
        extra_results,
        mut simulated,
        mut encode_s,
        mut solve_s,
        cache_outcome_kind,
        mut refinement,
        shards,
        sequence_tele,
    ) = if let Some(spec) = job.refinement.clone() {
        // SolvePlanBuilder::build rejects these combinations with a typed PlanError
        // before submission; this backstop only guards in-crate construction bugs.
        debug_assert!(
            job.extra_rhs.is_empty() && job.shards == 1,
            "refined jobs are single-RHS and single-chip; the plan validator must \
             have rejected this"
        );
        let refined = run_refined(
            &job,
            &spec,
            rhs,
            cache,
            accelerator,
            programmed,
            &mut jt,
            clock,
        );
        (
            refined.result,
            Vec::new(),
            refined.simulated,
            refined.encode_s,
            refined.solve_s,
            refined.cache,
            Some(refined.telemetry),
            1,
            refined.sequence,
        )
    } else {
        // Fault injection covers the plain unsharded path only: sharded and
        // auto-format jobs always execute on clean operators (the shared cache
        // never stores a faulty encoding either way).
        let plain = if job.shards > 1 {
            run_sharded(&job, &rhss, cache, accelerator, programmed, &mut jt, clock)
        } else if let Some(policy) = fault.filter(|_| job.auto_format.is_none()) {
            let (plain, fault_outcome) = run_plain_faulty(
                &job,
                &rhss,
                policy,
                health,
                cache,
                accelerator,
                &mut jt,
                clock,
            );
            faults_detected = fault_outcome.detections;
            fault_retries = fault_outcome.retries;
            fault_degraded = fault_outcome.degraded;
            // The chip holds a faulty operator now; the clean programmed-operator
            // mirror no longer matches it, and the accelerator's own programmed
            // key must drop too — every faulty job writes a fresh (re-sampled)
            // encoding into the crossbars, so the next one re-programs and ages
            // the chip rather than riding a phantom clean residency.
            *programmed = None;
            accelerator.force_remap();
            plain
        } else {
            run_plain(&job, &rhss, cache, accelerator, programmed, &mut jt, clock)
        };
        let mut results = plain.results.into_iter();
        // refloat-analysis: allow(panic-in-service-path) — solve_batch returns one
        // result per RHS by contract; an empty batch cannot pass the plan validator.
        let result = results.next().expect("one result per RHS");
        (
            result,
            results.collect(),
            plain.simulated,
            plain.encode_s,
            plain.solve_s,
            plain.cache,
            None,
            plain.shards,
            plain.sequence,
        )
    };

    // Even a step that reused nothing (first step of a chain, sharded, or refined)
    // still counts toward the sequence metrics when the job carried a SequenceSpec.
    let sequence = match sequence_tele {
        Some(mut seq) => {
            seq.decision_cache_hit = seq_decision_hit;
            Some(seq)
        }
        None => job.sequence.as_ref().map(|_| SequenceTelemetry {
            warm_start_used: false,
            initial_residual: None,
            incremental: false,
            blocks_reencoded: 0,
            blocks_reused: 0,
            decision_cache_hit: seq_decision_hit,
        }),
    };

    // Auto-format epilogue: measure the *true* residual (one exact fp64 SpMV, charged
    // to the host), and when the chosen format stalled above the tolerance, fall back
    // to the mixed-precision refinement ladder on the same chip (unsharded).
    let mut converged_override: Option<bool> = None;
    if let (Some(tele), Some(spec)) = (autotune_tele.as_mut(), job.auto_format.as_ref()) {
        let csr = job.matrix.csr();
        tele.achieved_iterations = result.iterations as u64;
        let mut check = SimulatedRun {
            host_fp64_s: accelerator.host_spmv_time_s(csr.nnz() as u64, csr.nrows() as u64),
            ..SimulatedRun::zero()
        };
        check.total_s = check.host_fp64_s;
        simulated.absorb(&check);
        let check_anchor = jt.now_s();
        let true_rel = csr.relative_residual(rhs, &result.x);
        jt.span(SpanKind::HostFp64, check_anchor, || {
            format!("true-residual-check simulated_s={:e}", check.host_fp64_s)
        });
        if true_rel <= spec.tolerance {
            tele.achieved_relative_residual = true_rel;
            converged_override = Some(true);
        } else {
            let mut fallback_job = job.clone();
            fallback_job.shards = 1;
            let refined = run_refined(
                &fallback_job,
                &spec.fallback,
                rhs,
                cache,
                accelerator,
                programmed,
                &mut jt,
                clock,
            );
            tele.fell_back = true;
            tele.achieved_relative_residual = refined.telemetry.final_relative_residual;
            converged_override = Some(refined.result.converged());
            result = refined.result;
            simulated.absorb(&refined.simulated);
            encode_s += refined.encode_s;
            solve_s += refined.solve_s;
            refinement = Some(refined.telemetry);
        }
    }

    // The job's final simulated cost attribution, one instant per nonzero phase.
    if jt.enabled() {
        for event in simulated.cycle_events() {
            jt.instant(SpanKind::ChipPhase, || {
                format!(
                    "phase={} cycles={} simulated_s={:e}",
                    event.phase.label(),
                    event.cycles,
                    event.seconds
                )
            });
        }
    }
    jt.flush();

    let telemetry = JobTelemetry {
        job_id: id,
        tenant: job.tenant.to_string(),
        matrix: job.matrix.name().to_string(),
        worker: accelerator.worker_id(),
        // The executor is node-agnostic; worker_loop stamps the owning node's id.
        node: 0,
        solver: job.solver,
        priority,
        shards,
        rhs_count: job.rhs_count(),
        cache: cache_outcome_kind,
        queue_wait_s,
        encode_s,
        solve_s,
        latency_s: (clock.now_s() - submitted_at_s).max(0.0),
        iterations: result.iterations,
        converged: converged_override
            .unwrap_or_else(|| result.converged() && extra_results.iter().all(|r| r.converged())),
        simulated,
        refinement: refinement.map(Box::new),
        autotune: autotune_tele.map(Box::new),
        faults_detected,
        fault_retries,
        sequence: sequence.map(Box::new),
    };
    (
        JobOutcome {
            job_id: id,
            result,
            extra_results,
            telemetry,
        },
        fault_degraded,
    )
}
