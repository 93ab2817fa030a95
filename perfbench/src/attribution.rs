//! Where each job's latency went: the runtime's trace spans folded per job,
//! with the execute span split over the solve layers by the replay's measured
//! shares.  Rows sum to the total job latency; what no row covers is the
//! explicit `unattributed` row.

use std::collections::BTreeMap;

use refloat_runtime::{SpanKind, TraceEvent};

use crate::drive::JobRecord;
use crate::replay::SolveReplay;
use crate::workloads::Round;

/// Attribution rows, in table order.
pub const ROWS: [&str; 10] = [
    "harness_lag",
    "submit",
    "queue_wait",
    "cache_lookup",
    "encode",
    "vector_converter",
    "blocked_spmv",
    "host_fp64",
    "solver_self",
    "unattributed",
];

/// Summed seconds per row over the attributed jobs.
#[derive(Debug, Clone)]
pub struct Attribution {
    pub jobs: usize,
    pub total_s: f64,
    pub rows: [f64; ROWS.len()],
}

impl Attribution {
    /// Milliseconds per job of row `name`.
    pub fn ms_per_job(&self, name: &str) -> f64 {
        let i = ROWS.iter().position(|r| *r == name).expect("known row");
        self.rows[i] * 1e3 / self.jobs.max(1) as f64
    }

    /// The printed table.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "attribution ({workload}, {} traced jobs, {:.3} ms mean latency):\n",
            self.jobs,
            self.total_s * 1e3 / self.jobs.max(1) as f64
        );
        for (name, seconds) in ROWS.iter().zip(self.rows) {
            out += &format!(
                "  {name:<18} {:>10.4} ms/job {:>6.1}%\n",
                seconds * 1e3 / self.jobs.max(1) as f64,
                100.0 * seconds / self.total_s
            );
        }
        let sum: f64 = self.rows.iter().sum();
        out += &format!(
            "  {:<18} {:>10.4} ms/job (rows sum to the total latency)\n",
            "total",
            sum * 1e3 / self.jobs.max(1) as f64
        );
        out
    }
}

/// Shares of a solve's time per layer, from its replay: converter, blocked
/// SpMV, host fp64, solver self.  They sum to 1.
fn execute_shares(replay: &SolveReplay) -> [f64; 4] {
    let q = &replay.quantized;
    let parts = [
        q.convert_s,
        (q.apply_s - q.convert_s).max(0.0),
        replay.exact_s,
        replay.self_s(),
    ];
    let sum: f64 = parts.iter().sum();
    if sum > 0.0 {
        parts.map(|p| p / sum)
    } else {
        [0.0, 0.0, 0.0, 1.0]
    }
}

/// Folds the traced rounds: each round's client-side records against its trace,
/// with `replay_of(item)` the replayed solve of an item.
pub fn attribute<'r>(
    rounds: &[Round],
    replay_of: impl Fn(usize) -> &'r SolveReplay,
) -> Attribution {
    let mut sum = Attribution {
        jobs: 0,
        total_s: 0.0,
        rows: [0.0; ROWS.len()],
    };
    for round in rounds {
        // Job ids restart with every round's fresh runtime.
        let mut by_job: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        for event in &round.trace {
            by_job.entry(event.job_id).or_default().push(event);
        }
        for record in &round.records {
            sum.add_job(record, &by_job, &replay_of);
        }
    }
    sum
}

impl Attribution {
    /// Folds one completed job's spans into the rows.
    fn add_job<'r>(
        &mut self,
        record: &JobRecord,
        by_job: &BTreeMap<u64, Vec<&TraceEvent>>,
        replay_of: &impl Fn(usize) -> &'r SolveReplay,
    ) {
        let (Some(id), Some(_)) = (record.ticket_id, record.completed()) else {
            return;
        };
        let spans = by_job.get(&id).map(Vec::as_slice).unwrap_or(&[]);
        let sum_of = |kind: SpanKind| -> f64 {
            spans
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.duration_s())
                .sum()
        };
        let queue = sum_of(SpanKind::QueueWait);
        let encode = sum_of(SpanKind::Encode);
        let mut lookup = sum_of(SpanKind::CacheLookup);
        let mut execute = sum_of(SpanKind::Execute);
        // An encode is nested in the cache lookup (plain jobs) or in the
        // execute span (refinement rungs fetched mid-solve): take it out of the
        // span that contains its midpoint, so each second is counted once.
        for e in spans.iter().filter(|e| e.kind == SpanKind::Encode) {
            let mid = 0.5 * (e.start_s + e.end_s);
            let inside = |kind: SpanKind| {
                spans
                    .iter()
                    .any(|s| s.kind == kind && s.start_s <= mid && mid <= s.end_s)
            };
            if inside(SpanKind::CacheLookup) {
                lookup -= e.duration_s();
            } else if inside(SpanKind::Execute) {
                execute -= e.duration_s();
            }
        }
        let shares = execute_shares(replay_of(record.item));
        let parts = [
            record.lag_s,
            record.submit_s,
            queue,
            lookup.max(0.0),
            encode,
            execute.max(0.0) * shares[0],
            execute.max(0.0) * shares[1],
            execute.max(0.0) * shares[2],
            execute.max(0.0) * shares[3],
        ];
        let attributed: f64 = parts.iter().sum();
        for (row, part) in self.rows.iter_mut().zip(parts) {
            *row += part;
        }
        self.rows[ROWS.len() - 1] += record.latency_s - attributed;
        self.total_s += record.latency_s;
        self.jobs += 1;
    }
}
