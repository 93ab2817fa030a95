//! The correctness gate.  Every run checks, for every round it measured:
//!
//! * every offered job resolved exactly once (one record per offered job, no
//!   ticket id twice, and the runtime's report counts the same completions);
//! * every completed job converged;
//! * refined jobs (the transient chain) reach their true fp64 relative
//!   residual target, measured with `CsrMatrix::relative_residual`;
//! * plain quantized jobs (the serving catalog) stay within their entry's
//!   pinned true residual ceiling (`CatalogEntry::residual_ceiling`);
//! * identical plans give bitwise-identical solutions however they were
//!   scheduled, and the round digest is identical across the run's rounds,
//!   traced or not.
//!
//! Plain quantized jobs promise convergence on the *quantized* operator, not
//! an fp64 residual, so they cannot be held to their solver tolerance; the
//! ceilings pin the residuals they reach today — see `inputs::RESIDUAL_SLACK`
//! and `README.md`.

use std::collections::BTreeMap;

use refloat_runtime::fingerprint::{fnv1a_u64, FNV_OFFSET};
use refloat_runtime::JobOutcome;

use crate::drive::{JobRecord, Resolution};
use crate::inputs::TRANSIENT_TOLERANCE;
use crate::workloads::{Inputs, Round};

/// Collected gate failures (empty = correct).
#[derive(Debug, Default)]
pub struct Gate {
    pub failures: Vec<String>,
    /// Digest of the first checked round; later rounds must match it.
    digest: Option<u64>,
    /// Largest true relative residual of any completed job.
    pub true_residual_max: f64,
}

/// Bits of one solution: iterations and every element of `x`.
fn solution_digest(mut digest: u64, outcome: &JobOutcome) -> u64 {
    digest = fnv1a_u64(digest, outcome.result.iterations as u64);
    for v in &outcome.result.x {
        digest = fnv1a_u64(digest, v.to_bits());
    }
    digest
}

/// The round digest: job ids, iterations and solution bits of every completed
/// job, in job-id order.  Independent of scheduling and wall-clock time.
pub fn round_digest(records: &[JobRecord]) -> u64 {
    let mut done: Vec<&JobOutcome> = records.iter().filter_map(JobRecord::completed).collect();
    done.sort_by_key(|o| o.job_id);
    done.iter().fold(FNV_OFFSET, |d, o| {
        solution_digest(fnv1a_u64(d, o.job_id), o)
    })
}

impl Gate {
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks one round; `label` names it in failure messages.
    pub fn check_round(&mut self, label: &str, inputs: &Inputs, round: &Round) {
        let offered = inputs.jobs_per_round();
        if round.records.len() != offered {
            self.fail(format!(
                "{label}: {} outcomes for {offered} offered jobs",
                round.records.len()
            ));
        }
        let mut ids: Vec<u64> = round.records.iter().filter_map(|r| r.ticket_id).collect();
        let tickets = ids.len();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != tickets {
            self.fail(format!("{label}: a ticket resolved more than once"));
        }

        let catalog = inputs.catalog();
        let mut per_item: BTreeMap<usize, u64> = BTreeMap::new();
        let (mut completed, mut shed) = (0usize, 0u64);
        for record in &round.records {
            let outcome = match &record.resolution {
                Resolution::Completed(outcome) => outcome,
                Resolution::Shed => {
                    shed += 1;
                    continue;
                }
                other => {
                    self.fail(format!("{label}: item {} resolved {other:?}", record.item));
                    continue;
                }
            };
            completed += 1;
            if !(outcome.telemetry.converged && outcome.result.converged()) {
                self.fail(format!(
                    "{label}: job {} (item {}) did not converge",
                    outcome.job_id, record.item
                ));
            }
            // Chain steps were measured by the client loop; serving jobs solve
            // their catalog matrix against all ones.
            let true_rel = record.true_rel.unwrap_or_else(|| {
                let csr = catalog[record.item].handle.csr();
                csr.relative_residual(&vec![1.0; csr.nrows()], &outcome.result.x)
            });
            self.true_residual_max = self.true_residual_max.max(true_rel);
            if outcome.telemetry.refinement.is_some() {
                if true_rel.is_nan() || true_rel > TRANSIENT_TOLERANCE {
                    self.fail(format!(
                        "{label}: job {} true residual {true_rel:.3e} above {TRANSIENT_TOLERANCE:e}",
                        outcome.job_id
                    ));
                }
            } else {
                let ceiling = catalog[record.item].residual_ceiling;
                if true_rel.is_nan() || true_rel > ceiling {
                    self.fail(format!(
                        "{label}: job {} ({}) true residual {true_rel:.3e} above its ceiling \
                         {ceiling:.3e}",
                        outcome.job_id,
                        catalog[record.item].handle.name()
                    ));
                }
            }
            let bits = solution_digest(FNV_OFFSET, outcome);
            if *per_item.entry(record.item).or_insert(bits) != bits {
                self.fail(format!(
                    "{label}: item {} solved to different bits on different jobs",
                    record.item
                ));
            }
        }

        let report = &round.report;
        if report.jobs != completed || report.cancelled_jobs != 0 || report.degraded_jobs != 0 {
            self.fail(format!(
                "{label}: report counts {} completed / {} cancelled / {} degraded, \
                 client saw {completed} completed",
                report.jobs, report.cancelled_jobs, report.degraded_jobs
            ));
        }
        if report.shed_overloaded + report.shed_quota != shed {
            self.fail(format!(
                "{label}: report sheds {} jobs, client saw {shed}",
                report.shed_overloaded + report.shed_quota
            ));
        }
        // With shedding the completed set depends on timing; the digest is
        // defined for rounds that completed every offered job.
        if shed == 0 {
            let digest = round_digest(&round.records);
            match self.digest {
                None => self.digest = Some(digest),
                Some(first) if first != digest => self.fail(format!(
                    "{label}: digest {digest:016x} differs from the run's first round {first:016x}"
                )),
                Some(_) => {}
            }
        }
    }
}
