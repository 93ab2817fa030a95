//! Traffic generators: the closed loop and the sequence chain.  Each drives an
//! already-started [`SolveClient`] from one thread and times every job from
//! outside — from the submit call to the moment the client loop holds the resolved
//! outcome.

use std::collections::VecDeque;
use std::time::Duration;

use refloat_matgen::SolveStep;
use refloat_runtime::{
    Clock, JobOutcome, SolveClient, SolvePlan, SolveTicket, SubmitError, TicketOutcome,
};

/// How long the client loop blocks on its oldest ticket before sweeping the others
/// (bounds how late an out-of-order completion is noticed).
const POLL: Duration = Duration::from_micros(500);

/// How one offered job ended.
#[derive(Debug)]
pub enum Resolution {
    Completed(Box<JobOutcome>),
    /// Refused at submit with a typed admission error.
    Shed,
    Cancelled,
    Degraded,
    Failed(String),
}

/// One offered job, timed from outside the runtime.
#[derive(Debug)]
pub struct JobRecord {
    /// Which input it solved (catalog entry or chain step).
    pub item: usize,
    /// The runtime's job id (`None` when shed before a ticket existed).
    pub ticket_id: Option<u64>,
    /// Seconds the submit call took (admission, routing, enqueue).
    pub submit_s: f64,
    /// How late the client loop ran: how long a resolved outcome waited to be
    /// observed (external latency minus the runtime's own latency).
    pub lag_s: f64,
    /// Submit-call start to outcome in hand.
    pub latency_s: f64,
    /// The solution's true fp64 relative residual, when the client loop measured it
    /// (chain steps: the step's matrix is gone once the chain moves on).
    pub true_rel: Option<f64>,
    pub resolution: Resolution,
}

impl JobRecord {
    pub fn completed(&self) -> Option<&JobOutcome> {
        match &self.resolution {
            Resolution::Completed(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// Frees the solution vector of a completed job.
    pub fn drop_solution(&mut self) {
        if let Resolution::Completed(outcome) = &mut self.resolution {
            outcome.result.x = Vec::new();
            outcome.result.trace = Vec::new();
        }
    }
}

fn resolve(outcome: TicketOutcome) -> Resolution {
    match outcome {
        TicketOutcome::Completed(job) => Resolution::Completed(job),
        TicketOutcome::Cancelled => Resolution::Cancelled,
        TicketOutcome::Degraded(_) => Resolution::Degraded,
        TicketOutcome::Failed(message) => Resolution::Failed(message),
    }
}

/// A submitted job the client loop is still waiting on.
struct InFlight {
    item: usize,
    ticket_id: u64,
    start_s: f64,
    submit_s: f64,
}

/// The in-flight set: resolves tickets as they complete, in any order.
struct Window<'c> {
    clock: &'c dyn Clock,
    pending: VecDeque<(InFlight, SolveTicket)>,
    done: Vec<JobRecord>,
}

impl<'c> Window<'c> {
    fn new(clock: &'c dyn Clock) -> Self {
        Window {
            clock,
            pending: VecDeque::new(),
            done: Vec::new(),
        }
    }

    fn finish(&mut self, job: InFlight, outcome: TicketOutcome) {
        let latency_s = self.clock.now_s() - job.start_s;
        let resolution = resolve(outcome);
        let lag_s = match &resolution {
            Resolution::Completed(out) => (latency_s - out.telemetry.latency_s).max(0.0),
            _ => 0.0,
        };
        self.done.push(JobRecord {
            item: job.item,
            ticket_id: Some(job.ticket_id),
            submit_s: job.submit_s,
            lag_s,
            latency_s,
            true_rel: None,
            resolution,
        });
    }

    /// Collects every ticket that has already resolved.
    fn sweep(&mut self) {
        for _ in 0..self.pending.len() {
            let Some((job, ticket)) = self.pending.pop_front() else {
                break;
            };
            match ticket.try_get() {
                Ok(outcome) => self.finish(job, outcome),
                Err(ticket) => self.pending.push_back((job, ticket)),
            }
        }
    }

    /// Blocks up to [`POLL`] on the oldest ticket, then sweeps the rest.
    fn wait_some(&mut self) {
        if let Some((job, ticket)) = self.pending.pop_front() {
            match ticket.wait_timeout(POLL) {
                Ok(outcome) => self.finish(job, outcome),
                Err(ticket) => self.pending.push_front((job, ticket)),
            }
        }
        self.sweep();
    }

    /// Submits one plan; a typed admission refusal is recorded as shed.
    fn submit(&mut self, client: &SolveClient, item: usize, plan: SolvePlan) {
        let start_s = self.clock.now_s();
        let submitted = client.submit(plan);
        let submit_s = self.clock.now_s() - start_s;
        match submitted {
            Ok(ticket) => {
                let job = InFlight {
                    item,
                    ticket_id: ticket.id(),
                    start_s,
                    submit_s,
                };
                self.pending.push_back((job, ticket));
            }
            Err(SubmitError::Overloaded { .. }) | Err(SubmitError::QuotaExceeded { .. }) => {
                self.done.push(JobRecord {
                    item,
                    ticket_id: None,
                    submit_s,
                    lag_s: 0.0,
                    latency_s: self.clock.now_s() - start_s,
                    true_rel: None,
                    resolution: Resolution::Shed,
                });
            }
            Err(SubmitError::Closed(_)) => {
                self.done.push(JobRecord {
                    item,
                    ticket_id: None,
                    submit_s,
                    lag_s: 0.0,
                    latency_s: 0.0,
                    true_rel: None,
                    resolution: Resolution::Failed("client closed mid-run".to_string()),
                });
            }
        }
    }

    fn drain(mut self) -> Vec<JobRecord> {
        while !self.pending.is_empty() {
            self.wait_some();
        }
        self.done
    }
}

/// Closed loop: one client thread keeps `in_flight` jobs outstanding and submits the
/// next job as soon as one resolves.
pub fn closed_loop(
    client: &SolveClient,
    clock: &dyn Clock,
    jobs: impl IntoIterator<Item = (usize, SolvePlan)>,
    in_flight: usize,
) -> Vec<JobRecord> {
    let mut window = Window::new(clock);
    for (item, plan) in jobs {
        while window.pending.len() >= in_flight {
            window.wait_some();
        }
        window.submit(client, item, plan);
    }
    window.drain()
}

/// A chain: each step is submitted through one `SolveSequence` once its
/// predecessor resolved (the warm start of step k+1 is step k's solution).
/// Steps are generated as the chain advances; building a step's plan and
/// measuring its true residual happen outside its latency.
pub fn chain(
    client: &SolveClient,
    clock: &dyn Clock,
    steps: impl IntoIterator<Item = SolveStep>,
    plan: impl Fn(&SolveStep) -> SolvePlan,
) -> Vec<JobRecord> {
    let mut sequence = client.sequence();
    let mut done = Vec::new();
    for step in steps {
        let plan = plan(&step);
        let start_s = clock.now_s();
        let resolution = match sequence.step(plan) {
            Ok(outcome) => resolve(outcome),
            Err(_) => Resolution::Failed("sequence step refused".to_string()),
        };
        let latency_s = clock.now_s() - start_s;
        let (ticket_id, lag_s, true_rel) = match &resolution {
            Resolution::Completed(out) => (
                Some(out.job_id),
                (latency_s - out.telemetry.latency_s).max(0.0),
                Some(step.matrix.relative_residual(&step.rhs, &out.result.x)),
            ),
            _ => (None, 0.0, None),
        };
        done.push(JobRecord {
            item: step.index,
            ticket_id,
            submit_s: 0.0,
            lag_s,
            latency_s,
            true_rel,
            resolution,
        });
    }
    done
}
