//! Job model: what callers submit, every state a job can be in, and the
//! rendered status table.

use std::time::Duration;

use tg_eigen::{Evd, EvdMethod};
use tg_matrix::Mat;

use crate::queue::Priority;

/// Service-assigned job identifier (dense, starting at 0, in submission
/// order — shed submissions consume an id too, so the status table shows
/// them).
pub type JobId = u64;

/// One EVD request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Symmetric input matrix (only the lower triangle is referenced).
    pub matrix: Mat,
    /// Reduction pipeline to use.
    pub method: EvdMethod,
    /// Whether eigenvectors are wanted.
    pub want_vectors: bool,
    /// Admission class.
    pub priority: Priority,
    /// Completion deadline, measured from submission. `None` uses the
    /// service default.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A `Normal`-priority job with the service-default deadline.
    pub fn new(matrix: Mat, method: EvdMethod, want_vectors: bool) -> JobSpec {
        JobSpec {
            matrix,
            method,
            want_vectors,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Builder-style priority override.
    pub fn with_priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Builder-style deadline override.
    pub fn with_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a job ended without a result. Every variant is a *clean, typed*
/// outcome — the service never lets a failure escape as a panic, a hang,
/// or a silently wrong answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// The deadline passed before the job could produce a result (in the
    /// queue, between retries, or during the final attempt).
    DeadlineExceeded,
    /// The job was cancelled by the caller.
    Cancelled,
    /// The input's lower triangle holds a NaN or infinity at `(row, col)`
    /// (the first one, scanning column by column). Ends the job after its
    /// first attempt: no retry can change the input.
    NonFiniteInput { row: usize, col: usize },
    /// All `1 + max_retries` attempts failed. Carries the attempt count
    /// and a description of the last error.
    Exhausted { attempts: u32, last_error: String },
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            FailReason::Cancelled => write!(f, "cancelled"),
            FailReason::NonFiniteInput { row, col } => {
                write!(f, "input holds a non-finite value at ({row}, {col})")
            }
            FailReason::Exhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts: {last_error}"
            ),
        }
    }
}

/// Lifecycle state of a job. Terminal states are `Completed`, `Failed`,
/// and `Shed`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting in the queue.
    Queued,
    /// Claimed by a worker (possibly mid-retry).
    Running,
    /// Attached as a follower of an identical in-flight job (request
    /// coalescing, `--dedup`); resolves when the leader does — to
    /// `Completed` with a clone of the leader's clean result, to
    /// `Failed`, or by promotion to a run of its own if the leader fails.
    Coalesced,
    /// Finished with a result (bitwise-identical to the direct
    /// single-problem `syevd` path).
    Completed,
    /// Finished without a result; see the [`FailReason`].
    Failed(FailReason),
    /// Rejected at admission: the queue was saturated.
    Shed,
}

impl JobStatus {
    /// Whether this state ends the job's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed(_) | JobStatus::Shed
        )
    }

    /// Canonical short label (stable across runs — the determinism test
    /// compares whole tables of these).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Coalesced => "coalesced",
            JobStatus::Completed => "completed",
            JobStatus::Failed(FailReason::DeadlineExceeded) => "deadline-exceeded",
            JobStatus::Failed(FailReason::Cancelled) => "cancelled",
            JobStatus::Failed(FailReason::NonFiniteInput { .. }) => "non-finite-input",
            JobStatus::Failed(FailReason::Exhausted { .. }) => "exhausted",
            JobStatus::Shed => "shed",
        }
    }
}

/// Terminal outcome handed back by [`crate::JobService::wait`]: the final
/// status plus the result for completed jobs (moved out — a second `wait`
/// on the same id returns the status with `result: None`).
#[derive(Debug)]
pub struct JobOutcome {
    pub id: JobId,
    pub status: JobStatus,
    /// Attempts actually executed (1 for a first-try success; 0 for jobs
    /// that never started).
    pub attempts: u32,
    /// Time from submission to the terminal transition.
    pub latency: Duration,
    /// Time spent queued before a worker first claimed the job.
    pub queue_wait: Duration,
    pub result: Option<Evd>,
}

/// One row of [`crate::JobService::status_table`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusRow {
    pub id: JobId,
    pub priority: Priority,
    pub status_label: &'static str,
}

/// Renders rows as a fixed-width table (one line per job plus a header) —
/// the "final job-status table" the determinism contract compares.
pub fn render_status_table(rows: &[StatusRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>6}  {:<8}  status", "job", "priority");
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:<8}  {}",
            r.id,
            format!("{:?}", r.priority).to_lowercase(),
            r.status_label
        );
    }
    out
}
