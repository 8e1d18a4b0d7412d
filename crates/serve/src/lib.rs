//! tg-serve — a long-running EVD/tridiagonalization **job service** over
//! the batched solver stack.
//!
//! The batch layer (`tg-batch`) answers "solve these `k` problems now";
//! this crate answers the serving question the paper's batched workloads
//! raise in practice: requests arrive *over time*, at rates the machine
//! may not sustain, and callers need bounded latency rather than eventual
//! completion. The service provides:
//!
//! * a **bounded priority queue** ([`BoundedQueue`]): High/Normal/Low
//!   classes, FIFO within a class, total occupancy capped;
//! * **load shedding**: admission never blocks — a saturated queue sheds
//!   the submission with a typed [`SubmitError::Overloaded`];
//! * **per-job deadlines** and cooperative **cancellation**;
//! * **retry with deterministic exponential backoff** on transient
//!   failures (injected faults, non-finite results, solver errors,
//!   panics): `1 + max_retries` attempts, then a typed `Exhausted`
//!   failure (a non-finite *input* fails at once, typed too);
//! * an **open-loop load generator**
//!   ([`JobService::submit_open_loop`]) that submits on a fixed clock
//!   grid, whatever the service does;
//! * a **content-addressed result cache** ([`EvdCache`]): submissions
//!   whose matrix bytes and solve configuration hash to a stored clean
//!   result are answered at admission without a worker solve — sound
//!   because the whole stack is bitwise-deterministic (`docs/CACHING.md`);
//! * **in-flight request coalescing** (`dedup`): a submission identical
//!   to a queued or running job attaches as a follower and receives that
//!   job's result; a failing leader *promotes* its first live follower
//!   rather than poisoning it;
//! * **conservation accounting** ([`Ledger`]): at quiescence,
//!   `shed + completed + failed + cache_hits + coalesced == submitted` —
//!   no job is ever lost or double-counted.
//!
//! Completed results are **bitwise-identical** to the direct
//! [`fn@tg_eigen::syevd`] path regardless of worker count, queue pressure,
//! or retries — see the determinism notes on [`service`].
//!
//! ```
//! use tg_serve::{JobService, JobSpec, ServeConfig};
//! use tg_eigen::EvdMethod;
//! use tg_matrix::gen;
//!
//! let svc = JobService::start(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let a = gen::random_symmetric(16, 7);
//! let id = svc
//!     .submit(JobSpec::new(a.clone(), EvdMethod::proposed_default(16), true))
//!     .unwrap();
//! let outcome = svc.wait(id);
//! let evd = outcome.result.unwrap();
//! // identical to the direct path, bit for bit
//! let direct = tg_eigen::syevd(&mut a.clone(), &EvdMethod::proposed_default(16), true).unwrap();
//! assert_eq!(evd.eigenvalues, direct.eigenvalues);
//! let stats = svc.shutdown();
//! assert!(stats.ledger.quiescent());
//! ```

pub mod cache;
pub mod job;
pub mod queue;
pub mod service;

pub use cache::{result_bytes, CacheKey, CacheStats, EvdCache, ENTRY_OVERHEAD};
pub use job::{render_status_table, FailReason, JobId, JobOutcome, JobSpec, JobStatus, StatusRow};
pub use queue::{BoundedQueue, Ledger, Priority, QueueFull, Ticket};
pub use service::{ConfigError, JobService, ServeConfig, ServiceStats, SubmitError};
