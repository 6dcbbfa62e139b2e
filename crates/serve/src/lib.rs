//! Layout-as-a-service: a crash-safe job daemon around the layout engine.
//!
//! `rowfpga serve` turns the one-shot layout flow into a long-running
//! service: clients submit jobs (netlist + seed + priority + execution
//! budget) over a unix socket, a bounded queue feeds a worker pool, and
//! every state transition is durable in an on-disk spool *before* it is
//! acknowledged. The robustness properties the crate exists for:
//!
//! * **Crash recovery** — a SIGKILL at any instant loses no accepted
//!   job. The startup scan ([`Spool::scan`]) rebuilds the job table,
//!   re-queues interrupted work, resumes from the newest valid engine
//!   checkpoint, and quarantines (never deletes) anything corrupt.
//! * **Checkpoint-backed preemption** — a higher-priority submission
//!   evicts the lowest-priority running job at a temperature boundary;
//!   the victim resumes later from its checkpoint, bit-identically.
//! * **Graceful degradation** — deadline expiry completes the job with
//!   its best-so-far layout (`stop_reason = "deadline"`); a full queue
//!   rejects with `retry_after_sec` instead of growing without bound; a
//!   corrupt resume snapshot falls back to a fresh run.
//! * **Graceful drain** — SIGTERM (or a `shutdown` request) checkpoints
//!   running jobs, persists the queue, and exits cleanly.
//!
//! The determinism contract of the engine carries through the service:
//! for a given (netlist, architecture, seed), the final layout digest is
//! the same whether the job ran uninterrupted, was preempted and
//! resumed, or the daemon was killed and restarted mid-run.
//!
//! See DESIGN.md §13 for the protocol grammar, the scheduler state
//! machine and the failure matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "deadlines, turnaround and retry pacing are wall-clock by nature; seeds and budgets reach the solver as explicit job config"
)]

pub mod job;
pub mod proto;
pub mod spool;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod daemon;

pub use job::{
    layout_digest, JobError, JobOutcome, JobRecord, JobSpec, JobState, JOB_FORMAT, JOB_VERSION,
    RESULT_FORMAT,
};
pub use proto::{parse_request, Request};
pub use spool::{ScanReport, Spool};

#[cfg(unix)]
pub use client::ClientError;
#[cfg(unix)]
pub use daemon::{Daemon, DaemonHandle, ServeConfig, ServiceStats};
