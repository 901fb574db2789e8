//! How a run fails: the public [`PregelError`] taxonomy, the worker-side
//! [`WorkerFailure`] a phase reports instead of panicking, and the
//! attribution helpers the supervisor and post-mortems share.

use gm_ckpt::CkptError;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Errors surfaced by [`run`](crate::run).
#[derive(Debug)]
pub enum PregelError {
    /// The master never halted within the configured superstep budget.
    SuperstepLimitExceeded {
        /// The configured limit.
        limit: u32,
    },
    /// Invalid [`PregelConfig`](crate::PregelConfig) (e.g. zero workers,
    /// zero checkpoint interval, zero superstep deadline).
    InvalidConfig(String),
    /// [`Schedule::Pull`](crate::Schedule::Pull) was requested for a
    /// program that reports no pullable vertex phase at all
    /// ([`VertexProgram::pull_supported`](crate::VertexProgram::pull_supported)
    /// is `false`). Refusing up front is the contract: silently running
    /// push would ignore the schedule, and gathering anyway would compute
    /// wrong answers. Not recoverable — retrying cannot make a program
    /// pullable.
    NotPullable {
        /// Why the program cannot be gathered.
        detail: String,
    },
    /// A worker thread panicked during the given superstep (a vertex
    /// kernel bug, or an injected fault). Recoverable: a supervisor can
    /// restart the job from the latest valid snapshot.
    WorkerPanicked {
        /// Superstep whose phase lost a worker.
        superstep: u32,
        /// The worker that panicked; `None` when the worker died without
        /// reporting (its task channel closed).
        worker: Option<u32>,
        /// The vertex whose kernel was running, when the panic struck
        /// inside the vertex loop.
        vertex: Option<u32>,
        /// The panic payload (or a placeholder for non-string payloads).
        detail: String,
    },
    /// A superstep overran
    /// [`ResourceBudget::superstep_deadline`](crate::ResourceBudget::superstep_deadline).
    /// The watchdog is cooperative — workers check between vertex kernels
    /// and delivery buckets, the coordinator at the barrier — so a hung
    /// phase becomes this error instead of a wedged barrier. Recoverable.
    DeadlineExceeded {
        /// Superstep that overran.
        superstep: u32,
        /// The worker that tripped the check; `None` when the coordinator
        /// caught it at the barrier.
        worker: Option<u32>,
        /// The configured deadline.
        deadline: Duration,
    },
    /// A resource budget other than the spillable message budget was
    /// exhausted (currently: the resident value-store estimate).
    /// Recoverable, though a deterministic overrun will quarantine.
    BudgetExceeded {
        /// Superstep at whose barrier the check failed.
        superstep: u32,
        /// Which budget ("resident value-store bytes").
        what: &'static str,
        /// Estimated usage at the check.
        used: u64,
        /// The configured limit.
        budget: u64,
    },
    /// A message-spill file could not be written or replayed (I/O error,
    /// checksum mismatch, or injected fault). Recoverable: the restart
    /// re-executes from the latest snapshot with fresh spill files.
    SpillFailed {
        /// Superstep whose exchange lost the bucket.
        superstep: u32,
        /// Worker that performed the failing spill operation.
        worker: u32,
        /// `"write"` or `"read"`.
        op: &'static str,
        /// The underlying codec/IO error.
        source: CkptError,
    },
    /// A recoverable failure reproduced identically on every attempt until
    /// the restart budget ran out — a deterministically-poisoned vertex or
    /// a sticky resource overrun. Restarting again would loop forever, so
    /// the supervisor aborts with the failure's context instead.
    Quarantined {
        /// Superstep of the repeated failure.
        superstep: u32,
        /// Worker of the repeated failure, when attributed.
        worker: Option<u32>,
        /// Vertex of the repeated failure, when attributed.
        vertex: Option<u32>,
        /// Total attempts made (initial run + restarts).
        attempts: u32,
        /// Rendered form of the repeated underlying error.
        detail: String,
    },
    /// The run was cancelled through
    /// [`PregelConfig::cancel`](crate::PregelConfig::cancel) — the
    /// coordinator saw the token at a superstep boundary and stopped. Not
    /// recoverable: the host asked for the job to end, so a supervisor
    /// restarting it would defeat the point.
    Cancelled {
        /// Superstep at whose boundary the cancellation was observed.
        superstep: u32,
    },
    /// A checkpoint or resume operation failed in a way the run cannot
    /// proceed past (an unreadable mandatory snapshot section, a graph
    /// mismatch, or an I/O failure opening the checkpoint directory).
    /// Failed snapshot *writes* are not fatal and are only counted in
    /// [`RecoveryStats`](crate::RecoveryStats).
    Checkpoint(CkptError),
    /// A failure for which a post-mortem bundle was written
    /// ([`PregelConfig::post_mortem`](crate::PregelConfig::post_mortem)):
    /// the wrapped `source` is the real failure, `bundle` the directory
    /// holding its forensics (recent trace events, config, metrics
    /// snapshot). Transparent for classification —
    /// [`PregelError::is_recoverable`], [`PregelError::kind`], and the
    /// attribution helpers all delegate to the source.
    PostMortem {
        /// Directory of the written bundle.
        bundle: PathBuf,
        /// The failure the bundle documents.
        source: Box<PregelError>,
    },
}

impl fmt::Display for PregelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PregelError::SuperstepLimitExceeded { limit } => {
                write!(f, "superstep limit of {limit} exceeded without halting")
            }
            PregelError::InvalidConfig(msg) => write!(f, "invalid pregel config: {msg}"),
            PregelError::NotPullable { detail } => {
                write!(f, "schedule 'pull' requires a pullable program: {detail}")
            }
            PregelError::WorkerPanicked {
                superstep,
                worker,
                vertex,
                detail,
            } => {
                match worker {
                    Some(w) => write!(f, "worker {w} panicked during superstep {superstep}")?,
                    None => write!(f, "a worker died during superstep {superstep}")?,
                }
                if let Some(v) = vertex {
                    write!(f, " at vertex {v}")?;
                }
                write!(f, ": {detail}")
            }
            PregelError::DeadlineExceeded {
                superstep,
                worker,
                deadline,
            } => {
                write!(
                    f,
                    "superstep {superstep} exceeded its deadline of {deadline:?}"
                )?;
                match worker {
                    Some(w) => write!(f, " (tripped by worker {w})"),
                    None => write!(f, " (tripped at the barrier)"),
                }
            }
            PregelError::BudgetExceeded {
                superstep,
                what,
                used,
                budget,
            } => write!(
                f,
                "superstep {superstep} exceeded the {what} budget: {used} > {budget} bytes"
            ),
            PregelError::SpillFailed {
                superstep,
                worker,
                op,
                source,
            } => write!(
                f,
                "spill {op} failed on worker {worker} during superstep {superstep}: {source}"
            ),
            PregelError::Quarantined {
                superstep,
                worker,
                vertex,
                attempts,
                detail,
            } => {
                write!(
                    f,
                    "quarantined after {attempts} identical failures at superstep {superstep}"
                )?;
                if let Some(w) = worker {
                    write!(f, " on worker {w}")?;
                }
                if let Some(v) = vertex {
                    write!(f, " at vertex {v}")?;
                }
                write!(f, ": {detail}")
            }
            PregelError::Cancelled { superstep } => {
                write!(f, "run cancelled at superstep {superstep}")
            }
            PregelError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            PregelError::PostMortem { bundle, source } => {
                write!(f, "{source} (post-mortem bundle: {})", bundle.display())
            }
        }
    }
}

impl Error for PregelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PregelError::Checkpoint(e) => Some(e),
            PregelError::SpillFailed { source, .. } => Some(source),
            PregelError::PostMortem { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl PregelError {
    /// Failures the [`run`](crate::run) supervisor may retry: everything
    /// caused by a worker or a resource limit, nothing caused by bad
    /// configuration, cancellation or an unreadable checkpoint.
    pub fn is_recoverable(&self) -> bool {
        match self {
            PregelError::PostMortem { source, .. } => source.is_recoverable(),
            _ => matches!(
                self,
                PregelError::WorkerPanicked { .. }
                    | PregelError::DeadlineExceeded { .. }
                    | PregelError::BudgetExceeded { .. }
                    | PregelError::SpillFailed { .. }
            ),
        }
    }

    /// A stable, label-safe slug for the failure class (used as the `kind`
    /// label of `gm_failures_total` and in post-mortem manifests). A
    /// [`PregelError::PostMortem`] wrapper reports its source's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            PregelError::SuperstepLimitExceeded { .. } => "superstep_limit",
            PregelError::InvalidConfig(_) => "invalid_config",
            PregelError::NotPullable { .. } => "not_pullable",
            PregelError::WorkerPanicked { .. } => "worker_panicked",
            PregelError::DeadlineExceeded { .. } => "deadline_exceeded",
            PregelError::BudgetExceeded { .. } => "budget_exceeded",
            PregelError::SpillFailed { .. } => "spill_failed",
            PregelError::Quarantined { .. } => "quarantined",
            PregelError::Cancelled { .. } => "cancelled",
            PregelError::Checkpoint(_) => "checkpoint",
            PregelError::PostMortem { source, .. } => source.kind(),
        }
    }

    /// The post-mortem bundle directory documenting this failure, when one
    /// was written.
    pub fn post_mortem_bundle(&self) -> Option<&Path> {
        match self {
            PregelError::PostMortem { bundle, .. } => Some(bundle),
            _ => None,
        }
    }

    /// Splits a [`PregelError::PostMortem`] wrapper into the underlying
    /// failure and its bundle path; other errors pass through with `None`.
    /// The recovery supervisor compares failure *signatures* across
    /// attempts — bundle paths differ per attempt, so signatures must be
    /// computed on the detached error.
    pub fn detach_post_mortem(self) -> (PregelError, Option<PathBuf>) {
        match self {
            PregelError::PostMortem { bundle, source } => (*source, Some(bundle)),
            other => (other, None),
        }
    }

    /// Re-wraps an error with a previously detached bundle path.
    pub(crate) fn with_post_mortem(self, bundle: Option<PathBuf>) -> PregelError {
        match bundle {
            Some(bundle) => PregelError::PostMortem {
                bundle,
                source: Box::new(self),
            },
            None => self,
        }
    }
}

impl From<CkptError> for PregelError {
    fn from(e: CkptError) -> Self {
        PregelError::Checkpoint(e)
    }
}

/// A worker-side phase failure, reported instead of a panic.
#[derive(Debug)]
pub(crate) enum WorkerFailure {
    Panic {
        worker: u32,
        vertex: Option<u32>,
        detail: String,
    },
    Spill {
        worker: u32,
        op: &'static str,
        source: CkptError,
    },
    Deadline {
        worker: u32,
    },
}

impl WorkerFailure {
    /// A caught panic on `worker`, attributed to `vertex` when it struck
    /// inside a vertex kernel.
    pub(crate) fn from_panic(
        worker: u32,
        vertex: Option<u32>,
        payload: Box<dyn std::any::Any + Send>,
    ) -> Self {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        WorkerFailure::Panic {
            worker,
            vertex,
            detail,
        }
    }

    /// Stamps the failing superstep on to produce the run's error;
    /// `deadline` is the configured superstep deadline, if any.
    pub(crate) fn at(self, superstep: u32, deadline: Option<Duration>) -> PregelError {
        match self {
            WorkerFailure::Panic {
                worker,
                vertex,
                detail,
            } => PregelError::WorkerPanicked {
                superstep,
                worker: Some(worker),
                vertex,
                detail,
            },
            WorkerFailure::Spill { worker, op, source } => PregelError::SpillFailed {
                superstep,
                worker,
                op,
                source,
            },
            WorkerFailure::Deadline { worker } => PregelError::DeadlineExceeded {
                superstep,
                worker: Some(worker),
                deadline: deadline.unwrap_or_default(),
            },
        }
    }
}

/// The superstep-independent attribution of an error: (superstep, worker,
/// vertex), used by the restart tracer, the quarantine wrapper, and
/// post-mortem manifests.
pub(crate) fn failure_site(error: &PregelError) -> (u32, Option<u32>, Option<u32>) {
    match error {
        PregelError::WorkerPanicked {
            superstep,
            worker,
            vertex,
            ..
        } => (*superstep, *worker, *vertex),
        PregelError::DeadlineExceeded {
            superstep, worker, ..
        } => (*superstep, *worker, None),
        PregelError::BudgetExceeded { superstep, .. } => (*superstep, None, None),
        PregelError::SpillFailed {
            superstep, worker, ..
        } => (*superstep, Some(*worker), None),
        PregelError::Quarantined {
            superstep,
            worker,
            vertex,
            ..
        } => (*superstep, *worker, *vertex),
        PregelError::Cancelled { superstep } => (*superstep, None, None),
        PregelError::PostMortem { source, .. } => failure_site(source),
        _ => (0, None, None),
    }
}
