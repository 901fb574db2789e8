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
    /// Recoverable.
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
    /// Recoverable only when the cause is I/O ([`CkptError::Io`]): a
    /// snapshot that passed its checksum but does not decode reads the
    /// same on every try. Failed snapshot *writes* are not fatal and are
    /// only counted in [`RecoveryStats`](crate::RecoveryStats).
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
    /// Failures worth another try — by the [`run`](crate::run) supervisor
    /// and by any host that retries jobs: everything caused by a worker, a
    /// resource limit or checkpoint I/O; nothing caused by bad
    /// configuration, cancellation or a snapshot that does not decode.
    pub fn is_recoverable(&self) -> bool {
        match self {
            PregelError::PostMortem { source, .. } => source.is_recoverable(),
            _ => matches!(
                self,
                PregelError::WorkerPanicked { .. }
                    | PregelError::DeadlineExceeded { .. }
                    | PregelError::BudgetExceeded { .. }
                    | PregelError::SpillFailed { .. }
                    | PregelError::Checkpoint(CkptError::Io(_))
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

    /// The failure itself: the source of a [`PregelError::PostMortem`]
    /// wrapper, any other error as it is.
    pub fn root(&self) -> &PregelError {
        match self {
            PregelError::PostMortem { source, .. } => source.root(),
            other => other,
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

/// The attribution of an error: (superstep, worker, vertex), used by the
/// restart tracer and post-mortem manifests.
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
        PregelError::Cancelled { superstep } => (*superstep, None, None),
        PregelError::PostMortem { source, .. } => failure_site(source),
        _ => (0, None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoverability_of_every_variant() {
        let panicked = || WorkerFailure::from_panic(0, None, Box::new("boom")).at(1, None);
        let ckpt = PregelError::Checkpoint;
        let wrapped = |source| PregelError::PostMortem {
            bundle: PathBuf::from("bundle"),
            source: Box::new(source),
        };
        let budget = PregelError::BudgetExceeded {
            superstep: 1,
            what: "resident value-store bytes",
            used: 10,
            budget: 5,
        };
        let spill = WorkerFailure::Spill {
            worker: 0,
            op: "write",
            source: CkptError::Truncated,
        };
        let recoverable = [
            panicked(),
            WorkerFailure::Deadline { worker: 0 }.at(1, None),
            budget,
            spill.at(1, None),
            ckpt(CkptError::Io(std::io::Error::other("disk"))),
            wrapped(panicked()),
        ];
        // A checksum-valid snapshot that does not decode reads the same on
        // every try.
        let terminal = [
            PregelError::SuperstepLimitExceeded { limit: 9 },
            PregelError::InvalidConfig("zero workers".to_owned()),
            PregelError::NotPullable {
                detail: "push".to_owned(),
            },
            PregelError::Cancelled { superstep: 2 },
            ckpt(CkptError::Decode("bad".to_owned())),
            ckpt(CkptError::MissingSection("values")),
            wrapped(ckpt(CkptError::Decode("bad".to_owned()))),
        ];
        for err in recoverable {
            assert!(err.is_recoverable(), "{err}");
        }
        for err in terminal {
            assert!(!err.is_recoverable(), "{err}");
        }
    }
}
