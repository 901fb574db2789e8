//! The BSP execution loop: partitioning, a persistent worker pool, and a
//! parallel zero-copy message exchange.
//!
//! # Execution architecture
//!
//! A run owns one [`WorkerState`] per worker: the worker's contiguous vertex
//! range (values, halted flags) plus a **double-buffered inbox**
//! (`inbox_in` / `inbox_out`). Each superstep proceeds in three phases:
//!
//! 1. **master** — the sequential master kernel runs on the coordinating
//!    thread with the previous superstep's merged aggregates.
//! 2. **compute + combine** — every worker runs its vertex kernels against
//!    `inbox_in`, routing outgoing messages into per-destination-worker
//!    buckets, then combines and meters those buckets locally. Each inbox
//!    slot is cleared (capacity retained) as it is consumed.
//! 3. **exchange** — each sender's buckets are routed to their destination
//!    workers (a worker-count-squared pointer move, no message is copied),
//!    and every destination worker *moves* the incoming messages into its
//!    `inbox_out` in ascending sender-worker order. The buffers are then
//!    swapped, so the next superstep's compute drains what was just
//!    delivered while delivery never aliases the inbox being read.
//!
//! With more than one worker, phases 2 and 3 run on a pool of threads that
//! persists for the whole run (workers park between phases on their job
//! channel); nothing is spawned per superstep. Aggregates and metrics are
//! produced per worker and merged at the barrier in ascending worker order,
//! which keeps every metric and floating-point aggregate identical to the
//! single-threaded execution order documented in [`run`].
//!
//! # Resource governance
//!
//! A [`ResourceBudget`] attached to the config bounds in-flight message
//! bytes (excess sealed buckets spill to disk and are replayed at
//! delivery — structurally invisible), superstep wall-clock (a cooperative
//! deadline watchdog), and resident value-store bytes. Worker failures of
//! every kind — kernel panics, spill I/O errors, deadline overruns — are
//! caught and surfaced as typed [`PregelError`] values carrying
//! superstep/worker/vertex context, which [`run_with_recovery`] feeds into
//! the checkpoint-restart policy (with quarantine for failures that
//! reproduce deterministically across the whole restart budget).

use crate::checkpoint::{
    build_snapshot, decode_snapshot, CheckpointConfig, CoordState, RecoveryPolicy, ResumeState,
};
use crate::globals::{AggMap, Globals};
use crate::govern::{read_spill_into, write_spill, Governor, ResourceBudget};
use crate::metrics::{Metrics, RegistryFeed, SuperstepMetrics};
use crate::postmortem::{write_bundle, PostMortemConfig};
use crate::program::{
    MasterContext, MasterDecision, PullMode, PullSink, VertexContext, VertexProgram,
};
use gm_ckpt::{ByteReader, CheckpointStore, CkptError, FaultPlan, Persist};
use gm_graph::{Graph, NodeId};
use gm_obs::metrics::MetricsRegistry;
use gm_obs::recorder::FlightRecorder;
use gm_obs::{Category, Tracer};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Environment variable read by [`PregelConfig::default`] for the message
/// schedule: `"push"` (default), `"pull"`, or `"auto"`.
pub const ENV_SCHEDULE: &str = "GM_SCHEDULE";
/// Environment variable for [`PregelConfig::dense_threshold`], the
/// `Schedule::Auto` dense-frontier cutoff (a fraction of `|E|`).
pub const ENV_DENSE_THRESHOLD: &str = "GM_DENSE_THRESHOLD";

/// How each superstep's messages move: sender-push (the classic Pregel
/// exchange), receiver-pull (in-edge gather), or a per-superstep choice.
///
/// Pull and Auto require program cooperation: the program reports per
/// superstep whether its vertex phase can be gathered
/// ([`VertexProgram::pull_mode`]); supersteps that cannot always run push.
/// Both directions produce bit-identical values, supersteps, and message
/// metrics — the schedule is a pure execution-strategy knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Always push: vertices route messages, the exchange delivers them.
    Push,
    /// Gather every superstep the program supports. Programs with no
    /// pullable superstep at all are rejected up front with
    /// [`PregelError::NotPullable`].
    Pull,
    /// Ligra/GraphIt-style density heuristic, decided per superstep: pull
    /// when the active frontier's expected out-edges exceed
    /// [`PregelConfig::dense_threshold`] × `|E|`, push otherwise.
    Auto,
}

impl Schedule {
    /// Reads `GM_SCHEDULE`; unset or unrecognized values mean `Push`.
    fn from_env() -> Self {
        std::env::var(ENV_SCHEDULE)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(Schedule::Push)
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            x if x.eq_ignore_ascii_case("push") => Ok(Schedule::Push),
            x if x.eq_ignore_ascii_case("pull") => Ok(Schedule::Pull),
            x if x.eq_ignore_ascii_case("auto") => Ok(Schedule::Auto),
            other => Err(format!("unknown schedule {other:?} (push|pull|auto)")),
        }
    }
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct PregelConfig {
    /// Number of workers (≥ 1). Vertices are split into this many
    /// contiguous, edge-balanced ranges; with more than one worker the
    /// vertex and exchange phases run on a persistent pool of threads.
    pub num_workers: usize,
    /// Safety limit on supersteps; exceeding it returns
    /// [`PregelError::SuperstepLimitExceeded`] instead of spinning forever.
    pub max_supersteps: u32,
    /// Optional trace destination. When set, the runtime emits structured
    /// per-worker, per-superstep events (phase spans, message and bucket
    /// counters, inbox high-water marks, compute-skew summaries) into it.
    /// When `None` — the default — instrumentation collapses to a single
    /// branch per phase, so the untraced hot path is unaffected.
    pub tracer: Option<Tracer>,
    /// Superstep-granular checkpointing. `None` (the default) disables
    /// snapshots entirely; see [`CheckpointConfig`] for interval, directory
    /// and resume semantics.
    pub checkpoint: Option<CheckpointConfig>,
    /// Deterministic fault injection for recovery testing. The default
    /// empty plan never trips and costs one atomic load per armed fault
    /// per phase (zero loads when empty).
    pub faults: FaultPlan,
    /// Retry policy for [`run_with_recovery`]; `None` makes it equivalent
    /// to a single [`run`] attempt. Plain [`run`] ignores this field.
    pub recovery: Option<RecoveryPolicy>,
    /// Resource limits: in-flight message bytes (spill-to-disk past the
    /// budget), superstep wall-clock, resident value-store bytes. The
    /// default is read from the environment
    /// ([`ResourceBudget::from_env`]), unbounded when the variables are
    /// unset.
    pub budget: ResourceBudget,
    /// Push/pull/auto message-movement strategy. The default is read from
    /// `GM_SCHEDULE` (push when unset).
    pub schedule: Schedule,
    /// `Schedule::Auto` cutoff: a superstep gathers when
    /// `active_vertices × avg_degree > dense_threshold × |E|`. The default
    /// is read from `GM_DENSE_THRESHOLD`, falling back to `0.05`.
    pub dense_threshold: f64,
    /// Crash forensics: when set, the runtime tees a bounded
    /// [`FlightRecorder`] behind the tracer (creating a recorder-only
    /// tracer when tracing is off) and, should the run end in a
    /// [`PregelError`], dumps the recent trace events together with config,
    /// metrics, and superstep counters into a fresh post-mortem bundle
    /// directory — the returned error then carries the bundle path
    /// ([`PregelError::PostMortem`]). The default is read from
    /// `GM_POST_MORTEM_DIR` ([`PostMortemConfig::from_env`]), off when
    /// unset.
    pub post_mortem: Option<PostMortemConfig>,
    /// Production metrics: when set, the runtime feeds this registry per
    /// superstep (phase-latency histograms, message/spill counters,
    /// frontier gauges, direction and recovery counts) so it can be scraped
    /// over HTTP or written as Prometheus text exposition while the job
    /// runs. One registry may be shared across many runs; counters
    /// accumulate.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Cooperative cancellation: when set, the coordinator checks this
    /// flag at the top of every superstep and aborts the run with
    /// [`PregelError::Cancelled`] once it is `true`. Long-lived hosts (the
    /// `gmd` daemon's drain path) share one token across jobs to stop
    /// stragglers at a superstep boundary instead of killing the process.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for PregelConfig {
    fn default() -> Self {
        PregelConfig {
            // One worker per available core. Use `with_workers` to pin an
            // explicit count (e.g. the old behaviour of capping at 4).
            num_workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            max_supersteps: 100_000,
            tracer: None,
            checkpoint: None,
            faults: FaultPlan::none(),
            recovery: None,
            budget: ResourceBudget::from_env(),
            schedule: Schedule::from_env(),
            dense_threshold: std::env::var(ENV_DENSE_THRESHOLD)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.05),
            post_mortem: PostMortemConfig::from_env(),
            registry: None,
            cancel: None,
        }
    }
}

impl PregelConfig {
    /// Single-threaded configuration, convenient for tests.
    pub fn sequential() -> Self {
        PregelConfig {
            num_workers: 1,
            ..Self::default()
        }
    }

    /// Configuration with an explicit worker count.
    pub fn with_workers(num_workers: usize) -> Self {
        PregelConfig {
            num_workers,
            ..Self::default()
        }
    }

    /// Attaches a trace destination.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables superstep-granular checkpointing.
    pub fn with_checkpoints(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Arms a fault-injection plan (testing only).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry policy used by [`run_with_recovery`].
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Replaces the resource budget (the default is read from the
    /// environment).
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the push/pull/auto schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the `Schedule::Auto` dense-frontier threshold.
    pub fn with_dense_threshold(mut self, threshold: f64) -> Self {
        self.dense_threshold = threshold;
        self
    }

    /// Enables post-mortem bundles (flight recorder + crash dump).
    pub fn with_post_mortem(mut self, post_mortem: PostMortemConfig) -> Self {
        self.post_mortem = Some(post_mortem);
        self
    }

    /// Attaches a metrics registry fed per superstep.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a cooperative cancellation token, checked at every
    /// superstep boundary.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// Errors surfaced by [`run`] and [`run_with_recovery`].
#[derive(Debug)]
pub enum PregelError {
    /// The master never halted within the configured superstep budget.
    SuperstepLimitExceeded {
        /// The configured limit.
        limit: u32,
    },
    /// Invalid [`PregelConfig`] (e.g. zero workers, zero checkpoint
    /// interval, zero superstep deadline).
    InvalidConfig(String),
    /// [`Schedule::Pull`] was requested for a program that reports no
    /// pullable vertex phase at all ([`VertexProgram::pull_supported`] is
    /// `false`). Refusing up front is the contract: silently running push
    /// would ignore the schedule, and gathering anyway would compute wrong
    /// answers. Not recoverable — retrying cannot make a program pullable.
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
        /// reporting (its job channel closed).
        worker: Option<u32>,
        /// The vertex whose kernel was running, when the panic struck
        /// inside the vertex loop.
        vertex: Option<u32>,
        /// The panic payload (or a placeholder for non-string payloads).
        detail: String,
    },
    /// A superstep overran [`ResourceBudget::superstep_deadline`]. The
    /// watchdog is cooperative — workers check between vertex kernels and
    /// delivery buckets, the coordinator at the barrier — so a hung phase
    /// becomes this error instead of a wedged barrier. Recoverable.
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
    /// The run was cancelled through [`PregelConfig::cancel`] — the
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
    /// An internal invariant of the runtime broke (e.g. a worker answered
    /// a compute job with a delivery reply). Never recoverable; indicates
    /// a runtime bug, not a program or resource failure.
    Internal(String),
    /// A failure for which a post-mortem bundle was written
    /// ([`PregelConfig::post_mortem`]): the wrapped `source` is the real
    /// failure, `bundle` the directory holding its forensics (recent trace
    /// events, config, metrics snapshot). Transparent for classification —
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
            PregelError::Internal(msg) => write!(f, "internal runtime error: {msg}"),
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
    /// Failures a [`run_with_recovery`] supervisor may retry: everything
    /// caused by a worker or a resource limit, nothing caused by bad
    /// configuration or a broken runtime invariant.
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
            PregelError::Internal(_) => "internal",
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
    fn with_post_mortem(self, bundle: Option<PathBuf>) -> PregelError {
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

/// Output of [`run`]: final vertex values in id order plus metrics.
#[derive(Debug, Clone)]
pub struct PregelResult<V> {
    /// Final per-vertex state, indexed by vertex id.
    pub values: Vec<V>,
    /// Superstep, message, phase-timing and byte counters.
    pub metrics: Metrics,
}

/// A raw outbox: one plain bucket per destination worker, as filled by the
/// vertex kernels. Also the shape of recycled spare buckets.
type RawOutbox<M> = Vec<Vec<(u32, M)>>;

/// One worker's drained incoming buckets, one per sender worker in
/// ascending sender order, handed back for capacity recycling.
type IncomingBuckets<M> = Vec<Vec<(u32, M)>>;

/// A sealed destination bucket after combine + metering: either resident
/// in memory, or spilled to a CRC-checked file with its (emptied) bucket
/// carried along so the capacity survives the round trip.
enum RoutedBucket<M> {
    Mem(Vec<(u32, M)>),
    Spilled {
        path: PathBuf,
        /// Entry count, validated against the file at replay.
        messages: u64,
        /// The drained bucket; replay decodes into it, so the allocation
        /// is recycled exactly like a resident bucket's.
        spare: Vec<(u32, M)>,
    },
}

/// One worker's sealed outgoing buckets, by destination worker.
type RoutedOutbox<M> = Vec<RoutedBucket<M>>;

/// One worker's incoming sealed buckets, one per sender worker in
/// ascending sender order.
type IncomingRouted<M> = Vec<RoutedBucket<M>>;

/// A worker-side phase failure, reported instead of a panic.
#[derive(Debug)]
enum WorkerFailure {
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

/// Renders a `catch_unwind` payload for error context.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl WorkerFailure {
    /// Attributes a caught panic to `worker` — and to the vertex the
    /// cursor was parked on, when the panic struck inside the vertex loop
    /// (the cursor is `u32::MAX` outside it).
    fn from_panic(
        worker: u32,
        cursor: Option<&AtomicU32>,
        payload: Box<dyn std::any::Any + Send>,
    ) -> Self {
        let vertex = cursor.and_then(|c| {
            let v = c.load(Ordering::Relaxed);
            (v != u32::MAX).then_some(v)
        });
        WorkerFailure::Panic {
            worker,
            vertex,
            detail: panic_detail(payload),
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

/// Wraps a failure that reproduced identically across the whole restart
/// budget in [`PregelError::Quarantined`], preserving its attribution.
fn quarantine(error: &PregelError, attempts: u32) -> PregelError {
    let (superstep, worker, vertex) = failure_site(error);
    PregelError::Quarantined {
        superstep,
        worker,
        vertex,
        attempts,
        detail: error.to_string(),
    }
}

/// Executes `program` on `graph` until the master halts.
///
/// `init` produces the initial value for each vertex.
///
/// # Checkpointing and resume
///
/// With [`PregelConfig::checkpoint`] set, the coordinator captures the
/// complete BSP frontier at the top of every `every`-th superstep and
/// writes it as a checksummed snapshot (see [`CheckpointConfig`]). When
/// the config additionally sets `resume`, the run first scans the
/// checkpoint directory and — if a valid snapshot exists — skips `init`
/// entirely and re-enters the superstep loop exactly where the snapshot
/// was taken; corrupt snapshots are discarded by checksum in favor of the
/// newest valid one. A resumed run continues as if uninterrupted: final
/// vertex values, superstep count, and message counters are identical to
/// a run that never stopped (for a fixed worker count; see Determinism).
///
/// # Errors
///
/// Returns [`PregelError::InvalidConfig`] for a zero worker count or zero
/// checkpoint interval, [`PregelError::SuperstepLimitExceeded`] if the
/// program never halts, [`PregelError::WorkerPanicked`] if a vertex
/// kernel (or injected fault) panics on a worker, and
/// [`PregelError::Checkpoint`] if a resume path cannot be completed.
///
/// # Determinism
///
/// For a fixed program, graph and seed the result is deterministic. Message
/// delivery order at each vertex is ascending in sender id regardless of
/// `num_workers`; integer and boolean aggregates are worker-count
/// independent. Floating-point `Sum` aggregates are reduced in vertex order
/// inside each worker and the per-worker partial sums are merged in
/// ascending worker order, so they are bit-reproducible for a fixed worker
/// count but may differ across worker counts by rounding (see
/// [`AggMap::merge`]).
pub fn run<P>(
    graph: &Graph,
    program: &mut P,
    init: impl Fn(NodeId) -> P::VertexValue,
    config: &PregelConfig,
) -> Result<PregelResult<P::VertexValue>, PregelError>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    run_inner(graph, program, &init, config).map_err(|failed| failed.error)
}

/// A failed attempt, carrying the cost the supervisor must account for:
/// the supersteps this attempt executed past its resume point (work that a
/// restart re-executes) and the wall-clock it burned.
struct FailedRun {
    error: PregelError,
    wasted_supersteps: u32,
    wasted_time: Duration,
}

impl FailedRun {
    /// A failure before any superstep ran (validation, resume decode).
    fn early(error: PregelError) -> Self {
        FailedRun {
            error,
            wasted_supersteps: 0,
            wasted_time: Duration::ZERO,
        }
    }
}

impl From<CkptError> for FailedRun {
    fn from(e: CkptError) -> Self {
        FailedRun::early(PregelError::Checkpoint(e))
    }
}

/// Final accounting for a failed superstep loop: counts the failure in the
/// metrics registry and, when post-mortems are enabled, writes the bundle
/// and wraps the error with its path. Forensics are best-effort — a bundle
/// that cannot be written never masks the run's real failure.
fn seal_failure(
    failed: FailedRun,
    config: &PregelConfig,
    graph: &Graph,
    metrics: &Metrics,
    recorder: Option<&FlightRecorder>,
) -> FailedRun {
    let FailedRun {
        error,
        wasted_supersteps,
        wasted_time,
    } = failed;
    if let Some(registry) = &config.registry {
        registry
            .counter_with(
                "gm_failures_total",
                "runs that ended in an error, by failure kind",
                &[("kind", error.kind())],
            )
            .inc();
    }
    let error = match &config.post_mortem {
        Some(pm) => match write_bundle(pm, &error, config, graph, metrics, recorder) {
            Ok(bundle) => PregelError::PostMortem {
                bundle,
                source: Box::new(error),
            },
            Err(_) => error,
        },
        None => error,
    };
    FailedRun {
        error,
        wasted_supersteps,
        wasted_time,
    }
}

fn run_inner<P>(
    graph: &Graph,
    program: &mut P,
    init: &impl Fn(NodeId) -> P::VertexValue,
    config: &PregelConfig,
) -> Result<PregelResult<P::VertexValue>, FailedRun>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    if config.num_workers == 0 {
        return Err(FailedRun::early(PregelError::InvalidConfig(
            "num_workers must be ≥ 1".into(),
        )));
    }
    if let Some(c) = &config.checkpoint {
        if c.every == 0 {
            return Err(FailedRun::early(PregelError::InvalidConfig(
                "checkpoint interval must be ≥ 1".into(),
            )));
        }
    }
    if config.budget.superstep_deadline == Some(Duration::ZERO) {
        return Err(FailedRun::early(PregelError::InvalidConfig(
            "superstep deadline must be nonzero".into(),
        )));
    }
    if config.schedule == Schedule::Pull && !program.pull_supported() {
        return Err(FailedRun::early(PregelError::NotPullable {
            detail: "the program reports no pullable vertex phase \
                     (every send targets computed destinations, or the payload \
                     reads receiver-local state)"
                .into(),
        }));
    }
    let n = graph.num_nodes() as usize;
    let num_workers = config.num_workers.min(n.max(1));
    let starts = partition(graph, num_workers);
    // Post-mortem capture: tee a bounded flight recorder behind whatever
    // tracer the caller configured (or trace into the recorder alone), so
    // the final moments of a crashed run are always on hand for the bundle.
    let recorder = config
        .post_mortem
        .as_ref()
        .map(|pm| Arc::new(FlightRecorder::new(pm.capacity)));
    let tracer_handle: Option<Tracer> = match (&config.tracer, &recorder) {
        (Some(t), Some(r)) => Some(t.with_extra_sink(r.clone())),
        (None, Some(r)) => Some(Tracer::new(r.clone())),
        (t, None) => t.clone(),
    };
    let tracer = tracer_handle.as_ref();
    let governor = Governor::new(&config.budget, num_workers)?;

    // Resume path: locate and decode the newest valid snapshot before any
    // state is initialized. Also opens the store for checkpoint writes.
    let mut resume: Option<ResumeState<P>> = None;
    let mut ckpt: Option<CkptRunner> = None;
    if let Some(c) = &config.checkpoint {
        let store = CheckpointStore::create(&c.dir)?;
        let mut runner = CkptRunner {
            store,
            every: c.every,
            keep: c.keep,
            skip: None,
            on_write: c.on_write.clone(),
        };
        if c.resume {
            let restore_started = Instant::now();
            let restore_start_us = tracer.map(Tracer::now_us);
            if let Some(rec) = runner.store.latest_valid()? {
                let mut rs = decode_snapshot::<P>(&rec.snapshot, graph, program)?;
                rs.metrics.recovery.restores += 1;
                if let Some(registry) = &config.registry {
                    registry
                        .counter("gm_restores_total", "successful snapshot restores")
                        .inc();
                }
                rs.metrics.recovery.corrupt_snapshots_discarded += rec.discarded;
                rs.metrics.recovery.restore_time += restore_started.elapsed();
                if let (Some(t), Some(ts)) = (tracer, restore_start_us) {
                    t.span_at(
                        "restore",
                        Category::Ckpt,
                        0,
                        ts,
                        restore_started.elapsed().as_micros() as u64,
                        vec![
                            ("superstep", rs.superstep.into()),
                            ("discarded", rec.discarded.into()),
                        ],
                    );
                }
                runner.skip = Some(rs.superstep);
                resume = Some(rs);
            } else if let Some(t) = tracer {
                // Nothing valid to resume from: start from scratch.
                t.instant("restore_empty", Category::Ckpt, 0, Vec::new());
            }
        }
        ckpt = Some(runner);
    }

    // Build worker states (halted flags + inboxes) and value stores either
    // from `init` or from the restored vertex-indexed vectors, re-split
    // across the current partition. The stores live in `Shared` behind
    // per-worker `RwLock`s: a worker writes only its own store (compute),
    // but gathered supersteps let every worker read every store.
    let (mut states, store_data, globals, drive_init, mut metrics): (
        Vec<WorkerState<P>>,
        Vec<VertexStore<P>>,
        Globals,
        DriveInit,
        Metrics,
    ) = match resume {
        None => (
            (0..num_workers)
                .map(|w| WorkerState::new(w, &starts))
                .collect(),
            (0..num_workers)
                .map(|w| {
                    let base = starts[w];
                    let len = (starts[w + 1] - base) as usize;
                    VertexStore::from_values(
                        (0..len).map(|i| init(NodeId(base + i as u32))).collect(),
                    )
                })
                .collect(),
            Globals::new(),
            DriveInit::fresh(graph.num_nodes()),
            Metrics::default(),
        ),
        Some(rs) => {
            let ResumeState {
                superstep,
                coord,
                metrics,
                mut values,
                mut halted,
                mut inboxes,
            } = rs;
            // Split the vertex-indexed vectors at the partition boundaries,
            // back to front so each split is O(tail).
            let mut states = Vec::with_capacity(num_workers);
            let mut store_data = Vec::with_capacity(num_workers);
            for w in (0..num_workers).rev() {
                let base = starts[w] as usize;
                states.push(WorkerState::from_restored(
                    w,
                    starts[w],
                    halted.split_off(base),
                    inboxes.split_off(base),
                ));
                store_data.push(VertexStore::from_values(values.split_off(base)));
            }
            states.reverse();
            store_data.reverse();
            let drive_init = DriveInit {
                superstep,
                active_vertices: coord.active_vertices,
                pending_messages: coord.pending_messages,
                agg_prev: coord.agg_prev,
            };
            (states, store_data, coord.globals, drive_init, metrics)
        }
    };

    let shared = Shared {
        graph,
        program: RwLock::new(program),
        globals: RwLock::new(globals),
        stores: store_data.into_iter().map(RwLock::new).collect(),
        tracer: tracer_handle.clone(),
        faults: config.faults.clone(),
        governor,
    };

    if num_workers == 1 {
        // Inline execution on the calling thread; same phase structure,
        // no pool.
        let Some(mut state) = states.pop() else {
            return Err(FailedRun::early(PregelError::Internal(
                "single-worker run built no worker state".into(),
            )));
        };
        let drive_result = drive(
            &shared,
            &starts,
            config,
            drive_init,
            ckpt,
            &mut metrics,
            |job| match job {
                PhaseJob::Compute {
                    superstep,
                    mut spares,
                    pull,
                    deadline_at,
                } => {
                    let program = read_lock(&shared.program);
                    let globals = read_lock(&shared.globals);
                    let spare = spares.pop().unwrap_or_default();
                    let cursor = AtomicU32::new(u32::MAX);
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        let mut store = write_lock(&shared.stores[0]);
                        state.compute_phase(
                            graph,
                            &**program,
                            &globals,
                            &mut store,
                            &starts,
                            superstep,
                            pull,
                            spare,
                            &shared.faults,
                            shared.tracer.as_ref(),
                            &shared.governor,
                            deadline_at,
                            &cursor,
                        )
                    }));
                    match out {
                        Ok(Ok(out)) => Ok(PhaseResult::Computed(vec![out])),
                        Ok(Err(failure)) => Err(PhaseFailure::Worker(failure)),
                        Err(payload) => Err(PhaseFailure::Worker(WorkerFailure::from_panic(
                            0,
                            Some(&cursor),
                            payload,
                        ))),
                    }
                }
                PhaseJob::Deliver {
                    mut incoming,
                    deadline_at,
                } => {
                    let Some(buckets) = incoming.pop() else {
                        return Err(PhaseFailure::MismatchedReply);
                    };
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        state.deliver_phase(buckets, shared.tracer.as_ref(), deadline_at)
                    }));
                    match out {
                        Ok(Ok(out)) => Ok(PhaseResult::Delivered(vec![out])),
                        Ok(Err(failure)) => Err(PhaseFailure::Worker(failure)),
                        Err(payload) => Err(PhaseFailure::Worker(WorkerFailure::from_panic(
                            0, None, payload,
                        ))),
                    }
                }
                PhaseJob::Gather {
                    superstep,
                    mode,
                    deadline_at,
                } => {
                    let program = read_lock(&shared.program);
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        state.gather_phase(
                            graph,
                            &**program,
                            &shared.stores,
                            &starts,
                            superstep,
                            mode,
                            shared.tracer.as_ref(),
                            deadline_at,
                        )
                    }));
                    match out {
                        Ok(Ok(out)) => Ok(PhaseResult::Gathered(vec![out])),
                        Ok(Err(failure)) => Err(PhaseFailure::Worker(failure)),
                        Err(payload) => Err(PhaseFailure::Worker(WorkerFailure::from_panic(
                            0, None, payload,
                        ))),
                    }
                }
                PhaseJob::Snapshot => {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        let store = read_lock(&shared.stores[0]);
                        state.snapshot_phase(&store.values, shared.tracer.as_ref())
                    }));
                    match out {
                        Ok(out) => Ok(PhaseResult::Snapshotted(vec![out])),
                        Err(payload) => Err(PhaseFailure::Worker(WorkerFailure::from_panic(
                            0, None, payload,
                        ))),
                    }
                }
            },
        );
        if let Err(failed) = drive_result {
            return Err(seal_failure(
                failed,
                config,
                graph,
                &metrics,
                recorder.as_deref(),
            ));
        }
        let values = std::mem::take(&mut write_lock(&shared.stores[0]).values);
        return Ok(PregelResult { values, metrics });
    }

    // Persistent worker pool: one thread per worker for the whole run,
    // parked on its job channel between phases.
    std::thread::scope(|scope| {
        let (reply_tx, reply_rx) = mpsc::channel::<Reply<P::Message>>();
        let mut job_txs: Vec<mpsc::Sender<Job<P::Message>>> = Vec::with_capacity(num_workers);
        let mut handles = Vec::with_capacity(num_workers);
        let shared_ref = &shared;
        let starts_ref: &[u32] = &starts;
        for (w, state) in states.into_iter().enumerate() {
            let (job_tx, job_rx) = mpsc::channel::<Job<P::Message>>();
            let worker_reply_tx = reply_tx.clone();
            job_txs.push(job_tx);
            handles.push(scope.spawn(move || {
                worker_loop(w, state, shared_ref, starts_ref, job_rx, worker_reply_tx)
            }));
        }
        drop(reply_tx);

        let drive_result = drive(
            &shared,
            &starts,
            config,
            drive_init,
            ckpt,
            &mut metrics,
            |job| match job {
                PhaseJob::Compute {
                    superstep,
                    spares,
                    pull,
                    deadline_at,
                } => {
                    let mut spares = spares.into_iter();
                    for tx in &job_txs {
                        let spare = spares.next().unwrap_or_default();
                        tx.send(Job::Compute {
                            superstep,
                            spare,
                            pull,
                            deadline_at,
                        })
                        .map_err(|_| PhaseFailure::ChannelClosed)?;
                    }
                    Ok(PhaseResult::Computed(collect_compute_replies(
                        &reply_rx,
                        num_workers,
                    )?))
                }
                PhaseJob::Deliver {
                    incoming,
                    deadline_at,
                } => {
                    for (tx, buckets) in job_txs.iter().zip(incoming) {
                        tx.send(Job::Deliver {
                            incoming: buckets,
                            deadline_at,
                        })
                        .map_err(|_| PhaseFailure::ChannelClosed)?;
                    }
                    Ok(PhaseResult::Delivered(collect_deliver_replies(
                        &reply_rx,
                        num_workers,
                    )?))
                }
                PhaseJob::Gather {
                    superstep,
                    mode,
                    deadline_at,
                } => {
                    for tx in &job_txs {
                        tx.send(Job::Gather {
                            superstep,
                            mode,
                            deadline_at,
                        })
                        .map_err(|_| PhaseFailure::ChannelClosed)?;
                    }
                    Ok(PhaseResult::Gathered(collect_gather_replies(
                        &reply_rx,
                        num_workers,
                    )?))
                }
                PhaseJob::Snapshot => {
                    for tx in &job_txs {
                        tx.send(Job::Snapshot)
                            .map_err(|_| PhaseFailure::ChannelClosed)?;
                    }
                    Ok(PhaseResult::Snapshotted(collect_snapshot_replies(
                        &reply_rx,
                        num_workers,
                    )?))
                }
            },
        );

        // Shut the pool down and join every worker whether the run
        // succeeded or a worker died; no thread may outlive the scope.
        for tx in &job_txs {
            let _ = tx.send(Job::Finish);
        }
        let mut join_panic = None;
        for handle in handles {
            if let Err(panic) = handle.join() {
                join_panic = Some(panic);
            }
        }
        if let Err(failed) = drive_result {
            return Err(seal_failure(
                failed,
                config,
                graph,
                &metrics,
                recorder.as_deref(),
            ));
        }
        if let Some(panic) = join_panic {
            // A panic escaped a worker's catch_unwind — not an injected or
            // kernel fault; re-raise it.
            std::panic::resume_unwind(panic);
        }
        // Every worker has parked; assemble the final values from the
        // shared stores in ascending worker order.
        let mut values = Vec::with_capacity(n);
        for store in &shared.stores {
            values.append(&mut write_lock(store).values);
        }
        Ok(PregelResult { values, metrics })
    })
}

/// Supervised execution: like [`run`], but on a recoverable failure (see
/// [`PregelError::is_recoverable`] — worker panics, deadline overruns,
/// budget exhaustion, spill I/O) the job is restarted — resuming from the
/// newest valid snapshot when checkpointing is configured, from scratch
/// otherwise — up to [`RecoveryPolicy::max_restarts`] times with linear
/// backoff. The program's master state is rolled back to its pre-run
/// baseline before each retry so the resume path replays it exactly.
///
/// A failure that reproduces *identically* on the initial run and on every
/// restart is deterministic — a poisoned vertex kernel, a sticky resource
/// overrun — and restarting again would loop forever. When the restart
/// budget runs out on such a streak, the supervisor returns
/// [`PregelError::Quarantined`] carrying the repeated failure's
/// superstep/worker/vertex attribution instead of the bare error.
///
/// With [`PregelConfig::recovery`] unset this is identical to [`run`].
/// Restart counts and the work thrown away by failed attempts are reported
/// in [`RecoveryStats`](crate::RecoveryStats) (`restarts`,
/// `wasted_supersteps`, `wasted_time`).
pub fn run_with_recovery<P>(
    graph: &Graph,
    program: &mut P,
    init: impl Fn(NodeId) -> P::VertexValue,
    config: &PregelConfig,
) -> Result<PregelResult<P::VertexValue>, PregelError>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    let Some(policy) = config.recovery.clone() else {
        return run(graph, program, &init, config);
    };
    // The master state must roll back together with the snapshot: a retry
    // that falls back to an older snapshot (or a fresh start) must not see
    // a master already mutated by the failed attempt.
    let mut baseline = Vec::new();
    program.save_master_state(&mut baseline);

    let mut config = config.clone();
    let mut attempt: u32 = 0;
    let mut wasted_supersteps: u32 = 0;
    let mut wasted_time = Duration::ZERO;
    // Rendered form of the last failure, and how many consecutive attempts
    // produced exactly it. A streak spanning every attempt is the
    // quarantine signal.
    let mut signature: Option<String> = None;
    let mut streak: u32 = 0;
    loop {
        match run_inner(graph, program, &init, &config) {
            Ok(mut result) => {
                result.metrics.recovery.restarts += attempt;
                result.metrics.recovery.wasted_supersteps += wasted_supersteps;
                result.metrics.recovery.wasted_time += wasted_time;
                return Ok(result);
            }
            Err(failed) => {
                let error = failed.error;
                if !error.is_recoverable() {
                    return Err(error);
                }
                wasted_supersteps += failed.wasted_supersteps;
                wasted_time += failed.wasted_time;
                // Detach any post-mortem bundle before comparing failure
                // signatures: each attempt writes a fresh bundle directory,
                // which would make identical failures look distinct. The
                // newest bundle is re-attached to whatever error escapes.
                let (error, bundle) = error.detach_post_mortem();
                let rendered = error.to_string();
                if signature.as_deref() == Some(rendered.as_str()) {
                    streak += 1;
                } else {
                    signature = Some(rendered);
                    streak = 1;
                }
                if attempt >= policy.max_restarts {
                    // Restart budget exhausted. If every attempt failed
                    // identically the failure is deterministic: quarantine
                    // it so callers can tell "retrying cannot help" apart
                    // from "ran out of luck".
                    if streak == attempt + 1 {
                        if let Some(r) = &config.registry {
                            r.counter("gm_quarantines_total", "deterministic failures quarantined")
                                .inc();
                        }
                        return Err(quarantine(&error, attempt + 1).with_post_mortem(bundle));
                    }
                    return Err(error.with_post_mortem(bundle));
                }
                attempt += 1;
                if let Some(r) = &config.registry {
                    r.counter("gm_restarts_total", "recovery restarts").inc();
                }
                if let Some(t) = config.tracer.as_ref() {
                    let (superstep, _, _) = failure_site(&error);
                    t.instant(
                        "restart",
                        Category::Ckpt,
                        0,
                        vec![("attempt", attempt.into()), ("superstep", superstep.into())],
                    );
                }
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * attempt);
                }
                let mut r = ByteReader::new(&baseline);
                program.restore_master_state(&mut r)?;
                // Retries resume from the newest valid snapshot.
                if let Some(c) = &mut config.checkpoint {
                    c.resume = true;
                }
            }
        }
    }
}

/// Read-only state shared with the worker pool. The program sits behind a
/// lock because the master kernel needs `&mut P` between phases while the
/// workers read `&P` during them; the lock is only ever contended across
/// phase boundaries, never within one.
struct Shared<'a, P: VertexProgram> {
    graph: &'a Graph,
    program: RwLock<&'a mut P>,
    globals: RwLock<Globals>,
    /// One per-vertex store per worker. A worker takes the write lock on
    /// its own store for compute/snapshot phases; gathered supersteps take
    /// read locks on all stores (phases are barrier-separated, so the two
    /// access patterns never overlap).
    stores: Vec<RwLock<VertexStore<P>>>,
    /// Trace destination, cloned out of the config; `None` disables all
    /// instrumentation at the cost of one branch per phase.
    tracer: Option<Tracer>,
    /// Fault-injection plan; the production default is empty and costs one
    /// slice iteration (over zero elements) per consultation.
    faults: FaultPlan,
    /// Resolved resource limits; entirely inactive (all `None`) unless the
    /// config sets a budget.
    governor: Governor,
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's per-vertex state, kept in [`Shared`] so gathered
/// supersteps can read other workers' vertices. `captured`/`sent` are
/// intra-superstep pull scratch: reset at the top of every gathered
/// compute phase and consumed by the same superstep's gather, so they
/// never need to be checkpointed.
struct VertexStore<P: VertexProgram> {
    values: Vec<P::VertexValue>,
    /// Captured broadcast payload per local vertex
    /// ([`PullMode::Captured`] supersteps).
    captured: Vec<Option<P::Message>>,
    /// Whether the vertex's send site fired
    /// ([`PullMode::Recomputed`] supersteps).
    sent: Vec<bool>,
}

impl<P: VertexProgram> VertexStore<P> {
    fn from_values(values: Vec<P::VertexValue>) -> Self {
        VertexStore {
            values,
            // Sized lazily at the first gathered superstep; push-only runs
            // never allocate them.
            captured: Vec::new(),
            sent: Vec::new(),
        }
    }
}

/// A phase dispatched by the BSP driver to its executor (inline or pool).
enum PhaseJob<M> {
    /// Run vertex kernels + combining for this superstep. `spares[w]` is
    /// worker `w`'s recycled outbox (empty buckets whose capacity was grown
    /// by earlier supersteps).
    Compute {
        superstep: u32,
        spares: Vec<RawOutbox<M>>,
        /// Pull sink the kernels run under: `Unsupported` routes (push),
        /// otherwise sends are absorbed into the worker's store for the
        /// gather that follows.
        pull: PullMode,
        /// Cooperative watchdog cutoff for this superstep, when budgeted.
        deadline_at: Option<Instant>,
    },
    /// Deliver routed buckets; `incoming[d]` is destination worker `d`'s
    /// bucket list in ascending sender order.
    Deliver {
        incoming: Vec<IncomingRouted<M>>,
        deadline_at: Option<Instant>,
    },
    /// Gathered replacement for the exchange: every worker walks its owned
    /// vertices' in-edges and reads the senders' messages in place.
    Gather {
        superstep: u32,
        mode: PullMode,
        deadline_at: Option<Instant>,
    },
    /// Serialize every worker's vertex range (values, halted flags,
    /// pending inbox) for a checkpoint.
    Snapshot,
}

/// Executor response, worker-ordered.
enum PhaseResult<M> {
    Computed(Vec<ComputeOut<M>>),
    Delivered(Vec<DeliverOut<M>>),
    Gathered(Vec<GatherOut>),
    Snapshotted(Vec<SnapshotOut>),
}

/// Why a phase lost a worker. The driver stamps the failing superstep on
/// top to produce the final [`PregelError`].
enum PhaseFailure {
    /// A worker reported a failure (caught panic, spill I/O error, or a
    /// tripped deadline check) and parked itself.
    Worker(WorkerFailure),
    /// A job or reply channel closed without a report: the worker died in
    /// a way even `catch_unwind` could not observe.
    ChannelClosed,
    /// The executor answered a phase with a different phase's result — a
    /// runtime bug, never a program failure.
    MismatchedReply,
}

/// One worker's serialized vertex range, concatenated across workers (in
/// ascending worker order) into the snapshot's vertex-indexed sections.
struct SnapshotOut {
    values: Vec<u8>,
    halted: Vec<u8>,
    inbox: Vec<u8>,
}

/// Where the superstep loop starts: superstep 0 with everything active for
/// a fresh run, or the restored frontier for a resumed one.
struct DriveInit {
    superstep: u32,
    active_vertices: u32,
    pending_messages: u64,
    agg_prev: AggMap,
}

impl DriveInit {
    fn fresh(num_nodes: u32) -> Self {
        DriveInit {
            superstep: 0,
            active_vertices: num_nodes,
            pending_messages: 0,
            agg_prev: AggMap::new(),
        }
    }
}

/// Coordinator-side checkpoint machinery for one run.
struct CkptRunner {
    store: CheckpointStore,
    every: u32,
    keep: usize,
    /// The superstep this run resumed at, whose snapshot (just read) must
    /// not be immediately rewritten.
    skip: Option<u32>,
    /// Invoked after each durable snapshot write (post fault injection).
    on_write: Option<Arc<dyn Fn(u32) + Send + Sync>>,
}

/// Stamps the failing superstep onto a [`PhaseFailure`] to produce the
/// run's final error.
fn failure_error(failure: PhaseFailure, superstep: u32, deadline: Option<Duration>) -> PregelError {
    match failure {
        PhaseFailure::Worker(WorkerFailure::Panic {
            worker,
            vertex,
            detail,
        }) => PregelError::WorkerPanicked {
            superstep,
            worker: Some(worker),
            vertex,
            detail,
        },
        PhaseFailure::Worker(WorkerFailure::Spill { worker, op, source }) => {
            PregelError::SpillFailed {
                superstep,
                worker,
                op,
                source,
            }
        }
        PhaseFailure::Worker(WorkerFailure::Deadline { worker }) => PregelError::DeadlineExceeded {
            superstep,
            worker: Some(worker),
            deadline: deadline.unwrap_or_default(),
        },
        PhaseFailure::ChannelClosed => PregelError::WorkerPanicked {
            superstep,
            worker: None,
            vertex: None,
            detail: "worker channel closed without a reply".into(),
        },
        PhaseFailure::MismatchedReply => PregelError::Internal(format!(
            "executor answered superstep {superstep} with a mismatched phase result"
        )),
    }
}

/// The BSP superstep loop, common to the inline and pooled executors.
/// `phase` runs one phase across all workers and returns their outputs in
/// ascending worker order, or the [`PhaseFailure`] that lost a worker.
///
/// `metrics` is borrowed rather than owned so that on failure the caller
/// still holds everything accumulated up to the failing superstep — the
/// post-mortem bundle snapshots it.
fn drive<P, F>(
    shared: &Shared<'_, P>,
    starts: &[u32],
    config: &PregelConfig,
    init: DriveInit,
    mut ckpt: Option<CkptRunner>,
    metrics: &mut Metrics,
    mut phase: F,
) -> Result<(), FailedRun>
where
    P: VertexProgram,
    F: FnMut(PhaseJob<P::Message>) -> Result<PhaseResult<P::Message>, PhaseFailure>,
{
    let num_workers = starts.len() - 1;
    let num_nodes = shared.graph.num_nodes();
    let tracer = shared.tracer.as_ref();
    let feed = config.registry.as_ref().map(|r| RegistryFeed::new(r));
    // Direction of the last *executed* superstep, restored across resumes,
    // for the registry's switch counter.
    let mut last_pulled: Option<bool> = metrics.per_superstep.last().map(|s| s.pulled);
    let DriveInit {
        mut superstep,
        mut active_vertices,
        mut pending_messages,
        mut agg_prev,
    } = init;
    let start = Instant::now();
    // Work past this attempt's entry point is lost on failure: a restart
    // re-executes it from the resume superstep (or from scratch).
    let first_superstep = superstep;
    let fail = |error: PregelError, at: u32| FailedRun {
        error,
        wasted_supersteps: at - first_superstep,
        wasted_time: start.elapsed(),
    };

    // Empty outbox buckets recycled from the previous exchange, per sender.
    let mut spares: Vec<RawOutbox<P::Message>> = (0..num_workers).map(|_| Vec::new()).collect();

    loop {
        if superstep >= config.max_supersteps {
            return Err(fail(
                PregelError::SuperstepLimitExceeded {
                    limit: config.max_supersteps,
                },
                superstep,
            ));
        }
        if let Some(cancel) = &config.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(fail(PregelError::Cancelled { superstep }, superstep));
            }
        }

        // ---- checkpoint (coordinator + workers, before the master) ----
        // Taken at the top of the superstep so the snapshot is exactly the
        // state a resumed run needs to re-enter the loop here: `agg_prev`
        // still holds the previous superstep's aggregates and the inboxes
        // hold this superstep's undelivered messages.
        if let Some(ck) = &mut ckpt {
            if superstep > 0 && superstep % ck.every == 0 && ck.skip != Some(superstep) {
                let ckpt_start_us = tracer.map(Tracer::now_us);
                let ckpt_started = Instant::now();
                let outs = match phase(PhaseJob::Snapshot).map_err(|f| {
                    fail(
                        failure_error(f, superstep, shared.governor.deadline),
                        superstep,
                    )
                })? {
                    PhaseResult::Snapshotted(outs) => outs,
                    _ => {
                        return Err(fail(
                            failure_error(PhaseFailure::MismatchedReply, superstep, None),
                            superstep,
                        ))
                    }
                };
                let (mut values, mut halted, mut inbox) = (Vec::new(), Vec::new(), Vec::new());
                for out in outs {
                    values.extend_from_slice(&out.values);
                    halted.extend_from_slice(&out.halted);
                    inbox.extend_from_slice(&out.inbox);
                }
                let mut master = Vec::new();
                read_lock(&shared.program).save_master_state(&mut master);
                let coord = CoordState {
                    active_vertices,
                    pending_messages,
                    agg_prev: agg_prev.clone(),
                    globals: read_lock(&shared.globals).clone(),
                };
                // The snapshot's metrics carry the wall-clock accumulated
                // so far, so a resumed run reports end-to-end totals.
                let mut snap_metrics = metrics.clone();
                snap_metrics.elapsed += start.elapsed();
                if shared.faults.trip_fail_checkpoint_write(superstep) {
                    metrics.recovery.checkpoint_failures += 1;
                    if let Some(f) = &feed {
                        f.record_checkpoint(false);
                    }
                    if let Some(t) = tracer {
                        t.instant(
                            "checkpoint_failed",
                            Category::Ckpt,
                            0,
                            vec![("superstep", superstep.into()), ("injected", true.into())],
                        );
                    }
                } else {
                    let builder = build_snapshot(
                        superstep,
                        num_nodes,
                        &coord,
                        master,
                        values,
                        halted,
                        inbox,
                        &snap_metrics,
                    );
                    match ck.store.write(&builder, superstep) {
                        Ok((path, bytes)) => {
                            metrics.recovery.checkpoints_written += 1;
                            metrics.recovery.snapshot_bytes += bytes;
                            if let Some(f) = &feed {
                                f.record_checkpoint(true);
                            }
                            let mut corrupted = false;
                            if let Ok(Some(what)) =
                                shared.faults.corrupt_after_write(superstep, &path)
                            {
                                corrupted = true;
                                if let Some(t) = tracer {
                                    t.instant(
                                        "snapshot_corrupted",
                                        Category::Ckpt,
                                        0,
                                        vec![
                                            ("superstep", superstep.into()),
                                            ("what", what.into()),
                                        ],
                                    );
                                }
                            }
                            if !corrupted {
                                if let Some(cb) = &ck.on_write {
                                    cb(superstep);
                                }
                            }
                            // A failed prune never fails the run.
                            let _ = ck.store.prune(ck.keep);
                            if let (Some(t), Some(ts)) = (tracer, ckpt_start_us) {
                                t.span_at(
                                    "checkpoint",
                                    Category::Ckpt,
                                    0,
                                    ts,
                                    ckpt_started.elapsed().as_micros() as u64,
                                    vec![("superstep", superstep.into()), ("bytes", bytes.into())],
                                );
                            }
                        }
                        Err(_) => {
                            // A failed snapshot write is not fatal — the run
                            // proceeds with one fewer recovery point.
                            metrics.recovery.checkpoint_failures += 1;
                            if let Some(f) = &feed {
                                f.record_checkpoint(false);
                            }
                            if let Some(t) = tracer {
                                t.instant(
                                    "checkpoint_failed",
                                    Category::Ckpt,
                                    0,
                                    vec![("superstep", superstep.into())],
                                );
                            }
                        }
                    }
                }
                metrics.recovery.checkpoint_time += ckpt_started.elapsed();
            }
        }

        // ---- master phase (sequential) ----
        // The watchdog clock starts here: one deadline covers the whole
        // superstep (master, compute, exchange, barrier) but not the
        // checkpoint above, whose cost is governed by the snapshot policy.
        let deadline_at = shared.governor.deadline.map(|d| Instant::now() + d);
        let step_start_us = tracer.map(Tracer::now_us);
        let master_started = Instant::now();
        let decision = {
            let mut program = write_lock(&shared.program);
            let mut globals = write_lock(&shared.globals);
            let mut mctx = MasterContext {
                superstep,
                aggregates: &agg_prev,
                broadcast: &mut globals,
                num_nodes,
                active_vertices,
                pending_messages,
            };
            program.master_compute(&mut mctx)
        };
        let master_time = master_started.elapsed();
        metrics.supersteps = superstep + 1;
        if let (Some(t), Some(ts)) = (tracer, step_start_us) {
            t.span_at(
                "master",
                Category::Runtime,
                0,
                ts,
                master_time.as_micros() as u64,
                vec![("superstep", superstep.into())],
            );
        }
        // Explicit halt, or Pregel's default termination: every vertex
        // inactive and no messages in flight.
        if decision == MasterDecision::Halt || (active_vertices == 0 && pending_messages == 0) {
            metrics.master_time += master_time;
            if let Some(t) = tracer {
                t.instant(
                    "halt",
                    Category::Runtime,
                    0,
                    vec![
                        ("superstep", superstep.into()),
                        ("active", active_vertices.into()),
                        ("pending", pending_messages.into()),
                    ],
                );
            }
            break;
        }

        // ---- direction decision (push vs gathered superstep) ----
        // Decided after the master so state-machine programs answer
        // `pull_mode` for the phase the master just selected.
        let mode = match config.schedule {
            Schedule::Push => PullMode::Unsupported,
            Schedule::Pull => read_lock(&shared.program).pull_mode(),
            Schedule::Auto => {
                let m = read_lock(&shared.program).pull_mode();
                if m == PullMode::Unsupported {
                    m
                } else {
                    // Ligra/GraphIt density heuristic: gather when the
                    // frontier's expected out-edges exceed the configured
                    // fraction of |E| (dense frontier), push otherwise.
                    let edges = shared.graph.num_edges() as f64;
                    let avg_degree = edges / f64::from(num_nodes.max(1));
                    let frontier_edges = f64::from(active_vertices) * avg_degree;
                    if frontier_edges > config.dense_threshold * edges {
                        m
                    } else {
                        PullMode::Unsupported
                    }
                }
            }
        };
        let pulled = mode != PullMode::Unsupported;
        if config.schedule != Schedule::Push {
            if let Some(t) = tracer {
                t.instant(
                    "direction",
                    Category::Runtime,
                    0,
                    vec![
                        ("superstep", superstep.into()),
                        ("pull", pulled.into()),
                        ("active", active_vertices.into()),
                    ],
                );
            }
        }

        // ---- vertex + combine phase (parallel) ----
        let job = PhaseJob::Compute {
            superstep,
            spares: std::mem::take(&mut spares),
            pull: mode,
            deadline_at,
        };
        let computes = match phase(job).map_err(|f| {
            fail(
                failure_error(f, superstep, shared.governor.deadline),
                superstep,
            )
        })? {
            PhaseResult::Computed(outs) => outs,
            _ => {
                return Err(fail(
                    failure_error(PhaseFailure::MismatchedReply, superstep, None),
                    superstep,
                ))
            }
        };

        // ---- barrier: merge worker outputs in ascending worker order ----
        let mut step = SuperstepMetrics {
            master_time,
            pulled,
            ..SuperstepMetrics::default()
        };
        agg_prev = AggMap::new();
        let mut not_halted: u32 = 0;
        let mut step_spilled_bytes: u64 = 0;
        for out in &computes {
            agg_prev.merge(&out.agg);
            step.active_vertices += out.computed;
            not_halted += out.not_halted;
            step.messages_sent += out.messages_sent;
            step.message_bytes += out.message_bytes;
            step.remote_messages += out.remote_messages;
            step.remote_message_bytes += out.remote_message_bytes;
            step.compute_time = step.compute_time.max(out.compute_time);
            step.combine_time = step.combine_time.max(out.combine_time);
            step_spilled_bytes += out.spilled_message_bytes;
            metrics.spill.buckets_spilled += out.buckets_spilled;
            metrics.spill.spilled_message_bytes += out.spilled_message_bytes;
            metrics.spill.spill_file_bytes += out.spill_file_bytes;
            metrics.spill.spill_write_time += out.spill_write_time;
        }
        // What actually stayed resident this superstep: the metered bytes
        // minus whatever was pushed out to disk. (Spilling happens after
        // metering, so `message_bytes` itself is spill-invariant.)
        let in_flight_bytes = step.message_bytes - step_spilled_bytes;
        metrics.spill.peak_in_flight_bytes =
            metrics.spill.peak_in_flight_bytes.max(in_flight_bytes);
        if let Some(t) = tracer {
            if shared.governor.share_per_worker.is_some() {
                t.counter(
                    "in_flight_bytes",
                    Category::Budget,
                    vec![
                        ("superstep", superstep.into()),
                        ("bytes", in_flight_bytes.into()),
                        ("spilled", step_spilled_bytes.into()),
                    ],
                );
            }
        }
        if let Some(t) = tracer {
            // Compute-skew summary: the barrier waits for the slowest
            // worker, so max/mean spread is wasted wall-clock.
            let max_us = step.compute_time.as_micros() as u64;
            let sum_us: u64 = computes
                .iter()
                .map(|o| o.compute_time.as_micros() as u64)
                .sum();
            let mean_us = sum_us / computes.len().max(1) as u64;
            t.counter(
                "compute_skew",
                Category::Runtime,
                vec![
                    ("superstep", superstep.into()),
                    ("max_us", max_us.into()),
                    ("mean_us", mean_us.into()),
                ],
            );
        }

        pending_messages = 0;
        let mut reactivated: u32 = 0;
        if pulled {
            // ---- gather phase: receivers pull over in-edges ----
            // No buckets crossed worker boundaries (sends were absorbed at
            // the sink), so the exchange slot runs a gather instead: every
            // worker reads all value stores and folds its own inboxes. The
            // untouched outbox buckets go straight back to their senders.
            let gather_start_us = tracer.map(Tracer::now_us);
            let gather_started = Instant::now();
            spares = (0..num_workers).map(|_| Vec::new()).collect();
            for (sender, out) in computes.into_iter().enumerate() {
                for bucket in out.outbox {
                    spares[sender].push(match bucket {
                        RoutedBucket::Mem(b) => b,
                        RoutedBucket::Spilled { spare, .. } => spare,
                    });
                }
            }
            let gathers = match phase(PhaseJob::Gather {
                superstep,
                mode,
                deadline_at,
            })
            .map_err(|f| {
                fail(
                    failure_error(f, superstep, shared.governor.deadline),
                    superstep,
                )
            })? {
                PhaseResult::Gathered(outs) => outs,
                _ => {
                    return Err(fail(
                        failure_error(PhaseFailure::MismatchedReply, superstep, None),
                        superstep,
                    ))
                }
            };
            step.exchange_time = gather_started.elapsed();
            for out in &gathers {
                pending_messages += out.delivered;
                reactivated += out.reactivated;
                step.messages_sent += out.messages_sent;
                step.message_bytes += out.message_bytes;
                step.remote_messages += out.remote_messages;
                step.remote_message_bytes += out.remote_message_bytes;
            }
            if let (Some(t), Some(ts)) = (tracer, gather_start_us) {
                t.span_at(
                    "gather",
                    Category::Runtime,
                    0,
                    ts,
                    step.exchange_time.as_micros() as u64,
                    vec![
                        ("superstep", superstep.into()),
                        ("messages", step.messages_sent.into()),
                        ("remote", step.remote_messages.into()),
                    ],
                );
            }
            // Gathered messages never sit in a combine→delivery window, so
            // they bypass the in-flight budget entirely; account for what
            // the governor never saw.
            if shared.governor.share_per_worker.is_some() {
                metrics.spill.pull_bypassed_supersteps += 1;
                metrics.spill.pull_bypassed_bytes += step.message_bytes;
            }
        } else {
            // ---- exchange phase: route buckets, deliver in parallel ----
            // The transpose moves whole buckets (sender → destination), never
            // individual messages; delivery below moves the messages once.
            let exchange_start_us = tracer.map(Tracer::now_us);
            let exchange_started = Instant::now();
            let mut incoming: Vec<IncomingRouted<P::Message>> = (0..num_workers)
                .map(|_| Vec::with_capacity(num_workers))
                .collect();
            for out in computes {
                for (dest, bucket) in out.outbox.into_iter().enumerate() {
                    incoming[dest].push(bucket);
                }
            }
            let delivers = match phase(PhaseJob::Deliver {
                incoming,
                deadline_at,
            })
            .map_err(|f| {
                fail(
                    failure_error(f, superstep, shared.governor.deadline),
                    superstep,
                )
            })? {
                PhaseResult::Delivered(outs) => outs,
                _ => {
                    return Err(fail(
                        failure_error(PhaseFailure::MismatchedReply, superstep, None),
                        superstep,
                    ))
                }
            };
            step.exchange_time = exchange_started.elapsed();
            if let (Some(t), Some(ts)) = (tracer, exchange_start_us) {
                t.span_at(
                    "exchange",
                    Category::Runtime,
                    0,
                    ts,
                    step.exchange_time.as_micros() as u64,
                    vec![
                        ("superstep", superstep.into()),
                        ("messages", step.messages_sent.into()),
                        ("remote", step.remote_messages.into()),
                    ],
                );
            }

            spares = (0..num_workers)
                .map(|_| Vec::with_capacity(num_workers))
                .collect();
            for out in delivers {
                pending_messages += out.delivered;
                reactivated += out.reactivated;
                metrics.spill.files_replayed += out.files_replayed;
                metrics.spill.spill_read_time += out.spill_read_time;
                // Reverse transpose: destination `d` drained buckets from every
                // sender; hand each empty bucket back to its sender for reuse.
                for (sender, bucket) in out.spent.into_iter().enumerate() {
                    spares[sender].push(bucket);
                }
            }
        }
        active_vertices = not_halted + reactivated;

        // ---- barrier governance checks (coordinator) ----
        // Resident estimate: the value store plus the messages now parked
        // in the inboxes for the next superstep. An injected OOM fault
        // reports the check as failed regardless of real usage.
        let oom_injected = shared.faults.trip_oom_at_barrier(superstep);
        if shared.governor.max_resident_bytes.is_some() || oom_injected {
            let used = num_nodes as u64 * std::mem::size_of::<P::VertexValue>() as u64
                + pending_messages * std::mem::size_of::<P::Message>() as u64;
            let budget = shared.governor.max_resident_bytes.unwrap_or(0);
            if oom_injected || used > budget {
                return Err(fail(
                    PregelError::BudgetExceeded {
                        superstep,
                        what: "resident value-store bytes",
                        used: used.max(budget.saturating_add(1)),
                        budget,
                    },
                    superstep,
                ));
            }
        }
        // Coordinator-side watchdog: catches a superstep that overran its
        // deadline between two worker self-checks.
        if let (Some(at), Some(deadline)) = (deadline_at, shared.governor.deadline) {
            if Instant::now() >= at {
                return Err(fail(
                    PregelError::DeadlineExceeded {
                        superstep,
                        worker: None,
                        deadline,
                    },
                    superstep,
                ));
            }
        }

        // The residual between the measured superstep wall-clock and the
        // four metered phases: job dispatch, reply collection, and barrier
        // waiting. Saturating because the per-worker maxima of compute and
        // combine can land on different workers.
        let wall = master_started.elapsed();
        step.barrier_time = wall.saturating_sub(
            step.master_time + step.compute_time + step.combine_time + step.exchange_time,
        );
        if let (Some(t), Some(ts)) = (tracer, step_start_us) {
            t.span_at(
                "superstep",
                Category::Runtime,
                0,
                ts,
                wall.as_micros() as u64,
                vec![
                    ("superstep", superstep.into()),
                    ("computed", step.active_vertices.into()),
                    ("messages", step.messages_sent.into()),
                ],
            );
            t.counter(
                "active_vertices",
                Category::Runtime,
                vec![("active", active_vertices.into())],
            );
        }

        if let Some(f) = &feed {
            let switched = last_pulled.is_some_and(|p| p != step.pulled);
            f.record_superstep(
                &step,
                wall,
                active_vertices,
                num_nodes,
                step_spilled_bytes,
                switched,
            );
        }
        last_pulled = Some(step.pulled);

        metrics.record(step);
        superstep += 1;
    }

    // `+=` so a resumed run accumulates on top of the restored elapsed.
    metrics.elapsed += start.elapsed();
    Ok(())
}

/// Per-worker results of one compute + combine phase.
struct ComputeOut<M> {
    agg: AggMap,
    /// Vertices whose kernel ran.
    computed: u32,
    /// Vertices in this range left unhalted after the kernel ran.
    not_halted: u32,
    /// Outgoing messages, bucketed by destination worker, combined and
    /// metered.
    outbox: RoutedOutbox<M>,
    messages_sent: u64,
    message_bytes: u64,
    remote_messages: u64,
    remote_message_bytes: u64,
    compute_time: Duration,
    combine_time: Duration,
    /// Sealed buckets this worker pushed to disk to honor its budget share.
    buckets_spilled: u64,
    /// Metered message bytes inside those buckets (already counted in
    /// `message_bytes`; spilling never changes the structural metrics).
    spilled_message_bytes: u64,
    /// On-disk size of the spill files (payload + magic + checksum).
    spill_file_bytes: u64,
    spill_write_time: Duration,
}

/// Per-worker results of one delivery phase.
struct DeliverOut<M> {
    /// Messages moved into this worker's inbox (next superstep's pending).
    delivered: u64,
    /// Halted vertices reactivated by a delivered message.
    reactivated: u32,
    /// Drained buckets (in sender order) handed back so their capacity can
    /// be recycled into the senders' next outboxes.
    spent: IncomingBuckets<M>,
    /// Spill files replayed (and deleted) during this delivery.
    files_replayed: u64,
    spill_read_time: Duration,
}

/// Per-worker results of one gather phase (a gathered superstep's
/// replacement for exchange + delivery). The message counters meter what
/// the equivalent push superstep would have put on the wire, per
/// sender-worker segment, so structural metrics stay bit-identical
/// across schedules.
struct GatherOut {
    /// Messages folded into this worker's inboxes (next superstep's
    /// pending).
    delivered: u64,
    /// Halted vertices reactivated by a gathered message.
    reactivated: u32,
    messages_sent: u64,
    message_bytes: u64,
    /// Messages whose sender lives on a different worker.
    remote_messages: u64,
    remote_message_bytes: u64,
}

/// Jobs sent to a pooled worker.
enum Job<M> {
    Compute {
        superstep: u32,
        spare: RawOutbox<M>,
        pull: PullMode,
        deadline_at: Option<Instant>,
    },
    Deliver {
        incoming: IncomingRouted<M>,
        deadline_at: Option<Instant>,
    },
    Gather {
        superstep: u32,
        mode: PullMode,
        deadline_at: Option<Instant>,
    },
    Snapshot,
    Finish,
}

/// Replies from a pooled worker.
enum Reply<M> {
    Computed {
        worker: usize,
        out: ComputeOut<M>,
    },
    Delivered {
        worker: usize,
        out: DeliverOut<M>,
    },
    Gathered {
        worker: usize,
        out: GatherOut,
    },
    Snapshotted {
        worker: usize,
        out: SnapshotOut,
    },
    /// The worker failed this phase (caught panic, spill error, deadline)
    /// and parked itself; the driver aborts the run with the details.
    Failed(WorkerFailure),
}

fn collect_compute_replies<M>(
    reply_rx: &mpsc::Receiver<Reply<M>>,
    num_workers: usize,
) -> Result<Vec<ComputeOut<M>>, PhaseFailure> {
    let mut outs: Vec<Option<ComputeOut<M>>> = (0..num_workers).map(|_| None).collect();
    for _ in 0..num_workers {
        match reply_rx.recv() {
            Ok(Reply::Computed { worker, out }) => outs[worker] = Some(out),
            Ok(Reply::Failed(failure)) => return Err(PhaseFailure::Worker(failure)),
            Err(_) => return Err(PhaseFailure::ChannelClosed),
            Ok(_) => return Err(PhaseFailure::MismatchedReply),
        }
    }
    outs.into_iter()
        .map(|o| o.ok_or(PhaseFailure::MismatchedReply))
        .collect()
}

fn collect_deliver_replies<M>(
    reply_rx: &mpsc::Receiver<Reply<M>>,
    num_workers: usize,
) -> Result<Vec<DeliverOut<M>>, PhaseFailure> {
    let mut outs: Vec<Option<DeliverOut<M>>> = (0..num_workers).map(|_| None).collect();
    for _ in 0..num_workers {
        match reply_rx.recv() {
            Ok(Reply::Delivered { worker, out }) => outs[worker] = Some(out),
            Ok(Reply::Failed(failure)) => return Err(PhaseFailure::Worker(failure)),
            Err(_) => return Err(PhaseFailure::ChannelClosed),
            Ok(_) => return Err(PhaseFailure::MismatchedReply),
        }
    }
    outs.into_iter()
        .map(|o| o.ok_or(PhaseFailure::MismatchedReply))
        .collect()
}

fn collect_gather_replies<M>(
    reply_rx: &mpsc::Receiver<Reply<M>>,
    num_workers: usize,
) -> Result<Vec<GatherOut>, PhaseFailure> {
    let mut outs: Vec<Option<GatherOut>> = (0..num_workers).map(|_| None).collect();
    for _ in 0..num_workers {
        match reply_rx.recv() {
            Ok(Reply::Gathered { worker, out }) => outs[worker] = Some(out),
            Ok(Reply::Failed(failure)) => return Err(PhaseFailure::Worker(failure)),
            Err(_) => return Err(PhaseFailure::ChannelClosed),
            Ok(_) => return Err(PhaseFailure::MismatchedReply),
        }
    }
    outs.into_iter()
        .map(|o| o.ok_or(PhaseFailure::MismatchedReply))
        .collect()
}

fn collect_snapshot_replies<M>(
    reply_rx: &mpsc::Receiver<Reply<M>>,
    num_workers: usize,
) -> Result<Vec<SnapshotOut>, PhaseFailure> {
    let mut outs: Vec<Option<SnapshotOut>> = (0..num_workers).map(|_| None).collect();
    for _ in 0..num_workers {
        match reply_rx.recv() {
            Ok(Reply::Snapshotted { worker, out }) => outs[worker] = Some(out),
            Ok(Reply::Failed(failure)) => return Err(PhaseFailure::Worker(failure)),
            Err(_) => return Err(PhaseFailure::ChannelClosed),
            Ok(_) => return Err(PhaseFailure::MismatchedReply),
        }
    }
    outs.into_iter()
        .map(|o| o.ok_or(PhaseFailure::MismatchedReply))
        .collect()
}

/// Body of a pooled worker thread: park on the job channel, execute phases
/// against the locally-owned state, return the state at shutdown so the
/// coordinator can assemble the final values.
fn worker_loop<P>(
    index: usize,
    mut state: WorkerState<P>,
    shared: &Shared<'_, P>,
    starts: &[u32],
    jobs: mpsc::Receiver<Job<P::Message>>,
    replies: mpsc::Sender<Reply<P::Message>>,
) -> WorkerState<P>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    while let Ok(job) = jobs.recv() {
        let reply = match job {
            Job::Compute {
                superstep,
                spare,
                pull,
                deadline_at,
            } => {
                let cursor = AtomicU32::new(u32::MAX);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let program = read_lock(&shared.program);
                    let globals = read_lock(&shared.globals);
                    let mut store = write_lock(&shared.stores[index]);
                    state.compute_phase(
                        shared.graph,
                        &**program,
                        &globals,
                        &mut store,
                        starts,
                        superstep,
                        pull,
                        spare,
                        &shared.faults,
                        shared.tracer.as_ref(),
                        &shared.governor,
                        deadline_at,
                        &cursor,
                    )
                }));
                match out {
                    Ok(Ok(out)) => Reply::Computed { worker: index, out },
                    Ok(Err(failure)) => Reply::Failed(failure),
                    Err(payload) => Reply::Failed(WorkerFailure::from_panic(
                        index as u32,
                        Some(&cursor),
                        payload,
                    )),
                }
            }
            Job::Deliver {
                incoming,
                deadline_at,
            } => {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    state.deliver_phase(incoming, shared.tracer.as_ref(), deadline_at)
                }));
                match out {
                    Ok(Ok(out)) => Reply::Delivered { worker: index, out },
                    Ok(Err(failure)) => Reply::Failed(failure),
                    Err(payload) => {
                        Reply::Failed(WorkerFailure::from_panic(index as u32, None, payload))
                    }
                }
            }
            Job::Gather {
                superstep,
                mode,
                deadline_at,
            } => {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let program = read_lock(&shared.program);
                    state.gather_phase(
                        shared.graph,
                        &**program,
                        &shared.stores,
                        starts,
                        superstep,
                        mode,
                        shared.tracer.as_ref(),
                        deadline_at,
                    )
                }));
                match out {
                    Ok(Ok(out)) => Reply::Gathered { worker: index, out },
                    Ok(Err(failure)) => Reply::Failed(failure),
                    Err(payload) => {
                        Reply::Failed(WorkerFailure::from_panic(index as u32, None, payload))
                    }
                }
            }
            Job::Snapshot => {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let store = read_lock(&shared.stores[index]);
                    state.snapshot_phase(&store.values, shared.tracer.as_ref())
                }));
                match out {
                    Ok(out) => Reply::Snapshotted { worker: index, out },
                    Err(payload) => {
                        Reply::Failed(WorkerFailure::from_panic(index as u32, None, payload))
                    }
                }
            }
            Job::Finish => break,
        };
        let failed = matches!(reply, Reply::Failed(_));
        if replies.send(reply).is_err() || failed {
            break;
        }
    }
    state
}

/// A worker's share of the computation: a contiguous vertex range with its
/// halted flags and double-buffered inboxes. Owned by one pool thread for
/// the whole run (or by the calling thread when single-worker). The vertex
/// values live apart in [`Shared::stores`] so gathered supersteps can read
/// every range.
struct WorkerState<P: VertexProgram> {
    index: usize,
    base: u32,
    halted: Vec<bool>,
    /// Messages being consumed by this superstep's vertex kernels.
    inbox_in: Vec<Vec<P::Message>>,
    /// Messages delivered for the next superstep; swapped with `inbox_in`
    /// at the end of each delivery, retaining both buffers' capacity.
    inbox_out: Vec<Vec<P::Message>>,
}

impl<P: VertexProgram> WorkerState<P> {
    fn new(index: usize, starts: &[u32]) -> Self {
        let base = starts[index];
        let len = (starts[index + 1] - base) as usize;
        WorkerState {
            index,
            base,
            halted: vec![false; len],
            inbox_in: (0..len).map(|_| Vec::new()).collect(),
            inbox_out: (0..len).map(|_| Vec::new()).collect(),
        }
    }

    /// Rebuilds a worker's state from a snapshot's vertex-indexed slices.
    /// The restored inbox becomes `inbox_in`: it holds the messages the
    /// checkpointed superstep was about to consume.
    fn from_restored(
        index: usize,
        base: u32,
        halted: Vec<bool>,
        inbox_in: Vec<Vec<P::Message>>,
    ) -> Self {
        let len = halted.len();
        WorkerState {
            index,
            base,
            halted,
            inbox_in,
            inbox_out: (0..len).map(|_| Vec::new()).collect(),
        }
    }

    /// Serializes this worker's range for a checkpoint: values, halted
    /// flags, and the pending inbox, each in local vertex order. The
    /// values come from this worker's [`VertexStore`], read-locked by the
    /// caller.
    fn snapshot_phase(
        &self,
        store_values: &[P::VertexValue],
        tracer: Option<&Tracer>,
    ) -> SnapshotOut
    where
        P::VertexValue: Persist,
        P::Message: Persist,
    {
        let start_us = tracer.map(Tracer::now_us);
        let mut values = Vec::new();
        for v in store_values {
            v.persist(&mut values);
        }
        let mut halted = Vec::new();
        for h in &self.halted {
            h.persist(&mut halted);
        }
        let mut inbox = Vec::new();
        for slot in &self.inbox_in {
            slot.persist(&mut inbox);
        }
        if let Some(t) = tracer {
            t.span(
                "snapshot",
                Category::Ckpt,
                self.index as u32 + 1,
                start_us.unwrap_or(0),
                vec![("bytes", (values.len() + halted.len() + inbox.len()).into())],
            );
        }
        SnapshotOut {
            values,
            halted,
            inbox,
        }
    }

    /// Runs the vertex kernels for this range, then combines, meters, and
    /// (past the worker's budget share) spills the routed outgoing buckets
    /// — all inside the worker.
    ///
    /// `cursor` tracks the vertex whose kernel is running (`u32::MAX`
    /// outside the vertex loop) so a panic caught by the caller can be
    /// attributed. Returns a [`WorkerFailure`] instead of panicking for
    /// every failure the phase itself can observe: deadline overruns
    /// (checked every 256 vertices) and spill I/O errors.
    #[allow(clippy::too_many_arguments)] // one per phase input, all distinct
    fn compute_phase(
        &mut self,
        graph: &Graph,
        program: &P,
        globals: &Globals,
        store: &mut VertexStore<P>,
        starts: &[u32],
        superstep: u32,
        pull: PullMode,
        spare: RawOutbox<P::Message>,
        faults: &FaultPlan,
        tracer: Option<&Tracer>,
        governor: &Governor,
        deadline_at: Option<Instant>,
        cursor: &AtomicU32,
    ) -> Result<ComputeOut<P::Message>, WorkerFailure>
    where
        P::Message: Persist,
    {
        let worker = self.index as u32;
        if faults.trip_panic_in_compute(superstep, worker) {
            panic!(
                "injected fault: compute panic at superstep {superstep} on worker {}",
                self.index
            );
        }
        if faults.trip_hang_in_compute(superstep, worker) {
            // Simulated wedged kernel: spin until the deadline watchdog
            // cancels the phase. A 5s backstop keeps a misconfigured test
            // (hang fault, no deadline) from wedging the whole suite.
            let hung_at = Instant::now();
            loop {
                if let Some(at) = deadline_at {
                    if Instant::now() >= at {
                        return Err(WorkerFailure::Deadline { worker });
                    }
                }
                if hung_at.elapsed() > Duration::from_secs(5) {
                    return Err(WorkerFailure::Deadline { worker });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let compute_start_us = tracer.map(Tracer::now_us);
        let compute_started = Instant::now();
        let num_workers = starts.len() - 1;
        // Recycled buckets from the previous exchange: empty, but with the
        // capacity earlier supersteps grew. Pad on the first superstep.
        let mut outbox = spare;
        outbox.resize_with(num_workers, Vec::new);
        debug_assert!(outbox.iter().all(|b| b.is_empty()));
        let VertexStore {
            values,
            captured,
            sent,
        } = store;
        let len = values.len();
        // Intra-superstep gather scratch: reset here, consumed by this
        // superstep's gather phase. A vertex the loop below skips sends
        // nothing, exactly like push.
        match pull {
            PullMode::Unsupported => {}
            PullMode::Captured => {
                captured.clear();
                captured.resize(len, None);
            }
            PullMode::Recomputed => {
                sent.clear();
                sent.resize(len, false);
            }
        }
        let mut agg = AggMap::new();
        let mut computed: u32 = 0;
        let mut voted_halt: u32 = 0;
        for local in 0..len {
            if self.halted[local] && self.inbox_in[local].is_empty() {
                continue;
            }
            // Cooperative watchdog: cheap enough to leave in the hot loop
            // (one branch when unbudgeted), frequent enough that a slow —
            // not wedged — kernel is cancelled within 256 vertices.
            if local & 0xFF == 0 {
                if let Some(at) = deadline_at {
                    if Instant::now() >= at {
                        cursor.store(u32::MAX, Ordering::Relaxed);
                        return Err(WorkerFailure::Deadline { worker });
                    }
                }
            }
            cursor.store(self.base + local as u32, Ordering::Relaxed);
            self.halted[local] = false;
            computed += 1;
            let mut ctx = VertexContext {
                id: NodeId(self.base + local as u32),
                superstep,
                graph,
                broadcast: globals,
                agg: &mut agg,
                outbox: &mut outbox,
                range_starts: starts,
                halted: &mut self.halted[local],
                pull: match pull {
                    PullMode::Unsupported => PullSink::Route,
                    PullMode::Captured => PullSink::Capture(&mut captured[local]),
                    PullMode::Recomputed => PullSink::Mark(&mut sent[local]),
                },
            };
            program.vertex_compute(&mut ctx, &mut values[local], &self.inbox_in[local]);
            if self.halted[local] {
                voted_halt += 1;
            }
            // Drain the slot but keep its capacity for the next delivery.
            self.inbox_in[local].clear();
        }
        cursor.store(u32::MAX, Ordering::Relaxed);
        let compute_time = compute_started.elapsed();

        // Sender-side combining (Pregel's combiner API): fold same-
        // destination messages within each bucket before they hit the wire.
        // A stable sort keeps the per-destination order of uncombinable
        // messages intact.
        let combine_start_us = tracer.map(Tracer::now_us);
        let combine_started = Instant::now();
        if program.has_combiner() {
            for bucket in &mut outbox {
                bucket.sort_by_key(|(dst, _)| *dst);
                let drained = std::mem::take(bucket);
                for (dst, m) in drained {
                    match bucket.last_mut() {
                        Some((prev_dst, prev)) if *prev_dst == dst => {
                            match program.combine(prev, &m) {
                                Some(combined) => *prev = combined,
                                None => bucket.push((dst, m)),
                            }
                        }
                        _ => bucket.push((dst, m)),
                    }
                }
            }
        }
        // Metering happens after combining (combined messages are what
        // would cross the wire), inside the worker.
        let mut messages_sent: u64 = 0;
        let mut message_bytes: u64 = 0;
        let mut remote_messages: u64 = 0;
        let mut remote_message_bytes: u64 = 0;
        for (dest_worker, bucket) in outbox.iter().enumerate() {
            for (_, m) in bucket {
                messages_sent += 1;
                let bytes = program.message_bytes(m);
                message_bytes += bytes;
                if dest_worker != self.index {
                    remote_messages += 1;
                    remote_message_bytes += bytes;
                }
            }
        }
        let combine_time = combine_started.elapsed();

        if let Some(t) = tracer {
            let tid = self.index as u32 + 1;
            let max_bucket = outbox.iter().map(Vec::len).max().unwrap_or(0);
            t.span_at(
                "compute",
                Category::Runtime,
                tid,
                compute_start_us.unwrap_or(0),
                compute_time.as_micros() as u64,
                vec![
                    ("superstep", superstep.into()),
                    ("computed", computed.into()),
                ],
            );
            t.span_at(
                "combine",
                Category::Runtime,
                tid,
                combine_start_us.unwrap_or(0),
                combine_time.as_micros() as u64,
                vec![
                    ("superstep", superstep.into()),
                    ("messages", messages_sent.into()),
                    ("bytes", message_bytes.into()),
                    ("remote", remote_messages.into()),
                    ("max_bucket", max_bucket.into()),
                ],
            );
        }

        // ---- spill: enforce this worker's share of the message budget ----
        // Runs strictly after combining and metering, so every structural
        // metric (messages, bytes, per-superstep counts) is bit-identical
        // whether or not a bucket spills. Sealed buckets are pushed to disk
        // largest-first (ties by destination index — deterministic for a
        // fixed budget and worker count) until the resident outgoing bytes
        // fit the share.
        let mut buckets_spilled: u64 = 0;
        let mut spilled_message_bytes: u64 = 0;
        let mut spill_file_bytes: u64 = 0;
        let mut spill_write_time = Duration::ZERO;
        let mut routed: RoutedOutbox<P::Message> = Vec::with_capacity(outbox.len());
        if let Some(share) = governor.share_per_worker {
            let bucket_bytes: Vec<u64> = outbox
                .iter()
                .map(|b| b.iter().map(|(_, m)| program.message_bytes(m)).sum())
                .collect();
            let mut resident: u64 = bucket_bytes.iter().sum();
            let mut order: Vec<usize> = (0..outbox.len()).collect();
            order.sort_by_key(|&d| (std::cmp::Reverse(bucket_bytes[d]), d));
            let mut spill = vec![false; outbox.len()];
            for &d in &order {
                if resident <= share || bucket_bytes[d] == 0 {
                    break;
                }
                spill[d] = true;
                resident -= bucket_bytes[d];
            }
            for (dest, bucket) in outbox.into_iter().enumerate() {
                if !spill[dest] {
                    routed.push(RoutedBucket::Mem(bucket));
                    continue;
                }
                let spill_start_us = tracer.map(Tracer::now_us);
                let spill_started = Instant::now();
                let path = governor.spill_path(superstep, self.index, dest);
                let written = if faults.trip_fail_spill_write(superstep) {
                    Err(CkptError::Io(std::io::Error::other(
                        "injected fault: spill write failure",
                    )))
                } else {
                    write_spill(&path, &bucket)
                };
                let file_bytes = match written {
                    Ok(b) => b,
                    Err(source) => {
                        return Err(WorkerFailure::Spill {
                            worker,
                            op: "write",
                            source,
                        })
                    }
                };
                buckets_spilled += 1;
                spilled_message_bytes += bucket_bytes[dest];
                spill_file_bytes += file_bytes;
                spill_write_time += spill_started.elapsed();
                if let Some(t) = tracer {
                    t.span_at(
                        "spill_write",
                        Category::Spill,
                        worker + 1,
                        spill_start_us.unwrap_or(0),
                        spill_started.elapsed().as_micros() as u64,
                        vec![
                            ("superstep", superstep.into()),
                            ("dest", dest.into()),
                            ("messages", bucket.len().into()),
                            ("file_bytes", file_bytes.into()),
                        ],
                    );
                }
                let messages = bucket.len() as u64;
                // The drained bucket rides along so its capacity is
                // recycled exactly like a resident bucket's.
                let mut spare = bucket;
                spare.clear();
                routed.push(RoutedBucket::Spilled {
                    path,
                    messages,
                    spare,
                });
            }
        } else {
            routed.extend(outbox.into_iter().map(RoutedBucket::Mem));
        }

        Ok(ComputeOut {
            agg,
            computed,
            not_halted: computed - voted_halt,
            outbox: routed,
            messages_sent,
            message_bytes,
            remote_messages,
            remote_message_bytes,
            compute_time,
            combine_time,
            buckets_spilled,
            spilled_message_bytes,
            spill_file_bytes,
            spill_write_time,
        })
    }

    /// A gathered superstep's replacement for exchange + delivery: each
    /// owned vertex walks its in-edges (reverse CSR) and folds the
    /// senders' messages in place, without the messages ever entering an
    /// outbox.
    ///
    /// Determinism mirrors push exactly. `in_neighbors` yields in-edges in
    /// forward-edge-id order — (sender ascending, adjacency position
    /// ascending) — which is precisely the order the push path's stable
    /// sort-by-destination leaves a sender bucket in, and senders group
    /// into ascending worker segments just like delivery appends buckets
    /// in ascending sender-worker order. The combiner folds within a
    /// segment only (push combines within one sender's bucket only), so
    /// the resulting inbox contents, message/byte meters, and reactivation
    /// counts are bit-identical to a push superstep's.
    #[allow(clippy::too_many_arguments)] // one per phase input, all distinct
    fn gather_phase(
        &mut self,
        graph: &Graph,
        program: &P,
        stores: &[RwLock<VertexStore<P>>],
        starts: &[u32],
        superstep: u32,
        mode: PullMode,
        tracer: Option<&Tracer>,
        deadline_at: Option<Instant>,
    ) -> Result<GatherOut, WorkerFailure> {
        let worker = self.index as u32;
        let start_us = tracer.map(Tracer::now_us);
        // Every store read-locked for the whole phase. Safe: compute and
        // gather are barrier-separated, so no worker holds its write lock
        // here.
        let guards: Vec<_> = stores.iter().map(read_lock).collect();
        let has_combiner = program.has_combiner();
        let mut delivered: u64 = 0;
        let mut reactivated: u32 = 0;
        let mut messages_sent: u64 = 0;
        let mut message_bytes: u64 = 0;
        let mut remote_messages: u64 = 0;
        let mut remote_message_bytes: u64 = 0;
        for local in 0..self.halted.len() {
            // Cooperative watchdog, same cadence as the compute loop.
            if local & 0xFF == 0 {
                if let Some(at) = deadline_at {
                    if Instant::now() >= at {
                        return Err(WorkerFailure::Deadline { worker });
                    }
                }
            }
            let inbox = &mut self.inbox_out[local];
            debug_assert!(inbox.is_empty());
            // Sender-worker segment cursor; in-edges arrive with ascending
            // sender ids, so it only moves forward.
            let mut sw = 0usize;
            let mut seg_start = 0usize;
            // The segment's id range and store, looked up once per segment
            // instead of once per in-edge.
            let mut lo_id = starts[0];
            let mut hi_id = starts[1];
            let mut store: &VertexStore<P> = &guards[0];
            for (src, eid) in graph.in_neighbors(NodeId(self.base + local as u32)) {
                while src.0 >= hi_id {
                    // Segment boundary: meter the fold results as the
                    // messages sender-worker `sw` would have put on the
                    // wire.
                    let n = (inbox.len() - seg_start) as u64;
                    if n > 0 {
                        let bytes: u64 = inbox[seg_start..]
                            .iter()
                            .map(|m| program.message_bytes(m))
                            .sum();
                        messages_sent += n;
                        message_bytes += bytes;
                        if sw != self.index {
                            remote_messages += n;
                            remote_message_bytes += bytes;
                        }
                        seg_start = inbox.len();
                    }
                    sw += 1;
                    lo_id = hi_id;
                    hi_id = starts[sw + 1];
                    store = &guards[sw];
                }
                let src_local = (src.0 - lo_id) as usize;
                let m = match mode {
                    PullMode::Captured => match &store.captured[src_local] {
                        Some(m) => m.clone(),
                        None => continue,
                    },
                    PullMode::Recomputed => {
                        if !store.sent[src_local] {
                            continue;
                        }
                        program.pull_message(graph, src, eid, &store.values[src_local])
                    }
                    PullMode::Unsupported => {
                        unreachable!("gather phase dispatched with no pull mode")
                    }
                };
                if has_combiner && inbox.len() > seg_start {
                    let prev = inbox.last_mut().expect("segment is non-empty");
                    match program.combine(prev, &m) {
                        Some(combined) => *prev = combined,
                        None => inbox.push(m),
                    }
                } else {
                    inbox.push(m);
                }
            }
            // Close the final segment.
            let n = (inbox.len() - seg_start) as u64;
            if n > 0 {
                let bytes: u64 = inbox[seg_start..]
                    .iter()
                    .map(|m| program.message_bytes(m))
                    .sum();
                messages_sent += n;
                message_bytes += bytes;
                if sw != self.index {
                    remote_messages += n;
                    remote_message_bytes += bytes;
                }
            }
            delivered += inbox.len() as u64;
            if self.halted[local] && !inbox.is_empty() {
                reactivated += 1;
            }
        }
        drop(guards);
        if let Some(t) = tracer {
            t.span(
                "gather",
                Category::Runtime,
                self.index as u32 + 1,
                start_us.unwrap_or(0),
                vec![
                    ("superstep", superstep.into()),
                    ("delivered", delivered.into()),
                    ("reactivated", reactivated.into()),
                    ("remote", remote_messages.into()),
                ],
            );
        }
        // Same double-buffer handoff as delivery: the gathered messages
        // become the next superstep's `inbox_in`.
        std::mem::swap(&mut self.inbox_in, &mut self.inbox_out);
        Ok(GatherOut {
            delivered,
            reactivated,
            messages_sent,
            message_bytes,
            remote_messages,
            remote_message_bytes,
        })
    }

    /// Moves incoming messages into this worker's out-buffer inbox — zero
    /// clones on the exchange path — preserving ascending sender-worker
    /// order, then swaps the double buffer. Spilled buckets are replayed
    /// from disk (into their carried-along spare, so the file contents land
    /// in the same allocation a resident bucket would occupy) at the exact
    /// position their sender holds in the order, so delivery order is
    /// identical to an unspilled run; each replayed file is deleted.
    fn deliver_phase(
        &mut self,
        incoming: IncomingRouted<P::Message>,
        tracer: Option<&Tracer>,
        deadline_at: Option<Instant>,
    ) -> Result<DeliverOut<P::Message>, WorkerFailure>
    where
        P::Message: Persist,
    {
        let worker = self.index as u32;
        let start_us = tracer.map(Tracer::now_us);
        let mut delivered: u64 = 0;
        let mut reactivated: u32 = 0;
        let mut files_replayed: u64 = 0;
        let mut spill_read_time = Duration::ZERO;
        // Largest single inbox after delivery — the per-vertex memory
        // high-water mark. Only tracked when traced.
        let mut inbox_hwm: usize = 0;
        let traced = tracer.is_some();
        let base = self.base as usize;
        let mut spent: IncomingBuckets<P::Message> = Vec::with_capacity(incoming.len());
        for routed in incoming {
            // Cooperative watchdog, once per sender bucket.
            if let Some(at) = deadline_at {
                if Instant::now() >= at {
                    return Err(WorkerFailure::Deadline { worker });
                }
            }
            let mut bucket = match routed {
                RoutedBucket::Mem(bucket) => bucket,
                RoutedBucket::Spilled {
                    path,
                    messages,
                    mut spare,
                } => {
                    let read_started = Instant::now();
                    if let Err(source) = read_spill_into(&path, messages, &mut spare) {
                        return Err(WorkerFailure::Spill {
                            worker,
                            op: "read",
                            source,
                        });
                    }
                    spill_read_time += read_started.elapsed();
                    files_replayed += 1;
                    // Replay is single-use; a failed delete is harmless
                    // (the run directory is per-run and temp-scoped).
                    let _ = std::fs::remove_file(&path);
                    spare
                }
            };
            for (dst, m) in bucket.drain(..) {
                let local = dst as usize - base;
                if self.halted[local] && self.inbox_out[local].is_empty() {
                    reactivated += 1;
                }
                self.inbox_out[local].push(m);
                if traced {
                    inbox_hwm = inbox_hwm.max(self.inbox_out[local].len());
                }
                delivered += 1;
            }
            spent.push(bucket);
        }
        if let Some(t) = tracer {
            t.span(
                "deliver",
                Category::Runtime,
                self.index as u32 + 1,
                start_us.unwrap_or(0),
                vec![
                    ("delivered", delivered.into()),
                    ("reactivated", reactivated.into()),
                    ("inbox_hwm", inbox_hwm.into()),
                    ("files_replayed", files_replayed.into()),
                ],
            );
        }
        // `inbox_in` was fully drained during the vertex phase; after the
        // swap it holds the next superstep's messages and the drained
        // buffer (capacity intact) becomes the next delivery target.
        std::mem::swap(&mut self.inbox_in, &mut self.inbox_out);
        Ok(DeliverOut {
            delivered,
            reactivated,
            // Hand the drained buckets back for outbox recycling.
            spent,
            files_replayed,
            spill_read_time,
        })
    }
}

/// Splits vertices into `num_workers` contiguous ranges balanced by
/// `1 + out_degree` weight. Returns `num_workers + 1` range starts.
fn partition(graph: &Graph, num_workers: usize) -> Vec<u32> {
    let n = graph.num_nodes();
    let total: u64 = n as u64 + graph.num_edges() as u64;
    let mut starts = Vec::with_capacity(num_workers + 1);
    starts.push(0u32);
    let mut acc: u64 = 0;
    let mut next_cut = 1;
    for v in 0..n {
        acc += 1 + graph.out_degree(NodeId(v)) as u64;
        while next_cut < num_workers && acc >= next_cut as u64 * total / num_workers as u64 {
            starts.push(v + 1);
            next_cut += 1;
        }
    }
    while starts.len() < num_workers {
        starts.push(n);
    }
    starts.push(n);
    debug_assert_eq!(starts.len(), num_workers + 1);
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{GlobalValue, ReduceOp};
    use gm_graph::gen;

    /// Sums all vertex ids into a global via aggregation, checks the master
    /// sees it next superstep.
    struct SumIds {
        observed: Option<i64>,
    }

    impl VertexProgram for SumIds {
        type VertexValue = ();
        type Message = ();

        fn message_bytes(&self, _m: &()) -> u64 {
            0
        }

        fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
            if ctx.superstep() == 1 {
                self.observed = Some(ctx.agg_or("S", GlobalValue::Int(0)).as_int());
                MasterDecision::Halt
            } else {
                MasterDecision::Continue
            }
        }

        fn vertex_compute(
            &self,
            ctx: &mut VertexContext<'_, '_, ()>,
            _value: &mut (),
            _messages: &[()],
        ) {
            let id = ctx.id().0 as i64;
            ctx.reduce_global("S", ReduceOp::Sum, GlobalValue::Int(id));
        }
    }

    #[test]
    fn aggregates_reach_master_next_superstep() {
        let g = gen::path(10);
        for workers in [1, 2, 3, 4] {
            let mut p = SumIds { observed: None };
            let cfg = PregelConfig {
                num_workers: workers,
                max_supersteps: 10,
                ..PregelConfig::default()
            };
            let r = run(&g, &mut p, |_| (), &cfg).unwrap();
            assert_eq!(p.observed, Some(45), "workers = {workers}");
            assert_eq!(r.metrics.supersteps, 2);
        }
    }

    /// Forwards a token along a path; vertex i receives it at superstep i.
    struct Token;

    impl VertexProgram for Token {
        type VertexValue = u32; // superstep at which the token arrived
        type Message = u64;

        fn message_bytes(&self, _m: &u64) -> u64 {
            8
        }

        fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
            // Run until nothing is active (everything votes to halt).
            let _ = ctx;
            MasterDecision::Continue
        }

        fn vertex_compute(
            &self,
            ctx: &mut VertexContext<'_, '_, u64>,
            value: &mut u32,
            messages: &[u64],
        ) {
            let has_token = (ctx.superstep() == 0 && ctx.id().0 == 0) || !messages.is_empty();
            if has_token {
                *value = ctx.superstep();
                ctx.send_to_nbrs(ctx.superstep() as u64 + 1);
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn message_delivery_and_vote_to_halt() {
        let g = gen::path(6);
        let r = run(&g, &mut Token, |_| 0, &PregelConfig::sequential()).unwrap();
        for v in 0..6u32 {
            assert_eq!(r.values[v as usize], v);
        }
        // 5 messages of 8 bytes each.
        assert_eq!(r.metrics.total_messages, 5);
        assert_eq!(r.metrics.total_message_bytes, 40);
        // Natural halt once everything is quiet.
        assert!(r.metrics.supersteps >= 6);
    }

    #[test]
    fn vote_to_halt_semantics_match_across_worker_counts() {
        let g = gen::path(9);
        let base = run(&g, &mut Token, |_| 0, &PregelConfig::sequential()).unwrap();
        for workers in [2usize, 3, 5] {
            let r = run(&g, &mut Token, |_| 0, &PregelConfig::with_workers(workers)).unwrap();
            assert_eq!(r.values, base.values, "workers = {workers}");
            assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
            assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
            // Per-superstep active counts are structural, too.
            let actives: Vec<u32> = r
                .metrics
                .per_superstep
                .iter()
                .map(|s| s.active_vertices)
                .collect();
            let base_actives: Vec<u32> = base
                .metrics
                .per_superstep
                .iter()
                .map(|s| s.active_vertices)
                .collect();
            assert_eq!(actives, base_actives, "workers = {workers}");
        }
    }

    /// Each vertex collects sender ids; checks delivery order is ascending
    /// by sender regardless of worker count.
    struct Collect;

    impl VertexProgram for Collect {
        type VertexValue = Vec<u32>;
        type Message = u32;

        fn message_bytes(&self, _m: &u32) -> u64 {
            4
        }

        fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
            if ctx.superstep() == 2 {
                MasterDecision::Halt
            } else {
                MasterDecision::Continue
            }
        }

        fn vertex_compute(
            &self,
            ctx: &mut VertexContext<'_, '_, u32>,
            value: &mut Vec<u32>,
            messages: &[u32],
        ) {
            if ctx.superstep() == 0 {
                let id = ctx.id().0;
                ctx.send_to_nbrs(id);
            } else {
                value.extend_from_slice(messages);
            }
        }
    }

    #[test]
    fn delivery_order_is_sender_ascending_for_any_worker_count() {
        let g = gen::rmat(128, 512, 99);
        let baseline = run(
            &g,
            &mut Collect,
            |_| Vec::new(),
            &PregelConfig::sequential(),
        )
        .unwrap()
        .values;
        for v in &baseline {
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "not sorted: {v:?}");
        }
        for workers in [2, 3, 5, 8] {
            let cfg = PregelConfig {
                num_workers: workers,
                max_supersteps: 10,
                ..PregelConfig::default()
            };
            let r = run(&g, &mut Collect, |_| Vec::new(), &cfg).unwrap();
            assert_eq!(r.values, baseline, "workers = {workers}");
        }
    }

    #[test]
    fn per_phase_timing_is_metered() {
        let g = gen::rmat(256, 2048, 3);
        let cfg = PregelConfig {
            num_workers: 3,
            max_supersteps: 10,
            ..PregelConfig::default()
        };
        let r = run(&g, &mut Collect, |_| Vec::new(), &cfg).unwrap();
        assert!(r.metrics.compute_time > Duration::ZERO);
        assert!(r.metrics.exchange_time > Duration::ZERO);
        assert_eq!(
            r.metrics.per_superstep.len() as u32 + 1,
            r.metrics.supersteps
        );
        // Totals are the sums of the per-superstep entries.
        let exchange_sum: Duration = r
            .metrics
            .per_superstep
            .iter()
            .map(|s| s.exchange_time)
            .sum();
        assert_eq!(exchange_sum, r.metrics.exchange_time);
    }

    /// Pins the documented merge order for floating-point `Sum` aggregates:
    /// vertex order inside each worker, then ascending worker order across
    /// workers — bit-reproducible for a fixed worker count.
    #[test]
    fn float_sum_merges_partials_in_worker_order() {
        fn contribution(id: u32) -> f64 {
            // Magnitude-skewed terms make the sum rounding-sensitive, so
            // this would catch a merge-order change.
            match id {
                0 => 0.1,
                1 => 0.2,
                2 => 0.3,
                3 => 1e16,
                4 => 1.0,
                _ => -1e16,
            }
        }

        struct FloatSum {
            observed: Option<f64>,
        }

        impl VertexProgram for FloatSum {
            type VertexValue = ();
            type Message = ();

            fn message_bytes(&self, _m: &()) -> u64 {
                0
            }

            fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
                if ctx.superstep() == 1 {
                    self.observed = Some(ctx.agg_or("F", GlobalValue::Double(0.0)).as_double());
                    MasterDecision::Halt
                } else {
                    MasterDecision::Continue
                }
            }

            fn vertex_compute(
                &self,
                ctx: &mut VertexContext<'_, '_, ()>,
                _value: &mut (),
                _messages: &[()],
            ) {
                ctx.reduce_global(
                    "F",
                    ReduceOp::Sum,
                    GlobalValue::Double(contribution(ctx.id().0)),
                );
            }
        }

        let g = gen::path(6);
        for workers in [1usize, 2, 3] {
            let starts = partition(&g, workers);
            // Expected: per-worker partials folded in vertex order, merged
            // in ascending worker order.
            let mut expected: Option<f64> = None;
            for w in 0..workers {
                let mut partial: Option<f64> = None;
                for v in starts[w]..starts[w + 1] {
                    partial = Some(match partial {
                        None => contribution(v),
                        Some(p) => p + contribution(v),
                    });
                }
                if let Some(p) = partial {
                    expected = Some(match expected {
                        None => p,
                        Some(e) => e + p,
                    });
                }
            }
            let expected = expected.unwrap();
            // Reproducible across repeated runs at the same worker count.
            for _ in 0..2 {
                let mut p = FloatSum { observed: None };
                let cfg = PregelConfig {
                    num_workers: workers,
                    max_supersteps: 5,
                    ..PregelConfig::default()
                };
                run(&g, &mut p, |_| (), &cfg).unwrap();
                assert_eq!(
                    p.observed.unwrap().to_bits(),
                    expected.to_bits(),
                    "workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn superstep_limit_is_enforced() {
        struct Forever;
        impl VertexProgram for Forever {
            type VertexValue = ();
            type Message = ();
            fn message_bytes(&self, _m: &()) -> u64 {
                0
            }
            fn master_compute(&mut self, _ctx: &mut MasterContext<'_>) -> MasterDecision {
                MasterDecision::Continue
            }
            fn vertex_compute(
                &self,
                _ctx: &mut VertexContext<'_, '_, ()>,
                _value: &mut (),
                _messages: &[()],
            ) {
            }
        }
        let g = gen::path(3);
        for workers in [1usize, 2] {
            let cfg = PregelConfig {
                num_workers: workers,
                max_supersteps: 5,
                ..PregelConfig::default()
            };
            // Variant assertions below look through any post-mortem wrap so
            // the suite also passes with GM_POST_MORTEM_DIR armed (as CI does).
            let (err, _) = run(&g, &mut Forever, |_| (), &cfg)
                .unwrap_err()
                .detach_post_mortem();
            assert!(matches!(
                err,
                PregelError::SuperstepLimitExceeded { limit: 5 }
            ));
            assert!(err.to_string().contains("superstep limit"));
        }
    }

    #[test]
    fn zero_workers_is_invalid() {
        let g = gen::path(3);
        let cfg = PregelConfig {
            num_workers: 0,
            max_supersteps: 5,
            ..PregelConfig::default()
        };
        let err = run(&g, &mut Token, |_| 0, &cfg).unwrap_err();
        assert!(matches!(err, PregelError::InvalidConfig(_)));
    }

    #[test]
    fn empty_graph_runs() {
        let g = gen::path(0);
        let r = run(&g, &mut Token, |_| 0, &PregelConfig::default()).unwrap();
        assert!(r.values.is_empty());
    }

    #[test]
    fn default_config_uses_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(PregelConfig::default().num_workers, cores);
        // The old capped behaviour remains expressible.
        assert_eq!(PregelConfig::with_workers(4).num_workers, 4);
    }

    #[test]
    fn partition_covers_all_vertices() {
        let g = gen::rmat(100, 1000, 5);
        for w in 1..10 {
            let starts = partition(&g, w);
            assert_eq!(starts.len(), w + 1);
            assert_eq!(starts[0], 0);
            assert_eq!(*starts.last().unwrap(), 100);
            assert!(starts.windows(2).all(|s| s[0] <= s[1]));
        }
    }

    #[test]
    fn remote_messages_depend_on_partition() {
        let g = gen::cycle(16);
        let r1 = run(
            &g,
            &mut Collect,
            |_| Vec::new(),
            &PregelConfig::sequential(),
        )
        .unwrap();
        assert_eq!(r1.metrics.remote_messages, 0);
        let cfg = PregelConfig {
            num_workers: 4,
            max_supersteps: 10,
            ..PregelConfig::default()
        };
        let r4 = run(&g, &mut Collect, |_| Vec::new(), &cfg).unwrap();
        assert!(r4.metrics.remote_messages > 0);
        // Total counts are worker-independent.
        assert_eq!(r1.metrics.total_messages, r4.metrics.total_messages);
        assert_eq!(
            r1.metrics.total_message_bytes,
            r4.metrics.total_message_bytes
        );
    }

    /// The in-memory tracer sees one span per worker per phase per
    /// superstep, coordinator events on tid 0, and a final halt marker —
    /// on both the inline (1 worker) and pooled executors.
    #[test]
    fn tracer_captures_per_worker_superstep_events() {
        let g = gen::rmat(128, 512, 7);
        for workers in [1usize, 2] {
            let (tracer, sink) = Tracer::in_memory();
            let cfg = PregelConfig {
                num_workers: workers,
                max_supersteps: 10,
                tracer: Some(tracer),
                ..PregelConfig::default()
            };
            let r = run(&g, &mut Collect, |_| Vec::new(), &cfg).unwrap();
            let events = sink.events();
            let count = |n: &str| events.iter().filter(|e| e.name == n).count();
            // Compute supersteps, excluding the final master-only halt step.
            let steps = (r.metrics.supersteps - 1) as usize;
            assert_eq!(count("superstep"), steps, "workers = {workers}");
            assert_eq!(count("master"), steps + 1);
            assert_eq!(count("exchange"), steps);
            assert_eq!(count("compute_skew"), steps);
            assert_eq!(count("halt"), 1);
            for name in ["compute", "combine", "deliver"] {
                assert_eq!(count(name), workers * steps, "{name}, workers = {workers}");
            }
            // Worker spans carry 1-based worker tids; coordinator events
            // stay on tid 0.
            assert!(events
                .iter()
                .filter(|e| e.name == "compute" || e.name == "deliver")
                .all(|e| e.tid >= 1 && e.tid as usize <= workers));
            assert!(events
                .iter()
                .filter(|e| e.name == "superstep" || e.name == "master")
                .all(|e| e.tid == 0));
            // With the barrier residual metered, phase_total() is at least
            // the sum of the four explicit phases.
            for s in &r.metrics.per_superstep {
                assert!(
                    s.phase_total()
                        >= s.compute_time + s.combine_time + s.exchange_time + s.master_time
                );
            }
        }
    }

    // ---- checkpointing / fault injection / recovery ----

    use crate::checkpoint::{CheckpointConfig, RecoveryPolicy};
    use gm_ckpt::{CheckpointStore, FaultPlan};

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gm-pregel-ckpt-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs a fixed number of supersteps on a cycle, accumulating mutable
    /// master state (`total`) from an aggregate — so an exact resume must
    /// restore both vertex values and the master's memory.
    struct Rounds {
        total: i64,
    }

    impl VertexProgram for Rounds {
        type VertexValue = u32;
        type Message = u32;

        fn message_bytes(&self, _m: &u32) -> u64 {
            4
        }

        fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
            self.total += ctx.agg_or("n", GlobalValue::Int(0)).as_int();
            if ctx.superstep() == 8 {
                MasterDecision::Halt
            } else {
                MasterDecision::Continue
            }
        }

        fn vertex_compute(
            &self,
            ctx: &mut VertexContext<'_, '_, u32>,
            value: &mut u32,
            messages: &[u32],
        ) {
            ctx.reduce_global("n", ReduceOp::Sum, GlobalValue::Int(1));
            *value += messages.iter().sum::<u32>();
            ctx.send_to_nbrs(1);
        }

        // Persist the master's accumulator so snapshots capture it.
        fn save_master_state(&self, out: &mut Vec<u8>) {
            self.total.persist(out);
        }

        fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
            self.total = Persist::restore(r)?;
            Ok(())
        }
    }

    impl Rounds {
        fn new() -> Self {
            Rounds { total: 0 }
        }

        fn baseline(workers: usize) -> (PregelResult<u32>, i64) {
            let g = gen::cycle(12);
            let mut p = Rounds::new();
            let r = run(&g, &mut p, |_| 0, &PregelConfig::with_workers(workers)).unwrap();
            (r, p.total)
        }
    }

    #[test]
    fn zero_checkpoint_interval_is_invalid() {
        let g = gen::cycle(4);
        let cfg = PregelConfig::sequential()
            .with_checkpoints(CheckpointConfig::new(fresh_dir("zero"), 0));
        let err = run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap_err();
        assert!(matches!(err, PregelError::InvalidConfig(_)));
    }

    #[test]
    fn injected_panic_surfaces_as_worker_panicked() {
        let g = gen::cycle(12);
        for workers in [1usize, 3] {
            let mut cfg = PregelConfig::with_workers(workers);
            cfg.faults = FaultPlan::builder().panic_in_compute(4, None).build();
            let (err, _) = run(&g, &mut Rounds::new(), |_| 0, &cfg)
                .unwrap_err()
                .detach_post_mortem();
            assert!(
                matches!(
                    err,
                    PregelError::WorkerPanicked {
                        superstep: 4,
                        worker: Some(_),
                        ..
                    }
                ),
                "workers = {workers}, got {err}"
            );
        }
    }

    #[test]
    fn resume_continues_exactly_where_snapshot_left_off() {
        let (base, base_total) = Rounds::baseline(2);
        let g = gen::cycle(12);
        let dir = fresh_dir("resume");

        // First attempt: checkpoint every 3 supersteps, die at superstep 5.
        let cfg = PregelConfig::with_workers(2)
            .with_checkpoints(CheckpointConfig::new(&dir, 3))
            .with_faults(FaultPlan::builder().panic_in_compute(5, None).build());
        let (err, _) = run(&g, &mut Rounds::new(), |_| 0, &cfg)
            .unwrap_err()
            .detach_post_mortem();
        assert!(matches!(
            err,
            PregelError::WorkerPanicked { superstep: 5, .. }
        ));
        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(
            store.list().unwrap().len(),
            1,
            "one snapshot (superstep 3) before the fault"
        );

        // Second attempt: fresh program, resume from the snapshot.
        let cfg = PregelConfig::with_workers(2)
            .with_checkpoints(CheckpointConfig::new(&dir, 3).with_resume(true));
        let mut p = Rounds::new();
        let r = run(&g, &mut p, |_| 0, &cfg).unwrap();
        assert_eq!(r.values, base.values);
        assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
        assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
        assert_eq!(
            r.metrics.total_message_bytes,
            base.metrics.total_message_bytes
        );
        assert_eq!(p.total, base_total, "master state must resume too");
        assert_eq!(r.metrics.recovery.restores, 1);
        // The resumed run checkpoints at superstep 6 (3 is skipped).
        assert_eq!(r.metrics.recovery.checkpoints_written, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_recovery_matches_uninterrupted_run() {
        for workers in [1usize, 2, 4] {
            let (base, base_total) = Rounds::baseline(workers);
            let g = gen::cycle(12);
            let dir = fresh_dir("supervised");
            let cfg = PregelConfig::with_workers(workers)
                .with_checkpoints(CheckpointConfig::new(&dir, 2))
                .with_faults(FaultPlan::builder().panic_in_compute(5, None).build())
                .with_recovery(RecoveryPolicy::with_max_restarts(2));
            let mut p = Rounds::new();
            let r = run_with_recovery(&g, &mut p, |_| 0, &cfg).unwrap();
            assert_eq!(r.values, base.values, "workers = {workers}");
            assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
            assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
            assert_eq!(p.total, base_total);
            assert_eq!(r.metrics.recovery.restarts, 1);
            assert_eq!(r.metrics.recovery.restores, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_snapshot_is_discarded_in_favor_of_older_one() {
        let (base, base_total) = Rounds::baseline(2);
        let g = gen::cycle(12);
        let dir = fresh_dir("fallback");
        // Snapshot at 2 stays valid, snapshot at 4 is corrupted on disk,
        // then the job dies at superstep 5; recovery must fall back to 2.
        let cfg = PregelConfig::with_workers(2)
            .with_checkpoints(CheckpointConfig::new(&dir, 2))
            .with_faults(
                FaultPlan::builder()
                    .corrupt_snapshot(4)
                    .panic_in_compute(5, None)
                    .build(),
            )
            .with_recovery(RecoveryPolicy::with_max_restarts(1));
        let mut p = Rounds::new();
        let r = run_with_recovery(&g, &mut p, |_| 0, &cfg).unwrap();
        assert_eq!(r.values, base.values);
        assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
        assert_eq!(p.total, base_total);
        assert_eq!(r.metrics.recovery.corrupt_snapshots_discarded, 1);
        assert_eq!(r.metrics.recovery.restarts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_is_counted_not_fatal() {
        let g = gen::cycle(12);
        let dir = fresh_dir("wfail");
        let cfg = PregelConfig::sequential()
            .with_checkpoints(CheckpointConfig::new(&dir, 2))
            .with_faults(FaultPlan::builder().fail_checkpoint_write(2).build());
        let r = run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap();
        assert_eq!(r.metrics.recovery.checkpoint_failures, 1);
        // Supersteps 4, 6 and 8 still checkpointed.
        assert_eq!(r.metrics.recovery.checkpoints_written, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_without_checkpoints_restarts_from_scratch() {
        let (base, base_total) = Rounds::baseline(2);
        let g = gen::cycle(12);
        let cfg = PregelConfig::with_workers(2)
            .with_faults(FaultPlan::builder().panic_in_compute(5, None).build())
            .with_recovery(RecoveryPolicy::with_max_restarts(1));
        let mut p = Rounds::new();
        let r = run_with_recovery(&g, &mut p, |_| 0, &cfg).unwrap();
        assert_eq!(r.values, base.values);
        // The master state was rolled back before the retry, so `total` is
        // not double-counted.
        assert_eq!(p.total, base_total);
        assert_eq!(r.metrics.recovery.restarts, 1);
        assert_eq!(r.metrics.recovery.restores, 0);
    }

    #[test]
    fn snapshot_keep_prunes_older_files() {
        let g = gen::cycle(12);
        let dir = fresh_dir("keep");
        let cfg = PregelConfig::sequential()
            .with_checkpoints(CheckpointConfig::new(&dir, 2).with_keep(1));
        run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap();
        let store = CheckpointStore::create(&dir).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, 8, "only the newest snapshot survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- resource governance ----

    #[test]
    fn zero_deadline_is_invalid() {
        let g = gen::cycle(4);
        let cfg = PregelConfig::sequential()
            .with_budget(ResourceBudget::unbounded().with_superstep_deadline(Duration::ZERO));
        let err = run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap_err();
        assert!(matches!(err, PregelError::InvalidConfig(_)));
    }

    #[test]
    fn forced_spill_is_structurally_invisible() {
        let (base, base_total) = Rounds::baseline(2);
        let g = gen::cycle(12);
        let dir = fresh_dir("spill");
        // A 1-byte budget spills every nonempty bucket every superstep.
        let cfg = PregelConfig::with_workers(2).with_budget(
            ResourceBudget::unbounded()
                .with_max_message_bytes(1)
                .with_spill_dir(&dir),
        );
        let mut p = Rounds::new();
        let r = run(&g, &mut p, |_| 0, &cfg).unwrap();
        assert_eq!(r.values, base.values);
        assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
        assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
        assert_eq!(
            r.metrics.total_message_bytes,
            base.metrics.total_message_bytes
        );
        assert_eq!(p.total, base_total);
        assert!(
            r.metrics.spill.buckets_spilled > 0,
            "budget must force spills"
        );
        assert_eq!(
            r.metrics.spill.files_replayed, r.metrics.spill.buckets_spilled,
            "every spilled bucket must be replayed"
        );
        assert_eq!(
            r.metrics.spill.spilled_message_bytes, r.metrics.total_message_bytes,
            "a 1-byte budget spills every metered byte"
        );
        // Replay deletes the files; the per-run directory is removed on
        // drop, leaving the configured spill dir empty.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftover spill state: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caught_panic_is_attributed_to_worker_and_vertex() {
        /// Panics inside the kernel of one specific vertex at superstep 2.
        struct PoisonedVertex;
        impl VertexProgram for PoisonedVertex {
            type VertexValue = u32;
            type Message = u32;
            fn message_bytes(&self, _m: &u32) -> u64 {
                4
            }
            fn master_compute(&mut self, _ctx: &mut MasterContext<'_>) -> MasterDecision {
                MasterDecision::Continue
            }
            fn vertex_compute(
                &self,
                ctx: &mut VertexContext<'_, '_, u32>,
                _value: &mut u32,
                _messages: &[u32],
            ) {
                if ctx.superstep() == 2 && ctx.id().0 == 7 {
                    panic!("poisoned vertex kernel");
                }
                ctx.send_to_nbrs(1);
            }
        }

        let g = gen::cycle(12);
        for workers in [1usize, 2] {
            let mut cfg = PregelConfig::with_workers(workers);
            cfg.max_supersteps = 10;
            let (err, _) = run(&g, &mut PoisonedVertex, |_| 0, &cfg)
                .unwrap_err()
                .detach_post_mortem();
            match err {
                PregelError::WorkerPanicked {
                    superstep,
                    worker,
                    vertex,
                    detail,
                } => {
                    assert_eq!(superstep, 2, "workers = {workers}");
                    assert!(worker.is_some());
                    assert_eq!(vertex, Some(7), "cursor attributes the vertex");
                    assert!(detail.contains("poisoned vertex"), "got detail {detail:?}");
                }
                other => panic!("expected WorkerPanicked, got {other}"),
            }
        }
    }

    #[test]
    fn wasted_work_is_accounted_across_restarts() {
        let g = gen::cycle(12);
        let cfg = PregelConfig::with_workers(2)
            .with_faults(FaultPlan::builder().panic_in_compute(5, None).build())
            .with_recovery(RecoveryPolicy::with_max_restarts(1));
        let r = run_with_recovery(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap();
        assert_eq!(r.metrics.recovery.restarts, 1);
        // No checkpoints: the failed attempt re-ran supersteps 0..5 for
        // nothing.
        assert_eq!(r.metrics.recovery.wasted_supersteps, 5);
        assert!(r.metrics.recovery.wasted_time > Duration::ZERO);
    }

    #[test]
    fn identical_failures_exhausting_restarts_are_quarantined() {
        let g = gen::cycle(12);
        let cfg = PregelConfig::with_workers(2)
            .with_faults(
                FaultPlan::builder()
                    .panic_in_compute(4, Some(0))
                    .times(u32::MAX)
                    .build(),
            )
            .with_recovery(RecoveryPolicy::with_max_restarts(2));
        let (err, _) = run_with_recovery(&g, &mut Rounds::new(), |_| 0, &cfg)
            .unwrap_err()
            .detach_post_mortem();
        match err {
            PregelError::Quarantined {
                superstep,
                worker,
                attempts,
                ..
            } => {
                assert_eq!(superstep, 4);
                assert_eq!(worker, Some(0));
                assert_eq!(attempts, 3, "initial run + 2 restarts");
            }
            other => panic!("expected Quarantined, got {other}"),
        }
    }

    #[test]
    fn distinct_failures_exhausting_restarts_are_not_quarantined() {
        let g = gen::cycle(12);
        // Two different failure sites: the streak is broken, so exhausting
        // the budget returns the last error itself.
        let cfg = PregelConfig::with_workers(2)
            .with_faults(
                FaultPlan::builder()
                    .panic_in_compute(3, Some(0))
                    .panic_in_compute(5, Some(1))
                    .build(),
            )
            .with_recovery(RecoveryPolicy::with_max_restarts(1));
        let (err, _) = run_with_recovery(&g, &mut Rounds::new(), |_| 0, &cfg)
            .unwrap_err()
            .detach_post_mortem();
        assert!(
            matches!(err, PregelError::WorkerPanicked { superstep: 5, .. }),
            "got {err}"
        );
    }
}
