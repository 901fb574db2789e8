//! What a run is asked to do: [`PregelConfig`] and the message
//! [`Schedule`].

use crate::checkpoint::CheckpointConfig;
use crate::govern::ResourceBudget;
use crate::postmortem::PostMortemConfig;
use crate::supervise::RecoveryPolicy;
use gm_ckpt::FaultPlan;
use gm_obs::metrics::MetricsRegistry;
use gm_obs::Tracer;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Environment variable read by [`PregelConfig::default`] for the message
/// schedule: `"push"`, `"pull"`, or `"auto"` (default).
pub const ENV_SCHEDULE: &str = "GM_SCHEDULE";
/// Environment variable for [`PregelConfig::dense_threshold`], the
/// `Schedule::Auto` dense-frontier cutoff (a fraction of `|E|`).
pub const ENV_DENSE_THRESHOLD: &str = "GM_DENSE_THRESHOLD";

/// How each superstep's messages move: sender-push (the classic Pregel
/// exchange), receiver-pull (in-edge gather), or a per-superstep choice.
///
/// Pull and Auto require program cooperation: the program reports per
/// superstep whether its vertex phase can be gathered
/// ([`VertexProgram::pull_mode`](crate::VertexProgram::pull_mode));
/// supersteps that cannot always run push. Both directions produce
/// bit-identical values, supersteps, and message metrics — the schedule is
/// a pure execution-strategy knob, so the runtime picks the direction
/// itself (`Auto`) unless told otherwise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Always push: vertices route messages, the exchange delivers them.
    Push,
    /// Gather every superstep the program supports. Programs with no
    /// pullable superstep at all are rejected up front with
    /// [`PregelError::NotPullable`](crate::PregelError::NotPullable).
    Pull,
    /// Ligra/GraphIt-style density heuristic, decided per superstep: pull
    /// when the active frontier's expected out-edges exceed
    /// [`PregelConfig::dense_threshold`] × `|E|`, push otherwise.
    #[default]
    Auto,
}

impl Schedule {
    /// Reads `GM_SCHEDULE`; unset or unrecognized values mean the
    /// default, `Auto`.
    fn from_env() -> Self {
        std::env::var(ENV_SCHEDULE)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_default()
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
    /// contiguous ranges of equal cost; with more than one worker the
    /// vertex and exchange phases run on a persistent pool of threads.
    pub num_workers: usize,
    /// Safety limit on supersteps; exceeding it returns
    /// [`PregelError::SuperstepLimitExceeded`](crate::PregelError::SuperstepLimitExceeded)
    /// instead of spinning forever.
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
    /// Restart policy: when set, [`run`](crate::run) restarts the job
    /// after recoverable failures; `None` makes every run a single attempt.
    pub recovery: Option<RecoveryPolicy>,
    /// Resource limits: in-flight message bytes (spill-to-disk past the
    /// budget), superstep wall-clock, resident value-store bytes. The
    /// default is read from the environment
    /// ([`ResourceBudget::from_env`]), unbounded when the variables are
    /// unset.
    pub budget: ResourceBudget,
    /// Push/pull/auto message-movement strategy. The default is read from
    /// `GM_SCHEDULE` (auto when unset).
    pub schedule: Schedule,
    /// `Schedule::Auto` cutoff: a superstep gathers when
    /// `active_vertices × avg_degree > dense_threshold × |E|`. The default
    /// is read from `GM_DENSE_THRESHOLD`, falling back to `0.05`.
    pub dense_threshold: f64,
    /// Crash forensics: when set, the runtime tees a bounded
    /// [`FlightRecorder`](gm_obs::recorder::FlightRecorder) behind the
    /// tracer (creating a recorder-only tracer when tracing is off) and,
    /// should the run end in a [`PregelError`](crate::PregelError), dumps
    /// the recent trace events together with config, metrics, and
    /// superstep counters into a fresh post-mortem bundle directory — the
    /// returned error then carries the bundle path
    /// ([`PregelError::PostMortem`](crate::PregelError::PostMortem)). The
    /// default is read from `GM_POST_MORTEM_DIR`
    /// ([`PostMortemConfig::from_env`]), off when unset.
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
    /// [`PregelError::Cancelled`](crate::PregelError::Cancelled) once it
    /// is `true`. Long-lived hosts (the `gmd` daemon's drain path) share
    /// one token across jobs to stop stragglers at a superstep boundary
    /// instead of killing the process.
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

    /// Sets the restart policy [`run`](crate::run) supervises with.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_is_the_default_schedule() {
        // `Schedule::default()` reads no environment, so this holds
        // whatever `GM_SCHEDULE` the suite runs under.
        assert_eq!(Schedule::default(), Schedule::Auto);
    }
}
