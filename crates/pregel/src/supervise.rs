//! The supervisor: [`run`], the crate's one entry point. It validates the
//! config, sets up each attempt (partition, worker states, resume from the
//! newest valid snapshot), hands it to the coordinator, seals a failed
//! attempt's post-mortem, and — when [`PregelConfig::recovery`] is set —
//! restarts the job after recoverable failures. Whether a failure that
//! keeps repeating is poison is the host's call (gmd quarantines); the
//! runtime only restarts.

use crate::checkpoint::{decode_snapshot, written_by, ResumeState};
use crate::config::{PregelConfig, Schedule};
use crate::coordinator::{drive, CkptRunner, DriveInit};
use crate::error::{failure_site, PregelError};
use crate::globals::Globals;
use crate::govern::Governor;
use crate::inbox::Captured;
use crate::metrics::Metrics;
use crate::postmortem::write_bundle;
use crate::program::VertexProgram;
use crate::worker::{partition, write_lock, Executor, Shared, VertexStore, WorkerState};
use gm_ckpt::{ByteReader, CheckpointStore, CkptError, Persist};
use gm_graph::{Graph, NodeId};
use gm_obs::recorder::FlightRecorder;
use gm_obs::{Category, Tracer};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Output of [`run`]: final vertex values in id order plus metrics.
#[derive(Debug, Clone)]
pub struct PregelResult<V> {
    /// Final per-vertex state, indexed by vertex id.
    pub values: Vec<V>,
    /// Superstep, message, phase-timing and byte counters.
    pub metrics: Metrics,
}

/// Executes `program` on `graph` until the master halts.
///
/// `init` produces the initial value for each vertex.
///
/// # Checkpointing and resume
///
/// With [`PregelConfig::checkpoint`] set, the coordinator captures the
/// complete BSP frontier at the top of every `every`-th superstep and
/// writes it as a checksummed snapshot (see
/// [`CheckpointConfig`](crate::CheckpointConfig)). When the config
/// additionally sets `resume`, the run first scans the checkpoint
/// directory and — if a valid snapshot exists — skips `init` entirely and
/// re-enters the superstep loop exactly where the snapshot was taken;
/// corrupt snapshots are discarded by checksum in favor of the newest valid
/// one. Snapshots another program wrote (see
/// [`VertexProgram::program_identity`]) are discarded and removed the same
/// way. A resumed run continues as if uninterrupted: final vertex values,
/// superstep count, and message counters are identical to a run that never
/// stopped (for a fixed worker count; see Determinism).
///
/// # Recovery
///
/// With [`PregelConfig::recovery`] set, a recoverable failure (see
/// [`PregelError::is_recoverable`] — worker panics, deadline overruns,
/// budget exhaustion, spill and checkpoint I/O) restarts the job —
/// resuming from the newest valid snapshot when checkpointing is
/// configured, from scratch otherwise — up to
/// [`RecoveryPolicy::max_restarts`] times. The program's master state is
/// rolled back to its pre-run baseline before each retry so the resume
/// path replays it exactly. When the budget is spent, the last attempt's
/// own error escapes, with its own post-mortem bundle. Restart counts and
/// the work thrown away by failed attempts are reported in
/// [`RecoveryStats`](crate::RecoveryStats) (`restarts`,
/// `wasted_supersteps`, `wasted_time`). Without a policy every run is a
/// single attempt.
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
/// [`AggMap::merge`](crate::AggMap::merge)).
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
    let n = graph.num_nodes() as usize;
    let starts = partition(graph, config.num_workers.clamp(1, n.max(1)));
    run_cut(graph, program, init, config, &starts)
}

/// [`run`] over a given cut of the vertex range: worker `w` owns
/// `starts[w]..starts[w + 1]`, so there are `starts.len() - 1` workers.
/// `run` passes [`partition`]'s cut; tests pass arbitrary ones, since no
/// value, superstep or message count may depend on where the cut falls.
pub(crate) fn run_cut<P>(
    graph: &Graph,
    program: &mut P,
    init: impl Fn(NodeId) -> P::VertexValue,
    config: &PregelConfig,
    starts: &[u32],
) -> Result<PregelResult<P::VertexValue>, PregelError>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    let max_restarts = config.recovery.as_ref().map_or(0, |p| p.max_restarts);
    // The master state must roll back together with the snapshot: a retry
    // that falls back to an older snapshot (or a fresh start) must not see
    // a master already mutated by the failed attempt.
    let mut baseline = Vec::new();
    program.save_master_state(&mut baseline);

    let mut config = config.clone();
    let mut attempt_no: u32 = 0;
    let mut wasted_supersteps: u32 = 0;
    let mut wasted_time = Duration::ZERO;
    loop {
        let failed = match attempt(graph, program, &init, &config, starts) {
            Ok(mut result) => {
                result.metrics.recovery.restarts += attempt_no;
                result.metrics.recovery.wasted_supersteps += wasted_supersteps;
                result.metrics.recovery.wasted_time += wasted_time;
                return Ok(result);
            }
            Err(failed) => failed,
        };
        if !failed.error.is_recoverable() || attempt_no >= max_restarts {
            return Err(failed.error);
        }
        wasted_supersteps += failed.wasted_supersteps;
        wasted_time += failed.wasted_time;
        attempt_no += 1;
        if let Some(r) = &config.registry {
            r.counter("gm_restarts_total", "recovery restarts").inc();
        }
        if let Some(t) = config.tracer.as_ref() {
            let (superstep, _, _) = failure_site(&failed.error);
            t.instant(
                "restart",
                Category::Ckpt,
                0,
                vec![
                    ("attempt", attempt_no.into()),
                    ("superstep", superstep.into()),
                ],
            );
        }
        program.restore_master_state(&mut ByteReader::new(&baseline))?;
        // Retries resume from the newest valid snapshot.
        if let Some(c) = &mut config.checkpoint {
            c.resume = true;
        }
    }
}

/// Restart policy [`run`] supervises with, attached to
/// [`PregelConfig::recovery`]. Restarts follow each other immediately: a
/// restart resumes from a snapshot in-process, so there is nothing to
/// wait out.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Maximum restarts after recoverable failures before giving up and
    /// returning the last attempt's error.
    pub max_restarts: u32,
}

impl RecoveryPolicy {
    /// Policy with an explicit restart budget.
    pub fn with_max_restarts(max_restarts: u32) -> Self {
        RecoveryPolicy { max_restarts }
    }
}

/// A failed attempt, carrying the cost the supervisor must account for:
/// the supersteps this attempt executed past its newest recovery point —
/// the last snapshot it wrote intact, else its resume point (work that a
/// restart re-executes) — and the wall-clock they took.
pub(crate) struct FailedRun {
    pub error: PregelError,
    pub wasted_supersteps: u32,
    pub wasted_time: Duration,
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
    if let Some(registry) = &config.registry {
        registry
            .counter_with(
                "gm_failures_total",
                "runs that ended in an error, by failure kind",
                &[("kind", failed.error.kind())],
            )
            .inc();
    }
    let Some(pm) = &config.post_mortem else {
        return failed;
    };
    match write_bundle(pm, &failed.error, config, graph, metrics, recorder) {
        Ok(bundle) => FailedRun {
            error: PregelError::PostMortem {
                bundle,
                source: Box::new(failed.error),
            },
            ..failed
        },
        Err(_) => failed,
    }
}

/// Validates the config; returns the rejection, if any.
fn validate<P: VertexProgram>(program: &P, config: &PregelConfig) -> Option<PregelError> {
    let invalid = |msg: &str| Some(PregelError::InvalidConfig(msg.into()));
    if config.num_workers == 0 {
        return invalid("num_workers must be ≥ 1");
    }
    if config.checkpoint.as_ref().is_some_and(|c| c.every == 0) {
        return invalid("checkpoint interval must be ≥ 1");
    }
    if config.budget.superstep_deadline == Some(Duration::ZERO) {
        return invalid("superstep deadline must be nonzero");
    }
    if config.schedule == Schedule::Pull && !program.pull_supported() {
        return Some(PregelError::NotPullable {
            detail: "the program reports no pullable vertex phase \
                     (every send targets computed destinations, or the payload \
                     reads receiver-local state)"
                .into(),
        });
    }
    None
}

/// One attempt: set up, drive the superstep loop to the master's halt,
/// assemble the values.
fn attempt<P>(
    graph: &Graph,
    program: &mut P,
    init: &impl Fn(NodeId) -> P::VertexValue,
    config: &PregelConfig,
    starts: &[u32],
) -> Result<PregelResult<P::VertexValue>, FailedRun>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    if let Some(error) = validate(program, config) {
        return Err(FailedRun::early(error));
    }
    let n = graph.num_nodes() as usize;
    let num_workers = starts.len() - 1;
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

    // Resume path: locate and decode the newest snapshot this program
    // wrote before any state is initialized. Also opens the store for
    // checkpoint writes.
    let mut resume: Option<ResumeState<P>> = None;
    let mut ckpt: Option<CkptRunner> = None;
    let mut discarded = 0;
    if let Some(c) = &config.checkpoint {
        let store = CheckpointStore::create(&c.dir)?;
        let mut runner = CkptRunner {
            store,
            identity: program.program_identity().to_vec(),
            every: c.every,
            keep: c.keep,
            skip: None,
        };
        if c.resume {
            let restore_started = Instant::now();
            let restore_start_us = tracer.map(Tracer::now_us);
            let scan = (runner.store).latest_valid(|snap| written_by(snap, &runner.identity))?;
            discarded = scan.discarded;
            if let Some(snapshot) = scan.newest {
                let mut rs = decode_snapshot::<P>(&snapshot, graph, program)?;
                rs.metrics.recovery.restores += 1;
                if let Some(registry) = &config.registry {
                    registry
                        .counter("gm_restores_total", "successful snapshot restores")
                        .inc();
                }
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
                            ("discarded", discarded.into()),
                        ],
                    );
                }
                runner.skip = Some(rs.superstep);
                resume = Some(rs);
            } else if let Some(t) = tracer {
                // Nothing to resume from: start from scratch.
                t.instant(
                    "restore_empty",
                    Category::Ckpt,
                    0,
                    vec![("discarded", discarded.into())],
                );
            }
        }
        ckpt = Some(runner);
    }

    // Build worker states (halted flags + inboxes) and value stores either
    // from `init` or from the restored vertex-indexed vectors, re-split
    // across the current partition. The stores live in `Shared` behind
    // per-worker `RwLock`s: a worker writes only its own store (compute),
    // but gathered supersteps let every worker read every store.
    let (states, stores, globals, drive_init, mut metrics) = match resume {
        None => (
            (0..num_workers)
                .map(|w| WorkerState::new(w, starts))
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
            let mut stores = Vec::with_capacity(num_workers);
            for w in (0..num_workers).rev() {
                let base = starts[w] as usize;
                states.push(WorkerState::from_restored(
                    w,
                    starts[w],
                    halted.split_off(base),
                    inboxes.split_off(base),
                ));
                stores.push(VertexStore::from_values(values.split_off(base)));
            }
            states.reverse();
            stores.reverse();
            let drive_init = DriveInit {
                superstep,
                active_vertices: coord.active_vertices,
                pending_messages: coord.pending_messages,
                agg_prev: coord.agg_prev,
            };
            (states, stores, coord.globals, drive_init, metrics)
        }
    };
    metrics.recovery.corrupt_snapshots_discarded += discarded;

    let shared = Shared {
        graph,
        program: RwLock::new(program),
        globals: RwLock::new(globals),
        stores: stores.into_iter().map(RwLock::new).collect::<Vec<_>>(),
        captured: [(); 2].map(|()| {
            (0..num_workers)
                .map(|_| RwLock::new(Captured::default()))
                .collect()
        }),
        starts: starts.to_vec(),
        tracer: tracer_handle.clone(),
        faults: config.faults.clone(),
        governor,
    };
    let driven = Executor::with(&shared, states, |exec| {
        drive(&shared, exec, config, drive_init, ckpt, &mut metrics)
    });
    if let Err(failed) = driven {
        return Err(seal_failure(
            failed,
            config,
            graph,
            &metrics,
            recorder.as_deref(),
        ));
    }
    // Every worker has parked; assemble the final values from the shared
    // stores in ascending worker order.
    let mut values = Vec::with_capacity(n);
    for store in &shared.stores {
        values.append(&mut write_lock(store).values);
    }
    Ok(PregelResult { values, metrics })
}
