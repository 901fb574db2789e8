//! The daemon core: graph store, program resolution, the runner pool,
//! and the glue that applies the pure scheduler's (`sched`) decisions.
//!
//! Concurrency model: `max_concurrent` runner threads block on a condvar
//! over the one scheduler mutex. Submission, dispatch, the end of an
//! attempt and drain each take that lock, ask the scheduler, then do the
//! journal, job-record and metrics side effects its answer names. Every
//! journalled job transition goes through `State::transition`, which
//! appends the record and applies it to the job table with
//! [`JobRecord::apply`] — the table is the fold of the journal. Work
//! runs *round-robin across tenants, FIFO within a tenant*, and only when
//! its budget reservation fits beside everything already running.
//!
//! A submission that repeats a completed job (same result-cache key)
//! is admitted like any other, then completed at once from that job's
//! result: it never queues or runs.

use crate::cache::{CacheKey, ResultCache};
use crate::job::{JobRecord, JobResult, JobSpec, JobState};
use crate::journal::{Journal, JournalRecord, Replay};
use crate::programs::{Program, ProgramTable};
use crate::sched::{Decision, Failure, Job, Scheduler};
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_graph::io::LoadedGraph;
use gm_interp::run_compiled;
use gm_obs::metrics::MetricsRegistry;
use gm_pregel::{CheckpointConfig, PregelConfig, ResourceBudget};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use crate::config::{BrownoutConfig, DaemonConfig, GraphSpec};
pub use crate::programs::builtin_sources;

/// Why a submission was refused at the door.
#[derive(Clone, Debug)]
pub enum Reject {
    /// The daemon is shutting down.
    Draining,
    /// The named graph is not loaded.
    UnknownGraph(String),
    /// The named builtin does not exist.
    UnknownProgram(String),
    /// Inline source failed to compile (rendered diagnostics).
    CompileError(String),
    /// The (graph, program) signature is quarantined after repeated
    /// identical failures.
    Quarantined {
        /// Failure-class slug of the repeated failure.
        kind: String,
        /// How many identical failures were seen.
        count: u32,
    },
    /// The requested budget can never fit the server totals.
    OverCapacity {
        /// Which budget overflowed.
        what: &'static str,
        /// Bytes the job asked for.
        requested: u64,
        /// The server-level total.
        capacity: u64,
    },
    /// The queue is at capacity.
    QueueFull {
        /// The configured cap.
        cap: usize,
    },
    /// Brownout: sustained saturation is shedding low-priority work and
    /// the queue is already at the brownout ceiling.
    Shedding {
        /// Suggested client backoff.
        retry_after: Duration,
    },
    /// The write-ahead journal could not persist the acceptance record;
    /// a daemon that cannot journal must not accept.
    JournalUnavailable(String),
    /// The spec itself is malformed.
    BadRequest(String),
}

impl Reject {
    /// The structured `error` slug (also the `reason` label of
    /// `gm_jobs_rejected_total`).
    pub(crate) fn slug(&self) -> &'static str {
        match self {
            Reject::Draining => "draining",
            Reject::UnknownGraph(_) => "unknown_graph",
            Reject::UnknownProgram(_) => "unknown_program",
            Reject::CompileError(_) => "compile_error",
            Reject::Quarantined { .. } => "quarantined",
            Reject::OverCapacity { .. } => "over_capacity",
            Reject::QueueFull { .. } => "queue_full",
            Reject::Shedding { .. } => "shedding",
            Reject::JournalUnavailable(_) => "journal_unavailable",
            Reject::BadRequest(_) => "bad_request",
        }
    }
}

type QueuedJob = Job<Arc<Program>>;

/// Job records plus terminal ids in completion order, for oldest-first
/// history GC, and the result cache that indexes the completed ones.
#[derive(Default)]
struct Jobs {
    /// Boxed: with an unbounded history the table holds one slot per job
    /// ever accepted, and a pointer-sized slot keeps its resizes small.
    records: HashMap<String, Box<JobRecord>>,
    history: VecDeque<String>,
    cache: ResultCache,
}

impl Jobs {
    /// The newest completed job with this key: its id and shared result.
    fn cached(&self, key: &CacheKey) -> Option<(String, Arc<JobResult>)> {
        let id = self.cache.lookup(key)?;
        match &self.records.get(id)?.state {
            JobState::Completed(result) => Some((id.to_owned(), result.clone())),
            _ => None,
        }
    }

    /// Appends a terminal job to the history and applies oldest-first GC
    /// when `keep` (`--job-history-keep`) bounds it; a cache entry leaves
    /// with the record it points at.
    fn retire(&mut self, id: &str, keep: usize) {
        self.history.push_back(id.to_owned());
        let excess = if keep == 0 {
            0
        } else {
            self.history.len().saturating_sub(keep)
        };
        for victim in self.history.drain(..excess) {
            self.records.remove(&victim);
            self.cache.evict(&victim);
        }
    }
}

/// Whether a job's result may be served from, or stored in, the result
/// cache: full property columns are never cached.
fn cacheable(spec: &JobSpec) -> bool {
    !spec.include_props
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Shared daemon state; HTTP handlers and runners both hold an `Arc`.
///
/// Two locks, always taken in this order: `sched` (every scheduling
/// decision) before `jobs` (the records clients read).
pub struct State {
    config: DaemonConfig,
    graphs: BTreeMap<String, Arc<LoadedGraph>>,
    /// Every program served, by builtin name or inline text.
    programs: ProgramTable,
    registry: Arc<MetricsRegistry>,
    jobs: Mutex<Jobs>,
    sched: Mutex<Scheduler<Arc<Program>>>,
    work_cv: Condvar,
    job_seq: AtomicU64,
    /// Shared cooperative-cancellation token: set during a timed-out
    /// drain so stragglers stop at their next superstep boundary.
    cancel: Arc<AtomicBool>,
    /// Write-ahead job journal (`Some` when `--journal-dir` is set).
    journal: Option<Journal>,
}

impl State {
    /// The daemon configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// The loaded graph snapshots.
    pub fn graphs(&self) -> &BTreeMap<String, Arc<LoadedGraph>> {
        &self.graphs
    }

    /// Builtin program names, for error messages and `/v1/graphs`-style
    /// introspection.
    pub fn builtin_names(&self) -> Vec<&str> {
        self.programs.builtin_names()
    }

    /// The metrics registry (runtime + `gm_jobs_*` series).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether the daemon is refusing new work.
    pub fn draining(&self) -> bool {
        self.lock_sched().draining()
    }

    /// Currently running job count.
    pub fn running(&self) -> usize {
        self.lock_sched().running()
    }

    /// A snapshot of one job's record.
    pub fn job(&self, id: &str) -> Option<JobRecord> {
        self.lock_jobs()
            .records
            .get(id)
            .map(|rec| JobRecord::clone(rec))
    }

    fn lock_sched(&self) -> MutexGuard<'_, Scheduler<Arc<Program>>> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_jobs(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Journals a job transition and applies it to the job table: the one
    /// path of every journalled transition. `recs` (one job's records) go
    /// to the journal under one write and one fsync, then through
    /// [`JobRecord::apply`] under one job-table lock, so no reader sees
    /// them half applied; a job they end gets `index` run on the result
    /// cache, then retires into the history. Only an `accepted` batch can
    /// fail: a daemon that cannot journal must not accept. A later record
    /// that fails to append is counted, not propagated — replay re-runs
    /// the job, which is safe because results are deterministic.
    fn transition(
        &self,
        recs: &[JournalRecord],
        index: impl FnOnce(&mut ResultCache),
    ) -> Result<(), Reject> {
        if let Some(Err(e)) = self.journal.as_ref().map(|j| j.append_all(recs)) {
            if let Some(JournalRecord::Accepted { .. }) = recs.first() {
                return Err(Reject::JournalUnavailable(e.to_string()));
            }
            for rec in recs {
                self.count(
                    "gm_journal_append_errors_total",
                    "journal appends that failed after acceptance",
                    &[("type", rec.kind())],
                );
            }
        }
        let mut jobs = self.lock_jobs();
        let mut ended = None;
        for rec in recs {
            let id = rec.id();
            let job = match rec {
                JournalRecord::Accepted { .. } => {
                    Some(jobs.records.entry(id.to_owned()).or_default())
                }
                _ => jobs.records.get_mut(id),
            };
            if let Some(job) = job.filter(|job| !job.state.is_terminal()) {
                job.apply(rec);
                if job.state.is_terminal() {
                    ended = Some(id);
                }
            }
        }
        if let Some(id) = ended {
            index(&mut jobs.cache);
            jobs.retire(id, self.config.job_history_keep);
        }
        Ok(())
    }

    /// Resolves a spec into a runnable job (id unassigned): graph and
    /// program-table lookup, and reservation sizes. Shared by submission
    /// and crash replay; runs before any lock is taken, because binding
    /// an inline text compiles it.
    fn resolve(&self, mut spec: JobSpec) -> Result<QueuedJob, Reject> {
        if !self.graphs.contains_key(&spec.graph) {
            return Err(Reject::UnknownGraph(spec.graph));
        }
        let program = self.programs.get(&spec.program)?;
        // A scalar argument of the wrong type would fail inside the run;
        // refuse it here, before it is queued (or, on replay, requeued).
        for (name, ty) in &program.compiled.program.scalar_params {
            if let Some(Err(e)) = spec.args.get(name).map(|v| v.try_coerce(ty)) {
                return Err(Reject::BadRequest(format!("argument `{name}`: {e}")));
            }
        }
        // Pin the effective worker count when journalling: checkpoint
        // resume after a crash must re-run with the same parallelism so
        // floating-point reductions stay bit-identical.
        if self.journal.is_some() {
            spec.workers = Some(spec.workers.unwrap_or(self.config.default_workers));
        }
        // A job that names no budget reserves its fair share.
        let fair = |total: u64| (total / self.config.max_concurrent.max(1) as u64).max(1);
        Ok(Job {
            id: String::new(),
            msg_bytes: (spec.max_message_bytes).unwrap_or(fair(self.config.total_message_bytes)),
            res_bytes: (spec.max_resident_bytes).unwrap_or(fair(self.config.total_resident_bytes)),
            spec,
            submitted: Instant::now(),
            attempt: 0,
            payload: program,
        })
    }

    /// Validates, admits, and enqueues a job. Returns the job id.
    pub fn submit(self: &Arc<Self>, spec: JobSpec) -> Result<String, Reject> {
        self.accept(spec).map(|(id, _)| id)
    }

    /// [`State::submit`], also reporting whether the job was completed at
    /// once from the result cache.
    pub(crate) fn accept(self: &Arc<Self>, spec: JobSpec) -> Result<(String, bool), Reject> {
        let mut job = self.resolve(spec)?;
        let key = cacheable(&job.spec).then(|| {
            let workers = job.spec.workers.unwrap_or(self.config.default_workers);
            CacheKey::new(&job.spec, job.payload.backend(), workers)
        });
        let mut cached = false;
        // The scheduler lock lives in this block only: shed jobs are
        // journalled below without it.
        let (shed, admitted) = {
            let mut sched = self.lock_sched();
            let (shed, verdict) = sched.admit(&job, Instant::now());
            let admitted = verdict.and_then(|()| {
                job.id = format!("job-{}", self.job_seq.fetch_add(1, Ordering::Relaxed));
                let hit = key.and_then(|key| self.lock_jobs().cached(&key));
                cached = hit.is_some();
                match hit {
                    Some(hit) => {
                        drop(sched);
                        self.complete_cached(job, hit)
                    }
                    None => self.enqueue(sched, job),
                }
            });
            (shed, admitted)
        };
        for job in shed {
            self.count(
                "gm_jobs_shed_total",
                "queued jobs shed during brownout",
                &[("tenant", &job.spec.tenant)],
            );
            self.fail_unrun(
                &job.id,
                ms_since(job.submitted),
                "shed",
                "brownout: shed under sustained saturation",
            );
        }
        let (id, tenant) = admitted.inspect_err(|reject| {
            self.count(
                "gm_jobs_rejected_total",
                "jobs refused at admission",
                &[("reason", reject.slug())],
            );
        })?;
        self.count(
            "gm_jobs_submitted_total",
            "jobs accepted",
            &[("tenant", &tenant)],
        );
        if !cached {
            self.work_cv.notify_all();
        }
        Ok((id, cached))
    }

    /// Journals an admitted job's acceptance and queues it; releases the
    /// scheduler lock on return. Returns (id, tenant).
    fn enqueue(
        &self,
        mut sched: MutexGuard<'_, Scheduler<Arc<Program>>>,
        job: QueuedJob,
    ) -> Result<(String, String), Reject> {
        // Write-ahead discipline: the acceptance is journalled *before*
        // it becomes observable.
        let accepted = JournalRecord::Accepted {
            id: job.id.clone(),
            backend: job.payload.backend().to_owned(),
            spec: job.spec.clone(),
        };
        self.transition(&[accepted], |_| {})?;
        let (id, tenant) = (job.id.clone(), job.spec.tenant.clone());
        sched.enqueue(job);
        self.publish(&sched);
        Ok((id, tenant))
    }

    /// Completes an admitted job from the result of an earlier identical
    /// one: its `accepted` and `completed` records go to the journal under
    /// one fsync, then the record appears already terminal, sharing the
    /// earlier record's result. No queue, runner, `started` record, run or
    /// fingerprinting. Returns (id, tenant).
    fn complete_cached(
        &self,
        job: QueuedJob,
        (source, result): (String, Arc<JobResult>),
    ) -> Result<(String, String), Reject> {
        let wall_ms = ms_since(job.submitted);
        let QueuedJob {
            id, spec, payload, ..
        } = job;
        let tenant = spec.tenant.clone();
        let records = [
            JournalRecord::Accepted {
                id: id.clone(),
                backend: payload.backend().to_owned(),
                spec,
            },
            JournalRecord::Completed {
                id: id.clone(),
                wall_ms,
                result,
                cached: true,
            },
        ];
        self.transition(&records, |cache| cache.repoint(&source, &id))?;
        let labels = [("tenant", tenant.as_str())];
        self.count(
            "gm_jobs_cache_hits_total",
            "jobs completed from the result cache",
            &labels,
        );
        self.count(
            "gm_jobs_completed_total",
            "jobs finished successfully",
            &labels,
        );
        self.observe_latency(&tenant, wall_ms);
        Ok((id, tenant))
    }

    /// Fails a job that never ran — shed by the brownout, flushed by
    /// drain (`kind` "cancelled"), or replayed but no longer runnable.
    fn fail_unrun(&self, id: &str, wall_ms: f64, kind: &str, message: &str) {
        let (id, message) = (id.to_owned(), message.to_owned());
        let rec = if kind == "cancelled" {
            JournalRecord::Cancelled {
                id,
                wall_ms,
                message,
            }
        } else {
            JournalRecord::Failed {
                id,
                wall_ms,
                kind: kind.to_owned(),
                message,
                bundle: None,
            }
        };
        let _ = self.transition(&[rec], |_| {});
    }

    fn observe_latency(&self, tenant: &str, wall_ms: f64) {
        self.registry
            .histogram_with(
                "gm_job_latency_ms",
                "end-to-end job latency (submit to terminal state)",
                &[("tenant", tenant)],
            )
            .observe(wall_ms);
    }

    fn count(&self, name: &str, help: &str, labels: &[(&str, &str)]) {
        self.registry.counter_with(name, help, labels).inc();
    }

    /// Publishes the scheduler's queue depth and running count.
    fn publish(&self, sched: &Scheduler<Arc<Program>>) {
        let depth = ("gm_jobs_queue_depth", "accepted jobs waiting for a runner");
        let running = ("gm_jobs_running", "jobs currently executing");
        self.registry
            .gauge(depth.0, depth.1)
            .set(sched.queued() as f64);
        self.registry
            .gauge(running.0, running.1)
            .set(sched.running() as f64);
    }

    /// Blocks until the scheduler dispatches a job; `None` once the
    /// daemon stops.
    fn next_job(&self) -> Option<QueuedJob> {
        let mut sched = self.lock_sched();
        loop {
            if sched.shutdown {
                return None;
            }
            let now = Instant::now();
            for id in sched.promote_due(now) {
                if let Some(rec) = self.lock_jobs().records.get_mut(&id) {
                    rec.state = JobState::Queued;
                }
            }
            if let Some(job) = sched.pick() {
                self.publish(&sched);
                return Some(job);
            }
            // With retried jobs parked, sleep only until the earliest
            // backoff elapses.
            sched = match sched.next_due() {
                Some(due) => {
                    let wait = due
                        .saturating_duration_since(now)
                        .max(Duration::from_millis(1));
                    let waited = self.work_cv.wait_timeout(sched, wait);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
                None => self.work_cv.wait(sched).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }

    fn runner_loop(self: &Arc<Self>) {
        while let Some(job) = self.next_job() {
            self.execute(job);
            self.work_cv.notify_all();
        }
    }

    /// Runs one job attempt, hands the outcome to the scheduler, and
    /// applies the decision: journal record, job record, metrics.
    fn execute(self: &Arc<Self>, job: QueuedJob) {
        let attempt = job.attempt;
        let started = JournalRecord::Started {
            id: job.id.clone(),
            attempt,
        };
        let _ = self.transition(&[started], |_| {});
        let graph = self.graphs[&job.spec.graph].clone();
        let program = &job.payload;
        let mut args = job.spec.arg_values();
        // Like `gmc run`: the first declared edge-property parameter is
        // fed from the snapshot's weight column unless supplied.
        if let Some((name, _)) = program.compiled.program.edge_props.first() {
            args.entry(name.clone()).or_insert_with(|| {
                ArgValue::EdgeProp(graph.weights.iter().map(|&w| Value::Int(w)).collect())
            });
        }
        let mut budget = ResourceBudget::unbounded()
            .with_max_message_bytes(job.msg_bytes)
            .with_max_resident_bytes(job.res_bytes);
        if let Some(d) = job.spec.deadline.or(self.config.default_deadline) {
            budget = budget.with_superstep_deadline(d);
        }
        let workers = job.spec.workers.unwrap_or(self.config.default_workers);
        let mut config = PregelConfig::with_workers(workers)
            .with_budget(budget)
            .with_registry(self.registry.clone())
            .with_cancel(self.cancel.clone());
        config.post_mortem = self.config.post_mortem.clone();
        if let Some(journal) = &self.config.journal {
            config.faults = journal.faults.clone();
        }
        // Arm crash checkpoints when journalling: a later attempt (or a
        // restarted daemon) resumes from the newest valid snapshot.
        if let Some(journal) = &self.journal {
            let every = job.spec.checkpoint_every.or_else(|| {
                self.config
                    .journal
                    .as_ref()
                    .and_then(|j| j.checkpoint_every)
            });
            if let Some(every) = every {
                config = config.with_checkpoints(
                    CheckpointConfig::new(journal.checkpoint_dir(&job.id), every)
                        .with_resume(true)
                        .with_keep(2),
                );
            }
        }

        let outcome = match program.native {
            Some(run) => run(&graph.graph, &args, job.spec.seed, &config),
            None => run_compiled(
                &graph.graph,
                &program.compiled,
                &args,
                job.spec.seed,
                &config,
            ),
        };
        let wall_ms = ms_since(job.submitted);
        let outcome = (outcome.map(|out| JobResult::from_outcome(&out, job.spec.include_props)))
            .map_err(Failure::from);
        let (id, tenant) = (job.id.clone(), job.spec.tenant.clone());
        // A completed cacheable run becomes its key's cache entry.
        let key = (outcome.is_ok() && cacheable(&job.spec))
            .then(|| CacheKey::new(&job.spec, program.backend(), workers));
        let mut sched = self.lock_sched();
        let decision = sched.finish(job, outcome.as_ref().err(), Instant::now());
        self.publish(&sched);
        if let (Decision::Retry { delay }, Err(f)) = (&decision, &outcome) {
            // Recorded under the scheduler lock: a drain must not flush
            // the parked job before its `retrying` record lands.
            let retrying = JournalRecord::Retrying {
                id: id.clone(),
                attempt,
                kind: f.kind.clone(),
                delay_ms: delay.as_millis() as u64,
            };
            let _ = self.transition(&[retrying], |_| {});
            drop(sched);
            let labels = [("tenant", tenant.as_str()), ("kind", f.kind.as_str())];
            self.count(
                "gm_jobs_retried_total",
                "transient failures scheduled for retry",
                &labels,
            );
            return;
        }
        drop(sched);
        let labels = [("tenant", tenant.as_str())];
        let ended = match outcome {
            Ok(result) => {
                self.count(
                    "gm_jobs_completed_total",
                    "jobs finished successfully",
                    &labels,
                );
                JournalRecord::Completed {
                    id: id.clone(),
                    wall_ms,
                    result: Arc::new(result),
                    cached: false,
                }
            }
            // A running job stopped by a drain's cancel is journalled as
            // `failed` (kind "cancelled"), keeping its bundle.
            Err(f) => {
                self.count("gm_jobs_failed_total", "jobs finished in failure", &labels);
                JournalRecord::Failed {
                    id: id.clone(),
                    wall_ms,
                    kind: f.kind,
                    message: f.message,
                    bundle: f.bundle,
                }
            }
        };
        self.observe_latency(&tenant, wall_ms);
        let _ = self.transition(&[ended], |cache| {
            if let Some(key) = key {
                cache.point(key, &id);
            }
        });
        if let Some(journal) = &self.journal {
            journal.remove_checkpoints(&id);
        }
    }

    /// Applies the journal replay at startup: terminal jobs become
    /// history; the rest are re-resolved and re-queued (pre-admitted —
    /// they passed admission before the crash) on whichever backend binds
    /// now, or failed when their graph or program is gone. A job that
    /// changed backend finds its snapshots refused by the runtime, which
    /// removes them and re-runs it from superstep 0.
    fn apply_replay(&self, mut replay: Replay) {
        for record in replay.jobs {
            let id = record.id.clone();
            let Some(spec) = replay.requeue.remove(&id) else {
                let mut jobs = self.lock_jobs();
                jobs.records.insert(id.clone(), Box::new(record));
                jobs.history.push_back(id);
                continue;
            };
            let mut record = Box::new(record);
            match self.resolve(spec) {
                Ok(mut queued) => {
                    queued.id = id.clone();
                    queued.attempt = record.attempts;
                    record.backend = queued.payload.backend().to_owned();
                    self.lock_jobs().records.insert(id, record);
                    self.lock_sched().enqueue(queued);
                }
                Err(reject) => {
                    self.lock_jobs().records.insert(id.clone(), record);
                    let message = match &reject {
                        Reject::UnknownGraph(g) => {
                            format!("graph {g:?} is not loaded after restart")
                        }
                        Reject::UnknownProgram(p) => {
                            format!("builtin {p:?} is unknown after restart")
                        }
                        Reject::CompileError(message) | Reject::BadRequest(message) => {
                            message.clone()
                        }
                        other => format!("{other:?}"),
                    };
                    self.fail_unrun(&id, 0.0, reject.slug(), &message);
                }
            }
        }
        self.publish(&self.lock_sched());
    }
}

/// A running daemon: HTTP server + runner pool over shared [`State`].
pub struct Daemon {
    state: Arc<State>,
    addr: SocketAddr,
    server: Option<gm_obs::http::HttpServer>,
    runners: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Loads graphs, compiles the builtins, binds the listener, and
    /// starts the runner pool.
    pub fn start(config: DaemonConfig) -> Result<Daemon, String> {
        if config.graphs.is_empty() {
            return Err("no graphs configured (need at least one --graph name=<spec>)".to_owned());
        }
        if config.max_concurrent == 0 {
            return Err("max_concurrent must be >= 1".to_owned());
        }
        let mut graphs = BTreeMap::new();
        for spec in &config.graphs {
            if graphs
                .insert(spec.name.clone(), Arc::new(spec.load()?))
                .is_some()
            {
                return Err(format!("duplicate graph name {:?}", spec.name));
            }
        }
        let registry = Arc::new(MetricsRegistry::new());
        let programs = ProgramTable::new(config.native_builtins, registry.clone())?;
        // Open (and replay) the journal before anything is observable:
        // the id sequence must resume above every journalled id.
        let (journal, replay) = match &config.journal {
            Some(jc) => {
                let (j, r) = Journal::open(jc, config.job_history_keep, registry.clone())
                    .map_err(|e| format!("cannot open journal at {}: {e}", jc.dir.display()))?;
                (Some(j), Some(r))
            }
            None => (None, None),
        };
        let job_seq = replay.as_ref().map(|r| r.max_job_seq + 1).unwrap_or(1);
        let state = Arc::new(State {
            registry,
            graphs,
            programs,
            jobs: Mutex::new(Jobs::default()),
            sched: Mutex::new(Scheduler::new(&config)),
            work_cv: Condvar::new(),
            job_seq: AtomicU64::new(job_seq),
            cancel: Arc::new(AtomicBool::new(false)),
            journal,
            config,
        });
        if let Some(replay) = replay {
            state.apply_replay(replay);
        }
        let runners = (0..state.config.max_concurrent)
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("gmd-runner-{i}"))
                    .spawn(move || state.runner_loop())
                    .map_err(|e| format!("cannot spawn runner: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let server = crate::api::router(state.clone())
            .serve(&state.config.listen)
            .map_err(|e| format!("cannot bind {}: {e}", state.config.listen))?;
        Ok(Daemon {
            state,
            addr: server.addr(),
            server: Some(server),
            runners,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests and the CLI reach metrics through it).
    pub fn state(&self) -> &Arc<State> {
        &self.state
    }

    /// Graceful shutdown: refuse new submissions, fail queued jobs as
    /// `cancelled`, wait up to the drain timeout for running jobs, then
    /// cancel stragglers cooperatively and stop the pool and listener.
    /// Returns `true` when every running job finished on its own.
    pub fn drain(mut self) -> bool {
        let state = self.state.clone();
        let deadline = Instant::now() + state.config.drain_timeout;

        // Queued jobs (including retried jobs waiting out a backoff) are
        // failed at once: they have no partial work to lose, and clients
        // polling them need a terminal answer.
        let flushed = {
            let mut sched = state.lock_sched();
            let flushed = sched.drain();
            state.publish(&sched);
            flushed
        };
        for job in flushed {
            let wall_ms = ms_since(job.submitted);
            state.fail_unrun(&job.id, wall_ms, "cancelled", "daemon draining");
        }

        let mut graceful = true;
        // Past the drain deadline, stragglers are cancelled cooperatively
        // (they stop at their next superstep boundary) and get one more
        // timeout's worth of grace before we give up waiting. A second
        // signal (the abort latch) skips the grace entirely.
        let hard_deadline = deadline + state.config.drain_timeout;
        let mut sched = state.lock_sched();
        while sched.running() > 0 {
            let now = Instant::now();
            if now >= hard_deadline {
                break;
            }
            let abort = state.config.abort.load(Ordering::Relaxed);
            if (abort || now >= deadline) && !state.cancel.load(Ordering::Relaxed) {
                graceful = false;
                state.cancel.store(true, Ordering::Relaxed);
            }
            let until = if now < deadline {
                deadline
            } else {
                hard_deadline
            };
            // Wake at least every 100ms so a late abort latch is seen.
            let wait = until
                .saturating_duration_since(now)
                .clamp(Duration::from_millis(10), Duration::from_millis(100));
            let waited = state.work_cv.wait_timeout(sched, wait);
            sched = waited.unwrap_or_else(|e| e.into_inner()).0;
        }
        drop(sched);
        self.stop_runners();
        self.server.take(); // drop stops the accept loop
        graceful
    }

    fn stop_runners(&mut self) {
        self.state.lock_sched().shutdown = true;
        self.state.work_cv.notify_all();
        for handle in self.runners.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Non-drain teardown (tests, panics): stop runners without
        // waiting for queued work.
        self.stop_runners();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_obs::json::parse;

    fn wait_terminal(state: &State, id: &str) -> JobRecord {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match state.job(id) {
                Some(rec) if rec.state.is_terminal() => return rec,
                _ => {
                    assert!(Instant::now() < deadline, "{id} never became terminal");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    fn result_of(rec: &JobRecord) -> Arc<JobResult> {
        match &rec.state {
            JobState::Completed(result) => result.clone(),
            other => panic!("{} not completed: {other:?}", rec.id),
        }
    }

    fn start(job_history_keep: usize) -> Daemon {
        Daemon::start(DaemonConfig {
            graphs: vec![GraphSpec::parse("g=rmat:200:900:5").unwrap()],
            post_mortem: None,
            job_history_keep,
            ..DaemonConfig::default()
        })
        .expect("daemon starts")
    }

    fn spec(seed: u64) -> JobSpec {
        let doc =
            format!(r#"{{"graph":"g","program":"sssp","args":{{"root":"n:1"}},"seed":{seed}}}"#);
        JobSpec::from_json(&parse(&doc).unwrap()).unwrap()
    }

    #[test]
    fn hits_share_the_run_s_result_and_index_one_entry() {
        let daemon = start(0);
        let state = daemon.state().clone();
        let run = state.submit(spec(2)).unwrap();
        let run = result_of(&wait_terminal(&state, &run));
        let (a, a_cached) = state.accept(spec(2)).unwrap();
        let (b, b_cached) = state.accept(spec(2)).unwrap();
        assert!(a_cached && b_cached);
        let (a, b) = (state.job(&a).unwrap(), state.job(&b).unwrap());
        assert!(a.cached && b.cached && a.state.is_terminal());
        assert!(Arc::ptr_eq(&result_of(&a), &result_of(&b)));
        assert!(Arc::ptr_eq(&result_of(&a), &run));
        let jobs = state.lock_jobs();
        assert_eq!(jobs.cache.len(), 1);
        let key = CacheKey::new(&spec(2), "native", state.config.default_workers);
        assert_eq!(jobs.cache.lookup(&key), Some(b.id.as_str()));
    }

    #[test]
    fn an_evicted_record_takes_its_cache_entry_along() {
        let daemon = start(1);
        let state = daemon.state().clone();
        for seed in [1, 2] {
            let id = state.submit(spec(seed)).unwrap();
            wait_terminal(&state, &id);
        }
        let jobs = state.lock_jobs();
        assert_eq!(jobs.records.len(), 1);
        assert_eq!(jobs.cache.len(), 1, "job-1's entry left with its record");
    }
}
