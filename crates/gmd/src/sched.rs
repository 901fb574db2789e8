//! The scheduler: every decision about where a job goes next — tenant
//! queues and their round-robin turn, byte reservations, retry parking
//! and token buckets, quarantine, brownout shedding, drain's flush — as
//! a pure state machine. It holds no locks, reads no clock (every
//! time-dependent call takes `now`) and does no I/O: the daemon takes
//! its one scheduler lock, calls in, and performs the side effects the
//! returned decision names, so the policy is testable event by event.
//!
//! Retries: real serving failures split into *transient* (a deadline
//! blip under load, a spill-write hiccup, a wedged worker) and
//! *deterministic* (bad arguments, a program that always overruns);
//! transient is [`gm_pregel::PregelError::is_recoverable`], the
//! runtime's one definition, which this module never widens. A
//! transiently-failed job is re-queued after
//! `uniform(0, min(cap, base·2^(attempt-1)))` — AWS-style full jitter,
//! so synchronized failures do not retry in lockstep — while a
//! per-tenant token bucket stops a pathological tenant from converting
//! retries into amplification. Only when the retry budget is exhausted
//! does the failure become terminal and count toward quarantine.
//! Randomness is the workspace's seeded SplitMix64 (deterministic given
//! the job id hash and attempt), so tests can pin exact delays.

use crate::config::DaemonConfig;
use crate::daemon::Reject;
use crate::job::JobSpec;
use gm_graph::rng::SplitMix64;
use gm_interp::RunError;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The daemon-wide retry policy; per-request fields on
/// [`JobSpec`] override the first three knobs.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries per job beyond the first attempt (`0` disables).
    pub max_retries: u32,
    /// Backoff base: the jitter ceiling of the first retry.
    pub base: Duration,
    /// Backoff ceiling regardless of attempt count.
    pub cap: Duration,
    /// Token-bucket capacity per tenant: at most this many retries in a
    /// burst across all of a tenant's jobs.
    pub tenant_tokens: u32,
    /// One token refills per tenant per this interval.
    pub tenant_refill: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            tenant_tokens: 8,
            tenant_refill: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// The policy with per-request overrides from a spec applied.
    pub fn for_spec(&self, spec: &JobSpec) -> RetryPolicy {
        let mut p = self.clone();
        if let Some(r) = spec.max_retries {
            p.max_retries = r;
        }
        if let Some(ms) = spec.retry_base_ms {
            p.base = Duration::from_millis(ms);
        }
        if let Some(ms) = spec.retry_cap_ms {
            p.cap = Duration::from_millis(ms);
        }
        p
    }

    /// Full-jitter backoff before retry number `retry` (1-based):
    /// uniform in `[0, min(cap, base·2^(retry-1))]`, deterministic for
    /// a given `seed`.
    pub fn delay(&self, retry: u32, seed: u64) -> Duration {
        let base_ms = self.base.as_millis() as u64;
        let shift = u32::min(retry.saturating_sub(1), 32);
        let ceil_ms = base_ms
            .saturating_mul(1u64 << shift)
            .min(self.cap.as_millis() as u64);
        // The graph generators' stream, seeded per (job, retry).
        let mut rng = SplitMix64::new(seed ^ (u64::from(retry) << 32));
        Duration::from_millis(rng.below(ceil_ms + 1))
    }
}

/// How an attempt failed, classified once, at the error site.
pub(crate) struct Failure {
    /// Failure-class slug.
    pub(crate) kind: String,
    /// The rendered error.
    pub(crate) message: String,
    /// Post-mortem bundle, when one was written.
    pub(crate) bundle: Option<PathBuf>,
    /// Whether the failure may be retried.
    pub(crate) retryable: bool,
}

impl From<RunError> for Failure {
    fn from(err: RunError) -> Failure {
        match err {
            RunError::BadArgument(message) => Failure {
                kind: "bad_argument".to_owned(),
                message,
                bundle: None,
                retryable: false,
            },
            RunError::Pregel(e) => Failure {
                kind: e.kind().to_owned(),
                message: e.to_string(),
                bundle: e.post_mortem_bundle().map(PathBuf::from),
                retryable: e.is_recoverable(),
            },
        }
    }
}

/// One tenant's retry tokens, refilled lazily when next drawn from.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// An admitted job as the scheduler sees it; `P` is what the runner
/// needs to execute it (the resolved program, in the daemon).
pub(crate) struct Job<P> {
    /// Wire id (`"job-<n>"`).
    pub(crate) id: String,
    /// The spec as accepted.
    pub(crate) spec: JobSpec,
    /// Reserved message bytes (explicit request or fair share).
    pub(crate) msg_bytes: u64,
    /// Reserved resident bytes.
    pub(crate) res_bytes: u64,
    /// When the job entered the daemon (wall time is measured from here).
    pub(crate) submitted: Instant,
    /// Attempts started: 0 for a fresh submission, >0 after retries or
    /// a crash-replay requeue. [`Scheduler::pick`] counts the attempt it
    /// dispatches.
    pub(crate) attempt: u32,
    /// What the runner executes.
    pub(crate) payload: P,
}

/// What happens to a job after an attempt ends.
#[derive(Debug, PartialEq)]
pub(crate) enum Decision {
    /// Terminal success.
    Complete,
    /// Parked until the backoff elapses; not terminal.
    Retry {
        /// The backoff.
        delay: Duration,
    },
    /// Terminal failure.
    Fail,
}

/// The pure scheduler; see the module docs.
pub(crate) struct Scheduler<P> {
    /// Budgets, caps and policies (read only).
    config: DaemonConfig,
    /// Per-tenant FIFO queues.
    queues: BTreeMap<String, VecDeque<Job<P>>>,
    /// The tenant served last: the next pick starts at its successor in
    /// name order, however the tenant set changed in between.
    last_served: Option<String>,
    running: usize,
    reserved_msg: u64,
    reserved_res: u64,
    draining: bool,
    /// Set once the runners should exit.
    pub(crate) shutdown: bool,
    /// Retried jobs waiting out their backoff (not counted in
    /// [`Scheduler::queued`] until promoted).
    delayed: Vec<(Instant, Job<P>)>,
    /// When reservation saturation was first observed (brownout timer).
    saturated_since: Option<Instant>,
    /// Whether the brownout is currently shedding.
    shedding: bool,
    /// Retry token buckets per tenant.
    buckets: HashMap<String, Bucket>,
    /// Terminal failure signature — (kind, repeats) — per (graph,
    /// program label).
    quarantine: HashMap<(String, String), (String, u32)>,
}

impl<P> Scheduler<P> {
    /// An idle scheduler over the daemon's limits and policies.
    pub(crate) fn new(config: &DaemonConfig) -> Scheduler<P> {
        Scheduler {
            config: config.clone(),
            queues: BTreeMap::new(),
            last_served: None,
            running: 0,
            reserved_msg: 0,
            reserved_res: 0,
            draining: false,
            shutdown: false,
            delayed: Vec::new(),
            saturated_since: None,
            shedding: false,
            buckets: HashMap::new(),
            quarantine: HashMap::new(),
        }
    }

    /// Jobs waiting for a runner (parked retries excluded).
    pub(crate) fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Jobs currently executing.
    pub(crate) fn running(&self) -> usize {
        self.running
    }

    /// Whether drain has begun.
    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// Decides whether `job` may be queued, checking in order:
    /// quarantine, capacity, then (after re-evaluating the brownout)
    /// draining, shedding and the queue cap. The returned jobs were
    /// shed by the brownout and must be failed whatever the verdict.
    /// On `Ok` the caller assigns the id and calls [`Scheduler::enqueue`].
    pub(crate) fn admit(
        &mut self,
        job: &Job<P>,
        now: Instant,
    ) -> (Vec<Job<P>>, Result<(), Reject>) {
        let key = (job.spec.graph.clone(), job.spec.program.label());
        let threshold = self.config.quarantine_threshold;
        if let Some((kind, count)) = self.quarantine.get(&key).filter(|(_, n)| *n >= threshold) {
            let (kind, count) = (kind.clone(), *count);
            return (Vec::new(), Err(Reject::Quarantined { kind, count }));
        }
        for (what, requested, capacity) in [
            (
                "message_bytes",
                job.msg_bytes,
                self.config.total_message_bytes,
            ),
            (
                "resident_bytes",
                job.res_bytes,
                self.config.total_resident_bytes,
            ),
        ] {
            if requested > capacity {
                let reject = Reject::OverCapacity {
                    what,
                    requested,
                    capacity,
                };
                return (Vec::new(), Err(reject));
            }
        }
        let shed = self.update_brownout(now);
        let verdict = if self.draining {
            Err(Reject::Draining)
        } else if let Some(b) =
            (self.config.brownout.as_ref()).filter(|b| self.shedding && self.queued() >= b.shed_to)
        {
            Err(Reject::Shedding {
                retry_after: b.hold,
            })
        } else if self.queued() >= self.config.queue_cap {
            let cap = self.config.queue_cap;
            Err(Reject::QueueFull { cap })
        } else {
            Ok(())
        };
        (shed, verdict)
    }

    /// Appends a job to its tenant's queue. Crash-replayed jobs come
    /// straight here: they were admitted before the crash.
    pub(crate) fn enqueue(&mut self, job: Job<P>) {
        let queue = self.queues.entry(job.spec.tenant.clone()).or_default();
        queue.push_back(job);
    }

    /// Re-evaluates the brownout. Once reservation saturation has
    /// persisted past the hold, queued work is dequeued lowest-priority
    /// first (newest first within a priority) down to the shed floor.
    fn update_brownout(&mut self, now: Instant) -> Vec<Job<P>> {
        let Some(b) = &self.config.brownout else {
            return Vec::new();
        };
        let saturated = self.reserved_msg as f64
            >= b.saturation * self.config.total_message_bytes as f64
            || self.reserved_res as f64 >= b.saturation * self.config.total_resident_bytes as f64;
        if !saturated {
            self.saturated_since = None;
            self.shedding = false;
            return Vec::new();
        }
        let since = *self.saturated_since.get_or_insert(now);
        if now.duration_since(since) < b.hold {
            return Vec::new();
        }
        self.shedding = true;
        let mut shed = Vec::new();
        while self.queued() > b.shed_to {
            // The first job in tenant/FIFO order with the lowest
            // priority and, among those, the latest submission.
            let victim = self
                .queues
                .iter()
                .flat_map(|(t, q)| q.iter().enumerate().map(move |(i, j)| (t, i, j)))
                .min_by(|(_, _, x), (_, _, y)| {
                    (x.spec.priority, y.submitted).cmp(&(y.spec.priority, x.submitted))
                })
                .map(|(t, i, _)| (t.clone(), i));
            let Some((tenant, i)) = victim else {
                break;
            };
            let queue = self.queues.get_mut(&tenant);
            shed.extend(queue.and_then(|q| q.remove(i)));
            self.queues.retain(|_, q| !q.is_empty());
        }
        shed
    }

    /// Moves retried jobs whose backoff has elapsed back into their
    /// tenant queues; returns their ids.
    pub(crate) fn promote_due(&mut self, now: Instant) -> Vec<String> {
        let due: Vec<_> = (self.delayed.extract_if(.., |(due, _)| *due <= now)).collect();
        (due.into_iter())
            .map(|(_, job)| {
                let id = job.id.clone();
                self.enqueue(job);
                id
            })
            .collect()
    }

    /// When the earliest parked retry becomes due.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.delayed.iter().map(|(due, _)| *due).min()
    }

    /// Dispatches the next runnable job: round-robin over tenants, FIFO
    /// within each, skipping tenants whose front job does not fit the
    /// remaining budget. Reserves its bytes and a running slot, and
    /// counts the attempt.
    pub(crate) fn pick(&mut self) -> Option<Job<P>> {
        let tenants: Vec<String> = self.queues.keys().cloned().collect();
        let n = tenants.len();
        let start = self
            .last_served
            .as_ref()
            .map_or(0, |last| tenants.partition_point(|t| t <= last));
        for i in 0..n {
            let tenant = &tenants[(start + i) % n];
            let Some(queue) = self.queues.get_mut(tenant) else {
                continue;
            };
            let (msg, res) = (self.reserved_msg, self.reserved_res);
            let (total_msg, total_res) = (
                self.config.total_message_bytes,
                self.config.total_resident_bytes,
            );
            let fits =
                |j: &mut Job<P>| msg + j.msg_bytes <= total_msg && res + j.res_bytes <= total_res;
            let Some(mut job) = queue.pop_front_if(fits) else {
                continue;
            };
            if queue.is_empty() {
                self.queues.remove(tenant);
            }
            self.last_served = Some(tenant.clone());
            self.running += 1;
            self.reserved_msg += job.msg_bytes;
            self.reserved_res += job.res_bytes;
            job.attempt += 1;
            return Some(job);
        }
        None
    }

    /// Ends a dispatched attempt (`failure` is `None` when it completed):
    /// releases what [`Scheduler::pick`] reserved, then decides. A
    /// retryable failure within the job's retry policy and its tenant's
    /// token budget is parked with
    /// full-jitter backoff — unless drain has begun, in which case it is
    /// terminal like any other. Only terminal failures count toward
    /// quarantine.
    pub(crate) fn finish(
        &mut self,
        job: Job<P>,
        failure: Option<&Failure>,
        now: Instant,
    ) -> Decision {
        self.running -= 1;
        self.reserved_msg -= job.msg_bytes;
        self.reserved_res -= job.res_bytes;
        let Some(failure) = failure else {
            return Decision::Complete;
        };
        let policy = self.config.retry.for_spec(&job.spec);
        if failure.retryable
            && job.attempt <= policy.max_retries
            && !self.draining
            && self.take_token(&job.spec.tenant, now)
        {
            let delay = policy.delay(job.attempt, crate::Fnv1a::hash(job.id.as_bytes()));
            self.delayed.push((now + delay, job));
            return Decision::Retry { delay };
        }
        self.note_failure(&job.spec, &failure.kind);
        Decision::Fail
    }

    /// Records a terminal failure signature; repeated identical kinds
    /// accumulate toward quarantine, a different kind resets it.
    fn note_failure(&mut self, spec: &JobSpec, kind: &str) {
        // Cancellation is the host stopping the job, not the job
        // misbehaving — it must not poison the signature.
        if kind == "cancelled" {
            return;
        }
        let key = (spec.graph.clone(), spec.program.label());
        let (last, count) = self.quarantine.entry(key).or_default();
        if last != kind {
            (*last, *count) = (kind.to_owned(), 0);
        }
        *count += 1;
    }

    /// Takes one retry token for `tenant`; `false` means the tenant's
    /// budget is exhausted and the failure must become terminal.
    fn take_token(&mut self, tenant: &str, now: Instant) -> bool {
        let policy = &self.config.retry;
        let capacity = f64::from(policy.tenant_tokens);
        let refill_per_sec = match policy.tenant_refill.as_secs_f64() {
            0.0 => f64::INFINITY,
            secs => 1.0 / secs,
        };
        let b = (self.buckets.entry(tenant.to_owned())).or_insert(Bucket {
            tokens: capacity,
            last: now,
        });
        let refilled = b.tokens + now.duration_since(b.last).as_secs_f64() * refill_per_sec;
        (b.tokens, b.last) = (refilled.min(capacity), now);
        let granted = b.tokens >= 1.0;
        if granted {
            b.tokens -= 1.0;
        }
        granted
    }

    /// Begins drain: refuses further admissions and hands back every
    /// queued and parked job, which the caller fails as cancelled.
    pub(crate) fn drain(&mut self) -> Vec<Job<P>> {
        self.draining = true;
        let mut flushed: Vec<Job<P>> = std::mem::take(&mut self.queues)
            .into_values()
            .flatten()
            .collect();
        flushed.extend(self.delayed.drain(..).map(|(_, job)| job));
        flushed
    }
}

#[cfg(test)]
mod tests;
