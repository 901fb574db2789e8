//! Per-run and per-superstep execution metrics.
//!
//! The paper's evaluation (§5.2) reports three quantities per experiment:
//! run-time, network I/O due to messages, and the number of timesteps. The
//! runtime meters all three, plus active-vertex counts (used to discuss the
//! missing `voteToHalt` optimization: "less than 1.5% of the vertices were
//! active in the last 30 timesteps" of SSSP on Twitter).
//!
//! Since the parallel-exchange rework the runtime also meters *where* each
//! superstep's wall-clock goes, split into the four BSP phases:
//!
//! * **master** — the sequential [`master_compute`] kernel;
//! * **compute** — the vertex kernels (slowest worker's kernel loop);
//! * **combine** — the metering pass over each worker's sealed outgoing
//!   buckets, run inside worker threads (slowest worker);
//! * **exchange** — routing the per-destination-worker buckets and the
//!   parallel zero-copy delivery into the destination inboxes.
//!
//! Compute and combine are per-worker measurements folded with `max` (the
//! barrier waits for the slowest worker, so the max is the wall-clock
//! contribution); exchange and master are measured by the coordinating
//! thread directly. The residual between the measured superstep wall-clock
//! and those four phases — job dispatch, reply collection, and the time
//! the barrier spends waiting on skewed workers — is kept as
//! [`SuperstepMetrics::barrier_time`], so [`SuperstepMetrics::phase_total`]
//! accounts for (approximately) the whole superstep.
//!
//! [`Metrics::to_json`] exports everything as a machine-readable document
//! so bench runs produce diffable artifacts instead of ad-hoc prints.
//!
//! [`master_compute`]: crate::VertexProgram::master_compute

use gm_obs::json::Json;
use gm_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use std::time::Duration;

/// Counters for a single superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuperstepMetrics {
    /// Vertices whose `vertex_compute` ran this superstep.
    pub active_vertices: u32,
    /// Messages sent during this superstep.
    pub messages_sent: u64,
    /// Serialized bytes of those messages.
    pub message_bytes: u64,
    /// Messages whose destination lives on a different worker — the subset
    /// that would cross the network in a distributed deployment.
    pub remote_messages: u64,
    /// Serialized bytes of remote messages.
    pub remote_message_bytes: u64,
    /// Wall-clock of the slowest worker's vertex kernel loop.
    pub compute_time: Duration,
    /// Wall-clock of the slowest worker's metering pass.
    pub combine_time: Duration,
    /// Wall-clock of the message exchange: the bucket transpose plus
    /// parallel delivery into the destination workers' inboxes. Routing
    /// each message into its destination worker's bucket happens in
    /// compute and counts in `compute_time`.
    pub exchange_time: Duration,
    /// Wall-clock of the sequential master kernel that opened this superstep.
    pub master_time: Duration,
    /// Residual between the measured superstep wall-clock and the four
    /// phases above: job dispatch, reply collection, and barrier waiting.
    /// Saturates at zero in the rare case the per-worker maxima of compute
    /// and combine land on different workers (their sum can then slightly
    /// exceed the wall-clock).
    pub barrier_time: Duration,
    /// Whether this superstep ran gathered (pull): the exchange was
    /// replaced by receiver-side in-edge gathering. When `true`,
    /// `exchange_time` measures the gather phase and `combine_time` meters
    /// only empty buckets (recomputed payloads are metered inside the
    /// gather, captured ones by compute, and the next superstep's kernels
    /// read those in place).
    pub pulled: bool,
}

impl SuperstepMetrics {
    /// Sum of all metered phase times including the barrier residual —
    /// approximately the superstep's measured wall-clock.
    pub fn phase_total(&self) -> Duration {
        self.compute_time
            + self.combine_time
            + self.exchange_time
            + self.master_time
            + self.barrier_time
    }

    /// This superstep's counters and timings as a JSON object (durations
    /// in microseconds).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            (
                "active_vertices".to_owned(),
                Json::UInt(self.active_vertices as u64),
            ),
            ("messages_sent".to_owned(), Json::UInt(self.messages_sent)),
            ("message_bytes".to_owned(), Json::UInt(self.message_bytes)),
            (
                "remote_messages".to_owned(),
                Json::UInt(self.remote_messages),
            ),
            (
                "remote_message_bytes".to_owned(),
                Json::UInt(self.remote_message_bytes),
            ),
            ("compute_us".to_owned(), dur_us(self.compute_time)),
            ("combine_us".to_owned(), dur_us(self.combine_time)),
            ("exchange_us".to_owned(), dur_us(self.exchange_time)),
            ("master_us".to_owned(), dur_us(self.master_time)),
            ("barrier_us".to_owned(), dur_us(self.barrier_time)),
            ("pulled".to_owned(), Json::Bool(self.pulled)),
        ])
    }
}

fn dur_us(d: Duration) -> Json {
    Json::UInt(d.as_micros() as u64)
}

/// Checkpoint and recovery counters for a run.
///
/// Unlike the structural counters above, these are *not* required to be
/// identical between an uninterrupted run and a run that recovered from a
/// fault: a recovered run restores the counters persisted in the snapshot
/// it resumed from, then keeps counting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Snapshots successfully written to the checkpoint directory.
    pub checkpoints_written: u32,
    /// Checkpoint writes that failed (I/O error or injected fault). A
    /// failed write never aborts the run — the job continues and retries
    /// at the next checkpoint interval.
    pub checkpoint_failures: u32,
    /// Total bytes of all successfully written snapshots.
    pub snapshot_bytes: u64,
    /// Successful restores from a snapshot (resume paths taken).
    pub restores: u32,
    /// Snapshots rejected during recovery scans, whether or not an older
    /// one was then restored: files that failed checksum or framing
    /// validation, and valid ones another program wrote (a missing or
    /// different `program` section).
    pub corrupt_snapshots_discarded: u32,
    /// Times the recovery supervisor restarted the job after a failure.
    pub restarts: u32,
    /// Supersteps executed by failed attempts whose work was thrown away —
    /// those past each attempt's newest intact snapshot (or its start),
    /// which the restart re-executes — accumulated across supervised
    /// [`run`](crate::run) restarts, so the cost of recovering is visible,
    /// not just the fact that it happened.
    pub wasted_supersteps: u32,
    /// Wall-clock those thrown-away supersteps took (accumulated across
    /// restarts).
    pub wasted_time: Duration,
    /// Wall-clock spent capturing and writing snapshots.
    pub checkpoint_time: Duration,
    /// Wall-clock spent locating, validating, and decoding snapshots on
    /// the resume path.
    pub restore_time: Duration,
}

impl RecoveryStats {
    /// The recovery counters as a JSON object (durations in microseconds).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            (
                "checkpoints_written".to_owned(),
                Json::UInt(self.checkpoints_written as u64),
            ),
            (
                "checkpoint_failures".to_owned(),
                Json::UInt(self.checkpoint_failures as u64),
            ),
            ("snapshot_bytes".to_owned(), Json::UInt(self.snapshot_bytes)),
            ("restores".to_owned(), Json::UInt(self.restores as u64)),
            (
                "corrupt_snapshots_discarded".to_owned(),
                Json::UInt(self.corrupt_snapshots_discarded as u64),
            ),
            ("restarts".to_owned(), Json::UInt(self.restarts as u64)),
            (
                "wasted_supersteps".to_owned(),
                Json::UInt(self.wasted_supersteps as u64),
            ),
            ("wasted_us".to_owned(), dur_us(self.wasted_time)),
            ("checkpoint_us".to_owned(), dur_us(self.checkpoint_time)),
            ("restore_us".to_owned(), dur_us(self.restore_time)),
        ])
    }
}

/// Message-spill counters for a run.
///
/// All zero unless a message budget was configured and exceeded. Like
/// [`RecoveryStats`], these are *not* part of the structural contract: a
/// spilled run reports identical supersteps/messages/bytes to an unspilled
/// one, and these counters record only where the bytes physically went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Destination buckets diverted to disk instead of staying resident.
    pub buckets_spilled: u64,
    /// Metered message bytes of the spilled buckets (the amount kept out
    /// of memory between metering and delivery).
    pub spilled_message_bytes: u64,
    /// Bytes written to spill files (payload + framing).
    pub spill_file_bytes: u64,
    /// Spill files replayed (CRC-checked) at delivery.
    pub files_replayed: u64,
    /// Wall-clock spent encoding and writing spill files.
    pub spill_write_time: Duration,
    /// Wall-clock spent reading, validating, and decoding spill files.
    pub spill_read_time: Duration,
    /// Largest resident in-flight message volume of any superstep, in
    /// metered bytes, after spilling (what actually stayed in memory).
    pub peak_in_flight_bytes: u64,
    /// Gathered (pull) supersteps that ran while a message budget was
    /// configured. Pull supersteps never route messages through the
    /// outbox, so the budget's spill machinery cannot see their traffic —
    /// these counters make the bypass explicit instead of silent.
    pub pull_bypassed_supersteps: u64,
    /// Metered message bytes of those gathered supersteps (traffic that
    /// was never subject to the budget).
    pub pull_bypassed_bytes: u64,
}

impl SpillStats {
    /// The spill counters as a JSON object (durations in microseconds).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            (
                "buckets_spilled".to_owned(),
                Json::UInt(self.buckets_spilled),
            ),
            (
                "spilled_message_bytes".to_owned(),
                Json::UInt(self.spilled_message_bytes),
            ),
            (
                "spill_file_bytes".to_owned(),
                Json::UInt(self.spill_file_bytes),
            ),
            ("files_replayed".to_owned(), Json::UInt(self.files_replayed)),
            ("spill_write_us".to_owned(), dur_us(self.spill_write_time)),
            ("spill_read_us".to_owned(), dur_us(self.spill_read_time)),
            (
                "peak_in_flight_bytes".to_owned(),
                Json::UInt(self.peak_in_flight_bytes),
            ),
            (
                "pull_bypassed_supersteps".to_owned(),
                Json::UInt(self.pull_bypassed_supersteps),
            ),
            (
                "pull_bypassed_bytes".to_owned(),
                Json::UInt(self.pull_bypassed_bytes),
            ),
        ])
    }
}

/// Aggregate counters for a whole run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Number of supersteps executed, counting the final master-only
    /// superstep in which the master halts the computation.
    pub supersteps: u32,
    /// Total messages sent.
    pub total_messages: u64,
    /// Total serialized message bytes — the "network I/O" column of the
    /// paper, measured in a worker-count-independent way.
    pub total_message_bytes: u64,
    /// Messages that crossed a worker boundary.
    pub remote_messages: u64,
    /// Bytes that crossed a worker boundary (depends on worker count).
    pub remote_message_bytes: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Total vertex-kernel time (sum over supersteps of the slowest
    /// worker's kernel loop).
    pub compute_time: Duration,
    /// Total metering time (sum of slowest-worker times).
    pub combine_time: Duration,
    /// Total message-exchange time (bucket transpose + parallel delivery;
    /// routing is part of compute).
    pub exchange_time: Duration,
    /// Total sequential master time, including the final master-only
    /// superstep in which the computation halts.
    pub master_time: Duration,
    /// Total barrier residual (dispatch + reply collection + waiting).
    pub barrier_time: Duration,
    /// Supersteps that ran gathered (pull) instead of pushed. Part of the
    /// structural contract: identical across worker counts and between
    /// uninterrupted and recovered runs.
    pub pull_supersteps: u32,
    /// Times consecutive executed supersteps changed direction
    /// (push→pull or pull→push); only `Schedule::Auto` produces nonzero
    /// values on programs with mixed phases.
    pub direction_switches: u32,
    /// Per-superstep breakdown, indexed by superstep number.
    pub per_superstep: Vec<SuperstepMetrics>,
    /// Checkpoint and recovery counters (all zero when checkpointing is
    /// disabled and no fault occurred).
    pub recovery: RecoveryStats,
    /// Message-spill counters (all zero when no message budget is set or
    /// the budget was never exceeded).
    pub spill: SpillStats,
}

impl Metrics {
    /// Folds one superstep's counters into the totals.
    pub(crate) fn record(&mut self, step: SuperstepMetrics) {
        self.total_messages += step.messages_sent;
        self.total_message_bytes += step.message_bytes;
        self.remote_messages += step.remote_messages;
        self.remote_message_bytes += step.remote_message_bytes;
        self.compute_time += step.compute_time;
        self.combine_time += step.combine_time;
        self.exchange_time += step.exchange_time;
        self.master_time += step.master_time;
        self.barrier_time += step.barrier_time;
        if step.pulled {
            self.pull_supersteps += 1;
        }
        if let Some(prev) = self.per_superstep.last() {
            if prev.pulled != step.pulled {
                self.direction_switches += 1;
            }
        }
        self.per_superstep.push(step);
    }

    /// Largest number of active vertices in any superstep.
    pub fn peak_active_vertices(&self) -> u32 {
        self.per_superstep
            .iter()
            .map(|s| s.active_vertices)
            .max()
            .unwrap_or(0)
    }

    /// The whole run as a JSON value: aggregate counters, phase totals in
    /// microseconds, and the per-superstep breakdown.
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("supersteps".to_owned(), Json::UInt(self.supersteps as u64)),
            ("total_messages".to_owned(), Json::UInt(self.total_messages)),
            (
                "total_message_bytes".to_owned(),
                Json::UInt(self.total_message_bytes),
            ),
            (
                "remote_messages".to_owned(),
                Json::UInt(self.remote_messages),
            ),
            (
                "remote_message_bytes".to_owned(),
                Json::UInt(self.remote_message_bytes),
            ),
            (
                "peak_active_vertices".to_owned(),
                Json::UInt(self.peak_active_vertices() as u64),
            ),
            ("elapsed_us".to_owned(), dur_us(self.elapsed)),
            ("compute_us".to_owned(), dur_us(self.compute_time)),
            ("combine_us".to_owned(), dur_us(self.combine_time)),
            ("exchange_us".to_owned(), dur_us(self.exchange_time)),
            ("master_us".to_owned(), dur_us(self.master_time)),
            ("barrier_us".to_owned(), dur_us(self.barrier_time)),
            (
                "pull_supersteps".to_owned(),
                Json::UInt(self.pull_supersteps as u64),
            ),
            (
                "direction_switches".to_owned(),
                Json::UInt(self.direction_switches as u64),
            ),
            (
                "per_superstep".to_owned(),
                Json::Arr(
                    self.per_superstep
                        .iter()
                        .map(SuperstepMetrics::to_json_value)
                        .collect(),
                ),
            ),
            ("recovery".to_owned(), self.recovery.to_json_value()),
            ("spill".to_owned(), self.spill.to_json_value()),
        ])
    }

    /// [`Metrics::to_json_value`] serialized to a compact JSON string —
    /// the machine-readable artifact bench runs export via `--trace`.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

/// Pre-registered handles into a [`MetricsRegistry`], created once per run
/// so the superstep loop records through lock-free atomics instead of
/// touching the registry's family table.
///
/// All counters are cumulative across runs sharing the registry (the
/// Prometheus contract — a scraping daemon serves many jobs from one
/// registry); gauges reflect the most recent superstep.
pub(crate) struct RegistryFeed {
    superstep_seconds: Histogram,
    master_seconds: Histogram,
    compute_seconds: Histogram,
    combine_seconds: Histogram,
    exchange_seconds: Histogram,
    barrier_seconds: Histogram,
    messages_total: Counter,
    message_bytes_total: Counter,
    remote_message_bytes_total: Counter,
    supersteps_push: Counter,
    supersteps_pull: Counter,
    direction_switches_total: Counter,
    spilled_message_bytes_total: Counter,
    checkpoints_ok: Counter,
    checkpoints_failed: Counter,
    active_vertices: Gauge,
    frontier_density: Gauge,
}

const PHASE_HELP: &str = "wall-clock seconds per BSP phase, one observation per superstep";

impl RegistryFeed {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        let phase = |name: &str| {
            registry.histogram_with("gm_phase_seconds", PHASE_HELP, &[("phase", name)])
        };
        RegistryFeed {
            superstep_seconds: registry.histogram(
                "gm_superstep_seconds",
                "wall-clock seconds per superstep (master through barrier)",
            ),
            master_seconds: phase("master"),
            compute_seconds: phase("compute"),
            combine_seconds: phase("combine"),
            exchange_seconds: phase("exchange"),
            barrier_seconds: phase("barrier"),
            messages_total: registry.counter("gm_messages_total", "messages sent"),
            message_bytes_total: registry
                .counter("gm_message_bytes_total", "serialized message bytes sent"),
            remote_message_bytes_total: registry.counter(
                "gm_remote_message_bytes_total",
                "message bytes that crossed a worker boundary",
            ),
            supersteps_push: registry.counter_with(
                "gm_supersteps_total",
                "supersteps executed, by message-movement direction",
                &[("direction", "push")],
            ),
            supersteps_pull: registry.counter_with(
                "gm_supersteps_total",
                "supersteps executed, by message-movement direction",
                &[("direction", "pull")],
            ),
            direction_switches_total: registry.counter(
                "gm_direction_switches_total",
                "consecutive supersteps that changed push/pull direction",
            ),
            spilled_message_bytes_total: registry.counter(
                "gm_spilled_message_bytes_total",
                "message bytes diverted to spill files by the resource budget",
            ),
            checkpoints_ok: registry.counter_with(
                "gm_checkpoints_total",
                "checkpoint snapshot writes, by result",
                &[("result", "ok")],
            ),
            checkpoints_failed: registry.counter_with(
                "gm_checkpoints_total",
                "checkpoint snapshot writes, by result",
                &[("result", "failed")],
            ),
            active_vertices: registry.gauge(
                "gm_active_vertices",
                "active vertices entering the next superstep",
            ),
            frontier_density: registry.gauge(
                "gm_frontier_density",
                "active vertices as a fraction of all vertices",
            ),
        }
    }

    /// Records one completed superstep. `wall` is the measured superstep
    /// wall-clock, `active` the frontier entering the next superstep, and
    /// `switched` whether the direction changed from the previous executed
    /// superstep.
    pub(crate) fn record_superstep(
        &self,
        step: &SuperstepMetrics,
        wall: Duration,
        active: u32,
        num_nodes: u32,
        spilled_bytes: u64,
        switched: bool,
    ) {
        self.superstep_seconds.observe(wall.as_secs_f64());
        self.master_seconds.observe(step.master_time.as_secs_f64());
        self.compute_seconds
            .observe(step.compute_time.as_secs_f64());
        self.combine_seconds
            .observe(step.combine_time.as_secs_f64());
        self.exchange_seconds
            .observe(step.exchange_time.as_secs_f64());
        self.barrier_seconds
            .observe(step.barrier_time.as_secs_f64());
        self.messages_total.add(step.messages_sent);
        self.message_bytes_total.add(step.message_bytes);
        self.remote_message_bytes_total
            .add(step.remote_message_bytes);
        if step.pulled {
            self.supersteps_pull.inc();
        } else {
            self.supersteps_push.inc();
        }
        if switched {
            self.direction_switches_total.inc();
        }
        self.spilled_message_bytes_total.add(spilled_bytes);
        self.active_vertices.set(f64::from(active));
        self.frontier_density
            .set(f64::from(active) / f64::from(num_nodes.max(1)));
    }

    /// Records one checkpoint write attempt.
    pub(crate) fn record_checkpoint(&self, ok: bool) {
        if ok {
            self.checkpoints_ok.inc();
        } else {
            self.checkpoints_failed.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Metrics::default();
        m.record(SuperstepMetrics {
            active_vertices: 10,
            messages_sent: 5,
            message_bytes: 40,
            remote_messages: 2,
            remote_message_bytes: 16,
            compute_time: Duration::from_millis(3),
            combine_time: Duration::from_millis(1),
            exchange_time: Duration::from_millis(2),
            master_time: Duration::from_millis(1),
            barrier_time: Duration::from_millis(1),
            pulled: false,
        });
        m.record(SuperstepMetrics {
            active_vertices: 3,
            messages_sent: 1,
            message_bytes: 8,
            remote_messages: 0,
            remote_message_bytes: 0,
            compute_time: Duration::from_millis(2),
            ..Default::default()
        });
        assert_eq!(m.total_messages, 6);
        assert_eq!(m.total_message_bytes, 48);
        assert_eq!(m.remote_messages, 2);
        assert_eq!(m.remote_message_bytes, 16);
        assert_eq!(m.per_superstep.len(), 2);
        assert_eq!(m.peak_active_vertices(), 10);
        assert_eq!(m.compute_time, Duration::from_millis(5));
        assert_eq!(m.combine_time, Duration::from_millis(1));
        assert_eq!(m.exchange_time, Duration::from_millis(2));
        assert_eq!(m.master_time, Duration::from_millis(1));
        assert_eq!(m.barrier_time, Duration::from_millis(1));
        // phase_total includes the barrier residual.
        assert_eq!(m.per_superstep[0].phase_total(), Duration::from_millis(8));
    }

    #[test]
    fn to_json_exports_recovery_stats() {
        let m = Metrics {
            recovery: RecoveryStats {
                checkpoints_written: 3,
                checkpoint_failures: 1,
                snapshot_bytes: 4096,
                restores: 2,
                corrupt_snapshots_discarded: 1,
                restarts: 2,
                wasted_supersteps: 7,
                wasted_time: Duration::from_micros(900),
                checkpoint_time: Duration::from_micros(250),
                restore_time: Duration::from_micros(80),
            },
            spill: SpillStats {
                buckets_spilled: 6,
                spilled_message_bytes: 512,
                spill_file_bytes: 700,
                files_replayed: 6,
                spill_write_time: Duration::from_micros(40),
                spill_read_time: Duration::from_micros(30),
                peak_in_flight_bytes: 128,
                pull_bypassed_supersteps: 2,
                pull_bypassed_bytes: 256,
            },
            ..Metrics::default()
        };
        let doc = gm_obs::json::parse(&m.to_json()).expect("to_json output parses");
        let rec = doc.get("recovery").unwrap();
        assert_eq!(rec.get("checkpoints_written").unwrap().as_u64(), Some(3));
        assert_eq!(rec.get("checkpoint_failures").unwrap().as_u64(), Some(1));
        assert_eq!(rec.get("snapshot_bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(rec.get("restores").unwrap().as_u64(), Some(2));
        assert_eq!(
            rec.get("corrupt_snapshots_discarded").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(rec.get("restarts").unwrap().as_u64(), Some(2));
        assert_eq!(rec.get("wasted_supersteps").unwrap().as_u64(), Some(7));
        assert_eq!(rec.get("wasted_us").unwrap().as_u64(), Some(900));
        assert_eq!(rec.get("checkpoint_us").unwrap().as_u64(), Some(250));
        assert_eq!(rec.get("restore_us").unwrap().as_u64(), Some(80));
        let spill = doc.get("spill").unwrap();
        assert_eq!(spill.get("buckets_spilled").unwrap().as_u64(), Some(6));
        assert_eq!(
            spill.get("spilled_message_bytes").unwrap().as_u64(),
            Some(512)
        );
        assert_eq!(spill.get("spill_file_bytes").unwrap().as_u64(), Some(700));
        assert_eq!(spill.get("files_replayed").unwrap().as_u64(), Some(6));
        assert_eq!(spill.get("spill_write_us").unwrap().as_u64(), Some(40));
        assert_eq!(spill.get("spill_read_us").unwrap().as_u64(), Some(30));
        assert_eq!(
            spill.get("peak_in_flight_bytes").unwrap().as_u64(),
            Some(128)
        );
    }

    #[test]
    fn to_json_exports_schedule_counters() {
        let mut m = Metrics::default();
        m.record(SuperstepMetrics {
            pulled: false,
            ..Default::default()
        });
        m.record(SuperstepMetrics {
            pulled: true,
            ..Default::default()
        });
        m.record(SuperstepMetrics {
            pulled: true,
            ..Default::default()
        });
        let doc = gm_obs::json::parse(&m.to_json()).unwrap();
        assert_eq!(doc.get("pull_supersteps").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("direction_switches").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn registry_feed_populates_per_phase_series() {
        let registry = MetricsRegistry::new();
        let feed = RegistryFeed::new(&registry);
        let step = SuperstepMetrics {
            messages_sent: 5,
            message_bytes: 40,
            compute_time: Duration::from_millis(2),
            master_time: Duration::from_millis(1),
            pulled: true,
            ..Default::default()
        };
        feed.record_superstep(&step, Duration::from_millis(4), 7, 100, 16, true);
        feed.record_checkpoint(true);
        feed.record_checkpoint(false);
        let text = registry.render_prometheus();
        assert!(text.contains("gm_superstep_seconds_bucket{le="));
        assert!(text.contains("gm_phase_seconds_bucket{phase=\"compute\",le="));
        assert!(text.contains("gm_supersteps_total{direction=\"pull\"} 1"));
        assert!(text.contains("gm_direction_switches_total 1"));
        assert!(text.contains("gm_spilled_message_bytes_total 16"));
        assert!(text.contains("gm_checkpoints_total{result=\"failed\"} 1"));
        assert!(text.contains("gm_active_vertices 7"));
        assert!(text.contains("gm_frontier_density 0.07"));
        assert!(text.contains("gm_message_bytes_total 40"));
    }

    #[test]
    fn peak_of_empty_run_is_zero() {
        assert_eq!(Metrics::default().peak_active_vertices(), 0);
    }

    #[test]
    fn to_json_exports_totals_and_breakdown() {
        let mut m = Metrics {
            supersteps: 2,
            elapsed: Duration::from_micros(1500),
            ..Metrics::default()
        };
        m.record(SuperstepMetrics {
            active_vertices: 4,
            messages_sent: 3,
            message_bytes: 24,
            compute_time: Duration::from_micros(100),
            barrier_time: Duration::from_micros(7),
            ..Default::default()
        });
        let text = m.to_json();
        let doc = gm_obs::json::parse(&text).expect("to_json output parses");
        assert_eq!(doc.get("supersteps").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("total_messages").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("elapsed_us").unwrap().as_u64(), Some(1500));
        assert_eq!(doc.get("barrier_us").unwrap().as_u64(), Some(7));
        let steps = doc.get("per_superstep").unwrap().as_arr().unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].get("active_vertices").unwrap().as_u64(), Some(4));
        assert_eq!(steps[0].get("compute_us").unwrap().as_u64(), Some(100));
        assert_eq!(steps[0].get("barrier_us").unwrap().as_u64(), Some(7));
    }
}
