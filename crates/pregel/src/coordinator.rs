//! The coordinator: the BSP superstep loop of one attempt.
//!
//! Each superstep the coordinator (on the calling thread) checkpoints when
//! due, runs the sequential master kernel, picks the superstep's direction,
//! has every worker run its vertex kernels, merges their outputs at the
//! barrier in ascending worker order — which keeps every metric and
//! floating-point aggregate identical to the single-worker execution order
//! documented in [`run`](crate::run) — then either routes the sealed
//! buckets to a delivery phase (push) or runs a gather phase (pull), and
//! finally applies the barrier's governance checks.

use crate::checkpoint::{build_snapshot, CoordState};
use crate::config::{PregelConfig, Schedule};
use crate::error::PregelError;
use crate::exchange::{RawOutbox, RoutedBucket};
use crate::globals::AggMap;
use crate::metrics::{Metrics, RegistryFeed, SuperstepMetrics};
use crate::program::{MasterContext, MasterDecision, PullMode, VertexProgram};
use crate::supervise::FailedRun;
use crate::worker::{read_lock, write_lock, Executor, Pending, Shared, Step, WorkerState};
use gm_ckpt::{CheckpointStore, Persist};
use gm_obs::{Category, Tracer};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Where the superstep loop starts: superstep 0 with everything active for
/// a fresh run, or the restored frontier for a resumed one.
pub(crate) struct DriveInit {
    pub superstep: u32,
    pub active_vertices: u32,
    pub pending_messages: u64,
    pub agg_prev: AggMap,
}

impl DriveInit {
    pub fn fresh(num_nodes: u32) -> Self {
        DriveInit {
            superstep: 0,
            active_vertices: num_nodes,
            pending_messages: 0,
            agg_prev: AggMap::new(),
        }
    }
}

/// Coordinator-side checkpoint machinery for one run.
pub(crate) struct CkptRunner {
    pub store: CheckpointStore,
    /// The program's identity, written into every snapshot.
    pub identity: Vec<u8>,
    pub every: u32,
    pub keep: usize,
    /// The superstep this run resumed at, whose snapshot (just read) must
    /// not be immediately rewritten.
    pub skip: Option<u32>,
}

/// The BSP superstep loop. Every phase runs through `exec`, which returns
/// the workers' outputs in ascending worker order.
///
/// `metrics` is borrowed rather than owned so that on failure the caller
/// still holds everything accumulated up to the failing superstep — the
/// post-mortem bundle snapshots it.
pub(crate) fn drive<'a, P>(
    shared: &Shared<'a, P>,
    exec: &mut Executor<'_, 'a, P>,
    config: &PregelConfig,
    init: DriveInit,
    mut ckpt: Option<CkptRunner>,
    metrics: &mut Metrics,
) -> Result<(), FailedRun>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    let num_workers = shared.starts.len() - 1;
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
    // Work past the newest recovery point is lost on failure: a restart
    // re-executes it from there. The point starts at this attempt's entry
    // (the resume superstep, or scratch) and advances with every snapshot
    // written intact.
    let recovery_point = Cell::new((superstep, start));
    let fail = |error: PregelError, at: u32| {
        let (since, since_at) = recovery_point.get();
        FailedRun {
            error,
            wasted_supersteps: at - since,
            wasted_time: since_at.elapsed(),
        }
    };

    // Empty outbox buckets recycled from the previous exchange, per sender.
    let mut spares: Vec<RawOutbox<P::Message>> = (0..num_workers).map(|_| Vec::new()).collect();
    // A fresh run has nothing pending and a resumed one restored its
    // inboxes, so only a captured superstep leaves messages outside them.
    let mut pending = Pending::Delivered;

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
        let lost = |error| fail(error, superstep);

        // ---- checkpoint (coordinator + workers, before the master) ----
        // Taken at the top of the superstep so the snapshot is exactly the
        // state a resumed run needs to re-enter the loop here: `agg_prev`
        // still holds the previous superstep's aggregates and the inboxes
        // hold this superstep's undelivered messages.
        if let Some(ck) = &mut ckpt {
            if superstep > 0 && superstep % ck.every == 0 && ck.skip != Some(superstep) {
                let ckpt_start_us = tracer.map(Tracer::now_us);
                let ckpt_started = Instant::now();
                let outs = exec
                    .each(superstep, WorkerState::snapshot, vec![pending; num_workers])
                    .map_err(lost)?;
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
                        &ck.identity,
                        &coord,
                        master,
                        outs,
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
                                recovery_point.set((superstep, Instant::now()));
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
        let step_in = Step {
            superstep,
            mode,
            pending,
            deadline_at,
        };

        // ---- vertex + metering phase (parallel) ----
        let inputs = std::mem::take(&mut spares)
            .into_iter()
            .map(|spare| (step_in, spare))
            .collect();
        let computes = exec
            .each(superstep, WorkerState::compute, inputs)
            .map_err(lost)?;

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
            let sealed = &out.sealed;
            sealed.meter.record(&mut step);
            step.compute_time = step.compute_time.max(out.compute_time);
            step.combine_time = step.combine_time.max(sealed.combine_time);
            step_spilled_bytes += sealed.spilled_message_bytes;
            metrics.spill.buckets_spilled += sealed.buckets_spilled;
            metrics.spill.spilled_message_bytes += sealed.spilled_message_bytes;
            metrics.spill.spill_file_bytes += sealed.spill_file_bytes;
            metrics.spill.spill_write_time += sealed.spill_write_time;
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
        let exchange_start_us = tracer.map(Tracer::now_us);
        let exchange_started = Instant::now();
        if pulled {
            // ---- gather phase: receivers pull over in-edges ----
            // No buckets crossed worker boundaries (sends were absorbed at
            // the sink), so the exchange slot runs a gather instead: every
            // worker meters what push would have delivered and counts the
            // vertices it wakes (recomputed payloads are also written to
            // its inboxes). The untouched outbox buckets go straight back
            // to their senders.
            spares = computes
                .into_iter()
                .map(|out| {
                    let outbox = out.sealed.outbox;
                    outbox.into_iter().map(RoutedBucket::into_spare).collect()
                })
                .collect();
            let gathers = exec
                .each(superstep, WorkerState::gather, vec![step_in; num_workers])
                .map_err(lost)?;
            step.exchange_time = exchange_started.elapsed();
            for out in &gathers {
                pending_messages += out.delivered;
                reactivated += out.reactivated;
                out.meter.record(&mut step);
            }
            // Gathered messages never sit in a seal→delivery window, so
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
            let mut incoming: Vec<Vec<RoutedBucket<P::Message>>> = (0..num_workers)
                .map(|_| Vec::with_capacity(num_workers))
                .collect();
            for out in computes {
                for (dest, bucket) in out.sealed.outbox.into_iter().enumerate() {
                    incoming[dest].push(bucket);
                }
            }
            let inputs = incoming.into_iter().map(|b| (step_in, b)).collect();
            let delivers = exec
                .each(superstep, WorkerState::deliver, inputs)
                .map_err(lost)?;
            step.exchange_time = exchange_started.elapsed();
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
        if let (Some(t), Some(ts)) = (tracer, exchange_start_us) {
            t.span_at(
                if pulled { "gather" } else { "exchange" },
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
        active_vertices = not_halted + reactivated;
        pending = if mode == PullMode::Captured {
            Pending::Captured(superstep)
        } else {
            Pending::Delivered
        };

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
                return Err(lost(PregelError::BudgetExceeded {
                    superstep,
                    what: "resident value-store bytes",
                    used: used.max(budget.saturating_add(1)),
                    budget,
                }));
            }
        }
        // Coordinator-side watchdog: catches a superstep that overran its
        // deadline between two worker self-checks.
        if let (Some(at), Some(deadline)) = (deadline_at, shared.governor.deadline) {
            if Instant::now() >= at {
                return Err(lost(PregelError::DeadlineExceeded {
                    superstep,
                    worker: None,
                    deadline,
                }));
            }
        }

        // The residual between the measured superstep wall-clock and the
        // four metered phases: job dispatch, reply collection, and barrier
        // waiting. Saturating because the per-worker maxima of compute and
        // metering can land on different workers.
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
