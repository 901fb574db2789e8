use crate::value::{GlobalValue, ReduceOp};
use crate::worker::{partition, vertex_cost};
use crate::{
    run, ByteReader, CkptError, Inbox, MasterContext, MasterDecision, Persist, PregelConfig,
    PregelError, PregelResult, PullMode, ResourceBudget, Schedule, VertexContext, VertexProgram,
};
use gm_graph::{gen, EdgeId, Graph, NodeId};
use gm_obs::Tracer;
use std::time::Duration;

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
        _messages: Inbox<'_, ()>,
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
        messages: Inbox<'_, u64>,
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
        messages: Inbox<'_, u32>,
    ) {
        if ctx.superstep() == 0 {
            let id = ctx.id().0;
            ctx.send_to_nbrs(id);
        } else {
            value.extend(messages.iter().copied());
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
            _messages: Inbox<'_, ()>,
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
            _messages: Inbox<'_, ()>,
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
        let err = run(&g, &mut Forever, |_| (), &cfg).unwrap_err();
        let err = err.root();
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

/// Every cut covers the vertex range in ascending order, and each worker's
/// cost is within one vertex's cost of the even share: on skewed, hub,
/// uniform and empty graphs, and with more workers than vertices.
#[test]
fn partition_covers_all_vertices() {
    // Every spoke sends to the hub: one vertex holds all the in-edges.
    let mut into_hub = gm_graph::GraphBuilder::new(41);
    for spoke in 1..41 {
        into_hub.add_edge(spoke, 0);
    }
    let graphs = [
        ("rmat", gen::rmat(1000, 36_000, 5)),
        ("star", gen::star(40)),
        ("into_hub", into_hub.build()),
        ("grid", gen::grid(20, 30)),
        ("empty", gen::path(0)),
        ("three", gen::path(3)),
    ];
    for (name, g) in &graphs {
        let n = g.num_nodes();
        let costs: Vec<u64> = (0..n).map(|v| vertex_cost(g, NodeId(v))).collect();
        let total: u64 = costs.iter().sum();
        let heaviest = costs.iter().copied().max().unwrap_or(0);
        for w in [1, 2, 3, 4, 8] {
            let starts = partition(g, w);
            let tag = format!("{name}, {w} workers: {starts:?}");
            assert_eq!(starts.len(), w + 1, "{tag}");
            assert_eq!(starts[0], 0, "{tag}");
            assert_eq!(*starts.last().unwrap(), n, "{tag}");
            assert!(starts.windows(2).all(|s| s[0] <= s[1]), "{tag}");
            let share = total as f64 / w as f64;
            for range in starts.windows(2) {
                let cost: u64 = costs[range[0] as usize..range[1] as usize].iter().sum();
                assert!(
                    (cost as f64 - share).abs() <= heaviest as f64,
                    "{tag}: range {range:?} costs {cost}, share {share}, heaviest vertex {heaviest}"
                );
            }
        }
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

use crate::checkpoint::CheckpointConfig;
use crate::supervise::RecoveryPolicy;
use gm_ckpt::{CheckpointStore, FaultPlan, SnapshotBuilder};

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

/// Runs a fixed number of supersteps on a cycle (halting at superstep
/// `last`), accumulating mutable master state (`total`) from an aggregate
/// — so an exact resume must restore both vertex values and the master's
/// memory.
struct Rounds {
    total: i64,
    last: u32,
}

impl VertexProgram for Rounds {
    type VertexValue = u32;
    type Message = u32;

    fn message_bytes(&self, _m: &u32) -> u64 {
        4
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        self.total += ctx.agg_or("n", GlobalValue::Int(0)).as_int();
        if ctx.superstep() == self.last {
            MasterDecision::Halt
        } else {
            MasterDecision::Continue
        }
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, u32>,
        value: &mut u32,
        messages: Inbox<'_, u32>,
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
        Rounds::until(8)
    }

    fn until(last: u32) -> Self {
        Rounds { total: 0, last }
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
    let cfg =
        PregelConfig::sequential().with_checkpoints(CheckpointConfig::new(fresh_dir("zero"), 0));
    let err = run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap_err();
    assert!(matches!(err, PregelError::InvalidConfig(_)));
}

#[test]
fn injected_panic_surfaces_as_worker_panicked() {
    let g = gen::cycle(12);
    for workers in [1usize, 3] {
        let mut cfg = PregelConfig::with_workers(workers);
        cfg.faults = FaultPlan::builder().panic_in_compute(4, None).build();
        let err = run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap_err();
        let err = err.root();
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
    let err = run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap_err();
    let err = err.root();
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
fn supervised_run_matches_uninterrupted_run() {
    for workers in [1usize, 2, 4] {
        let (base, base_total) = Rounds::baseline(workers);
        let g = gen::cycle(12);
        let dir = fresh_dir("supervised");
        let cfg = PregelConfig::with_workers(workers)
            .with_checkpoints(CheckpointConfig::new(&dir, 2))
            .with_faults(FaultPlan::builder().panic_in_compute(5, None).build())
            .with_recovery(RecoveryPolicy::with_max_restarts(2));
        let mut p = Rounds::new();
        let r = run(&g, &mut p, |_| 0, &cfg).unwrap();
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
    let r = run(&g, &mut p, |_| 0, &cfg).unwrap();
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
    let r = run(&g, &mut p, |_| 0, &cfg).unwrap();
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
    let cfg =
        PregelConfig::sequential().with_checkpoints(CheckpointConfig::new(&dir, 2).with_keep(1));
    run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap();
    let store = CheckpointStore::create(&dir).unwrap();
    let listed = store.list().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].0, 8, "only the newest snapshot survives");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resume_over_only_torn_snapshots_starts_fresh_and_counts_them() {
    let (base, base_total) = Rounds::baseline(2);
    let g = gen::cycle(12);
    let dir = fresh_dir("alltorn");
    let cfg = PregelConfig::with_workers(2).with_checkpoints(CheckpointConfig::new(&dir, 2));
    run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap();
    let files = CheckpointStore::create(&dir).unwrap().list().unwrap();
    assert_eq!(files.len(), 4, "snapshots at 2, 4, 6 and 8");
    for (_, path) in &files {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(path, bytes).unwrap();
    }

    let cfg = PregelConfig::with_workers(2)
        .with_checkpoints(CheckpointConfig::new(&dir, 2).with_resume(true));
    let mut p = Rounds::new();
    let r = run(&g, &mut p, |_| 0, &cfg).unwrap();
    assert_eq!(r.values, base.values);
    assert_eq!(p.total, base_total);
    assert_eq!(r.metrics.recovery.restores, 0);
    assert_eq!(r.metrics.recovery.corrupt_snapshots_discarded, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_snapshots_are_removed_before_a_prune_can_keep_them() {
    let (base, base_total) = Rounds::baseline(2);
    let g = gen::cycle(12);
    let dir = fresh_dir("foreign");
    // Past any superstep this run reaches: another program's snapshot,
    // and one without a `program` section at all. Left in place, the
    // newest-two prune would keep them and delete the run's own.
    let store = CheckpointStore::create(&dir).unwrap();
    let other = SnapshotBuilder::new(20, 12).section("program", b"another program".to_vec());
    store.write(&other, 20).unwrap();
    store.write(&SnapshotBuilder::new(30, 12), 30).unwrap();

    // Crash at 5, after snapshots at 2 and 4; the restart restores 4,
    // writes 6 and crashes at 7; the second restart must restore 6.
    let cfg = PregelConfig::with_workers(2)
        .with_checkpoints(
            CheckpointConfig::new(&dir, 2)
                .with_resume(true)
                .with_keep(2),
        )
        .with_faults(
            FaultPlan::builder()
                .panic_in_compute(5, None)
                .panic_in_compute(7, None)
                .build(),
        )
        .with_recovery(RecoveryPolicy::with_max_restarts(2));
    let mut p = Rounds::new();
    let r = run(&g, &mut p, |_| 0, &cfg).unwrap();
    assert_eq!(r.values, base.values);
    assert_eq!(p.total, base_total);
    assert_eq!(r.metrics.recovery.restarts, 2);
    assert_eq!(r.metrics.recovery.restores, 2);
    assert_eq!(r.metrics.recovery.corrupt_snapshots_discarded, 2);
    let listed: Vec<u32> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
    assert_eq!(listed, vec![6, 8], "only the run's own snapshots remain");
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
            _messages: Inbox<'_, u32>,
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
        let err = run(&g, &mut PoisonedVertex, |_| 0, &cfg).unwrap_err();
        let err = err.root();
        match *err {
            PregelError::WorkerPanicked {
                superstep,
                worker,
                vertex,
                ref detail,
            } => {
                assert_eq!(superstep, 2, "workers = {workers}");
                assert!(worker.is_some());
                assert_eq!(vertex, Some(7), "cursor attributes the vertex");
                assert!(detail.contains("poisoned vertex"), "got detail {detail:?}");
            }
            ref other => panic!("expected WorkerPanicked, got {other}"),
        }
    }
}

#[test]
fn wasted_work_is_accounted_across_restarts() {
    let g = gen::cycle(12);
    let cfg = PregelConfig::with_workers(2)
        .with_faults(FaultPlan::builder().panic_in_compute(5, None).build())
        .with_recovery(RecoveryPolicy::with_max_restarts(1));
    let r = run(&g, &mut Rounds::new(), |_| 0, &cfg).unwrap();
    assert_eq!(r.metrics.recovery.restarts, 1);
    // No checkpoints: the failed attempt re-ran supersteps 0..5 for
    // nothing.
    assert_eq!(r.metrics.recovery.wasted_supersteps, 5);
    assert!(r.metrics.recovery.wasted_time > Duration::ZERO);
}

#[test]
fn wasted_work_counts_from_the_newest_snapshot() {
    let g = gen::cycle(12);
    let dir = fresh_dir("wasted");
    let cfg = PregelConfig::with_workers(2)
        .with_checkpoints(CheckpointConfig::new(&dir, 4))
        .with_faults(FaultPlan::builder().panic_in_compute(9, None).build())
        .with_recovery(RecoveryPolicy::with_max_restarts(1));
    let r = run(&g, &mut Rounds::until(12), |_| 0, &cfg).unwrap();
    assert_eq!(r.metrics.recovery.restarts, 1);
    assert_eq!(r.metrics.recovery.restores, 1);
    // The failed attempt wrote snapshots at 4 and 8, and the restart
    // resumes from 8: only superstep 8 ran for nothing.
    assert_eq!(r.metrics.recovery.wasted_supersteps, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `Rounds` under `faults` with a restart budget of `max_restarts`:
/// the escaping error's kind and site, and the restarts counted.
fn exhausted(faults: FaultPlan, max_restarts: u32) -> (&'static str, (u32, Option<u32>), u64) {
    let registry = std::sync::Arc::new(gm_obs::metrics::MetricsRegistry::new());
    let cfg = PregelConfig::with_workers(2)
        .with_faults(faults)
        .with_recovery(RecoveryPolicy::with_max_restarts(max_restarts))
        .with_registry(registry.clone());
    let err = run(&gen::cycle(12), &mut Rounds::new(), |_| 0, &cfg).unwrap_err();
    let (superstep, worker, _) = crate::error::failure_site(&err);
    let restarts = registry.counter("gm_restarts_total", "recovery restarts");
    (err.kind(), (superstep, worker), restarts.get())
}

#[test]
fn identical_failures_exhausting_restarts_return_the_repeated_failure() {
    // The budget bounds the attempts (initial run + 2 restarts), and the
    // repeated failure itself escapes.
    let poison = FaultPlan::builder()
        .panic_in_compute(4, Some(0))
        .times(u32::MAX);
    assert_eq!(
        exhausted(poison.build(), 2),
        ("worker_panicked", (4, Some(0)), 2)
    );
}

#[test]
fn distinct_failures_exhausting_restarts_are_not_quarantined() {
    // Two different failure sites: the last attempt's error, not the first.
    let plan = FaultPlan::builder()
        .panic_in_compute(3, Some(0))
        .panic_in_compute(5, Some(1));
    assert_eq!(
        exhausted(plan.build(), 1),
        ("worker_panicked", (5, Some(1)), 1)
    );
}

#[test]
fn a_zero_restart_budget_returns_the_failure_itself() {
    let plan = FaultPlan::builder().panic_in_compute(4, Some(0)).build();
    assert_eq!(exhausted(plan, 0), ("worker_panicked", (4, Some(0)), 0));
}

/// A wave from every 17th vertex: each vertex votes to halt every
/// superstep and is woken only by a neighbour's captured broadcast, which
/// carries the hop count it reached the sender with.
struct Wave;

impl VertexProgram for Wave {
    type VertexValue = u32; // hops from the nearest seed; 0 = not reached
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
        value: &mut u32,
        messages: Inbox<'_, u32>,
    ) {
        let reached = if ctx.superstep() == 0 {
            ctx.id().0.is_multiple_of(17).then_some(1)
        } else {
            messages.iter().min().map(|m| m + 1).filter(|_| *value == 0)
        };
        if let Some(hops) = reached {
            *value = hops;
            ctx.send_to_nbrs(hops);
        }
        ctx.vote_to_halt();
    }

    fn pull_supported(&self) -> bool {
        true
    }

    fn pull_mode(&self) -> PullMode {
        PullMode::Captured
    }
}

#[test]
fn halting_receivers_wake_identically_under_captured_pull() {
    let g = gen::rmat(300, 900, 5);
    let series = |r: &PregelResult<u32>| -> Vec<(u32, u64, u64)> {
        r.metrics
            .per_superstep
            .iter()
            .map(|s| (s.active_vertices, s.messages_sent, s.message_bytes))
            .collect()
    };
    for workers in [1usize, 2, 4] {
        let run_as = |schedule| {
            let cfg = PregelConfig {
                max_supersteps: 100,
                ..PregelConfig::with_workers(workers).with_schedule(schedule)
            };
            run(&g, &mut Wave, |_| 0, &cfg).unwrap()
        };
        let push = run_as(Schedule::Push);
        let pull = run_as(Schedule::Pull);
        let tag = format!("workers = {workers}");
        assert_eq!(pull.values, push.values, "{tag}");
        assert_eq!(pull.metrics.supersteps, push.metrics.supersteps, "{tag}");
        assert_eq!(series(&pull), series(&push), "{tag}");
        assert_eq!(push.metrics.pull_supersteps, 0, "{tag}");
        assert!(pull.metrics.pull_supersteps > 2, "{tag}");
        // Halted vertices were skipped and some were woken again.
        assert!(
            series(&push)[1..].iter().any(|s| s.0 > 0 && s.0 < 300),
            "{tag}: {:?}",
            series(&push)
        );
    }
}

#[test]
fn a_halted_vertex_woken_by_one_captured_payload_computes() {
    /// Superstep 0: vertex 7 broadcasts, and every vertex halts. Later, a
    /// woken vertex records what woke it and halts again.
    struct OneSender;
    impl VertexProgram for OneSender {
        type VertexValue = Vec<u64>;
        type Message = u64;
        fn message_bytes(&self, _m: &u64) -> u64 {
            8
        }
        fn master_compute(&mut self, _ctx: &mut MasterContext<'_>) -> MasterDecision {
            MasterDecision::Continue
        }
        fn vertex_compute(
            &self,
            ctx: &mut VertexContext<'_, '_, u64>,
            value: &mut Vec<u64>,
            messages: Inbox<'_, u64>,
        ) {
            if ctx.superstep() == 0 && ctx.id().0 == 7 {
                ctx.send_to_nbrs(100);
            } else if ctx.superstep() > 0 {
                value.push(messages.len() as u64);
                value.extend(messages.iter().copied());
            }
            ctx.vote_to_halt();
        }
        fn pull_supported(&self) -> bool {
            true
        }
        fn pull_mode(&self) -> PullMode {
            PullMode::Captured
        }
    }

    // 2 and 4 hear from 7 and from silent senders; 5 and 6 only from
    // silent ones. The sender has the highest id, so every silent sender's
    // slot in its column holds a filler payload, which only the presence
    // test keeps out.
    let edges = [
        (7, 2),
        (7, 4),
        (0, 2),
        (1, 2),
        (3, 2),
        (5, 4),
        (0, 6),
        (1, 5),
        (3, 6),
    ];
    let mut b = gm_graph::GraphBuilder::new(8);
    for (s, t) in edges {
        b.add_edge(s, t);
    }
    let g = b.build();
    for workers in [1usize, 2, 4] {
        let cfg = PregelConfig {
            max_supersteps: 10,
            ..PregelConfig::with_workers(workers).with_schedule(Schedule::Pull)
        };
        let r = run(&g, &mut OneSender, |_| Vec::new(), &cfg).unwrap();
        let mut want = vec![Vec::new(); 8];
        want[2] = vec![1, 100];
        want[4] = vec![1, 100];
        assert_eq!(r.values, want, "workers = {workers}");
        let active: Vec<u32> = (r.metrics.per_superstep.iter())
            .map(|s| s.active_vertices)
            .collect();
        assert_eq!(active, [8, 2], "workers = {workers}");
        assert_eq!(r.metrics.pull_supersteps, 2, "workers = {workers}");
    }
}

#[test]
fn gather_panic_is_attributed_to_the_worker_not_a_vertex() {
    /// Gathers every superstep; recomputing a payload at superstep 3
    /// panics, outside any vertex kernel.
    struct PoisonedPull {
        superstep: u32,
    }
    impl VertexProgram for PoisonedPull {
        type VertexValue = u32;
        type Message = u32;
        fn message_bytes(&self, _m: &u32) -> u64 {
            4
        }
        fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
            self.superstep = ctx.superstep();
            MasterDecision::Continue
        }
        fn vertex_compute(
            &self,
            ctx: &mut VertexContext<'_, '_, u32>,
            value: &mut u32,
            messages: Inbox<'_, u32>,
        ) {
            *value += messages.iter().sum::<u32>();
            ctx.mark_send();
        }
        fn pull_supported(&self) -> bool {
            true
        }
        fn pull_mode(&self) -> PullMode {
            PullMode::Recomputed
        }
        fn pull_message(&self, _graph: &Graph, _src: NodeId, _edge: EdgeId, value: &u32) -> u32 {
            assert_ne!(self.superstep, 3, "poisoned pull payload");
            *value + 1
        }
    }

    let g = gen::cycle(12);
    for workers in [1usize, 2] {
        let cfg = PregelConfig {
            max_supersteps: 10,
            ..PregelConfig::with_workers(workers).with_schedule(Schedule::Pull)
        };
        let err = run(&g, &mut PoisonedPull { superstep: 0 }, |_| 0, &cfg).unwrap_err();
        let err = err.root();
        assert!(
            matches!(
                err,
                PregelError::WorkerPanicked {
                    superstep: 3,
                    worker: Some(_),
                    vertex: None,
                    ..
                }
            ),
            "workers = {workers}, got {err}"
        );
    }
}
