//! Resource-governance integration tests, driven entirely through the
//! public API: the superstep deadline watchdog kills an injected
//! infinite-loop compute kernel, checkpointed recovery survives a
//! transient hang, a deterministic hang exhausts the restart budget and
//! returns the last attempt's deadline error, spill-write failures surface as
//! structured errors and are themselves recoverable, and the resident
//! budget trips [`PregelError::BudgetExceeded`] at the barrier.

use gm_graph::gen;
use gm_obs::metrics::MetricsRegistry;
use gm_pregel::{
    run, CheckpointConfig, FaultPlan, Inbox, MasterContext, MasterDecision, PregelConfig,
    PregelError, RecoveryPolicy, ResourceBudget, VertexContext, VertexProgram,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gm-governance-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic chatty program: every vertex floods its neighbors each
/// superstep and accumulates what it hears, for a fixed number of rounds.
struct Rounds {
    rounds: u32,
}

impl VertexProgram for Rounds {
    type VertexValue = u64;
    type Message = u64;

    fn message_bytes(&self, _m: &u64) -> u64 {
        8
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        if ctx.superstep() == self.rounds {
            MasterDecision::Halt
        } else {
            MasterDecision::Continue
        }
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, u64>,
        value: &mut u64,
        messages: Inbox<'_, u64>,
    ) {
        *value += messages.iter().sum::<u64>();
        ctx.send_to_nbrs(*value + u64::from(ctx.id().0) + 1);
    }
}

/// A budget with only the deadline set, explicitly unbounded elsewhere so
/// the test is immune to `GM_*` environment variables set by a CI stress
/// job.
fn deadline_only(d: Duration) -> ResourceBudget {
    ResourceBudget::unbounded().with_superstep_deadline(d)
}

#[test]
fn watchdog_kills_a_hung_compute_kernel() {
    let g = gen::cycle(12);
    for workers in [1usize, 2] {
        let cfg = PregelConfig::with_workers(workers)
            .with_budget(deadline_only(Duration::from_millis(50)))
            .with_faults(FaultPlan::builder().hang_in_compute(3, None).build());
        // Variant matches look through any post-mortem wrap so the suite
        // also passes with GM_POST_MORTEM_DIR armed (as CI does).
        let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
        let err = err.root();
        match *err {
            PregelError::DeadlineExceeded {
                superstep,
                deadline,
                ..
            } => {
                assert_eq!(superstep, 3, "workers = {workers}");
                assert_eq!(deadline, Duration::from_millis(50));
            }
            ref other => panic!("workers = {workers}: expected deadline error, got {other}"),
        }
    }
}

#[test]
fn transient_hang_is_recovered_from_checkpoint() {
    let g = gen::cycle(12);
    // Baseline without faults or deadline.
    let base = run(
        &g,
        &mut Rounds { rounds: 8 },
        |_| 0,
        &PregelConfig::with_workers(2).with_budget(ResourceBudget::unbounded()),
    )
    .unwrap();

    let dir = fresh_dir("hang");
    let cfg = PregelConfig::with_workers(2)
        .with_budget(deadline_only(Duration::from_millis(50)))
        .with_checkpoints(CheckpointConfig::new(&dir, 2))
        .with_faults(FaultPlan::builder().hang_in_compute(5, Some(0)).build())
        .with_recovery(RecoveryPolicy::with_max_restarts(2));
    let r = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap();
    assert_eq!(r.values, base.values);
    assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
    assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
    assert_eq!(r.metrics.recovery.restarts, 1);
    assert!(
        r.metrics.recovery.wasted_supersteps > 0,
        "the killed attempt must be accounted as waste"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_hang_exhausts_the_restart_budget() {
    let g = gen::cycle(12);
    let dir = fresh_dir("poison");
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = PregelConfig::with_workers(2)
        .with_budget(deadline_only(Duration::from_millis(30)))
        .with_checkpoints(CheckpointConfig::new(&dir, 2))
        .with_faults(
            FaultPlan::builder()
                .hang_in_compute(4, Some(0))
                .times(u32::MAX)
                .build(),
        )
        .with_recovery(RecoveryPolicy::with_max_restarts(2))
        .with_registry(registry.clone());
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
    let err = err.root();
    assert!(
        matches!(err, PregelError::DeadlineExceeded { superstep: 4, .. }),
        "expected the last attempt's deadline error, got {err}"
    );
    // Initial attempt + 2 restarts, then the budget stops the loop.
    let restarts = registry.counter("gm_restarts_total", "recovery restarts");
    assert_eq!(restarts.get(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_write_failure_is_structured_and_recoverable() {
    let g = gen::cycle(12);
    let spilling = ResourceBudget::unbounded().with_max_message_bytes(1);

    // Plain run: the injected write failure surfaces as SpillFailed, on
    // the inline executor and on the pool alike.
    for workers in [1usize, 2] {
        let cfg = PregelConfig::with_workers(workers)
            .with_budget(spilling.clone())
            .with_faults(FaultPlan::builder().fail_spill_write(3).build());
        let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
        let err = err.root();
        match *err {
            PregelError::SpillFailed { superstep, op, .. } => {
                assert_eq!(superstep, 3, "workers = {workers}");
                assert_eq!(op, "write");
            }
            ref other => panic!("workers = {workers}: expected spill failure, got {other}"),
        }
    }

    // Supervised run: the same failure is transient, so recovery replays
    // the superstep and finishes with results identical to an unspilled,
    // unfaulted baseline.
    let base = run(
        &g,
        &mut Rounds { rounds: 8 },
        |_| 0,
        &PregelConfig::with_workers(2).with_budget(ResourceBudget::unbounded()),
    )
    .unwrap();
    let dir = fresh_dir("spillfail");
    let cfg = PregelConfig::with_workers(2)
        .with_budget(spilling)
        .with_checkpoints(CheckpointConfig::new(&dir, 2))
        .with_faults(FaultPlan::builder().fail_spill_write(3).build())
        .with_recovery(RecoveryPolicy::with_max_restarts(1));
    let r = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap();
    assert_eq!(r.values, base.values);
    assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
    assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
    assert_eq!(r.metrics.recovery.restarts, 1);
    assert!(r.metrics.spill.buckets_spilled > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resident_budget_trips_at_the_barrier() {
    let g = gen::cycle(12);
    // The injected fault forces the barrier check to report an overrun at
    // superstep 2 without needing an actually-huge value store.
    let cfg = PregelConfig::with_workers(2)
        .with_budget(ResourceBudget::unbounded().with_max_resident_bytes(1 << 30))
        .with_faults(FaultPlan::builder().oom_at_barrier(2).build());
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
    let err = err.root();
    match *err {
        PregelError::BudgetExceeded {
            superstep,
            what,
            used,
            budget,
        } => {
            assert_eq!(superstep, 2);
            assert_eq!(what, "resident value-store bytes");
            assert!(used > budget, "reported usage must exceed the budget");
        }
        ref other => panic!("expected budget error, got {other}"),
    }

    // A genuinely tiny budget trips without any injected fault.
    let cfg = PregelConfig::with_workers(2)
        .with_budget(ResourceBudget::unbounded().with_max_resident_bytes(8));
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
    let err = err.root();
    assert!(
        matches!(err, PregelError::BudgetExceeded { .. }),
        "got {err}"
    );
}

#[test]
fn governed_run_with_all_limits_set_still_matches_baseline() {
    let g = gen::rmat(200, 1400, 5);
    let base = run(
        &g,
        &mut Rounds { rounds: 6 },
        |_| 0,
        &PregelConfig::with_workers(2).with_budget(ResourceBudget::unbounded()),
    )
    .unwrap();
    // Generous-but-finite limits on every axis at once: the governed run
    // must spill (tiny message budget) yet stay bit-identical.
    let spill_dir = fresh_dir("alllimits");
    let budget = ResourceBudget::unbounded()
        .with_max_message_bytes(64)
        .with_superstep_deadline(Duration::from_secs(60))
        .with_max_resident_bytes(1 << 30)
        .with_spill_dir(&spill_dir);
    let r = run(
        &g,
        &mut Rounds { rounds: 6 },
        |_| 0,
        &PregelConfig::with_workers(2).with_budget(budget),
    )
    .unwrap();
    assert_eq!(r.values, base.values);
    assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
    assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
    assert_eq!(
        r.metrics.total_message_bytes,
        base.metrics.total_message_bytes
    );
    assert!(r.metrics.spill.buckets_spilled > 0);
    let _ = std::fs::remove_dir_all(&spill_dir);
}

#[test]
fn cancellation_token_stops_the_run_at_a_superstep_boundary() {
    use std::sync::atomic::AtomicBool;

    let g = gen::cycle(16);
    let cancel = Arc::new(AtomicBool::new(true));
    let cfg = PregelConfig::with_workers(2)
        .with_budget(ResourceBudget::unbounded())
        .with_cancel(cancel.clone());
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(!err.is_recoverable(), "hosts cancel on purpose");
    match *err.root() {
        PregelError::Cancelled { superstep } => assert_eq!(superstep, 0),
        ref other => panic!("expected Cancelled, got {other}"),
    }

    // A cleared token is inert: the same config runs to completion.
    cancel.store(false, Ordering::Relaxed);
    let r = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap();
    assert_eq!(r.metrics.supersteps, 9);

    // And a supervised run must not retry a cancellation: it is not
    // recoverable, so the error comes back directly.
    cancel.store(true, Ordering::Relaxed);
    let cfg = cfg.with_recovery(RecoveryPolicy::with_max_restarts(3));
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
    let err = err.root();
    assert!(matches!(err, PregelError::Cancelled { .. }), "{err}");
}
