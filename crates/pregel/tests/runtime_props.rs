//! Property-based and feature tests for the BSP runtime itself.

use gm_graph::gen;
use gm_graph::rng::check;
use gm_pregel::{
    run, GlobalValue, Inbox, MasterContext, MasterDecision, PregelConfig, ReduceOp, VertexContext,
    VertexProgram,
};

/// Cases per property: each runs several whole BSP jobs.
const CASES: u32 = 24;

/// Sums incoming integer messages for a fixed number of rounds.
struct RelaySum {
    rounds: u32,
}

impl VertexProgram for RelaySum {
    type VertexValue = i64;
    type Message = i64;

    fn message_bytes(&self, _m: &i64) -> u64 {
        8
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        if ctx.superstep() > self.rounds {
            MasterDecision::Halt
        } else {
            MasterDecision::Continue
        }
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, i64>,
        value: &mut i64,
        messages: Inbox<'_, i64>,
    ) {
        for m in messages {
            *value += *m;
        }
        let contribution = ctx.id().0 as i64 + 1;
        ctx.send_to_nbrs(contribution);
    }
}

/// Results and total bytes are identical for every worker count.
#[test]
fn worker_count_invariance() {
    check("worker_count_invariance", CASES, |rng| {
        let (n, m) = (rng.range(1..60) as u32, rng.below(300) as usize);
        let (seed, rounds) = (rng.below(500), rng.range(1..4) as u32);
        let g = gen::uniform_random(n, m, seed);
        let relay = || RelaySum { rounds };
        let base = run(&g, &mut relay(), |_| 0i64, &PregelConfig::sequential()).unwrap();
        for workers in [2usize, 5] {
            let r = run(
                &g,
                &mut relay(),
                |_| 0i64,
                &PregelConfig::with_workers(workers),
            )
            .unwrap();
            assert_eq!(&r.values, &base.values, "workers = {}", workers);
            assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
            assert_eq!(
                r.metrics.total_message_bytes,
                base.metrics.total_message_bytes
            );
        }
    });
}

/// Aggregates reach the master identically for any worker count.
#[test]
fn aggregate_invariance() {
    check("aggregate_invariance", CASES, |rng| {
        struct MinId {
            observed: Option<i64>,
        }
        impl VertexProgram for MinId {
            type VertexValue = ();
            type Message = ();
            fn message_bytes(&self, _m: &()) -> u64 {
                0
            }
            fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
                if ctx.superstep() == 1 {
                    self.observed = ctx.agg("m").map(|v| v.as_int());
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
                ctx.reduce_global("m", ReduceOp::Min, GlobalValue::Int(id * 3 - 7));
            }
        }
        let (n, seed) = (rng.range(1..60) as u32, rng.below(500));
        let g = gen::uniform_random(n, 0, seed);
        let mut expected = None;
        for workers in [1usize, 2, 4] {
            let mut p = MinId { observed: None };
            run(&g, &mut p, |_| (), &PregelConfig::with_workers(workers)).unwrap();
            match &expected {
                None => expected = Some(p.observed),
                Some(e) => assert_eq!(e, &p.observed),
            }
        }
        assert_eq!(expected.flatten(), Some(-7));
    });
}
