//! Property-based and feature tests for the BSP runtime itself.

use gm_graph::rng::check;
use gm_graph::{gen, GraphBuilder, NodeId};
use gm_pregel::{
    run, GlobalValue, Inbox, MasterContext, MasterDecision, PregelConfig, ReduceOp, VertexContext,
    VertexProgram,
};

/// Cases per property: each runs several whole BSP jobs.
const CASES: u32 = 24;

/// Sums incoming integer messages for a fixed number of rounds; generic
/// over combining.
struct RelaySum {
    rounds: u32,
    combining: bool,
}

impl VertexProgram for RelaySum {
    type VertexValue = i64;
    type Message = i64;

    fn message_bytes(&self, _m: &i64) -> u64 {
        8
    }

    fn has_combiner(&self) -> bool {
        self.combining
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(a + b)
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
        let relay = || RelaySum {
            rounds,
            combining: false,
        };
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

/// Combining preserves the summed results while never increasing the
/// message count.
#[test]
fn combining_preserves_sums() {
    check("combining_preserves_sums", CASES, |rng| {
        let (n, m, seed) = (
            rng.range(1..60) as u32,
            rng.below(300) as usize,
            rng.below(500),
        );
        let g = gen::uniform_random(n, m, seed);
        let relay = |combining| RelaySum {
            rounds: 2,
            combining,
        };
        for workers in [1usize, 3] {
            let config = PregelConfig::with_workers(workers);
            let plain = run(&g, &mut relay(false), |_| 0i64, &config).unwrap();
            let combined = run(&g, &mut relay(true), |_| 0i64, &config).unwrap();
            assert_eq!(&plain.values, &combined.values);
            assert!(combined.metrics.total_messages <= plain.metrics.total_messages);
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

#[test]
fn combining_is_per_worker_like_pregel() {
    // A star hub receiving from every spoke: with one worker, everything
    // combines into a single message; with two workers, at most two.
    struct ToHub;
    impl VertexProgram for ToHub {
        type VertexValue = i64;
        type Message = i64;
        fn message_bytes(&self, _m: &i64) -> u64 {
            8
        }
        fn has_combiner(&self) -> bool {
            true
        }
        fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
            Some(a + b)
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
            ctx: &mut VertexContext<'_, '_, i64>,
            value: &mut i64,
            messages: Inbox<'_, i64>,
        ) {
            if ctx.superstep() == 0 {
                if ctx.id().0 != 0 {
                    ctx.send(NodeId(0), 1);
                }
            } else {
                for m in messages {
                    *value += *m;
                }
            }
        }
    }
    // 0 is the hub; vertices 1..=8 send to it.
    let mut b = GraphBuilder::new(9);
    for i in 1..9 {
        b.add_edge(0, i);
    }
    let g = b.build();
    let one = run(&g, &mut ToHub, |_| 0, &PregelConfig::sequential()).unwrap();
    assert_eq!(one.values[0], 8);
    assert_eq!(
        one.metrics.total_messages, 1,
        "fully combined on one worker"
    );
    let two = run(&g, &mut ToHub, |_| 0, &PregelConfig::with_workers(2)).unwrap();
    assert_eq!(two.values[0], 8);
    assert!(
        (1..=2).contains(&two.metrics.total_messages),
        "per-worker combining: {} messages",
        two.metrics.total_messages
    );
}
