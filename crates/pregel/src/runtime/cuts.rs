//! The cut is free: a run over any contiguous cut of the vertex range,
//! through the same [`run_cut`] seam [`run`](crate::run) uses, matches the
//! one-worker run in its values, supersteps, messages, message bytes,
//! per-superstep activity and integer aggregates. Float `Sum` aggregates
//! are exempt: they fold per-worker partials in worker order, so they are
//! bit-reproducible only for a fixed cut (see
//! [`AggMap::merge`](crate::AggMap::merge)); the programs below never let
//! halting hinge on one.

use crate::supervise::run_cut;
use crate::{
    GlobalValue, Inbox, MasterContext, MasterDecision, Persist, PregelConfig, PregelResult,
    PullMode, ReduceOp, Schedule, VertexContext, VertexProgram,
};
use gm_graph::rng::{check, SplitMix64};
use gm_graph::{gen, EdgeId, Graph, NodeId};

/// The integer aggregates the master saw, one entry per superstep.
type Seen = Vec<Vec<Option<GlobalValue>>>;

fn observe(ctx: &MasterContext<'_>, keys: &[&str]) -> Vec<Option<GlobalValue>> {
    keys.iter().map(|k| ctx.agg(k)).collect()
}

/// Captured pull: PageRank-like ranks for a fixed number of rounds. Odd
/// vertices vote to halt every superstep, so only a message wakes them.
struct Ranks {
    rounds: u32,
    seen: Seen,
}

impl VertexProgram for Ranks {
    type VertexValue = f64;
    type Message = f64;

    fn message_bytes(&self, _m: &f64) -> u64 {
        8
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        self.seen.push(observe(ctx, &["heard", "loudest"]));
        if ctx.superstep() == self.rounds {
            MasterDecision::Halt
        } else {
            MasterDecision::Continue
        }
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, f64>,
        value: &mut f64,
        messages: Inbox<'_, f64>,
    ) {
        let n = f64::from(ctx.num_nodes());
        if ctx.superstep() == 0 {
            *value = 1.0 / n;
        } else {
            let mut sum = 0.0;
            if !messages.is_empty() {
                messages.for_each(|m| sum += m);
            }
            let next = 0.15 / n + 0.85 * sum;
            ctx.reduce_global("diff", ReduceOp::Sum, GlobalValue::Double(next - *value));
            *value = next;
            let heard = messages.len() as i64;
            ctx.reduce_global("heard", ReduceOp::Sum, GlobalValue::Int(heard));
            ctx.reduce_global("loudest", ReduceOp::Max, GlobalValue::Int(heard));
        }
        let degree = ctx.out_degree();
        if degree > 0 {
            ctx.send_to_nbrs(*value / f64::from(degree));
        }
        if ctx.id().0 % 2 == 1 {
            ctx.vote_to_halt();
        }
    }

    fn pull_supported(&self) -> bool {
        true
    }

    fn pull_mode(&self) -> PullMode {
        PullMode::Captured
    }
}

/// Recomputed pull: shortest hops from every 13th vertex over edge
/// lengths drawn from the edge id, halting once nothing improves.
struct Hops {
    seen: Seen,
}

impl Hops {
    fn length(edge: EdgeId) -> u64 {
        1 + u64::from(edge.0 % 7)
    }
}

impl VertexProgram for Hops {
    type VertexValue = u64;
    type Message = u64;

    fn message_bytes(&self, _m: &u64) -> u64 {
        8
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        self.seen.push(observe(ctx, &["improved", "nearest"]));
        MasterDecision::Continue
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, u64>,
        value: &mut u64,
        messages: Inbox<'_, u64>,
    ) {
        let offer = if ctx.superstep() == 0 {
            ctx.id().0.is_multiple_of(13).then_some(0)
        } else {
            messages.iter().copied().min()
        };
        if let Some(d) = offer.filter(|&d| d < *value) {
            *value = d;
            ctx.reduce_global("improved", ReduceOp::Sum, GlobalValue::Int(1));
            ctx.reduce_global("nearest", ReduceOp::Min, GlobalValue::Node(ctx.id().0));
            if !ctx.mark_send() {
                for (t, e) in ctx.out_neighbors() {
                    ctx.send(t, d + Hops::length(e));
                }
            }
        }
        ctx.vote_to_halt();
    }

    fn pull_supported(&self) -> bool {
        true
    }

    fn pull_mode(&self) -> PullMode {
        PullMode::Recomputed
    }

    fn pull_message(&self, _: &Graph, _: NodeId, edge: EdgeId, value: &u64) -> u64 {
        value + Hops::length(edge)
    }
}

/// Push only: targeted sends plus a neighbour broadcast, for a fixed
/// number of rounds.
struct Routed {
    rounds: u32,
    seen: Seen,
}

impl VertexProgram for Routed {
    type VertexValue = i64;
    type Message = i64;

    fn message_bytes(&self, m: &i64) -> u64 {
        // Variable-size payloads, so byte counts are not message counts.
        1 + m.unsigned_abs() % 8
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        self.seen.push(observe(ctx, &["total", "odd"]));
        if ctx.superstep() == self.rounds {
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
            *value = value.wrapping_mul(31).wrapping_add(*m);
        }
        ctx.reduce_global("total", ReduceOp::Sum, GlobalValue::Int(*value));
        ctx.reduce_global("odd", ReduceOp::Or, GlobalValue::Bool(*value % 2 != 0));
        let n = ctx.num_nodes();
        let target = (ctx.id().0 * 7 + ctx.superstep()) % n;
        ctx.send(NodeId(target), *value % 1000);
        ctx.send_to_nbrs(i64::from(ctx.id().0));
    }
}

/// What must not depend on the cut.
#[derive(Debug, PartialEq)]
struct Observed {
    values: Vec<u64>,
    supersteps: u32,
    messages: u64,
    message_bytes: u64,
    per_superstep: Vec<(u32, u64, u64)>,
    seen: Seen,
}

fn observed<V>(r: PregelResult<V>, bits: impl Fn(&V) -> u64, seen: Seen) -> Observed {
    let m = &r.metrics;
    Observed {
        values: r.values.iter().map(bits).collect(),
        supersteps: m.supersteps,
        messages: m.total_messages,
        message_bytes: m.total_message_bytes,
        per_superstep: (m.per_superstep.iter())
            .map(|s| (s.active_vertices, s.messages_sent, s.message_bytes))
            .collect(),
        seen,
    }
}

/// `workers - 1` random cut points over `0..=n`, repeats allowed, so
/// some ranges may be empty.
fn random_cut(rng: &mut SplitMix64, n: u32, workers: usize) -> Vec<u32> {
    let mut starts: Vec<u32> = (1..workers)
        .map(|_| rng.below(u64::from(n) + 1) as u32)
        .collect();
    starts.sort_unstable();
    starts.insert(0, 0);
    starts.push(n);
    starts
}

/// Runs `program` over the cut `starts` under `schedule`.
fn over<P>(
    g: &Graph,
    program: &mut P,
    init: impl Fn(NodeId) -> P::VertexValue,
    schedule: Schedule,
    starts: &[u32],
) -> PregelResult<P::VertexValue>
where
    P: VertexProgram + Send + Sync,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    let config = PregelConfig {
        max_supersteps: 200,
        ..PregelConfig::with_workers(starts.len() - 1).with_schedule(schedule)
    };
    run_cut(g, program, init, &config, starts)
        .unwrap_or_else(|e| panic!("{schedule:?} over {starts:?}: {e}"))
}

#[test]
fn random_cuts_match_one_worker() {
    check("random_cuts_match_one_worker", 24, |rng| {
        let n = 1 + rng.below(120) as u32;
        let m = rng.below(8 * u64::from(n)) as usize;
        let g = if rng.chance(0.5) {
            gen::rmat(n, m, rng.next_u64())
        } else {
            gen::uniform_random(n, m, rng.next_u64())
        };
        let workers = 1 + rng.below(6) as usize;
        let cut = random_cut(rng, n, workers);
        let whole = [0, n];
        let rounds = 2 + rng.below(6) as u32;

        let ranks = |starts: &[u32]| {
            let mut p = Ranks {
                rounds,
                seen: Vec::new(),
            };
            let r = over(&g, &mut p, |_| 0.0, Schedule::Pull, starts);
            assert!(r.metrics.pull_supersteps > 0, "ranks never gathered");
            observed(r, |v| v.to_bits(), p.seen)
        };
        assert_eq!(ranks(&cut), ranks(&whole), "captured pull over {cut:?}");

        let hops = |starts: &[u32]| {
            let mut p = Hops { seen: Vec::new() };
            let r = over(&g, &mut p, |_| u64::MAX, Schedule::Pull, starts);
            observed(r, |&v| v, p.seen)
        };
        assert_eq!(hops(&cut), hops(&whole), "recomputed pull over {cut:?}");

        let routed = |starts: &[u32]| {
            let mut p = Routed {
                rounds,
                seen: Vec::new(),
            };
            let r = over(&g, &mut p, |v| i64::from(v.0), Schedule::Push, starts);
            observed(r, |&v| v as u64, p.seen)
        };
        assert_eq!(routed(&cut), routed(&whole), "push over {cut:?}");
    });
}
