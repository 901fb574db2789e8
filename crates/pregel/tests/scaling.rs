//! Worker-count scaling tests for the parallel message exchange: results
//! must be byte-identical for every worker count, and the exchange path
//! must never clone a message.

use gm_graph::{gen, NodeId};
use gm_pregel::{
    run, Inbox, MasterContext, MasterDecision, PregelConfig, VertexContext, VertexProgram,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// PageRank with a fixed round count — the floating-point workload used by
/// the `message_exchange` bench.
struct PageRank {
    n: f64,
    rounds: u32,
}

impl VertexProgram for PageRank {
    type VertexValue = f64;
    type Message = f64;

    fn message_bytes(&self, _m: &f64) -> u64 {
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
        ctx: &mut VertexContext<'_, '_, f64>,
        value: &mut f64,
        messages: Inbox<'_, f64>,
    ) {
        if ctx.superstep() == 0 {
            *value = 1.0 / self.n;
        } else {
            // Messages arrive ordered by sender id, so this sum is
            // reproducible for every worker count.
            let mut sum = 0.0;
            for m in messages {
                sum += *m;
            }
            *value = 0.15 / self.n + 0.85 * sum;
        }
        if ctx.out_degree() > 0 {
            ctx.send_to_nbrs(*value / ctx.out_degree() as f64);
        }
    }
}

/// PageRank on an R-MAT graph is byte-identical — values, supersteps and
/// message counters — for workers ∈ {1, 2, 3, 4, 5, 8}.
#[test]
fn pagerank_is_byte_identical_across_worker_counts() {
    let g = gen::rmat(2_000, 16_000, 7);
    let base = run(
        &g,
        &mut PageRank {
            n: g.num_nodes() as f64,
            rounds: 10,
        },
        |_| 0.0,
        &PregelConfig::sequential(),
    )
    .unwrap();
    let base_bits: Vec<u64> = base.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(base.metrics.supersteps, 12);

    for workers in [2usize, 3, 4, 5, 8] {
        let r = run(
            &g,
            &mut PageRank {
                n: g.num_nodes() as f64,
                rounds: 10,
            },
            |_| 0.0,
            &PregelConfig::with_workers(workers),
        )
        .unwrap();
        let bits: Vec<u64> = r.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, base_bits, "values differ at workers = {workers}");
        assert_eq!(r.metrics.supersteps, base.metrics.supersteps);
        assert_eq!(r.metrics.total_messages, base.metrics.total_messages);
        assert_eq!(
            r.metrics.total_message_bytes,
            base.metrics.total_message_bytes
        );
    }
}

/// The phase breakdown accounts for each superstep's wall-clock: the
/// barrier residual is recorded per superstep (the runtime saturates the
/// subtraction at zero, so it can never go negative), `phase_total()` is
/// exactly the four phases plus that residual, and the run totals are the
/// per-superstep sums — with the master total also covering the final
/// master-only superstep, which has no per-superstep entry.
#[test]
fn phase_breakdown_accounts_for_the_superstep_wall_clock() {
    let g = gen::rmat(2_000, 16_000, 7);
    for workers in [1usize, 4] {
        let r = run(
            &g,
            &mut PageRank {
                n: g.num_nodes() as f64,
                rounds: 10,
            },
            |_| 0.0,
            &PregelConfig::with_workers(workers),
        )
        .unwrap();
        let m = &r.metrics;
        assert_eq!(
            m.per_superstep.len() as u32 + 1,
            m.supersteps,
            "workers = {workers}: the halting superstep is master-only"
        );
        let mut sums = [Duration::ZERO; 5];
        for s in &m.per_superstep {
            assert_eq!(
                s.phase_total(),
                s.compute_time + s.combine_time + s.exchange_time + s.master_time + s.barrier_time,
                "workers = {workers}: phase_total must cover all five parts"
            );
            sums[0] += s.compute_time;
            sums[1] += s.combine_time;
            sums[2] += s.exchange_time;
            sums[3] += s.master_time;
            sums[4] += s.barrier_time;
        }
        assert_eq!(m.compute_time, sums[0], "workers = {workers}");
        assert_eq!(m.combine_time, sums[1], "workers = {workers}");
        assert_eq!(m.exchange_time, sums[2], "workers = {workers}");
        assert_eq!(m.barrier_time, sums[4], "workers = {workers}");
        // The final master-only superstep is metered into the master total.
        assert!(m.master_time >= sums[3], "workers = {workers}");
        if workers > 1 {
            // Dispatching jobs to the pool and collecting replies has a
            // real cost somewhere across eleven supersteps.
            assert!(
                m.barrier_time > Duration::ZERO,
                "multi-worker runs must observe a barrier residual"
            );
        }
    }
}

/// The exchange path moves messages; it must never clone them. (Cloning
/// happens only where the programming model requires a copy per recipient,
/// i.e. `send_to_nbrs` fan-out — this program sends point-to-point.)
static CLONES: AtomicUsize = AtomicUsize::new(0);

struct CountingMsg(u64);

impl gm_ckpt::Persist for CountingMsg {
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
    }
    fn restore(r: &mut gm_ckpt::ByteReader<'_>) -> Result<Self, gm_ckpt::CkptError> {
        Ok(CountingMsg(u64::restore(r)?))
    }
}

impl Clone for CountingMsg {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        CountingMsg(self.0)
    }
}

struct RingRelay {
    n: u32,
    rounds: u32,
}

impl VertexProgram for RingRelay {
    type VertexValue = u64;
    type Message = CountingMsg;

    fn message_bytes(&self, _m: &CountingMsg) -> u64 {
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
        ctx: &mut VertexContext<'_, '_, CountingMsg>,
        value: &mut u64,
        messages: Inbox<'_, CountingMsg>,
    ) {
        for m in messages {
            *value += m.0;
        }
        let id = ctx.id().0;
        let next = NodeId((id + 1) % self.n);
        ctx.send(next, CountingMsg(id as u64));
    }
}

#[test]
fn exchange_path_never_clones_messages() {
    let g = gen::cycle(64);
    for workers in [1usize, 4] {
        CLONES.store(0, Ordering::Relaxed);
        let r = run(
            &g,
            &mut RingRelay { n: 64, rounds: 5 },
            |_| 0,
            &PregelConfig::with_workers(workers),
        )
        .unwrap();
        assert!(r.metrics.total_messages > 0);
        assert_eq!(
            CLONES.load(Ordering::Relaxed),
            0,
            "exchange cloned messages at workers = {workers}"
        );
    }
}
