//! Manual Pregel PageRank, with the single-superstep-per-iteration
//! structure hand-tuned GPS programs use (receive contributions, update,
//! immediately send the next round's contributions; the final round's
//! messages dangle and are dropped).

use super::ENVELOPE;
use gm_graph::{Graph, NodeId};
use gm_pregel::{
    run, ByteReader, CkptError, GlobalValue, Inbox, MasterContext, MasterDecision, Metrics,
    Persist, PregelConfig, PregelError, ReduceOp, VertexContext, VertexProgram,
};

struct Pagerank {
    n: f64,
    e: f64,
    d: f64,
    max_iter: i64,
    cnt: i64,
}

impl VertexProgram for Pagerank {
    type VertexValue = f64;
    type Message = f64;

    fn message_bytes(&self, _m: &f64) -> u64 {
        ENVELOPE + 8
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        // Superstep 0: init. Superstep 1: first send. Superstep ≥ 2: one
        // full iteration per superstep; the aggregate from iteration k is
        // visible at superstep k + 3.
        if ctx.superstep() >= 3 {
            let diff = ctx.agg_or("diff", GlobalValue::Double(0.0)).as_double();
            self.cnt += 1;
            if !(diff > self.e && self.cnt < self.max_iter) {
                return MasterDecision::Halt;
            }
        }
        MasterDecision::Continue
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, f64>,
        value: &mut f64,
        messages: Inbox<'_, f64>,
    ) {
        match ctx.superstep() {
            0 => *value = 1.0 / self.n,
            1 => {
                let contribution = *value / ctx.out_degree() as f64;
                ctx.send_to_nbrs(contribution);
            }
            _ => {
                let mut sum = 0.0;
                for m in messages {
                    sum += *m;
                }
                let val = (1.0 - self.d) / self.n + self.d * sum;
                ctx.reduce_global(
                    "diff",
                    ReduceOp::Sum,
                    GlobalValue::Double((val - *value).abs()),
                );
                *value = val;
                // Speculative send for the next iteration (dangles on the
                // last one, exactly like the merged generated loop).
                let contribution = *value / ctx.out_degree() as f64;
                ctx.send_to_nbrs(contribution);
            }
        }
    }

    fn save_master_state(&self, out: &mut Vec<u8>) {
        self.cnt.persist(out);
    }

    fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
        self.cnt = Persist::restore(r)?;
        Ok(())
    }
}

/// Result of [`run_pagerank`].
#[derive(Clone, Debug)]
pub struct PagerankOutcome {
    /// Final PageRank values.
    pub pr: Vec<f64>,
    /// Iterations executed.
    pub iterations: i64,
    /// Runtime counters.
    pub metrics: Metrics,
}

/// Runs the manual PageRank baseline.
///
/// # Errors
///
/// Propagates runtime errors from the BSP engine.
pub fn run_pagerank(
    graph: &Graph,
    e: f64,
    d: f64,
    max_iter: i64,
    config: &PregelConfig,
) -> Result<PagerankOutcome, PregelError> {
    let mut program = Pagerank {
        n: graph.num_nodes() as f64,
        e,
        d,
        max_iter,
        cnt: 0,
    };
    let result = run(graph, &mut program, |_: NodeId| 0.0, config)?;
    Ok(PagerankOutcome {
        pr: result.values,
        iterations: program.cnt,
        metrics: result.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gm_graph::gen;

    #[test]
    fn matches_reference_exactly() {
        let g = gen::rmat(200, 1400, 5);
        let out = run_pagerank(&g, 1e-9, 0.85, 20, &PregelConfig::sequential()).unwrap();
        let (ref_pr, ref_iters) = reference::pagerank(&g, 1e-9, 0.85, 20);
        assert_eq!(out.iterations, ref_iters);
        assert_eq!(out.pr, ref_pr);
    }

    #[test]
    fn superstep_structure() {
        let g = gen::cycle(10);
        let iters = 5;
        // Negative epsilon forces the loop to run out the iteration budget.
        let out = run_pagerank(&g, -1.0, 0.85, iters, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.iterations, iters);
        // init + first send + iters merged supersteps + final halt check.
        assert_eq!(out.metrics.supersteps as i64, 2 + iters + 1);
        // (iters + 1) rounds of sends (the last one dangles).
        assert_eq!(out.metrics.total_messages as i64, (iters + 1) * 10);
    }
}
