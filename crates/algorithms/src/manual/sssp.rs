//! Manual Pregel SSSP: the classic one-superstep-per-wave formulation
//! (receive tentative distances, relax, immediately propagate).

use super::ENVELOPE;
use gm_graph::{Graph, NodeId};
use gm_pregel::{
    run, ByteReader, CkptError, GlobalValue, Inbox, MasterContext, MasterDecision, Metrics,
    Persist, PregelConfig, PregelError, ReduceOp, VertexContext, VertexProgram,
};

/// Per-vertex state.
#[derive(Clone, Debug)]
struct V {
    dist: i64,
    dist_nxt: i64,
    updated: bool,
}

impl Persist for V {
    fn persist(&self, out: &mut Vec<u8>) {
        self.dist.persist(out);
        self.dist_nxt.persist(out);
        self.updated.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(V {
            dist: Persist::restore(r)?,
            dist_nxt: Persist::restore(r)?,
            updated: Persist::restore(r)?,
        })
    }
}

struct Sssp<'a> {
    root: NodeId,
    weights: &'a [i64],
}

impl Sssp<'_> {
    fn relax_and_send(&self, ctx: &mut VertexContext<'_, '_, i64>, value: &V) {
        if value.updated {
            for (t, e) in ctx.out_neighbors() {
                ctx.send(t, value.dist + self.weights[e.index()]);
            }
        }
    }
}

impl VertexProgram for Sssp<'_> {
    type VertexValue = V;
    type Message = i64;

    fn message_bytes(&self, _m: &i64) -> u64 {
        ENVELOPE + 4 // the paper's `Int` distances
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        if ctx.superstep() >= 3 {
            let any = ctx.agg_or("upd", GlobalValue::Bool(false)).as_bool();
            if !any {
                return MasterDecision::Halt;
            }
        }
        MasterDecision::Continue
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, i64>,
        value: &mut V,
        messages: Inbox<'_, i64>,
    ) {
        match ctx.superstep() {
            0 => {
                let is_root = ctx.id() == self.root;
                value.dist = if is_root { 0 } else { i64::MAX };
                value.dist_nxt = value.dist;
                value.updated = is_root;
            }
            1 => self.relax_and_send(ctx, &value.clone()),
            _ => {
                for m in messages {
                    value.dist_nxt = value.dist_nxt.min(*m);
                }
                value.updated = value.dist_nxt < value.dist;
                value.dist = value.dist_nxt;
                if value.updated {
                    ctx.reduce_global("upd", ReduceOp::Or, GlobalValue::Bool(true));
                }
                self.relax_and_send(ctx, &value.clone());
            }
        }
    }
}

/// Result of [`run_sssp`].
#[derive(Clone, Debug)]
pub struct SsspOutcome {
    /// Shortest distances (`i64::MAX` = unreachable).
    pub dist: Vec<i64>,
    /// Runtime counters.
    pub metrics: Metrics,
}

/// Runs the manual SSSP baseline.
///
/// # Errors
///
/// Propagates runtime errors from the BSP engine.
///
/// # Panics
///
/// Panics if `weights.len()` does not match the edge count.
pub fn run_sssp(
    graph: &Graph,
    root: NodeId,
    weights: &[i64],
    config: &PregelConfig,
) -> Result<SsspOutcome, PregelError> {
    assert_eq!(
        weights.len(),
        graph.num_edges() as usize,
        "weights must be per-edge"
    );
    let mut program = Sssp { root, weights };
    let result = run(
        graph,
        &mut program,
        |_| V {
            dist: i64::MAX,
            dist_nxt: i64::MAX,
            updated: false,
        },
        config,
    )?;
    Ok(SsspOutcome {
        dist: result.values.iter().map(|v| v.dist).collect(),
        metrics: result.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gm_graph::gen;

    #[test]
    fn matches_dijkstra() {
        let g = gen::rmat(250, 1500, 7);
        let weights: Vec<i64> = (0..1500).map(|i| 1 + (i * 11) % 9).collect();
        let out = run_sssp(&g, NodeId(2), &weights, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.dist, reference::dijkstra(&g, NodeId(2), &weights));
    }

    #[test]
    fn path_takes_one_superstep_per_hop() {
        let g = gen::path(5);
        let weights = vec![1; 4];
        let out = run_sssp(&g, NodeId(0), &weights, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.dist, vec![0, 1, 2, 3, 4]);
        // init + first send + 4 waves + one quiet round + halt-discovery
        // (the last wave's `updated` flag keeps the loop alive one extra
        // superstep — exactly as in the generated machine).
        assert_eq!(out.metrics.supersteps, 8);
        assert_eq!(out.metrics.total_messages, 4);
    }
}
