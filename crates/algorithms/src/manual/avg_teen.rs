//! Manual Pregel Average Teenage Followers (the paper's Fig. 3, on this
//! runtime).
//!
//! Superstep 0: every teenager messages its out-neighbors ("I follow you").
//! Superstep 1: each vertex counts received messages into `teen_cnt`;
//! vertices older than `K` reduce their count into the `S`/`C` globals.
//! Superstep 2: the master finalizes the average and halts.

use super::ENVELOPE;
use gm_graph::{Graph, NodeId};
use gm_pregel::{
    run, ByteReader, CkptError, GlobalValue, Inbox, MasterContext, MasterDecision, Metrics,
    Persist, PregelConfig, PregelError, ReduceOp, VertexContext, VertexProgram,
};

/// Per-vertex state.
#[derive(Clone, Debug)]
struct V {
    age: i64,
    teen_cnt: i64,
}

impl Persist for V {
    fn persist(&self, out: &mut Vec<u8>) {
        self.age.persist(out);
        self.teen_cnt.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(V {
            age: Persist::restore(r)?,
            teen_cnt: Persist::restore(r)?,
        })
    }
}

struct AvgTeen {
    k: i64,
    avg: f64,
}

impl VertexProgram for AvgTeen {
    type VertexValue = V;
    type Message = ();

    fn message_bytes(&self, _m: &()) -> u64 {
        ENVELOPE // empty payload, single message kind
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        match ctx.superstep() {
            0 | 1 => MasterDecision::Continue,
            _ => {
                let s = ctx.agg_or("S", GlobalValue::Int(0)).as_int();
                let c = ctx.agg_or("C", GlobalValue::Int(0)).as_int();
                self.avg = if c == 0 { 0.0 } else { s as f64 / c as f64 };
                MasterDecision::Halt
            }
        }
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, ()>,
        value: &mut V,
        messages: Inbox<'_, ()>,
    ) {
        match ctx.superstep() {
            0 => {
                if (13..20).contains(&value.age) {
                    ctx.send_to_nbrs(());
                }
            }
            _ => {
                value.teen_cnt = messages.len() as i64;
                if value.age > self.k {
                    ctx.reduce_global("S", ReduceOp::Sum, GlobalValue::Int(value.teen_cnt));
                    ctx.reduce_global("C", ReduceOp::Sum, GlobalValue::Int(1));
                }
            }
        }
    }

    fn save_master_state(&self, out: &mut Vec<u8>) {
        self.avg.persist(out);
    }

    fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
        self.avg = Persist::restore(r)?;
        Ok(())
    }
}

/// Result of [`run_avg_teen`].
#[derive(Clone, Debug)]
pub struct AvgTeenOutcome {
    /// Teenage-follower count per vertex.
    pub teen_cnt: Vec<i64>,
    /// Average over vertices with `age > k`.
    pub avg: f64,
    /// Runtime counters.
    pub metrics: Metrics,
}

/// Runs the manual AvgTeen baseline.
///
/// # Errors
///
/// Propagates runtime errors from the BSP engine.
///
/// # Panics
///
/// Panics if `ages.len()` does not match the vertex count.
pub fn run_avg_teen(
    graph: &Graph,
    ages: &[i64],
    k: i64,
    config: &PregelConfig,
) -> Result<AvgTeenOutcome, PregelError> {
    assert_eq!(
        ages.len(),
        graph.num_nodes() as usize,
        "ages must be per-vertex"
    );
    let mut program = AvgTeen { k, avg: 0.0 };
    let init = |n: NodeId| V {
        age: ages[n.index()],
        teen_cnt: 0,
    };
    let result = run(graph, &mut program, init, config)?;
    Ok(AvgTeenOutcome {
        teen_cnt: result.values.iter().map(|v| v.teen_cnt).collect(),
        avg: program.avg,
        metrics: result.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gm_graph::gen;

    #[test]
    fn matches_reference() {
        let g = gen::rmat(300, 2000, 3);
        let ages: Vec<i64> = (0..300).map(|i| (i * 31) % 90).collect();
        let out = run_avg_teen(&g, &ages, 25, &PregelConfig::sequential()).unwrap();
        let (ref_cnt, ref_avg) = reference::avg_teen(&g, &ages, 25);
        assert_eq!(out.teen_cnt, ref_cnt);
        assert_eq!(out.avg, ref_avg);
        assert_eq!(out.metrics.supersteps, 3);
    }

    #[test]
    fn message_count_is_teen_out_degree_sum() {
        let g = gen::star(4);
        let ages = vec![15, 30, 30, 30, 30]; // hub is a teen with 4 out-edges
        let out = run_avg_teen(&g, &ages, 20, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.metrics.total_messages, 4);
        assert_eq!(out.metrics.total_message_bytes, 4 * ENVELOPE);
        assert_eq!(out.teen_cnt, vec![0, 1, 1, 1, 1]);
    }
}
