//! Manual Pregel Conductance.
//!
//! Membership of a neighbor is not visible to a Pregel vertex, so crossing
//! edges are counted by communication: non-members announce themselves
//! along *reverse* edges, which first requires materializing each vertex's
//! in-neighbor array (the same §4.3 preamble the generated code uses).
//! Phases: send-ids / collect / din / dout+announce / count / finalize.

use super::ENVELOPE;
use gm_graph::{Graph, NodeId};
use gm_pregel::{
    run, ByteReader, CkptError, GlobalValue, Inbox, MasterContext, MasterDecision, Metrics,
    Persist, PregelConfig, PregelError, ReduceOp, VertexContext, VertexProgram,
};

/// Messages: the id announcement of the preamble, or a crossing-edge mark.
#[derive(Clone, Debug)]
enum Msg {
    /// "I am your in-neighbor" (preamble).
    Id(u32),
    /// "A non-member points at you."
    Mark,
}

impl Persist for Msg {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Id(src) => {
                0u8.persist(out);
                src.persist(out);
            }
            Msg::Mark => 1u8.persist(out),
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        match u8::restore(r)? {
            0 => Ok(Msg::Id(u32::restore(r)?)),
            1 => Ok(Msg::Mark),
            t => Err(CkptError::Decode(format!(
                "invalid conductance message tag {t:#04x}"
            ))),
        }
    }
}

#[derive(Clone, Debug)]
struct V {
    member: bool,
    in_nbrs: Vec<u32>,
}

impl Persist for V {
    fn persist(&self, out: &mut Vec<u8>) {
        self.member.persist(out);
        self.in_nbrs.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(V {
            member: Persist::restore(r)?,
            in_nbrs: Persist::restore(r)?,
        })
    }
}

struct Conductance {
    din: i64,
    dout: i64,
    cross: i64,
    result: f64,
}

impl VertexProgram for Conductance {
    type VertexValue = V;
    type Message = Msg;

    fn message_bytes(&self, m: &Msg) -> u64 {
        // Two message kinds → a type byte, as in the generated class.
        match m {
            Msg::Id(_) => ENVELOPE + 4 + 1,
            Msg::Mark => ENVELOPE + 1,
        }
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        // Aggregates live for one superstep; fold each as it arrives.
        self.din += ctx.agg_or("din", GlobalValue::Int(0)).as_int();
        self.dout += ctx.agg_or("dout", GlobalValue::Int(0)).as_int();
        self.cross += ctx.agg_or("cross", GlobalValue::Int(0)).as_int();
        if ctx.superstep() == 5 {
            let m = self.din.min(self.dout) as f64;
            self.result = if m == 0.0 {
                if self.cross == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                self.cross as f64 / m
            };
            return MasterDecision::Halt;
        }
        MasterDecision::Continue
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut V,
        messages: Inbox<'_, Msg>,
    ) {
        match ctx.superstep() {
            0 => {
                let id = ctx.id().0;
                ctx.send_to_nbrs(Msg::Id(id));
            }
            1 => {
                for m in messages {
                    if let Msg::Id(src) = m {
                        value.in_nbrs.push(*src);
                    }
                }
            }
            2 => {
                if value.member {
                    ctx.reduce_global(
                        "din",
                        ReduceOp::Sum,
                        GlobalValue::Int(ctx.out_degree() as i64),
                    );
                }
            }
            3 => {
                if !value.member {
                    ctx.reduce_global(
                        "dout",
                        ReduceOp::Sum,
                        GlobalValue::Int(ctx.out_degree() as i64),
                    );
                    for &nbr in &value.in_nbrs.clone() {
                        ctx.send(NodeId(nbr), Msg::Mark);
                    }
                }
            }
            _ => {
                if value.member {
                    let crossing =
                        messages.iter().filter(|m| matches!(m, Msg::Mark)).count() as i64;
                    ctx.reduce_global("cross", ReduceOp::Sum, GlobalValue::Int(crossing));
                }
            }
        }
    }

    fn save_master_state(&self, out: &mut Vec<u8>) {
        self.din.persist(out);
        self.dout.persist(out);
        self.cross.persist(out);
        self.result.persist(out);
    }

    fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
        self.din = Persist::restore(r)?;
        self.dout = Persist::restore(r)?;
        self.cross = Persist::restore(r)?;
        self.result = Persist::restore(r)?;
        Ok(())
    }
}

/// Result of [`run_conductance`].
#[derive(Clone, Debug)]
pub struct ConductanceOutcome {
    /// The conductance value.
    pub conductance: f64,
    /// Runtime counters.
    pub metrics: Metrics,
}

/// Runs the manual Conductance baseline.
///
/// # Errors
///
/// Propagates runtime errors from the BSP engine.
///
/// # Panics
///
/// Panics if `member.len()` does not match the vertex count.
pub fn run_conductance(
    graph: &Graph,
    member: &[bool],
    config: &PregelConfig,
) -> Result<ConductanceOutcome, PregelError> {
    assert_eq!(
        member.len(),
        graph.num_nodes() as usize,
        "membership must be per-vertex"
    );
    let mut program = Conductance {
        din: 0,
        dout: 0,
        cross: 0,
        result: 0.0,
    };
    let result = run(
        graph,
        &mut program,
        |n| V {
            member: member[n.index()],
            in_nbrs: Vec::new(),
        },
        config,
    )?;
    Ok(ConductanceOutcome {
        conductance: program.result,
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
        let g = gen::rmat(200, 1400, 13);
        let member: Vec<bool> = (0..200).map(|i| i % 4 == 0).collect();
        let out = run_conductance(&g, &member, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.conductance, reference::conductance(&g, &member));
        assert_eq!(out.metrics.supersteps, 6);
    }

    #[test]
    fn degenerate_sets() {
        let g = gen::complete(5);
        let none = vec![false; 5];
        let out = run_conductance(&g, &none, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.conductance, 0.0);
        let all = vec![true; 5];
        let out = run_conductance(&g, &all, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.conductance, 0.0);
    }
}
