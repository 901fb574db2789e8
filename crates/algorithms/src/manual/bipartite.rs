//! Manual Pregel Random Bipartite Matching: the paper's three-phase
//! handshake with an explicitly tagged message class (as in the paper's
//! Fig. 3 style) and the steady-state three-supersteps-per-round loop.
//!
//! Round structure after the first proposal wave (superstep 1):
//!
//! * `A` — girls accept proposals (last writer in sender order wins) and
//!   write back to their chosen suitor;
//! * `B` — boys accept write-backs, finalize the match, notify the girl,
//!   and bump the global match counter;
//! * `C` — girls record the notification; the round's activity is reduced
//!   to the master; suitors reset and unmatched boys speculatively propose
//!   for the next round (dangling on the last).

use super::ENVELOPE;
use gm_graph::{Graph, NodeId};
use gm_pregel::{
    run, ByteReader, CkptError, GlobalValue, Inbox, MasterContext, MasterDecision, Metrics,
    Persist, PregelConfig, PregelError, ReduceOp, VertexContext, VertexProgram,
};

const NIL: u32 = u32::MAX;

/// The tagged message class.
#[derive(Clone, Debug)]
enum Msg {
    /// Boy → girl: "marry me" (carries the boy's id).
    Propose(u32),
    /// Girl → boy: "yes" (carries the girl's id).
    WriteBack(u32),
    /// Boy → girl: "deal" (carries the boy's id).
    Notify(u32),
}

impl Persist for Msg {
    fn persist(&self, out: &mut Vec<u8>) {
        let (tag, id) = match self {
            Msg::Propose(b) => (0u8, *b),
            Msg::WriteBack(g) => (1u8, *g),
            Msg::Notify(b) => (2u8, *b),
        };
        tag.persist(out);
        id.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let tag = u8::restore(r)?;
        let id = u32::restore(r)?;
        match tag {
            0 => Ok(Msg::Propose(id)),
            1 => Ok(Msg::WriteBack(id)),
            2 => Ok(Msg::Notify(id)),
            t => Err(CkptError::Decode(format!(
                "invalid matching message tag {t:#04x}"
            ))),
        }
    }
}

#[derive(Clone, Debug)]
struct V {
    is_boy: bool,
    matched: u32,
    suitor: u32,
}

impl Persist for V {
    fn persist(&self, out: &mut Vec<u8>) {
        self.is_boy.persist(out);
        self.matched.persist(out);
        self.suitor.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(V {
            is_boy: Persist::restore(r)?,
            matched: Persist::restore(r)?,
            suitor: Persist::restore(r)?,
        })
    }
}

struct Matching {
    count: i64,
}

fn propose(ctx: &mut VertexContext<'_, '_, Msg>, value: &mut V) {
    value.suitor = NIL;
    if value.is_boy && value.matched == NIL {
        let id = ctx.id().0;
        ctx.send_to_nbrs(Msg::Propose(id));
    }
}

impl VertexProgram for Matching {
    type VertexValue = V;
    type Message = Msg;

    fn message_bytes(&self, _m: &Msg) -> u64 {
        ENVELOPE + 4 + 1 // one vertex id + the type byte
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        self.count += ctx.agg_or("cnt", GlobalValue::Int(0)).as_int();
        // Phase C runs at supersteps 4, 7, 10, ...; its activity flag is
        // visible one superstep later.
        let t = ctx.superstep();
        if t >= 5 && (t - 5) % 3 == 0 {
            let any = ctx.agg_or("any", GlobalValue::Bool(false)).as_bool();
            if !any {
                return MasterDecision::Halt;
            }
        }
        MasterDecision::Continue
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut V,
        messages: Inbox<'_, Msg>,
    ) {
        let t = ctx.superstep();
        if t == 0 {
            value.matched = NIL;
            value.suitor = NIL;
            return;
        }
        if t == 1 {
            propose(ctx, value);
            return;
        }
        match (t - 2) % 3 {
            // Phase A: girls accept proposals, write back.
            0 => {
                if !value.is_boy && value.matched == NIL {
                    for m in messages {
                        if let Msg::Propose(b) = m {
                            value.suitor = *b;
                        }
                    }
                }
                if !value.is_boy && value.suitor != NIL {
                    let id = ctx.id().0;
                    ctx.send(NodeId(value.suitor), Msg::WriteBack(id));
                }
            }
            // Phase B: boys accept write-backs, finalize, notify, count.
            1 => {
                if value.is_boy {
                    for m in messages {
                        if let Msg::WriteBack(g) = m {
                            value.suitor = *g;
                        }
                    }
                    if value.matched == NIL && value.suitor != NIL {
                        value.matched = value.suitor;
                        let id = ctx.id().0;
                        ctx.send(NodeId(value.suitor), Msg::Notify(id));
                        ctx.reduce_global("cnt", ReduceOp::Sum, GlobalValue::Int(1));
                    }
                }
            }
            // Phase C: girls record; activity check; speculative proposals.
            _ => {
                if !value.is_boy {
                    for m in messages {
                        if let Msg::Notify(b) = m {
                            value.matched = *b;
                        }
                    }
                    if value.suitor != NIL {
                        ctx.reduce_global("any", ReduceOp::Or, GlobalValue::Bool(true));
                    }
                }
                propose(ctx, value);
            }
        }
    }

    fn save_master_state(&self, out: &mut Vec<u8>) {
        self.count.persist(out);
    }

    fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
        self.count = Persist::restore(r)?;
        Ok(())
    }
}

/// Result of [`run_bipartite_matching`].
#[derive(Clone, Debug)]
pub struct MatchingOutcome {
    /// Partner per vertex (`u32::MAX` = unmatched).
    pub matching: Vec<u32>,
    /// Matched pairs.
    pub pairs: i64,
    /// Runtime counters.
    pub metrics: Metrics,
}

/// Runs the manual bipartite-matching baseline.
///
/// # Errors
///
/// Propagates runtime errors from the BSP engine.
///
/// # Panics
///
/// Panics if `is_boy.len()` does not match the vertex count.
pub fn run_bipartite_matching(
    graph: &Graph,
    is_boy: &[bool],
    config: &PregelConfig,
) -> Result<MatchingOutcome, PregelError> {
    assert_eq!(
        is_boy.len(),
        graph.num_nodes() as usize,
        "side marks must be per-vertex"
    );
    let mut program = Matching { count: 0 };
    let result = run(
        graph,
        &mut program,
        |n| V {
            is_boy: is_boy[n.index()],
            matched: NIL,
            suitor: NIL,
        },
        config,
    )?;
    Ok(MatchingOutcome {
        matching: result.values.iter().map(|v| v.matched).collect(),
        pairs: program.count,
        metrics: result.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gm_graph::gen;

    #[test]
    fn produces_valid_maximal_matching() {
        let g = gen::bipartite(40, 50, 220, 3);
        let is_boy: Vec<bool> = (0..90).map(|i| i < 40).collect();
        let out = run_bipartite_matching(&g, &is_boy, &PregelConfig::sequential()).unwrap();
        let stats = reference::check_matching(&g, &is_boy, &out.matching);
        assert!(stats.valid);
        assert!(stats.maximal);
        assert_eq!(out.pairs, stats.pairs as i64);
    }

    #[test]
    fn perfect_matching_on_disjoint_pairs() {
        // Boys 0..3 each know exactly one girl 3..6.
        let mut b = gm_graph::GraphBuilder::new(6);
        b.extend([(0, 3), (1, 4), (2, 5)]);
        let g = b.build();
        let is_boy = vec![true, true, true, false, false, false];
        let out = run_bipartite_matching(&g, &is_boy, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.pairs, 3);
        assert_eq!(out.matching, vec![3, 4, 5, 0, 1, 2]);
        // init, propose, A, B, C (activity still observed), one quiet
        // A/B/C round, halt check — matching the generated machine.
        assert_eq!(out.metrics.supersteps, 9);
    }

    #[test]
    fn contended_girl_matches_last_proposer() {
        // Both boys know only girl 2: ascending-sender order makes boy 1 win.
        let mut b = gm_graph::GraphBuilder::new(3);
        b.extend([(0, 2), (1, 2)]);
        let g = b.build();
        let is_boy = vec![true, true, false];
        let out = run_bipartite_matching(&g, &is_boy, &PregelConfig::sequential()).unwrap();
        assert_eq!(out.pairs, 1);
        assert_eq!(out.matching[2], 1);
        assert_eq!(out.matching[1], 2);
        assert_eq!(out.matching[0], NIL);
    }
}
