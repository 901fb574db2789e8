//! The gather's two readers against push delivery order: an [`Inbox`]
//! view over captured payloads, read every way a kernel can read it, and
//! [`Fill::fill`] over recomputed ones must both yield exactly the
//! messages a push superstep would deliver, in the same order, on random
//! graphs, worker counts and presence patterns.

use super::{Fill, Senders};
use crate::inbox::{Captured, Inbox};
use crate::program::{MasterContext, MasterDecision, VertexContext, VertexProgram};
use crate::worker::{partition, read_lock, VertexStore};
use gm_graph::rng::{check, SplitMix64};
use gm_graph::{gen, EdgeId, Graph, NodeId};
use std::sync::RwLock;

/// Only the message type and the re-evaluated payload matter to the
/// walkers.
struct Payloads;

impl Payloads {
    /// What a recomputed send of `value` along `edge` carries: distinct per
    /// edge, so a payload re-evaluated against the wrong edge shows.
    fn along(value: u64, edge: EdgeId) -> u64 {
        (value << 32) | u64::from(edge.0)
    }
}

impl VertexProgram for Payloads {
    type VertexValue = u64;
    type Message = u64;

    fn message_bytes(&self, _m: &u64) -> u64 {
        8
    }

    fn master_compute(&mut self, _ctx: &mut MasterContext<'_>) -> MasterDecision {
        MasterDecision::Halt
    }

    fn vertex_compute(&self, _: &mut VertexContext<'_, '_, u64>, _: &mut u64, _: Inbox<'_, u64>) {}

    fn pull_message(&self, _: &Graph, _: NodeId, edge: EdgeId, value: &u64) -> u64 {
        Self::along(*value, edge)
    }
}

/// A random graph and which vertices sent what: every vertex, or a random
/// subset.
struct Case {
    graph: Graph,
    sent: Vec<Option<u64>>,
}

impl Case {
    fn draw(rng: &mut SplitMix64) -> Case {
        let n = 1 + rng.below(80) as u32;
        let full = rng.chance(0.3);
        let graph = gen::uniform_random(n, rng.below(6 * u64::from(n)) as usize, rng.next_u64());
        let p = rng.next_f64();
        // Distinct per sender, so a payload read from the wrong slot shows.
        let sent = (0..u64::from(n))
            .map(|v| (full || rng.chance(p)).then_some(1000 + v))
            .collect();
        Case { graph, sent }
    }

    /// One column per worker range, as the senders' compute phase leaves
    /// them.
    fn columns(&self, starts: &[u32]) -> Vec<RwLock<Captured<u64>>> {
        (starts.windows(2))
            .map(|range| {
                let mut column = Captured::default();
                column.reset((range[1] - range[0]) as usize);
                for v in range[0]..range[1] {
                    if let Some(m) = self.sent[v as usize] {
                        column.set((v - range[0]) as usize, m);
                    }
                }
                column.settle();
                RwLock::new(column)
            })
            .collect()
    }

    /// One store per worker range: every vertex's value, and whether its
    /// send site fired.
    fn stores(&self, starts: &[u32]) -> Vec<RwLock<VertexStore<Payloads>>> {
        (starts.windows(2))
            .map(|range| {
                let (lo, hi) = (range[0] as usize, range[1] as usize);
                let values = (lo..hi).map(|v| 1000 + v as u64).collect();
                let mut store = VertexStore::from_values(values);
                store.sent = self.sent[lo..hi].iter().map(Option::is_some).collect();
                RwLock::new(store)
            })
            .collect()
    }

    /// What push delivers to `r`: senders in ascending id order, each once
    /// per out-edge into `r`, cut into sender-worker segments. Recomputed
    /// sends carry [`Payloads::along`] their edge.
    fn pushed(&self, starts: &[u32], r: u32, recomputed: bool) -> Vec<(usize, Vec<u64>)> {
        let mut segments: Vec<(usize, Vec<u64>)> = Vec::new();
        for src in 0..self.graph.num_nodes() {
            let Some(m) = self.sent[src as usize] else {
                continue;
            };
            let w = starts.partition_point(|&s| s <= src) - 1;
            for (t, edge) in self.graph.out_neighbors(NodeId(src)) {
                if t.0 != r {
                    continue;
                }
                let m = if recomputed {
                    Payloads::along(m, edge)
                } else {
                    m
                };
                match segments.last_mut() {
                    Some((at, segment)) if *at == w => segment.push(m),
                    _ => segments.push((w, vec![m])),
                }
            }
        }
        segments
    }

    /// Runs `check` on every receiver and what push delivers to it, with
    /// the senders' side — captured columns, or stores to recompute from —
    /// read through a [`Fill`], at 1, 2 and 4 workers.
    fn each_receiver(
        &self,
        recomputed: bool,
        mut check: impl FnMut(&Fill<'_, Payloads>, u32, Vec<(usize, Vec<u64>)>, String),
    ) {
        for workers in [1, 2, 4] {
            let starts = partition(&self.graph, workers);
            let columns = self.columns(&starts);
            let stores = self.stores(&starts);
            let senders = if recomputed {
                Senders::Recomputed(stores.iter().map(read_lock).collect())
            } else {
                Senders::Captured(columns.iter().map(read_lock).collect())
            };
            let fill = Fill::new(&self.graph, &starts, &Payloads, senders);
            for r in 0..self.graph.num_nodes() {
                let tag = format!("receiver {r}, {workers} workers");
                check(&fill, r, self.pushed(&starts, r, recomputed), tag);
            }
        }
    }
}

#[test]
fn inbox_views_yield_push_delivery_order() {
    check("inbox_views_yield_push_delivery_order", 64, |rng| {
        Case::draw(rng).each_receiver(false, |fill, r, pushed, tag| {
            let want: Vec<u64> = pushed.into_iter().flat_map(|(_, s)| s).collect();
            let view = fill.inbox(r);
            let iterated: Vec<u64> = view.iter().copied().collect();
            assert_eq!(iterated, want, "{tag}: iter");
            let mut folded = Vec::new();
            view.for_each(|&m| folded.push(m));
            assert_eq!(folded, want, "{tag}: for_each");
            assert_eq!(view.len(), want.len(), "{tag}: len");
            assert_eq!(view.is_empty(), want.is_empty(), "{tag}: is_empty");
        });
    });
}

#[test]
fn inbox_fill_recomputes_and_meters_each_sender_worker_apart() {
    check(
        "inbox_fill_recomputes_and_meters_each_sender_worker_apart",
        64,
        |rng| {
            Case::draw(rng).each_receiver(true, |fill, r, pushed, tag| {
                let mut inbox = Vec::new();
                let mut segments = Vec::new();
                fill.fill(r, &mut inbox, |w, s| segments.push((w, s.to_vec())));
                let want: Vec<u64> = pushed.iter().flat_map(|(_, s)| s.clone()).collect();
                assert_eq!(inbox, want, "{tag}: inbox");
                // A sender worker none of whose senders fired meters nothing.
                segments.retain(|(_, s)| !s.is_empty());
                assert_eq!(segments, pushed, "{tag}: segments");
            });
        },
    );
}
