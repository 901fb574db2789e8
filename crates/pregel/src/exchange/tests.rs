//! The captured-payload walker against push delivery order: an [`Inbox`]
//! view, read every way a kernel can read it, and [`Fill::fill`] must both
//! yield exactly the messages a push superstep would deliver, in the same
//! order, on random graphs, worker counts and presence patterns.

use super::{Fill, Senders};
use crate::inbox::{Captured, Inbox};
use crate::program::{MasterContext, MasterDecision, VertexContext, VertexProgram};
use crate::worker::{partition, read_lock};
use gm_graph::rng::{check, SplitMix64};
use gm_graph::{gen, Graph, NodeId};
use std::sync::RwLock;

/// Only the message type and the combiner matter to the walker.
struct Payloads {
    combining: bool,
}

impl VertexProgram for Payloads {
    type VertexValue = ();
    type Message = u64;

    fn message_bytes(&self, _m: &u64) -> u64 {
        8
    }

    fn has_combiner(&self) -> bool {
        self.combining
    }

    fn combine(&self, a: &u64, b: &u64) -> Option<u64> {
        Some(a.wrapping_add(*b))
    }

    fn master_compute(&mut self, _ctx: &mut MasterContext<'_>) -> MasterDecision {
        MasterDecision::Halt
    }

    fn vertex_compute(&self, _: &mut VertexContext<'_, '_, u64>, _: &mut (), _: Inbox<'_, u64>) {}
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

    /// What push delivers to `r`: senders in ascending id order, each once
    /// per out-edge into `r`, cut into sender-worker segments.
    fn pushed(&self, starts: &[u32], r: u32) -> Vec<(usize, Vec<u64>)> {
        let mut segments: Vec<(usize, Vec<u64>)> = Vec::new();
        for src in 0..self.graph.num_nodes() {
            let Some(m) = self.sent[src as usize] else {
                continue;
            };
            let w = starts.partition_point(|&s| s <= src) - 1;
            for (t, _) in self.graph.out_neighbors(NodeId(src)) {
                if t.0 != r {
                    continue;
                }
                match segments.last_mut() {
                    Some((at, segment)) if *at == w => segment.push(m),
                    _ => segments.push((w, vec![m])),
                }
            }
        }
        segments
    }

    /// Runs `check` on every receiver and what push delivers to it, with the captured columns read
    /// through a [`Fill`] for `program`, at 1, 2 and 4 workers.
    fn each_receiver(
        &self,
        program: &Payloads,
        mut check: impl FnMut(&Fill<'_, Payloads>, u32, Vec<(usize, Vec<u64>)>, String),
    ) {
        for workers in [1, 2, 4] {
            let starts = partition(&self.graph, workers);
            let columns = self.columns(&starts);
            let guards = columns.iter().map(read_lock).collect();
            let fill = Fill::new(&self.graph, &starts, program, Senders::Captured(guards));
            for r in 0..self.graph.num_nodes() {
                let tag = format!("receiver {r}, {workers} workers");
                check(&fill, r, self.pushed(&starts, r), tag);
            }
        }
    }
}

#[test]
fn inbox_views_yield_push_delivery_order() {
    check("inbox_views_yield_push_delivery_order", 64, |rng| {
        let program = Payloads { combining: false };
        Case::draw(rng).each_receiver(&program, |fill, r, pushed, tag| {
            let want: Vec<u64> = pushed.into_iter().flat_map(|(_, s)| s).collect();
            let view = fill.inbox(r);
            let iterated: Vec<u64> = view.iter().copied().collect();
            assert_eq!(iterated, want, "{tag}: iter");
            let mut folded = Vec::new();
            view.for_each(|&m| folded.push(m));
            assert_eq!(folded, want, "{tag}: for_each");
            assert_eq!(view.len(), want.len(), "{tag}: len");
            assert_eq!(view.is_empty(), want.is_empty(), "{tag}: is_empty");
            let mut filled = Vec::new();
            fill.fill(r, &mut filled, |_, _| {});
            assert_eq!(filled, want, "{tag}: fill");
        });
    });
}

#[test]
fn inbox_fill_folds_and_meters_each_sender_worker_apart() {
    check(
        "inbox_fill_folds_and_meters_each_sender_worker_apart",
        64,
        |rng| {
            let program = Payloads { combining: true };
            Case::draw(rng).each_receiver(&program, |fill, r, pushed, tag| {
                // Push combines within one sender worker's bucket: one sum per
                // segment.
                let want: Vec<(usize, Vec<u64>)> = (pushed.into_iter())
                    .map(|(w, s)| (w, vec![s.into_iter().fold(0, u64::wrapping_add)]))
                    .collect();
                let mut inbox = Vec::new();
                let mut segments = Vec::new();
                fill.fill(r, &mut inbox, |w, s| segments.push((w, s.to_vec())));
                assert_eq!(segments, want, "{tag}: segments");
                let sums: Vec<u64> = want.into_iter().flat_map(|(_, s)| s).collect();
                assert_eq!(inbox, sums, "{tag}: inbox");
            });
        },
    );
}
