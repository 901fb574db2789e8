//! Property-based tests over the CSR construction and generators.

use gm_graph::rng::{check, SplitMix64};
use gm_graph::{gen, io, Graph, GraphBuilder};

/// Cases per property: each builds one small graph.
const CASES: u32 = 256;

/// An arbitrary small edge list over `1..40` vertices, with at least
/// `min_edges` and fewer than 200 edges, and the graph built from it.
fn edge_list(rng: &mut SplitMix64, min_edges: u64) -> (Vec<(u32, u32)>, Graph) {
    let n = rng.range(1..40) as u32;
    let len = rng.range(min_edges..200);
    let edges: Vec<(u32, u32)> = (0..len)
        .map(|_| (rng.below(n.into()) as u32, rng.below(n.into()) as u32))
        .collect();
    let mut b = GraphBuilder::new(n);
    b.extend(edges.iter().copied());
    (edges, b.build())
}

#[test]
fn csr_invariants_hold() {
    check("csr_invariants_hold", CASES, |rng| {
        // Built again edge by edge: `add_edge` as well as `extend`.
        let (edges, extended) = edge_list(rng, 0);
        let mut b = GraphBuilder::new(extended.num_nodes());
        for (s, d) in &edges {
            b.add_edge(*s, *d);
        }
        let g = b.build();
        assert!(g.validate());
        assert_eq!(g.num_edges() as usize, edges.len());
    });
}

#[test]
fn degree_sums_equal_edge_count() {
    check("degree_sums_equal_edge_count", CASES, |rng| {
        let (_, g) = edge_list(rng, 0);
        let out_sum: u32 = g.nodes().map(|v| g.out_degree(v)).sum();
        let in_sum: u32 = g.nodes().map(|v| g.in_degree(v)).sum();
        assert_eq!(out_sum, g.num_edges());
        assert_eq!(in_sum, g.num_edges());
    });
}

#[test]
fn edge_multiset_is_preserved() {
    check("edge_multiset_is_preserved", CASES, |rng| {
        let (edges, g) = edge_list(rng, 0);
        let mut expected: Vec<(u32, u32)> = edges;
        expected.sort_unstable();
        let mut actual: Vec<(u32, u32)> = g.edges().map(|(s, d)| (s.0, d.0)).collect();
        actual.sort_unstable();
        assert_eq!(expected, actual);
    });
}

#[test]
fn in_neighbors_mirror_out_neighbors() {
    check("in_neighbors_mirror_out_neighbors", CASES, |rng| {
        let (_, g) = edge_list(rng, 0);
        let mut fwd: Vec<(u32, u32, u32)> = Vec::new();
        for v in g.nodes() {
            for (t, e) in g.out_neighbors(v) {
                fwd.push((v.0, t.0, e.0));
            }
        }
        let mut rev: Vec<(u32, u32, u32)> = Vec::new();
        for v in g.nodes() {
            for (s, e) in g.in_neighbors(v) {
                rev.push((s.0, v.0, e.0));
            }
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    });
}

#[test]
fn edge_list_roundtrip() {
    check("edge_list_roundtrip", CASES, |rng| {
        let (_, g) = edge_list(rng, 1);
        let mut buf = Vec::new();
        io::write_edge_list(&g, None, &mut buf).unwrap();
        let loaded = io::read_edge_list(&buf[..]).unwrap();
        let e1: Vec<_> = g.edges().map(|(s, d)| (s.0, d.0)).collect();
        let e2: Vec<_> = loaded.graph.edges().map(|(s, d)| (s.0, d.0)).collect();
        assert_eq!(e1, e2);
    });
}

#[test]
fn generators_validate() {
    check("generators_validate", CASES, |rng| {
        let seed = rng.below(1000);
        assert!(gen::uniform_random(64, 256, seed).validate());
        assert!(gen::rmat(64, 256, seed).validate());
        assert!(gen::bipartite(16, 16, 64, seed).validate());
        assert!(gen::gnp(16, 0.3, seed).validate());
    });
}
