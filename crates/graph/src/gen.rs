//! Deterministic, seeded graph generators.
//!
//! These stand in for the paper's input data sets (Table 1):
//!
//! | Paper graph | Shape | Substitute |
//! |---|---|---|
//! | Twitter (42M nodes / 1.5B edges) | heavy-tailed follower network | [`rmat`] |
//! | Bipartite (75M / 1.5B, synthetic uniform random) | uniform random bipartite | [`bipartite`] |
//! | sk-2005 (51M / 1.9B web graph) | web graph with copying structure | [`web_copying`] |
//!
//! All generators take an explicit seed and are deterministic across runs,
//! platforms and builds: they draw from the in-tree [`SplitMix64`], whose
//! stream is fixed by its definition and pinned by tests.

use crate::rng::SplitMix64;
use crate::{Graph, GraphBuilder};

/// Uniform random directed multigraph with exactly `num_edges` edges
/// (Erdős–Rényi G(n, m) style, endpoints drawn uniformly).
///
/// # Panics
///
/// Panics if `num_nodes == 0` and `num_edges > 0`.
pub fn uniform_random(num_nodes: u32, num_edges: usize, seed: u64) -> Graph {
    assert!(
        num_nodes > 0 || num_edges == 0,
        "cannot place edges in an empty graph"
    );
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::with_capacity(num_nodes, num_edges);
    for _ in 0..num_edges {
        let s = rng.below(num_nodes.into()) as u32;
        let d = rng.below(num_nodes.into()) as u32;
        b.add_edge(s, d);
    }
    b.build()
}

/// Recursive-matrix (R-MAT) power-law generator, the standard stand-in for
/// social-network-shaped graphs such as the Twitter follower network.
///
/// `num_nodes` is rounded *up* to the next power of two internally for the
/// recursive split, but emitted endpoints are folded back into range with a
/// rejection loop, so the returned graph has exactly `num_nodes` vertices and
/// `num_edges` edges.
///
/// The default parameters `(a, b, c) = (0.57, 0.19, 0.19)` follow the
/// Graph500 convention.
pub fn rmat(num_nodes: u32, num_edges: usize, seed: u64) -> Graph {
    rmat_with_params(num_nodes, num_edges, 0.57, 0.19, 0.19, seed)
}

/// R-MAT with explicit quadrant probabilities (`d = 1 - a - b - c`).
///
/// # Panics
///
/// Panics if the probabilities are not a sub-distribution
/// (`a + b + c > 1` or any negative) or if `num_nodes == 0` with edges
/// requested.
pub fn rmat_with_params(
    num_nodes: u32,
    num_edges: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
) -> Graph {
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
        "invalid R-MAT parameters"
    );
    assert!(
        num_nodes > 0 || num_edges == 0,
        "cannot place edges in an empty graph"
    );
    let scale = 32 - (num_nodes.max(1) - 1).leading_zeros(); // ceil(log2 n)
    let side = 1u64 << scale;
    let mut rng = SplitMix64::new(seed);
    let mut builder = GraphBuilder::with_capacity(num_nodes, num_edges);
    for _ in 0..num_edges {
        // Rejection-sample until both endpoints land inside 0..num_nodes.
        loop {
            let (mut lo_s, mut lo_d) = (0u64, 0u64);
            let mut span = side;
            while span > 1 {
                span /= 2;
                let r = rng.next_f64();
                if r < a {
                    // top-left: nothing to add
                } else if r < a + b {
                    lo_d += span;
                } else if r < a + b + c {
                    lo_s += span;
                } else {
                    lo_s += span;
                    lo_d += span;
                }
            }
            if lo_s < num_nodes as u64 && lo_d < num_nodes as u64 {
                builder.add_edge(lo_s as u32, lo_d as u32);
                break;
            }
        }
    }
    builder.build()
}

/// Uniform random bipartite digraph: vertices `0..num_left` are the "boys"
/// side, `num_left..num_left + num_right` the "girls" side, and every edge
/// goes left → right — exactly the input contract of the paper's Random
/// Bipartite Matching benchmark.
pub fn bipartite(num_left: u32, num_right: u32, num_edges: usize, seed: u64) -> Graph {
    assert!(
        (num_left > 0 && num_right > 0) || num_edges == 0,
        "cannot place edges in an empty side"
    );
    let mut rng = SplitMix64::new(seed);
    let n = num_left + num_right;
    let mut b = GraphBuilder::with_capacity(n, num_edges);
    for _ in 0..num_edges {
        let s = rng.below(num_left.into()) as u32;
        let d = num_left + rng.below(num_right.into()) as u32;
        b.add_edge(s, d);
    }
    b.build()
}

/// Copying-model web-graph generator (Kumar et al.): each new page links to
/// `out_deg` targets; with probability `alpha` a target is copied from a
/// random earlier page's links, otherwise it is a uniform random earlier
/// page. Produces the locally-dense, hub-heavy structure characteristic of
/// web crawls like sk-2005.
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]` or `num_nodes < 2`.
pub fn web_copying(num_nodes: u32, out_deg: u32, alpha: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be within [0, 1]");
    assert!(num_nodes >= 2, "copying model needs at least two pages");
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::with_capacity(num_nodes, num_nodes as usize * out_deg as usize);
    // Flat copy of all edges added so far, for O(1) "copy a random link".
    let mut all_targets: Vec<u32> = Vec::new();
    // Seed pages 0 and 1 with a 2-cycle so copying has something to copy.
    b.add_edge(0, 1);
    b.add_edge(1, 0);
    all_targets.push(1);
    all_targets.push(0);
    for v in 2..num_nodes {
        for _ in 0..out_deg {
            let target = if rng.chance(alpha) && !all_targets.is_empty() {
                all_targets[rng.below(all_targets.len() as u64) as usize]
            } else {
                rng.below(v.into()) as u32
            };
            b.add_edge(v, target);
            all_targets.push(target);
        }
    }
    b.build()
}

/// Directed path `0 → 1 → ... → n-1`.
pub fn path(num_nodes: u32) -> Graph {
    let mut b = GraphBuilder::new(num_nodes);
    for i in 1..num_nodes {
        b.add_edge(i - 1, i);
    }
    b.build()
}

/// Directed cycle `0 → 1 → ... → n-1 → 0`.
pub fn cycle(num_nodes: u32) -> Graph {
    let mut b = GraphBuilder::new(num_nodes);
    if num_nodes > 0 {
        for i in 0..num_nodes {
            b.add_edge(i, (i + 1) % num_nodes);
        }
    }
    b.build()
}

/// Star with edges from the hub (vertex 0) to every spoke.
pub fn star(num_spokes: u32) -> Graph {
    let mut b = GraphBuilder::new(num_spokes + 1);
    for i in 1..=num_spokes {
        b.add_edge(0, i);
    }
    b.build()
}

/// Complete directed graph (no self-loops).
pub fn complete(num_nodes: u32) -> Graph {
    let mut b = GraphBuilder::new(num_nodes);
    for i in 0..num_nodes {
        for j in 0..num_nodes {
            if i != j {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

/// `rows × cols` grid with bidirectional edges between 4-neighbors — a
/// road-network-like topology used by the SSSP example.
pub fn grid(rows: u32, cols: u32) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    let id = |r: u32, c: u32| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
                b.add_edge(id(r, c + 1), id(r, c));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
                b.add_edge(id(r + 1, c), id(r, c));
            }
        }
    }
    b.build()
}

/// Random directed graph where each possible edge exists with probability
/// `p` — the classic G(n, p) model, handy for property tests on small n.
pub fn gnp(num_nodes: u32, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be within [0, 1]");
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new(num_nodes);
    for s in 0..num_nodes {
        for d in 0..num_nodes {
            if s != d && rng.chance(p) {
                b.add_edge(s, d);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn uniform_random_is_deterministic() {
        let g1 = uniform_random(100, 500, 42);
        let g2 = uniform_random(100, 500, 42);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
        assert_eq!(g1.num_edges(), 500);
        assert!(g1.validate());
    }

    #[test]
    fn uniform_random_seed_changes_output() {
        let g1 = uniform_random(100, 500, 1);
        let g2 = uniform_random(100, 500, 2);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn rmat_counts_and_skew() {
        let g = rmat(1 << 10, 8 * (1 << 10), 7);
        assert_eq!(g.num_nodes(), 1 << 10);
        assert_eq!(g.num_edges(), 8 * (1 << 10));
        assert!(g.validate());
        // Power-law-ish: the max out-degree should be far above the mean (8).
        let max_deg = g.nodes().map(|n| g.out_degree(n)).max().unwrap();
        assert!(max_deg > 40, "R-MAT should be skewed, max degree {max_deg}");
    }

    #[test]
    fn rmat_non_power_of_two_nodes() {
        let g = rmat(1000, 5000, 3);
        assert_eq!(g.num_nodes(), 1000);
        assert_eq!(g.num_edges(), 5000);
        assert!(g.validate());
        // FNV-1a over the edges' little-endian (src, dst) bytes. Every
        // benchmark input is an R-MAT graph; this value pins the stream the
        // benchmark has always measured, so a generator change shows here.
        let mut h = crate::hash::Fnv1a::default();
        for (s, d) in g.edges() {
            h.update(&s.0.to_le_bytes());
            h.update(&d.0.to_le_bytes());
        }
        assert_eq!(h.finish(), 0xf7d6_e3ff_e7f2_392f);
    }

    #[test]
    #[should_panic(expected = "invalid R-MAT parameters")]
    fn rmat_rejects_bad_params() {
        rmat_with_params(8, 8, 0.9, 0.9, 0.9, 0);
    }

    #[test]
    fn bipartite_edges_go_left_to_right() {
        let g = bipartite(50, 70, 400, 9);
        assert_eq!(g.num_nodes(), 120);
        assert_eq!(g.num_edges(), 400);
        for (s, d) in g.edges() {
            assert!(s.0 < 50);
            assert!(d.0 >= 50 && d.0 < 120);
        }
    }

    #[test]
    fn web_copying_shape() {
        let g = web_copying(500, 8, 0.5, 11);
        assert_eq!(g.num_nodes(), 500);
        assert_eq!(g.num_edges(), 2 + 498 * 8);
        assert!(g.validate());
        // Copying concentrates in-links: some page should be far above mean.
        let max_in = g.nodes().map(|n| g.in_degree(n)).max().unwrap();
        assert!(
            max_in > 30,
            "copying model should produce hubs, max in-degree {max_in}"
        );
    }

    #[test]
    fn path_cycle_star_complete_grid() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.out_degree(NodeId(4)), 0);

        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        assert!(c
            .nodes()
            .all(|n| c.out_degree(n) == 1 && c.in_degree(n) == 1));

        let s = star(4);
        assert_eq!(s.out_degree(NodeId(0)), 4);
        assert_eq!(s.in_degree(NodeId(0)), 0);

        let k = complete(4);
        assert_eq!(k.num_edges(), 12);

        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        // 2 * (#horizontal + #vertical) = 2 * (3*3 + 2*4) = 34
        assert_eq!(g.num_edges(), 34);
        assert!(g.validate());
    }

    #[test]
    fn cycle_of_zero_and_one() {
        assert_eq!(cycle(0).num_edges(), 0);
        let c1 = cycle(1);
        assert_eq!(c1.num_edges(), 1); // self-loop
        assert!(c1.validate());
    }

    #[test]
    fn gnp_extremes() {
        let empty = gnp(10, 0.0, 5);
        assert_eq!(empty.num_edges(), 0);
        let full = gnp(10, 1.0, 5);
        assert_eq!(full.num_edges(), 90);
    }
}
