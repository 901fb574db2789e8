//! Compressed-sparse-row directed graph with forward and reverse adjacency.

use crate::{EdgeId, NodeId};

/// An immutable directed graph in CSR form.
///
/// Both out-edges and in-edges are materialized. Every directed edge has a
/// stable [`EdgeId`] assigned in forward-CSR order; the reverse adjacency
/// carries the same ids so edge properties (e.g. SSSP's `len`) can be read
/// from either endpoint.
///
/// Parallel edges and self-loops are preserved exactly as inserted — the
/// Pregel model happily sends one message per edge, so deduplicating here
/// would distort message counts.
#[derive(Clone, Debug)]
pub struct Graph {
    num_nodes: u32,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
    /// For each reverse-adjacency slot, the forward [`EdgeId`] it mirrors.
    in_edge_ids: Vec<u32>,
    /// For each forward [`EdgeId`], its source vertex. Trades one `u32` per
    /// edge for O(1) [`Graph::edge_source`] — the pull-mode gather loop
    /// resolves a source per in-edge, where a binary search per lookup
    /// would dominate the hot path.
    edge_src: Vec<u32>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u32 {
        self.out_targets.len() as u32
    }

    /// Iterator over all vertex ids, `0..num_nodes()`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    /// Out-degree of `n`.
    ///
    /// This is what Green-Marl's `n.Degree()` / `n.NumNbrs()` evaluate to.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> u32 {
        self.out_offsets[n.index() + 1] - self.out_offsets[n.index()]
    }

    /// In-degree of `n` (Green-Marl's `n.InDegree()`).
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> u32 {
        self.in_offsets[n.index() + 1] - self.in_offsets[n.index()]
    }

    /// Out-neighbors of `n` with the connecting edge ids, in CSR order.
    #[inline]
    pub fn out_neighbors(&self, n: NodeId) -> OutNeighbors<'_> {
        let lo = self.out_offsets[n.index()] as usize;
        let hi = self.out_offsets[n.index() + 1] as usize;
        OutNeighbors {
            targets: &self.out_targets[lo..hi],
            base: lo as u32,
            pos: 0,
        }
    }

    /// In-neighbors of `n` with the connecting (forward) edge ids.
    #[inline]
    pub fn in_neighbors(&self, n: NodeId) -> InNeighbors<'_> {
        let lo = self.in_offsets[n.index()] as usize;
        let hi = self.in_offsets[n.index() + 1] as usize;
        InNeighbors {
            sources: &self.in_sources[lo..hi],
            edge_ids: &self.in_edge_ids[lo..hi],
            pos: 0,
        }
    }

    /// In-neighbors of `n` as bare source ids, in the same order as
    /// [`Graph::in_neighbors`]: ascending by forward edge id, hence by
    /// source.
    #[inline]
    pub fn in_sources(&self, n: NodeId) -> &[u32] {
        let lo = self.in_offsets[n.index()] as usize;
        let hi = self.in_offsets[n.index() + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// The target vertex of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        NodeId(self.out_targets[e.index()])
    }

    /// The source vertex of edge `e`, looked up in the precomputed
    /// per-edge source array (`O(1)`).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn edge_source(&self, e: EdgeId) -> NodeId {
        assert!(e.0 < self.num_edges(), "edge id {e} out of bounds");
        NodeId(self.edge_src[e.index()])
    }

    /// All edges as `(source, target)` pairs in [`EdgeId`] order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |n| self.out_neighbors(n).map(move |(t, _)| (n, t)))
    }

    /// Checks internal CSR invariants; used by tests and debug assertions.
    ///
    /// Verifies offset monotonicity, reverse-adjacency consistency (every
    /// forward edge appears exactly once in the reverse structure with the
    /// same id) and degree sums.
    pub fn validate(&self) -> bool {
        let n = self.num_nodes as usize;
        let m = self.out_targets.len();
        if self.out_offsets.len() != n + 1 || self.in_offsets.len() != n + 1 {
            return false;
        }
        if self.out_offsets[0] != 0 || self.in_offsets[0] != 0 {
            return false;
        }
        if self.out_offsets[n] as usize != m || self.in_offsets[n] as usize != m {
            return false;
        }
        if !self.out_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return false;
        }
        if !self.in_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return false;
        }
        // The precomputed source array must agree with the CSR offsets
        // (the binary-search definition of an edge's owner).
        if self.edge_src.len() != m {
            return false;
        }
        for (e, &src) in self.edge_src.iter().enumerate() {
            let owner = self.out_offsets.partition_point(|&off| off as usize <= e) - 1;
            debug_assert_eq!(
                src as usize, owner,
                "edge_src[{e}] disagrees with CSR offsets"
            );
            if src as usize != owner {
                return false;
            }
        }
        let mut seen = vec![false; m];
        for v in self.nodes() {
            for (src, eid) in self.in_neighbors(v) {
                if eid.index() >= m || seen[eid.index()] {
                    return false;
                }
                seen[eid.index()] = true;
                if self.edge_target(eid) != v || self.edge_source(eid) != src {
                    return false;
                }
            }
        }
        seen.iter().all(|&s| s)
    }
}

/// Iterator over `(target, edge_id)` pairs of a vertex's out-edges.
#[derive(Clone, Debug)]
pub struct OutNeighbors<'a> {
    targets: &'a [u32],
    base: u32,
    pos: usize,
}

impl Iterator for OutNeighbors<'_> {
    type Item = (NodeId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let t = *self.targets.get(self.pos)?;
        let e = EdgeId(self.base + self.pos as u32);
        self.pos += 1;
        Some((NodeId(t), e))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.targets.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for OutNeighbors<'_> {}

/// Iterator over `(source, edge_id)` pairs of a vertex's in-edges.
#[derive(Clone, Debug)]
pub struct InNeighbors<'a> {
    sources: &'a [u32],
    edge_ids: &'a [u32],
    pos: usize,
}

impl Iterator for InNeighbors<'_> {
    type Item = (NodeId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let s = *self.sources.get(self.pos)?;
        let e = EdgeId(self.edge_ids[self.pos]);
        self.pos += 1;
        Some((NodeId(s), e))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.sources.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for InNeighbors<'_> {}

/// Incremental edge-list accumulator that produces a [`Graph`].
///
/// # Example
///
/// ```
/// use gm_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(0, 1);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` vertices.
    pub fn new(num_nodes: u32) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with capacity for `num_edges` edges.
    pub fn with_capacity(num_nodes: u32, num_edges: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Adds the directed edge `src → dst`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: u32, dst: u32) {
        assert!(
            src < self.num_nodes && dst < self.num_nodes,
            "edge ({src}, {dst}) out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push((src, dst));
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices this builder was created with.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Finalizes the CSR structures.
    ///
    /// Edge ids are assigned by `(src, insertion-order)`: all edges of vertex
    /// 0 (in insertion order) first, then vertex 1, and so on — a stable,
    /// deterministic numbering.
    pub fn build(self) -> Graph {
        let n = self.num_nodes as usize;
        let m = self.edges.len();

        // Forward CSR via counting sort on src (stable).
        let mut out_offsets = vec![0u32; n + 1];
        for &(src, _) in &self.edges {
            out_offsets[src as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut cursor = out_offsets.clone();
        let mut out_targets = vec![0u32; m];
        for &(src, dst) in &self.edges {
            let slot = cursor[src as usize];
            out_targets[slot as usize] = dst;
            cursor[src as usize] += 1;
        }

        // Reverse CSR via counting sort on dst, walking forward edge ids in
        // order so reverse lists are sorted by edge id (deterministic).
        let mut in_offsets = vec![0u32; n + 1];
        for &t in &out_targets {
            in_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0u32; m];
        let mut in_edge_ids = vec![0u32; m];
        let mut edge_src = vec![0u32; m];
        for src in 0..n {
            let lo = out_offsets[src] as usize;
            let hi = out_offsets[src + 1] as usize;
            for (off, &dst) in out_targets[lo..hi].iter().enumerate() {
                let dst = dst as usize;
                let slot = cursor[dst] as usize;
                in_sources[slot] = src as u32;
                in_edge_ids[slot] = (lo + off) as u32;
                edge_src[lo + off] = src as u32;
                cursor[dst] += 1;
            }
        }

        Graph {
            num_nodes: self.num_nodes,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
            edge_src,
        }
    }
}

impl Extend<(u32, u32)> for GraphBuilder {
    fn extend<T: IntoIterator<Item = (u32, u32)>>(&mut self, iter: T) {
        for (s, d) in iter {
            self.add_edge(s, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn out_neighbors_in_order() {
        let g = diamond();
        let nbrs: Vec<_> = g.out_neighbors(NodeId(0)).collect();
        assert_eq!(nbrs, vec![(NodeId(1), EdgeId(0)), (NodeId(2), EdgeId(1))]);
    }

    #[test]
    fn in_neighbors_carry_forward_edge_ids() {
        let g = diamond();
        let nbrs: Vec<_> = g.in_neighbors(NodeId(3)).collect();
        assert_eq!(nbrs, vec![(NodeId(1), EdgeId(2)), (NodeId(2), EdgeId(3))]);
    }

    #[test]
    fn edge_source_target_roundtrip() {
        let g = diamond();
        for n in g.nodes() {
            for (t, e) in g.out_neighbors(n) {
                assert_eq!(g.edge_source(e), n);
                assert_eq!(g.edge_target(e), t);
            }
        }
    }

    #[test]
    fn self_loops_and_parallel_edges_preserved() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 3);
        assert_eq!(g.in_degree(NodeId(1)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 1);
        assert!(g.validate());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate());
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        for n in g.nodes() {
            assert_eq!(g.out_degree(n), 0);
            assert_eq!(g.in_degree(n), 0);
        }
        assert!(g.validate());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 1);
    }

    #[test]
    fn validate_detects_consistency() {
        assert!(diamond().validate());
    }

    #[test]
    fn edge_source_array_matches_offset_search() {
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 0), (0, 3), (1, 3), (3, 2), (3, 2), (4, 0)]);
        let g = b.build();
        assert!(g.validate());
        for e in 0..g.num_edges() {
            let by_search = g.out_offsets.partition_point(|&off| off <= e) - 1;
            assert_eq!(g.edge_source(EdgeId(e)), NodeId(by_search as u32));
        }
    }

    #[test]
    fn edges_iterator_matches_adjacency() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(3)),
                (NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn extend_builder() {
        let mut b = GraphBuilder::new(3);
        b.extend([(0, 1), (1, 2)]);
        assert_eq!(b.num_edges(), 2);
        let g = b.build();
        assert!(g.validate());
    }
}
