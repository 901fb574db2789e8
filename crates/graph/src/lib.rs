//! Graph substrate for the Green-Marl → Pregel reproduction.
//!
//! This crate provides the directed-graph data structures the rest of the
//! workspace is built on:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) directed graph with
//!   both forward (out-edge) and reverse (in-edge) adjacency, built through
//!   [`GraphBuilder`].
//! * [`NodeId`] / [`EdgeId`] — index newtypes that keep vertex ids, edge ids
//!   and plain integers from being confused.
//! * [`gen`] — deterministic, seeded graph generators standing in for the
//!   paper's proprietary data sets (RMAT power-law for the Twitter follower
//!   network, uniform random bipartite, a copying model for the sk-2005 web
//!   graph) plus small structured graphs for tests.
//! * [`io`] — a plain-text edge-list reader/writer.
//! * [`hash`] — FNV-1a 64, the one stable hash of the workspace.
//! * [`props`] — dense property vectors aligned with node/edge ids, the
//!   shared-memory analogue of Green-Marl's `Node_Prop` / `Edge_Prop`.
//!
//! # Example
//!
//! ```
//! use gm_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.out_degree(NodeId(0)), 2);
//! assert_eq!(g.in_degree(NodeId(2)), 2);
//! ```

mod csr;
pub mod gen;
pub mod hash;
pub mod io;
pub mod props;
pub mod rng;

pub use csr::{Graph, GraphBuilder, InNeighbors, OutNeighbors};
pub use props::{EdgeProp, NodeProp};

use std::fmt;

/// Identifier of a vertex: a dense index in `0..graph.num_nodes()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

/// Identifier of a directed edge: a dense index in `0..graph.num_edges()`,
/// assigned in CSR order (edges of vertex 0 first, then vertex 1, ...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for property-vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index as a `usize`, for property-vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for EdgeId {
    fn from(v: u32) -> Self {
        EdgeId(v)
    }
}
