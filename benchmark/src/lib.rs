//! `gm-perf`: the repository's benchmark, from compiler to daemon.
//!
//! Seven workloads, each run in a process of its own; five end-to-end
//! metrics measured with tracing off; per-layer metrics measured in a
//! separate traced run by timing calls into each layer's public functions
//! and reading what they return. Nothing outside this directory knows the
//! benchmark exists. See `README.md` for why each workload is there and
//! `catalog.rs` for every metric.

pub mod catalog;
pub mod compare;
pub mod env;
pub mod loadgen;
pub mod sizes;
pub mod spans;
pub mod stats;
pub mod workloads;
