//! The paper's six benchmark algorithms, three ways:
//!
//! * [`sources`] — the Green-Marl programs (Fig. 2, Fig. 4, Appendix B),
//!   compiled by `gm-core` and executed by `gm-interp`;
//! * [`manual`] — hand-written Pregel implementations of the five
//!   algorithms the paper also coded natively for GPS (Betweenness
//!   Centrality deliberately has none: the paper's point is that a manual
//!   Pregel BC is prohibitively difficult);
//! * [`reference`](mod@reference) — sequential oracles used by the differential tests.
//! * [`native`] — `gm-core::rustgen` output compiled into the binary
//!   (the `--backend native` modules), bit-identical to the interpreter.

pub mod manual;
pub mod native;
pub mod reference;
pub mod sources;
