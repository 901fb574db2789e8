//! Executes compiled [`gm_core::pir::PregelProgram`] state machines on the
//! [`gm_pregel`] BSP runtime.
//!
//! This crate is the "deployment" half of the paper's pipeline: the
//! compiler (gm-core) produces the same state machine it would print as GPS
//! Java, and this interpreter runs it with real supersteps, real messages,
//! and real global-object traffic, so the measured timesteps and network
//! I/O are those of the generated program.
//!
//! Both execution legs run inside one [`shell`]: the master driver,
//! argument binding, the snapshot's master section and the outcome are
//! written once there. The interpreter leg ([`run_compiled`]) evaluates
//! the slot-resolved code of [`gm_core::kernel::lower`]; every
//! `gm_core::rustgen` module is the other leg, printing the same lowering
//! as native Rust.
//!
//! # Example
//!
//! ```
//! use gm_core::{compile, CompileOptions};
//! use gm_interp::run_compiled;
//! use gm_pregel::PregelConfig;
//! use std::collections::HashMap;
//!
//! let src = "Procedure count_in(G: Graph, cnt: N_P<Int>) {
//!     Foreach (n: G.Nodes) {
//!         Foreach (t: n.Nbrs) {
//!             t.cnt += 1;
//!         }
//!     }
//! }";
//! let compiled = compile(src, &CompileOptions::default()).unwrap();
//! let g = gm_graph::gen::star(3);
//! let out = run_compiled(&g, &compiled, &HashMap::new(), 0, &PregelConfig::sequential()).unwrap();
//! assert_eq!(out.node_props["cnt"][1], gm_core::Value::Int(1));
//! ```

mod eval;
mod exec;
mod run;
pub mod shell;

pub use eval::PickRng;
pub use run::run_compiled;
pub use shell::{run_leg, CompiledOutcome, RunError};
