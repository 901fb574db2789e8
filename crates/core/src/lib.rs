//! The Green-Marl → Pregel compiler: the primary contribution of
//! *"Simplifying Scalable Graph Processing with a Domain-Specific Language"*
//! (CGO 2014).
//!
//! The pipeline mirrors Fig. 1 of the paper:
//!
//! 1. **Frontend** — [`parser`] and [`sema`] turn Green-Marl source into a
//!    typed AST ([`ast`]).
//! 2. **Canonicalizing transformations** (§4.1) — [`transform`] rewrites
//!    non-Pregel-canonical programs (message pulling, nested-loop scalars,
//!    sequential random access, BFS traversals) into Pregel-canonical
//!    Green-Marl.
//! 3. **Canonical-form check** (§3.2) — [`canonical`].
//! 4. **Translation** (§3.1) — [`translate`] builds a [`pir::PregelProgram`]
//!    state machine: master/vertex states, inferred message payloads and
//!    tags, global broadcasts/reductions.
//! 5. **Optimization** (§4.2) — [`optimize`] merges consecutive states and
//!    applies intra-loop state merging. In debug/test builds, [`verify`]
//!    re-checks PIR well-formedness after translation and after every
//!    optimization pass (see [`CompileOptions::verify`]).
//! 6. **Backends** — [`javagen`] emits GPS-style Java source. Vertex
//!    kernels are lowered once into slot-resolved form ([`kernel`]); the
//!    `gm-interp` crate executes that form directly and [`rustgen`] prints
//!    it as native Rust.
//!
//! A shared-memory [`seqinterp`] gives Green-Marl its reference semantics
//! and serves as the differential-testing oracle.

pub mod ast;
pub mod astutil;
pub mod canonical;
pub mod compiler;
pub mod diag;
pub mod javagen;
pub mod kernel;
pub mod lexer;
pub mod normalize;
pub mod optimize;
pub mod parser;
pub mod pir;
pub mod pretty;
pub mod pullability;
pub mod report;
pub mod rustgen;
pub mod sema;
pub mod seqinterp;
pub mod transform;
pub mod translate;
pub mod types;
pub mod value;
pub mod verify;

pub use compiler::{compile, compile_with, CompileOptions, Compiled};
pub use diag::{Diag, Diagnostics, Span};
pub use pullability::Pullability;
pub use report::{PassTiming, TransformReport};
pub use types::Ty;
pub use value::Value;
