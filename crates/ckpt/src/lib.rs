//! gm-ckpt: superstep-granular checkpointing primitives for the Pregel
//! runtime.
//!
//! The BSP model makes fault tolerance cheap: at every superstep barrier
//! the entire job state is a well-defined frontier (vertex values, halted
//! flags, undelivered inboxes, aggregator state, and the superstep
//! counter). This crate provides the pieces the runtime composes into
//! checkpoint/restore:
//!
//! - [`Persist`]/[`ByteReader`] — a deterministic, zero-dependency binary
//!   codec (little-endian, length-prefixed, `f64` via `to_bits`).
//! - [`SnapshotBuilder`]/[`Snapshot`] — a versioned container of named
//!   sections with a trailing CRC-32 over the whole file, written with
//!   an atomic temp-file-then-rename protocol.
//! - [`CheckpointStore`] — a directory of snapshots, one per superstep,
//!   with newest-valid recovery that discards corrupt files by checksum
//!   and removes the valid ones its caller refuses.
//! - [`FaultPlan`] — deterministic fault injection (panic at superstep k
//!   on worker w, failed or corrupted checkpoint writes) used by the
//!   recovery test matrix.
//!
//! The crate is intentionally independent of the runtime: it knows about
//! bytes, files, and checksums, not about graphs or vertex programs.

mod codec;
mod crc;
mod error;
mod fault;
mod snapshot;
mod store;

pub use codec::{ByteReader, Persist};
pub use crc::{crc32, Crc32};
pub use error::CkptError;
pub use fault::{FaultKind, FaultPlan, FaultPlanBuilder};
pub use snapshot::{Snapshot, SnapshotBuilder, FORMAT_VERSION, MAGIC};
pub use store::{CheckpointStore, Scan};
