//! An in-process BSP vertex-centric runtime in the style of Pregel/GPS.
//!
//! This crate is the execution substrate the paper runs on. It reproduces
//! the programming model of GPS (Salihoglu & Widom), the open-source Pregel
//! implementation used in the paper:
//!
//! * computation proceeds in synchronized **supersteps** (the paper calls
//!   them timesteps);
//! * each superstep first runs a sequential [`VertexProgram::master_compute`]
//!   (GPS's `master.compute()` extension), then the vertex-parallel
//!   [`VertexProgram::vertex_compute`] on every active vertex;
//! * vertices communicate only by **messages**, delivered at the *next*
//!   superstep;
//! * a **global objects map** carries master → vertex broadcasts and
//!   vertex → master reductions ([`Globals`], [`AggMap`]);
//! * vertices may [`vote to halt`](VertexContext::vote_to_halt) and are
//!   reactivated by incoming messages.
//!
//! The runtime is multi-threaded — vertices are partitioned into contiguous
//! ranges of equal cost (a fixed cost per vertex plus one unit per
//! in-edge), each owned by a worker on a **persistent thread
//! pool** (threads live for the whole run; one worker runs inline). Messages
//! cross workers through a **zero-copy exchange**: senders bucket messages
//! by destination worker, buckets are routed at the barrier as whole `Vec`s,
//! and each destination worker *moves* every message into one flat inbox
//! (a message column plus per-vertex offsets) by a counting sort.
//! Execution stays **deterministic**: each vertex receives its messages
//! ordered by sending vertex id regardless of the worker count, and
//! aggregator merges happen in ascending worker order (see
//! [`AggMap::merge`]).
//!
//! Because the paper's headline metrics are *structural* — number of
//! timesteps and network I/O — the runtime meters every superstep,
//! including per-phase wall-clock (master, compute, the metering pass
//! named `combine`, and exchange): see [`Metrics`].
//!
//! The runtime is **fault tolerant** at superstep granularity: with
//! [`CheckpointConfig`] attached, the coordinator snapshots the complete
//! BSP frontier (values, halted flags, pending inboxes, globals,
//! aggregates, master state, metrics) into checksummed files at a
//! configurable interval, [`run`] can resume a run exactly where the
//! newest valid snapshot left off, and under [`PregelConfig::recovery`] it
//! restarts after worker failures (injectable deterministically via
//! [`FaultPlan`]). Recovery activity is reported in [`RecoveryStats`].
//!
//! The runtime is **resource governed**: a [`ResourceBudget`] (set
//! programmatically or via the `GM_MAX_MSG_BYTES`, `GM_SUPERSTEP_DEADLINE_MS`,
//! `GM_MAX_RESIDENT_BYTES` and `GM_SPILL_DIR` environment variables) bounds
//! in-flight message bytes — sealed message buckets past the budget spill to
//! CRC-checked files and are replayed at delivery with bit-identical results
//! and structural metrics — plus superstep wall-clock (a cooperative deadline
//! watchdog) and resident value-store bytes. Worker failures of every kind
//! (kernel panics, spill I/O, deadline overruns) surface as typed
//! [`PregelError`] values with superstep/worker/vertex attribution instead of
//! aborting the process; a failure that survives the whole restart budget
//! is reported as the last attempt's own error. Spill activity is reported
//! in [`SpillStats`].
//!
//! The runtime is **direction aware**: [`PregelConfig::schedule`] (or the
//! `GM_SCHEDULE` environment variable) selects push (the classic Pregel
//! exchange), pull, or auto (the default). In a **gathered** (pull)
//! superstep the exchange is replaced by a gather phase — each vertex walks
//! its in-edges via the reverse CSR and folds the senders' messages in
//! place, with no per-message routing or allocation — producing
//! bit-identical values and structural metrics. A program opts in by
//! implementing [`VertexProgram::pull_mode`] (the Green-Marl compiler
//! decides it per state where it lowers kernels).
//! `auto` applies the Ligra/GraphIt density heuristic per superstep: gather
//! when the active frontier's expected out-edges exceed
//! [`PregelConfig::dense_threshold`] (env `GM_DENSE_THRESHOLD`) of |E|.
//! Direction activity is reported in [`Metrics::pull_supersteps`],
//! [`Metrics::direction_switches`], and per-superstep in
//! [`SuperstepMetrics::pulled`].
//!
//! # Example
//!
//! ```
//! use gm_graph::gen;
//! use gm_pregel::{
//!     run, Inbox, MasterContext, MasterDecision, PregelConfig, VertexContext, VertexProgram,
//! };
//!
//! /// Each vertex computes the number of in-neighbors (via messages).
//! struct CountIn;
//!
//! impl VertexProgram for CountIn {
//!     type VertexValue = u32;
//!     type Message = ();
//!
//!     fn message_bytes(&self, _m: &()) -> u64 {
//!         0
//!     }
//!
//!     fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
//!         if ctx.superstep() == 2 {
//!             MasterDecision::Halt
//!         } else {
//!             MasterDecision::Continue
//!         }
//!     }
//!
//!     fn vertex_compute(
//!         &self,
//!         ctx: &mut VertexContext<'_, '_, ()>,
//!         value: &mut u32,
//!         messages: Inbox<'_, ()>,
//!     ) {
//!         if ctx.superstep() == 0 {
//!             ctx.send_to_nbrs(());
//!         } else {
//!             *value = messages.len() as u32;
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), gm_pregel::PregelError> {
//! let g = gen::star(4); // hub 0 points at 1..=4
//! let result = run(&g, &mut CountIn, |_| 0u32, &PregelConfig::default())?;
//! assert_eq!(result.values[1], 1);
//! assert_eq!(result.metrics.total_messages, 4);
//! # Ok(())
//! # }
//! ```
//!
//! # Layers
//!
//! | module | what it owns |
//! |---|---|
//! | `config` | [`PregelConfig`], [`Schedule`] |
//! | `error` | [`PregelError`], worker failures, failure attribution |
//! | `supervise` | [`run`]: validation, resume, restart loop, post-mortems |
//! | `coordinator` | the superstep loop: checkpoint, master, direction, barrier merge, governance checks |
//! | `worker` | worker state, the compute and snapshot phases, the executor (inline or pool), partitioning |
//! | `exchange` | meter, spill, deliver, gather |
//! | `inbox` | the [`Inbox`] view a kernel reads, and the captured columns it walks |
//! | `checkpoint`, `govern`, `postmortem`, `metrics` | snapshot mapping, budgets and spill files, crash bundles, counters |

mod checkpoint;
mod config;
mod coordinator;
mod error;
mod exchange;
mod globals;
mod govern;
mod inbox;
mod metrics;
mod persist;
mod postmortem;
mod program;
mod supervise;
mod value;
mod worker;

pub use checkpoint::CheckpointConfig;
pub use config::{PregelConfig, Schedule, ENV_DENSE_THRESHOLD, ENV_SCHEDULE};
pub use error::PregelError;
pub use globals::{AggMap, Globals};
pub use govern::{
    ResourceBudget, ENV_MAX_MSG_BYTES, ENV_MAX_RESIDENT_BYTES, ENV_SPILL_DIR,
    ENV_SUPERSTEP_DEADLINE_MS,
};
pub use inbox::{Inbox, InboxIter};
pub use metrics::{Metrics, RecoveryStats, SpillStats, SuperstepMetrics};
pub use postmortem::{
    PostMortemConfig, ENV_FLIGHT_RECORDER_EVENTS, ENV_POST_MORTEM_DIR, ENV_POST_MORTEM_KEEP,
};
pub use program::{MasterContext, MasterDecision, PullMode, VertexContext, VertexProgram};
pub use supervise::{run, PregelResult, RecoveryPolicy};
pub use value::{GlobalValue, ReduceOp};

// Checkpointing building blocks, re-exported so programs implementing
// [`VertexProgram::save_master_state`] or custom [`Persist`] encodings
// don't need a direct `gm-ckpt` dependency.
pub use gm_ckpt::{
    ByteReader, CheckpointStore, CkptError, FaultKind, FaultPlan, FaultPlanBuilder, Persist,
    Snapshot,
};

/// Whole-run tests: each drives [`run`] through every layer at once, so
/// they sit beside the layers rather than inside one of them.
#[cfg(test)]
mod runtime {
    mod cuts;
    mod tests;
}
