//! `gmd` — a long-lived multi-tenant graph-analytics daemon.
//!
//! Everything else in this workspace is batch CLI: load a graph, run one
//! program, exit. `gmd` is the serving shape the ROADMAP's north star
//! asks for: it loads one or more immutable graph snapshots **once** at
//! startup (named, shared via `Arc` across jobs), accepts jobs over a
//! line-delimited-JSON HTTP API, and executes them concurrently on a
//! bounded runner pool — with the governance layer from the batch world
//! applied *per job*:
//!
//! * **Admission control** — each job reserves message-byte and
//!   resident-byte budgets carved from a server-level total; a job whose
//!   request can never fit is rejected up front with a structured error,
//!   and the scheduler only starts jobs whose reservations fit alongside
//!   the currently running set, so accepted work degrades into queueing,
//!   never into oversubscription.
//! * **Fairness** — queued jobs are FIFO within a tenant and round-robin
//!   across tenants, so one chatty tenant cannot starve the rest.
//! * **Deadlines** — a per-job deadline arms the superstep watchdog; an
//!   overrunning job dies with a structured `deadline_exceeded` failure
//!   while its bundle documents why.
//! * **Quarantine** — a (graph, program) pair whose terminal failures
//!   repeat identically `quarantine_threshold` times (default 2) is
//!   refused further submissions until the daemon restarts, breaking
//!   crash loops at the front door.
//! * **Forensics** — failures are sealed into post-mortem bundles
//!   (retention-capped via `GM_POST_MORTEM_KEEP`) and surfaced in the
//!   job's status document.
//!
//! The HTTP surface:
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `POST /v1/jobs` | submit a job (one JSON object per line), `202` + id |
//! | `GET /v1/jobs/<id>` | status / result / failure, `200` |
//! | `GET /v1/graphs` | loaded snapshots with shapes |
//! | `GET /healthz` | liveness + drain state |
//! | `GET /metrics` | Prometheus exposition incl. `gm_jobs_*` series |
//!
//! A job names a loaded graph plus either a **builtin** (the paper's six
//! algorithms) or inline Green-Marl **source**. Builtins are compiled
//! once at startup, under their name and their text; any other inline
//! text is compiled at submit time. Both go through the same library
//! pipeline as `gmc`, with the PIR verifier forced on — malformed tenant
//! programs become structured `400`s, not daemon crashes — and a program
//! runs natively when its emitted Rust matches a compiled-in module. A
//! job's `backend` is what it runs on now: after a restart a replayed job
//! runs on whichever backend binds, and if that is not the one that wrote
//! its snapshots, the runtime refuses them and re-runs it from superstep 0.
//!
//! Layers: [`sched`] decides (admission, fairness, retry, quarantine,
//! brownout, drain — pure, no locks, clocks or I/O); [`daemon`] locks it,
//! runs jobs and applies its decisions; `cache` indexes completed jobs
//! so a repeated spec completes at submit without running; [`journal`]
//! is the write-ahead log; [`api`] the HTTP surface; [`config`] the
//! daemon's inputs.
//!
//! Results are returned with per-property FNV-1a fingerprints (see
//! [`fingerprint_values`]) so clients can assert bit-identical agreement
//! with local runs without shipping whole columns; small jobs can opt
//! into full columns with `"include_props": true`.

pub mod api;
mod cache;
pub mod client;
pub mod config;
pub mod daemon;
pub mod job;
pub mod journal;
mod programs;
pub mod sched;

pub use daemon::{Daemon, DaemonConfig, GraphSpec};
/// FNV-1a 64: result fingerprints are made of it.
pub use gm_graph::hash::Fnv1a;
pub use job::{JobSpec, ProgramSpec};
pub use journal::{Journal, JournalConfig, JournalRecord, Replay};
pub use sched::RetryPolicy;

use gm_core::value::Value;

/// Renders a [`Value`] into the canonical tagged form fingerprints hash.
/// `f64` goes through Rust's shortest-roundtrip `Display`, so two runs
/// producing bit-identical doubles render (and hash) identically.
pub fn render_value(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Appends [`render_value`]'s rendering of `v` to `out`.
fn write_value(out: &mut String, v: &Value) {
    use std::fmt::Write;
    // Writing into a `String` cannot fail.
    let _ = match v {
        Value::Int(x) => write!(out, "i:{x}"),
        Value::Double(x) => write!(out, "d:{x}"),
        Value::Bool(x) => write!(out, "b:{x}"),
        Value::Node(x) => write!(out, "n:{x}"),
        Value::Edge(x) => write!(out, "e:{x}"),
    };
}

/// Fingerprints a value column: FNV-1a 64 over the tagged renderings,
/// newline-separated, as a fixed-width hex string. Clients compare this
/// against the same function applied to a local
/// [`gm_interp::run_compiled`] outcome to assert bit-identical results.
/// Every value renders into one reused buffer, so a column costs no
/// allocation per value.
pub fn fingerprint_values(values: &[Value]) -> String {
    let mut h = Fnv1a::default();
    let mut line = String::with_capacity(32);
    for v in values {
        line.clear();
        write_value(&mut line, v);
        line.push('\n');
        h.update(line.as_bytes());
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        let a = fingerprint_values(&[Value::Int(1), Value::Int(2)]);
        let b = fingerprint_values(&[Value::Int(2), Value::Int(1)]);
        let c = fingerprint_values(&[Value::Int(1), Value::Int(2)]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        // Type tags keep equal renderings of different types distinct.
        assert_ne!(
            fingerprint_values(&[Value::Int(1)]),
            fingerprint_values(&[Value::Node(1)])
        );
    }

    #[test]
    fn fingerprint_hashes_the_newline_joined_renderings() {
        let column = [
            Value::Int(-3),
            Value::Double(0.1),
            Value::Double(-0.0),
            Value::Bool(true),
            Value::Node(7),
            Value::Edge(9),
        ];
        let mut h = Fnv1a::default();
        h.update(b"i:-3\nd:0.1\nd:-0\nb:true\nn:7\ne:9\n");
        assert_eq!(fingerprint_values(&column), format!("{:016x}", h.finish()));
        assert_eq!(render_value(&Value::Double(-0.0)), "d:-0");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a 64 test vector: "a" -> 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::default();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
