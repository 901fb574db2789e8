//! Three-way differential tests for the native codegen backend: for every
//! shipped algorithm, the `gm-core::rustgen` module compiled into this
//! crate, the PIR interpreter (`gm_interp::run_compiled`), and the
//! sequential Green-Marl interpreter (`gm_core::seqinterp`) must agree.
//!
//! Native vs. interpreter is held to the strictest standard: **bit-for-bit
//! identical outcomes at the same configuration** — return value, node
//! properties, master globals, superstep count, message/byte totals,
//! per-superstep activity series, and the state-machine trace — across
//! {Push, Pull, Auto} × {1, 2, 4} workers, under a 1-byte spill budget,
//! through an injected worker crash + snapshot recovery, and between two
//! identical checkpointed runs (byte-identical snapshots).
//!
//! The nightly deep-fuzz CI job re-runs this matrix alongside the
//! compiler's translation-validation fuzzers.

mod common;

use common::{algorithm_cases, compiled_for, fresh_dir, native_for, snapshots};
use gm_core::seqinterp::{run_procedure, ArgValue, ExecOutcome};
use gm_core::value::Value;
use gm_graph::Graph;
use gm_interp::{run_compiled, CompiledOutcome};
use gm_pregel::{
    CheckpointConfig, FaultPlan, PregelConfig, RecoveryPolicy, ResourceBudget, Schedule, Snapshot,
};
use std::collections::HashMap;
use std::path::Path;

// ---------------------------------------------------------------------------
// The full observable outcome of a run — everything but wall-clock times.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Outcome {
    ret: Option<Value>,
    node_props: Vec<(String, Vec<Value>)>,
    globals: Vec<(String, Value)>,
    supersteps: u32,
    total_messages: u64,
    total_message_bytes: u64,
    pull_supersteps: u32,
    per_superstep: Vec<(u32, u64, u64)>,
    states: Vec<usize>,
}

fn outcome(out: &CompiledOutcome) -> Outcome {
    let mut node_props: Vec<(String, Vec<Value>)> = out
        .node_props
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    node_props.sort_by(|a, b| a.0.cmp(&b.0));
    let mut globals: Vec<(String, Value)> =
        out.globals.iter().map(|(k, v)| (k.clone(), *v)).collect();
    globals.sort_by(|a, b| a.0.cmp(&b.0));
    Outcome {
        ret: out.ret,
        node_props,
        globals,
        supersteps: out.metrics.supersteps,
        total_messages: out.metrics.total_messages,
        total_message_bytes: out.metrics.total_message_bytes,
        pull_supersteps: out.metrics.pull_supersteps,
        per_superstep: out
            .metrics
            .per_superstep
            .iter()
            .map(|s| (s.active_vertices, s.messages_sent, s.message_bytes))
            .collect(),
        states: out.states.clone(),
    }
}

// ---------------------------------------------------------------------------
// 1. Native × interpreter: bit-identical across the schedule/worker matrix.
// ---------------------------------------------------------------------------

#[test]
fn native_matches_interpreter_bit_for_bit_across_schedules_and_workers() {
    for (name, src, graph, args, seed) in algorithm_cases() {
        let alg = native_for(src);
        let compiled = compiled_for(name, src);
        for workers in [1usize, 2, 4] {
            for schedule in [Schedule::Push, Schedule::Pull, Schedule::Auto] {
                let config = PregelConfig::with_workers(workers).with_schedule(schedule);
                let interp = run_compiled(&graph, &compiled, &args, seed, &config)
                    .unwrap_or_else(|e| panic!("{name} interp {schedule:?}×{workers}: {e}"));
                let nat = (alg.run)(&graph, &args, seed, &config)
                    .unwrap_or_else(|e| panic!("{name} native {schedule:?}×{workers}: {e}"));
                assert_eq!(
                    outcome(&nat),
                    outcome(&interp),
                    "{name}: native diverged from interpreter at {schedule:?}×{workers}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Native × sequential interpreter: same values and return.
// ---------------------------------------------------------------------------

fn seq_run(g: &Graph, src: &str, args: &HashMap<String, ArgValue>, seed: u64) -> ExecOutcome {
    let mut prog = gm_core::parser::parse(src).expect("parse");
    gm_core::normalize::desugar_bulk(&mut prog);
    let infos = gm_core::sema::check(&mut prog).expect("sema");
    run_procedure(g, &prog.procedures[0], &infos[0], args, seed).expect("seq run")
}

#[test]
fn native_matches_sequential_interpreter() {
    for (name, src, graph, args, seed) in algorithm_cases() {
        let alg = native_for(src);
        let seq = seq_run(&graph, src, &args, seed);
        let nat = (alg.run)(&graph, &args, seed, &PregelConfig::sequential())
            .unwrap_or_else(|e| panic!("{name} native: {e}"));
        assert_eq!(seq.ret, nat.ret, "{name}: return values differ");
        for (prop, nat_vals) in &nat.node_props {
            if let Some(seq_vals) = seq.node_props.get(prop) {
                assert_eq!(seq_vals, nat_vals, "{name}: property `{prop}` differs");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Spill: a 1-byte message budget must be invisible to the native backend
//    and leave it bit-identical to the interpreter under the same budget.
// ---------------------------------------------------------------------------

#[test]
fn native_spill_is_invisible_and_matches_interpreter() {
    for (name, src, graph, args, seed) in algorithm_cases() {
        let alg = native_for(src);
        let compiled = compiled_for(name, src);
        let unbounded = PregelConfig::with_workers(2).with_budget(ResourceBudget::unbounded());
        let spilling = PregelConfig::with_workers(2)
            .with_budget(ResourceBudget::unbounded().with_max_message_bytes(1));

        let base = (alg.run)(&graph, &args, seed, &unbounded)
            .unwrap_or_else(|e| panic!("{name} native unbounded: {e}"));
        let gov = (alg.run)(&graph, &args, seed, &spilling)
            .unwrap_or_else(|e| panic!("{name} native spilling: {e}"));
        let interp_gov = run_compiled(&graph, &compiled, &args, seed, &spilling)
            .unwrap_or_else(|e| panic!("{name} interp spilling: {e}"));

        assert_eq!(
            outcome(&gov),
            outcome(&base),
            "{name}: spill changed the run"
        );
        assert_eq!(
            outcome(&gov),
            outcome(&interp_gov),
            "{name}: native diverged from interpreter under spill"
        );
        assert_eq!(
            base.metrics.spill.buckets_spilled, 0,
            "{name}: baseline spilled"
        );
        // Gathered supersteps bypass the message budget, so only pushed
        // messages can spill (the default auto schedule may gather them all).
        let pushed = |s: &gm_pregel::SuperstepMetrics| !s.pulled && s.messages_sent > 0;
        if base.metrics.per_superstep.iter().any(pushed) {
            assert!(
                gov.metrics.spill.buckets_spilled > 0,
                "{name}: the 1-byte budget must force spills"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Recovery: crash worker 0 mid-run, restore from the newest snapshot,
//    and require the result to stay bit-identical to the uninterrupted run
//    and to the interpreter put through the identical fault plan.
// ---------------------------------------------------------------------------

#[test]
fn native_recovery_is_exact_and_matches_interpreter() {
    for (name, src, graph, args, seed) in algorithm_cases() {
        let alg = native_for(src);
        let compiled = compiled_for(name, src);
        // Under pull and auto the snapshots fall right after gathered
        // supersteps, so their inboxes are folded from captured payloads.
        for schedule in [Schedule::Push, Schedule::Pull, Schedule::Auto] {
            let plain = PregelConfig::with_workers(2).with_schedule(schedule);
            let base = (alg.run)(&graph, &args, seed, &plain)
                .unwrap_or_else(|e| panic!("{name} native plain {schedule:?}: {e}"));
            let fail_at = (base.metrics.supersteps / 2).max(1);

            let faulty = |tag: &str| PregelConfig {
                checkpoint: Some(CheckpointConfig::new(fresh_dir(tag), 2)),
                faults: FaultPlan::builder()
                    .panic_in_compute(fail_at, Some(0))
                    .build(),
                recovery: Some(RecoveryPolicy::with_max_restarts(2)),
                ..plain.clone()
            };

            let nat = (alg.run)(&graph, &args, seed, &faulty("nat"))
                .unwrap_or_else(|e| panic!("{name} native recovery {schedule:?}: {e}"));
            let interp = run_compiled(&graph, &compiled, &args, seed, &faulty("interp"))
                .unwrap_or_else(|e| panic!("{name} interp recovery {schedule:?}: {e}"));

            assert_eq!(
                nat.metrics.recovery.restarts, 1,
                "{name} {schedule:?}: injected fault at superstep {fail_at} never tripped"
            );
            assert_eq!(
                outcome(&nat),
                outcome(&base),
                "{name} {schedule:?}: recovery changed the native result"
            );
            assert_eq!(
                outcome(&nat),
                outcome(&interp),
                "{name} {schedule:?}: native diverged from interpreter through recovery"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Checkpoint determinism: two identical checkpointed native runs write
//    byte-identical snapshots (outside the wall-clock `metrics` section).
// ---------------------------------------------------------------------------

#[test]
fn native_snapshots_are_byte_identical_between_runs() {
    for (name, src, graph, args, seed) in algorithm_cases() {
        let alg = native_for(src);
        let ckpt = |dir: &Path, schedule: Schedule| PregelConfig {
            checkpoint: Some(CheckpointConfig::new(dir, 1)),
            ..PregelConfig::with_workers(2).with_schedule(schedule)
        };
        // Run B repeats A exactly; pull and auto must write the same bytes
        // as push, including inboxes left captured by a gathered superstep.
        let runs = [
            ("B", Schedule::Push),
            ("pull", Schedule::Pull),
            ("auto", Schedule::Auto),
        ];
        let da = fresh_dir("det-a");
        (alg.run)(&graph, &args, seed, &ckpt(&da, Schedule::Push))
            .unwrap_or_else(|e| panic!("{name} run A: {e}"));
        let a = snapshots(&da);
        assert!(!a.is_empty(), "{name}: no snapshots written");
        for (run, schedule) in runs {
            let db = fresh_dir("det-b");
            (alg.run)(&graph, &args, seed, &ckpt(&db, schedule))
                .unwrap_or_else(|e| panic!("{name} run {run}: {e}"));
            let b = snapshots(&db);
            assert_eq!(
                a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                "{name}: runs A and {run} checkpointed different supersteps"
            );
            for ((file, pa), (_, pb)) in a.iter().zip(&b) {
                let sa = Snapshot::read(pa).expect("read snapshot A");
                let sb = Snapshot::read(pb).expect("read snapshot B");
                let secs_a: Vec<&str> = sa.section_names().collect();
                let secs_b: Vec<&str> = sb.section_names().collect();
                assert_eq!(secs_a, secs_b, "{name}/{file}: section sets differ");
                for sec in secs_a {
                    if sec == "metrics" {
                        continue; // wall-clock durations, legitimately run-specific
                    }
                    assert_eq!(
                        sa.section(sec),
                        sb.section(sec),
                        "{name}/{file}: section `{sec}` differs between runs A and {run}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&db);
        }
        let _ = std::fs::remove_dir_all(&da);
    }
}
