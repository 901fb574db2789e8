//! Schedule-axis tests: pull verdicts of the shipped algorithms, and
//! differential push/pull/auto equivalence on the runtime.

use gm_algorithms::sources;
use gm_core::kernel::{lower, CInstr, CPull, Lowered};
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::{compile, CompileOptions};
use gm_graph::gen;
use gm_interp::shell::with_signature;
use gm_interp::CompiledOutcome;
use gm_pregel::PullMode::{self, Captured as C, Recomputed as R, Unsupported as U};
use gm_pregel::{PregelConfig, Schedule};
use std::collections::HashMap;

/// The lowered program, and each state's pull mode as both legs read it.
fn verdicts(src: &str) -> (Lowered, Vec<PullMode>) {
    let compiled = compile(src, &CompileOptions::default()).expect("compile");
    let lowered = lower(&compiled.program).expect("lower");
    let modes = with_signature(&compiled.program, &lowered, |sig| {
        sig.states.iter().map(|s| s.pull).collect()
    });
    (lowered, modes)
}

#[test]
fn pagerank_send_state_is_captured_pullable() {
    let v = verdicts(sources::PAGERANK).1;
    assert!(v.contains(&C), "{v:?}");
}

#[test]
fn sssp_send_state_is_recompute_pullable() {
    let v = verdicts(sources::SSSP).1;
    assert!(v.contains(&R), "{v:?}");
}

/// Every shipped algorithm's per-state verdicts, pinned.
#[test]
fn every_algorithm_reports_verdicts_for_all_states() {
    let pinned: [&[PullMode]; 6] = [
        &[C, U, U, U],
        &[U, U, U, C, C, U],
        &[C, U, U, U, U, U, U],
        &[U, U, U, R, U, U],
        &[U, U, C, U, U, C, U, U],
        &[C, U, U, U, U, U, C, C, U, U, U, U, U, U, U, U, U],
    ];
    for ((name, src), want) in sources::ALL.iter().zip(pinned) {
        assert_eq!(verdicts(src).1, want, "{name}");
    }
}

#[test]
fn bipartite_random_writing_states_are_push_only() {
    // Phases 2-3 of the matching handshake send to computed destinations.
    let (lowered, _) = verdicts(sources::BIPARTITE_MATCHING);
    let mut random_writing = 0;
    for k in lowered.kernels.iter().flatten() {
        let mut sends_to = false;
        CInstr::visit(&k.body, &mut |i| {
            sends_to |= matches!(i, CInstr::SendTo { .. })
        });
        if sends_to {
            random_writing += 1;
            assert_eq!(k.pull, CPull::Push);
        }
    }
    assert!(
        random_writing >= 2,
        "{random_writing} random-writing states"
    );
}

// ---------------------------------------------------------------------------
// Differential runtime tests: every algorithm must produce bit-identical
// values AND identical structural metrics (supersteps, message/byte counts,
// per-superstep activity) under {Push, Pull, Auto} × {1, 2, 4} workers.
// ---------------------------------------------------------------------------

/// Structural fingerprint of a run: everything the paper treats as the
/// program's observable behavior, down to per-superstep activity.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    node_props: Vec<(String, Vec<Value>)>,
    ret: Option<Value>,
    supersteps: u32,
    total_messages: u64,
    total_message_bytes: u64,
    per_superstep: Vec<(u32, u64, u64)>,
}

fn fingerprint(out: &CompiledOutcome) -> Fingerprint {
    let mut node_props: Vec<(String, Vec<Value>)> = out
        .node_props
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    node_props.sort_by(|a, b| a.0.cmp(&b.0));
    Fingerprint {
        node_props,
        ret: out.ret,
        supersteps: out.metrics.supersteps,
        total_messages: out.metrics.total_messages,
        total_message_bytes: out.metrics.total_message_bytes,
        per_superstep: out
            .metrics
            .per_superstep
            .iter()
            .map(|s| (s.active_vertices, s.messages_sent, s.message_bytes))
            .collect(),
    }
}

type Case = (
    &'static str,
    &'static str,
    gm_graph::Graph,
    HashMap<String, ArgValue>,
    u64,
    CompileOptions,
);

fn algorithm_cases() -> Vec<Case> {
    let mut cases = Vec::new();

    let ages: Vec<Value> = (0..200).map(|i| Value::Int((i * 37) % 80)).collect();
    cases.push((
        "avg_teen",
        sources::AVG_TEEN,
        gen::rmat(200, 1200, 17),
        HashMap::from([
            ("age".to_owned(), ArgValue::NodeProp(ages)),
            ("K".to_owned(), ArgValue::Scalar(Value::Int(25))),
        ]),
        0,
    ));

    cases.push((
        "pagerank",
        sources::PAGERANK,
        gen::rmat(150, 900, 23),
        HashMap::from([
            ("e".to_owned(), ArgValue::Scalar(Value::Double(1e-8))),
            ("d".to_owned(), ArgValue::Scalar(Value::Double(0.85))),
            ("max_iter".to_owned(), ArgValue::Scalar(Value::Int(30))),
        ]),
        0,
    ));

    let member: Vec<Value> = (0..120).map(|i| Value::Bool(i % 3 == 0)).collect();
    cases.push((
        "conductance",
        sources::CONDUCTANCE,
        gen::rmat(120, 700, 31),
        HashMap::from([("member".to_owned(), ArgValue::NodeProp(member))]),
        0,
    ));

    let weights: Vec<Value> = (0..1000).map(|i| Value::Int(1 + (i * 7) % 20)).collect();
    cases.push((
        "sssp",
        sources::SSSP,
        gen::rmat(180, 1000, 41),
        HashMap::from([
            ("root".to_owned(), ArgValue::Scalar(Value::Node(3))),
            ("len".to_owned(), ArgValue::EdgeProp(weights)),
        ]),
        0,
    ));

    let is_boy: Vec<Value> = (0..130).map(|i| Value::Bool(i < 60)).collect();
    cases.push((
        "bipartite",
        sources::BIPARTITE_MATCHING,
        gen::bipartite(60, 70, 350, 13),
        HashMap::from([("is_boy".to_owned(), ArgValue::NodeProp(is_boy))]),
        0,
    ));

    cases.push((
        "bc_approx",
        sources::BC_APPROX,
        gen::rmat(100, 500, 29),
        HashMap::from([("K".to_owned(), ArgValue::Scalar(Value::Int(6)))]),
        77,
    ));

    let mut cases: Vec<Case> = cases
        .into_iter()
        .map(|(name, src, graph, args, seed)| {
            (name, src, graph, args, seed, CompileOptions::default())
        })
        .collect();
    // The combiner extension, on the two algorithms whose messages
    // combine: under pull the combine-with-last fold runs receiver-side.
    for (plain, combined) in [
        ("pagerank", "pagerank+combiners"),
        ("sssp", "sssp+combiners"),
    ] {
        let case = cases.iter().find(|c| c.0 == plain).expect(plain);
        let case = (
            combined,
            case.1,
            case.2.clone(),
            case.3.clone(),
            case.4,
            CompileOptions::with_combiners(),
        );
        cases.push(case);
    }
    cases
}

#[test]
fn all_algorithms_bit_identical_across_schedules_and_workers() {
    for (name, src, graph, args, seed, options) in algorithm_cases() {
        let compiled = compile(src, &options).expect(name);
        let seq = gm_interp::run_compiled(
            &graph,
            &compiled,
            &args,
            seed,
            &PregelConfig::sequential().with_schedule(Schedule::Push),
        )
        .unwrap_or_else(|e| panic!("{name} push baseline: {e}"));
        let seq_fp = fingerprint(&seq);

        for workers in [1usize, 2, 4] {
            // Push at this worker count is the baseline the schedule axis
            // must match *bit-identically, return value included*.
            let push = gm_interp::run_compiled(
                &graph,
                &compiled,
                &args,
                seed,
                &PregelConfig::with_workers(workers).with_schedule(Schedule::Push),
            )
            .unwrap_or_else(|e| panic!("{name} Push×{workers}: {e}"));
            let push_fp = fingerprint(&push);
            assert_eq!(push.metrics.pull_supersteps, 0, "{name}: push gathered");

            // Across worker counts everything matches except the master's
            // float return: the aggregator folds per-worker partials in
            // worker order, so a float Sum can round differently. That is
            // a pre-existing property of the partitioning, not of the
            // schedule — node values and structural metrics stay exact.
            // Combiners fold per sender worker, so with them neither the
            // message counts nor float values are worker-count independent.
            if !options.combiners {
                assert_eq!(push_fp.node_props, seq_fp.node_props, "{name}×{workers}");
                assert_eq!(push_fp.supersteps, seq_fp.supersteps, "{name}×{workers}");
                assert_eq!(
                    push_fp.total_messages, seq_fp.total_messages,
                    "{name}×{workers}"
                );
                assert_eq!(
                    push_fp.total_message_bytes, seq_fp.total_message_bytes,
                    "{name}×{workers}"
                );
                assert_eq!(
                    push_fp.per_superstep, seq_fp.per_superstep,
                    "{name}×{workers}"
                );
            }

            for schedule in [Schedule::Pull, Schedule::Auto] {
                let config = PregelConfig::with_workers(workers).with_schedule(schedule);
                let out = gm_interp::run_compiled(&graph, &compiled, &args, seed, &config)
                    .unwrap_or_else(|e| panic!("{name} {schedule:?}×{workers}: {e}"));
                assert_eq!(
                    fingerprint(&out),
                    push_fp,
                    "{name}: {schedule:?}×{workers} diverged from Push×{workers}"
                );
                if schedule == Schedule::Pull {
                    assert!(
                        out.metrics.pull_supersteps > 0,
                        "{name}: forced pull never gathered"
                    );
                }
            }
        }
    }
}

#[test]
fn auto_with_zero_threshold_gathers_every_pullable_superstep() {
    // dense_threshold = 0 makes any nonempty frontier "dense", so Auto
    // must behave exactly like forced Pull (and still match Push).
    let compiled = compile(sources::PAGERANK, &CompileOptions::default()).unwrap();
    let g = gen::rmat(150, 900, 23);
    let args = HashMap::from([
        ("e".to_owned(), ArgValue::Scalar(Value::Double(1e-8))),
        ("d".to_owned(), ArgValue::Scalar(Value::Double(0.85))),
        ("max_iter".to_owned(), ArgValue::Scalar(Value::Int(30))),
    ]);
    let push =
        gm_interp::run_compiled(&g, &compiled, &args, 0, &PregelConfig::sequential()).unwrap();
    let auto = gm_interp::run_compiled(
        &g,
        &compiled,
        &args,
        0,
        &PregelConfig::with_workers(4)
            .with_schedule(Schedule::Auto)
            .with_dense_threshold(0.0),
    )
    .unwrap();
    assert_eq!(fingerprint(&auto), fingerprint(&push));
    let pull = gm_interp::run_compiled(
        &g,
        &compiled,
        &args,
        0,
        &PregelConfig::with_workers(4).with_schedule(Schedule::Pull),
    )
    .unwrap();
    assert_eq!(auto.metrics.pull_supersteps, pull.metrics.pull_supersteps);
    assert!(auto.metrics.pull_supersteps > 0);
    // The heuristic flipped direction at least once: PageRank opens with
    // master-only/no-send states that cannot gather.
    assert!(auto.metrics.direction_switches > 0);
}

#[test]
fn forced_pull_on_push_only_program_is_a_structured_error() {
    use gm_pregel::{
        run, MasterContext, MasterDecision, PregelError, VertexContext, VertexProgram,
    };

    /// Sends to a computed destination (vertex 0) — never pullable, and the
    /// default `pull_supported()` says so.
    struct HubCounter;

    impl VertexProgram for HubCounter {
        type VertexValue = u32;
        type Message = ();

        fn message_bytes(&self, _m: &()) -> u64 {
            8
        }

        fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
            if ctx.superstep() == 2 {
                MasterDecision::Halt
            } else {
                MasterDecision::Continue
            }
        }

        fn vertex_compute(
            &self,
            ctx: &mut VertexContext<'_, '_, ()>,
            value: &mut u32,
            messages: &[()],
        ) {
            if ctx.superstep() == 0 {
                ctx.send(gm_graph::NodeId(0), ());
            } else {
                *value = messages.len() as u32;
            }
        }
    }

    let g = gen::star(4);
    let err = run(
        &g,
        &mut HubCounter,
        |_| 0u32,
        &PregelConfig::with_workers(2).with_schedule(Schedule::Pull),
    )
    .unwrap_err();
    assert!(
        matches!(err, PregelError::NotPullable { .. }),
        "expected NotPullable, got: {err}"
    );
    assert!(err.to_string().contains("pullable"));
    assert!(!err.is_recoverable());
}
