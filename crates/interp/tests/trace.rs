//! The execution trace: one state per vertex superstep, aligned with the
//! metrics' per-superstep counters.

use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::{compile, CompileOptions};
use gm_graph::gen;
use gm_interp::run_compiled;
use gm_pregel::PregelConfig;
use std::collections::HashMap;

#[test]
fn trace_follows_the_state_machine() {
    let src = "Procedure waves(G: Graph, x: N_P<Int>, x2: N_P<Int>) {
        Int k = 0;
        While (k < 3) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    t.x2 += n.x;
                }
            }
            Foreach (n: G.Nodes) {
                n.x = n.x2;
                n.x2 = 0;
            }
            k += 1;
        }
    }";
    let compiled = compile(src, &CompileOptions::default()).unwrap();
    let g = gen::cycle(6);
    let args = HashMap::from([(
        "x".to_owned(),
        ArgValue::NodeProp((0..6).map(Value::Int).collect()),
    )]);
    let out = run_compiled(&g, &compiled, &args, 0, &PregelConfig::sequential()).unwrap();

    // One state per vertex superstep (the final halt superstep has no
    // vertex phase and no entry).
    assert_eq!(out.states.len() as u32 + 1, out.metrics.supersteps);
    // The intra-loop-merged steady state repeats one self-looping state.
    let steady = *out.states.last().unwrap();
    let repeats = out.states.iter().filter(|&&s| s == steady).count();
    assert!(repeats >= 2, "steady state should repeat: {:?}", out.states);
    // Every entry has the runtime's per-superstep counters beside it.
    let steps = &out.metrics.per_superstep[..out.states.len()];
    // All vertices were active every superstep (no voteToHalt, as in the
    // paper's generated code).
    assert!(steps.iter().all(|m| m.active_vertices == 6));
}

const SSSP: &str = "Procedure sssp(G: Graph, root: Node, len: E_P<Int>, dist: N_P<Int>) {
    Node_Prop<Int> dist_nxt;
    Node_Prop<Bool> updated;
    G.dist = (G == root) ? 0 : INF;
    G.updated = (G == root) ? True : False;
    G.dist_nxt = G.dist;
    Bool fin = False;
    While (!fin) {
        Foreach (n: G.Nodes)(n.updated) {
            Foreach (s: n.Nbrs) {
                Edge e = s.ToEdge();
                s.dist_nxt min= n.dist + e.len;
            }
        }
        Foreach (n: G.Nodes) {
            n.updated = n.dist_nxt < n.dist;
            n.dist = n.dist_nxt;
        }
        fin = !Exist(n: G.Nodes)(n.updated);
    }
}";

#[test]
fn trace_shows_active_vertex_tail_for_sssp() {
    // The paper's §5.2 observation: late SSSP supersteps have few updates
    // but all vertices stay active (no voteToHalt in generated code).
    let compiled = compile(SSSP, &CompileOptions::default()).unwrap();
    let g = gen::path(12);
    let args = HashMap::from([
        ("root".to_owned(), ArgValue::Scalar(Value::Node(0))),
        (
            "len".to_owned(),
            ArgValue::EdgeProp(vec![Value::Int(1); 11]),
        ),
    ]);
    let out = run_compiled(&g, &compiled, &args, 0, &PregelConfig::sequential()).unwrap();
    // Each wave moves one hop: messages per superstep drop to 1 while all
    // 12 vertices keep computing.
    let steps = &out.metrics.per_superstep[..out.states.len()];
    for m in &steps[steps.len() - 3..] {
        assert_eq!(m.active_vertices, 12);
        assert!(m.messages_sent <= 1);
    }
}
