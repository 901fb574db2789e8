//! Cross-crate end-to-end tests: feature-combining Green-Marl programs
//! through the full pipeline (compile → BSP execution), worker-count
//! invariance, and the generated-Java artifact.

use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::{compile, CompileOptions};
use gm_graph::{gen, GraphBuilder};
use gm_interp::run_compiled;
use gm_pregel::PregelConfig;
use std::collections::HashMap;

fn run_ret(src: &str, g: &gm_graph::Graph, args: HashMap<String, ArgValue>) -> Option<Value> {
    let compiled = compile(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("compile failed:\n{}", e.render(src)));
    run_compiled(g, &compiled, &args, 0, &PregelConfig::sequential())
        .expect("runs")
        .ret
}

#[test]
fn triangle_like_two_hop_count() {
    // Count 2-hop paths: each vertex pushes its out-degree to neighbors.
    let src = "Procedure two_hop(G: Graph, d: N_P<Int>) : Int {
        Foreach (n: G.Nodes) {
            Foreach (t: n.Nbrs) {
                t.d += n.Degree();
            }
        }
        Return Sum(n: G.Nodes){n.d} - G.NumEdges() * 0;
    }";
    let g = gen::complete(4); // every vertex: deg 3, receives 3 × 3
    assert_eq!(run_ret(src, &g, HashMap::new()), Some(Value::Int(4 * 9)));
}

#[test]
fn nested_while_loops_compile_and_run() {
    let src = "Procedure waves(G: Graph, x: N_P<Int>) : Int {
        Int outer = 0;
        Int total = 0;
        While (outer < 3) {
            Int inner = 0;
            While (inner < 2) {
                Foreach (n: G.Nodes) {
                    n.x += 1;
                }
                inner += 1;
            }
            outer += 1;
        }
        total = Sum(n: G.Nodes){n.x};
        Return total;
    }";
    let g = gen::path(5);
    assert_eq!(run_ret(src, &g, HashMap::new()), Some(Value::Int(5 * 6)));
}

#[test]
fn branching_if_with_parallel_loops() {
    let src = "Procedure pick(G: Graph, x: N_P<Int>, flag: Bool) : Int {
        If (flag) {
            Foreach (n: G.Nodes) {
                n.x = 2;
            }
        } Else {
            Foreach (n: G.Nodes) {
                n.x = 5;
            }
        }
        Return Sum(n: G.Nodes){n.x};
    }";
    let g = gen::path(4);
    assert_eq!(
        run_ret(
            src,
            &g,
            HashMap::from([("flag".to_owned(), ArgValue::Scalar(Value::Bool(true)))])
        ),
        Some(Value::Int(8))
    );
    assert_eq!(
        run_ret(
            src,
            &g,
            HashMap::from([("flag".to_owned(), ArgValue::Scalar(Value::Bool(false)))])
        ),
        Some(Value::Int(20))
    );
}

#[test]
fn bfs_levels_via_compiled_program() {
    let src = "Procedure levels(G: Graph, root: Node, lev: N_P<Int>) {
        G.lev = 0 - 1;
        InBFS (v: G.Nodes From root) {
            v.lev = v.lev * 1;
        }
    }";
    // The traversal itself computes `_lev`; expose it by copying through a
    // second program that reports reachability instead.
    let reach_src = "Procedure reach(G: Graph, root: Node, seen: N_P<Bool>) : Int {
        InBFS (v: G.Nodes From root) {
            v.seen = True;
        }
        Return Count(n: G.Nodes)(n.seen);
    }";
    let _ = src;
    let mut b = GraphBuilder::new(6);
    b.extend([(0, 1), (1, 2), (2, 3), (4, 5)]); // 4,5 unreachable from 0
    let g = b.build();
    assert_eq!(
        run_ret(
            reach_src,
            &g,
            HashMap::from([("root".to_owned(), ArgValue::Scalar(Value::Node(0)))])
        ),
        Some(Value::Int(4))
    );
}

#[test]
fn pure_master_while_costs_no_vertex_supersteps() {
    // A loop with no vertex-parallel content runs entirely inside the
    // master's state chain: the whole program needs only the mandatory
    // vertex superstep(s) around it.
    let src = "Procedure collatz(G: Graph, start: Int) : Int {
        Int x = start;
        Int steps = 0;
        While (x != 1) {
            If (x % 2 == 0) {
                x = x / 2;
            } Else {
                x = x * 3 + 1;
            }
            steps += 1;
        }
        Return steps;
    }";
    let g = gen::path(3);
    let compiled = compile(src, &CompileOptions::default()).unwrap();
    let out = run_compiled(
        &g,
        &compiled,
        &HashMap::from([("start".to_owned(), ArgValue::Scalar(Value::Int(27)))]),
        0,
        &PregelConfig::sequential(),
    )
    .unwrap();
    assert_eq!(out.ret, Some(Value::Int(111))); // Collatz(27) takes 111 steps
    assert_eq!(out.metrics.supersteps, 1, "master-only work is free");
}

#[test]
fn worker_count_invariance_for_integer_algorithms() {
    let src = gm_algorithms::sources::SSSP;
    let g = gen::rmat(400, 3000, 9);
    let weights: Vec<Value> = (0..g.num_edges() as i64)
        .map(|i| Value::Int(1 + i % 12))
        .collect();
    let args = HashMap::from([
        ("root".to_owned(), ArgValue::Scalar(Value::Node(0))),
        ("len".to_owned(), ArgValue::EdgeProp(weights)),
    ]);
    let compiled = compile(src, &CompileOptions::default()).unwrap();
    let base = run_compiled(&g, &compiled, &args, 0, &PregelConfig::sequential()).unwrap();
    for workers in [2, 3, 4, 7] {
        let out = run_compiled(
            &g,
            &compiled,
            &args,
            0,
            &PregelConfig::with_workers(workers),
        )
        .unwrap();
        assert_eq!(
            out.node_props["dist"], base.node_props["dist"],
            "workers={workers}"
        );
        assert_eq!(out.metrics.supersteps, base.metrics.supersteps);
        assert_eq!(out.metrics.total_messages, base.metrics.total_messages);
        assert_eq!(
            out.metrics.total_message_bytes,
            base.metrics.total_message_bytes
        );
    }
}

#[test]
fn generated_java_is_emitted_for_all_six() {
    for (name, src) in gm_algorithms::sources::ALL {
        let compiled = compile(src, &CompileOptions::default()).unwrap();
        let java = gm_core::javagen::emit_java(&compiled.program).unwrap();
        assert!(java.contains("class GMMaster"), "{name}");
        assert!(java.contains("class GMVertex"), "{name}");
        assert!(
            gm_core::javagen::count_loc(&java) > 50,
            "{name}: suspiciously small Java output"
        );
    }
}

#[test]
fn canonical_source_is_valid_green_marl() {
    // The §4.1 output is itself Green-Marl: it must re-parse, re-check and
    // re-compile to an equivalent program.
    for (name, src) in gm_algorithms::sources::ALL {
        let compiled = compile(src, &CompileOptions::default()).unwrap();
        let again =
            compile(&compiled.canonical_source, &CompileOptions::default()).unwrap_or_else(|e| {
                panic!(
                    "{name}: canonical form does not recompile:\n{}\n---\n{}",
                    e.render(&compiled.canonical_source),
                    compiled.canonical_source
                )
            });
        assert_eq!(
            compiled.program.num_vertex_kernels(),
            again.program.num_vertex_kernels(),
            "{name}: canonical recompile changed the machine"
        );
    }
}

#[test]
fn compile_errors_are_reported_not_panicked() {
    // Programs beyond the supported subset must produce diagnostics.
    let cases = [
        "Procedure f(G: Graph) { Return; }", // sema: missing ret ty is fine; this is ok
        "Procedure f(G: Graph, x: N_P<Int>, s: Node) : Int {
            Int v = s.x;
            Return v;
        }", // random read
        "Procedure f(G: Graph, x: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    Foreach (u: t.Nbrs) {
                        u.x += 1;
                    }
                }
            }
        }", // triple nesting
    ];
    for (i, src) in cases.iter().enumerate().skip(1) {
        assert!(
            compile(src, &CompileOptions::default()).is_err(),
            "case {i} should fail to compile"
        );
    }
}
