//! The combiner extension (beyond the paper): enabling sender-side
//! combining must preserve results exactly for integer reductions while
//! reducing message traffic, and must leave supersteps unchanged.

use gm_algorithms::sources;
use gm_core::ast::AssignOp;
use gm_core::kernel;
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::{compile, CompileOptions};
use gm_graph::{gen, NodeId};
use gm_interp::run_compiled;
use gm_pregel::PregelConfig;
use std::collections::HashMap;

/// The lowered combiner verdict per message tag of `src` under `options`.
fn combine(src: &str, options: &CompileOptions) -> Vec<Option<AssignOp>> {
    let c = compile(src, options).unwrap();
    kernel::lower(&c.program).unwrap().combine
}

#[test]
fn sssp_messages_combine() {
    assert!(
        combine(sources::SSSP, &CompileOptions::with_combiners())
            .iter()
            .any(Option::is_some),
        "SSSP's min-relaxation messages should combine"
    );
    // Without the option no tag combines (paper-faithful default).
    let plain = combine(sources::SSSP, &CompileOptions::default());
    assert!(plain.iter().all(Option::is_none));
}

#[test]
fn sssp_with_combiners_same_result_fewer_messages() {
    let g = gen::rmat(500, 8000, 21);
    let weights: Vec<Value> = (0..g.num_edges() as i64)
        .map(|i| Value::Int(1 + (i * 7) % 13))
        .collect();
    let args = HashMap::from([
        ("root".to_owned(), ArgValue::Scalar(Value::Node(0))),
        ("len".to_owned(), ArgValue::EdgeProp(weights.clone())),
    ]);
    let plain = compile(sources::SSSP, &CompileOptions::default()).unwrap();
    let combined = compile(sources::SSSP, &CompileOptions::with_combiners()).unwrap();
    // Run with several workers: combining is per-worker, like Pregel's.
    let cfg = PregelConfig::with_workers(3);
    let a = run_compiled(&g, &plain, &args, 0, &cfg).unwrap();
    let b = run_compiled(&g, &combined, &args, 0, &cfg).unwrap();
    assert_eq!(a.node_props["dist"], b.node_props["dist"]);
    assert_eq!(a.metrics.supersteps, b.metrics.supersteps);
    assert!(
        b.metrics.total_messages < a.metrics.total_messages,
        "combining should reduce traffic: {} vs {}",
        b.metrics.total_messages,
        a.metrics.total_messages
    );
    assert!(b.metrics.total_message_bytes < a.metrics.total_message_bytes);
    // Sanity: both agree with Dijkstra.
    let w: Vec<i64> = weights.iter().map(|v| v.as_int()).collect();
    let oracle = gm_algorithms::reference::dijkstra(&g, NodeId(0), &w);
    let dist: Vec<i64> = b.node_props["dist"].iter().map(|v| v.as_int()).collect();
    assert_eq!(dist, oracle);
}

#[test]
fn avg_teen_messages_do_not_combine() {
    // AvgTeen's messages are empty (the receiver counts them), so
    // combining would change the count — the compiler must not mark them.
    let c = combine(sources::AVG_TEEN, &CompileOptions::with_combiners());
    assert!(c.iter().all(Option::is_none));
}

#[test]
fn bipartite_messages_do_not_combine() {
    // Plain (non-reduction) assignment receives cannot be combined.
    let c = combine(
        sources::BIPARTITE_MATCHING,
        &CompileOptions::with_combiners(),
    );
    assert!(c.iter().all(Option::is_none));
}

#[test]
fn pagerank_combiners_preserve_results_closely() {
    // PageRank's contribution sum is a float reduction; combining reorders
    // additions, so results match within floating tolerance rather than
    // bit-for-bit.
    let g = gen::rmat(300, 3000, 9);
    let args = HashMap::from([
        ("e".to_owned(), ArgValue::Scalar(Value::Double(-1.0))),
        ("d".to_owned(), ArgValue::Scalar(Value::Double(0.85))),
        ("max_iter".to_owned(), ArgValue::Scalar(Value::Int(8))),
    ]);
    let plain = compile(sources::PAGERANK, &CompileOptions::default()).unwrap();
    let combined = compile(sources::PAGERANK, &CompileOptions::with_combiners()).unwrap();
    let cfg = PregelConfig::with_workers(2);
    let a = run_compiled(&g, &plain, &args, 0, &cfg).unwrap();
    let b = run_compiled(&g, &combined, &args, 0, &cfg).unwrap();
    for (x, y) in a.node_props["pr"].iter().zip(&b.node_props["pr"]) {
        let (x, y) = (x.as_f64(), y.as_f64());
        assert!((x - y).abs() < 1e-12, "{x} vs {y}");
    }
    assert!(b.metrics.total_messages < a.metrics.total_messages);
}
