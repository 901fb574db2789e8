//! Focused BC regressions: the sequential interpreter matches the
//! Brandes reference, and the fully optimized compiled program matches the
//! sequential interpreter (this once caught an unsound intra-loop merge of
//! the reverse-BFS loop).

use gm_algorithms::{reference, sources};
use gm_core::seqinterp::{run_procedure, ArgValue};
use gm_core::value::Value;
use std::collections::HashMap;

const OPTS: gm_core::CompileOptions = gm_core::CompileOptions {
    state_merging: true,
    intra_loop_merging: true,
};

#[test]
fn bc_seqinterp_matches_reference_small() {
    let mut b = gm_graph::GraphBuilder::new(5);
    b.extend([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    let g = b.build();
    let k = 2;
    let seed = 5;

    let mut prog = gm_core::parser::parse(sources::BC_APPROX).unwrap();
    gm_core::normalize::desugar_bulk(&mut prog);
    let infos = gm_core::sema::check(&mut prog).unwrap();
    let args = HashMap::from([("K".to_owned(), ArgValue::Scalar(Value::Int(k)))]);
    let seq = run_procedure(&g, &prog.procedures[0], &infos[0], &args, seed).unwrap();

    let (ref_bc, ref_sum) = reference::bc_approx(&g, k, seed);
    let seq_bc: Vec<f64> = seq.node_props["bc"].iter().map(|v| v.as_f64()).collect();
    assert_eq!(seq_bc, ref_bc, "seqinterp vs reference");
    assert_eq!(seq.ret, Some(Value::Double(ref_sum)));
}

#[test]
fn bc_compiled_matches_seqinterp_small() {
    let mut b = gm_graph::GraphBuilder::new(5);
    b.extend([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    let g = b.build();
    let k = 2;
    let seed = 5;

    let mut prog = gm_core::parser::parse(sources::BC_APPROX).unwrap();
    gm_core::normalize::desugar_bulk(&mut prog);
    let infos = gm_core::sema::check(&mut prog).unwrap();
    let args = HashMap::from([("K".to_owned(), ArgValue::Scalar(Value::Int(k)))]);
    let seq = run_procedure(&g, &prog.procedures[0], &infos[0], &args, seed).unwrap();

    let compiled = gm_core::compile(sources::BC_APPROX, &OPTS).unwrap();
    let out = gm_interp::run_compiled(
        &g,
        &compiled,
        &args,
        seed,
        &gm_pregel::PregelConfig::sequential(),
    )
    .unwrap();
    let seq_bc: Vec<f64> = seq.node_props["bc"].iter().map(|v| v.as_f64()).collect();
    let out_bc: Vec<f64> = out.node_props["bc"].iter().map(|v| v.as_f64()).collect();
    assert_eq!(seq_bc, out_bc, "compiled vs seqinterp");
    assert_eq!(seq.ret, out.ret);
}

/// BC is the one preamble program without a hand-written twin, so its
/// structural counters are pinned as literals: supersteps, messages and
/// bytes of the whole run, and of the preamble superstep alone (one
/// 9-byte id message per in-edge: envelope, id and tag byte). Both legs,
/// at one and two workers, must read the same numbers.
#[test]
fn bc_structural_counters_are_pinned_on_both_legs() {
    let g = gm_graph::gen::rmat(64, 256, 7);
    assert_eq!(g.num_edges(), 256);
    let args = HashMap::from([("K".to_owned(), ArgValue::Scalar(Value::Int(2)))]);
    let compiled = gm_core::compile(sources::BC_APPROX, &OPTS).unwrap();
    let native = gm_algorithms::native::find_by_name("bc_approx").unwrap();
    for workers in [1, 2] {
        let config = gm_pregel::PregelConfig::with_workers(workers);
        let interp = gm_interp::run_compiled(&g, &compiled, &args, 1, &config).unwrap();
        let native = (native.run)(&g, &args, 1, &config).unwrap();
        for (leg, m) in [("interp", &interp.metrics), ("native", &native.metrics)] {
            let at = format!("{leg} at {workers} worker(s)");
            assert_eq!(m.supersteps, 61, "{at}");
            assert_eq!(m.total_messages, 1705, "{at}");
            assert_eq!(m.total_message_bytes, 21_205, "{at}");
            let preamble = &m.per_superstep[0];
            assert_eq!(preamble.messages_sent, 256, "{at}");
            assert_eq!(preamble.message_bytes, 256 * 9, "{at}");
        }
        assert_eq!(interp.node_props["bc"], native.node_props["bc"]);
    }
}
