//! Property-based differential testing across the whole pipeline: for
//! random graphs and inputs, the sequential Green-Marl interpreter (the
//! reference semantics) and the compiled Pregel execution must agree —
//! exactly, floats included.

use gm_algorithms::sources;
use gm_core::seqinterp::{run_procedure, ArgValue, ExecOutcome};
use gm_core::value::Value;
use gm_core::{compile, CompileOptions, Compiled};
use gm_graph::rng::{check, SplitMix64};
use gm_graph::{gen, Graph};
use gm_interp::{run_compiled, CompiledOutcome};
use gm_pregel::PregelConfig;
use std::collections::HashMap;
use std::ops::Range;

fn seq_run(g: &Graph, src: &str, args: &HashMap<String, ArgValue>, seed: u64) -> ExecOutcome {
    let mut prog = gm_core::parser::parse(src).expect("parse");
    gm_core::normalize::desugar_bulk(&mut prog);
    let infos = gm_core::sema::check(&mut prog).expect("sema");
    run_procedure(g, &prog.procedures[0], &infos[0], args, seed).expect("seq run")
}

fn pregel_run(
    g: &Graph,
    compiled: &Compiled,
    args: &HashMap<String, ArgValue>,
    seed: u64,
    workers: usize,
) -> CompiledOutcome {
    run_compiled(
        g,
        compiled,
        args,
        seed,
        &PregelConfig::with_workers(workers),
    )
    .expect("pregel run")
}

/// Compares the return value and all node properties the two sides share.
fn assert_agree(seq: &ExecOutcome, gen: &CompiledOutcome, tag: &str) {
    assert_eq!(seq.ret, gen.ret, "{tag}: return values differ");
    for (name, gen_vals) in &gen.node_props {
        if let Some(seq_vals) = seq.node_props.get(name) {
            assert_eq!(seq_vals, gen_vals, "{tag}: property `{name}` differs");
        }
    }
}

/// Compiles `src` with `opts` and requires `workers` Pregel workers to
/// agree with the sequential oracle on `g` and `args`.
fn differential(
    g: &Graph,
    src: &str,
    opts: &CompileOptions,
    args: &HashMap<String, ArgValue>,
    workers: usize,
    tag: &str,
) {
    let compiled = compile(src, opts).unwrap();
    let seq = seq_run(g, src, args, 0);
    assert_agree(&seq, &pregel_run(g, &compiled, args, 0, workers), tag);
}

fn avg_teen(g: &Graph, seed: u64, opts: &CompileOptions) {
    let ages: Vec<Value> = (0..g.num_nodes() as i64)
        .map(|i| Value::Int((i * 7 + seed as i64) % 60))
        .collect();
    let args = HashMap::from([
        ("age".to_owned(), ArgValue::NodeProp(ages)),
        ("K".to_owned(), ArgValue::Scalar(Value::Int(20))),
    ]);
    let workers = 1 + (seed % 3) as usize;
    differential(g, sources::AVG_TEEN, opts, &args, workers, "avg_teen");
}

fn sssp(g: &Graph, seed: u64, opts: &CompileOptions) {
    let weights: Vec<Value> = (0..g.num_edges() as i64)
        .map(|i| Value::Int(1 + (i * 3 + seed as i64) % 17))
        .collect();
    let root = Value::Node(seed as u32 % g.num_nodes());
    let args = HashMap::from([
        ("root".to_owned(), ArgValue::Scalar(root)),
        ("len".to_owned(), ArgValue::EdgeProp(weights)),
    ]);
    differential(
        g,
        sources::SSSP,
        opts,
        &args,
        1 + (seed % 3) as usize,
        "sssp",
    );
}

fn pagerank(g: &Graph, opts: &CompileOptions) {
    let args = HashMap::from([
        ("e".to_owned(), ArgValue::Scalar(Value::Double(1e-4))),
        ("d".to_owned(), ArgValue::Scalar(Value::Double(0.85))),
        ("max_iter".to_owned(), ArgValue::Scalar(Value::Int(8))),
    ]);
    // Single worker: float global reductions are order-sensitive and
    // the sequential oracle accumulates in vertex order.
    differential(g, sources::PAGERANK, opts, &args, 1, "pagerank");
}

fn conductance(g: &Graph, seed: u64, opts: &CompileOptions) {
    let member: Vec<Value> = (0..u64::from(g.num_nodes()))
        .map(|i| Value::Bool((i + seed).is_multiple_of(3)))
        .collect();
    let args = HashMap::from([("member".to_owned(), ArgValue::NodeProp(member))]);
    let workers = 1 + (seed % 3) as usize;
    differential(g, sources::CONDUCTANCE, opts, &args, workers, "conductance");
}

/// Runs one (n, m_per_n, seed) triple that proptest once shrank a failure
/// to through the four algorithms whose differential tests share that
/// argument shape, with the PIR verifier on, so the historical failure
/// stays pinned deterministically on every CI run.
fn check_regression_seed(n: u32, m_per_n: usize, seed: u64) {
    let g = gen::uniform_random(n, n as usize * m_per_n, seed);
    let opts = CompileOptions::default().verified();
    avg_teen(&g, seed, &opts);
    sssp(&g, seed, &opts);
    pagerank(&g, &opts);
    conductance(&g, seed, &opts);
}

/// Shrunk seed `n = 7, m_per_n = 3, seed = 1`, promoted to a named test.
#[test]
fn regression_seed_n7_m3_s1() {
    check_regression_seed(7, 3, 1);
}

/// Shrunk seed `n = 8, m_per_n = 5, seed = 61`, promoted to a named test.
#[test]
fn regression_seed_n8_m5_s61() {
    check_regression_seed(8, 5, 61);
}

/// Cases per property: each compiles and runs whole programs.
const CASES: u32 = 12;

/// A uniform random graph of `n` vertices and `n * m_per_n` edges, both
/// drawn from the given ranges, and its seed, drawn below `seeds`.
fn random_graph(
    rng: &mut SplitMix64,
    n: Range<u64>,
    m_per_n: Range<u64>,
    seeds: u64,
) -> (Graph, u64) {
    let (n, m_per_n, seed) = (rng.range(n), rng.range(m_per_n), rng.below(seeds));
    (
        gen::uniform_random(n as u32, (n * m_per_n) as usize, seed),
        seed,
    )
}

#[test]
fn avg_teen_differential() {
    check("avg_teen_differential", CASES, |rng| {
        let (g, seed) = random_graph(rng, 2..80, 1..8, 500);
        avg_teen(&g, seed, &CompileOptions::default());
    });
}

#[test]
fn sssp_differential() {
    check("sssp_differential", CASES, |rng| {
        let (g, seed) = random_graph(rng, 2..80, 1..8, 500);
        sssp(&g, seed, &CompileOptions::default());
    });
}

#[test]
fn pagerank_differential() {
    check("pagerank_differential", CASES, |rng| {
        let (g, _) = random_graph(rng, 2..60, 1..6, 500);
        pagerank(&g, &CompileOptions::default());
    });
}

#[test]
fn conductance_differential() {
    check("conductance_differential", CASES, |rng| {
        let (g, seed) = random_graph(rng, 2..80, 1..8, 500);
        conductance(&g, seed, &CompileOptions::default());
    });
}

#[test]
fn bipartite_differential() {
    check("bipartite_differential", CASES, |rng| {
        let (left, right) = (rng.range(1..30) as u32, rng.range(1..30) as u32);
        let (m, seed) = (rng.below(150) as usize, rng.below(500));
        let m = m.min(left as usize * right as usize * 2);
        let g = gen::bipartite(left, right, m, seed);
        let is_boy: Vec<Value> = (0..left + right).map(|i| Value::Bool(i < left)).collect();
        let args = HashMap::from([("is_boy".to_owned(), ArgValue::NodeProp(is_boy))]);
        let (src, opts) = (sources::BIPARTITE_MATCHING, CompileOptions::default());
        differential(&g, src, &opts, &args, 1 + (seed % 3) as usize, "bipartite");
    });
}

#[test]
fn bc_differential() {
    check("bc_differential", CASES, |rng| {
        let (g, seed) = random_graph(rng, 2..50, 1..6, 300);
        let args = HashMap::from([("K".to_owned(), ArgValue::Scalar(Value::Int(3)))]);
        let compiled = compile(sources::BC_APPROX, &CompileOptions::default()).unwrap();
        let seq = seq_run(&g, sources::BC_APPROX, &args, seed);
        // Single worker for the exact comparison: the procedure *returns* a
        // floating-point global sum, whose partial-sum order depends on the
        // worker partition (documented in gm_pregel::run).
        let gen_out = pregel_run(&g, &compiled, &args, seed, 1);
        assert_agree(&seq, &gen_out, "bc");
        // Multi-worker runs still match all per-vertex properties exactly;
        // only the returned float aggregate may differ by rounding.
        let multi = pregel_run(&g, &compiled, &args, seed, 3);
        for (name, vals) in &multi.node_props {
            // Compiler-introduced temporaries (_lev, _tp, ...) exist only
            // on the compiled side.
            if let Some(seq_vals) = seq.node_props.get(name) {
                assert_eq!(seq_vals, vals, "bc prop {name} (3 workers)");
            }
        }
        let (a, b) = (seq.ret.unwrap().as_f64(), multi.ret.unwrap().as_f64());
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    });
}

/// The optimizations must never change results — only timesteps.
#[test]
fn optimizations_preserve_semantics() {
    check("optimizations_preserve_semantics", CASES, |rng| {
        let (g, _) = random_graph(rng, 2..50, 1..6, 300);
        let weights: Vec<Value> = (0..g.num_edges() as i64)
            .map(|i| Value::Int(1 + i % 9))
            .collect();
        let args = HashMap::from([
            ("root".to_owned(), ArgValue::Scalar(Value::Node(0))),
            ("len".to_owned(), ArgValue::EdgeProp(weights)),
        ]);
        let opt = compile(sources::SSSP, &CompileOptions::default()).unwrap();
        let unopt = compile(sources::SSSP, &CompileOptions::unoptimized()).unwrap();
        let a = pregel_run(&g, &opt, &args, 0, 1);
        let b = pregel_run(&g, &unopt, &args, 0, 1);
        assert_eq!(&a.node_props["dist"], &b.node_props["dist"]);
        // And the optimized machine is never slower in timesteps.
        assert!(a.metrics.supersteps <= b.metrics.supersteps);
    });
}
