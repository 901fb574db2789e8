//! Reproduces the **§5.1 Betweenness Centrality result**: the compiler
//! turns the 25-line Green-Marl program of Fig. 4 into a Pregel program
//! whose manual implementation would be prohibitively difficult — the
//! paper reports nine vertex-centric kernels and four message types.
//! The harness compiles it, reports the structure, executes it on the
//! Table 1 graphs and cross-checks against a sequential Brandes oracle.

use gm_algorithms::{reference, sources};
use gm_bench::{args_for, bench_config, table1_graphs};
use gm_core::javagen::{count_loc, emit_java};
use gm_core::CompileOptions;
use gm_interp::run_compiled;

fn main() {
    let options = CompileOptions::default().verified();
    let compiled = gm_bench::compile_source(sources::BC_APPROX, &options);
    let p = &compiled.program;
    // The tagged wire format counts the in-neighbor preamble as one more
    // distinct message kind, which is how the paper's four types add up.
    let wire_types = p.num_message_types() + usize::from(p.uses_in_nbrs);
    println!("Approximate Betweenness Centrality — compiled structure");
    println!(
        "  Green-Marl LoC:        {}",
        gm_algorithms::sources::loc(sources::BC_APPROX)
    );
    println!(
        "  generated Java LoC:    {}",
        count_loc(&emit_java(p).expect("verified PIR lowers"))
    );
    println!(
        "  vertex-centric kernels: {} (paper: 9)",
        p.num_vertex_kernels()
    );
    println!(
        "  message types:          {} (+{} preamble) = {} wire formats (paper: 4)",
        p.num_message_types(),
        u8::from(p.uses_in_nbrs),
        wire_types
    );
    println!("  transformations:        {}", compiled.report);
    println!();

    let k = 4;
    let seed = 99;
    for w in table1_graphs() {
        if w.name == "bipartite" {
            continue; // BC on the two connected-ish graphs, as a spot check
        }
        let g = &w.graph;
        let args = args_for("bc", g);
        let start = std::time::Instant::now();
        let out = run_compiled(g, &compiled, &args, seed, &bench_config()).expect("bc runs");
        let elapsed = start.elapsed();
        let (_, ref_sum) = reference::bc_approx(g, k, seed);
        let got = out.ret.expect("bc returns a sum").as_f64();
        println!(
            "  {:<10} K={k}: supersteps={:<5} messages={:<9} bytes={:<10} time={:.1?}",
            w.name,
            out.metrics.supersteps,
            out.metrics.total_messages,
            out.metrics.total_message_bytes,
            elapsed
        );
        println!(
            "  {:<10} sum(bc)={got:.6}  sequential Brandes oracle={ref_sum:.6}  match={}",
            "",
            if (got - ref_sum).abs() < 1e-9 * ref_sum.abs().max(1.0) {
                "yes"
            } else {
                "NO"
            }
        );
        assert!(
            (got - ref_sum).abs() < 1e-9 * ref_sum.abs().max(1.0),
            "BC mismatch on {}",
            w.name
        );
    }
}
