//! Ablation of the §4.2 optimizations: supersteps (and run time) of each
//! generated program with State Merging and Intra-Loop State Merging
//! toggled. The paper motivates both as timestep reducers; this quantifies
//! them on every algorithm.

use gm_algorithms::sources;
use gm_bench::{args_for, bench_config, table1_graphs_traced, TraceArgs};
use gm_core::CompileOptions;
use gm_interp::run_compiled;

const VARIANTS: [(&str, CompileOptions); 4] = [
    (
        "none",
        CompileOptions {
            state_merging: false,
            intra_loop_merging: false,
            combiners: false,
        },
    ),
    (
        "merge",
        CompileOptions {
            state_merging: true,
            intra_loop_merging: false,
            combiners: false,
        },
    ),
    (
        "merge+intra",
        CompileOptions {
            state_merging: true,
            intra_loop_merging: true,
            combiners: false,
        },
    ),
    (
        "+combiners",
        CompileOptions {
            state_merging: true,
            intra_loop_merging: true,
            combiners: true,
        },
    ),
];

fn main() {
    let algorithms: [(&str, &str); 6] = [
        ("avg_teen", sources::AVG_TEEN),
        ("pagerank", sources::PAGERANK),
        ("conductance", sources::CONDUCTANCE),
        ("sssp", sources::SSSP),
        ("bipartite", sources::BIPARTITE_MATCHING),
        ("bc", sources::BC_APPROX),
    ];
    let trace = TraceArgs::from_env();
    let tracer = trace.tracer();
    let workloads = table1_graphs_traced(tracer.as_ref());
    let mut cfg = bench_config();
    if let Some(t) = &tracer {
        cfg = cfg.with_tracer(t.clone());
    }

    println!("Ablation: supersteps / run-time by optimization level");
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>12} {:>16}",
        "Algorithm", "Graph", "none", "merge", "merge+intra", "+combiners(ext)"
    );
    for (alg, src) in algorithms {
        for w in &workloads {
            // Pair each algorithm with its natural graph, like Figure 6.
            let is_bip = w.name == "bipartite";
            if (alg == "bipartite") != is_bip {
                continue;
            }
            let g = &w.graph;
            let args = args_for(alg, g);
            let mut cells = Vec::new();
            for (_, opts) in VARIANTS {
                let compiled = gm_bench::compile_source_with(src, &opts, tracer.as_ref());
                let start = std::time::Instant::now();
                let out = run_compiled(g, &compiled, &args, 7, &cfg).expect("run");
                let t = start.elapsed();
                cells.push(format!(
                    "{}ss/{}m/{:.0}ms",
                    out.metrics.supersteps,
                    out.metrics.total_messages,
                    t.as_secs_f64() * 1e3
                ));
            }
            println!(
                "{:<12} {:<12} {:>12} {:>12} {:>12} {:>16}",
                alg, w.name, cells[0], cells[1], cells[2], cells[3]
            );
        }
    }
    if let Some(t) = &tracer {
        t.finish().expect("finish trace");
    }
}
