//! Reproduces **Table 2** — lines of code: the Green-Marl program versus
//! the generated GPS-style program, next to the paper's reported numbers.
//!
//! The paper compares Green-Marl LoC against *hand-written* GPS Java; this
//! harness reports the *generated* GPS-style Java LoC, which §5.2 argues is
//! structurally the same program a programmer would write. The shape to
//! verify: the DSL is one order of magnitude terser.

use gm_algorithms::sources;
use gm_bench::TraceArgs;
use gm_core::javagen::{count_loc, emit_java};
use gm_core::CompileOptions;

/// The paper's Table 2 numbers: (label, Green-Marl LoC, native GPS LoC).
const PAPER: [(&str, usize, Option<usize>); 6] = [
    ("Average Teenage Follower (AvgTeen)", 13, Some(130)),
    ("PageRank", 19, Some(110)),
    ("Conductance (Conduct)", 12, Some(149)),
    ("Single Source Shortest Paths (SSSP)", 29, Some(105)),
    ("Random Bipartite Matching (Bipartite)", 47, Some(225)),
    ("Approximate Betweenness Centrality (BC)", 25, None),
];

fn main() {
    let trace = TraceArgs::from_env();
    let tracer = trace.tracer();
    println!("Table 2: lines of code (non-blank, non-comment)");
    println!(
        "{:<42} {:>8} {:>8} | {:>9} {:>10}",
        "Algorithm", "GM (ours)", "GPS gen.", "GM paper", "GPS paper"
    );
    for ((name, src), (plabel, p_gm, p_gps)) in sources::ALL.iter().zip(PAPER) {
        assert_eq!(*name, plabel, "row order must match the paper");
        let options = CompileOptions::default().verified();
        let compiled = gm_core::compile_with(src, &options, tracer.as_ref())
            .expect("embedded source compiles");
        let java = emit_java(&compiled.program).expect("verified PIR lowers");
        let gps_loc = count_loc(&java);
        println!(
            "{:<42} {:>8} {:>8} | {:>9} {:>10}",
            name,
            sources::loc(src),
            gps_loc,
            p_gm,
            p_gps.map_or("N/A".to_owned(), |v| v.to_string()),
        );
    }
    println!("\n(The paper's GPS column counts hand-written Java; ours counts the");
    println!(" generated GPS-style Java — §5.2 argues they are the same program.)");
    if let Some(t) = &tracer {
        t.finish().expect("finish trace");
    }
}
