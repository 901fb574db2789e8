//! `gmc paper <artifact>`: the paper's Tables 1–3, its Figure 6, the §5.1
//! BC structure, and an ablation of the §4.2 optimizations.
//!
//! The paper's input graphs (Table 1) are proprietary billion-edge data
//! sets; the artifacts substitute seeded synthetic graphs with the same
//! *shapes* and edge:vertex ratios, scaled to laptop memory (see
//! DESIGN.md). `GM_SCALE` (default `1.0`) grows or shrinks every graph
//! proportionally; `GM_REPS` (default 3) sets how often figure6 runs each
//! cell, reporting the fastest run.
//!
//! Every artifact runs on the configuration `gmc`'s runtime flags build.
//! Its tracer receives one span per generated graph, every compile's
//! passes and every interpreted run; figure6 also writes
//! `<stem>.<alg>.<graph>.metrics.json` beside the trace for each row.
//! With `--checkpoint-every`, every run snapshots into its own
//! `<checkpoint-dir>/<alg>.<graph>.<leg or level>` (see [`for_run`]).
//! An artifact panics when a check it makes fails.

use gm_algorithms::{manual, native, reference, sources};
use gm_core::javagen::{count_loc, emit_java};
use gm_core::report::Step;
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::{compile_with, CompileOptions};
use gm_graph::{gen, Graph, NodeId};
use gm_interp::run_compiled;
use gm_obs::{Category, Tracer};
use gm_pregel::{Metrics, PregelConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// An artifact, run on a configuration and the `--trace` path.
pub type Artifact = fn(&PregelConfig, Option<&Path>);

/// The artifacts by name.
pub const ARTIFACTS: [(&str, Artifact); 6] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("figure6", figure6),
    ("bc-report", bc_report),
    ("ablation", ablation),
];

/// A Table 1 input graph, scaled.
struct Workload {
    /// Short name used in tables.
    name: &'static str,
    /// What the paper used.
    paper_desc: &'static str,
    /// The generated stand-in.
    graph: Graph,
}

/// Baseline scale factor (vertices of the twitter-like graph at scale 1).
const BASE_TWITTER_N: f64 = 30_000.0;

/// `config` for one run of an artifact, named `<alg>.<graph>.<leg or
/// level>`: its checkpoints, if any, go to that subdirectory of
/// `--checkpoint-dir`. Pruning (`--keep-snapshots`) and `--resume` go by
/// superstep number alone, so runs sharing a directory would prune and
/// resume each other's snapshots.
fn for_run(config: &PregelConfig, run: &str) -> PregelConfig {
    let mut config = config.clone();
    if let Some(checkpoint) = &mut config.checkpoint {
        checkpoint.dir = checkpoint.dir.join(run);
    }
    config
}

/// The environment variable `name`, or `default` when it is unset or
/// does not parse.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    (std::env::var(name).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Builds the three Table 1 stand-ins at the configured scale, emitting
/// one bench-category span per generated graph into `tracer` (when
/// given) with the resulting node/edge counts.
///
/// | name | paper graph | shape | edge:vertex |
/// |---|---|---|---|
/// | twitter | Twitter follower network (42M/1.5B) | R-MAT power law | 36:1 |
/// | bipartite | synthetic uniform random (75M/1.5B) | uniform bipartite | 20:1 |
/// | sk-2005 | .sk web crawl (51M/1.9B) | copying model | 37:1 |
fn table1_graphs(tracer: Option<&Tracer>) -> Vec<Workload> {
    let s = env_or("GM_SCALE", 1.0);
    let tw_n = (BASE_TWITTER_N * s) as u32;
    let bi_n = (53_000.0 * s) as u32; // 75/42 of the twitter scale
    let sk_n = (36_000.0 * s) as u32; // 51/42 of the twitter scale
    let mut workloads = Vec::with_capacity(3);
    let mut build = |name: &'static str, paper_desc: &'static str, f: &dyn Fn() -> Graph| {
        let start_us = tracer.map(Tracer::now_us);
        let graph = f();
        if let (Some(t), Some(ts)) = (tracer, start_us) {
            t.span(
                format!("gen/{name}"),
                Category::Bench,
                0,
                ts,
                vec![
                    ("nodes", graph.num_nodes().into()),
                    ("edges", graph.num_edges().into()),
                ],
            );
        }
        workloads.push(Workload {
            name,
            paper_desc,
            graph,
        });
    };
    build(
        "twitter",
        "Twitter follower network (42M nodes, 1.5B edges)",
        &|| gen::rmat(tw_n, tw_n as usize * 36, 1001),
    );
    build(
        "bipartite",
        "Synthetic uniform random bipartite (75M, 1.5B)",
        &|| gen::bipartite(bi_n / 2, bi_n - bi_n / 2, bi_n as usize * 20, 1002),
    );
    build(
        "sk-2005",
        "Web graph of the .sk domain (51M, 1.9B)",
        &|| gen::web_copying(sk_n, 37, 0.5, 1003),
    );
    workloads
}

/// Deterministic per-vertex ages for AvgTeen.
fn ages(g: &Graph) -> Vec<i64> {
    (0..g.num_nodes() as i64).map(|i| (i * 37) % 85).collect()
}

/// Deterministic membership marks for Conductance.
fn membership(g: &Graph) -> Vec<bool> {
    (0..g.num_nodes()).map(|i| i % 3 == 0).collect()
}

/// Deterministic edge weights for SSSP.
fn weights(g: &Graph) -> Vec<i64> {
    (0..g.num_edges() as i64)
        .map(|i| 1 + (i * 13) % 31)
        .collect()
}

/// SSSP root with good forward reachability: the vertex with the largest
/// out-degree (vertex 0 of the copying-model web graph reaches almost
/// nothing, and high-id R-MAT vertices are often isolated).
fn sssp_root(g: &Graph) -> NodeId {
    g.nodes()
        .max_by_key(|&n| g.out_degree(n))
        .unwrap_or(NodeId(0))
}

/// Side marks for bipartite matching (only valid on the bipartite graph).
fn boy_marks(g: &Graph) -> Vec<bool> {
    // gen::bipartite puts the left side first and all edges point left→right;
    // vertices with out-edges are the proposing side.
    g.nodes().map(|n| g.out_degree(n) > 0).collect()
}

/// Argument map for a compiled algorithm on graph `g`.
fn args_for(alg: &str, g: &Graph) -> HashMap<String, ArgValue> {
    match alg {
        "avg_teen" => HashMap::from([
            (
                "age".to_owned(),
                ArgValue::NodeProp(ages(g).into_iter().map(Value::Int).collect()),
            ),
            ("K".to_owned(), ArgValue::Scalar(Value::Int(25))),
        ]),
        "pagerank" => HashMap::from([
            ("e".to_owned(), ArgValue::Scalar(Value::Double(1e-9))),
            ("d".to_owned(), ArgValue::Scalar(Value::Double(0.85))),
            ("max_iter".to_owned(), ArgValue::Scalar(Value::Int(10))),
        ]),
        "conductance" => HashMap::from([(
            "member".to_owned(),
            ArgValue::NodeProp(membership(g).into_iter().map(Value::Bool).collect()),
        )]),
        "sssp" => HashMap::from([
            (
                "root".to_owned(),
                ArgValue::Scalar(Value::Node(sssp_root(g).0)),
            ),
            (
                "len".to_owned(),
                ArgValue::EdgeProp(weights(g).into_iter().map(Value::Int).collect()),
            ),
        ]),
        "bipartite" => HashMap::from([(
            "is_boy".to_owned(),
            ArgValue::NodeProp(boy_marks(g).into_iter().map(Value::Bool).collect()),
        )]),
        "bc" => HashMap::from([("K".to_owned(), ArgValue::Scalar(Value::Int(4)))]),
        other => panic!("unknown algorithm {other}"),
    }
}

/// Wall-clock of `f`, minimum over `reps` runs (the usual benchmarking
/// guard against scheduler noise), plus the metrics of the last run.
fn time_min(reps: usize, mut f: impl FnMut() -> Metrics) -> (Duration, Metrics) {
    let mut best = Duration::MAX;
    let mut metrics = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let m = f();
        best = best.min(start.elapsed());
        metrics = Some(m);
    }
    (best, metrics.expect("at least one rep"))
}

/// **Table 1**: the input graphs, with each one's degree skew.
fn table1(config: &PregelConfig, _trace: Option<&Path>) {
    println!(
        "Table 1: input graphs (synthetic stand-ins, GM_SCALE={})",
        std::env::var("GM_SCALE").unwrap_or_else(|_| "1.0".into())
    );
    println!(
        "{:<12} {:>10} {:>12} {:>8}  Stands in for",
        "Name", "Nodes", "Edges", "m/n"
    );
    for w in table1_graphs(config.tracer.as_ref()) {
        let (g, n, m) = (&w.graph, w.graph.num_nodes(), w.graph.num_edges());
        println!(
            "{:<12} {:>10} {:>12} {:>8.1}  {}",
            w.name,
            n,
            m,
            m as f64 / n as f64,
            w.paper_desc
        );
        // Shape summary: max degree vs mean (power-law graphs are skewed).
        let max_out = g.nodes().map(|v| g.out_degree(v)).max().unwrap_or(0);
        let max_in = g.nodes().map(|v| g.in_degree(v)).max().unwrap_or(0);
        println!(
            "{:<12} {:>10} {:>12} (max out-degree {max_out}, max in-degree {max_in})",
            "", "", ""
        );
    }
}

/// The paper's Table 2 numbers: (label, Green-Marl LoC, native GPS LoC).
const TABLE2_PAPER: [(&str, usize, Option<usize>); 6] = [
    ("Average Teenage Follower (AvgTeen)", 13, Some(130)),
    ("PageRank", 19, Some(110)),
    ("Conductance (Conduct)", 12, Some(149)),
    ("Single Source Shortest Paths (SSSP)", 29, Some(105)),
    ("Random Bipartite Matching (Bipartite)", 47, Some(225)),
    ("Approximate Betweenness Centrality (BC)", 25, None),
];

/// **Table 2**: lines of code, the Green-Marl program against the
/// generated GPS-style program, next to the paper's numbers.
///
/// The paper compares Green-Marl LoC against *hand-written* GPS Java; this
/// reports the *generated* GPS-style Java LoC, which §5.2 argues is
/// structurally the same program a programmer would write. The shape to
/// verify: the DSL is one order of magnitude terser.
fn table2(config: &PregelConfig, _trace: Option<&Path>) {
    println!("Table 2: lines of code (non-blank, non-comment)");
    println!(
        "{:<42} {:>8} {:>8} | {:>9} {:>10}",
        "Algorithm", "GM (ours)", "GPS gen.", "GM paper", "GPS paper"
    );
    for ((name, src), (plabel, p_gm, p_gps)) in sources::ALL.iter().zip(TABLE2_PAPER) {
        assert_eq!(*name, plabel, "row order must match the paper");
        let compiled = compile_with(src, &CompileOptions::default(), config.tracer.as_ref())
            .expect("embedded source compiles");
        let java = emit_java(&compiled.program).expect("verified PIR lowers");
        println!(
            "{:<42} {:>8} {:>8} | {:>9} {:>10}",
            name,
            sources::loc(src),
            count_loc(&java),
            p_gm,
            p_gps.map_or("N/A".to_owned(), |v| v.to_string()),
        );
    }
    println!("\n(The paper's GPS column counts hand-written Java; ours counts the");
    println!(" generated GPS-style Java — §5.2 argues they are the same program.)");
}

/// **Table 3**: the ✓-matrix of compiler transformations applied per
/// algorithm, straight from the compiler's transformation report.
fn table3(config: &PregelConfig, _trace: Option<&Path>) {
    let reports: Vec<_> = (sources::ALL.iter())
        .map(|(_, src)| {
            compile_with(src, &CompileOptions::default(), config.tracer.as_ref())
                .expect("embedded source compiles")
                .report
        })
        .collect();

    println!("Table 3: compiler transformations applied per algorithm");
    print!("{:<22}", "Transformation");
    for c in ["AvgTeen", "PageRank", "Conduct", "SSSP", "Bipartite", "BC"] {
        print!(" {c:>9}");
    }
    println!();
    for step in Step::ALL {
        print!("{:<22}", step.label());
        for report in &reports {
            print!(" {:>9}", if report.applied(step) { "\u{2713}" } else { "" });
        }
        println!();
    }
}

/// One Figure 6 row: the generated program on both backends against the
/// manual baseline, each as (fastest run in ms, metrics of the last run).
struct Row {
    algorithm: &'static str,
    graph: &'static str,
    generated: (f64, Metrics),
    native: (f64, Metrics),
    manual: (f64, Metrics),
}

/// The compiled-in `rustgen` module for an algorithm key of [`args_for`].
fn native_entry(alg: &str) -> &'static native::NativeAlgorithm {
    let stem = match alg {
        "bipartite" => "bipartite_matching",
        "bc" => "bc_approx",
        other => other,
    };
    (native::ALL.iter())
        .find(|a| a.stem == stem)
        .unwrap_or_else(|| panic!("no native module for workload {alg}"))
}

/// Times the hand-written baseline of `alg`, building its inputs outside
/// the timed runs.
fn time_manual(alg: &str, g: &Graph, cfg: &PregelConfig, reps: usize) -> (Duration, Metrics) {
    match alg {
        "avg_teen" => {
            let ages = ages(g);
            time_min(reps, || {
                (manual::run_avg_teen(g, &ages, 25, cfg).expect("manual run")).metrics
            })
        }
        "pagerank" => time_min(reps, || {
            (manual::run_pagerank(g, 1e-9, 0.85, 10, cfg).expect("manual run")).metrics
        }),
        "conductance" => {
            let member = membership(g);
            time_min(reps, || {
                (manual::run_conductance(g, &member, cfg).expect("manual run")).metrics
            })
        }
        "sssp" => {
            let ws = weights(g);
            time_min(reps, || {
                (manual::run_sssp(g, sssp_root(g), &ws, cfg).expect("manual run")).metrics
            })
        }
        "bipartite" => {
            let marks = boy_marks(g);
            time_min(reps, || {
                (manual::run_bipartite_matching(g, &marks, cfg).expect("manual run")).metrics
            })
        }
        other => panic!("no manual baseline for {other}"),
    }
}

/// **Figure 6**: run-time of compiler-generated Pregel programs normalized
/// against the manual implementations, for five algorithms on the three
/// Table 1 graphs, plus the paper's structural observation that timesteps
/// and network I/O match exactly (asserted for every row).
///
/// The generated side runs both interpreted, traced, and natively; the
/// native and manual runs are untraced. `--checkpoint-every N` puts the
/// snapshot overhead into every measured time; each leg of each cell
/// snapshots into its own subdirectory of `--checkpoint-dir`. Every cell
/// pushes by default, as the manual baselines must; `GM_SCHEDULE=auto|pull` lets
/// the generated cells gather (structural parity must hold regardless,
/// since the gather is metered identically).
///
/// SIGINT/SIGTERM shut down gracefully: the current workload finishes,
/// remaining workloads are skipped, and the partial table and trace are
/// still flushed before exit.
fn figure6(config: &PregelConfig, trace: Option<&Path>) {
    gm_obs::signal::install();
    let reps = env_or("GM_REPS", 3);
    let untraced = PregelConfig {
        tracer: None,
        ..config.clone()
    };
    let ms = |(t, m): (Duration, Metrics)| (t.as_secs_f64() * 1e3, m);
    let mut rows: Vec<Row> = Vec::new();
    for w in &table1_graphs(config.tracer.as_ref()) {
        if gm_obs::signal::requested() {
            eprintln!(
                "figure6: shutdown requested, skipping remaining workloads ({} rows measured)",
                rows.len()
            );
            break;
        }
        let g = &w.graph;
        // Bipartite matching only runs on the bipartite graph (as in the
        // paper, which pairs it with the synthetic random graph).
        let cells: &[(&str, &str)] = if w.name == "bipartite" {
            &[("Bipartite", "bipartite")]
        } else {
            &[
                ("AvgTeen", "avg_teen"),
                ("PageRank", "pagerank"),
                ("Conduct", "conductance"),
                ("SSSP", "sssp"),
            ]
        };
        for &(algorithm, alg) in cells {
            let nat = native_entry(alg);
            let args = args_for(alg, g);
            let run_cfg = |config: &PregelConfig, leg: &str| {
                for_run(config, &format!("{alg}.{}.{leg}", w.name))
            };
            let (interp_cfg, native_cfg, manual_cfg) = (
                run_cfg(config, "interp"),
                run_cfg(&untraced, "native"),
                run_cfg(&untraced, "manual"),
            );
            let compiled = compile_with(
                nat.source,
                &CompileOptions::default(),
                config.tracer.as_ref(),
            )
            .expect("embedded source compiles");
            let generated = ms(time_min(reps, || {
                (run_compiled(g, &compiled, &args, 7, &interp_cfg).expect("generated run")).metrics
            }));
            if let Some(trace) = trace {
                let dest = super::beside(trace, &format!("{alg}.{}.metrics.json", w.name));
                std::fs::write(&dest, generated.1.to_json())
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", dest.display()));
            }
            let native = ms(time_min(reps, || {
                ((nat.run)(g, &args, 7, &native_cfg).expect("native run")).metrics
            }));
            let manual = ms(time_manual(alg, g, &manual_cfg, reps));
            rows.push(Row {
                algorithm,
                graph: w.name,
                generated,
                native,
                manual,
            });
        }
    }

    println!("Figure 6: generated (interp + native) vs manual Pregel (normalized run-time)");
    println!(
        "schedule: {:?} (GM_SCHEDULE; dense threshold {})",
        config.schedule, config.dense_threshold
    );
    println!(
        "{:<10} {:<10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>12} {:>14}",
        "Algorithm",
        "Graph",
        "interp",
        "native",
        "manual",
        "int/man",
        "nat/man",
        "supersteps",
        "net I/O match"
    );
    let mut all_structural_match = true;
    for r in &rows {
        let ((gen_ms, gen), (nat_ms, nat), (man_ms, man)) = (&r.generated, &r.native, &r.manual);
        let steps_match = gen.supersteps == man.supersteps && nat.supersteps == man.supersteps;
        let bytes_match = gen.total_message_bytes == man.total_message_bytes
            && nat.total_message_bytes == man.total_message_bytes;
        all_structural_match &= steps_match && bytes_match;
        println!(
            "{:<10} {:<10} {:>10.1} {:>10.1} {:>10.1} {:>8.2} {:>8.2} {:>5}={:<5} {:>9}={:<9}",
            r.algorithm,
            r.graph,
            gen_ms,
            nat_ms,
            man_ms,
            gen_ms / man_ms,
            nat_ms / man_ms,
            gen.supersteps,
            man.supersteps,
            gen.total_message_bytes,
            man.total_message_bytes,
        );
        assert!(steps_match, "{}/{}: timesteps differ", r.algorithm, r.graph);
        assert!(
            bytes_match,
            "{}/{}: network I/O differs",
            r.algorithm, r.graph
        );
        assert_eq!(
            nat.total_messages, gen.total_messages,
            "{}/{}: native message count diverged from the interpreter",
            r.algorithm, r.graph
        );
    }
    // Printed for every schedule (all-push runs show pull 0/N with no
    // switches), so the columns are grep-stable across configurations.
    println!();
    println!("Per-superstep direction decisions (generated side, `^` = gathered):");
    for r in &rows {
        let gen = &r.generated.1;
        let directions: String = (gen.per_superstep.iter())
            .map(|s| if s.pulled { '^' } else { '.' })
            .collect();
        println!(
            "  {:<10} {:<10} pull {:>3}/{:<3} switches {:>2}  [{directions}]",
            r.algorithm, r.graph, gen.pull_supersteps, gen.supersteps, gen.direction_switches,
        );
    }
    println!();
    println!("Per-phase wall-clock, milliseconds (gen / man, last rep):");
    println!(
        "{:<10} {:<10} {:>15} {:>15} {:>15} {:>15}",
        "Algorithm", "Graph", "compute", "combine", "exchange", "master"
    );
    let phase_ms = |m: &Metrics| {
        [
            m.compute_time,
            m.combine_time,
            m.exchange_time,
            m.master_time,
        ]
        .map(|d| d.as_secs_f64() * 1e3)
    };
    for r in &rows {
        let (g, m) = (phase_ms(&r.generated.1), phase_ms(&r.manual.1));
        println!(
            "{:<10} {:<10} {:>7.1} /{:>6.1} {:>7.1} /{:>6.1} {:>7.1} /{:>6.1} {:>7.1} /{:>6.1}",
            r.algorithm, r.graph, g[0], m[0], g[1], m[1], g[2], m[2], g[3], m[3],
        );
    }
    println!();
    println!(
        "structural parity (paper: 'exact same number of timesteps … exact same network I/O'): {}",
        if all_structural_match {
            "EXACT"
        } else {
            "VIOLATED"
        }
    );
    println!("note: paper ratios were 0.92–1.35 (generated Java vs manual Java on a JVM).");
    println!("the interp column runs the PIR state machine (interpretation tax included);");
    println!("the native column is `gmc emit-rust` output compiled into this binary, the");
    println!("apples-to-apples analogue of the paper's generated Java — see EXPERIMENTS.md.");
}

/// **The §5.1 Betweenness Centrality result**: the compiler turns the
/// 25-line Green-Marl program of Fig. 4 into a Pregel program whose manual
/// implementation would be prohibitively difficult — the paper reports
/// nine vertex-centric kernels and four message types. This reports the
/// structure, runs it on the Table 1 graphs and checks it against a
/// sequential Brandes oracle.
fn bc_report(config: &PregelConfig, _trace: Option<&Path>) {
    let compiled = compile_with(
        sources::BC_APPROX,
        &CompileOptions::default(),
        config.tracer.as_ref(),
    )
    .expect("embedded source compiles");
    let p = &compiled.program;
    // The tagged wire format counts the in-neighbor preamble as one more
    // distinct message kind, which is how the paper's four types add up.
    let wire_types = p.num_message_types() + usize::from(p.uses_in_nbrs);
    println!("Approximate Betweenness Centrality — compiled structure");
    println!(
        "  Green-Marl LoC:        {}",
        sources::loc(sources::BC_APPROX)
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
    for w in table1_graphs(config.tracer.as_ref()) {
        if w.name == "bipartite" {
            continue; // BC on the two connected-ish graphs, as a spot check
        }
        let g = &w.graph;
        let args = args_for("bc", g);
        let run_cfg = for_run(config, &format!("bc.{}.interp", w.name));
        let start = Instant::now();
        let out = run_compiled(g, &compiled, &args, seed, &run_cfg).expect("bc runs");
        let elapsed = start.elapsed();
        let (_, ref_sum) = reference::bc_approx(g, k, seed);
        let got = out.ret.expect("bc returns a sum").as_f64();
        let matches = (got - ref_sum).abs() < 1e-9 * ref_sum.abs().max(1.0);
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
            if matches { "yes" } else { "NO" }
        );
        assert!(matches, "BC mismatch on {}", w.name);
    }
}

/// The §4.2 optimization levels the ablation compares.
const ABLATION_LEVELS: [(&str, CompileOptions); 3] = [
    (
        "none",
        CompileOptions {
            state_merging: false,
            intra_loop_merging: false,
        },
    ),
    (
        "merge",
        CompileOptions {
            state_merging: true,
            intra_loop_merging: false,
        },
    ),
    (
        "merge+intra",
        CompileOptions {
            state_merging: true,
            intra_loop_merging: true,
        },
    ),
];

/// **Ablation** of the §4.2 optimizations: supersteps, messages and run
/// time of each generated program with State Merging and Intra-Loop State
/// Merging toggled. The paper motivates the first two as
/// timestep reducers; this quantifies them on every algorithm.
fn ablation(config: &PregelConfig, _trace: Option<&Path>) {
    let algorithms: [(&str, &str); 6] = [
        ("avg_teen", sources::AVG_TEEN),
        ("pagerank", sources::PAGERANK),
        ("conductance", sources::CONDUCTANCE),
        ("sssp", sources::SSSP),
        ("bipartite", sources::BIPARTITE_MATCHING),
        ("bc", sources::BC_APPROX),
    ];
    let workloads = table1_graphs(config.tracer.as_ref());
    println!("Ablation: supersteps / run-time by optimization level");
    let [none, merge, intra] = ABLATION_LEVELS.map(|(level, _)| level);
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>12}",
        "Algorithm", "Graph", none, merge, intra
    );
    for (alg, src) in algorithms {
        for w in &workloads {
            // Pair each algorithm with its natural graph, like Figure 6.
            if (alg == "bipartite") != (w.name == "bipartite") {
                continue;
            }
            let g = &w.graph;
            let args = args_for(alg, g);
            let cells = ABLATION_LEVELS.map(|(level, opts)| {
                let compiled = compile_with(src, &opts, config.tracer.as_ref())
                    .expect("embedded source compiles");
                let run_cfg = for_run(config, &format!("{alg}.{}.{level}", w.name));
                let start = Instant::now();
                let out = run_compiled(g, &compiled, &args, 7, &run_cfg).expect("run");
                format!(
                    "{}ss/{}m/{:.0}ms",
                    out.metrics.supersteps,
                    out.metrics.total_messages,
                    start.elapsed().as_secs_f64() * 1e3
                )
            });
            println!(
                "{:<12} {:<12} {:>12} {:>12} {:>12}",
                alg, w.name, cells[0], cells[1], cells[2]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_paper_ratios() {
        let ws = table1_graphs(None);
        assert_eq!(ws.len(), 3);
        let tw = &ws[0];
        let ratio = tw.graph.num_edges() as f64 / tw.graph.num_nodes() as f64;
        assert!((ratio - 36.0).abs() < 1.0, "twitter ratio {ratio}");
        let bi = &ws[1];
        let ratio = bi.graph.num_edges() as f64 / bi.graph.num_nodes() as f64;
        assert!((ratio - 20.0).abs() < 1.0, "bipartite ratio {ratio}");
        let sk = &ws[2];
        let ratio = sk.graph.num_edges() as f64 / sk.graph.num_nodes() as f64;
        assert!((ratio - 37.0).abs() < 1.5, "sk ratio {ratio}");
    }

    #[test]
    fn args_cover_all_algorithms() {
        let g = gen::rmat(100, 600, 1);
        for alg in ["avg_teen", "pagerank", "conductance", "sssp", "bc"] {
            assert!(!args_for(alg, &g).is_empty() || alg == "bc");
        }
        let b = gen::bipartite(20, 20, 80, 1);
        assert!(args_for("bipartite", &b).len() == 1);
    }

    #[test]
    fn boy_marks_follow_out_edges() {
        let b = gen::bipartite(10, 12, 50, 3);
        let marks = boy_marks(&b);
        for (i, m) in marks.iter().enumerate() {
            if *m {
                assert!(i < 10, "girls never have out-edges");
            }
        }
    }
}
