//! Reproduces **Figure 6** — run-time of compiler-generated Pregel programs
//! normalized against the manual implementations, for five algorithms on
//! the three Table 1 graphs, plus the paper's structural observation that
//! timesteps and network I/O match exactly.
//!
//! Run with `--release`; `GM_SCALE` grows the graphs, `GM_REPS` sets the
//! repetition count (default 3, minimum is taken). `--trace <path>`
//! (plus `--trace-format jsonl|chrome`) writes an event log covering
//! graph generation, every compile, and every generated-side run, and
//! drops a `<stem>.<alg>.<graph>.metrics.json` next to it per row.
//! `--checkpoint-every N` (with `--checkpoint-dir`/`--keep-snapshots`)
//! checkpoints every run, putting the snapshot overhead into the measured
//! times — handy for the fault-tolerance cost table in EXPERIMENTS.md.
//! Every cell pushes by default, as the manual baselines must;
//! `GM_SCHEDULE=auto|pull` lets the generated cells gather (the schedule
//! line and per-superstep direction decisions are printed; structural
//! parity must hold regardless, since the gather is metered identically).
//!
//! SIGINT/SIGTERM shut down gracefully: the current workload finishes,
//! remaining workloads are skipped, and the partial table and trace are
//! still flushed before exit.

use gm_algorithms::{manual, sources};
use gm_bench::{
    args_for, bench_config, boy_marks, sssp_root, table1_graphs_traced, time_min, weights,
    CkptArgs, TraceArgs,
};
use gm_core::CompileOptions;
use gm_graph::Graph;
use gm_interp::run_compiled;
use gm_obs::Tracer;
use gm_pregel::Metrics;

fn reps() -> usize {
    std::env::var("GM_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

struct Row {
    algorithm: &'static str,
    graph: &'static str,
    generated_ms: f64,
    native_ms: f64,
    manual_ms: f64,
    generated: Metrics,
    native: Metrics,
    manual: Metrics,
}

fn run_generated(
    alg: &'static str,
    src: &str,
    g: &Graph,
    tracer: Option<&Tracer>,
    ckpt: &CkptArgs,
) -> (f64, Metrics) {
    let compiled = gm_bench::compile_source_with(src, &CompileOptions::default(), tracer);
    let args = args_for(alg, g);
    let mut cfg = ckpt.apply(bench_config());
    if let Some(t) = tracer {
        cfg = cfg.with_tracer(t.clone());
    }
    let (t, m) = time_min(reps(), || {
        let out = run_compiled(g, &compiled, &args, 7, &cfg).expect("generated run");
        ((), out.metrics)
    });
    (t.as_secs_f64() * 1e3, m)
}

/// The compiled-in `rustgen` module for a bench workload key.
fn native_entry(alg: &str) -> &'static gm_algorithms::native::NativeAlgorithm {
    let stem = match alg {
        "bipartite" => "bipartite_matching",
        "bc" => "bc_approx",
        other => other,
    };
    gm_algorithms::native::ALL
        .iter()
        .find(|a| a.stem == stem)
        .unwrap_or_else(|| panic!("no native module for workload {alg}"))
}

/// Times the native (`gmc emit-rust`) backend on the same workload.
fn run_native(alg: &'static str, g: &Graph, ckpt: &CkptArgs) -> (f64, Metrics) {
    let native = native_entry(alg);
    let args = args_for(alg, g);
    let cfg = ckpt.apply(bench_config());
    let (t, m) = time_min(reps(), || {
        let out = (native.run)(g, &args, 7, &cfg).expect("native run");
        ((), out.metrics)
    });
    (t.as_secs_f64() * 1e3, m)
}

fn main() {
    let trace = TraceArgs::from_env();
    let ckpt = CkptArgs::from_env();
    gm_obs::signal::install();
    let tracer = trace.tracer();
    let tracer = tracer.as_ref();
    let workloads = table1_graphs_traced(tracer);
    let mut rows: Vec<Row> = Vec::new();
    let cfg = ckpt.apply(bench_config());

    for w in &workloads {
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
        if w.name == "bipartite" {
            let marks = boy_marks(g);
            let (gen_ms, gen_m) =
                run_generated("bipartite", sources::BIPARTITE_MATCHING, g, tracer, &ckpt);
            trace.write_metrics_json(&format!("bipartite.{}", w.name), &gen_m);
            let (nat_ms, nat_m) = run_native("bipartite", g, &ckpt);
            let (man_t, man_m) = time_min(reps(), || {
                let out = manual::run_bipartite_matching(g, &marks, &cfg).expect("manual run");
                ((), out.metrics)
            });
            rows.push(Row {
                algorithm: "Bipartite",
                graph: w.name,
                generated_ms: gen_ms,
                native_ms: nat_ms,
                manual_ms: man_t.as_secs_f64() * 1e3,
                generated: gen_m,
                native: nat_m,
                manual: man_m,
            });
            continue;
        }

        let ages = gm_bench::ages(g);
        let (gen_ms, gen_m) = run_generated("avg_teen", sources::AVG_TEEN, g, tracer, &ckpt);
        trace.write_metrics_json(&format!("avg_teen.{}", w.name), &gen_m);
        let (nat_ms, nat_m) = run_native("avg_teen", g, &ckpt);
        let (man_t, man_m) = time_min(reps(), || {
            let out = manual::run_avg_teen(g, &ages, 25, &cfg).expect("manual run");
            ((), out.metrics)
        });
        rows.push(Row {
            algorithm: "AvgTeen",
            graph: w.name,
            generated_ms: gen_ms,
            native_ms: nat_ms,
            manual_ms: man_t.as_secs_f64() * 1e3,
            generated: gen_m,
            native: nat_m,
            manual: man_m,
        });

        let (gen_ms, gen_m) = run_generated("pagerank", sources::PAGERANK, g, tracer, &ckpt);
        trace.write_metrics_json(&format!("pagerank.{}", w.name), &gen_m);
        let (nat_ms, nat_m) = run_native("pagerank", g, &ckpt);
        let (man_t, man_m) = time_min(reps(), || {
            let out = manual::run_pagerank(g, 1e-9, 0.85, 10, &cfg).expect("manual run");
            ((), out.metrics)
        });
        rows.push(Row {
            algorithm: "PageRank",
            graph: w.name,
            generated_ms: gen_ms,
            native_ms: nat_ms,
            manual_ms: man_t.as_secs_f64() * 1e3,
            generated: gen_m,
            native: nat_m,
            manual: man_m,
        });

        let member = gm_bench::membership(g);
        let (gen_ms, gen_m) = run_generated("conductance", sources::CONDUCTANCE, g, tracer, &ckpt);
        trace.write_metrics_json(&format!("conductance.{}", w.name), &gen_m);
        let (nat_ms, nat_m) = run_native("conductance", g, &ckpt);
        let (man_t, man_m) = time_min(reps(), || {
            let out = manual::run_conductance(g, &member, &cfg).expect("manual run");
            ((), out.metrics)
        });
        rows.push(Row {
            algorithm: "Conduct",
            graph: w.name,
            generated_ms: gen_ms,
            native_ms: nat_ms,
            manual_ms: man_t.as_secs_f64() * 1e3,
            generated: gen_m,
            native: nat_m,
            manual: man_m,
        });

        let ws = weights(g);
        let (gen_ms, gen_m) = run_generated("sssp", sources::SSSP, g, tracer, &ckpt);
        trace.write_metrics_json(&format!("sssp.{}", w.name), &gen_m);
        let (nat_ms, nat_m) = run_native("sssp", g, &ckpt);
        let (man_t, man_m) = time_min(reps(), || {
            let out = manual::run_sssp(g, sssp_root(g), &ws, &cfg).expect("manual run");
            ((), out.metrics)
        });
        rows.push(Row {
            algorithm: "SSSP",
            graph: w.name,
            generated_ms: gen_ms,
            native_ms: nat_ms,
            manual_ms: man_t.as_secs_f64() * 1e3,
            generated: gen_m,
            native: nat_m,
            manual: man_m,
        });
    }

    println!("Figure 6: generated (interp + native) vs manual Pregel (normalized run-time)");
    println!(
        "schedule: {:?} (GM_SCHEDULE; dense threshold {})",
        cfg.schedule, cfg.dense_threshold
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
        let steps_match = r.generated.supersteps == r.manual.supersteps
            && r.native.supersteps == r.manual.supersteps;
        let bytes_match = r.generated.total_message_bytes == r.manual.total_message_bytes
            && r.native.total_message_bytes == r.manual.total_message_bytes;
        all_structural_match &= steps_match && bytes_match;
        println!(
            "{:<10} {:<10} {:>10.1} {:>10.1} {:>10.1} {:>8.2} {:>8.2} {:>5}={:<5} {:>9}={:<9}",
            r.algorithm,
            r.graph,
            r.generated_ms,
            r.native_ms,
            r.manual_ms,
            r.generated_ms / r.manual_ms,
            r.native_ms / r.manual_ms,
            r.generated.supersteps,
            r.manual.supersteps,
            r.generated.total_message_bytes,
            r.manual.total_message_bytes,
        );
        assert!(steps_match, "{}/{}: timesteps differ", r.algorithm, r.graph);
        assert!(
            bytes_match,
            "{}/{}: network I/O differs",
            r.algorithm, r.graph
        );
        assert_eq!(
            r.native.total_messages, r.generated.total_messages,
            "{}/{}: native message count diverged from the interpreter",
            r.algorithm, r.graph
        );
    }
    // Printed for every schedule (all-push runs show pull 0/N with no
    // switches), so the columns are grep-stable across configurations.
    println!();
    println!("Per-superstep direction decisions (generated side, `^` = gathered):");
    for r in &rows {
        println!(
            "  {:<10} {:<10} pull {:>3}/{:<3} switches {:>2}  [{}]",
            r.algorithm,
            r.graph,
            r.generated.pull_supersteps,
            r.generated.supersteps,
            r.generated.direction_switches,
            gm_bench::direction_string(&r.generated),
        );
    }
    println!();
    println!("Per-phase wall-clock, milliseconds (gen / man, last rep):");
    println!(
        "{:<10} {:<10} {:>15} {:>15} {:>15} {:>15}",
        "Algorithm", "Graph", "compute", "combine", "exchange", "master"
    );
    for r in &rows {
        let g = gm_bench::phase_ms(&r.generated);
        let m = gm_bench::phase_ms(&r.manual);
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
    if let Some(t) = tracer {
        t.finish().expect("finish trace");
    }
}
