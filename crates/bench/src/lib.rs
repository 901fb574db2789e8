//! Shared harness pieces for the table/figure reproduction binaries.
//!
//! The paper's input graphs (Table 1) are proprietary billion-edge data
//! sets; the harness substitutes seeded synthetic graphs with the same
//! *shapes* and edge:vertex ratios, scaled to laptop memory (see
//! DESIGN.md). Set `GM_SCALE` (default `1.0`) to grow or shrink every
//! workload proportionally.

use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::{compile_with, CompileOptions, Compiled};
use gm_graph::{gen, Graph};
use gm_obs::{Category, TraceFormat, Tracer};
use gm_pregel::{CheckpointConfig, Metrics, PregelConfig, RecoveryPolicy, Schedule, ENV_SCHEDULE};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A Table 1 input graph, scaled.
pub struct Workload {
    /// Short name used in tables.
    pub name: &'static str,
    /// What the paper used.
    pub paper_desc: &'static str,
    /// The generated stand-in.
    pub graph: Graph,
}

/// Baseline scale factor (vertices of the twitter-like graph at scale 1).
const BASE_TWITTER_N: f64 = 30_000.0;

fn scale() -> f64 {
    std::env::var("GM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Builds the three Table 1 stand-ins at the configured scale.
///
/// | name | paper graph | shape | edge:vertex |
/// |---|---|---|---|
/// | twitter | Twitter follower network (42M/1.5B) | R-MAT power law | 36:1 |
/// | bipartite | synthetic uniform random (75M/1.5B) | uniform bipartite | 20:1 |
/// | sk-2005 | .sk web crawl (51M/1.9B) | copying model | 37:1 |
pub fn table1_graphs() -> Vec<Workload> {
    table1_graphs_traced(None)
}

/// [`table1_graphs`], emitting one bench-category span per generated
/// graph into `tracer` (when given) with the resulting node/edge counts.
pub fn table1_graphs_traced(tracer: Option<&Tracer>) -> Vec<Workload> {
    let s = scale();
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
pub fn ages(g: &Graph) -> Vec<i64> {
    (0..g.num_nodes() as i64).map(|i| (i * 37) % 85).collect()
}

/// Deterministic membership marks for Conductance.
pub fn membership(g: &Graph) -> Vec<bool> {
    (0..g.num_nodes()).map(|i| i % 3 == 0).collect()
}

/// Deterministic edge weights for SSSP.
pub fn weights(g: &Graph) -> Vec<i64> {
    (0..g.num_edges() as i64)
        .map(|i| 1 + (i * 13) % 31)
        .collect()
}

/// SSSP root with good forward reachability: the vertex with the largest
/// out-degree (vertex 0 of the copying-model web graph reaches almost
/// nothing, and high-id R-MAT vertices are often isolated).
pub fn sssp_root(g: &Graph) -> gm_graph::NodeId {
    g.nodes()
        .max_by_key(|&n| g.out_degree(n))
        .unwrap_or(gm_graph::NodeId(0))
}

/// Side marks for bipartite matching (only valid on the bipartite graph).
pub fn boy_marks(g: &Graph) -> Vec<bool> {
    // gen::bipartite puts the left side first and all edges point left→right;
    // vertices with out-edges are the proposing side.
    g.nodes().map(|n| g.out_degree(n) > 0).collect()
}

/// Compiles one of the six embedded sources with the given options.
///
/// # Panics
///
/// Panics if the source does not compile — the sources are tested.
pub fn compile_source(src: &str, options: &CompileOptions) -> Compiled {
    compile_source_with(src, options, None)
}

/// [`compile_source`], re-emitting the per-pass timings into `tracer`.
///
/// # Panics
///
/// Panics if the source does not compile — the sources are tested.
pub fn compile_source_with(
    src: &str,
    options: &CompileOptions,
    tracer: Option<&Tracer>,
) -> Compiled {
    compile_with(src, options, tracer).expect("embedded source compiles")
}

/// The `--trace <path> [--trace-format jsonl|chrome]` surface shared by
/// the reproduction binaries. Unknown flags are ignored so each binary
/// keeps its own argument handling. Without an explicit format, a single
/// run tees into *both*: JSONL at `<path>` plus a Chrome Trace file at
/// `<stem>.chrome.json` next to it (drag into Perfetto).
#[derive(Debug, Default)]
pub struct TraceArgs {
    /// Destination of the event log, if tracing was requested.
    pub path: Option<PathBuf>,
    /// Serialization format; `None` means JSONL + Chrome side-by-side.
    pub format: Option<TraceFormat>,
}

impl TraceArgs {
    /// Parses `--trace`/`--trace-format` out of the process arguments.
    ///
    /// Exits with status 2 on a `--trace-format` value other than
    /// `jsonl`/`chrome`, or on a flag with its value missing.
    pub fn from_env() -> TraceArgs {
        let usage = |msg: &str| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        let mut out = TraceArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => {
                    let Some(p) = args.next() else {
                        usage("--trace needs a path");
                    };
                    out.path = Some(PathBuf::from(p));
                }
                "--trace-format" => {
                    let Some(f) = args.next() else {
                        usage("--trace-format needs a value");
                    };
                    out.format = Some(f.parse().unwrap_or_else(|e: String| usage(&e)));
                }
                _ => {}
            }
        }
        out
    }

    /// Opens the tracer, or `None` when `--trace` was not given.
    ///
    /// # Panics
    ///
    /// Panics if a trace file cannot be created.
    pub fn tracer(&self) -> Option<Tracer> {
        let path = self.path.as_ref()?;
        let tracer = match self.format {
            Some(format) => Tracer::to_file(path, format),
            None => {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("run");
                let chrome = path
                    .parent()
                    .unwrap_or(Path::new("."))
                    .join(format!("{stem}.chrome.json"));
                Tracer::to_files(&[
                    (path.clone(), TraceFormat::Jsonl),
                    (chrome, TraceFormat::Chrome),
                ])
            }
        };
        Some(tracer.unwrap_or_else(|e| panic!("cannot open trace file {}: {e}", path.display())))
    }

    /// Writes `metrics` as JSON to `<trace stem>.<name>.metrics.json`
    /// next to the trace file. No-op when tracing is off.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_metrics_json(&self, name: &str, metrics: &Metrics) {
        let Some(trace) = &self.path else { return };
        let stem = trace.file_stem().and_then(|s| s.to_str()).unwrap_or("run");
        let file = format!("{stem}.{name}.metrics.json");
        let dest = trace.parent().unwrap_or(Path::new(".")).join(file);
        std::fs::write(&dest, metrics.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", dest.display()));
    }
}

/// The `--checkpoint-every N [--checkpoint-dir <path>] [--resume]
/// [--keep-snapshots N] [--max-restarts N]` surface shared by the
/// reproduction binaries, mirroring [`TraceArgs`]. Unknown flags are
/// ignored so each binary keeps its own argument handling.
#[derive(Debug, Default)]
pub struct CkptArgs {
    /// Snapshot interval in supersteps; `None` disables checkpointing.
    pub every: Option<u32>,
    /// Snapshot directory (defaults to `gm-ckpt` under the temp dir).
    pub dir: Option<PathBuf>,
    /// Resume from the newest valid snapshot in `dir`.
    pub resume: bool,
    /// Keep only the newest N snapshots (0 = keep all).
    pub keep: usize,
    /// Restart budget for the recovery supervisor.
    pub max_restarts: Option<u32>,
}

impl CkptArgs {
    /// Parses the checkpoint flags out of the process arguments.
    ///
    /// Exits with status 2 on a flag with a missing or non-numeric value.
    pub fn from_env() -> CkptArgs {
        let usage = |msg: &str| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        let mut out = CkptArgs::default();
        let mut args = std::env::args().skip(1);
        let num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
            match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => v,
                Some(Err(_)) => usage(&format!("{flag} needs a number")),
                None => usage(&format!("{flag} needs a value")),
            }
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--checkpoint-every" => {
                    out.every = Some(num(&mut args, "--checkpoint-every") as u32);
                }
                "--checkpoint-dir" => match args.next() {
                    Some(p) => out.dir = Some(PathBuf::from(p)),
                    None => usage("--checkpoint-dir needs a path"),
                },
                "--resume" => out.resume = true,
                "--keep-snapshots" => {
                    out.keep = num(&mut args, "--keep-snapshots") as usize;
                }
                "--max-restarts" => {
                    out.max_restarts = Some(num(&mut args, "--max-restarts") as u32);
                }
                _ => {}
            }
        }
        out
    }

    /// Applies the parsed flags to `config`: attaches a
    /// [`CheckpointConfig`] when `--checkpoint-every` was given (with
    /// `--resume`/`--keep-snapshots` folded in) and a [`RecoveryPolicy`]
    /// when `--max-restarts` was given.
    pub fn apply(&self, mut config: PregelConfig) -> PregelConfig {
        if let Some(every) = self.every {
            let dir = self
                .dir
                .clone()
                .unwrap_or_else(|| std::env::temp_dir().join("gm-ckpt"));
            config = config.with_checkpoints(
                CheckpointConfig::new(dir, every)
                    .with_resume(self.resume)
                    .with_keep(self.keep),
            );
        }
        if let Some(n) = self.max_restarts {
            config = config.with_recovery(RecoveryPolicy::with_max_restarts(n));
        }
        config
    }
}

/// Argument map for a compiled algorithm on graph `g`.
pub fn args_for(alg: &str, g: &Graph) -> HashMap<String, ArgValue> {
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
pub fn time_min<T>(reps: usize, mut f: impl FnMut() -> (T, Metrics)) -> (Duration, Metrics) {
    let mut best = Duration::MAX;
    let mut metrics = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (_, m) = f();
        best = best.min(start.elapsed());
        metrics = Some(m);
    }
    (best, metrics.expect("at least one rep"))
}

/// The default Pregel configuration for benchmarking (multi-threaded).
///
/// The manual baselines cannot gather, so the paper artifacts push unless
/// `GM_SCHEDULE` asks for a direction: generated and manual cells then
/// move their messages the same way.
pub fn bench_config() -> PregelConfig {
    let mut config = PregelConfig::default();
    if std::env::var_os(ENV_SCHEDULE).is_none() {
        config.schedule = Schedule::Push;
    }
    config
}

/// Compact per-superstep direction trail: one character per superstep,
/// `^` for gathered (pull) supersteps, `.` for pushed ones.
pub fn direction_string(m: &Metrics) -> String {
    m.per_superstep
        .iter()
        .map(|s| if s.pulled { '^' } else { '.' })
        .collect()
}

/// Per-phase wall-clock of a run in milliseconds, in reporting order:
/// `[compute, combine, exchange, master]`.
pub fn phase_ms(m: &Metrics) -> [f64; 4] {
    [
        m.compute_time,
        m.combine_time,
        m.exchange_time,
        m.master_time,
    ]
    .map(|d| d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_paper_ratios() {
        let ws = table1_graphs();
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
    fn ckpt_args_apply_builds_config() {
        let args = CkptArgs {
            every: Some(4),
            dir: Some(PathBuf::from("/tmp/snaps")),
            resume: true,
            keep: 2,
            max_restarts: Some(5),
        };
        let config = args.apply(PregelConfig::sequential());
        let ck = config.checkpoint.expect("checkpointing enabled");
        assert_eq!(ck.every, 4);
        assert_eq!(ck.dir, PathBuf::from("/tmp/snaps"));
        assert!(ck.resume);
        assert_eq!(ck.keep, 2);
        assert_eq!(config.recovery.expect("policy").max_restarts, 5);

        let off = CkptArgs::default().apply(PregelConfig::sequential());
        assert!(off.checkpoint.is_none());
        assert!(off.recovery.is_none());
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
