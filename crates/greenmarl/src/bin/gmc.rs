//! `gmc` — the Green-Marl → Pregel compiler driver.
//!
//! ```text
//! gmc compile <file.gm> [--emit java|canonical|states] [--no-opt]
//!             [--timing] [--trace <path>] [--trace-format jsonl|chrome]
//! gmc verify <file.gm> [--no-opt]
//! gmc emit-rust <file.gm> [--no-opt] [-o <file.rs>]
//! gmc run <file.gm> --graph <edges.txt> [--backend interp|native]
//!         [--arg name=value]...
//!         [--seed N] [--workers N] [--print prop] [--steps] [--timing]
//!         [--schedule push|pull|auto] [--dense-threshold F]
//!         [--trace <path>] [--trace-format jsonl|chrome]
//!         [--checkpoint-every N] [--checkpoint-dir <dir>] [--resume]
//!         [--keep-snapshots N] [--max-restarts N]
//!         [--max-message-bytes N] [--superstep-deadline MS]
//!         [--spill-dir <dir>] [--edge-policy strict|skip]
//!         [--metrics-listen <host:port>] [--metrics-file <path>]
//!         [--post-mortem-dir <dir>]
//! ```
//!
//! Every compile runs the PIR well-formedness verifier after translation
//! and after every optimization pass. `gmc verify` prints the verified
//! state-machine summary on success, and exits non-zero with the
//! diagnostics on failure.
//!
//! `gmc emit-rust` compiles a procedure and prints a
//! standalone Rust module implementing the runtime's `VertexProgram` trait
//! natively — monomorphized message enum, native property fields, inlined
//! combiners — bit-identical in results to the interpreter. `gmc run
//! --backend native` executes such a module compiled into the binary
//! (`gm_algorithms::native`), selected by byte-equality of the generated
//! source, instead of interpreting the PIR.
//!
//! `--trace <path>` writes a structured event log of the compiler passes
//! (and, for `run`, the per-worker superstep execution) in the chosen
//! format — `jsonl` (the default; one event per line) or `chrome` (Chrome
//! Trace Event Format, loadable in `chrome://tracing` or Perfetto).
//! `--timing` prints the per-pass compile-time table; `--steps` prints the
//! per-superstep execution of the generated state machine. `run` loads a
//! whitespace edge list (`src dst [weight]`); if the procedure declares
//! edge-property parameters, the first one is fed from the weight column.
//! Scalar arguments are given as `--arg K=25`, `--arg d=0.85`,
//! `--arg root=n:0`, `--arg flag=true`. Node properties not supplied start
//! at their type's default.
//!
//! `--checkpoint-every N` snapshots the full BSP frontier into
//! `--checkpoint-dir` (default `gm-ckpt/` in the temp dir) every N
//! supersteps; `--resume` continues a previous run from the newest valid
//! snapshot there that the same program wrote on the same backend (other
//! files are removed, and the `checkpoints:` line counts them as
//! `discarded`), and `--keep-snapshots N` prunes all but the newest N.
//! `--max-restarts N` lets the run restart itself after worker failures.
//!
//! `--schedule` selects the message direction: `auto` (the default: a
//! per-superstep density heuristic, cutoff tunable with
//! `--dense-threshold`, a fraction of |E|), `push` (the classic Pregel
//! exchange), or `pull` (gather every superstep the program supports —
//! rejected up front if none is pullable). Both flags default from the
//! `GM_SCHEDULE` / `GM_DENSE_THRESHOLD` environment variables. Every run
//! prints its schedule and pull-superstep count; with `--steps`, a `dir`
//! column shows which supersteps were gathered.
//!
//! `--max-message-bytes N` caps the in-flight message bytes per superstep;
//! sealed buckets past the cap spill to `--spill-dir` (default: a run
//! directory under the temp dir) and are replayed at delivery with
//! bit-identical results. `--superstep-deadline MS` aborts any superstep
//! exceeding the wall-clock deadline with a structured error. Both default
//! from the `GM_MAX_MSG_BYTES` / `GM_SUPERSTEP_DEADLINE_MS` environment
//! variables. `--edge-policy skip` tolerates malformed edge-list lines,
//! reporting how many were skipped (the default, `strict`, aborts on the
//! first).
//!
//! `--metrics-listen <host:port>` serves live Prometheus metrics at
//! `http://<host:port>/metrics` while the run executes; `--metrics-file`
//! writes the final text exposition after it (either flag also prints a
//! per-phase latency summary with p50/p99). `--post-mortem-dir <dir>`
//! (default from `GM_POST_MORTEM_DIR`) arms the flight recorder: if the
//! run fails, a self-contained bundle — recent trace events, config,
//! metrics snapshot — is written under the directory and its path is
//! printed with the error.

use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_graph::io::LoadPolicy;
use gm_interp::run_compiled;
use gm_obs::metrics::MetricsRegistry;
use gm_obs::{TraceFormat, Tracer};
use gm_pregel::{
    CheckpointConfig, PostMortemConfig, PregelConfig, RecoveryPolicy, ResourceBudget, Schedule,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("emit-rust") => cmd_emit_rust(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        _ => {
            eprintln!("usage: gmc compile <file.gm> [--emit java|canonical|states] [--no-opt]");
            eprintln!("               [--timing] [--trace <path>] [--trace-format jsonl|chrome]");
            eprintln!("       gmc verify <file.gm> [--no-opt]");
            eprintln!("       gmc emit-rust <file.gm> [--no-opt] [-o <file.rs>]");
            eprintln!("       gmc run <file.gm> --graph <edges.txt> [--backend interp|native]");
            eprintln!("               [--arg name=value]...");
            eprintln!("               [--seed N] [--workers N] [--print prop] [--steps]");
            eprintln!("               [--schedule push|pull|auto] [--dense-threshold F]");
            eprintln!("               [--timing] [--trace <path>] [--trace-format jsonl|chrome]");
            eprintln!("               [--checkpoint-every N] [--checkpoint-dir <dir>] [--resume]");
            eprintln!("               [--keep-snapshots N] [--max-restarts N]");
            eprintln!("               [--max-message-bytes N] [--superstep-deadline MS]");
            eprintln!("               [--spill-dir <dir>] [--edge-policy strict|skip]");
            eprintln!("               [--metrics-listen <host:port>] [--metrics-file <path>]");
            eprintln!("               [--post-mortem-dir <dir>]");
            ExitCode::FAILURE
        }
    }
}

fn load_and_compile(
    path: &str,
    optimize: bool,
    tracer: Option<&Tracer>,
) -> Result<gm_core::Compiled, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Same library pipeline `gmd` compiles tenant source through.
    greenmarl::service::compile_source_with(&src, optimize, tracer)
        .map_err(|rendered| format!("compilation failed:\n{rendered}"))
}

/// Builds the `--trace` tracer, if requested.
fn open_tracer(path: Option<&str>, format: TraceFormat) -> Result<Option<Tracer>, String> {
    match path {
        None => Ok(None),
        Some(p) => Tracer::to_file(p, format)
            .map(Some)
            .map_err(|e| format!("cannot open trace file {p}: {e}")),
    }
}

fn cmd_compile(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("gmc compile: missing input file");
        return ExitCode::FAILURE;
    };
    let mut emit = "states";
    let mut optimize = true;
    let mut timing = false;
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit" => match it.next() {
                Some(e) => emit = e,
                None => {
                    eprintln!("gmc compile: --emit needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--no-opt" => optimize = false,
            "--timing" => timing = true,
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => {
                    eprintln!("gmc compile: --trace needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-format" => match it.next().map(|f| f.parse()) {
                Some(Ok(f)) => trace_format = f,
                Some(Err(e)) => {
                    eprintln!("gmc compile: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("gmc compile: --trace-format needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("gmc compile: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let tracer = match open_tracer(trace_path.as_deref(), trace_format) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gmc compile: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match load_and_compile(path, optimize, tracer.as_ref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match emit {
        "java" => match gm_core::javagen::emit_java(&compiled.program) {
            Ok(java) => print!("{java}"),
            Err(e) => {
                eprintln!("gmc compile: {e}");
                return ExitCode::FAILURE;
            }
        },
        "canonical" => print!("{}", compiled.canonical_source),
        "states" => {
            print!("{}", compiled.program);
            println!("transformations: {}", compiled.report);
        }
        other => {
            eprintln!("gmc compile: unknown --emit kind {other} (java|canonical|states)");
            return ExitCode::FAILURE;
        }
    }
    if timing {
        print!("{}", compiled.report.timing_table());
    }
    if let Some(t) = &tracer {
        if let Err(e) = t.finish() {
            eprintln!("gmc compile: cannot finish trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("gmc verify: missing input file");
        return ExitCode::FAILURE;
    };
    let mut optimize = true;
    for a in &args[1..] {
        match a.as_str() {
            "--no-opt" => optimize = false,
            other => {
                eprintln!("gmc verify: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let compiled = match load_and_compile(path, optimize, None) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", compiled.program);
    println!("{}", gm_core::verify::summary(&compiled.program));
    ExitCode::SUCCESS
}

fn cmd_emit_rust(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("gmc emit-rust: missing input file");
        return ExitCode::FAILURE;
    };
    let mut optimize = true;
    let mut out_path: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-opt" => optimize = false,
            "-o" | "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("gmc emit-rust: {a} needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("gmc emit-rust: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let compiled = match load_and_compile(path, optimize, None) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let rust = match gm_core::rustgen::emit_rust(&compiled.program) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gmc emit-rust: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out_path {
        None => print!("{rust}"),
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &rust) {
                eprintln!("gmc emit-rust: cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn parse_value(text: &str) -> Result<Value, String> {
    if let Some(node) = text.strip_prefix("n:") {
        return node
            .parse::<u32>()
            .map(Value::Node)
            .map_err(|e| format!("bad node id {text}: {e}"));
    }
    if text == "true" || text == "True" {
        return Ok(Value::Bool(true));
    }
    if text == "false" || text == "False" {
        return Ok(Value::Bool(false));
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = text.parse::<f64>() {
        return Ok(Value::Double(v));
    }
    Err(format!(
        "cannot parse value {text:?} (try 42, 0.5, true, n:3)"
    ))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("gmc run: missing input file");
        return ExitCode::FAILURE;
    };
    let mut graph_path = None;
    let mut native_backend = false;
    let mut scalar_args: Vec<(String, Value)> = Vec::new();
    let mut seed = 0u64;
    let mut workers = 0usize;
    let mut print_prop: Option<String> = None;
    let mut steps = false;
    let mut timing = false;
    let mut schedule: Option<Schedule> = None;
    let mut dense_threshold: Option<f64> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut ckpt_every: Option<u32> = None;
    let mut ckpt_dir: Option<String> = None;
    let mut resume = false;
    let mut keep_snapshots = 0usize;
    let mut max_restarts: Option<u32> = None;
    let mut max_message_bytes: Option<u64> = None;
    let mut superstep_deadline_ms: Option<u64> = None;
    let mut spill_dir: Option<String> = None;
    let mut edge_policy = LoadPolicy::Strict;
    let mut metrics_listen: Option<String> = None;
    let mut metrics_file: Option<String> = None;
    let mut post_mortem_dir: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("gmc run: {flag} needs a value"))
        };
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--graph" => graph_path = Some(take("--graph")?),
                "--backend" => match take("--backend")?.as_str() {
                    "interp" => native_backend = false,
                    "native" => native_backend = true,
                    other => {
                        return Err(format!(
                            "gmc run: unknown --backend {other} (interp|native)"
                        ))
                    }
                },
                "--seed" => {
                    seed = take("--seed")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?
                }
                "--workers" => {
                    workers = take("--workers")?
                        .parse()
                        .map_err(|e| format!("bad workers: {e}"))?
                }
                "--print" => print_prop = Some(take("--print")?),
                "--steps" => steps = true,
                "--timing" => timing = true,
                "--schedule" => {
                    schedule = Some(
                        take("--schedule")?
                            .parse()
                            .map_err(|e| format!("gmc run: {e}"))?,
                    )
                }
                "--dense-threshold" => {
                    dense_threshold = Some(
                        take("--dense-threshold")?
                            .parse()
                            .map_err(|e| format!("bad dense threshold: {e}"))?,
                    );
                }
                "--trace" => trace_path = Some(take("--trace")?),
                "--trace-format" => {
                    trace_format = take("--trace-format")?.parse()?;
                }
                "--checkpoint-every" => {
                    ckpt_every = Some(
                        take("--checkpoint-every")?
                            .parse()
                            .map_err(|e| format!("bad checkpoint interval: {e}"))?,
                    );
                }
                "--checkpoint-dir" => ckpt_dir = Some(take("--checkpoint-dir")?),
                "--resume" => resume = true,
                "--keep-snapshots" => {
                    keep_snapshots = take("--keep-snapshots")?
                        .parse()
                        .map_err(|e| format!("bad snapshot count: {e}"))?;
                }
                "--max-restarts" => {
                    max_restarts = Some(
                        take("--max-restarts")?
                            .parse()
                            .map_err(|e| format!("bad restart budget: {e}"))?,
                    );
                }
                "--max-message-bytes" => {
                    max_message_bytes = Some(
                        take("--max-message-bytes")?
                            .parse()
                            .map_err(|e| format!("bad message budget: {e}"))?,
                    );
                }
                "--superstep-deadline" => {
                    superstep_deadline_ms = Some(
                        take("--superstep-deadline")?
                            .parse()
                            .map_err(|e| format!("bad deadline (milliseconds): {e}"))?,
                    );
                }
                "--spill-dir" => spill_dir = Some(take("--spill-dir")?),
                "--metrics-listen" => metrics_listen = Some(take("--metrics-listen")?),
                "--metrics-file" => metrics_file = Some(take("--metrics-file")?),
                "--post-mortem-dir" => post_mortem_dir = Some(take("--post-mortem-dir")?),
                "--edge-policy" => match take("--edge-policy")?.as_str() {
                    "strict" => edge_policy = LoadPolicy::Strict,
                    "skip" => edge_policy = LoadPolicy::SkipAndCount,
                    other => {
                        return Err(format!(
                            "gmc run: unknown --edge-policy {other} (strict|skip)"
                        ))
                    }
                },
                "--arg" => {
                    let kv = take("--arg")?;
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("--arg expects name=value, got {kv:?}"))?;
                    scalar_args.push((k.to_owned(), parse_value(v)?));
                }
                other => return Err(format!("gmc run: unknown flag {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(graph_path) = graph_path else {
        eprintln!("gmc run: --graph is required");
        return ExitCode::FAILURE;
    };

    let tracer = match open_tracer(trace_path.as_deref(), trace_format) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gmc run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match load_and_compile(path, true, tracer.as_ref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if timing {
        print!("{}", compiled.report.timing_table());
    }
    let loaded = match gm_graph::io::read_edge_list_file_with(&graph_path, edge_policy) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gmc run: cannot load graph {graph_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if loaded.stats.lines_skipped > 0 {
        let first = loaded.stats.first_skipped.as_ref();
        eprintln!(
            "gmc run: skipped {} malformed line(s) in {graph_path}{}",
            loaded.stats.lines_skipped,
            first
                .map(|m| format!(" (first: line {}, {})", m.line, m.reason))
                .unwrap_or_default()
        );
    }

    let mut arg_map: HashMap<String, ArgValue> = scalar_args
        .into_iter()
        .map(|(k, v)| (k, ArgValue::Scalar(v)))
        .collect();
    // Feed the weight column to the first edge-property parameter.
    if let Some((name, _)) = compiled.program.edge_props.first() {
        arg_map.entry(name.clone()).or_insert_with(|| {
            ArgValue::EdgeProp(loaded.weights.iter().map(|&w| Value::Int(w)).collect())
        });
    }

    let mut config = if workers == 0 {
        PregelConfig::default()
    } else {
        PregelConfig::with_workers(workers)
    };
    // Flags layer on top of the GM_SCHEDULE / GM_DENSE_THRESHOLD defaults.
    if let Some(s) = schedule {
        config = config.with_schedule(s);
    }
    if let Some(t) = dense_threshold {
        config = config.with_dense_threshold(t);
    }
    if let Some(t) = &tracer {
        config = config.with_tracer(t.clone());
    }
    if let Some(every) = ckpt_every {
        let dir = ckpt_dir
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("gm-ckpt"));
        config = config.with_checkpoints(
            CheckpointConfig::new(dir, every)
                .with_resume(resume)
                .with_keep(keep_snapshots),
        );
    }
    if let Some(n) = max_restarts {
        config = config.with_recovery(RecoveryPolicy::with_max_restarts(n));
    }
    if max_message_bytes.is_some() || superstep_deadline_ms.is_some() || spill_dir.is_some() {
        // Flags layer on top of the environment-derived defaults.
        let mut budget = ResourceBudget::from_env();
        if let Some(bytes) = max_message_bytes {
            budget = budget.with_max_message_bytes(bytes);
        }
        if let Some(ms) = superstep_deadline_ms {
            budget = budget.with_superstep_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(dir) = &spill_dir {
            budget = budget.with_spill_dir(dir);
        }
        config = config.with_budget(budget);
    }
    let registry = (metrics_listen.is_some() || metrics_file.is_some())
        .then(|| Arc::new(MetricsRegistry::new()));
    if let Some(r) = &registry {
        config = config.with_registry(r.clone());
    }
    // The flag layers on top of the GM_POST_MORTEM_DIR default.
    if let Some(dir) = &post_mortem_dir {
        config = config.with_post_mortem(PostMortemConfig::new(dir));
    }
    let _server = match &metrics_listen {
        None => None,
        Some(addr) => {
            let r = registry.clone().expect("listen flag implies a registry");
            match gm_obs::http::serve(addr.as_str(), r) {
                Ok(s) => {
                    eprintln!("gmc run: serving metrics at http://{}/metrics", s.addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("gmc run: cannot bind metrics endpoint {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    // Writes the final text exposition; on failure the snapshot still
    // carries everything up to (and including) the failure counters.
    let write_exposition = |registry: &Option<Arc<MetricsRegistry>>| -> Result<(), ExitCode> {
        if let (Some(r), Some(path)) = (registry, &metrics_file) {
            if let Err(e) = r.write_prometheus(path) {
                eprintln!("gmc run: cannot write metrics file {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
        Ok(())
    };
    // `--backend native` dispatches to a rustgen module compiled into the
    // binary. Programs are matched by *generated source*: the compiled PIR
    // is re-emitted through `gm-core::rustgen` and compared byte-for-byte
    // against each registered module, so a native run is guaranteed to
    // execute exactly the code `gmc emit-rust` would print today.
    let native = if native_backend {
        match gm_core::rustgen::emit_rust(&compiled.program) {
            Ok(generated) => match gm_algorithms::native::find_for_generated(&generated) {
                Some(alg) => {
                    eprintln!("gmc run: backend native ({})", alg.name);
                    Some(alg)
                }
                None => {
                    eprintln!(
                        "gmc run: no native module compiled in for `{}` (have: {}); \
                         regenerate with `gmc emit-rust` and rebuild, or drop --backend native",
                        compiled.program.name,
                        gm_algorithms::native::ALL
                            .iter()
                            .map(|a| a.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!(
                    "gmc run: cannot emit native code for `{}`: {e}",
                    compiled.program.name
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let start = std::time::Instant::now();
    let result = match native {
        Some(alg) => (alg.run)(&loaded.graph, &arg_map, seed, &config),
        None => run_compiled(&loaded.graph, &compiled, &arg_map, seed, &config),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            // The error's Display already names the post-mortem bundle
            // directory when one was written.
            eprintln!("gmc run: {e}");
            let _ = write_exposition(&registry);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ran `{}` on {} vertices / {} edges in {:.2?}",
        compiled.program.name,
        loaded.graph.num_nodes(),
        loaded.graph.num_edges(),
        start.elapsed()
    );
    println!(
        "supersteps: {}   messages: {} ({} bytes)",
        out.metrics.supersteps, out.metrics.total_messages, out.metrics.total_message_bytes
    );
    println!(
        "schedule: {:?}   pull supersteps: {}   direction switches: {}",
        config.schedule, out.metrics.pull_supersteps, out.metrics.direction_switches
    );
    let rec = &out.metrics.recovery;
    if rec.checkpoints_written > 0
        || rec.restores > 0
        || rec.restarts > 0
        || rec.corrupt_snapshots_discarded > 0
    {
        println!(
            "checkpoints: {} written ({} bytes)   restores: {}   restarts: {}   discarded: {}",
            rec.checkpoints_written,
            rec.snapshot_bytes,
            rec.restores,
            rec.restarts,
            rec.corrupt_snapshots_discarded
        );
    }
    let spill = &out.metrics.spill;
    if spill.buckets_spilled > 0 {
        println!(
            "spills: {} buckets ({} message bytes, {} on disk)   replayed: {}   peak in-flight: {} bytes",
            spill.buckets_spilled,
            spill.spilled_message_bytes,
            spill.spill_file_bytes,
            spill.files_replayed,
            spill.peak_in_flight_bytes
        );
    }
    if let Some(r) = &registry {
        println!("per-phase latency, seconds (p50 / p90 / p99):");
        for phase in ["master", "compute", "combine", "exchange", "barrier"] {
            // Retrieves the series the runtime's feed registered; the help
            // text is only used if the family were somehow absent.
            let h = r.histogram_with(
                "gm_phase_seconds",
                "wall-clock per phase",
                &[("phase", phase)],
            );
            let (p50, p90, p99) = h.percentiles();
            println!(
                "  {phase:<9} {p50:>11.6} / {p90:>11.6} / {p99:>11.6}   ({} observations)",
                h.count()
            );
        }
    }
    if let Err(code) = write_exposition(&registry) {
        return code;
    }
    if let (Some(_), Some(path)) = (&registry, &metrics_file) {
        println!("metrics exposition written to {path}");
    }
    if let Some(ret) = &out.ret {
        println!("return value: {ret}");
    }
    if steps {
        println!(
            "{:>9} {:>6} {:>5} {:>10} {:>10} {:>12}",
            "superstep", "state", "dir", "active", "messages", "bytes"
        );
        for (i, t) in out.trace.iter().enumerate() {
            let dir = match out.metrics.per_superstep.get(i) {
                Some(s) if s.pulled => "pull",
                _ => "push",
            };
            println!(
                "{:>9} {:>6} {:>5} {:>10} {:>10} {:>12}",
                i, t.state, dir, t.active_vertices, t.messages_sent, t.message_bytes
            );
        }
    }
    if let Some(t) = &tracer {
        if let Err(e) = t.finish() {
            eprintln!("gmc run: cannot finish trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(prop) = print_prop {
        match out.node_props.get(&prop) {
            Some(values) => {
                for (i, v) in values.iter().enumerate() {
                    println!("{i}\t{v}");
                }
            }
            None => {
                eprintln!(
                    "gmc run: no property `{prop}` (have: {})",
                    out.node_props
                        .keys()
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
