//! `gmc` — the command line of the Green-Marl → Pregel compiler.
//!
//! ```text
//! gmc compile <file.gm> [--emit java|canonical|states] [--no-opt]
//!             [--timing] [--trace <path>] [--trace-format jsonl|chrome]
//! gmc verify <file.gm> [--no-opt]
//! gmc emit-rust <file.gm> [--no-opt] [-o <file.rs>]
//! gmc run <file.gm> --graph <edges.txt> [--backend interp|native]
//!         [--arg name=value]... [--seed N] [--print prop] [--steps]
//!         [--timing] [--edge-policy strict|skip]
//!         [--metrics-listen <host:port>] [--metrics-file <path>]
//!         [runtime flags]
//! gmc paper table1|table2|table3|figure6|bc-report|ablation [runtime flags]
//!
//! runtime flags:
//!         [--workers N] [--schedule push|pull|auto] [--dense-threshold F]
//!         [--trace <path>] [--trace-format jsonl|chrome]
//!         [--checkpoint-every N] [--checkpoint-dir <dir>] [--resume]
//!         [--keep-snapshots N] [--max-restarts N]
//!         [--max-message-bytes N] [--superstep-deadline MS]
//!         [--spill-dir <dir>] [--post-mortem-dir <dir>]
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
//! expressions — bit-identical in results to the interpreter. `gmc run
//! --backend native` executes such a module compiled into the binary
//! (`gm_algorithms::native`), selected by byte-equality of the generated
//! source, instead of interpreting the PIR.
//!
//! `gmc paper <artifact>` prints one of the paper's artifacts (see the
//! `paper` module): Tables 1–3, Figure 6, the §5.1 BC report, or the
//! ablation of the §4.2 optimizations. The artifacts push unless
//! `GM_SCHEDULE` or `--schedule` asks otherwise, because the manual
//! baselines cannot gather.
//!
//! `run` and `paper` share one flag parser: the runtime flags fill the
//! runtime configuration over its environment-derived defaults, and an
//! unknown flag is an error.
//!
//! `--trace <path>` writes a structured event log of the compiler passes
//! (and, for `run` and `paper`, the per-worker superstep execution).
//! `--trace-format jsonl` (one event per line) or `chrome` (Chrome Trace
//! Event Format, loadable in `chrome://tracing` or Perfetto) writes that
//! format alone; without it, JSONL goes to `<path>` and the Chrome Trace to
//! `<stem>.chrome.json` beside it.
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
//! The other checkpoint flags need `--checkpoint-every`.
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

mod paper;

use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_graph::io::LoadPolicy;
use gm_interp::run_compiled;
use gm_obs::metrics::MetricsRegistry;
use gm_obs::{TraceFormat, Tracer};
use gm_pregel::{
    CheckpointConfig, PostMortemConfig, PregelConfig, RecoveryPolicy, Schedule, ENV_SCHEDULE,
};
use std::collections::HashMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: gmc compile <file.gm> [--emit java|canonical|states] [--no-opt]
               [--timing] [--trace <path>] [--trace-format jsonl|chrome]
       gmc verify <file.gm> [--no-opt]
       gmc emit-rust <file.gm> [--no-opt] [-o <file.rs>]
       gmc run <file.gm> --graph <edges.txt> [--backend interp|native]
               [--arg name=value]... [--seed N] [--print prop] [--steps]
               [--timing] [--edge-policy strict|skip]
               [--metrics-listen <host:port>] [--metrics-file <path>]
               [runtime flags]
       gmc paper table1|table2|table3|figure6|bc-report|ablation [runtime flags]
runtime flags: [--workers N] [--schedule push|pull|auto] [--dense-threshold F]
               [--trace <path>] [--trace-format jsonl|chrome]
               [--checkpoint-every N] [--checkpoint-dir <dir>] [--resume]
               [--keep-snapshots N] [--max-restarts N]
               [--max-message-bytes N] [--superstep-deadline MS]
               [--spill-dir <dir>] [--post-mortem-dir <dir>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    let result = match cmd {
        "compile" => cmd_compile(rest),
        "verify" => cmd_verify(rest),
        "emit-rust" => cmd_emit_rust(rest),
        "run" => cmd_run(rest),
        "paper" => cmd_paper(rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gmc {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn input(args: &[String]) -> Result<&str, String> {
    args.first()
        .map(String::as_str)
        .ok_or_else(|| "missing input file".to_owned())
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

/// Parses a flag's value, naming the flag when it does not parse.
fn parse<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse()
        .map_err(|e| format!("bad value for {flag}: {e}"))
}

/// Opens the tracer `--trace` asks for. Without a `--trace-format`, one
/// run writes both formats: JSONL at `path` and a Chrome Trace at
/// `<stem>.chrome.json` beside it.
fn open_tracer(path: Option<&Path>, format: Option<TraceFormat>) -> Result<Option<Tracer>, String> {
    let Some(path) = path else { return Ok(None) };
    let tracer = match format {
        Some(format) => Tracer::to_file(path, format),
        None => Tracer::to_files(&[
            (path.to_owned(), TraceFormat::Jsonl),
            (beside(path, "chrome.json"), TraceFormat::Chrome),
        ]),
    };
    (tracer.map(Some)).map_err(|e| format!("cannot open trace file {}: {e}", path.display()))
}

/// `<stem>.<suffix>` in the directory of `path`: where the files that go
/// with a trace are written.
fn beside(path: &Path, suffix: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("run");
    path.with_file_name(format!("{stem}.{suffix}"))
}

fn finish_trace(tracer: Option<&Tracer>) -> Result<(), String> {
    tracer.map_or(Ok(()), |t| {
        t.finish().map_err(|e| format!("cannot finish trace: {e}"))
    })
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let path = input(args)?;
    let mut emit = "states";
    let mut optimize = true;
    let mut timing = false;
    let mut trace: Option<PathBuf> = None;
    let mut trace_format = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--emit" => emit = value()?.as_str(),
            "--no-opt" => optimize = false,
            "--timing" => timing = true,
            "--trace" => trace = Some(value()?.into()),
            "--trace-format" => trace_format = Some(parse(flag, value()?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let tracer = open_tracer(trace.as_deref(), trace_format)?;
    let compiled = load_and_compile(path, optimize, tracer.as_ref())?;
    match emit {
        "java" => print!("{}", gm_core::javagen::emit_java(&compiled.program)?),
        "canonical" => print!("{}", compiled.canonical_source),
        "states" => {
            print!("{}", compiled.program);
            println!("transformations: {}", compiled.report);
        }
        other => {
            return Err(format!(
                "unknown --emit kind {other} (java|canonical|states)"
            ))
        }
    }
    if timing {
        print!("{}", compiled.report.timing_table());
    }
    finish_trace(tracer.as_ref())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let path = input(args)?;
    let mut optimize = true;
    for flag in &args[1..] {
        match flag.as_str() {
            "--no-opt" => optimize = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let compiled = load_and_compile(path, optimize, None)?;
    print!("{}", compiled.program);
    println!("{}", gm_core::verify::summary(&compiled.program));
    Ok(())
}

fn cmd_emit_rust(args: &[String]) -> Result<(), String> {
    let path = input(args)?;
    let mut optimize = true;
    let mut out_path: Option<&String> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--no-opt" => optimize = false,
            "-o" | "--out" => {
                out_path = Some(it.next().ok_or_else(|| format!("{flag} needs a path"))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let compiled = load_and_compile(path, optimize, None)?;
    let rust = gm_core::rustgen::emit_rust(&compiled.program).map_err(|e| e.to_string())?;
    match out_path {
        None => print!("{rust}"),
        Some(p) => std::fs::write(p, &rust).map_err(|e| format!("cannot write {p}: {e}"))?,
    }
    Ok(())
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

/// The flags of `run` and `paper`. The runtime flags fill `config`; the
/// others are `run`'s own.
struct Flags {
    config: PregelConfig,
    /// `--trace`: beside it `paper figure6` writes its per-row metrics.
    trace: Option<PathBuf>,
    graph: Option<String>,
    native: bool,
    args: HashMap<String, ArgValue>,
    seed: u64,
    print: Option<String>,
    steps: bool,
    timing: bool,
    edge_policy: LoadPolicy,
    metrics_listen: Option<String>,
    metrics_file: Option<String>,
}

/// Parses the flags of `cmd` (`run` or `paper`) over `config`, refusing
/// an unknown one and, for `paper`, any of `run`'s own, and opens the
/// tracer `--trace` asks for into the config.
fn parse_flags(cmd: &str, args: &[String], config: PregelConfig) -> Result<Flags, String> {
    let run = cmd == "run";
    let mut f = Flags {
        config,
        trace: None,
        graph: None,
        native: false,
        args: HashMap::new(),
        seed: 0,
        print: None,
        steps: false,
        timing: false,
        edge_policy: LoadPolicy::Strict,
        metrics_listen: None,
        metrics_file: None,
    };
    let mut trace_format = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let c = &mut f.config;
        match flag.as_str() {
            "--workers" => c.num_workers = parse(flag, value()?)?,
            "--schedule" => c.schedule = parse(flag, value()?)?,
            "--dense-threshold" => c.dense_threshold = parse(flag, value()?)?,
            "--trace" => f.trace = Some(value()?.into()),
            "--trace-format" => trace_format = Some(parse(flag, value()?)?),
            "--checkpoint-every" => checkpoint(c).every = parse(flag, value()?)?,
            "--checkpoint-dir" => checkpoint(c).dir = value()?.into(),
            "--resume" => checkpoint(c).resume = true,
            "--keep-snapshots" => checkpoint(c).keep = parse(flag, value()?)?,
            "--max-restarts" => {
                c.recovery = Some(RecoveryPolicy::with_max_restarts(parse(flag, value()?)?));
            }
            "--max-message-bytes" => c.budget.max_message_bytes = Some(parse(flag, value()?)?),
            "--superstep-deadline" => {
                let ms = parse(flag, value()?)?;
                c.budget.superstep_deadline = Some(Duration::from_millis(ms));
            }
            "--spill-dir" => c.budget.spill_dir = Some(value()?.into()),
            "--post-mortem-dir" => c.post_mortem = Some(PostMortemConfig::new(value()?)),
            "--graph" if run => f.graph = Some(value()?.clone()),
            "--backend" if run => {
                f.native = match value()?.as_str() {
                    "interp" => false,
                    "native" => true,
                    other => return Err(format!("unknown --backend {other} (interp|native)")),
                }
            }
            "--arg" if run => {
                let kv = value()?;
                let (k, v) = (kv.split_once('='))
                    .ok_or_else(|| format!("--arg expects name=value, got {kv:?}"))?;
                f.args
                    .insert(k.to_owned(), ArgValue::Scalar(parse_value(v)?));
            }
            "--seed" if run => f.seed = parse(flag, value()?)?,
            "--print" if run => f.print = Some(value()?.clone()),
            "--steps" if run => f.steps = true,
            "--timing" if run => f.timing = true,
            "--edge-policy" if run => {
                f.edge_policy = match value()?.as_str() {
                    "strict" => LoadPolicy::Strict,
                    "skip" => LoadPolicy::SkipAndCount,
                    other => return Err(format!("unknown --edge-policy {other} (strict|skip)")),
                }
            }
            "--metrics-listen" if run => f.metrics_listen = Some(value()?.clone()),
            "--metrics-file" if run => f.metrics_file = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if (f.config.checkpoint.as_ref()).is_some_and(|ck| ck.every == 0) {
        return Err("checkpointing needs --checkpoint-every N with N >= 1".to_owned());
    }
    f.config.tracer = open_tracer(f.trace.as_deref(), trace_format)?;
    Ok(f)
}

/// The checkpoint configuration, created by the first checkpoint flag.
fn checkpoint(config: &mut PregelConfig) -> &mut CheckpointConfig {
    (config.checkpoint)
        .get_or_insert_with(|| CheckpointConfig::new(std::env::temp_dir().join("gm-ckpt"), 0))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = input(args)?;
    let Flags {
        mut config,
        graph,
        native,
        args: mut arg_map,
        seed,
        print,
        steps,
        timing,
        edge_policy,
        metrics_listen,
        metrics_file,
        ..
    } = parse_flags("run", &args[1..], PregelConfig::default())?;
    let graph_path = graph.ok_or("--graph is required")?;
    let compiled = load_and_compile(path, true, config.tracer.as_ref())?;
    if timing {
        print!("{}", compiled.report.timing_table());
    }
    let loaded = gm_graph::io::read_edge_list_file_with(&graph_path, edge_policy)
        .map_err(|e| format!("cannot load graph {graph_path}: {e}"))?;
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

    // Feed the weight column to the first edge-property parameter.
    if let Some((name, _)) = compiled.program.edge_props.first() {
        arg_map.entry(name.clone()).or_insert_with(|| {
            ArgValue::EdgeProp(loaded.weights.iter().map(|&w| Value::Int(w)).collect())
        });
    }

    if metrics_listen.is_some() || metrics_file.is_some() {
        config.registry = Some(Arc::new(MetricsRegistry::new()));
    }
    let _server = match (&metrics_listen, &config.registry) {
        (Some(addr), Some(r)) => {
            let s = gm_obs::http::serve(addr.as_str(), r.clone())
                .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
            eprintln!("gmc run: serving metrics at http://{}/metrics", s.addr());
            Some(s)
        }
        _ => None,
    };
    // Writes the final text exposition; on failure the snapshot still
    // carries everything up to (and including) the failure counters.
    let write_exposition = || match (&config.registry, &metrics_file) {
        (Some(r), Some(path)) => {
            (r.write_prometheus(path)).map_err(|e| format!("cannot write metrics file {path}: {e}"))
        }
        _ => Ok(()),
    };
    // `--backend native` dispatches to a rustgen module compiled into the
    // binary. Programs are matched by *generated source*: the compiled PIR
    // is re-emitted through `gm-core::rustgen` and compared byte-for-byte
    // against each registered module, so a native run is guaranteed to
    // execute exactly the code `gmc emit-rust` would print today.
    let name = &compiled.program.name;
    let native = if native {
        let generated = gm_core::rustgen::emit_rust(&compiled.program)
            .map_err(|e| format!("cannot emit native code for `{name}`: {e}"))?;
        let alg = gm_algorithms::native::find_for_generated(&generated).ok_or_else(|| {
            let have: Vec<_> = gm_algorithms::native::ALL.iter().map(|a| a.name).collect();
            format!(
                "no native module compiled in for `{name}` (have: {}); \
                 regenerate with `gmc emit-rust` and rebuild, or drop --backend native",
                have.join(", ")
            )
        })?;
        eprintln!("gmc run: backend native ({})", alg.name);
        Some(alg)
    } else {
        None
    };
    let start = std::time::Instant::now();
    let result = match native {
        Some(alg) => (alg.run)(&loaded.graph, &arg_map, seed, &config),
        None => run_compiled(&loaded.graph, &compiled, &arg_map, seed, &config),
    };
    // The error's Display already names the post-mortem bundle directory
    // when one was written.
    let out = result.map_err(|e| {
        let _ = write_exposition();
        e.to_string()
    })?;
    println!(
        "ran `{name}` on {} vertices / {} edges in {:.2?}",
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
    if let Some(r) = &config.registry {
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
    write_exposition()?;
    if let (Some(_), Some(path)) = (&config.registry, &metrics_file) {
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
        for (i, (state, m)) in out
            .states
            .iter()
            .zip(&out.metrics.per_superstep)
            .enumerate()
        {
            let dir = if m.pulled { "pull" } else { "push" };
            println!(
                "{:>9} {:>6} {:>5} {:>10} {:>10} {:>12}",
                i, state, dir, m.active_vertices, m.messages_sent, m.message_bytes
            );
        }
    }
    finish_trace(config.tracer.as_ref())?;
    if let Some(prop) = print {
        let values = out.node_props.get(&prop).ok_or_else(|| {
            let have: Vec<_> = out.node_props.keys().cloned().collect();
            format!("no property `{prop}` (have: {})", have.join(", "))
        })?;
        for (i, v) in values.iter().enumerate() {
            println!("{i}\t{v}");
        }
    }
    Ok(())
}

fn cmd_paper(args: &[String]) -> Result<(), String> {
    let names = || paper::ARTIFACTS.map(|(name, _)| name).join("|");
    let wanted = args
        .first()
        .ok_or_else(|| format!("missing artifact ({})", names()))?;
    let (_, artifact) = (paper::ARTIFACTS.iter())
        .find(|(name, _)| name == wanted)
        .ok_or_else(|| format!("unknown artifact {wanted} ({})", names()))?;
    // The manual baselines cannot gather, so unless GM_SCHEDULE asks for
    // a direction the artifacts push: generated and manual cells then
    // move their messages the same way.
    let mut config = PregelConfig::default();
    if std::env::var_os(ENV_SCHEDULE).is_none() {
        config.schedule = Schedule::Push;
    }
    let flags = parse_flags("paper", &args[1..], config)?;
    artifact(&flags.config, flags.trace.as_deref());
    finish_trace(flags.config.tracer.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_flags_fill_the_config() {
        let args = [
            "--checkpoint-dir",
            "/tmp/snaps",
            "--checkpoint-every",
            "4",
            "--resume",
            "--keep-snapshots",
            "2",
            "--max-restarts",
            "5",
            "--workers",
            "3",
            "--schedule",
            "pull",
            "--max-message-bytes",
            "64",
        ]
        .map(String::from);
        for cmd in ["run", "paper"] {
            let config = parse_flags(cmd, &args, PregelConfig::sequential())
                .unwrap()
                .config;
            let ck = config.checkpoint.expect("checkpointing enabled");
            assert_eq!(ck.every, 4);
            assert_eq!(ck.dir, PathBuf::from("/tmp/snaps"));
            assert!(ck.resume);
            assert_eq!(ck.keep, 2);
            assert_eq!(config.recovery.expect("policy").max_restarts, 5);
            assert_eq!(config.num_workers, 3);
            assert_eq!(config.schedule, Schedule::Pull);
            assert_eq!(config.budget.max_message_bytes, Some(64));
        }

        let off = parse_flags("paper", &[], PregelConfig::sequential())
            .unwrap()
            .config;
        assert!(off.checkpoint.is_none());
        assert!(off.recovery.is_none());
        assert!(off.tracer.is_none());
    }
}
