//! `gm-perf` command line.
//!
//! ```text
//! gm-perf --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! gm-perf run   [--seed N] [--seconds S] [--reps R] [--out FILE]
//! gm-perf trace [--seed N] [--seconds S] [--out FILE]
//! gm-perf compare A.json B.json
//! gm-perf spec                                            prints BENCHMARK.json
//! ```
//!
//! One run measures one workload in this process and prints every metric
//! by name and unit, then one JSON line with `correct`, `attempted`,
//! `failed` and `metrics`. `run` and `trace` start one such process per
//! workload (so peak memory is per workload), print the set and write it to
//! `benchmark/out/`; they exit non-zero when any output check failed.

use gm_obs::json::{parse, Json};
use gm_perf::catalog::{self, WORKLOADS};
use gm_perf::sizes::Sizes;
use gm_perf::workloads::{self, Ctx, Outcome};
use gm_perf::{compare, env};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

fn usage() -> ExitCode {
    eprintln!("usage: gm-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       gm-perf run|trace [--seed N] [--seconds S] [--reps R] [--out FILE]");
    eprintln!("       gm-perf compare A.json B.json");
    eprintln!("       gm-perf spec");
    ExitCode::from(2)
}

/// `--name value` pairs; anything else is an error.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name}: {value:?} is not a valid number"))
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
    };
    for (name, value) in flags(args)? {
        match name {
            "workload" => out.workload = value.to_owned(),
            "seed" => out.seed = number(name, value)?,
            "seconds" => out.seconds = number(name, value)?,
            "trace" => out.trace = number::<u8>(name, value)? != 0,
            _ => return Err(format!("unknown flag --{name}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(out)
}

/// One run in this process.
fn measure(args: &[String]) -> ExitCode {
    let removed = env::scrub_gm_variables();
    env::quiet_injected_faults();
    let args = match run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gm-perf: {e}");
            return usage();
        }
    };
    let out_dir = env::out_dir();
    let scratch = out_dir.join(format!(
        "scratch-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx::new(Sizes::FROZEN, args.seed, args.seconds, args.trace, scratch);
    let outcome = match workloads::run(&args.workload, &ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gm-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = out_dir.join(format!("spans-{}-{}.jsonl", outcome.workload, args.seed));
        if let Err(e) = ctx.rec.write_jsonl(&path) {
            eprintln!("gm-perf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print_outcome(&outcome, args.trace, &removed);
    println!("{}", outcome.result_line(args.trace));
    ExitCode::SUCCESS
}

fn print_outcome(o: &Outcome, trace: bool, removed: &[String]) {
    println!(
        "workload {} seed {} ({})",
        o.workload,
        o.seed,
        if trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    if !removed.is_empty() {
        println!("removed from the environment: {}", removed.join(" "));
    }
    for (name, unit, value) in o.metrics(trace) {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    for (name, s) in &o.summaries {
        let tail = s.tail.map_or_else(
            || "too few jobs for a percentile".to_owned(),
            |(p, v)| format!("highest percentile with 10 jobs beyond it: p{p} {v:.3}"),
        );
        println!(
            "  {name}: median {:.3} min {:.3} max {:.3} over {} jobs; {tail}",
            s.median, s.min, s.max, s.count
        );
    }
    println!("  jobs attempted {} failed {}", o.attempted, o.failed);
    for reason in &o.reasons {
        println!("  FAILED: {reason}");
    }
    let detail = Json::obj([
        (
            "exact".to_owned(),
            Json::obj(
                o.exact
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::UInt(*v))),
            ),
        ),
        (
            "removed".to_owned(),
            Json::Arr(removed.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("detail {detail}");
}

/// Runs every workload in a child process each, `reps` times, and writes
/// the set.
fn run_set(args: &[String], trace: bool) -> ExitCode {
    let (mut seed, mut seconds, mut reps, mut out) =
        (1u64, f64::from(catalog::RUN_SECONDS), 1usize, None);
    let parsed = flags(args).and_then(|fl| {
        for (name, value) in fl {
            match name {
                "seed" => seed = number(name, value)?,
                "seconds" => seconds = number(name, value)?,
                "reps" => reps = number::<usize>(name, value)?.max(1),
                "out" => out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag --{name}")),
            }
        }
        Ok(())
    });
    if let Err(e) = parsed {
        eprintln!("gm-perf: {e}");
        return usage();
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gm-perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..reps {
            let child = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let stdout = match child {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("gm-perf: {name} exited with {}", o.status);
                    all_correct = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("gm-perf: cannot start {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Everything above the result line is the child's own report.
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(|l| parse(l).ok());
            let detail = lines
                .iter()
                .rev()
                .find_map(|l| l.strip_prefix("detail "))
                .and_then(|l| parse(l).ok());
            for line in lines.iter().filter(|l| !l.starts_with("detail ")) {
                println!("{line}");
            }
            let Some(Json::Obj(mut result)) = result else {
                eprintln!("gm-perf: {name} printed no result line");
                all_correct = false;
                continue;
            };
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            // Keep values only: units are in the catalogue.
            if let Some(Json::Obj(metrics)) = result.get_mut("metrics") {
                for v in metrics.values_mut() {
                    *v = v.get("value").cloned().unwrap_or(Json::Null);
                }
            }
            for key in ["exact", "removed"] {
                if let Some(value) = detail.as_ref().and_then(|d| d.get(key)) {
                    result.insert(key.to_owned(), value.clone());
                }
            }
            runs.push(Json::Obj(result));
        }
        workloads.push((
            name.to_owned(),
            Json::obj([("runs".to_owned(), Json::Arr(runs))]),
        ));
    }
    let set = Json::obj([
        (
            "mode".to_owned(),
            Json::Str(if trace { "trace" } else { "run" }.to_owned()),
        ),
        ("seed".to_owned(), Json::UInt(seed)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("nproc".to_owned(), Json::UInt(env::nproc() as u64)),
        ("rustc".to_owned(), Json::Str(env::rustc_version())),
        ("commit".to_owned(), Json::Str(env::git_commit())),
        (
            "sizes".to_owned(),
            Json::obj(
                Sizes::FROZEN
                    .describe()
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), Json::Str(v))),
            ),
        ),
        ("workloads".to_owned(), Json::obj(workloads)),
    ]);
    let path = out.unwrap_or_else(|| {
        env::out_dir().join(format!(
            "{}-{seed}.json",
            if trace { "trace" } else { "run" }
        ))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, format!("{set}\n")));
    if let Err(e) = written {
        eprintln!("gm-perf: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("set written to {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("gm-perf: at least one workload failed its output checks");
        ExitCode::FAILURE
    }
}

fn compare_sets(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage();
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path} is not JSON: {e:?}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("gm-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (rows, problems) = compare::compare(&a, &b);
    print!("{}", compare::render(&rows));
    println!("ratio base: B/A, A is the first file; bounds are those of BENCHMARK.json");
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let outside = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Outside)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {outside} outside their bound, {unresolved} unresolved, {} other problems",
        rows.len(),
        problems.len()
    );
    if outside == 0 && problems.is_empty() && !rows.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, one entry per line.
fn print_spec() {
    let Json::Obj(spec) = catalog::benchmark_json() else {
        unreachable!("the catalogue renders an object");
    };
    let keys = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    println!("{{");
    for (i, key) in keys.iter().enumerate() {
        let comma = if i + 1 < keys.len() { "," } else { "" };
        match &spec[*key] {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                println!("  \"{key}\": [");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    println!("    {item}{comma}");
                }
                println!("  ]{comma}");
            }
            value => println!("  \"{key}\": {value}{comma}"),
        }
    }
    println!("}}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_set(&args[1..], false),
        Some("trace") => run_set(&args[1..], true),
        Some("compare") => compare_sets(&args[1..]),
        Some("spec") => {
            print_spec();
            ExitCode::SUCCESS
        }
        Some(flag) if flag.starts_with("--") => measure(&args),
        _ => usage(),
    }
}
