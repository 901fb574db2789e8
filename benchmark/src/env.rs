//! What the benchmark takes from and records about its surroundings.

use std::path::PathBuf;
use std::process::Command;

/// Removes every `GM_*` variable from this process's environment and
/// returns their names: the layers read a dozen of them for defaults, and
/// a stray one must not change what is measured. Call before the first
/// thread starts.
pub fn scrub_gm_variables() -> Vec<String> {
    let mut found: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GM_"))
        .collect();
    found.sort();
    for name in &found {
        std::env::remove_var(name);
    }
    found
}

/// Silences the panic message of the fault `durable_pagerank` injects; any
/// other panic is reported as usual.
pub fn quiet_injected_faults() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default(info);
        }
    }));
}

/// `benchmark/out/`, next to this package's manifest: the only place the
/// benchmark writes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `BENCHMARK.json` of the checkout this binary was built in.
pub fn benchmark_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// First line of a command's output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The commit of the checkout (`"unknown"` outside a git repository).
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}
