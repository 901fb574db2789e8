//! The `gmd` binary: flag parsing, signal handling, and the serve loop.
//!
//! ```text
//! gmd --graph <name>=<edges.txt | rmat:N:M:SEED | uniform:N:M:SEED> [--graph ...]
//!     [--listen 127.0.0.1:8080] [--max-concurrent N] [--queue-cap N]
//!     [--workers N] [--total-message-bytes N] [--total-resident-bytes N]
//!     [--default-deadline-ms N] [--post-mortem-dir DIR] [--post-mortem-keep N]
//!     [--drain-timeout-ms N] [--metrics-file PATH] [--addr-file PATH]
//!     [--journal-dir DIR] [--checkpoint-every N] [--job-history-keep N]
//!     [--max-retries N] [--retry-base-ms N] [--retry-cap-ms N]
//!     [--retry-tenant-tokens N] [--retry-tenant-refill-ms N]
//!     [--brownout-hold-ms N] [--brownout-saturation F] [--brownout-shed-to N]
//! ```
//!
//! The process serves until SIGINT/SIGTERM, then drains: new submissions
//! get `503 draining`, queued jobs fail as `cancelled`, running jobs get
//! `--drain-timeout-ms` to finish (then a cooperative cancel), the final
//! metrics exposition is flushed to `--metrics-file` when given, and the
//! process exits 0. A **second** SIGINT/SIGTERM escalates the drain to an
//! immediate cooperative abort (running jobs are cancelled at their next
//! superstep boundary) with the journal already flushed — every accepted
//! job's fate is on disk before it is acknowledged.
//!
//! With `--journal-dir` the daemon is crash-durable: accepted jobs are
//! journalled write-ahead, and on restart non-terminal jobs are re-queued
//! (resuming from their newest checkpoint when `--checkpoint-every` or a
//! per-job `checkpoint_every` armed snapshots).

use gmd::{Daemon, DaemonConfig, GraphSpec, JournalConfig};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Stops the second-signal watcher thread once the drain finished.
static ABORT_WATCHER_DONE: AtomicBool = AtomicBool::new(false);

fn usage() -> ExitCode {
    eprintln!("usage: gmd --graph <name>=<edges.txt|rmat:N:M:SEED|uniform:N:M:SEED> [--graph ...]");
    eprintln!("           [--listen 127.0.0.1:8080] [--max-concurrent N] [--queue-cap N]");
    eprintln!("           [--workers N] [--total-message-bytes N] [--total-resident-bytes N]");
    eprintln!(
        "           [--default-deadline-ms N] [--post-mortem-dir DIR] [--post-mortem-keep N]"
    );
    eprintln!("           [--drain-timeout-ms N] [--metrics-file PATH] [--addr-file PATH]");
    eprintln!("           [--journal-dir DIR] [--checkpoint-every N] [--job-history-keep N]");
    eprintln!("           [--max-retries N] [--retry-base-ms N] [--retry-cap-ms N]");
    eprintln!("           [--retry-tenant-tokens N] [--retry-tenant-refill-ms N]");
    eprintln!("           [--brownout-hold-ms N] [--brownout-saturation F] [--brownout-shed-to N]");
    eprintln!(
        "           [--no-native-builtins]  (run every program, builtin or inline, interpreted)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = DaemonConfig::default();
    let mut metrics_file: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut post_mortem_dir: Option<String> = None;
    let mut post_mortem_keep: Option<usize> = None;
    let mut journal_dir: Option<String> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut brownout = gmd::daemon::BrownoutConfig::default();
    let mut brownout_armed = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        macro_rules! value {
            () => {
                match it.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("gmd: {flag} needs a value");
                        return usage();
                    }
                }
            };
        }
        macro_rules! parsed {
            ($ty:ty) => {
                match value!().parse::<$ty>() {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("gmd: bad value for {flag}: {e}");
                        return usage();
                    }
                }
            };
        }
        match flag.as_str() {
            "--graph" => match GraphSpec::parse(value!()) {
                Ok(spec) => config.graphs.push(spec),
                Err(e) => {
                    eprintln!("gmd: {e}");
                    return usage();
                }
            },
            "--listen" => config.listen = value!().clone(),
            "--max-concurrent" => config.max_concurrent = parsed!(usize),
            "--queue-cap" => config.queue_cap = parsed!(usize),
            "--workers" => config.default_workers = parsed!(usize),
            "--total-message-bytes" => config.total_message_bytes = parsed!(u64),
            "--total-resident-bytes" => config.total_resident_bytes = parsed!(u64),
            "--default-deadline-ms" => {
                config.default_deadline = Some(Duration::from_millis(parsed!(u64)));
            }
            "--post-mortem-dir" => post_mortem_dir = Some(value!().clone()),
            "--post-mortem-keep" => post_mortem_keep = Some(parsed!(usize)),
            "--drain-timeout-ms" => config.drain_timeout = Duration::from_millis(parsed!(u64)),
            "--metrics-file" => metrics_file = Some(value!().clone()),
            // Written once the listener is bound — lets harnesses using
            // an ephemeral port discover where the daemon landed.
            "--addr-file" => addr_file = Some(value!().clone()),
            "--journal-dir" => journal_dir = Some(value!().clone()),
            "--checkpoint-every" => checkpoint_every = Some(parsed!(u32)),
            "--job-history-keep" => config.job_history_keep = parsed!(usize),
            "--max-retries" => config.retry.max_retries = parsed!(u32),
            "--retry-base-ms" => config.retry.base = Duration::from_millis(parsed!(u64)),
            "--retry-cap-ms" => config.retry.cap = Duration::from_millis(parsed!(u64)),
            "--retry-tenant-tokens" => config.retry.tenant_tokens = parsed!(u32),
            "--retry-tenant-refill-ms" => {
                config.retry.tenant_refill = Duration::from_millis(parsed!(u64));
            }
            "--brownout-hold-ms" => {
                brownout.hold = Duration::from_millis(parsed!(u64));
                brownout_armed = true;
            }
            "--brownout-saturation" => {
                brownout.saturation = parsed!(f64);
                brownout_armed = true;
            }
            "--brownout-shed-to" => {
                brownout.shed_to = parsed!(usize);
                brownout_armed = true;
            }
            // Force builtins onto the PIR interpreter (the default serves
            // them through the compiled-in rustgen modules).
            "--no-native-builtins" => config.native_builtins = false,
            other => {
                eprintln!("gmd: unknown flag {other}");
                return usage();
            }
        }
    }
    if let Some(dir) = post_mortem_dir {
        let mut pm = gm_pregel::PostMortemConfig::new(dir);
        if let Some(keep) = post_mortem_keep {
            pm = pm.with_keep(keep);
        }
        config.post_mortem = Some(pm);
    } else if let (Some(keep), Some(pm)) = (post_mortem_keep, config.post_mortem.take()) {
        config.post_mortem = Some(pm.with_keep(keep));
    }
    if let Some(dir) = journal_dir {
        let mut jc = JournalConfig::new(dir);
        jc.checkpoint_every = checkpoint_every;
        config.journal = Some(jc);
    } else if checkpoint_every.is_some() {
        eprintln!("gmd: --checkpoint-every needs --journal-dir");
        return usage();
    }
    if brownout_armed {
        config.brownout = Some(brownout);
    }

    gm_obs::signal::install();
    let abort = config.abort.clone();
    let daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gmd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let state = daemon.state().clone();
    for (name, g) in state.graphs() {
        eprintln!(
            "gmd: loaded graph {name}: {} nodes, {} edges",
            g.graph.num_nodes(),
            g.graph.num_edges()
        );
    }
    eprintln!("gmd: serving on http://{}", daemon.addr());
    if let Some(path) = addr_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", daemon.addr())) {
            eprintln!("gmd: cannot write addr file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    while !gm_obs::signal::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("gmd: shutdown requested, draining...");
    // A second signal escalates the drain into an immediate abort; the
    // watcher keeps polling while drain() blocks below.
    let watcher = std::thread::spawn(move || {
        while gm_obs::signal::count() < 2 {
            if ABORT_WATCHER_DONE.load(std::sync::atomic::Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("gmd: second signal, aborting drain");
        abort.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let graceful = daemon.drain();
    ABORT_WATCHER_DONE.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = watcher.join();
    if let Some(path) = metrics_file {
        if let Err(e) = state.registry().write_prometheus(&path) {
            eprintln!("gmd: cannot write metrics file {path}: {e}");
        }
    }
    eprintln!(
        "gmd: drained {}",
        if graceful {
            "cleanly"
        } else {
            "with cancelled stragglers"
        }
    );
    ExitCode::SUCCESS
}
