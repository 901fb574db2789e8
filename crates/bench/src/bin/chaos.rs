//! `chaos` — the `gm-bench` crash-recovery harness for `gmd`.
//!
//! Spawns a journal-backed daemon, offers checkpoint-armed jobs across
//! several tenants, `kill -9`s the daemon mid-superstep (only once a
//! checkpoint snapshot is durable on disk *and* a job is observably
//! running, so the crash has teeth), restarts it over the same journal,
//! and repeats for `--kills` rounds. At the end every journalled job
//! must reach a terminal `completed` state, and every completed job's
//! result fingerprints must be bit-identical to a fresh, uninterrupted
//! submission of the same spec against the final daemon. That oracle
//! asks for `include_props`, so the daemon's result cache cannot answer
//! it, and its status must say `"cached": false`.
//!
//! ```text
//! chaos --gmd target/release/gmd [--dir PATH] [--graph g=rmat:600:3000:7]
//!       [--jobs 4] [--kills 1] [--tenants acme,globex] [--seed 7] [--keep]
//! ```
//!
//! Exit status: 0 when every job completed with matching fingerprints;
//! 1 otherwise. On failure the scratch directory (journal segments,
//! daemon stderr logs) is always kept and its path printed, so CI can
//! upload it as a post-mortem artifact.

use gm_obs::json::Json;
use gmd::client::Client;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

struct Flags {
    gmd: PathBuf,
    dir: Option<PathBuf>,
    graph: String,
    jobs: usize,
    kills: usize,
    tenants: Vec<String>,
    seed: u64,
    keep: bool,
}

fn usage() -> ! {
    eprintln!("usage: chaos --gmd PATH [--dir PATH] [--graph NAME=SPEC] [--jobs N]");
    eprintln!("             [--kills N] [--tenants a,b] [--seed N] [--keep]");
    std::process::exit(2);
}

fn parse_flags() -> Flags {
    let mut gmd = None;
    let mut flags = Flags {
        gmd: PathBuf::new(),
        dir: None,
        graph: "g=rmat:600:3000:7".to_owned(),
        jobs: 4,
        kills: 1,
        tenants: vec!["acme".to_owned(), "globex".to_owned()],
        seed: 7,
        keep: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            usage()
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--gmd" => gmd = Some(PathBuf::from(value("--gmd", &mut args))),
            "--dir" => flags.dir = Some(PathBuf::from(value("--dir", &mut args))),
            "--graph" => flags.graph = value("--graph", &mut args),
            "--jobs" => {
                flags.jobs = value("--jobs", &mut args).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --jobs: {e}");
                    usage()
                })
            }
            "--kills" => {
                flags.kills = value("--kills", &mut args).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --kills: {e}");
                    usage()
                })
            }
            "--tenants" => {
                flags.tenants = value("--tenants", &mut args)
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_owned)
                    .collect()
            }
            "--seed" => {
                flags.seed = value("--seed", &mut args).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --seed: {e}");
                    usage()
                })
            }
            "--keep" => flags.keep = true,
            other => {
                eprintln!("error: unknown flag {other}");
                usage()
            }
        }
    }
    let Some(gmd) = gmd else {
        eprintln!("error: --gmd is required");
        usage()
    };
    flags.gmd = gmd;
    if flags.jobs == 0 || flags.tenants.is_empty() || !flags.graph.contains('=') {
        eprintln!("error: --jobs and --tenants must be non-empty, --graph must be NAME=SPEC");
        usage()
    }
    flags
}

/// Kills the daemon on drop so an orchestration failure never leaks a
/// process.
struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(flags: &Flags, dir: &Path, leg: usize) -> Guard {
    let addr_file = dir.join("addr");
    let _ = std::fs::remove_file(&addr_file);
    let stderr =
        std::fs::File::create(dir.join(format!("gmd-leg{leg}.stderr"))).expect("stderr file");
    let child = Command::new(&flags.gmd)
        .args([
            "--graph",
            &flags.graph,
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().expect("utf-8 path"),
            "--journal-dir",
            dir.join("journal").to_str().expect("utf-8 path"),
            "--checkpoint-every",
            "1",
            "--workers",
            "2",
            "--max-concurrent",
            "2",
            "--drain-timeout-ms",
            "2000",
        ])
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("chaos: cannot spawn {}: {e}", flags.gmd.display());
            std::process::exit(1);
        });
    Guard(child)
}

fn wait_addr(dir: &Path) -> SocketAddr {
    let addr_file = dir.join("addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        if Instant::now() >= deadline {
            eprintln!("chaos: daemon never wrote {}", addr_file.display());
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A deliberately long PageRank (`e` never converges) with per-superstep
/// checkpoints, so a SIGKILL reliably lands mid-run with durable state.
fn job_body(tenant: &str, graph: &str, seed: u64, include_props: bool) -> String {
    format!(
        r#"{{"tenant":"{tenant}","graph":"{graph}","program":"pagerank",
            "args":{{"e":1e-30,"d":0.85,"max_iter":60}},
            "seed":{seed},"workers":2,"checkpoint_every":1,
            "include_props":{include_props}}}"#
    )
}

/// True once some checkpoint snapshot file is durable under the journal.
fn snapshot_on_disk(journal: &Path) -> bool {
    std::fs::read_dir(journal.join("ckpt"))
        .map(|jobs| {
            jobs.flatten().any(|job| {
                std::fs::read_dir(job.path())
                    .map(|files| files.flatten().next().is_some())
                    .unwrap_or(false)
            })
        })
        .unwrap_or(false)
}

fn status_of(client: &Client, id: &str) -> Option<Json> {
    client
        .get_json(&format!("/v1/jobs/{id}"))
        .ok()
        .map(|(_, doc)| doc)
}

fn fingerprints_of(status: &Json) -> BTreeMap<String, String> {
    let Some(Json::Obj(map)) = status.get("result").and_then(|r| r.get("fingerprints")) else {
        return BTreeMap::new();
    };
    map.iter()
        .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
        .collect()
}

fn main() -> ExitCode {
    let flags = parse_flags();
    let graph_name = flags.graph.split('=').next().expect("validated").to_owned();
    let dir = flags
        .dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("gmd-chaos-{}", std::process::id())));
    let _ = std::fs::create_dir_all(&dir);
    let journal = dir.join("journal");
    eprintln!("chaos: scratch dir {}", dir.display());

    // Leg 0: offer the full job set, then crash under it --kills times.
    let mut daemon = spawn_daemon(&flags, &dir, 0);
    let mut client = Client::new(wait_addr(&dir))
        .with_timeout(Duration::from_secs(10))
        .with_reconnect(Duration::from_secs(15));
    let mut ids = Vec::new();
    for i in 0..flags.jobs {
        let tenant = &flags.tenants[i % flags.tenants.len()];
        match client.submit(&job_body(tenant, &graph_name, flags.seed, false)) {
            Ok(id) => ids.push(id),
            Err(e) => {
                eprintln!("chaos: submission {i} rejected: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for round in 1..=flags.kills {
        // Kill only once the crash will have teeth; if every job already
        // finished there is nothing left worth crashing into.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut armed = false;
        while Instant::now() < deadline {
            let statuses: Vec<Option<String>> = ids
                .iter()
                .map(|id| {
                    status_of(&client, id)
                        .and_then(|doc| doc.get("status").and_then(Json::as_str).map(str::to_owned))
                })
                .collect();
            let running = statuses.iter().any(|s| s.as_deref() == Some("running"));
            let all_terminal = statuses
                .iter()
                .all(|s| matches!(s.as_deref(), Some("completed") | Some("failed")));
            if all_terminal {
                break;
            }
            if running && snapshot_on_disk(&journal) {
                armed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !armed {
            eprintln!("chaos: round {round}: nothing left to crash into");
            break;
        }
        eprintln!("chaos: round {round}: SIGKILL mid-superstep");
        daemon.0.kill().expect("SIGKILL");
        daemon.0.wait().expect("reap");
        daemon = spawn_daemon(&flags, &dir, round);
        // The kernel may hand the restarted daemon a different ephemeral
        // port; rebind the client to wherever this leg landed.
        client = Client::new(wait_addr(&dir))
            .with_timeout(Duration::from_secs(10))
            .with_reconnect(Duration::from_secs(15));
    }

    // Every journalled job must reach a terminal state after replay.
    let mut failures = 0usize;
    let mut completed = Vec::new();
    for id in &ids {
        match client.wait(id, Duration::from_secs(120)) {
            Ok(status) => {
                if status.get("status").and_then(Json::as_str) == Some("completed") {
                    completed.push((id.clone(), fingerprints_of(&status)));
                } else {
                    eprintln!("chaos: job {id} terminal but not completed: {status:?}");
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("chaos: job {id} never reached a terminal state: {e}");
                failures += 1;
            }
        }
    }

    // Bit-identity oracle: a fresh, uninterrupted run of the same spec
    // on the surviving daemon. Every crashed-and-recovered job must
    // match it fingerprint-for-fingerprint. `include_props` keeps the
    // daemon's result cache from answering it with a recovered job's
    // own result.
    let oracle_body = job_body(&flags.tenants[0], &graph_name, flags.seed, true);
    let oracle_id = match client.submit(&oracle_body) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("chaos: oracle submission rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    let oracle = match client.wait(&oracle_id, Duration::from_secs(120)) {
        Ok(status) if status.get("cached") != Some(&Json::Bool(false)) => {
            eprintln!("chaos: oracle job was not a fresh run: {status:?}");
            return ExitCode::FAILURE;
        }
        Ok(status) => fingerprints_of(&status),
        Err(e) => {
            eprintln!("chaos: oracle job failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if oracle.is_empty() {
        eprintln!("chaos: oracle run exported no fingerprints");
        return ExitCode::FAILURE;
    }
    for (id, prints) in &completed {
        if prints != &oracle {
            eprintln!("chaos: job {id} fingerprints diverged from the uninterrupted oracle:");
            eprintln!("chaos:   got  {prints:?}");
            eprintln!("chaos:   want {oracle:?}");
            failures += 1;
        }
    }
    drop(daemon);

    eprintln!(
        "chaos: {} jobs, {} completed bit-identically, {} failures",
        ids.len(),
        completed.len(),
        failures
    );
    if failures > 0 {
        eprintln!("chaos: FAILED — artifacts kept in {}", dir.display());
        return ExitCode::FAILURE;
    }
    if !flags.keep && flags.dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    eprintln!("chaos: PASSED");
    ExitCode::SUCCESS
}
