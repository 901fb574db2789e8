//! Chaos acceptance: `kill -9` the real `gmd` binary mid-superstep under
//! concurrent two-tenant load, restart it and kill it again mid-run, tear
//! the journal tail, restart, and assert that every journalled job
//! reaches a terminal state with per-column fingerprints bit-identical to
//! an uninterrupted local run.
//!
//! This drives the actual binary (via `CARGO_BIN_EXE_gmd`), not the
//! library: SIGKILL must hit a separate process for the write-ahead
//! journal to be the only survivor. A failing run keeps its scratch
//! directory (journal segments, checkpoints, daemon stderr per leg) and
//! prints its path.

use gm_core::seqinterp::ArgValue;
use gm_interp::run_compiled;
use gm_obs::json::Json;
use gmd::client::Client;
use gmd::fingerprint_values;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const GRAPH_SPEC: &str = "g=rmat:600:3000:7";
const SEED: u64 = 7;
const WORKERS: usize = 2;

/// Kills the child on panic/early return so a failed assertion never
/// leaks a daemon process.
struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The test's scratch directory: removed when the test passes, kept and
/// printed when it panics.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gmd-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("chaos: FAILED, artifacts kept in {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn spawn_daemon(dir: &Path, leg: &str) -> Guard {
    let addr_file = dir.join("addr");
    let _ = std::fs::remove_file(&addr_file);
    let stderr = std::fs::File::create(dir.join(format!("gmd-{leg}.stderr"))).expect("stderr file");
    let child = Command::new(env!("CARGO_BIN_EXE_gmd"))
        .args([
            "--graph",
            GRAPH_SPEC,
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
        .expect("spawn gmd");
    Guard(child)
}

/// A client for the daemon of the current leg: the kernel may hand each
/// restart a different ephemeral port.
fn connect(dir: &Path) -> Client {
    Client::new(wait_addr(dir))
        .with_timeout(Duration::from_secs(10))
        .with_reconnect(Duration::from_secs(10))
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
        assert!(
            Instant::now() < deadline,
            "daemon never wrote {addr_file:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A deliberately long PageRank (60 supersteps; `e` never converges) so
/// SIGKILL reliably lands mid-run with checkpoints on disk.
fn job_body(tenant: &str) -> String {
    format!(
        r#"{{"tenant":"{tenant}","graph":"g","program":"pagerank",
            "args":{{"e":1e-30,"d":0.85,"max_iter":60}},
            "seed":{SEED},"workers":{WORKERS},"checkpoint_every":1}}"#
    )
}

/// [`job_body`] asking for the property columns too. The daemon's result
/// cache never answers such a job, so it always runs.
fn uncached_job_body(tenant: &str) -> String {
    format!(
        r#"{{"tenant":"{tenant}","graph":"g","program":"pagerank",
            "args":{{"e":1e-30,"d":0.85,"max_iter":60}},
            "seed":{SEED},"workers":{WORKERS},"checkpoint_every":1,
            "include_props":true}}"#
    )
}

/// The same run, uninterrupted and in-process: identical compile
/// pipeline, interpreter, graph, args, seed, and worker count as the
/// daemon — the bit-identity oracle.
fn local_reference() -> BTreeMap<String, String> {
    let graph = gm_graph::gen::rmat(600, 3000, 7);
    let compiled =
        greenmarl::service::compile_source(gm_algorithms::sources::PAGERANK).expect("compile");
    let args: std::collections::HashMap<String, ArgValue> = [
        (
            "e".to_owned(),
            ArgValue::Scalar(gm_core::value::Value::Double(1e-30)),
        ),
        (
            "d".to_owned(),
            ArgValue::Scalar(gm_core::value::Value::Double(0.85)),
        ),
        (
            "max_iter".to_owned(),
            ArgValue::Scalar(gm_core::value::Value::Int(60)),
        ),
    ]
    .into_iter()
    .collect();
    let config = gm_pregel::PregelConfig::with_workers(WORKERS);
    let out = run_compiled(&graph, &compiled, &args, SEED, &config).expect("reference run");
    out.node_props
        .iter()
        .map(|(name, values)| (name.clone(), fingerprint_values(values)))
        .collect()
}

fn newest_segment(journal: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(journal)
        .expect("journal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "gmj"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

/// Where the journal ends: the newest segment and its length.
fn journal_end(journal: &Path) -> (PathBuf, u64) {
    let seg = newest_segment(journal);
    let len = std::fs::metadata(&seg).expect("segment metadata").len();
    (seg, len)
}

/// Waits until a SIGKILL will have teeth: a checkpoint snapshot is
/// durable on disk, some job is observably mid-run, and the journal has
/// grown past `base`, so the tail the test tears is never an acknowledged
/// acceptance. Returns `false` if every job finished first.
fn wait_until_armed(
    client: &Client,
    ids: &[String],
    journal: &Path,
    base: &(PathBuf, u64),
) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snapshot_on_disk = std::fs::read_dir(journal.join("ckpt"))
            .map(|jobs| {
                jobs.flatten().any(|job| {
                    std::fs::read_dir(job.path())
                        .map(|files| files.flatten().next().is_some())
                        .unwrap_or(false)
                })
            })
            .unwrap_or(false);
        let statuses: Vec<Option<String>> = ids
            .iter()
            .map(|id| {
                let doc = client.get_json(&format!("/v1/jobs/{id}")).ok()?.1;
                doc.get("status").and_then(Json::as_str).map(str::to_owned)
            })
            .collect();
        let running = statuses.iter().any(|s| s.as_deref() == Some("running"));
        let (seg, len) = journal_end(journal);
        let past_base = seg != base.0 || len > base.1;
        if snapshot_on_disk && running && past_base {
            return true;
        }
        if past_base && statuses.iter().all(|s| s.as_deref() == Some("completed")) {
            return false;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint+running state within 30s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn kill_nine_mid_superstep_then_restart_reaches_terminal_bit_identical_states() {
    let scratch = Scratch::new("kill9");
    let dir = &scratch.0;
    let journal = dir.join("journal");

    // Leg 0: daemon under two-tenant load.
    let mut daemon = spawn_daemon(dir, "leg0");
    let mut client = connect(dir);
    let mut ids = Vec::new();
    for tenant in ["acme", "globex"] {
        for _ in 0..2 {
            ids.push(client.submit(&job_body(tenant)).expect("submit"));
        }
    }
    // The journal as it stood when the last acceptance was acknowledged:
    // its final record is that acceptance.
    let mut base = journal_end(&journal);

    // Two kill rounds: mid-run under load, then mid-run again on the
    // daemon that replayed the first crash (whose compacted segment ends
    // in acceptances, hence the new base).
    for round in 1..=2 {
        let armed = wait_until_armed(&client, &ids, &journal, &base);
        assert!(
            armed || round > 1,
            "every job finished before the first kill"
        );
        eprintln!("chaos: round {round}: SIGKILL (mid-run: {armed})");
        daemon.0.kill().expect("SIGKILL");
        daemon.0.wait().expect("reap");
        if round == 1 {
            daemon = spawn_daemon(dir, "leg1");
            client = connect(dir);
            base = journal_end(&journal);
        }
    }
    drop(daemon);

    // Tear the journal tail: the torn record must be detected by CRC
    // framing and dropped without aborting replay.
    let seg = newest_segment(&journal);
    let bytes = std::fs::read(&seg).expect("read segment");
    assert!(bytes.len() > 3, "segment too small to tear");
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).expect("tear tail");

    // Leg 2: restart over the same journal. Every job must reach a
    // terminal state; completed jobs must be bit-identical to the
    // uninterrupted reference.
    let _daemon = spawn_daemon(dir, "leg2");
    let client = connect(dir);

    let reference = local_reference();
    assert!(!reference.is_empty(), "pagerank exports node properties");
    for id in &ids {
        let status = client
            .wait(id, Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("job {id} not terminal after restart: {e}"));
        let state = status.get("status").and_then(Json::as_str).expect("status");
        assert_eq!(
            state, "completed",
            "job {id} should complete after replay: {status}"
        );
        for (prop, want) in &reference {
            let got = status
                .get("result")
                .and_then(|r| r.get("fingerprints"))
                .and_then(|f| f.get(prop))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("job {id} missing fingerprint for {prop}: {status}"));
            assert_eq!(
                got, want,
                "job {id}: fingerprint for {prop} diverged from the uninterrupted run"
            );
        }
    }

    // The restarted daemon keeps serving fresh work on the resumed id
    // sequence (no id reuse after replay).
    let fresh = client
        .submit(&job_body("acme"))
        .expect("post-restart submit");
    assert!(
        !ids.contains(&fresh),
        "restart must not reuse journalled ids"
    );
    let status = client
        .wait(&fresh, Duration::from_secs(60))
        .expect("fresh job");
    assert_eq!(
        status.get("status").and_then(Json::as_str),
        Some("completed")
    );

    // That repeat may be answered from the result cache, which the
    // recovered jobs filled. A job the cache cannot answer really runs
    // on the restarted daemon, bit-identical to the reference.
    let run = client
        .submit(&uncached_job_body("globex"))
        .expect("post-restart uncached submit");
    let status = client
        .wait(&run, Duration::from_secs(60))
        .expect("uncached job");
    assert_eq!(status.get("cached"), Some(&Json::Bool(false)), "{status}");
    assert_eq!(
        status.get("status").and_then(Json::as_str),
        Some("completed")
    );
    for (prop, want) in &reference {
        let got = status
            .get("result")
            .and_then(|r| r.get("fingerprints"))
            .and_then(|f| f.get(prop))
            .and_then(Json::as_str);
        assert_eq!(got, Some(want.as_str()), "post-restart run: {prop}");
    }
}
