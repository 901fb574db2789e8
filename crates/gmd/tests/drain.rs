//! Double-signal drain escalation against the real binary: the first
//! SIGTERM starts a graceful drain (queued work cancelled, running work
//! allowed to finish inside the drain window), a second SIGTERM latches
//! the abort and the daemon exits immediately — with every journalled
//! job at a terminal state, verified by replaying the journal after the
//! process is gone.

use gm_obs::json::Json;
use gm_obs::metrics::MetricsRegistry;
use gmd::client::Client;
use gmd::job::JobState;
use gmd::{Journal, JournalConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gmd-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn sigterm(pid: u32) {
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM {pid} failed");
}

fn wait_addr(path: &Path) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls `path` until its JSON body satisfies `done`; `what` names the
/// failure after 30 s.
fn wait_for(client: &Client, path: &str, what: &str, done: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, doc) = client.get_json(path).expect(path);
        if done(&doc) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn second_signal_escalates_a_stuck_drain_and_leaves_the_journal_terminal() {
    let dir = fresh_dir();
    let addr_file = dir.join("addr");
    let journal_dir = dir.join("journal");
    let stderr = std::fs::File::create(dir.join("gmd.stderr")).expect("stderr file");
    // A 60s drain window: without the second-signal escalation this test
    // could not finish in time, so a prompt exit *is* the assertion.
    let mut daemon = Guard(
        Command::new(env!("CARGO_BIN_EXE_gmd"))
            .args([
                "--graph",
                "big=rmat:4000:20000:7",
                "--listen",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().expect("utf-8 path"),
                "--journal-dir",
                journal_dir.to_str().expect("utf-8 path"),
                "--workers",
                "2",
                "--max-concurrent",
                "1",
                "--drain-timeout-ms",
                "60000",
            ])
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .expect("spawn gmd"),
    );
    let pid = daemon.0.id();
    let client = Client::new(wait_addr(&addr_file)).with_timeout(Duration::from_secs(10));

    // One effectively-endless job hogs the single runner; a second job
    // queues behind it and can only ever terminate via the drain. A
    // negative `e` keeps `diff > e` true on every iteration (the L1 delta
    // is never negative), so only `max_iter` could end the loop; a tiny
    // positive `e` would not do, PageRank reaches an exact fixed point.
    let long = r#"{"tenant":"acme","graph":"big","program":"pagerank",
        "args":{"e":-1.0,"d":0.85,"max_iter":100000},"seed":7}"#;
    let running = client.submit(long).expect("long job");
    let queued = client.submit(long).expect("queued job");

    wait_for(
        &client,
        &format!("/v1/jobs/{running}"),
        "job never started running",
        |doc| doc.get("status").and_then(Json::as_str) == Some("running"),
    );

    // First SIGTERM: drain begins but the running job will not finish
    // for hours — the daemon must still be alive once it reports the
    // drain.
    sigterm(pid);
    wait_for(&client, "/healthz", "drain never began", |doc| {
        matches!(doc.get("draining"), Some(Json::Bool(true)))
    });
    assert!(
        daemon.0.try_wait().expect("try_wait").is_none(),
        "daemon exited on the first signal despite a 60s drain window"
    );

    // Second SIGTERM: abort latch. The drain must stop waiting, cancel
    // the straggler, flush the journal, and exit successfully — well
    // under the drain window.
    sigterm(pid);
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon ignored the second signal"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "escalated drain must still exit 0");

    // The journal (replayed post-mortem, exactly as a restart would)
    // holds both jobs at terminal cancelled states: nothing to requeue.
    let (_, replay) = Journal::open(
        &JournalConfig::new(&journal_dir),
        0,
        Arc::new(MetricsRegistry::new()),
    )
    .expect("replay journal");
    assert_eq!(replay.jobs.len(), 2);
    for job in &replay.jobs {
        assert!(
            !replay.requeue.contains_key(&job.id),
            "job {} left non-terminal by the abort",
            job.id
        );
        let JobState::Failed { kind, .. } = &job.state else {
            panic!("job {} should be cancelled, got {:?}", job.id, job.state);
        };
        assert_eq!(kind, "cancelled", "job {}", job.id);
    }
    assert!(replay.jobs.iter().any(|j| j.id == running));
    assert!(replay.jobs.iter().any(|j| j.id == queued));

    let _ = std::fs::remove_dir_all(&dir);
}
