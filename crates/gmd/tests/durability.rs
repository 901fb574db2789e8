//! Library-level durability acceptance: journal-backed restart, the
//! retry/backoff policy, brownout shedding, and terminal-history GC —
//! everything `kill -9` chaos (see `tests/chaos.rs`) exercises at the
//! process level, pinned here deterministically at the API level.

use gm_ckpt::FaultPlan;
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_obs::json::parse;
use gm_pregel::{PregelConfig, ResourceBudget};
use gmd::daemon::{BrownoutConfig, Reject};
use gmd::{Daemon, DaemonConfig, GraphSpec, JobSpec, JournalConfig, RetryPolicy};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gmd-durability-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config(graphs: &[(&str, &str)]) -> DaemonConfig {
    DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        graphs: graphs
            .iter()
            .map(|(name, source)| GraphSpec {
                name: (*name).to_owned(),
                source: (*source).to_owned(),
            })
            .collect(),
        max_concurrent: 1,
        queue_cap: 64,
        default_workers: 2,
        total_message_bytes: 1 << 30,
        total_resident_bytes: 4 << 30,
        default_deadline: None,
        post_mortem: None,
        quarantine_threshold: 100,
        drain_timeout: Duration::from_millis(200),
        native_builtins: true,
        journal: None,
        job_history_keep: 0,
        retry: RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
        brownout: None,
        abort: std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
    }
}

fn spec(json: &str) -> JobSpec {
    JobSpec::from_json(&parse(json).expect("spec JSON")).expect("valid spec")
}

fn wait_terminal(state: &std::sync::Arc<gmd::daemon::State>, id: &str) -> gmd::job::JobRecord {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(rec) = state.job(id) {
            if rec.state.is_terminal() {
                return rec;
            }
        }
        assert!(Instant::now() < deadline, "job {id} never became terminal");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fingerprints_of(rec: &gmd::job::JobRecord) -> std::collections::BTreeMap<String, String> {
    match &rec.state {
        gmd::job::JobState::Completed(result) => result.fingerprints.clone(),
        other => panic!("job {} not completed: {other:?}", rec.id),
    }
}

#[test]
fn restart_requeues_journalled_jobs_bit_identically_and_resumes_ids() {
    let dir = fresh_dir("restart");
    let mut config = base_config(&[("g", "rmat:600:3000:7")]);
    config.journal = Some(JournalConfig::new(dir.join("journal")));

    let pagerank = r#"{"tenant":"acme","graph":"g","program":"pagerank",
        "args":{"e":1e-30,"d":0.85,"max_iter":25},"seed":7,"workers":2}"#;

    // First life: accept three jobs, then tear the daemon down without a
    // drain (the Drop path finishes at most the running job — the rest
    // survive only in the journal).
    let first_result;
    {
        let daemon = Daemon::start(config.clone()).expect("first start");
        let state = daemon.state().clone();
        let ids: Vec<String> = (0..3)
            .map(|_| state.submit(spec(pagerank)).expect("submit"))
            .collect();
        assert_eq!(ids, ["job-1", "job-2", "job-3"]);
        first_result = wait_terminal(&state, "job-1");
        // jobs 2 and 3 are (at most) queued behind the single runner.
        drop(daemon);
    }

    // Second life: replay must requeue the unfinished jobs and complete
    // them with fingerprints identical to the uninterrupted first job
    // (same spec, same pinned workers, deterministic interpreter).
    let daemon = Daemon::start(config).expect("second start");
    let state = daemon.state().clone();
    let want = fingerprints_of(&first_result);
    assert!(!want.is_empty());
    for id in ["job-1", "job-2", "job-3"] {
        let rec = wait_terminal(&state, id);
        assert_eq!(
            fingerprints_of(&rec),
            want,
            "{id} diverged across the restart"
        );
    }
    // The id sequence resumes above every journalled id.
    let fresh = state.submit(spec(pagerank)).expect("post-restart submit");
    assert_eq!(fresh, "job-4");
    wait_terminal(&state, &fresh);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon life over `dir`'s journal, native binding on or off. With
/// `park`, a worker panic in superstep 5 sends a running job to an
/// hour-long retry backoff, so a restart finds it queued with snapshots;
/// without, a failure is final.
fn flip_config(dir: &Path, native: bool, park: bool) -> DaemonConfig {
    let mut config = base_config(&[("g", "rmat:600:3000:7")]);
    config.native_builtins = native;
    let mut journal = JournalConfig::new(dir.join("journal"));
    if park {
        journal.faults = FaultPlan::builder().panic_in_compute(5, None).build();
        config.retry = RetryPolicy {
            max_retries: 5,
            base: Duration::from_secs(3600),
            cap: Duration::from_secs(3600),
            ..RetryPolicy::default()
        };
    }
    config.journal = Some(journal);
    config
}

/// PageRank's fingerprints from a local interpreter run of the job below.
fn interp_reference(loaded: &gm_graph::io::LoadedGraph) -> BTreeMap<String, String> {
    let compiled = greenmarl::service::compile_source(gm_algorithms::sources::PAGERANK)
        .expect("reference compile");
    let args = [
        ("e", Value::Double(1e-30)),
        ("d", Value::Double(0.85)),
        ("max_iter", Value::Int(12)),
    ]
    .map(|(k, v)| (k.to_owned(), ArgValue::Scalar(v)))
    .into_iter()
    .collect();
    let config = PregelConfig::with_workers(2).with_budget(ResourceBudget::unbounded());
    let out = gm_interp::run_compiled(&loaded.graph, &compiled, &args, 7, &config)
        .expect("reference run");
    (out.node_props.iter())
        .map(|(name, col)| (name.clone(), gmd::fingerprint_values(col)))
        .collect()
}

/// job-1 below: an inline PageRank that snapshots every second superstep.
fn checkpointed_pagerank() -> String {
    let mut src = String::new();
    gm_obs::json::write_escaped(gm_algorithms::sources::PAGERANK, &mut src);
    format!(
        r#"{{"tenant":"acme","graph":"g","source":{src},"checkpoint_every":2,
        "args":{{"e":1e-30,"d":0.85,"max_iter":12}},"seed":7,"workers":2}}"#
    )
}

/// Waits until job-1 parks in its retry backoff with snapshots on disk.
fn wait_parked(state: &std::sync::Arc<gmd::daemon::State>, dir: &Path) -> gmd::job::JobRecord {
    let deadline = Instant::now() + Duration::from_secs(60);
    let rec = loop {
        let rec = state.job("job-1").expect("record");
        if matches!(rec.state, gmd::job::JobState::Retrying { .. }) {
            break rec;
        }
        assert!(Instant::now() < deadline, "never parked: {:?}", rec.state);
        std::thread::sleep(Duration::from_millis(5));
    };
    let snapshots = std::fs::read_dir(dir.join("journal").join("ckpt").join("job-1"));
    assert!(snapshots.expect("checkpoint dir").next().is_some());
    rec
}

#[test]
fn a_replayed_job_runs_on_the_backend_bound_now() {
    // job-1, a checkpointed inline PageRank, snapshots supersteps 2 and 4
    // and parks in every life but the last, which runs it to the end.
    // Each life runs it on the backend that life binds. A life on another
    // backend than the one before finds snapshots it cannot decode: the
    // runtime discards them and re-runs from superstep 0. A life on the
    // same backend resumes from them.
    let job = checkpointed_pagerank();
    let leg = |native| if native { "native" } else { "interp" };
    for lives in [&[false, true][..], &[true, false, true], &[true, true]] {
        let dir = fresh_dir("flip");
        let (&last, parked) = lives.split_last().expect("lives");
        for (i, &native) in parked.iter().enumerate() {
            let daemon = Daemon::start(flip_config(&dir, native, true)).expect("start");
            let state = daemon.state().clone();
            if i == 0 {
                assert_eq!(state.submit(spec(&job)).expect("submit"), "job-1");
            }
            let rec = wait_parked(&state, &dir);
            assert_eq!(rec.backend, leg(native), "{lives:?}, life {i}");
        }

        let daemon = Daemon::start(flip_config(&dir, last, false)).expect("last start");
        let state = daemon.state().clone();
        let rec = wait_terminal(&state, "job-1");
        assert_eq!(rec.backend, leg(last), "{lives:?}: runs where it binds");
        assert_eq!(rec.attempts, lives.len() as u32);
        let want = interp_reference(&state.graphs()["g"]);
        assert_eq!(fingerprints_of(&rec), want, "{lives:?}: diverged");
        let restores = (state.registry())
            .counter("gm_restores_total", "successful snapshot restores")
            .get();
        let same_leg = parked.last() == Some(&last);
        assert_eq!(restores, u64::from(same_leg), "{lives:?}: restores");

        // A fresh submission of the same text binds natively and agrees.
        let fresh = state.submit(spec(&job)).expect("submit");
        let rec = wait_terminal(&state, &fresh);
        assert_eq!(rec.backend, "native");
        assert_eq!(fingerprints_of(&rec), want);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn transient_failures_retry_until_the_budget_exhausts() {
    // Worker 0 wedges in superstep 0 of each of the first three attempts
    // until the 1ms superstep deadline cancels it, so the job burns its
    // whole retry budget and then fails terminally. The fault, not the
    // kernel's speed, trips the deadline: a fast release build cannot
    // finish the superstep in time and escape it.
    let dir = fresh_dir("retry");
    let mut config = base_config(&[("big", "rmat:4000:20000:7")]);
    let mut journal = JournalConfig::new(dir.join("journal"));
    journal.faults = FaultPlan::builder()
        .hang_in_compute(0, Some(0))
        .times(3)
        .build();
    config.journal = Some(journal);
    config.retry = RetryPolicy {
        max_retries: 2,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    config.quarantine_threshold = 1;
    let daemon = Daemon::start(config).expect("start");
    let state = daemon.state().clone();

    let doomed = r#"{"tenant":"acme","graph":"big","program":"pagerank",
        "args":{"e":0.0,"d":0.85,"max_iter":50},"deadline_ms":1}"#;
    let id = state.submit(spec(doomed)).expect("submit");
    let rec = wait_terminal(&state, &id);
    let gmd::job::JobState::Failed { kind, .. } = &rec.state else {
        panic!("expected failure, got {:?}", rec.state);
    };
    assert_eq!(kind, "deadline_exceeded");
    assert_eq!(rec.attempts, 3, "one attempt plus two retries");

    // Only the *terminal* failure counted toward quarantine (threshold
    // 1): the retries themselves did not triple-poison the signature,
    // but the signature is now quarantined.
    match state.submit(spec(doomed)) {
        Err(Reject::Quarantined { kind, count }) => {
            assert_eq!(kind, "deadline_exceeded");
            assert_eq!(count, 1, "retries must not inflate the count");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }

    // A per-request override disables retries entirely.
    let one_shot = r#"{"tenant":"acme","graph":"big","program":"sssp",
        "args":{"root":"n:0"},"deadline_ms":1,"max_retries":0}"#;
    let id = state.submit(spec(one_shot)).expect("submit");
    let rec = wait_terminal(&state, &id);
    assert_eq!(rec.attempts, 1, "max_retries:0 means a single attempt");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn brownout_sheds_lowest_priority_newest_first_and_rejects_submissions() {
    // saturation 0.0 counts the daemon as saturated from the first
    // submission, so the 300ms hold is the only clock in the test.
    let mut config = base_config(&[("big", "rmat:4000:20000:7")]);
    config.brownout = Some(BrownoutConfig {
        saturation: 0.0,
        hold: Duration::from_millis(300),
        shed_to: 1,
    });
    let daemon = Daemon::start(config).expect("start");
    let state = daemon.state().clone();

    // A long job occupies the single runner; three more queue behind it.
    // It must outlast the 450ms sleep below by a wide margin: `e` < 0
    // never converges, so it runs all 2000 iterations (a converging
    // 400-iteration run took ~400ms on a 2-core box and raced the sleep).
    let long = r#"{"tenant":"acme","graph":"big","program":"pagerank",
        "args":{"e":-1.0,"d":0.85,"max_iter":2000},"seed":7}"#;
    let job = |tenant: &str, priority: i64| {
        format!(
            r#"{{"tenant":"{tenant}","graph":"big","program":"pagerank",
                "args":{{"e":1e-30,"d":0.85,"max_iter":10}},"priority":{priority}}}"#
        )
    };
    let _running = state.submit(spec(long)).expect("running job");
    let keep = state.submit(spec(&job("acme", 5))).expect("high priority");
    let shed_old = state.submit(spec(&job("globex", 0))).expect("low, older");
    let shed_new = state.submit(spec(&job("globex", 0))).expect("low, newer");

    std::thread::sleep(Duration::from_millis(450));
    // This submission finds the hold expired: the queue (3 deep) is shed
    // down to 1 — lowest priority first, newest first within a priority
    // — and the submission itself is refused with the shedding slug.
    match state.submit(spec(&job("initech", 0))) {
        Err(Reject::Shedding { retry_after }) => {
            assert_eq!(retry_after, Duration::from_millis(300));
        }
        other => panic!("expected shedding rejection, got {other:?}"),
    }
    for id in [&shed_new, &shed_old] {
        let rec = state.job(id).expect("record");
        let gmd::job::JobState::Failed { kind, .. } = &rec.state else {
            panic!("{id} should be shed, got {:?}", rec.state);
        };
        assert_eq!(kind, "shed");
    }
    let keep_rec = state.job(&keep).expect("record");
    assert!(
        !matches!(&keep_rec.state, gmd::job::JobState::Failed { kind, .. } if kind == "shed"),
        "the high-priority job must survive the shed: {:?}",
        keep_rec.state
    );
}

#[test]
fn job_history_keep_evicts_oldest_terminal_records() {
    let dir = fresh_dir("history");
    let mut config = base_config(&[("g", "rmat:300:1500:7")]);
    config.journal = Some(JournalConfig::new(dir.join("journal")));
    config.job_history_keep = 2;
    let quick = r#"{"tenant":"acme","graph":"g","program":"pagerank",
        "args":{"e":1e-30,"d":0.85,"max_iter":5}}"#;
    {
        let daemon = Daemon::start(config.clone()).expect("start");
        let state = daemon.state().clone();
        for _ in 0..4 {
            let id = state.submit(spec(quick)).expect("submit");
            wait_terminal(&state, &id);
        }
        // Only the two newest terminal records survive in memory.
        assert!(state.job("job-1").is_none(), "oldest evicted");
        assert!(state.job("job-2").is_none(), "second-oldest evicted");
        assert!(state.job("job-3").is_some());
        assert!(state.job("job-4").is_some());
    }
    // The journal-side GC mirrors it at compaction: a restart replays
    // only the kept records and still resumes the id sequence above
    // every id ever issued.
    let daemon = Daemon::start(config).expect("restart");
    let state = daemon.state().clone();
    assert!(state.job("job-1").is_none());
    assert!(state.job("job-3").is_some());
    assert!(state.job("job-4").is_some());
    let fresh = state.submit(spec(quick)).expect("submit");
    assert_eq!(fresh, "job-5");
    wait_terminal(&state, &fresh);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

fn newest_segment(journal: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(journal)
        .expect("journal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "gmj"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

const QUICK: &str = r#"{"tenant":"acme","graph":"g","program":"pagerank",
    "args":{"e":1e-30,"d":0.85,"max_iter":5},"seed":3}"#;

#[test]
fn hits_replay_as_completed_and_the_cache_starts_empty_after_a_restart() {
    let dir = fresh_dir("cache-restart");
    let mut config = base_config(&[("g", "rmat:300:1500:7")]);
    config.journal = Some(JournalConfig::new(dir.join("journal")));
    let want;
    {
        let daemon = Daemon::start(config.clone()).expect("first start");
        let state = daemon.state().clone();
        let run = state.submit(spec(QUICK)).expect("submit");
        let run = wait_terminal(&state, &run);
        assert!(!run.cached);
        want = fingerprints_of(&run);
        for id in ["job-2", "job-3"] {
            assert_eq!(state.submit(spec(QUICK)).expect("submit"), id);
            let hit = state.job(id).expect("a hit is terminal at once");
            assert!(hit.cached);
            assert_eq!(fingerprints_of(&hit), want);
        }
    }
    let daemon = Daemon::start(config).expect("second start");
    let state = daemon.state().clone();
    for id in ["job-2", "job-3"] {
        let rec = state.job(id).expect("hit replayed");
        assert_eq!(rec.state.status(), "completed", "{id}");
        assert_eq!(fingerprints_of(&rec), want, "{id}");
    }
    // Replay does not seed the cache: the first repeat runs.
    let fresh = state.submit(spec(QUICK)).expect("submit");
    let rec = wait_terminal(&state, &fresh);
    assert!(!rec.cached, "the cache starts empty");
    assert_eq!(rec.attempts, 1);
    assert_eq!(fingerprints_of(&rec), want);
    let again = state.submit(spec(QUICK)).expect("submit");
    assert!(state.job(&again).expect("hit").cached);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hit_whose_completed_frame_is_torn_reruns_bit_identically() {
    let dir = fresh_dir("cache-torn");
    let mut config = base_config(&[("g", "rmat:300:1500:7")]);
    config.journal = Some(JournalConfig::new(dir.join("journal")));
    let want;
    {
        let daemon = Daemon::start(config.clone()).expect("first start");
        let state = daemon.state().clone();
        let run = state.submit(spec(QUICK)).expect("submit");
        want = fingerprints_of(&wait_terminal(&state, &run));
        let hit = state.submit(spec(QUICK)).expect("submit");
        assert_eq!(hit, "job-2");
        assert!(state.job(&hit).expect("hit").cached);
    }
    // The hit's `completed` record is the segment's last frame: tear it.
    let seg = newest_segment(&dir.join("journal"));
    let bytes = std::fs::read(&seg).expect("read segment");
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).expect("tear tail");

    let daemon = Daemon::start(config).expect("second start");
    let state = daemon.state().clone();
    let rec = wait_terminal(&state, "job-2");
    assert!(!rec.cached, "replayed as accepted and run");
    assert_eq!(rec.attempts, 1);
    assert_eq!(fingerprints_of(&rec), want);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hit_whose_journal_batch_fails_is_refused() {
    let dir = fresh_dir("cache-fault");
    let mut config = base_config(&[("g", "rmat:300:1500:7")]);
    let mut journal = JournalConfig::new(dir.join("journal"));
    // Records 0-2 are the run's accepted, started and completed; the
    // hit's batch is records 3 and 4.
    journal.faults = gm_ckpt::FaultPlan::builder().fail_journal_append(4).build();
    config.journal = Some(journal);
    let daemon = Daemon::start(config).expect("start");
    let state = daemon.state().clone();
    let run = state.submit(spec(QUICK)).expect("submit");
    wait_terminal(&state, &run);
    match state.submit(spec(QUICK)) {
        Err(Reject::JournalUnavailable(message)) => {
            assert!(message.contains("record 4"), "{message}");
        }
        other => panic!("expected journal_unavailable, got {other:?}"),
    }
    assert!(
        state.job("job-2").is_none(),
        "a refused hit is not observable"
    );
    let hit = state.submit(spec(QUICK)).expect("the next batch lands");
    assert!(state.job(&hit).expect("hit").cached);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
