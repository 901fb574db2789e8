//! End-to-end serving acceptance tests: a live daemon over TCP, real
//! HTTP clients, concurrent jobs across tenants, and bit-identical
//! agreement with local `gmc run`-equivalent invocations (the daemon and
//! `gmc` share the `greenmarl::service` compile pipeline and
//! `gm_interp::run_compiled`, so comparing against a local `run_compiled`
//! at the same graph/args/seed/workers *is* comparing against `gmc run`).

use gm_ckpt::FaultPlan;
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_graph::io::LoadedGraph;
use gm_interp::run_compiled;
use gm_obs::json::Json;
use gm_pregel::{PostMortemConfig, PregelConfig, ResourceBudget, Schedule};
use gmd::client::{Client, SubmitError};
use gmd::{fingerprint_values, Daemon, DaemonConfig, GraphSpec, JournalConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gmd-serving-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A config with every knob explicit, so the suite is immune to `GM_*`
/// environment variables a CI stress job may have exported.
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
        max_concurrent: 4,
        queue_cap: 64,
        default_workers: 2,
        total_message_bytes: 1 << 30,
        total_resident_bytes: 4 << 30,
        default_deadline: None,
        post_mortem: None,
        quarantine_threshold: 2,
        drain_timeout: Duration::from_millis(200),
        native_builtins: true,
        // PR-10 durability knobs default off so the pre-existing
        // admission/fairness assertions keep their exact semantics.
        journal: None,
        job_history_keep: 0,
        retry: gmd::RetryPolicy {
            max_retries: 0,
            ..gmd::RetryPolicy::default()
        },
        brownout: None,
        abort: std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
    }
}

/// Runs `source` locally the way `gmc run` does — same compile pipeline,
/// same interpreter, same worker count and seed, first edge-property
/// parameter fed from the snapshot's weight column — and returns the
/// per-column fingerprints plus supersteps.
fn local_reference(
    loaded: &LoadedGraph,
    source: &str,
    args: &[(&str, Value)],
    seed: u64,
    workers: usize,
) -> (BTreeMap<String, String>, u64) {
    let compiled = greenmarl::service::compile_source(source).expect("reference compile");
    let mut arg_map: HashMap<String, ArgValue> = args
        .iter()
        .map(|(k, v)| ((*k).to_owned(), ArgValue::Scalar(*v)))
        .collect();
    if let Some((name, _)) = compiled.program.edge_props.first() {
        arg_map.entry(name.clone()).or_insert_with(|| {
            ArgValue::EdgeProp(loaded.weights.iter().map(|&w| Value::Int(w)).collect())
        });
    }
    let config = PregelConfig::with_workers(workers).with_budget(ResourceBudget::unbounded());
    let out = run_compiled(&loaded.graph, &compiled, &arg_map, seed, &config)
        .expect("reference run succeeds");
    let fingerprints = out
        .node_props
        .iter()
        .map(|(name, col)| (name.clone(), fingerprint_values(col)))
        .collect();
    (fingerprints, u64::from(out.metrics.supersteps))
}

fn fingerprints_of(status: &Json) -> BTreeMap<String, String> {
    let Some(Json::Obj(map)) = status.get("result").and_then(|r| r.get("fingerprints")) else {
        panic!("no fingerprints in {status:?}");
    };
    map.iter()
        .map(|(k, v)| (k.clone(), v.as_str().expect("hex string").to_owned()))
        .collect()
}

const PAGERANK_ARGS: &str = r#""args":{"e":1e-8,"d":0.85,"max_iter":12}"#;

#[test]
fn serves_concurrent_multi_tenant_jobs_bit_identical_to_local_runs() {
    let daemon = Daemon::start(base_config(&[
        ("twitter", "rmat:300:1200:7"),
        ("web", "uniform:200:800:9"),
    ]))
    .expect("daemon starts");
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(30));

    // The catalogue endpoint knows both snapshots and the builtins.
    let (status, graphs) = client.get_json("/v1/graphs").unwrap();
    assert_eq!(status, 200);
    let names: Vec<&str> = graphs
        .get("graphs")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|g| g.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["twitter", "web"]);
    let builtins = graphs.get("builtins").and_then(Json::as_arr).unwrap();
    assert!(builtins.iter().any(|b| b.as_str() == Some("pagerank")));

    // Nine jobs over two graphs and two tenants: PageRank and SSSP as
    // builtins, plus one inline-source PageRank that binds through the
    // program table and must agree with its builtin twin.
    let pagerank_src = gm_algorithms::sources::PAGERANK.replace('"', "\\\"");
    let inline_src_body = pagerank_src.replace('\n', "\\n");
    let mut submissions: Vec<(String, String)> = Vec::new(); // (id, expect-key)
    for (tenant, graph, root) in [
        ("acme", "twitter", 0u32),
        ("globex", "twitter", 1),
        ("acme", "web", 0),
        ("globex", "web", 2),
    ] {
        let pr = format!(
            r#"{{"tenant":"{tenant}","graph":"{graph}","program":"pagerank",{PAGERANK_ARGS},"seed":7}}"#
        );
        let id = client.submit(&pr).expect("pagerank accepted");
        submissions.push((id, format!("pagerank:{graph}")));
        let ss = format!(
            r#"{{"tenant":"{tenant}","graph":"{graph}","program":"sssp","args":{{"root":"n:{root}"}},"seed":7}}"#
        );
        let id = client.submit(&ss).expect("sssp accepted");
        submissions.push((id, format!("sssp:{graph}:{root}")));
    }
    let inline = format!(
        r#"{{"tenant":"acme","graph":"twitter","source":"{inline_src_body}",{PAGERANK_ARGS},"seed":7}}"#
    );
    let id = client.submit(&inline).expect("inline source accepted");
    submissions.push((id, "pagerank:twitter".to_owned()));
    assert_eq!(submissions.len(), 9);

    // Local references, computed once per distinct (program, graph, args).
    let state = daemon.state().clone();
    let workers = state.config().default_workers;
    let pagerank_args: [(&str, Value); 3] = [
        ("e", Value::Double(1e-8)),
        ("d", Value::Double(0.85)),
        ("max_iter", Value::Int(12)),
    ];
    let mut expected: HashMap<String, (BTreeMap<String, String>, u64)> = HashMap::new();
    for graph in ["twitter", "web"] {
        let loaded = state.graphs()[graph].clone();
        expected.insert(
            format!("pagerank:{graph}"),
            local_reference(
                &loaded,
                gm_algorithms::sources::PAGERANK,
                &pagerank_args,
                7,
                workers,
            ),
        );
        for root in [0u32, 1, 2] {
            expected.insert(
                format!("sssp:{graph}:{root}"),
                local_reference(
                    &loaded,
                    gm_algorithms::sources::SSSP,
                    &[("root", Value::Node(root))],
                    7,
                    workers,
                ),
            );
        }
    }

    for (id, key) in &submissions {
        let status = client.wait(id, Duration::from_secs(120)).expect("terminal");
        assert_eq!(
            status.get("status").and_then(Json::as_str),
            Some("completed"),
            "job {id} ({key}): {status:?}"
        );
        let (want_fps, want_supersteps) = &expected[key];
        assert_eq!(
            &fingerprints_of(&status),
            want_fps,
            "job {id} ({key}) diverged from the local run"
        );
        assert_eq!(
            status
                .get("result")
                .and_then(|r| r.get("supersteps"))
                .and_then(Json::as_u64),
            Some(*want_supersteps),
            "job {id} ({key})"
        );
        assert!(status.get("wall_ms").is_some());
    }

    // Liveness and metrics reflect the work done.
    let (status, health) = client.get_json("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(health.get("draining"), Some(&Json::Bool(false)));
    let (status, exposition) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    for needle in [
        "gm_jobs_submitted_total{tenant=\"acme\"}",
        "gm_jobs_submitted_total{tenant=\"globex\"}",
        "gm_jobs_completed_total{tenant=\"acme\"}",
        "gm_jobs_queue_depth",
        "gm_job_latency_ms",
    ] {
        assert!(
            exposition.contains(needle),
            "missing {needle} in exposition"
        );
    }
    assert!(
        !exposition.contains("gm_jobs_failed_total"),
        "no job failed"
    );
}

#[test]
fn admission_rejects_structurally_and_over_capacity() {
    let mut config = base_config(&[("g", "rmat:100:400:5")]);
    config.total_message_bytes = 1 << 20;
    config.total_resident_bytes = 1 << 24;
    let daemon = Daemon::start(config).expect("daemon starts");
    let client = Client::new(daemon.addr());

    let reject = |body: &str| -> (u16, Json) {
        match client.submit(body) {
            Err(SubmitError::Rejected { status, body }) => (status, body),
            other => panic!("expected rejection, got {other:?}"),
        }
    };

    // A budget request the server can never satisfy: structured 429 with
    // the numbers a client needs to right-size and resubmit.
    let (status, body) =
        reject(r#"{"graph":"g","program":"pagerank","max_message_bytes":1048577}"#);
    assert_eq!(status, 429);
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("over_capacity")
    );
    assert_eq!(
        body.get("budget").and_then(Json::as_str),
        Some("message_bytes")
    );
    assert_eq!(
        body.get("requested").and_then(Json::as_u64),
        Some(1_048_577)
    );
    assert_eq!(body.get("capacity").and_then(Json::as_u64), Some(1 << 20));

    let (status, body) =
        reject(r#"{"graph":"g","program":"pagerank","max_resident_bytes":999999999}"#);
    assert_eq!(status, 429);
    assert_eq!(
        body.get("budget").and_then(Json::as_str),
        Some("resident_bytes")
    );

    let (status, body) = reject(r#"{"graph":"nope","program":"pagerank"}"#);
    assert_eq!(status, 400);
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("unknown_graph")
    );

    let (status, body) = reject(r#"{"graph":"g","program":"frobnicate"}"#);
    assert_eq!(status, 400);
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("unknown_program")
    );

    // Malformed tenant source is a diagnostic, not a daemon crash.
    let (status, body) = reject(r#"{"graph":"g","source":"Procedure p(G: Graph) { Int x = }"}"#);
    assert_eq!(status, 400);
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("compile_error")
    );
    let diagnostics = body.get("diagnostics").and_then(Json::as_str).unwrap();
    assert!(
        diagnostics.contains("1:"),
        "diagnostics carry positions: {diagnostics}"
    );

    let (status, body) = reject(r#"{"graph":"g","program":"pagerank","args":{"k":[1]}}"#);
    assert_eq!(status, 400);
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("bad_request")
    );

    let (status, _) = client.post("/v1/jobs", "this is not json").unwrap();
    assert_eq!(status, 400);

    let (status, _) = client.get("/v1/jobs/job-999").unwrap();
    assert_eq!(status, 404);

    // Rejections were counted; nothing was ever admitted.
    let exposition = daemon.state().registry().render_prometheus();
    assert!(exposition.contains("gm_jobs_rejected_total{reason=\"over_capacity\"}"));
}

/// A procedure returning `x` after `n` nested blocks assign it.
fn nested_blocks(n: usize) -> String {
    format!(
        "Procedure deep(G: Graph) : Int {{ Int x = 0; {}x = 1;{} Return x; }}",
        "{ ".repeat(n),
        " }".repeat(n)
    )
}

fn inline_job(source: &str) -> String {
    Json::obj([
        ("graph".to_owned(), Json::Str("g".to_owned())),
        ("source".to_owned(), Json::Str(source.to_owned())),
    ])
    .to_string()
}

#[test]
fn hostile_nesting_is_refused_and_the_daemon_stays_up() {
    use gm_core::parser::MAX_NESTING;
    let daemon = Daemon::start(base_config(&[("g", "rmat:100:400:5")])).expect("daemon starts");
    let client = Client::new(daemon.addr());
    let healthy = |after: &str| {
        let (status, health) = client.get_json("/healthz").unwrap();
        assert_eq!(status, 200, "after {after}");
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)), "after {after}");
    };

    // 100 KB of `[`, under the body cap: the JSON parser refuses it
    // instead of overflowing the connection thread's stack.
    let (status, body) = client.post("/v1/jobs", &"[".repeat(100_000)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_request"), "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    healthy("a deep JSON body");

    // The same for Green-Marl: 500 nested parentheses, and one block past
    // the front end's cap, are diagnostics.
    let parens = format!(
        "Procedure deep(G: Graph) : Int {{ Return {}1{}; }}",
        "(".repeat(500),
        ")".repeat(500)
    );
    // `Int x` and `x = 1` are two more levels around the blocks.
    for source in [parens, nested_blocks(MAX_NESTING - 1)] {
        match client.submit(&inline_job(&source)) {
            Err(SubmitError::Rejected { status, body }) => {
                assert_eq!(status, 400);
                assert_eq!(
                    body.get("error").and_then(Json::as_str),
                    Some("compile_error")
                );
                let diagnostics = body.get("diagnostics").and_then(Json::as_str).unwrap();
                assert!(diagnostics.contains("nesting deeper than"), "{diagnostics}");
            }
            other => panic!("expected compile_error, got {other:?}"),
        }
        healthy("deep Green-Marl");
    }

    // At the cap, the program compiles, runs and returns.
    let status = run_to_end(&client, &inline_job(&nested_blocks(MAX_NESTING - 2)));
    assert!(completed(&status), "{status:?}");
}

#[test]
fn queue_cap_bounds_accepted_work() {
    let mut config = base_config(&[("g", "rmat:300:1200:7")]);
    config.max_concurrent = 1;
    config.queue_cap = 1;
    let daemon = Daemon::start(config).expect("daemon starts");
    let client = Client::new(daemon.addr());

    // A job long enough to hold the single runner while the queue fills:
    // a negative epsilon means PageRank never converges, so it runs the
    // full iteration budget.
    let long = r#"{"tenant":"a","graph":"g","program":"pagerank","args":{"e":-1.0,"d":0.85,"max_iter":50000}}"#;
    let running_id = client.submit(long).expect("accepted");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, doc) = client.get_json(&format!("/v1/jobs/{running_id}")).unwrap();
        if doc.get("status").and_then(Json::as_str) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.submit(long).expect("fills the queue");
    match client.submit(long) {
        Err(SubmitError::Rejected { status, body }) => {
            assert_eq!(status, 429);
            assert_eq!(body.get("error").and_then(Json::as_str), Some("queue_full"));
            assert_eq!(body.get("capacity").and_then(Json::as_u64), Some(1));
        }
        other => panic!("expected queue_full, got {other:?}"),
    }
    // Drain (not drop): the runner is mid-job and needs the cooperative
    // cancel that only drain arms.
    daemon.drain();
}

#[test]
fn a_wrongly_typed_argument_is_refused_and_the_runner_stays_up() {
    for native in [true, false] {
        let mut config = base_config(&[("g", "rmat:100:400:5")]);
        config.max_concurrent = 1;
        config.native_builtins = native;
        let daemon = Daemon::start(config).expect("daemon starts");
        let client = Client::new(daemon.addr());
        match client.submit(r#"{"graph":"g","program":"sssp","args":{"root":true}}"#) {
            Err(SubmitError::Rejected { status, body }) => {
                assert_eq!(status, 400);
                assert_eq!(
                    body.get("error").and_then(Json::as_str),
                    Some("bad_request")
                );
            }
            other => panic!("expected bad_request (native: {native}), got {other:?}"),
        }
        // The one runner is free: a valid job runs to completion.
        let status = run_to_end(
            &client,
            r#"{"graph":"g","program":"sssp","args":{"root":"n:0"}}"#,
        );
        assert!(completed(&status), "native: {native}: {status:?}");
    }
}

#[test]
fn deadlines_produce_bundles_and_repeat_failures_quarantine() {
    let bundles = fresh_dir("bundles");
    let mut config = base_config(&[("big", "rmat:4000:20000:3")]);
    config.post_mortem = Some(PostMortemConfig::new(&bundles));
    // The first job's worker 0 hangs in superstep 0 until the deadline
    // cancels it; the fault trips once, so later jobs run clean.
    let mut journal = JournalConfig::new(fresh_dir("deadline-journal"));
    journal.faults = FaultPlan::builder().hang_in_compute(0, Some(0)).build();
    config.journal = Some(journal);
    let daemon = Daemon::start(config).expect("daemon starts");
    let client = Client::new(daemon.addr());

    // A 1ms per-superstep deadline: the hung superstep overruns it.
    let id = client
        .submit(r#"{"tenant":"a","graph":"big","program":"pagerank","args":{"e":0.0,"d":0.85,"max_iter":50},"deadline_ms":1}"#)
        .expect("accepted");
    let status = client.wait(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(status.get("status").and_then(Json::as_str), Some("failed"));
    let error = status.get("error").expect("failed jobs carry an error");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    let bundle = error
        .get("bundle")
        .and_then(Json::as_str)
        .expect("bundle path");
    assert!(
        std::path::Path::new(bundle).is_dir(),
        "bundle {bundle} was not written"
    );

    // Two identical budget failures of one (graph, program) signature
    // close the front door on the third submission.
    let starved = r#"{"tenant":"a","graph":"big","program":"pagerank","args":{"e":0.0,"d":0.85,"max_iter":5},"max_resident_bytes":1}"#;
    for _ in 0..2 {
        let id = client.submit(starved).expect("accepted");
        let status = client.wait(&id, Duration::from_secs(120)).unwrap();
        assert_eq!(status.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(
            status
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("budget_exceeded")
        );
    }
    match client.submit(starved) {
        Err(SubmitError::Rejected { status, body }) => {
            assert_eq!(status, 429);
            assert_eq!(
                body.get("error").and_then(Json::as_str),
                Some("quarantined")
            );
            assert_eq!(
                body.get("kind").and_then(Json::as_str),
                Some("budget_exceeded")
            );
            assert_eq!(body.get("failures").and_then(Json::as_u64), Some(2));
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    // A different program on the same graph is unaffected.
    let ok = client
        .submit(r#"{"tenant":"a","graph":"big","program":"sssp","args":{"root":"n:0"}}"#)
        .expect("other signatures still admitted");
    let status = client.wait(&ok, Duration::from_secs(120)).unwrap();
    assert_eq!(
        status.get("status").and_then(Json::as_str),
        Some("completed")
    );
    let _ = std::fs::remove_dir_all(&bundles);
}

#[test]
fn drain_fails_queued_work_cancels_stragglers_and_refuses_new_jobs() {
    let mut config = base_config(&[("g", "rmat:300:1200:7")]);
    config.max_concurrent = 1;
    let daemon = Daemon::start(config).expect("daemon starts");
    let client = Client::new(daemon.addr());
    let state = daemon.state().clone();

    // Negative epsilon: never converges, runs until cancelled.
    let long = r#"{"tenant":"a","graph":"g","program":"pagerank","args":{"e":-1.0,"d":0.85,"max_iter":40000}}"#;
    let running_id = client.submit(long).expect("accepted");
    let deadline = Instant::now() + Duration::from_secs(30);
    while state.job(&running_id).map(|r| r.state.status()) != Some("running") {
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued_a = client.submit(long).expect("queued");
    let queued_b = client
        .submit(r#"{"tenant":"b","graph":"g","program":"sssp","args":{"root":"n:0"}}"#)
        .expect("queued");

    let graceful = daemon.drain();
    assert!(
        !graceful,
        "the long job cannot finish inside the drain window"
    );

    for id in [&queued_a, &queued_b] {
        let record = state.job(id).expect("record survives drain");
        assert_eq!(record.state.status(), "failed");
        match &record.state {
            gmd::job::JobState::Failed { kind, message, .. } => {
                assert_eq!(kind, "cancelled");
                assert_eq!(message, "daemon draining");
            }
            other => panic!("queued job ended as {other:?}"),
        }
    }
    let record = state.job(&running_id).expect("record survives drain");
    assert_eq!(record.state.status(), "failed", "straggler was cancelled");
    match &record.state {
        gmd::job::JobState::Failed { kind, .. } => assert_eq!(kind, "cancelled"),
        other => panic!("straggler ended as {other:?}"),
    }

    // The scheduler keeps refusing work after drain.
    let spec = gmd::JobSpec::from_json(
        &gm_obs::json::parse(r#"{"graph":"g","program":"pagerank"}"#).unwrap(),
    )
    .unwrap();
    match state.submit(spec) {
        Err(gmd::daemon::Reject::Draining) => {}
        other => panic!("expected draining rejection, got {other:?}"),
    }
}

#[test]
fn builtins_are_served_natively_and_stay_bit_identical_to_the_interpreter() {
    // Daemon A: default config — builtins run on the compiled-in rustgen
    // modules. Daemon B: native serving disabled — same jobs on the PIR
    // interpreter. Every fingerprint must match across the two.
    let native = Daemon::start(base_config(&[("g", "rmat:250:1400:11")])).expect("daemon A");
    let interp = Daemon::start(DaemonConfig {
        native_builtins: false,
        ..base_config(&[("g", "rmat:250:1400:11")])
    })
    .expect("daemon B");

    let jobs = [
        format!(r#"{{"tenant":"t","graph":"g","program":"pagerank",{PAGERANK_ARGS},"seed":3}}"#),
        r#"{"tenant":"t","graph":"g","program":"sssp","args":{"root":"n:5"},"seed":3}"#.to_owned(),
        r#"{"tenant":"t","graph":"g","program":"bc","args":{"K":4},"seed":3}"#.to_owned(),
    ];
    for job in &jobs {
        let ca = Client::new(native.addr()).with_timeout(Duration::from_secs(30));
        let cb = Client::new(interp.addr()).with_timeout(Duration::from_secs(30));
        let ia = ca.submit(job).expect("native daemon accepts");
        let ib = cb.submit(job).expect("interp daemon accepts");
        let sa = ca.wait(&ia, Duration::from_secs(120)).expect("terminal");
        let sb = cb.wait(&ib, Duration::from_secs(120)).expect("terminal");
        assert_eq!(sa.get("status").and_then(Json::as_str), Some("completed"));
        assert_eq!(sb.get("status").and_then(Json::as_str), Some("completed"));
        assert_eq!(
            sa.get("backend").and_then(Json::as_str),
            Some("native"),
            "builtin must be served by the native backend: {sa:?}"
        );
        assert_eq!(sb.get("backend").and_then(Json::as_str), Some("interp"));
        assert_eq!(
            fingerprints_of(&sa),
            fingerprints_of(&sb),
            "native serving diverged from the interpreter"
        );
        assert_eq!(
            sa.get("result").and_then(|r| r.get("supersteps")),
            sb.get("result").and_then(|r| r.get("supersteps"))
        );
        assert_eq!(
            sa.get("result").and_then(|r| r.get("ret")),
            sb.get("result").and_then(|r| r.get("ret"))
        );
    }

    // Inline source binds by the same byte-equality rule: PageRank's text
    // emits the builtin's Rust, so it runs natively on A and on the
    // interpreter on B, with equal results.
    let ca = Client::new(native.addr()).with_timeout(Duration::from_secs(30));
    let cb = Client::new(interp.addr()).with_timeout(Duration::from_secs(30));
    let inline = inline_pagerank(gm_algorithms::sources::PAGERANK, PAGERANK_ARGS);
    let (sa, sb) = (run_to_end(&ca, &inline), run_to_end(&cb, &inline));
    assert!(completed(&sa) && completed(&sb), "{sa:?} {sb:?}");
    assert_eq!(sa.get("backend").and_then(Json::as_str), Some("native"));
    assert_eq!(sb.get("backend").and_then(Json::as_str), Some("interp"));
    assert_eq!(fingerprints_of(&sa), fingerprints_of(&sb));
    for field in ["supersteps", "ret"] {
        let get = |s: &Json| s.get("result").and_then(|r| r.get(field)).cloned();
        assert_eq!(get(&sa), get(&sb), "{field}");
    }
    // A text whose emitted Rust matches no module stays on the
    // interpreter.
    let extra = gm_algorithms::sources::PAGERANK.replace(
        "        cnt += 1;\n",
        "        cnt += 1;\n        diff = diff * 1.0;\n",
    );
    assert_ne!(extra, gm_algorithms::sources::PAGERANK);
    let status = run_to_end(&ca, &inline_pagerank(&extra, PAGERANK_ARGS));
    assert!(completed(&status), "{status:?}");
    assert_eq!(status.get("backend").and_then(Json::as_str), Some("interp"));
}

/// An inline-source job running `src` with `args` on graph `g`.
fn inline_pagerank(src: &str, args: &str) -> String {
    let mut body = String::new();
    gm_obs::json::write_escaped(src, &mut body);
    format!(r#"{{"tenant":"t","graph":"g","source":{body},{args},"seed":3}}"#)
}

/// The value of one exposition sample, 0 when it is absent.
fn sample(exposition: &str, series: &str) -> u64 {
    (exposition.lines())
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn builtin_texts_are_bound_once_and_other_inline_texts_per_submission() {
    let daemon = Daemon::start(base_config(&[("g", "rmat:200:900:5")])).expect("daemon starts");
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(30));
    let series = "gm_program_compiles_total{backend=\"native\"}";
    let compiles = || sample(&daemon.state().registry().render_prometheus(), series);
    // PageRank's own text is bound at start; PageRank plus a newline is
    // not a builtin's text, but it emits the same Rust.
    let builtin = gm_algorithms::sources::PAGERANK;
    let other = format!("{builtin}\n");
    for (src, per_submit) in [(builtin, 0), (other.as_str(), 1)] {
        for (max_iter, hit) in [(2, false), (3, false), (4, false), (5, false), (3, true)] {
            let before = compiles();
            let args = format!(r#""args":{{"e":0.0,"d":0.85,"max_iter":{max_iter}}}"#);
            let status = run_to_end(&client, &inline_pagerank(src, &args));
            assert!(completed(&status), "{status:?}");
            assert_eq!(cached(&status), hit, "max_iter {max_iter}");
            assert_eq!(status.get("backend").and_then(Json::as_str), Some("native"));
            assert_eq!(compiles() - before, per_submit, "max_iter {max_iter}");
        }
    }
}

#[test]
fn served_pagerank_gathers_and_matches_a_local_push_run() {
    // Every vertex is active every PageRank superstep, so the default
    // schedule gathers each one its program can pull.
    let daemon = Daemon::start(base_config(&[("g", "rmat:400:6000:13")])).expect("daemon starts");
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(30));
    let job =
        format!(r#"{{"tenant":"t","graph":"g","program":"pagerank",{PAGERANK_ARGS},"seed":3}}"#);
    let status = run_to_end(&client, &job);
    assert!(completed(&status), "{status:?}");
    assert_eq!(status.get("backend").and_then(Json::as_str), Some("native"));
    let exposition = daemon.state().registry().render_prometheus();
    let pulled = sample(&exposition, "gm_supersteps_total{direction=\"pull\"}");
    // A suite run under `GM_SCHEDULE=push` pushes every superstep.
    let pushes =
        std::env::var(gm_pregel::ENV_SCHEDULE).is_ok_and(|s| s.trim().eq_ignore_ascii_case("push"));
    assert_eq!(pulled > 0, !pushes, "gathered supersteps: {pulled}");

    // The same native module, run locally with every superstep pushed.
    let state = daemon.state().clone();
    let args: HashMap<String, ArgValue> = [
        ("e", Value::Double(1e-8)),
        ("d", Value::Double(0.85)),
        ("max_iter", Value::Int(12)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), ArgValue::Scalar(v)))
    .collect();
    let config = PregelConfig::with_workers(state.config().default_workers)
        .with_budget(ResourceBudget::unbounded())
        .with_schedule(Schedule::Push);
    let native = gm_algorithms::native::find_by_name("pagerank").expect("compiled in");
    let out = (native.run)(&state.graphs()["g"].graph, &args, 3, &config).expect("local run");
    assert_eq!(out.metrics.pull_supersteps, 0);
    let want: BTreeMap<String, String> = (out.node_props.iter())
        .map(|(name, col)| (name.clone(), fingerprint_values(col)))
        .collect();
    assert!(want.contains_key("pr"), "{want:?}");
    assert_eq!(fingerprints_of(&status), want, "served run diverged");
    assert_eq!(
        status
            .get("result")
            .and_then(|r| r.get("supersteps"))
            .and_then(Json::as_u64),
        Some(u64::from(out.metrics.supersteps))
    );
}

/// Submits `body` and waits for its terminal status document.
fn run_to_end(client: &Client, body: &str) -> Json {
    let id = client.submit(body).expect("accepted");
    client
        .wait(&id, Duration::from_secs(120))
        .expect("terminal")
}

fn cached(status: &Json) -> bool {
    match status.get("cached") {
        Some(Json::Bool(b)) => *b,
        other => panic!("status document without `cached`: {other:?}"),
    }
}

fn completed(status: &Json) -> bool {
    status.get("status").and_then(Json::as_str) == Some("completed")
}

#[test]
fn a_repeated_spec_completes_at_submit_from_the_result_cache() {
    let daemon = Daemon::start(base_config(&[("g", "rmat:200:900:5")])).expect("daemon starts");
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(30));
    let job = |tenant: &str| {
        format!(
            r#"{{"tenant":"{tenant}","graph":"g","program":"pagerank",{PAGERANK_ARGS},"seed":3}}"#
        )
    };

    let first = run_to_end(&client, &job("acme"));
    assert!(completed(&first) && !cached(&first), "{first:?}");

    // The repeat is accepted already completed: no queue, no run.
    let (status, reply) = client.post("/v1/jobs", &job("acme")).unwrap();
    assert_eq!(status, 202);
    let reply = gm_obs::json::parse(&reply).unwrap();
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(reply.get("cached"), Some(&Json::Bool(true)));
    let id = reply.get("id").and_then(Json::as_str).unwrap();
    let (_, repeat) = client.get_json(&format!("/v1/jobs/{id}")).unwrap();
    assert!(completed(&repeat) && cached(&repeat), "{repeat:?}");
    assert_eq!(fingerprints_of(&repeat), fingerprints_of(&first));
    assert_eq!(
        repeat.get("result").and_then(|r| r.get("supersteps")),
        first.get("result").and_then(|r| r.get("supersteps"))
    );
    assert!(repeat.get("wall_ms").is_some());

    // The tenant is not part of the key.
    let other_tenant = run_to_end(&client, &job("globex"));
    assert!(cached(&other_tenant));
    assert_eq!(fingerprints_of(&other_tenant), fingerprints_of(&first));

    let exposition = daemon.state().registry().render_prometheus();
    for needle in [
        "gm_jobs_cache_hits_total{tenant=\"acme\"} 1",
        "gm_jobs_cache_hits_total{tenant=\"globex\"} 1",
        "gm_jobs_completed_total{tenant=\"acme\"} 2",
        // Hits are observed in the latency histogram like runs.
        "gm_job_latency_ms_count{tenant=\"acme\"} 2",
    ] {
        assert!(exposition.contains(needle), "missing {needle}");
    }
}

#[test]
fn any_change_to_the_key_misses_the_result_cache() {
    let daemon = Daemon::start(base_config(&[
        ("g", "rmat:200:900:5"),
        ("h", "rmat:200:900:5"),
    ]))
    .expect("daemon starts");
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(30));
    let sssp = |graph: &str, extra: &str| {
        format!(
            r#"{{"tenant":"t","graph":"{graph}","program":"sssp","args":{{"root":"n:1"}}{extra}}}"#
        )
    };
    let pagerank = |e: &str| {
        format!(
            r#"{{"tenant":"t","graph":"g","program":"pagerank","args":{{"e":{e},"d":0.85,"max_iter":4}}}}"#
        )
    };
    let inline = |trailer: &str| {
        let src = gm_algorithms::sources::SSSP.replace('"', "\\\"");
        let src = format!("{src}{trailer}").replace('\n', "\\n");
        format!(r#"{{"tenant":"t","graph":"g","source":"{src}","args":{{"root":"n:1"}}}}"#)
    };
    // Each spec differs from the one before it in one key field only:
    // the seed, the worker count, the graph, one arg's sign bit, the
    // inline source text.
    let specs = [
        sssp("g", ""),
        sssp("g", r#","seed":1"#),
        sssp("g", r#","seed":1,"workers":1"#),
        sssp("h", r#","seed":1,"workers":1"#),
        pagerank("0.0"),
        pagerank("-0.0"),
        inline(""),
        inline("\n"),
    ];
    for spec in &specs {
        let status = run_to_end(&client, spec);
        assert!(completed(&status), "{spec}: {status:?}");
        assert!(!cached(&status), "{spec} must miss: {status:?}");
    }
    // Each was cached under its own key.
    for spec in &specs {
        assert!(cached(&run_to_end(&client, spec)), "{spec} must hit");
    }
}

#[test]
fn include_props_failures_and_history_eviction_bypass_the_result_cache() {
    let mut config = base_config(&[("g", "rmat:200:900:5")]);
    config.quarantine_threshold = 100;
    config.job_history_keep = 1;
    let daemon = Daemon::start(config).expect("daemon starts");
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(30));
    let plain = r#"{"tenant":"t","graph":"g","program":"sssp","args":{"root":"n:2"}}"#;
    let props =
        r#"{"tenant":"t","graph":"g","program":"sssp","args":{"root":"n:2"},"include_props":true}"#;

    // A run asked for full columns is neither served from nor stored in
    // the cache.
    for _ in 0..2 {
        let status = run_to_end(&client, props);
        assert!(completed(&status) && !cached(&status));
        assert!(status.get("result").and_then(|r| r.get("props")).is_some());
    }
    let first = run_to_end(&client, plain);
    assert!(!cached(&first), "include_props runs seed nothing");
    let status = run_to_end(&client, props);
    assert!(!cached(&status), "include_props never hits");

    // A failed job is never cached: the repeat runs (and fails) again.
    let starved = r#"{"tenant":"t","graph":"g","program":"pagerank",
        "args":{"e":0.0,"d":0.85,"max_iter":5},"seed":9,"max_resident_bytes":1}"#;
    for _ in 0..2 {
        let status = run_to_end(&client, starved);
        assert_eq!(status.get("status").and_then(Json::as_str), Some("failed"));
        assert!(!cached(&status));
        assert_eq!(status.get("attempts").and_then(Json::as_u64), Some(1));
    }

    // `--job-history-keep 1`: the newest record is a hit, so the entry
    // survives; a different job evicts that record, and the entry with
    // it.
    assert!(!cached(&run_to_end(&client, plain)));
    assert!(cached(&run_to_end(&client, plain)));
    assert!(!cached(&run_to_end(
        &client,
        r#"{"tenant":"t","graph":"g","program":"sssp","args":{"root":"n:3"}}"#
    )));
    let status = run_to_end(&client, plain);
    assert!(
        completed(&status) && !cached(&status),
        "evicted: {status:?}"
    );
}
