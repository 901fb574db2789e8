//! The two serving workloads: an in-process `gmd` daemon with its journal
//! on, driven over HTTP by at most two load-generating threads.
//!
//! `serve_small` is a closed loop (each client waits for its job before
//! sending the next) over jobs that run in well under a millisecond, so
//! the request path itself is measured. `serve_mixed` is an open loop (a
//! submitter on a fixed schedule, a collector polling) over a seeded mix of
//! heavier jobs, so queueing and the runtime under concurrency are.
//!
//! Every served job's result fingerprints are compared, after the timed
//! section, with a local run of the same spec on the same graph file.

use super::{
    csr_bytes, pagerank_args, peak_rss_mb, pregel_config, repeat_setup, seeded_weights, sssp_args,
    timed_ms, write_edge_list_file, Ctx, Draws, Outcome,
};
use crate::loadgen::{latency_from_due_us, pace, Clock, Sent, WallClock};
use crate::sizes::WORKERS;
use crate::spans::{job_cover_us, median_ms, Recorder};
use crate::stats::{self, median, percentile, sorted};
use gm_algorithms::{native, sources};
use gm_graph::io::LoadedGraph;
use gm_graph::{gen, NodeId};
use gm_obs::json::Json;
use gm_obs::metrics::MetricsRegistry;
use gmd::client::{Client, SubmitError};
use gmd::{Daemon, DaemonConfig, GraphSpec, Journal, JournalConfig, JournalRecord, RetryPolicy};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

type Layer = BTreeMap<&'static str, f64>;

/// Sleep between status polls — the quantum `gmd::client::Client::wait`
/// uses, so the client-observed latency is the one its callers see.
const POLL: Duration = Duration::from_millis(5);
/// A job not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
const TENANTS: [&str; 2] = ["acme", "globex"];
const GRAPH: &str = "g";

/// What to run, without the tenant: two submissions with equal `Spec`s
/// must return equal fingerprints.
#[derive(Clone, Debug, PartialEq)]
enum Spec {
    Pagerank { d: f64, iters: i64, inline: bool },
    Sssp { root: u32 },
}

impl Spec {
    fn key(&self) -> String {
        match self {
            Spec::Pagerank { d, iters, inline } => format!("pagerank:{d}:{iters}:{inline}"),
            Spec::Sssp { root } => format!("sssp:{root}"),
        }
    }

    /// The submission document.
    fn body(&self, tenant: &str) -> String {
        let head = format!(r#"{{"tenant":"{tenant}","graph":"{GRAPH}""#);
        match self {
            Spec::Pagerank { d, iters, inline } => {
                let program = if *inline {
                    let mut src = String::new();
                    gm_obs::json::write_escaped(sources::PAGERANK, &mut src);
                    format!(r#""source":{src}"#)
                } else {
                    r#""program":"pagerank""#.to_owned()
                };
                format!(r#"{head},{program},"args":{{"e":1e-12,"d":{d},"max_iter":{iters}}}}}"#)
            }
            Spec::Sssp { root } => {
                format!(r#"{head},"program":"sssp","args":{{"root":"n:{root}"}}}}"#)
            }
        }
    }

    /// The fingerprints a local run of this spec gives, rendered as the
    /// status document renders them. One worker, as the daemon runs it.
    fn expected(&self, loaded: &LoadedGraph) -> Result<String, String> {
        let config = pregel_config(1);
        let outcome = match self {
            Spec::Pagerank { d, iters, .. } => {
                native::pagerank::run(&loaded.graph, &pagerank_args(*d, *iters), 0, &config)
            }
            Spec::Sssp { root } => {
                let args = sssp_args(NodeId(*root), &loaded.weights);
                native::sssp::run(&loaded.graph, &args, 0, &config)
            }
        }
        .map_err(|e| e.to_string())?;
        Ok(Json::obj(
            outcome
                .node_props
                .iter()
                .map(|(name, col)| (name.clone(), Json::Str(gmd::fingerprint_values(col)))),
        )
        .to_string())
    }
}

/// A served job as its client saw it.
struct Served {
    spec: usize,
    /// Submit (or due time, in the open loop) to observed terminal state.
    latency_ms: f64,
    /// POST to 202.
    submit_ms: f64,
    polls: u32,
    /// Daemon-side submit to terminal, from the status document.
    wall_ms: f64,
    native: bool,
    attempts: u64,
    fingerprints: String,
    /// The terminal status document, for the parse probe.
    document: String,
}

enum End {
    Done(Box<Served>),
    /// Refused, failed, timed out or unreachable.
    Failed {
        spec: usize,
        why: String,
        rejected: bool,
    },
}

/// A job that failed after the daemon accepted it.
fn failed(spec: usize, why: String) -> End {
    End::Failed {
        spec,
        why,
        rejected: false,
    }
}

fn submit(client: &Client, body: &str) -> Result<(String, f64), (String, bool)> {
    let (reply, ms) = timed_ms(|| client.submit(body));
    match reply {
        Ok(id) => Ok((id, ms)),
        Err(SubmitError::Rejected { status, body }) => {
            Err((format!("refused with {status}: {body}"), true))
        }
        Err(SubmitError::Transport(e)) => Err((format!("submit failed: {e}"), false)),
    }
}

/// One status poll; `Some` once the job is terminal.
fn poll(client: &Client, id: &str) -> Result<Option<Json>, String> {
    let (status, doc) = client
        .get_json(&format!("/v1/jobs/{id}"))
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("status poll returned {status}: {doc}"));
    }
    Ok(match doc.get("status").and_then(Json::as_str) {
        Some("completed" | "failed") => Some(doc),
        _ => None,
    })
}

fn served(spec: usize, latency_ms: f64, submit_ms: f64, polls: u32, doc: &Json) -> End {
    if doc.get("status").and_then(Json::as_str) != Some("completed") {
        return failed(spec, format!("job failed: {doc}"));
    }
    End::Done(Box::new(Served {
        spec,
        latency_ms,
        submit_ms,
        polls,
        wall_ms: doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
        native: doc.get("backend").and_then(Json::as_str) == Some("native"),
        attempts: doc.get("attempts").and_then(Json::as_u64).unwrap_or(0),
        fingerprints: doc
            .get("result")
            .and_then(|r| r.get("fingerprints"))
            .map(Json::to_string)
            .unwrap_or_default(),
        document: doc.to_string(),
    }))
}

/// Submits one job and polls it to its end: the closed-loop step.
///
/// `Client::wait` polls at once and then every [`POLL`]; here the first poll
/// comes after `first_poll`, a seeded delay below `POLL`. With the phase
/// locked to the submission, every latency would be a whole number of
/// quanta (6.5 ms or 11.7 ms, nothing between) and a percentile would sit
/// still or jump by 80 %; with the phase drawn uniformly the same waiting
/// is spread evenly, and the percentiles move as the daemon's time does.
fn submit_and_wait(
    client: &Client,
    rec: &Recorder,
    job: u64,
    spec: usize,
    body: &str,
    first_poll: Duration,
) -> End {
    rec.span("job", job, || {
        let t0 = Instant::now();
        let (id, submit_ms) = match rec.span("gmd.submit", job, || submit(client, body)) {
            Ok(ok) => ok,
            Err((why, rejected)) => {
                return End::Failed {
                    spec,
                    why,
                    rejected,
                }
            }
        };
        rec.span("gmd.wait", job, || {
            std::thread::sleep(first_poll);
            let mut polls = 0;
            loop {
                polls += 1;
                match poll(client, &id) {
                    Ok(Some(doc)) => {
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        return served(spec, latency_ms, submit_ms, polls, &doc);
                    }
                    Ok(None) if t0.elapsed() < JOB_TIMEOUT => std::thread::sleep(POLL),
                    Ok(None) => {
                        return failed(spec, format!("job {id} not terminal after {JOB_TIMEOUT:?}"))
                    }
                    Err(why) => return failed(spec, why),
                }
            }
        })
    })
}

/// What a phase produced.
#[derive(Default)]
struct Phase {
    ends: Vec<End>,
    elapsed_s: f64,
    /// Open loop only: how late each submission left, and how many jobs
    /// were still in flight when the last one had been sent.
    lateness_ms: Vec<f64>,
    backlog_end: usize,
}

impl Phase {
    fn done(&self) -> impl Iterator<Item = &Served> {
        self.ends.iter().filter_map(|e| match e {
            End::Done(s) => Some(&**s),
            End::Failed { .. } => None,
        })
    }

    fn latencies(&self) -> Vec<f64> {
        self.done().map(|s| s.latency_ms).collect()
    }
}

/// `clients` closed-loop clients, each submitting specs drawn from its own
/// seeded stream, for `seconds` and until `min_samples` jobs are in.
fn closed_loop(
    ctx: &Ctx,
    client: Client,
    specs: &[Spec],
    clients: usize,
    seconds: f64,
    min_samples: usize,
    salt: u64,
) -> Phase {
    let started = Instant::now();
    let total = AtomicUsize::new(0);
    let bases: Vec<u64> = (0..clients).map(|_| ctx.reserve_jobs(1 << 20)).collect();
    let results: Vec<(Vec<End>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let rec = ctx.rec.fork();
                let (total, base) = (&total, bases[c]);
                let tenant = TENANTS[c % TENANTS.len()];
                let mut draws = Draws::new(ctx.seed, salt + c as u64);
                scope.spawn(move || {
                    let mut ends = Vec::new();
                    while started.elapsed().as_secs_f64() < seconds
                        || total.load(Ordering::Relaxed) < min_samples
                    {
                        let spec = draws.below(specs.len() as u64) as usize;
                        let body = specs[spec].body(tenant);
                        let job = base + ends.len() as u64;
                        let first_poll = POLL.mul_f64(draws.unit());
                        ends.push(submit_and_wait(&client, &rec, job, spec, &body, first_poll));
                        total.fetch_add(1, Ordering::Relaxed);
                        // A daemon that fails everything must not spin.
                        if ends.len() >= 8 && ends.iter().all(|e| matches!(e, End::Failed { .. })) {
                            break;
                        }
                    }
                    (ends, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for (ends, rec) in results {
        phase.ends.extend(ends);
        ctx.rec.absorb(rec);
    }
    ctx.attempted(phase.ends.len() as u64);
    phase
}

/// One submitter on a fixed schedule, one collector polling: the open
/// loop. `order[i]` is the spec of submission `i`.
fn open_loop(ctx: &Ctx, client: Client, specs: &[Spec], order: &[usize], rate: f64) -> Phase {
    enum Msg {
        Sent {
            id: String,
            spec: usize,
            sent: Sent,
            submit_ms: f64,
        },
        Refused(End),
    }
    let clock = WallClock::start();
    let (tx, rx) = mpsc::channel::<Msg>();
    let submitting = AtomicBool::new(true);
    let started = Instant::now();
    let (clock, submitting) = (&clock, &submitting);
    let (sends, (ends, backlog_end)) = std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let sends = pace(clock, rate, order.len(), |i, sent| {
                let spec = order[i];
                let body = specs[spec].body(TENANTS[i % TENANTS.len()]);
                let msg = match submit(&client, &body) {
                    Ok((id, submit_ms)) => Msg::Sent {
                        id,
                        spec,
                        sent,
                        submit_ms,
                    },
                    Err((why, rejected)) => Msg::Refused(End::Failed {
                        spec,
                        why,
                        rejected,
                    }),
                };
                // The collector outlives the submitter, so this cannot fail.
                let _ = tx.send(msg);
            });
            submitting.store(false, Ordering::SeqCst);
            sends
        });
        let collector = scope.spawn(move || {
            let mut ends = Vec::new();
            let mut pending: Vec<(String, usize, Sent, f64, u32)> = Vec::new();
            let mut backlog_end = None;
            let mut open = true;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(Msg::Sent {
                            id,
                            spec,
                            sent,
                            submit_ms,
                        }) => pending.push((id, spec, sent, submit_ms, 0)),
                        Ok(Msg::Refused(end)) => ends.push(end),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                if !submitting.load(Ordering::SeqCst) && backlog_end.is_none() {
                    backlog_end = Some(pending.len());
                }
                pending.retain_mut(|(id, spec, sent, submit_ms, polls)| {
                    *polls += 1;
                    let end = match poll(&client, id) {
                        Ok(Some(doc)) => {
                            let latency_ms = latency_from_due_us(sent, clock.now_us()) as f64 / 1e3;
                            served(*spec, latency_ms, *submit_ms, *polls, &doc)
                        }
                        Ok(None)
                            if clock.now_us() < sent.due_us + JOB_TIMEOUT.as_micros() as u64 =>
                        {
                            return true
                        }
                        Ok(None) => failed(
                            *spec,
                            format!("job {id} not terminal after {JOB_TIMEOUT:?}"),
                        ),
                        Err(why) => failed(*spec, why),
                    };
                    ends.push(end);
                    false
                });
                std::thread::sleep(POLL);
            }
            (ends, backlog_end.unwrap_or(0))
        });
        (
            submitter.join().expect("submitter does not panic"),
            collector.join().expect("collector does not panic"),
        )
    });
    ctx.attempted(order.len() as u64);
    Phase {
        ends,
        elapsed_s: started.elapsed().as_secs_f64(),
        lateness_ms: sends.iter().map(|s| s.lateness_us() as f64 / 1e3).collect(),
        backlog_end,
    }
}

/// The daemon under test and the inputs it was started on.
struct Service {
    daemon: Daemon,
    loaded: LoadedGraph,
}

fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig {
        dir: dir.to_owned(),
        rotate_bytes: 1 << 20,
        checkpoint_every: None,
        faults: gm_pregel::FaultPlan::none(),
    }
}

fn daemon_config(graph_file: &Path, journal_dir: &Path) -> DaemonConfig {
    DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        graphs: vec![GraphSpec {
            name: GRAPH.to_owned(),
            source: graph_file.display().to_string(),
        }],
        max_concurrent: WORKERS,
        // Never the limit here: a refused job counts as failed.
        queue_cap: 4096,
        default_workers: 1,
        total_message_bytes: 1 << 30,
        total_resident_bytes: 4 << 30,
        default_deadline: None,
        post_mortem: None,
        quarantine_threshold: 2,
        drain_timeout: Duration::from_secs(10),
        native_builtins: true,
        journal: Some(journal_config(journal_dir)),
        job_history_keep: 0,
        retry: RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            tenant_tokens: 8,
            tenant_refill: Duration::from_secs(10),
        },
        brownout: None,
        abort: Arc::new(AtomicBool::new(false)),
    }
}

/// One set-up: generate the graph and its weights, write them as the
/// edge-list file the daemon loads, start the daemon, run a warm-up job.
fn start_service(ctx: &Ctx, nodes: u32, edges: usize, rep: usize, warm_up: &Spec) -> Service {
    let graph = ctx
        .rec
        .span("graph.gen", 0, || gen::rmat(nodes, edges, ctx.seed));
    let weights = seeded_weights(&graph, &mut Draws::new(ctx.seed, 4), 16);
    let graph_file = ctx.scratch.join(format!("graph-{rep}.txt"));
    write_edge_list_file(ctx, &graph, Some(&weights), &graph_file);
    drop(graph);
    let config = daemon_config(&graph_file, &ctx.scratch.join(format!("journal-{rep}")));
    let daemon = ctx
        .rec
        .span("gmd.start", 0, || Daemon::start(config))
        .expect("daemon starts on generated inputs");
    let client = Client::new(daemon.addr());
    let job = ctx.next_job();
    if let End::Failed { why, .. } = submit_and_wait(
        &client,
        &ctx.rec,
        job,
        0,
        &warm_up.body(TENANTS[0]),
        Duration::ZERO,
    ) {
        ctx.fail(format!("warm-up job: {why}"));
    }
    // The benchmark's own copy, for the expected fingerprints: the same
    // file through the same loader, so edge ids and weights line up.
    let loaded = gm_graph::io::read_edge_list_file(&graph_file).expect("own file loads");
    Service { daemon, loaded }
}

/// The `count` highest out-degree vertices: SSSP roots that reach most of
/// an R-MAT graph.
fn top_degree(loaded: &LoadedGraph, count: usize) -> Vec<u32> {
    let g = &loaded.graph;
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.sort_by_key(|&n| (std::cmp::Reverse(g.out_degree(n)), n.0));
    nodes.into_iter().take(count).map(|n| n.0).collect()
}

/// Local runs of the specs seen so far, by spec index.
type Expected = HashMap<usize, Result<String, String>>;

/// Compares every job of a phase with the local run of its spec (computed
/// once per distinct spec); returns how many were correct.
fn verify(
    ctx: &Ctx,
    loaded: &LoadedGraph,
    specs: &[Spec],
    phase: &Phase,
    expected: &mut Expected,
) -> u64 {
    let mut correct = 0;
    for end in &phase.ends {
        match end {
            End::Failed { spec, why, .. } => ctx.fail(format!("{}: {why}", specs[*spec].key())),
            End::Done(s) => {
                let want = expected
                    .entry(s.spec)
                    .or_insert_with(|| specs[s.spec].expected(loaded));
                match want {
                    Ok(want) if *want == s.fingerprints => correct += 1,
                    Ok(want) => ctx.fail(format!(
                        "{}: served fingerprints {} differ from the local run's {want}",
                        specs[s.spec].key(),
                        s.fingerprints
                    )),
                    Err(e) => ctx.fail(format!("{}: local run failed: {e}", specs[s.spec].key())),
                }
            }
        }
    }
    correct
}

/// A counter's value in a Prometheus exposition, summed over its series.
fn scraped(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Journal bytes appended so far, from `GET /metrics`.
fn journal_bytes(client: &Client) -> f64 {
    client
        .get("/metrics")
        .map_or(0.0, |(_, text)| scraped(&text, "gm_journal_bytes_total"))
}

/// Probes of the request path that no job isolates: a bare round trip, a
/// metrics scrape, a status-document parse, and the journal on its own.
fn probes(ctx: &Ctx, client: &Client, sample: Option<&Served>, layer: &mut Layer) {
    let rtt: Vec<f64> = (0..50)
        .map(|_| timed_ms(|| ctx.rec.span("obs.http_rtt", 0, || client.get("/healthz"))).1 * 1e3)
        .collect();
    layer.insert("obs.http_rtt_us", median(&rtt));

    let (scrape, ms) = timed_ms(|| ctx.rec.span("obs.scrape", 0, || client.get("/metrics")));
    layer.insert("obs.scrape_ms", ms);
    layer.insert(
        "obs.scrape_bytes",
        scrape.map_or(0.0, |(_, text)| text.len() as f64),
    );

    if let Some(s) = sample {
        let parse: Vec<f64> = (0..200)
            .map(|_| timed_ms(|| gm_obs::json::parse(&s.document).is_ok()).1 * 1e3)
            .collect();
        layer.insert("obs.json_parse_us", median(&parse));
    }

    // The journal alone: 300 appends (each fsync'd), then a replay.
    let config = journal_config(&ctx.scratch.join("journal-probe"));
    let registry = Arc::new(MetricsRegistry::new());
    match Journal::open(&config, 0, registry.clone()) {
        Ok((journal, _)) => {
            let appends: Vec<f64> = (0..300)
                .map(|i| {
                    let record = JournalRecord::Started {
                        id: format!("job-{i}"),
                        attempt: 1,
                    };
                    let (result, ms) = timed_ms(|| {
                        ctx.rec
                            .span("gmd.journal_append", 0, || journal.append(&record))
                    });
                    if let Err(e) = result {
                        ctx.fail(format!("journal probe append: {e}"));
                    }
                    ms * 1e3
                })
                .collect();
            let appends = sorted(&appends);
            layer.insert("gmd.journal_append_us_p50", percentile(&appends, 50.0));
            layer.insert("gmd.journal_append_us_p90", percentile(&appends, 90.0));
            drop(journal);
            let (replay, ms) = timed_ms(|| {
                ctx.rec.span("gmd.journal_replay", 0, || {
                    Journal::open(&config, 0, registry)
                })
            });
            layer.insert("gmd.journal_replay_ms", ms);
            if let Err(e) = replay {
                ctx.fail(format!("journal probe replay: {e}"));
            }
        }
        Err(e) => ctx.fail(format!("journal probe open: {e}")),
    }
}

/// The gmd metrics every serving workload derives from its main phase.
fn serving_layer(main: &Phase, specs_submitted: &[usize], layer: &mut Layer) {
    let of = |f: fn(&Served) -> f64| sorted(&main.done().map(f).collect::<Vec<_>>());
    let submit = of(|s| s.submit_ms);
    layer.insert("gmd.submit_ms_p50", percentile(&submit, 50.0));
    layer.insert("gmd.submit_ms_p90", percentile(&submit, 90.0));
    layer.insert("gmd.wall_ms_p50", percentile(&of(|s| s.wall_ms), 50.0));
    layer.insert(
        "gmd.observe_gap_ms_p50",
        percentile(&of(|s| s.latency_ms - s.wall_ms), 50.0),
    );
    layer.insert(
        "gmd.polls_per_job",
        stats::median(&of(|s| f64::from(s.polls))),
    );
    layer.insert("gmd.job_p99_ms", percentile(&of(|s| s.latency_ms), 99.0));
    let jobs = main.ends.len().max(1) as f64;
    let rejected = main
        .ends
        .iter()
        .filter(|e| matches!(e, End::Failed { rejected: true, .. }))
        .count();
    layer.insert("gmd.rejected_ratio", rejected as f64 / jobs);
    layer.insert(
        "gmd.retried_jobs",
        main.done().filter(|s| s.attempts > 1).count() as f64,
    );
    let done = main.done().count().max(1) as f64;
    layer.insert(
        "gmd.native_jobs_ratio",
        main.done().filter(|s| s.native).count() as f64 / done,
    );
    let mut seen = std::collections::HashSet::new();
    let repeats = specs_submitted.iter().filter(|s| !seen.insert(**s)).count();
    layer.insert(
        "gmd.repeated_spec_ratio",
        repeats as f64 / specs_submitted.len().max(1) as f64,
    );
}

/// A serving workload after its last phase.
struct Finished {
    service: Service,
    specs: Vec<Spec>,
    setup_s: f64,
    main: Phase,
    /// Traced runs only: one closed-loop client on the otherwise idle
    /// daemon, the unloaded latency.
    unloaded: Option<Phase>,
    /// Traced `serve_mixed` only: the high-rate phase.
    hi: Option<Phase>,
    layer: Layer,
}

/// What the two serving workloads share from the end of their phases on:
/// probes, drain, verification, metrics.
fn finish(name: &'static str, ctx: &Ctx, run: Finished) -> Result<Outcome, String> {
    let Finished {
        service,
        specs,
        setup_s,
        main,
        unloaded,
        hi,
        mut layer,
    } = run;
    let specs = &specs[..];
    let rss_mb = peak_rss_mb();
    let client = Client::new(service.daemon.addr());
    if ctx.trace {
        probes(ctx, &client, main.done().next(), &mut layer);
    }
    let csr = csr_bytes(&service.loaded.graph);
    let (graceful, drain_ms) = timed_ms(|| ctx.rec.span("gmd.drain", 0, || service.daemon.drain()));
    if !graceful {
        ctx.fail("drain had to cancel running jobs".to_owned());
    }

    let mut expected = Expected::new();
    let correct_main = verify(ctx, &service.loaded, specs, &main, &mut expected);
    let mut phases = vec![&main];
    phases.extend(unloaded.as_ref());
    phases.extend(hi.as_ref());
    for phase in &phases[1..] {
        verify(ctx, &service.loaded, specs, phase, &mut expected);
    }

    let latencies = sorted(&main.latencies());
    let end_to_end = BTreeMap::from([
        ("setup_s", setup_s),
        ("job_ms", percentile(&latencies, 50.0)),
        ("job_p90_ms", percentile(&latencies, 90.0)),
        ("jobs_per_s", correct_main as f64 / main.elapsed_s.max(1e-9)),
        ("peak_rss_mb", rss_mb),
    ]);

    if ctx.trace {
        let submitted: Vec<usize> = main
            .ends
            .iter()
            .map(|e| match e {
                End::Done(s) => s.spec,
                End::Failed { spec, .. } => *spec,
            })
            .collect();
        serving_layer(&main, &submitted, &mut layer);
        let spans = ctx.rec.spans();
        layer.insert("gmd.start_ms", median_ms(&spans, "gmd.start"));
        layer.insert("gmd.drain_ms", drain_ms);
        layer.insert("graph.csr_bytes", csr);
        layer.insert("graph.gen_ms", median_ms(&spans, "graph.gen"));
        if !main.lateness_ms.is_empty() {
            layer.insert(
                "loadgen.lateness_ms_p99",
                percentile(&sorted(&main.lateness_ms), 99.0),
            );
        }
        if let Some(unloaded) = &unloaded {
            layer.insert("gmd.unloaded_job_ms", median(&unloaded.latencies()));
        }
        if let Some(hi) = &hi {
            let limit = ctx.sizes.latency_limit_ms;
            let lat = sorted(&hi.latencies());
            layer.insert("gmd.hi_rate_p90_ms", percentile(&lat, 90.0));
            layer.insert(
                "gmd.hi_rate_within_limit_ratio",
                lat.iter().filter(|&&l| l <= limit).count() as f64 / hi.ends.len().max(1) as f64,
            );
            layer.insert("gmd.hi_rate_backlog_end", hi.backlog_end as f64);
        }
        // A served job's time is explained by its submit and wait spans.
        let (total, unexplained) = job_cover_us(&spans, |_| true);
        layer.insert(
            "trace.accounted_pct",
            if total > 0.0 {
                100.0 * (1.0 - unexplained / total)
            } else {
                0.0
            },
        );
        layer.insert("trace.spans", spans.len() as f64);
        layer.insert("trace.jobs", main.ends.len() as f64);
        layer.insert("trace.job_ms", percentile(&latencies, 50.0));
    }

    let checks = ctx.checks.borrow();
    let mut exact = BTreeMap::new();
    // Job counts depend on the machine's speed; what must repeat is what
    // the jobs returned. Fold the fingerprints of every distinct spec.
    let mut by_spec: BTreeMap<String, &str> = BTreeMap::new();
    for s in phases.iter().flat_map(|p| p.done()) {
        by_spec
            .entry(specs[s.spec].key())
            .or_insert(&s.fingerprints);
    }
    let mut fold = gmd::Fnv1a::default();
    for (key, fp) in &by_spec {
        fold.update(key.as_bytes());
        fold.update(fp.as_bytes());
    }
    exact.insert("fingerprint_fold", fold.finish());
    exact.insert("distinct_specs", by_spec.len() as u64);

    Ok(Outcome {
        workload: name,
        seed: ctx.seed,
        attempted: checks.attempted,
        failed: checks.failed,
        reasons: checks.reasons.clone(),
        end_to_end,
        per_layer: layer,
        summaries: std::iter::once(("job_ms", latencies))
            .chain(
                unloaded
                    .iter()
                    .map(|p| ("gmd.unloaded_job_ms", p.latencies())),
            )
            .map(|(name, ms)| (name, stats::summary(&ms)))
            .collect(),
        exact,
    })
}

/// Time shares of the main phase and, in a traced run, of the
/// single-client phase and the high-rate phase.
fn shares(trace: bool) -> (f64, f64, f64) {
    if trace {
        (0.45, 0.20, 0.35)
    } else {
        (1.0, 0.0, 0.0)
    }
}

pub fn run_small(name: &'static str, ctx: &Ctx) -> Result<Outcome, String> {
    let s = ctx.sizes.clone();
    let warm_up = Spec::Pagerank {
        d: 0.85,
        iters: s.small_iters,
        inline: false,
    };
    // Dropping a daemon with nothing queued stops it as a drain would.
    let (service, setup_s) =
        repeat_setup(|rep| start_service(ctx, s.small_nodes, s.small_edges, rep, &warm_up));
    // A small pool: 16 damping factors and 16 roots, so each spec's local
    // run is computed once and every later submission checks against it.
    let mut specs: Vec<Spec> = (0..16)
        .map(|i| Spec::Pagerank {
            d: 0.80 + 0.005 * f64::from(i),
            iters: s.small_iters,
            inline: false,
        })
        .collect();
    specs.extend(
        top_degree(&service.loaded, 16)
            .into_iter()
            .map(|root| Spec::Sssp { root }),
    );

    let client = Client::new(service.daemon.addr());
    let (main_share, unloaded_share, _) = shares(ctx.trace);
    let mut layer = Layer::new();
    let before = if ctx.trace {
        journal_bytes(&client)
    } else {
        0.0
    };
    let main = closed_loop(
        ctx,
        client,
        &specs,
        WORKERS,
        ctx.share(main_share),
        s.min_serving_samples,
        10,
    );
    if ctx.trace {
        let jobs = main.ends.len().max(1) as f64;
        layer.insert(
            "gmd.journal_bytes_per_job",
            (journal_bytes(&client) - before) / jobs,
        );
    }
    let unloaded = ctx.trace.then(|| {
        closed_loop(
            ctx,
            client,
            &specs,
            1,
            ctx.share(unloaded_share),
            s.min_serving_samples / 4,
            20,
        )
    });
    finish(
        name,
        ctx,
        Finished {
            service,
            specs,
            setup_s,
            main,
            unloaded,
            hi: None,
            layer,
        },
    )
}

/// The kinds of twenty fresh submissions in the mix's proportions: 12
/// builtin PageRank, 5 builtin SSSP, 3 inline PageRank.
const DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2];

/// The seeded submission order of the open loop: 60 % builtin PageRank,
/// 25 % builtin SSSP from a top-degree root, 15 % inline PageRank source;
/// a quarter of the submissions repeat an earlier one exactly.
///
/// Fresh submissions are dealt from a shuffled [`DECK`], not drawn one by
/// one: `job_p90_ms` lies inside the slow 15 %, and with independent draws
/// that share itself would wander between 11 % and 19 % with the seed.
fn mixed_order(
    draws: &mut Draws,
    specs: &mut Vec<Spec>,
    roots: &[u32],
    iters: i64,
    count: usize,
) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::with_capacity(count);
    let mut deck: Vec<u8> = Vec::new();
    for i in 0..count {
        if i > 0 && draws.unit() < 0.25 {
            order.push(order[draws.below(i as u64) as usize]);
            continue;
        }
        if deck.is_empty() {
            deck.extend(DECK);
            for j in (1..deck.len()).rev() {
                deck.swap(j, draws.below(j as u64 + 1) as usize);
            }
        }
        let spec = match deck.pop() {
            Some(1) => Spec::Sssp {
                root: roots[draws.below(roots.len() as u64) as usize],
            },
            kind => Spec::Pagerank {
                // A fresh damping factor almost every time: 10 000 values.
                d: 0.80 + 1e-5 * draws.below(10_000) as f64,
                iters,
                inline: kind == Some(2),
            },
        };
        let index = specs.iter().position(|s| *s == spec).unwrap_or_else(|| {
            specs.push(spec);
            specs.len() - 1
        });
        order.push(index);
    }
    order
}

pub fn run_mixed(name: &'static str, ctx: &Ctx) -> Result<Outcome, String> {
    let s = ctx.sizes.clone();
    let warm_up = Spec::Pagerank {
        d: 0.85,
        iters: s.mid_iters,
        inline: false,
    };
    let (service, setup_s) =
        repeat_setup(|rep| start_service(ctx, s.mid_nodes, s.mid_edges, rep, &warm_up));
    let roots = top_degree(&service.loaded, 64);
    let (main_share, unloaded_share, hi_share) = shares(ctx.trace);
    let count = |rate: f64, seconds: f64| ((rate * seconds).ceil() as usize).max(1);

    let mut specs = vec![warm_up];
    let mut draws = Draws::new(ctx.seed, 5);
    let lo_count = count(s.rate_lo, ctx.share(main_share)).max(s.min_serving_samples);
    let lo_order = mixed_order(&mut draws, &mut specs, &roots, s.mid_iters, lo_count);
    let hi_order = mixed_order(
        &mut draws,
        &mut specs,
        &roots,
        s.mid_iters,
        count(s.rate_hi, ctx.share(hi_share)),
    );

    let client = Client::new(service.daemon.addr());
    let mut layer = Layer::new();
    let before = if ctx.trace {
        journal_bytes(&client)
    } else {
        0.0
    };
    let main = open_loop(ctx, client, &specs, &lo_order, s.rate_lo);
    if ctx.trace {
        let jobs = main.ends.len().max(1) as f64;
        layer.insert(
            "gmd.journal_bytes_per_job",
            (journal_bytes(&client) - before) / jobs,
        );
    }
    // The unloaded latency: one client, one job at a time, same mix.
    let unloaded = ctx.trace.then(|| {
        closed_loop(
            ctx,
            client,
            &specs,
            1,
            ctx.share(unloaded_share),
            s.min_serving_samples / 8,
            30,
        )
    });
    let hi = ctx
        .trace
        .then(|| open_loop(ctx, client, &specs, &hi_order, s.rate_hi));
    finish(
        name,
        ctx,
        Finished {
            service,
            specs,
            setup_s,
            main,
            unloaded,
            hi,
            layer,
        },
    )
}
