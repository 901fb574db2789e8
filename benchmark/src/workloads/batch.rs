//! The five batch workloads. Each is a set-up, a job made only of calls
//! into the layers' public functions (one span per call), an oracle the
//! outputs are checked against, and — in a traced run — diagnostic legs.
//! [`run`] drives them all the same way: repeated set-ups, a main leg at 2
//! workers, a leg at 1 worker, then the checks.

use super::{
    check_pagerank, check_sssp, csr_bytes, hash_values, pagerank_args, peak_rss_mb, pregel_config,
    repeat_setup, seeded_weights, sssp_args, timed_ms, write_edge_list_file, Args, Ctx, Draws,
    Outcome,
};
use crate::catalog::PER_LAYER;
use crate::sizes::WORKERS;
use crate::spans::{job_cover_us, median_ms, Span};
use crate::stats::{self, median, percentile, sorted};
use gm_algorithms::{manual, native, reference, sources};
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::Compiled;
use gm_graph::{gen, Graph, GraphBuilder, NodeId};
use gm_interp::CompiledOutcome;
use gm_obs::Tracer;
use gm_pregel::{
    CheckpointConfig, FaultPlan, Metrics, PregelConfig, RecoveryPolicy, ResourceBudget, Schedule,
};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

type Layer = BTreeMap<&'static str, f64>;

/// What one job hands back: the outcome of each Pregel run it made, and
/// numbers the layers returned along the way (pass timings, load
/// statistics), keyed by per-layer metric name.
pub struct Raw {
    pub outcomes: Vec<CompiledOutcome>,
    pub probes: Vec<(&'static str, f64)>,
}

impl Raw {
    fn of(outcome: CompiledOutcome) -> Raw {
        Raw {
            outcomes: vec![outcome],
            probes: Vec::new(),
        }
    }
}

/// A job reduced to what the report needs.
struct Digest {
    job: u64,
    runs: Vec<Metrics>,
    /// Hash over every output column, return value and global.
    hash: u64,
    probes: Vec<(&'static str, f64)>,
}

fn digest(job: u64, raw: &Raw) -> Digest {
    let mut hash = 0u64;
    for out in &raw.outcomes {
        let mut names: Vec<&String> = out.node_props.keys().collect();
        names.sort();
        for name in names {
            hash = hash.rotate_left(7) ^ hash_values(&out.node_props[name]);
        }
        if let Some(ret) = out.ret {
            hash = hash.rotate_left(7) ^ hash_values(&[ret]);
        }
    }
    Digest {
        job,
        runs: raw.outcomes.iter().map(|o| o.metrics.clone()).collect(),
        hash,
        probes: raw.probes.clone(),
    }
}

pub trait Batch {
    type Input;

    /// Input generation and file writing, each call under a span.
    fn setup(&self, ctx: &Ctx) -> Self::Input;

    /// The graph the jobs run on, for the computed CSR footprint.
    fn graph<'a>(&self, input: &'a Self::Input) -> &'a Graph;

    /// One job at `workers` workers. `tracer` is the runtime's own tracer,
    /// attached only by the tracing-overhead leg.
    fn job(
        &self,
        ctx: &Ctx,
        input: &Self::Input,
        workers: usize,
        job: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Raw, String>;

    /// Removes what a job left on disk; runs outside the job's timing.
    fn cleanup(&self, _ctx: &Ctx, _job: u64) {}

    /// Checks a job's outputs against the sequential oracle.
    fn verify(&self, input: &Self::Input, raw: &Raw) -> Result<(), String>;

    /// Diagnostic legs of a traced run, `seconds` in all. `native` is the
    /// first main-leg job, for structural comparison.
    fn diagnostics(
        &self,
        _ctx: &Ctx,
        _input: &Self::Input,
        _seconds: f64,
        _native: &Raw,
        _main_job_ms: f64,
        _layer: &mut Layer,
    ) {
    }
}

fn config_with(workers: usize, tracer: Option<&Tracer>) -> PregelConfig {
    PregelConfig {
        tracer: tracer.cloned(),
        ..pregel_config(workers)
    }
}

/// Supersteps, messages and message bytes of a job, summed over its runs:
/// the counts that must not depend on worker count, repetition or leg.
fn structure(runs: &[Metrics]) -> (u64, u64, u64) {
    runs.iter().fold((0, 0, 0), |(s, m, b), r| {
        (
            s + u64::from(r.supersteps),
            m + r.total_messages,
            b + r.total_message_bytes,
        )
    })
}

/// Jobs at one worker count: what to run and what came of it.
struct Leg {
    workers: usize,
    /// Share of the timed section this leg's jobs may take.
    share: f64,
    min_jobs: usize,
    /// The runtime's own tracer, attached by the tracing-overhead leg only.
    tracer: Option<Tracer>,
    ms: Vec<f64>,
    digests: Vec<Digest>,
    first: Option<Raw>,
    /// Seconds spent in this leg's jobs, their clean-up and digests.
    busy_s: f64,
    failures: usize,
}

impl Leg {
    fn new(workers: usize, share: f64, min_jobs: usize, tracer: Option<Tracer>) -> Leg {
        Leg {
            workers,
            share,
            min_jobs,
            tracer,
            ms: Vec::new(),
            digests: Vec::new(),
            first: None,
            busy_s: 0.0,
            failures: 0,
        }
    }

    fn step<W: Batch>(&mut self, w: &W, ctx: &Ctx, input: &W::Input) {
        let started = Instant::now();
        let job = ctx.next_job();
        let (result, ms) = timed_ms(|| {
            ctx.rec.span("job", job, || {
                w.job(ctx, input, self.workers, job, self.tracer.as_ref())
            })
        });
        w.cleanup(ctx, job);
        match result {
            Ok(raw) => {
                self.ms.push(ms);
                self.digests.push(digest(job, &raw));
                self.first.get_or_insert(raw);
            }
            Err(e) => {
                self.failures += 1;
                ctx.fail(format!("job {job} at {} workers: {e}", self.workers));
            }
        }
        self.busy_s += started.elapsed().as_secs_f64();
    }
}

/// Runs the legs' jobs for `seconds`, and past that until each leg has its
/// `min_jobs`. The legs take turns — the next job goes to the leg furthest
/// behind its share — so every leg samples the whole window and a slow few
/// seconds on the box do not land on one of them alone. Gives up on a leg
/// after three failed jobs.
fn run_legs<W: Batch>(w: &W, ctx: &Ctx, input: &W::Input, seconds: f64, legs: &mut [Leg]) {
    let started = Instant::now();
    loop {
        let time_up = started.elapsed().as_secs_f64() >= seconds;
        let next = legs
            .iter_mut()
            .filter(|l| l.failures < 3 && (!time_up || l.ms.len() < l.min_jobs))
            .min_by(|a, b| (a.busy_s / a.share).total_cmp(&(b.busy_s / b.share)));
        match next {
            Some(leg) => leg.step(w, ctx, input),
            None => break,
        }
    }
}

/// Checks a leg: its first job against the oracle, every other job
/// bit-identical to the first with the same structural counts.
fn check_leg<W: Batch>(w: &W, ctx: &Ctx, input: &W::Input, leg: &Leg, what: &str) {
    let (Some(first), Some(head)) = (&leg.first, leg.digests.first()) else {
        return;
    };
    if let Err(e) = w.verify(input, first) {
        ctx.fail(format!("{what}: {e}"));
    }
    for d in &leg.digests[1..] {
        if d.hash != head.hash {
            ctx.fail(format!(
                "{what}: job {} output differs from job {}",
                d.job, head.job
            ));
        } else if structure(&d.runs) != structure(&head.runs) {
            ctx.fail(format!(
                "{what}: job {} ran {:?} supersteps/messages/bytes, job {} ran {:?}",
                d.job,
                structure(&d.runs),
                head.job,
                structure(&head.runs)
            ));
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over jobs of a per-job quantity.
fn per_job(digests: &[Digest], f: impl Fn(&Digest) -> f64) -> f64 {
    median(&digests.iter().map(f).collect::<Vec<_>>())
}

/// The gm-pregel and gm-ckpt metrics of a leg: medians over its jobs of
/// what each job's `Metrics` report.
fn pregel_layer(digests: &[Digest], layer: &mut Layer) {
    let sum = |d: &Digest, f: &dyn Fn(&Metrics) -> f64| d.runs.iter().map(f).sum::<f64>();
    let mut put = |name: &'static str, f: &dyn Fn(&Metrics) -> f64| {
        layer.insert(name, per_job(digests, |d| sum(d, f)));
    };
    put("pregel.compute_ms", &|m| ms(m.compute_time));
    put("pregel.combine_ms", &|m| ms(m.combine_time));
    put("pregel.exchange_ms", &|m| ms(m.exchange_time));
    put("pregel.barrier_ms", &|m| ms(m.barrier_time));
    put("pregel.master_ms", &|m| ms(m.master_time));
    put("pregel.supersteps", &|m| f64::from(m.supersteps));
    put("pregel.messages", &|m| m.total_messages as f64);
    put("pregel.message_bytes", &|m| m.total_message_bytes as f64);
    put("pregel.remote_message_bytes", &|m| {
        m.remote_message_bytes as f64
    });
    put("pregel.pull_supersteps", &|m| f64::from(m.pull_supersteps));
    put("pregel.direction_switches", &|m| {
        f64::from(m.direction_switches)
    });
    put("pregel.spill_write_ms", &|m| ms(m.spill.spill_write_time));
    put("pregel.spill_read_ms", &|m| ms(m.spill.spill_read_time));
    put("pregel.spill_file_bytes", &|m| {
        m.spill.spill_file_bytes as f64
    });
    put("pregel.peak_in_flight_bytes", &|m| {
        m.spill.peak_in_flight_bytes as f64
    });
    put("pregel.restarts", &|m| f64::from(m.recovery.restarts));
    put("pregel.wasted_supersteps", &|m| {
        f64::from(m.recovery.wasted_supersteps)
    });
    put("pregel.wasted_ms", &|m| ms(m.recovery.wasted_time));
    put("ckpt.write_ms", &|m| ms(m.recovery.checkpoint_time));
    put("ckpt.restore_ms", &|m| ms(m.recovery.restore_time));
    put("ckpt.snapshots", &|m| {
        f64::from(m.recovery.checkpoints_written)
    });
    put("ckpt.snapshot_bytes", &|m| m.recovery.snapshot_bytes as f64);
    layer.insert(
        "pregel.mmsgs_per_s",
        per_job(digests, |d| {
            let secs: f64 = d.runs.iter().map(|m| m.elapsed.as_secs_f64()).sum();
            let msgs: f64 = d.runs.iter().map(|m| m.total_messages as f64).sum();
            if secs > 0.0 {
                msgs / secs / 1e6
            } else {
                0.0
            }
        }),
    );
    let write_ms = layer["ckpt.write_ms"];
    layer.insert(
        "ckpt.write_mb_per_s",
        if write_ms > 0.0 {
            layer["ckpt.snapshot_bytes"] / 1e6 / (write_ms / 1e3)
        } else {
            0.0
        },
    );
    // Wall time of the supersteps that move almost nothing: fewer messages
    // than 2 % of the peak superstep's. What is left there is the fixed
    // cost of a superstep.
    let mut tail = Vec::new();
    for m in digests.iter().flat_map(|d| &d.runs) {
        let peak = m
            .per_superstep
            .iter()
            .map(|s| s.messages_sent)
            .max()
            .unwrap_or(0);
        tail.extend(
            m.per_superstep
                .iter()
                .filter(|s| s.messages_sent * 50 < peak.max(50))
                .map(|s| s.phase_total().as_secs_f64() * 1e6),
        );
    }
    layer.insert("pregel.tail_superstep_us", median(&tail));
}

/// Span names and the per-layer metric (in ms) each feeds.
const SPAN_METRICS: [(&str, &str); 6] = [
    ("graph.load", "graph.load_ms"),
    ("service.compile", "service.compile_ms"),
    ("core.emit_rust", "core.emit_rust_ms"),
    ("native.run", "native.run_ms"),
    ("interp.run", "interp.run_ms"),
    ("manual.run", "manual.run_ms"),
];

/// Median over `jobs` of the time each spent in spans named `name`, ms.
fn span_ms_per_job(spans: &[Span], jobs: &[u64], name: &str) -> f64 {
    let per_job: Vec<f64> = jobs
        .iter()
        .map(|&j| {
            spans
                .iter()
                .filter(|s| s.job == j && s.name == name)
                .map(|s| s.duration_us() as f64 / 1e3)
                .sum()
        })
        .collect();
    median(&per_job)
}

/// Drives one batch workload from set-up to report.
pub fn run<W: Batch>(w: W, name: &'static str, ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = ctx.sizes.clone();
    let (input, setup_s) = repeat_setup(|_| w.setup(ctx));
    // One warm-up job, outside `setup_s`: a batch job keeps nothing warm
    // that the next one uses except the page cache and the allocator, and
    // its time is what `job_ms` reports anyway.
    let job = ctx.next_job();
    if let Err(e) = w.job(ctx, &input, WORKERS, job, None) {
        ctx.fail(format!("warm-up job: {e}"));
    }
    w.cleanup(ctx, job);

    // An untraced run is all main leg. A traced run adds the leg at 1
    // worker, taking turns with it, and gives 35 % to the diagnostic legs.
    let (main_share, diag_share) = if ctx.trace { (0.40, 0.35) } else { (1.0, 0.0) };
    let mut legs = vec![Leg::new(WORKERS, main_share, sizes.min_jobs, None)];
    if ctx.trace {
        legs.push(Leg::new(1, 0.25, sizes.min_jobs_w1, None));
    }
    run_legs(&w, ctx, &input, ctx.share(1.0 - diag_share), &mut legs);
    let mut legs = legs.into_iter();
    let main = legs.next().expect("the main leg is always there");
    let w1 = legs.next();
    let rss_mb = peak_rss_mb();

    let job_ms = median(&main.ms);
    let mut layer = Layer::new();
    if ctx.trace {
        if let Some(first) = &main.first {
            w.diagnostics(
                ctx,
                &input,
                ctx.share(diag_share),
                first,
                job_ms,
                &mut layer,
            );
        }
    }

    check_leg(&w, ctx, &input, &main, "2 workers");
    if let Some(w1) = &w1 {
        check_leg(&w, ctx, &input, w1, "1 worker");
        if let (Some(a), Some(b)) = (main.digests.first(), w1.digests.first()) {
            if structure(&a.runs) != structure(&b.runs) {
                ctx.fail(format!(
                    "supersteps/messages/bytes differ between 2 workers {:?} and 1 worker {:?}",
                    structure(&a.runs),
                    structure(&b.runs)
                ));
            }
        }
    }

    let checks = ctx.checks.borrow();
    let ok_main = main.digests.len() as f64;
    let end_to_end = BTreeMap::from([
        ("setup_s", setup_s),
        ("job_ms", job_ms),
        ("job_p90_ms", percentile(&sorted(&main.ms), 90.0)),
        ("jobs_per_s", ok_main / main.busy_s.max(1e-9)),
        ("peak_rss_mb", rss_mb),
    ]);

    let mut exact = BTreeMap::new();
    if let Some(d) = main.digests.first() {
        let (supersteps, messages, bytes) = structure(&d.runs);
        exact.insert("supersteps", supersteps);
        exact.insert("messages", messages);
        exact.insert("message_bytes", bytes);
        exact.insert("output_hash", d.hash);
    }

    if ctx.trace {
        pregel_layer(&main.digests, &mut layer);
        let spans = ctx.rec.spans();
        let jobs: Vec<u64> = main.digests.iter().map(|d| d.job).collect();
        for (span, metric) in SPAN_METRICS {
            // The manual leg fills its own metric from its own jobs.
            if !layer.contains_key(metric) {
                layer.insert(metric, span_ms_per_job(&spans, &jobs, span));
            }
        }
        if layer["interp.run_ms"] > 0.0 {
            layer.insert("interp.compute_ms", layer["pregel.compute_ms"]);
        }
        // Time inside the run calls that no phase and no checkpoint
        // counter claims: pool start-up, result assembly and, after a
        // fault, the work a restart throws away.
        let claimed: f64 = [
            "pregel.compute_ms",
            "pregel.combine_ms",
            "pregel.exchange_ms",
            "pregel.barrier_ms",
            "pregel.master_ms",
            "ckpt.write_ms",
            "ckpt.restore_ms",
        ]
        .iter()
        .map(|name| layer[name])
        .sum();
        // From the main leg's own spans: a diagnostic leg may have put its
        // own number under `native.run_ms`.
        let in_runs = span_ms_per_job(&spans, &jobs, "native.run")
            + span_ms_per_job(&spans, &jobs, "interp.run");
        layer.insert("pregel.other_ms", (in_runs - claimed).max(0.0));
        // Probes: summed within a job, median over jobs.
        let mut names: Vec<&'static str> = main
            .digests
            .iter()
            .flat_map(|d| d.probes.iter().map(|(n, _)| *n))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let value = per_job(&main.digests, |d| {
                d.probes
                    .iter()
                    .filter(|(n, _)| *n == name)
                    .map(|(_, v)| v)
                    .sum()
            });
            layer.insert(name, value);
        }
        if layer.get("graph.load_ms").copied().unwrap_or(0.0) > 0.0 {
            let edges = f64::from(w.graph(&input).num_edges());
            layer.insert(
                "graph.load_medges_per_s",
                edges / 1e3 / layer["graph.load_ms"],
            );
        }
        layer.insert("graph.gen_ms", median_ms(&spans, "graph.gen"));
        layer.insert("graph.csr_bytes", csr_bytes(w.graph(&input)));
        let job_ms_w1 = w1.as_ref().map_or(0.0, |leg| median(&leg.ms));
        layer.insert("pregel.job_ms_w1", job_ms_w1);
        layer.insert(
            "pregel.scaling_eff_2w",
            if job_ms > 0.0 {
                job_ms_w1 / (WORKERS as f64 * job_ms)
            } else {
                0.0
            },
        );

        // How much of a job the layer numbers explain: the part of each
        // job span its layer-call children cover, less `pregel.other_ms`.
        let (total_us, uncovered_us) = job_cover_us(&spans, |s| jobs.contains(&s.job));
        let unexplained_us = uncovered_us + layer["pregel.other_ms"] * 1e3 * jobs.len() as f64;
        layer.insert(
            "trace.accounted_pct",
            if total_us > 0.0 {
                100.0 * (1.0 - unexplained_us / total_us)
            } else {
                0.0
            },
        );
        layer.insert("trace.spans", spans.len() as f64);
        layer.insert("trace.jobs", jobs.len() as f64);
        layer.insert("trace.job_ms", job_ms);
    }

    Ok(Outcome {
        workload: name,
        seed: ctx.seed,
        attempted: checks.attempted,
        failed: checks.failed,
        reasons: checks.reasons.clone(),
        end_to_end,
        per_layer: layer,
        summaries: std::iter::once(("job_ms", &main))
            .chain(w1.iter().map(|leg| ("pregel.job_ms_w1", leg)))
            .map(|(name, leg)| (name, stats::summary(&leg.ms)))
            .collect(),
        exact,
    })
}

// ---------------------------------------------------------------------
// dense_pagerank

#[derive(Default)]
pub struct DensePagerank {
    oracle: OnceCell<Vec<f64>>,
}

pub struct PagerankInput {
    graph: Graph,
    args: Args,
    iters: i64,
}

fn pagerank_oracle<'a>(cell: &'a OnceCell<Vec<f64>>, input: &PagerankInput) -> &'a [f64] {
    cell.get_or_init(|| reference::pagerank(&input.graph, 1e-12, 0.85, input.iters).0)
}

/// Times `GraphBuilder::build` on the graph's own edge vector.
fn graph_build_probe(ctx: &Ctx, g: &Graph, layer: &mut Layer) {
    let mut builder = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges() as usize);
    for (s, t) in g.edges() {
        builder.add_edge(s.0, t.0);
    }
    let (built, ms) = timed_ms(|| ctx.rec.span("graph.build", 0, || builder.build()));
    layer.insert("graph.build_ms", ms);
    std::hint::black_box(built);
}

/// The manual leg shared by the two Figure-6 workloads: at least
/// `min_jobs_manual` jobs for `seconds`, each checked by `check` and
/// compared structurally with the native job.
fn manual_leg(
    ctx: &Ctx,
    seconds: f64,
    native: &Raw,
    native_ms: f64,
    layer: &mut Layer,
    mut run: impl FnMut(&PregelConfig) -> Result<Metrics, String>,
) {
    let config = pregel_config(WORKERS);
    let started = Instant::now();
    let mut samples = Vec::new();
    let want = structure(&[native.outcomes[0].metrics.clone()]);
    while started.elapsed().as_secs_f64() < seconds || samples.len() < ctx.sizes.min_jobs_manual {
        let job = ctx.next_job();
        let (result, elapsed) = timed_ms(|| {
            ctx.rec.span("job", job, || {
                ctx.rec.span("manual.run", job, || run(&config))
            })
        });
        match result {
            Ok(metrics) => {
                samples.push(elapsed);
                let got = structure(&[metrics]);
                // The paper's structural claim: same timesteps, same
                // network I/O as the generated program.
                if (got.0, got.2) != (want.0, want.2) {
                    ctx.fail(format!(
                        "manual job {job}: {} supersteps / {} message bytes, native {} / {}",
                        got.0, got.2, want.0, want.2
                    ));
                }
            }
            Err(e) => {
                ctx.fail(format!("manual job {job}: {e}"));
                break;
            }
        }
    }
    let manual_ms = median(&samples);
    layer.insert("manual.run_ms", manual_ms);
    layer.insert(
        "native.vs_manual",
        if manual_ms > 0.0 {
            native_ms / manual_ms
        } else {
            0.0
        },
    );
}

impl Batch for DensePagerank {
    type Input = PagerankInput;

    fn setup(&self, ctx: &Ctx) -> PagerankInput {
        let s = &ctx.sizes;
        let graph = ctx.rec.span("graph.gen", 0, || {
            gen::rmat(s.dense_nodes, s.dense_edges, ctx.seed)
        });
        PagerankInput {
            graph,
            args: pagerank_args(0.85, s.dense_iters),
            iters: s.dense_iters,
        }
    }

    fn graph<'a>(&self, input: &'a PagerankInput) -> &'a Graph {
        &input.graph
    }

    fn job(
        &self,
        ctx: &Ctx,
        input: &PagerankInput,
        workers: usize,
        job: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Raw, String> {
        let config = config_with(workers, tracer);
        ctx.rec
            .span("native.run", job, || {
                native::pagerank::run(&input.graph, &input.args, 0, &config)
            })
            .map(Raw::of)
            .map_err(|e| e.to_string())
    }

    fn verify(&self, input: &PagerankInput, raw: &Raw) -> Result<(), String> {
        check_pagerank(
            &raw.outcomes[0].node_props["pr"],
            pagerank_oracle(&self.oracle, input),
        )
    }

    fn diagnostics(
        &self,
        ctx: &Ctx,
        input: &PagerankInput,
        seconds: f64,
        native: &Raw,
        main_job_ms: f64,
        layer: &mut Layer,
    ) {
        manual_leg(ctx, seconds * 0.5, native, main_job_ms, layer, |config| {
            let out = manual::run_pagerank(&input.graph, 1e-12, 0.85, input.iters, config)
                .map_err(|e| e.to_string())?;
            let pr: Vec<Value> = out.pr.iter().map(|&x| Value::Double(x)).collect();
            check_pagerank(&pr, pagerank_oracle(&self.oracle, input))?;
            Ok(out.metrics)
        });

        // The same job with the runtime's own tracer attached: the pair
        // (main leg, this leg) is the measured cost of tracing.
        let (tracer, sink) = Tracer::in_memory();
        let mut traced = [Leg::new(
            WORKERS,
            1.0,
            ctx.sizes.min_jobs_manual,
            Some(tracer),
        )];
        run_legs(self, ctx, input, seconds * 0.4, &mut traced);
        let [traced] = traced;
        check_leg(self, ctx, input, &traced, "traced");
        if sink.is_empty() {
            ctx.fail("traced leg: the runtime tracer recorded no event".to_owned());
        }
        let traced_ms = median(&traced.ms);
        layer.insert(
            "obs.tracing_overhead_pct",
            if main_job_ms > 0.0 {
                100.0 * (traced_ms - main_job_ms) / main_job_ms
            } else {
                0.0
            },
        );
        graph_build_probe(ctx, &input.graph, layer);
    }
}

// ---------------------------------------------------------------------
// sparse_sssp

pub struct SparseSssp;

pub struct SsspInput {
    graph: Graph,
    weights: Vec<i64>,
    root: NodeId,
    args: Args,
}

impl SsspInput {
    fn new(graph: Graph, weights: Vec<i64>, root: NodeId) -> SsspInput {
        let args = sssp_args(root, &weights);
        SsspInput {
            graph,
            weights,
            root,
            args,
        }
    }
}

impl Batch for SparseSssp {
    type Input = SsspInput;

    fn setup(&self, ctx: &Ctx) -> SsspInput {
        let side = ctx.sizes.grid_side;
        let graph = ctx.rec.span("graph.gen", 0, || gen::grid(side, side));
        let mut draws = Draws::new(ctx.seed, 1);
        let weights = seeded_weights(&graph, &mut draws, 3);
        // One of the four corners: the wave crosses the whole grid.
        let corners = [0, side - 1, side * (side - 1), side * side - 1];
        let root = NodeId(corners[draws.below(4) as usize]);
        SsspInput::new(graph, weights, root)
    }

    fn graph<'a>(&self, input: &'a SsspInput) -> &'a Graph {
        &input.graph
    }

    fn job(
        &self,
        ctx: &Ctx,
        input: &SsspInput,
        workers: usize,
        job: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Raw, String> {
        let config = config_with(workers, tracer);
        ctx.rec
            .span("native.run", job, || {
                native::sssp::run(&input.graph, &input.args, 0, &config)
            })
            .map(Raw::of)
            .map_err(|e| e.to_string())
    }

    fn verify(&self, input: &SsspInput, raw: &Raw) -> Result<(), String> {
        let want = reference::dijkstra(&input.graph, input.root, &input.weights);
        check_sssp(&raw.outcomes[0].node_props["dist"], &want)
    }

    fn diagnostics(
        &self,
        ctx: &Ctx,
        input: &SsspInput,
        seconds: f64,
        native: &Raw,
        main_job_ms: f64,
        layer: &mut Layer,
    ) {
        let want = reference::dijkstra(&input.graph, input.root, &input.weights);
        manual_leg(ctx, seconds, native, main_job_ms, layer, |config| {
            let out = manual::run_sssp(&input.graph, input.root, &input.weights, config)
                .map_err(|e| e.to_string())?;
            if out.dist != want {
                return Err("manual sssp differs from dijkstra".to_owned());
            }
            Ok(out.metrics)
        });
    }
}

// ---------------------------------------------------------------------
// cold_run

pub struct ColdRun;

pub struct ColdInput {
    graph: Graph,
    path: PathBuf,
    member: Vec<bool>,
    args: Args,
}

/// The `core.pass_us.*` metric of a compiler pass (`/` spelled `-`); a
/// pass the catalogue does not know goes to `core.pass_us.other`.
fn pass_metric(pass: &str) -> &'static str {
    let dashed = pass.replace('/', "-");
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix("core.pass_us.") == Some(dashed.as_str()))
        .unwrap_or("core.pass_us.other")
}

/// Pass timings and program shape of one compilation, as probes.
fn compile_probes(compiled: &Compiled, probes: &mut Vec<(&'static str, f64)>) {
    for t in compiled.report.pass_timings() {
        probes.push((pass_metric(t.pass), t.duration.as_secs_f64() * 1e6));
    }
    probes.push(("core.pir_states", compiled.program.states.len() as f64));
}

impl Batch for ColdRun {
    type Input = ColdInput;

    fn setup(&self, ctx: &Ctx) -> ColdInput {
        let s = &ctx.sizes;
        let graph = ctx.rec.span("graph.gen", 0, || {
            gen::rmat(s.cold_nodes, s.cold_edges, ctx.seed)
        });
        let path = ctx.scratch.join("edges.txt");
        write_edge_list_file(ctx, &graph, None, &path);
        // The loader sizes the graph by the largest id it saw, so the
        // argument column covers exactly those vertices (the ones past it
        // have no edge and do not change the conductance).
        let loaded_nodes = graph
            .edges()
            .map(|(s, t)| s.0.max(t.0) + 1)
            .max()
            .unwrap_or(0);
        let mut draws = Draws::new(ctx.seed, 2);
        let member: Vec<bool> = (0..loaded_nodes).map(|_| draws.below(3) == 0).collect();
        let args = HashMap::from([(
            "member".to_owned(),
            ArgValue::NodeProp(member.iter().map(|&b| Value::Bool(b)).collect()),
        )]);
        ColdInput {
            graph,
            path,
            member,
            args,
        }
    }

    fn graph<'a>(&self, input: &'a ColdInput) -> &'a Graph {
        &input.graph
    }

    /// The steps of `gmc run conductance.gm --graph edges.txt --backend
    /// native`, then the fingerprint `gmd` would return.
    fn job(
        &self,
        ctx: &Ctx,
        input: &ColdInput,
        workers: usize,
        job: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Raw, String> {
        let rec = &ctx.rec;
        let loaded = rec
            .span("graph.load", job, || {
                gm_graph::io::read_edge_list_file(&input.path)
            })
            .map_err(|e| e.to_string())?;
        let compiled = rec.span("service.compile", job, || {
            greenmarl::service::compile_source(sources::CONDUCTANCE)
        })?;
        let (generated, alg) = rec.span("core.emit_rust", job, || {
            let generated =
                gm_core::rustgen::emit_rust(&compiled.program).map_err(|e| e.to_string())?;
            let alg = native::find_for_generated(&generated)
                .ok_or("no compiled-in module matches the emitted Rust")?;
            Ok::<_, String>((generated, alg))
        })?;
        let config = config_with(workers, tracer);
        let outcome = rec
            .span("native.run", job, || {
                (alg.run)(&loaded.graph, &input.args, 0, &config)
            })
            .map_err(|e| e.to_string())?;
        let fingerprint = rec.span("gmd.fingerprint", job, || {
            gmd::fingerprint_values(&outcome.node_props["member"])
        });
        std::hint::black_box(fingerprint);

        let mut probes = vec![
            ("core.native_match", 1.0),
            ("core.generated_bytes", generated.len() as f64),
            (
                "graph.file_bytes",
                std::fs::metadata(&input.path).map_or(0.0, |m| m.len() as f64),
            ),
        ];
        compile_probes(&compiled, &mut probes);
        if loaded.stats.edges_loaded != u64::from(input.graph.num_edges()) {
            return Err(format!(
                "loaded {} edges, wrote {}",
                loaded.stats.edges_loaded,
                input.graph.num_edges()
            ));
        }
        Ok(Raw {
            outcomes: vec![outcome],
            probes,
        })
    }

    fn verify(&self, input: &ColdInput, raw: &Raw) -> Result<(), String> {
        let mut member = input.member.clone();
        member.resize(input.graph.num_nodes() as usize, false);
        let want = Value::Double(reference::conductance(&input.graph, &member));
        match raw.outcomes[0].ret {
            Some(got) if got == want => Ok(()),
            got => Err(format!("conductance is {got:?}, reference {want:?}")),
        }
    }

    fn diagnostics(
        &self,
        ctx: &Ctx,
        input: &ColdInput,
        _seconds: f64,
        _native: &Raw,
        _main_job_ms: f64,
        layer: &mut Layer,
    ) {
        graph_build_probe(ctx, &input.graph, layer);
    }
}

// ---------------------------------------------------------------------
// inline_interp

#[derive(Default)]
pub struct InlineInterp {
    oracle: OnceCell<Vec<f64>>,
}

pub struct InterpInput {
    pagerank: PagerankInput,
    sssp_weights: Vec<i64>,
    sssp_root: NodeId,
    sssp_args: Args,
}

impl Batch for InlineInterp {
    type Input = InterpInput;

    fn setup(&self, ctx: &Ctx) -> InterpInput {
        let s = &ctx.sizes;
        let graph = ctx.rec.span("graph.gen", 0, || {
            gen::rmat(s.interp_nodes, s.interp_edges, ctx.seed)
        });
        let mut draws = Draws::new(ctx.seed, 3);
        let sssp_weights = seeded_weights(&graph, &mut draws, 16);
        // The top-degree vertex reaches most of an R-MAT graph; a random
        // one is often isolated.
        let sssp_root = graph
            .nodes()
            .max_by_key(|&n| graph.out_degree(n))
            .unwrap_or(NodeId(0));
        InterpInput {
            sssp_args: sssp_args(sssp_root, &sssp_weights),
            sssp_weights,
            sssp_root,
            pagerank: PagerankInput {
                graph,
                args: pagerank_args(0.85, s.interp_iters),
                iters: s.interp_iters,
            },
        }
    }

    fn graph<'a>(&self, input: &'a InterpInput) -> &'a Graph {
        &input.pagerank.graph
    }

    /// What an inline-source `gmd` job does, for two sources: compile at
    /// submit, then the PIR interpreter.
    fn job(
        &self,
        ctx: &Ctx,
        input: &InterpInput,
        workers: usize,
        job: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Raw, String> {
        let config = config_with(workers, tracer);
        let graph = &input.pagerank.graph;
        let mut raw = Raw {
            outcomes: Vec::new(),
            probes: Vec::new(),
        };
        for (source, args) in [
            (sources::SSSP, &input.sssp_args),
            (sources::PAGERANK, &input.pagerank.args),
        ] {
            let compiled = ctx.rec.span("service.compile", job, || {
                greenmarl::service::compile_source(source)
            })?;
            compile_probes(&compiled, &mut raw.probes);
            let outcome = ctx
                .rec
                .span("interp.run", job, || {
                    gm_interp::run_compiled(graph, &compiled, args, 0, &config)
                })
                .map_err(|e| e.to_string())?;
            raw.outcomes.push(outcome);
        }
        Ok(raw)
    }

    fn verify(&self, input: &InterpInput, raw: &Raw) -> Result<(), String> {
        let graph = &input.pagerank.graph;
        let dist = reference::dijkstra(graph, input.sssp_root, &input.sssp_weights);
        check_sssp(&raw.outcomes[0].node_props["dist"], &dist)?;
        check_pagerank(
            &raw.outcomes[1].node_props["pr"],
            pagerank_oracle(&self.oracle, &input.pagerank),
        )
    }

    /// The interpreter's tax: the same two programs on the same graph
    /// through the native modules.
    fn diagnostics(
        &self,
        ctx: &Ctx,
        input: &InterpInput,
        seconds: f64,
        _native: &Raw,
        _main_job_ms: f64,
        layer: &mut Layer,
    ) {
        let config = pregel_config(WORKERS);
        let graph = &input.pagerank.graph;
        let started = Instant::now();
        let (mut native_ms, mut interp_ms) = (Vec::new(), Vec::new());
        while started.elapsed().as_secs_f64() < seconds
            || native_ms.len() < ctx.sizes.min_jobs_manual
        {
            let job = ctx.next_job();
            let (result, ms) = timed_ms(|| {
                let sssp = native::sssp::run(graph, &input.sssp_args, 0, &config)?;
                let pagerank = native::pagerank::run(graph, &input.pagerank.args, 0, &config)?;
                Ok::<_, gm_interp::RunError>((sssp, pagerank))
            });
            native_ms.push(ms);
            let checked = result.map_err(|e| e.to_string()).and_then(|(a, b)| {
                self.verify(
                    input,
                    &Raw {
                        outcomes: vec![a, b],
                        probes: Vec::new(),
                    },
                )
            });
            if let Err(e) = checked {
                ctx.fail(format!("native job {job}: {e}"));
                break;
            }
            // Interleaved with the native runs, so both see the same
            // machine state; compilation is left out of the ratio.
            let job = ctx.next_job();
            let compiled =
                [sources::SSSP, sources::PAGERANK].map(greenmarl::service::compile_source);
            let ((), ms) = timed_ms(|| {
                for (c, args) in compiled
                    .iter()
                    .zip([&input.sssp_args, &input.pagerank.args])
                {
                    match c {
                        Ok(c) => {
                            if let Err(e) = gm_interp::run_compiled(graph, c, args, 0, &config) {
                                ctx.fail(format!("interp job {job}: {e}"));
                            }
                        }
                        Err(e) => ctx.fail(format!("interp job {job}: {e}")),
                    }
                }
            });
            interp_ms.push(ms);
        }
        let native = median(&native_ms);
        layer.insert("native.run_ms", native);
        layer.insert(
            "interp.tax",
            if native > 0.0 {
                median(&interp_ms) / native
            } else {
                0.0
            },
        );
    }
}

// ---------------------------------------------------------------------
// durable_pagerank

/// Checkpoints and spill files of one durable job.
fn durable_dir(ctx: &Ctx, job: u64) -> PathBuf {
    ctx.scratch.join(format!("durable-{job}"))
}

#[derive(Default)]
pub struct DurablePagerank {
    oracle: OnceCell<Vec<f64>>,
}

impl Batch for DurablePagerank {
    type Input = PagerankInput;

    fn setup(&self, ctx: &Ctx) -> PagerankInput {
        let s = &ctx.sizes;
        let graph = ctx.rec.span("graph.gen", 0, || {
            gen::rmat(s.durable_nodes, s.durable_edges, ctx.seed)
        });
        PagerankInput {
            graph,
            args: pagerank_args(0.85, s.durable_iters),
            iters: s.durable_iters,
        }
    }

    fn graph<'a>(&self, input: &'a PagerankInput) -> &'a Graph {
        &input.graph
    }

    fn job(
        &self,
        ctx: &Ctx,
        input: &PagerankInput,
        workers: usize,
        job: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Raw, String> {
        let s = &ctx.sizes;
        let dir = durable_dir(ctx, job);
        let config = PregelConfig {
            checkpoint: Some(CheckpointConfig::new(
                dir.join("ckpt"),
                s.durable_checkpoint_every,
            )),
            budget: ResourceBudget::unbounded()
                .with_max_message_bytes(s.durable_message_budget)
                .with_spill_dir(dir.join("spill")),
            // A fresh plan per job: a fault trips once.
            faults: FaultPlan::builder()
                .panic_in_compute(s.durable_fault_superstep, Some(0))
                .build(),
            recovery: Some(RecoveryPolicy::with_max_restarts(2)),
            // Gathered supersteps never fill the outbox, so the message
            // budget and its spill files only exist under push.
            schedule: Schedule::Push,
            ..config_with(workers, tracer)
        };
        let outcome = ctx
            .rec
            .span("native.run", job, || {
                native::pagerank::run(&input.graph, &input.args, 0, &config)
            })
            .map_err(|e| e.to_string())?;
        let m = &outcome.metrics;
        if m.recovery.restarts != 1 || m.recovery.restores != 1 {
            return Err(format!(
                "expected one restart from a snapshot, saw {} restarts / {} restores",
                m.recovery.restarts, m.recovery.restores
            ));
        }
        if m.recovery.checkpoints_written == 0 || m.spill.buckets_spilled == 0 {
            return Err(format!(
                "expected checkpoints and spills, saw {} snapshots / {} spilled buckets",
                m.recovery.checkpoints_written, m.spill.buckets_spilled
            ));
        }
        Ok(Raw::of(outcome))
    }

    fn cleanup(&self, ctx: &Ctx, job: u64) {
        let _ = std::fs::remove_dir_all(durable_dir(ctx, job));
    }

    fn verify(&self, input: &PagerankInput, raw: &Raw) -> Result<(), String> {
        check_pagerank(
            &raw.outcomes[0].node_props["pr"],
            pagerank_oracle(&self.oracle, input),
        )
    }
}
