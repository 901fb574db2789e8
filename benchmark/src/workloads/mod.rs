//! The seven workloads and what they share: the run context, seeded
//! draws, the pinned Pregel configuration, output checks and the result
//! record.

pub mod batch;
pub mod serve;

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::sizes::Sizes;
use crate::spans::Recorder;
use crate::stats::{self, Summary};
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_graph::{Graph, NodeId};
use gm_pregel::{FaultPlan, PregelConfig, ResourceBudget, Schedule};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A set-up is repeated at least this often; `setup_s` is the median.
pub const MIN_SETUP_REPS: usize = 5;
/// Cheap set-ups (the cheapest takes 8 ms) are repeated until this many
/// seconds have gone into them, or [`MAX_SETUP_REPS`]: the median of five
/// 8 ms samples jumps about by a quarter from run to run, the median of
/// forty does not. What is measured, one set-up, stays the same.
pub const SETUP_BUDGET_S: f64 = 0.5;
pub const MAX_SETUP_REPS: usize = 40;

/// SplitMix64: every draw the benchmark makes comes from `--seed` through
/// one of these, never from the clock or the environment.
pub struct Draws(u64);

impl Draws {
    /// A stream for one purpose (`salt`) of one seed.
    pub fn new(seed: u64, salt: u64) -> Draws {
        Draws(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Jobs attempted and failed, with the first few reasons.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// Everything one workload run needs.
pub struct Ctx {
    pub sizes: Sizes,
    pub seed: u64,
    /// Seconds the timed section measures.
    pub seconds: f64,
    /// Tracing on: spans recorded, diagnostic legs run, per-layer metrics
    /// reported.
    pub trace: bool,
    pub rec: Recorder,
    /// This run's scratch directory under `benchmark/out/`.
    pub scratch: PathBuf,
    pub checks: RefCell<Checks>,
    job_seq: Cell<u64>,
}

impl Ctx {
    pub fn new(sizes: Sizes, seed: u64, seconds: f64, trace: bool, scratch: PathBuf) -> Ctx {
        Ctx {
            sizes,
            seed,
            seconds,
            trace,
            rec: Recorder::new(trace),
            scratch,
            checks: RefCell::default(),
            job_seq: Cell::new(0),
        }
    }

    /// A fresh job id; also counts the job as attempted.
    pub fn next_job(&self) -> u64 {
        self.checks.borrow_mut().attempted += 1;
        self.job_seq.set(self.job_seq.get() + 1);
        self.job_seq.get()
    }

    pub fn fail(&self, reason: String) {
        self.checks.borrow_mut().fail(reason);
    }

    /// A block of `n` job ids for a load-generator thread to label its
    /// spans with; the jobs it runs are counted by [`Ctx::attempted`].
    pub fn reserve_jobs(&self, n: u64) -> u64 {
        let base = self.job_seq.get() + 1;
        self.job_seq.set(self.job_seq.get() + n);
        base
    }

    /// Counts `n` jobs run on other threads as attempted.
    pub fn attempted(&self, n: u64) {
        self.checks.borrow_mut().attempted += n;
    }

    /// Seconds for a leg that gets `share` of the timed section.
    pub fn share(&self, share: f64) -> f64 {
        self.seconds * share
    }
}

/// The Pregel configuration every batch job starts from, built field by
/// field so that no `GM_*` variable or core count leaks in.
pub fn pregel_config(workers: usize) -> PregelConfig {
    PregelConfig {
        num_workers: workers,
        max_supersteps: 100_000,
        tracer: None,
        checkpoint: None,
        faults: FaultPlan::none(),
        recovery: None,
        budget: ResourceBudget::unbounded(),
        schedule: Schedule::Auto,
        dense_threshold: 0.05,
        post_mortem: None,
        registry: None,
        cancel: None,
    }
}

/// Arguments of a compiled procedure, by parameter name.
pub type Args = HashMap<String, ArgValue>;

/// PageRank arguments with an epsilon no run reaches, so every job does
/// exactly `iters` iterations whatever the seed.
pub fn pagerank_args(d: f64, iters: i64) -> Args {
    HashMap::from([
        ("e".to_owned(), ArgValue::Scalar(Value::Double(1e-12))),
        ("d".to_owned(), ArgValue::Scalar(Value::Double(d))),
        ("max_iter".to_owned(), ArgValue::Scalar(Value::Int(iters))),
    ])
}

pub fn sssp_args(root: NodeId, weights: &[i64]) -> Args {
    HashMap::from([
        ("root".to_owned(), ArgValue::Scalar(Value::Node(root.0))),
        (
            "len".to_owned(),
            ArgValue::EdgeProp(weights.iter().map(|&w| Value::Int(w)).collect()),
        ),
    ])
}

/// Edge weights in `1..=max`, one draw per edge.
pub fn seeded_weights(g: &Graph, draws: &mut Draws, max: u64) -> Vec<i64> {
    (0..g.num_edges())
        .map(|_| 1 + draws.below(max) as i64)
        .collect()
}

/// Writes the edge-list file a workload's program is pointed at, under a
/// `graph.write` span.
///
/// # Panics
///
/// Panics when the scratch directory cannot be written: nothing can be
/// measured then.
pub fn write_edge_list_file(ctx: &Ctx, graph: &Graph, weights: Option<&[i64]>, path: &Path) {
    ctx.rec.span("graph.write", 0, || {
        let file = std::fs::File::create(path).expect("scratch directory is writable");
        let mut out = std::io::BufWriter::new(file);
        gm_graph::io::write_edge_list(graph, weights, &mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .expect("edge list written");
    });
}

/// Runs `f` and returns its result with the milliseconds it took.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// CSR footprint computed from the counts: two offset arrays of `n + 1`
/// and four per-edge arrays, all `u32`.
pub fn csr_bytes(g: &Graph) -> f64 {
    let (n, m) = (g.num_nodes() as f64, g.num_edges() as f64);
    8.0 * (n + 1.0) + 16.0 * m
}

/// FNV-1a over the values' bits: equal hashes mean bit-identical columns.
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |tag: u8, bits: u64| {
        for b in std::iter::once(tag).chain(bits.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in values {
        match *v {
            Value::Int(x) => eat(0, x as u64),
            Value::Double(x) => eat(1, x.to_bits()),
            Value::Bool(x) => eat(2, u64::from(x)),
            Value::Node(x) => eat(3, u64::from(x)),
            Value::Edge(x) => eat(4, u64::from(x)),
        }
    }
    h
}

/// PageRank columns agree within 1e-9 relative.
pub fn check_pagerank(got: &[Value], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "pagerank: {} values, want {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let Value::Double(g) = *g else {
            return Err(format!("pagerank: vertex {i} is not a double: {g:?}"));
        };
        if (g - w).abs() > 1e-9 * g.abs().max(w.abs()) {
            return Err(format!("pagerank: vertex {i} is {g}, reference {w}"));
        }
    }
    Ok(())
}

/// SSSP distances equal Dijkstra's exactly.
pub fn check_sssp(got: &[Value], want: &[i64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("sssp: {} values, want {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if *g != Value::Int(*w) {
            return Err(format!("sssp: vertex {i} is {g:?}, dijkstra {w}"));
        }
    }
    Ok(())
}

/// Runs `setup` repeatedly (see [`MIN_SETUP_REPS`]), dropping each product
/// before the next is built; returns the last product and the median
/// seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut product = setup_once(&mut setup, &mut secs);
    while secs.len() < MIN_SETUP_REPS
        || (secs.iter().sum::<f64>() < SETUP_BUDGET_S && secs.len() < MAX_SETUP_REPS)
    {
        drop(product);
        product = setup_once(&mut setup, &mut secs);
    }
    (product, stats::median(&secs))
}

fn setup_once<T>(setup: &mut impl FnMut(usize) -> T, secs: &mut Vec<f64>) -> T {
    let started = Instant::now();
    let product = setup(secs.len());
    secs.push(started.elapsed().as_secs_f64());
    product
}

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Filled only by a traced run.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Median, extremes and count behind the timing metrics.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Counts that must repeat exactly between runs of one seed.
    pub exact: BTreeMap<&'static str, u64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics the run reports, in catalogue order: end-to-end for an
    /// untraced run, per-layer for a traced one. A metric the workload did
    /// not fill reports 0.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        if trace {
            PER_LAYER
                .iter()
                // `+ 0.0`: an empty sum is -0, which would print as "-0".
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.per_layer.get(m.name).copied().unwrap_or(0.0) + 0.0,
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|e| {
                    let m = e.metric;
                    (
                        m.name,
                        m.unit,
                        self.end_to_end.get(m.name).copied().unwrap_or(0.0),
                    )
                })
                .collect()
        }
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .into_iter()
            .map(|(name, unit, value)| {
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted),
            metrics.join(", ")
        )
    }
}

/// Runs one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let known = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .map(|(w, _)| *w)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            format!("unknown workload {name:?} (have: {})", names.join(", "))
        })?;
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("cannot create {}: {e}", ctx.scratch.display()))?;
    let outcome = match known {
        "dense_pagerank" => batch::run(batch::DensePagerank::default(), known, ctx),
        "sparse_sssp" => batch::run(batch::SparseSssp, known, ctx),
        "cold_run" => batch::run(batch::ColdRun, known, ctx),
        "inline_interp" => batch::run(batch::InlineInterp::default(), known, ctx),
        "durable_pagerank" => batch::run(batch::DurablePagerank::default(), known, ctx),
        "serve_small" => serve::run_small(known, ctx),
        _ => serve::run_mixed(known, ctx),
    };
    // Scratch holds inputs and journals only; spans live one level up.
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    outcome
}
