//! The daemon's inputs: what to load ([`GraphSpec`]) and how to serve
//! ([`DaemonConfig`], [`BrownoutConfig`]). The CLI fills these from
//! flags; embedders build them directly.

use crate::journal::JournalConfig;
use crate::RetryPolicy;
use gm_graph::io::{read_edge_list_file_with, LoadPolicy, LoadedGraph};
use gm_pregel::PostMortemConfig;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// One graph to load at startup: a name plus either an edge-list path or
/// a generator spec (`rmat:<nodes>:<edges>:<seed>` /
/// `uniform:<nodes>:<edges>:<seed>`), as given to `--graph name=<spec>`.
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// Name jobs refer to the snapshot by.
    pub name: String,
    /// Path or generator spec.
    pub source: String,
}

impl GraphSpec {
    /// Parses a `name=<path-or-generator>` argument.
    pub fn parse(arg: &str) -> Result<GraphSpec, String> {
        let (name, source) = arg
            .split_once('=')
            .ok_or_else(|| format!("--graph wants name=<path|rmat:n:m:seed>, got {arg:?}"))?;
        if name.is_empty() || source.is_empty() {
            return Err(format!(
                "--graph wants a non-empty name and source: {arg:?}"
            ));
        }
        Ok(GraphSpec {
            name: name.to_owned(),
            source: source.to_owned(),
        })
    }

    pub(crate) fn load(&self) -> Result<LoadedGraph, String> {
        let gen3 = |spec: &str| -> Result<(u32, usize, u64), String> {
            let parts: Vec<&str> = spec.split(':').collect();
            let [n, m, s] = parts[..] else {
                return Err(format!(
                    "generator spec wants <nodes>:<edges>:<seed>: {spec:?}"
                ));
            };
            Ok((
                n.parse()
                    .map_err(|e| format!("bad node count {n:?}: {e}"))?,
                m.parse()
                    .map_err(|e| format!("bad edge count {m:?}: {e}"))?,
                s.parse().map_err(|e| format!("bad seed {s:?}: {e}"))?,
            ))
        };
        if let Some(spec) = self.source.strip_prefix("rmat:") {
            let (n, m, s) = gen3(spec)?;
            return Ok(synthetic(gm_graph::gen::rmat(n, m, s), s));
        }
        if let Some(spec) = self.source.strip_prefix("uniform:") {
            let (n, m, s) = gen3(spec)?;
            return Ok(synthetic(gm_graph::gen::uniform_random(n, m, s), s));
        }
        read_edge_list_file_with(&self.source, LoadPolicy::Strict)
            .map_err(|e| format!("cannot load graph {}: {e}", self.name))
    }
}

/// Wraps a generated graph with seeded edge weights uniform in `1..=16`,
/// drawn from the graph's own seed.
fn synthetic(graph: gm_graph::Graph, seed: u64) -> LoadedGraph {
    let mut rng = gm_graph::rng::SplitMix64::new(seed);
    let weights = (0..graph.num_edges())
        .map(|_| rng.below(16) as i64 + 1)
        .collect();
    LoadedGraph {
        graph,
        weights,
        stats: Default::default(),
    }
}

/// Daemon-level configuration (the CLI populates this from flags).
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen address (`host:port`, port 0 for ephemeral).
    pub listen: String,
    /// Graphs to load at startup.
    pub graphs: Vec<GraphSpec>,
    /// Runner threads — the maximum number of concurrently executing
    /// jobs.
    pub max_concurrent: usize,
    /// Maximum queued (accepted but not yet running) jobs across all
    /// tenants.
    pub queue_cap: usize,
    /// Default per-job Pregel worker count (a job may override).
    pub default_workers: usize,
    /// Server-level in-flight message-byte budget jobs reserve from.
    pub total_message_bytes: u64,
    /// Server-level resident value-store budget jobs reserve from.
    pub total_resident_bytes: u64,
    /// Deadline applied to jobs that do not set one (`None` = no
    /// deadline).
    pub default_deadline: Option<Duration>,
    /// Post-mortem bundle capture for failed jobs.
    pub post_mortem: Option<PostMortemConfig>,
    /// Identical failures of one (graph, program) signature before new
    /// submissions of it are refused.
    pub quarantine_threshold: u32,
    /// How long [`Daemon::drain`] waits for running jobs before
    /// cancelling them.
    pub drain_timeout: Duration,
    /// Serve programs through the compiled-in `gm-core::rustgen` modules
    /// instead of the PIR interpreter: builtins and inline sources alike.
    /// Selection uses the same rule as `gmc run --backend native`: a
    /// program runs natively only when its freshly emitted Rust is
    /// byte-identical to a checked-in module, so results stay bit-for-bit
    /// pinned to the interpreter.
    pub native_builtins: bool,
    /// Write-ahead job journal (`--journal-dir`). `None` keeps jobs in
    /// memory only.
    pub journal: Option<JournalConfig>,
    /// Terminal job records kept in memory, oldest evicted first
    /// (`0` = unlimited).
    pub job_history_keep: usize,
    /// Daemon-wide retry policy for transiently-failed jobs.
    pub retry: RetryPolicy,
    /// Brownout degradation: shed queued work under sustained
    /// reservation saturation. `None` disables shedding.
    pub brownout: Option<BrownoutConfig>,
    /// Escalation latch: set (by a second SIGINT/SIGTERM) to turn a
    /// graceful drain into an immediate cooperative abort.
    pub abort: Arc<AtomicBool>,
}

/// Brownout degradation knobs: when budget reservations stay saturated
/// past `hold`, queued work is shed lowest-priority-first down to
/// `shed_to`, and further submissions get `503 shedding` until the
/// saturation clears.
#[derive(Clone, Debug)]
pub struct BrownoutConfig {
    /// Fraction of either server-level byte budget at which the daemon
    /// counts as saturated.
    pub saturation: f64,
    /// How long saturation must persist before shedding starts.
    pub hold: Duration,
    /// Queue depth shedding drains down to (and the admission ceiling
    /// while the brownout is active).
    pub shed_to: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            saturation: 0.9,
            hold: Duration::from_secs(2),
            shed_to: 8,
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: "127.0.0.1:0".to_owned(),
            graphs: Vec::new(),
            max_concurrent: 4,
            queue_cap: 64,
            default_workers: 2,
            total_message_bytes: 1 << 30,
            total_resident_bytes: 4u64 << 30,
            default_deadline: None,
            post_mortem: PostMortemConfig::from_env(),
            quarantine_threshold: 2,
            drain_timeout: Duration::from_secs(10),
            native_builtins: true,
            journal: None,
            job_history_keep: 0,
            retry: RetryPolicy::default(),
            brownout: None,
            abort: Arc::new(AtomicBool::new(false)),
        }
    }
}
