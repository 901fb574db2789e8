//! Post-mortem bundles: self-contained crash-forensics directories.
//!
//! When a run configured with [`PostMortemConfig`] ends in a
//! [`PregelError`], the runtime dumps everything needed to explain the
//! failure *without re-running it* into a fresh bundle directory:
//!
//! * `MANIFEST.json` — schema version, creation time, the error's message
//!   and attribution (superstep / worker / vertex), the file list, and
//!   flight-recorder occupancy;
//! * `error.json` — the error in structured form;
//! * `config.json` — the effective [`PregelConfig`] (workers, schedule,
//!   budget, checkpointing) plus graph shape;
//! * `metrics.json` — the [`Metrics`] accumulated up to the failure,
//!   including the per-superstep breakdown;
//! * `trace.jsonl` — the last-N trace events retained by the
//!   [`FlightRecorder`] (present whenever post-mortems are enabled: the
//!   runtime tees a recorder behind any user tracer, or creates one when
//!   tracing is off);
//! * `prometheus.txt` — the metrics-registry exposition, when a registry
//!   is attached to the config.
//!
//! The returned error is wrapped in [`PregelError::PostMortem`], so the
//! bundle path travels with the failure to whoever logs it.
//!
//! [`PregelError::PostMortem`]: crate::PregelError::PostMortem

use crate::config::{PregelConfig, Schedule};
use crate::error::{failure_site, PregelError};
use crate::metrics::Metrics;
use gm_graph::Graph;
use gm_obs::json::Json;
use gm_obs::recorder::{FlightRecorder, DEFAULT_CAPACITY};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Environment variable enabling post-mortem bundles: the directory they
/// are written under.
pub const ENV_POST_MORTEM_DIR: &str = "GM_POST_MORTEM_DIR";
/// Environment variable overriding the flight-recorder ring capacity
/// (number of retained trace events, default 512).
pub const ENV_FLIGHT_RECORDER_EVENTS: &str = "GM_FLIGHT_RECORDER_EVENTS";
/// Environment variable capping the number of retained `bundle-*`
/// directories per bundle dir (oldest-first GC); `0` or unset keeps all.
pub const ENV_POST_MORTEM_KEEP: &str = "GM_POST_MORTEM_KEEP";

/// Configuration for crash forensics: where bundles go and how many trace
/// events the flight recorder retains.
#[derive(Clone, Debug)]
pub struct PostMortemConfig {
    /// Directory bundles are created under (one fresh subdirectory per
    /// failure). Created on demand.
    pub dir: PathBuf,
    /// Flight-recorder ring capacity in events.
    pub capacity: usize,
    /// Maximum `bundle-*` directories retained under `dir` (oldest
    /// removed first after each new bundle); `0` means unlimited. A
    /// long-lived daemon stuck in a crash loop would otherwise fill
    /// the disk one bundle per failure.
    pub keep: usize,
}

impl PostMortemConfig {
    /// Bundles under `dir` with the default ring capacity.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PostMortemConfig {
            dir: dir.into(),
            capacity: DEFAULT_CAPACITY,
            keep: 0,
        }
    }

    /// Overrides the flight-recorder capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Caps the number of retained bundle directories (`0` = unlimited).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Reads `GM_POST_MORTEM_DIR` (and `GM_FLIGHT_RECORDER_EVENTS`);
    /// `None` when unset — the default is no post-mortem capture.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var_os(ENV_POST_MORTEM_DIR)?;
        if dir.is_empty() {
            return None;
        }
        let mut pm = PostMortemConfig::new(PathBuf::from(dir));
        if let Some(cap) = std::env::var(ENV_FLIGHT_RECORDER_EVENTS)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            pm = pm.with_capacity(cap);
        }
        if let Some(keep) = std::env::var(ENV_POST_MORTEM_KEEP)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            pm = pm.with_keep(keep);
        }
        Some(pm)
    }
}

fn schedule_str(s: Schedule) -> &'static str {
    match s {
        Schedule::Push => "push",
        Schedule::Pull => "pull",
        Schedule::Auto => "auto",
    }
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map(Json::UInt).unwrap_or(Json::Null)
}

fn error_json(error: &PregelError) -> Json {
    let (superstep, worker, vertex) = failure_site(error);
    Json::obj([
        ("message".to_owned(), Json::Str(error.to_string())),
        ("kind".to_owned(), Json::Str(error.kind().to_owned())),
        ("superstep".to_owned(), Json::UInt(superstep as u64)),
        (
            "worker".to_owned(),
            worker.map(|w| Json::UInt(w as u64)).unwrap_or(Json::Null),
        ),
        (
            "vertex".to_owned(),
            vertex.map(|v| Json::UInt(v as u64)).unwrap_or(Json::Null),
        ),
        ("recoverable".to_owned(), Json::Bool(error.is_recoverable())),
    ])
}

fn config_json(config: &PregelConfig, graph: &Graph) -> Json {
    let budget = Json::obj([
        (
            "max_message_bytes".to_owned(),
            opt_u64(config.budget.max_message_bytes),
        ),
        (
            "superstep_deadline_ms".to_owned(),
            opt_u64(
                config
                    .budget
                    .superstep_deadline
                    .map(|d| d.as_millis() as u64),
            ),
        ),
        (
            "max_resident_bytes".to_owned(),
            opt_u64(config.budget.max_resident_bytes),
        ),
        (
            "spill_dir".to_owned(),
            config
                .budget
                .spill_dir
                .as_ref()
                .map(|p| Json::Str(p.display().to_string()))
                .unwrap_or(Json::Null),
        ),
    ]);
    let checkpoint = match &config.checkpoint {
        None => Json::Null,
        Some(c) => Json::obj([
            ("every".to_owned(), Json::UInt(c.every as u64)),
            ("dir".to_owned(), Json::Str(c.dir.display().to_string())),
            ("resume".to_owned(), Json::Bool(c.resume)),
            ("keep".to_owned(), Json::UInt(c.keep as u64)),
        ]),
    };
    Json::obj([
        (
            "num_workers".to_owned(),
            Json::UInt(config.num_workers as u64),
        ),
        (
            "max_supersteps".to_owned(),
            Json::UInt(config.max_supersteps as u64),
        ),
        (
            "schedule".to_owned(),
            Json::Str(schedule_str(config.schedule).to_owned()),
        ),
        (
            "dense_threshold".to_owned(),
            Json::Num(config.dense_threshold),
        ),
        ("budget".to_owned(), budget),
        ("checkpoint".to_owned(), checkpoint),
        (
            "graph".to_owned(),
            Json::obj([
                ("nodes".to_owned(), Json::UInt(graph.num_nodes() as u64)),
                ("edges".to_owned(), Json::UInt(graph.num_edges().into())),
            ]),
        ),
    ])
}

/// Writes one post-mortem bundle and returns its directory.
///
/// Best-effort by design: the caller reports the original `PregelError`
/// either way, so any I/O failure here is returned for the caller to
/// swallow (a broken disk must not mask the real failure).
pub(crate) fn write_bundle(
    pm: &PostMortemConfig,
    error: &PregelError,
    config: &PregelConfig,
    graph: &Graph,
    metrics: &Metrics,
    recorder: Option<&FlightRecorder>,
) -> io::Result<PathBuf> {
    // Unique, sortable bundle names: wall-clock millis plus a process-wide
    // sequence number (two failures in the same millisecond stay distinct).
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let bundle = pm.dir.join(format!("bundle-{millis}-{seq}"));
    std::fs::create_dir_all(&bundle)?;

    let mut files = vec!["MANIFEST.json", "error.json", "config.json", "metrics.json"];

    write_json(&bundle.join("error.json"), &error_json(error))?;
    write_json(&bundle.join("config.json"), &config_json(config, graph))?;
    std::fs::write(bundle.join("metrics.json"), metrics.to_json())?;

    let (retained, dropped) = match recorder {
        Some(rec) => {
            let events = rec.events();
            let mut out = String::new();
            for event in &events {
                out.push_str(&event.to_jsonl().to_string());
                out.push('\n');
            }
            std::fs::write(bundle.join("trace.jsonl"), out)?;
            files.push("trace.jsonl");
            (events.len() as u64, rec.dropped())
        }
        None => (0, 0),
    };

    if let Some(registry) = &config.registry {
        registry.write_prometheus(bundle.join("prometheus.txt"))?;
        files.push("prometheus.txt");
    }

    let (superstep, worker, _) = failure_site(error);
    let manifest = Json::obj([
        ("schema".to_owned(), Json::UInt(1)),
        ("created_unix_ms".to_owned(), Json::UInt(millis)),
        ("error".to_owned(), Json::Str(error.to_string())),
        ("kind".to_owned(), Json::Str(error.kind().to_owned())),
        ("superstep".to_owned(), Json::UInt(superstep as u64)),
        (
            "worker".to_owned(),
            worker.map(|w| Json::UInt(w as u64)).unwrap_or(Json::Null),
        ),
        (
            "files".to_owned(),
            Json::Arr(files.iter().map(|f| Json::Str((*f).to_owned())).collect()),
        ),
        (
            "trace_events".to_owned(),
            Json::obj([
                ("retained".to_owned(), Json::UInt(retained)),
                ("dropped".to_owned(), Json::UInt(dropped)),
            ]),
        ),
    ]);
    write_json(&bundle.join("MANIFEST.json"), &manifest)?;
    if pm.keep > 0 {
        // Best-effort retention: a GC hiccup must not mask the failure
        // the bundle documents.
        let _ = gc_bundles(&pm.dir, pm.keep);
    }
    Ok(bundle)
}

/// Removes the oldest `bundle-*` directories under `dir` until at most
/// `keep` remain. Age order is the numeric (millis, seq) encoded in the
/// bundle name, so retention is stable even when directory mtimes are
/// coarse.
fn gc_bundles(dir: &Path, keep: usize) -> io::Result<()> {
    let mut bundles: Vec<(u64, u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("bundle-")) else {
            continue;
        };
        let Some((millis, seq)) = rest.split_once('-') else {
            continue;
        };
        let (Ok(millis), Ok(seq)) = (millis.parse::<u64>(), seq.parse::<u64>()) else {
            continue;
        };
        bundles.push((millis, seq, entry.path()));
    }
    if bundles.len() <= keep {
        return Ok(());
    }
    bundles.sort();
    let excess = bundles.len() - keep;
    for (_, _, path) in bundles.into_iter().take(excess) {
        std::fs::remove_dir_all(path)?;
    }
    Ok(())
}

fn write_json(path: &Path, value: &Json) -> io::Result<()> {
    let mut text = value.to_string();
    text.push('\n');
    std::fs::write(path, text)
}
