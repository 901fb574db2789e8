//! Crash-forensics integration tests: a fault-injected run configured
//! with [`PostMortemConfig`] must leave behind a self-contained bundle
//! directory — manifest, structured error, effective config, metrics
//! snapshot, and the flight recorder's last trace events — and the
//! returned error must carry the bundle path.

use gm_obs::json::{parse, Json};
use gm_obs::metrics::MetricsRegistry;
use gm_pregel::{
    run, CheckpointConfig, FaultPlan, Inbox, MasterContext, MasterDecision, PostMortemConfig,
    PregelConfig, PregelError, RecoveryPolicy, ResourceBudget, VertexContext, VertexProgram,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gm-postmortem-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic flooding program, identical in shape to the governance
/// tests' workload.
struct Rounds {
    rounds: u32,
}

impl VertexProgram for Rounds {
    type VertexValue = u64;
    type Message = u64;

    fn message_bytes(&self, _m: &u64) -> u64 {
        8
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        if ctx.superstep() == self.rounds {
            MasterDecision::Halt
        } else {
            MasterDecision::Continue
        }
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, u64>,
        value: &mut u64,
        messages: Inbox<'_, u64>,
    ) {
        *value += messages.iter().sum::<u64>();
        ctx.send_to_nbrs(*value + u64::from(ctx.id().0) + 1);
    }
}

fn read_json(bundle: &Path, file: &str) -> Json {
    let text = std::fs::read_to_string(bundle.join(file))
        .unwrap_or_else(|e| panic!("bundle is missing {file}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{file} is not valid JSON: {e:?}"))
}

#[test]
fn worker_panic_produces_a_complete_bundle() {
    let g = gm_graph::gen::cycle(16);
    let dir = fresh_dir("panic");
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = PregelConfig::with_workers(2)
        .with_faults(FaultPlan::builder().panic_in_compute(2, Some(1)).build())
        .with_post_mortem(PostMortemConfig::new(&dir))
        .with_registry(registry);
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();

    // The error carries the bundle path and still classifies as the
    // underlying panic.
    let bundle = err
        .post_mortem_bundle()
        .expect("error must reference its bundle")
        .to_path_buf();
    assert!(bundle.starts_with(&dir));
    assert!(bundle.is_dir(), "{bundle:?} must exist");
    assert!(err.is_recoverable(), "panics stay recoverable when wrapped");
    assert!(
        err.to_string().contains("post-mortem bundle"),
        "rendered error must point at the bundle: {err}"
    );
    match *err.root() {
        PregelError::WorkerPanicked {
            superstep, worker, ..
        } => {
            assert_eq!(superstep, 2);
            assert_eq!(worker, Some(1));
        }
        ref other => panic!("expected a worker panic inside the wrapper, got {other}"),
    }

    // MANIFEST.json names the failing superstep and worker, and every file
    // it lists is present.
    let manifest = read_json(&bundle, "MANIFEST.json");
    assert_eq!(manifest.get("schema").unwrap().as_u64(), Some(1));
    assert_eq!(
        manifest.get("kind").unwrap().as_str(),
        Some("worker_panicked")
    );
    assert_eq!(manifest.get("superstep").unwrap().as_u64(), Some(2));
    assert_eq!(manifest.get("worker").unwrap().as_u64(), Some(1));
    let files = manifest.get("files").unwrap().as_arr().unwrap();
    let names: Vec<&str> = files.iter().filter_map(Json::as_str).collect();
    for required in [
        "MANIFEST.json",
        "error.json",
        "config.json",
        "metrics.json",
        "trace.jsonl",
        "prometheus.txt",
    ] {
        assert!(names.contains(&required), "manifest lacks {required}");
    }
    for name in &names {
        assert!(bundle.join(name).is_file(), "listed file {name} is absent");
    }

    // error.json repeats the attribution in structured form.
    let error = read_json(&bundle, "error.json");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("worker_panicked"));
    assert_eq!(error.get("superstep").unwrap().as_u64(), Some(2));
    assert_eq!(error.get("worker").unwrap().as_u64(), Some(1));

    // config.json records the effective run configuration and graph shape.
    let config = read_json(&bundle, "config.json");
    assert_eq!(config.get("num_workers").unwrap().as_u64(), Some(2));
    assert_eq!(
        config.get("graph").unwrap().get("nodes").unwrap().as_u64(),
        Some(16)
    );

    // metrics.json holds the supersteps up to the failure: the `supersteps`
    // counter includes the started-but-failed superstep 2, while the
    // per-superstep breakdown only has the two that completed.
    let metrics = read_json(&bundle, "metrics.json");
    assert_eq!(metrics.get("supersteps").unwrap().as_u64(), Some(3));
    assert_eq!(
        metrics
            .get("per_superstep")
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        2
    );

    // trace.jsonl: the flight recorder retained events even though no
    // user tracer was configured, and every line is standalone JSON.
    let trace = std::fs::read_to_string(bundle.join("trace.jsonl")).unwrap();
    assert!(!trace.trim().is_empty(), "flight recorder captured nothing");
    for line in trace.lines() {
        parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e:?}"));
    }
    let retained = manifest
        .get("trace_events")
        .unwrap()
        .get("retained")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(retained, trace.lines().count() as u64);

    // prometheus.txt: the registry snapshot includes the per-phase
    // histograms fed by the completed supersteps.
    let prom = std::fs::read_to_string(bundle.join("prometheus.txt")).unwrap();
    assert!(prom.contains("gm_phase_seconds_bucket"), "{prom}");
    assert!(prom.contains("gm_failures_total{kind=\"worker_panicked\"} 1"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_overrun_is_bundled_too() {
    let g = gm_graph::gen::cycle(12);
    let dir = fresh_dir("deadline");
    let cfg = PregelConfig::with_workers(1)
        .with_budget(ResourceBudget::unbounded().with_superstep_deadline(Duration::from_millis(40)))
        .with_faults(FaultPlan::builder().hang_in_compute(3, None).build())
        .with_post_mortem(PostMortemConfig::new(&dir).with_capacity(64));
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
    let bundle = err.post_mortem_bundle().expect("bundle path").to_path_buf();
    let manifest = read_json(&bundle, "MANIFEST.json");
    assert_eq!(
        manifest.get("kind").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    assert_eq!(manifest.get("superstep").unwrap().as_u64(), Some(3));
    // No registry attached: the manifest must not promise prometheus.txt.
    let files = manifest.get("files").unwrap().as_arr().unwrap();
    assert!(!files.iter().any(|f| f.as_str() == Some("prometheus.txt")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_restarts_return_the_newest_bundle() {
    let g = gm_graph::gen::cycle(12);
    let dir = fresh_dir("exhausted");
    let ckpt_dir = fresh_dir("exhausted-ckpt");
    let cfg = PregelConfig::with_workers(2)
        .with_budget(ResourceBudget::unbounded().with_superstep_deadline(Duration::from_millis(30)))
        .with_checkpoints(CheckpointConfig::new(&ckpt_dir, 2))
        .with_faults(
            FaultPlan::builder()
                .hang_in_compute(4, Some(0))
                .times(u32::MAX)
                .build(),
        )
        .with_recovery(RecoveryPolicy::with_max_restarts(2))
        .with_post_mortem(PostMortemConfig::new(&dir));
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();

    // The last attempt's own error escapes, wrapped in its own bundle.
    let bundle = err
        .post_mortem_bundle()
        .expect("the last attempt keeps its bundle")
        .to_path_buf();
    assert!(
        matches!(
            err.root(),
            PregelError::DeadlineExceeded { superstep: 4, .. }
        ),
        "expected the deadline error, got {err}"
    );
    assert!(bundle.is_dir());
    // One bundle per attempt (initial + 2 restarts); the error names the
    // newest, the one with the highest process-wide sequence number.
    let seq = |name: &str| name.rsplit('-').next().and_then(|s| s.parse::<u64>().ok());
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), 3, "one bundle per attempt: {names:?}");
    let newest = names.iter().max_by_key(|n| seq(n)).unwrap();
    assert_eq!(bundle.file_name().unwrap().to_str(), Some(newest.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn bundle_retention_keeps_only_the_newest_bundles() {
    let g = gm_graph::gen::cycle(12);
    let dir = fresh_dir("retention");
    let cfg = PregelConfig::with_workers(2)
        .with_faults(
            FaultPlan::builder()
                .panic_in_compute(2, Some(1))
                .times(u32::MAX)
                .build(),
        )
        .with_post_mortem(PostMortemConfig::new(&dir).with_keep(2));

    // Three independent failing runs write three bundles; the GC after
    // each write keeps the count at the cap.
    let mut last_bundle = PathBuf::new();
    for _ in 0..3 {
        let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
        last_bundle = err.post_mortem_bundle().unwrap().to_path_buf();
    }

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "keep=2 caps the directory: {names:?}");
    // The newest bundle (the one the last error points at) survives.
    assert!(last_bundle.is_dir(), "newest bundle was GC'd: {names:?}");

    // Stray non-bundle entries are never touched by the GC.
    let stray = dir.join("notes.txt");
    std::fs::write(&stray, "operator notes").unwrap();
    let err = run(&g, &mut Rounds { rounds: 8 }, |_| 0, &cfg).unwrap_err();
    assert!(err.post_mortem_bundle().unwrap().is_dir());
    assert!(stray.is_file(), "GC must ignore non-bundle entries");
    assert_eq!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_type().unwrap().is_dir())
            .count(),
        2
    );
    let _ = std::fs::remove_dir_all(&dir);
}
