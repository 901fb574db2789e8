//! Fixtures shared by the cross-leg test files: the six algorithms'
//! inputs and snapshot-directory helpers.
#![allow(dead_code)] // each test file uses its own subset

use gm_algorithms::native::{self, NativeAlgorithm};
use gm_algorithms::sources;
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_core::{compile, CompileOptions, Compiled};
use gm_graph::{gen, Graph};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

// ---------------------------------------------------------------------------
// Shared fixtures: the exact inputs of the schedule-axis differential suite.
// ---------------------------------------------------------------------------

pub type Case = (
    &'static str,
    &'static str,
    Graph,
    HashMap<String, ArgValue>,
    u64,
);

pub fn algorithm_cases() -> Vec<Case> {
    let mut cases = Vec::new();

    let ages: Vec<Value> = (0..200).map(|i| Value::Int((i * 37) % 80)).collect();
    cases.push((
        "avg_teen",
        sources::AVG_TEEN,
        gen::rmat(200, 1200, 17),
        HashMap::from([
            ("age".to_owned(), ArgValue::NodeProp(ages)),
            ("K".to_owned(), ArgValue::Scalar(Value::Int(25))),
        ]),
        0,
    ));

    cases.push((
        "pagerank",
        sources::PAGERANK,
        gen::rmat(150, 900, 23),
        HashMap::from([
            ("e".to_owned(), ArgValue::Scalar(Value::Double(1e-8))),
            ("d".to_owned(), ArgValue::Scalar(Value::Double(0.85))),
            ("max_iter".to_owned(), ArgValue::Scalar(Value::Int(30))),
        ]),
        0,
    ));

    let member: Vec<Value> = (0..120).map(|i| Value::Bool(i % 3 == 0)).collect();
    cases.push((
        "conductance",
        sources::CONDUCTANCE,
        gen::rmat(120, 700, 31),
        HashMap::from([("member".to_owned(), ArgValue::NodeProp(member))]),
        0,
    ));

    let weights: Vec<Value> = (0..1000).map(|i| Value::Int(1 + (i * 7) % 20)).collect();
    cases.push((
        "sssp",
        sources::SSSP,
        gen::rmat(180, 1000, 41),
        HashMap::from([
            ("root".to_owned(), ArgValue::Scalar(Value::Node(3))),
            ("len".to_owned(), ArgValue::EdgeProp(weights)),
        ]),
        0,
    ));

    let is_boy: Vec<Value> = (0..130).map(|i| Value::Bool(i < 60)).collect();
    cases.push((
        "bipartite",
        sources::BIPARTITE_MATCHING,
        gen::bipartite(60, 70, 350, 13),
        HashMap::from([("is_boy".to_owned(), ArgValue::NodeProp(is_boy))]),
        0,
    ));

    cases.push((
        "bc_approx",
        sources::BC_APPROX,
        gen::rmat(100, 500, 29),
        HashMap::from([("K".to_owned(), ArgValue::Scalar(Value::Int(6)))]),
        77,
    ));

    cases
}

pub fn native_for(src: &str) -> &'static NativeAlgorithm {
    native::ALL
        .iter()
        .find(|a| a.source == src)
        .expect("every shipped source has a compiled-in native module")
}

pub fn compiled_for(name: &str, src: &str) -> Compiled {
    compile(src, &CompileOptions::default()).expect(name)
}

/// A fresh, empty scratch directory under the temp dir.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gm-native-diff-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The snapshot files in `dir`, by name.
pub fn snapshots(dir: &Path) -> Vec<(String, PathBuf)> {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .expect("snapshot dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "gmck"))
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), p))
        .collect();
    files.sort();
    files
}
