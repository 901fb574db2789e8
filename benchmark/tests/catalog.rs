//! The catalogue, `BENCHMARK.json`, and the limits the driver puts on both.

use gm_obs::json::{parse, Json};
use gm_perf::catalog::*;
use gm_perf::compare::{judge, worse_by, Verdict};
use std::collections::HashSet;

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_use_the_allowed_characters_and_are_unique() {
    let mut seen = HashSet::new();
    let names = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().map(|e| e.metric.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(name_ok(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    for m in END_TO_END.iter().map(|e| &e.metric).chain(&PER_LAYER) {
        assert!(unit_ok(m.unit), "bad unit {:?} of {}", m.unit, m.name);
    }
}

#[test]
fn the_catalogue_stays_within_the_drivers_limits() {
    assert!((2..=8).contains(&GATED.len()));
    for name in GATED {
        assert!(WORKLOADS.iter().any(|(w, _)| *w == name), "{name}");
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    for (name, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
    for e in &END_TO_END {
        assert!(
            e.bound > 0.0 && e.bound <= 0.25,
            "bound of {}",
            e.metric.name
        );
    }
    // Set-up time is reported, lower is better, and has the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|e| e.metric.name == "setup_s")
        .unwrap();
    assert_eq!(
        (setup.metric.unit, setup.metric.better),
        ("s", Better::Lower)
    );
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    // All runs the driver makes fit its cap with two builds to spare.
    let runs = 4 + 22 * GATED.len() as u32;
    // One run is `RUN_SECONDS` of measurement plus at most ~6 s of set-up
    // and checks.
    assert!(runs * (RUN_SECONDS + 6) + 2 * 150 <= 3420);
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = gm_perf::env::benchmark_json_path();
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let on_disk = parse(&text).expect("BENCHMARK.json parses");
    // Compared as rendered text: the parser and the writer spell integers
    // with different variants.
    assert!(
        on_disk.to_string() == benchmark_json().to_string(),
        "BENCHMARK.json is stale: regenerate it with `gm-perf spec > BENCHMARK.json`"
    );
    let Json::Obj(keys) = on_disk else {
        panic!("not an object")
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn compare_judges_against_the_bound_and_the_sets_own_spread() {
    let job_ms = END_TO_END
        .iter()
        .find(|e| e.metric.name == "job_ms")
        .unwrap();
    let rate = END_TO_END
        .iter()
        .find(|e| e.metric.name == "jobs_per_s")
        .unwrap();
    assert_eq!(worse_by(Better::Lower, 100.0, 108.0), 0.08);
    assert_eq!(worse_by(Better::Higher, 100.0, 92.0), 0.08);

    let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m];
    let (just_inside, just_outside) = (0.8 * job_ms.bound, 1.2 * job_ms.bound);
    let verdict = |e, a: f64, b: f64| judge(e, &steady(a), &steady(b)).2;
    assert_eq!(
        verdict(job_ms, 100.0, 100.0 * (1.0 + just_inside)),
        Verdict::Within
    );
    assert_eq!(
        verdict(job_ms, 100.0, 100.0 * (1.0 + just_outside)),
        Verdict::Outside
    );
    // Faster is never outside.
    assert_eq!(verdict(job_ms, 100.0, 50.0), Verdict::Within);
    // For a rate, lower is worse.
    assert_eq!(
        verdict(rate, 100.0, 100.0 * (1.0 - 1.2 * rate.bound)),
        Verdict::Outside
    );
    assert_eq!(verdict(rate, 100.0, 130.0), Verdict::Within);
    // A set whose own quartiles are further apart than the bound cannot
    // resolve a difference of that size.
    let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
    assert_eq!(judge(job_ms, &noisy, &steady(100.0)).2, Verdict::Unresolved);
    // A single run has no spread to object to.
    assert_eq!(judge(job_ms, &[100.0], &[105.0]).2, Verdict::Within);
}
