//! All seven workloads at about 1/50 of their size, traced: every declared
//! metric is reported once with a finite value, every end-to-end metric is
//! above 0, and no job fails.

use gm_perf::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use gm_perf::sizes::Sizes;
use gm_perf::workloads::{run, Ctx};
use std::collections::HashSet;

#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    gm_perf::env::quiet_injected_faults();
    for (name, _) in WORKLOADS {
        let scratch = gm_perf::env::out_dir().join(format!("smoke-{name}-{}", std::process::id()));
        let ctx = Ctx::new(Sizes::shrunk(50), 11, 0.5, true, scratch);
        let outcome = run(name, &ctx).expect("workload is known");
        assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.reasons);
        assert!(outcome.correct() && outcome.attempted > 0, "{name}");

        for traced in [false, true] {
            let metrics = outcome.metrics(traced);
            let want = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want, "{name}");
            let mut seen = HashSet::new();
            for (metric, _, value) in metrics {
                assert!(seen.insert(metric), "{name}: {metric} twice");
                assert!(value.is_finite(), "{name}: {metric} is {value}");
                assert!(traced || value > 0.0, "{name}: {metric} is {value}");
            }
        }
        // Nothing the catalogue does not declare.
        let declared: HashSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for metric in outcome.per_layer.keys() {
            assert!(declared.contains(metric), "{name}: undeclared {metric}");
        }
        assert!(outcome.per_layer["trace.accounted_pct"] > 50.0, "{name}");
        assert!(!ctx.rec.spans().is_empty(), "{name}: no spans");
    }
}

#[test]
fn the_same_seed_gives_the_same_exact_counts() {
    gm_perf::env::quiet_injected_faults();
    let counts = |tag: &str| {
        let scratch = gm_perf::env::out_dir().join(format!("smoke-{tag}-{}", std::process::id()));
        let ctx = Ctx::new(Sizes::shrunk(50), 5, 0.2, false, scratch);
        run("sparse_sssp", &ctx).expect("workload is known").exact
    };
    let first = counts("a");
    assert!(first["supersteps"] > 10 && first["messages"] > 0);
    assert_eq!(first, counts("b"));
}
