//! Golden-file tests for the compiler front end: for each of the six
//! algorithms, at default and unoptimized options, the Pregel-canonical
//! Green-Marl the §4.1 transformations produce, the Table 3 steps that
//! fired, and every pass's node counts going in and out (durations
//! excluded). A change to any AST pass shows up as a readable diff
//! against `tests/golden/<stem>.frontend.txt`.
//!
//! To regenerate after an intentional front-end change:
//!
//! ```text
//! GM_UPDATE_GOLDEN=1 cargo test -p gm-algorithms --test frontend_golden
//! ```

use gm_algorithms::native;
use gm_core::{compile, CompileOptions};
use std::fmt::Write;
use std::path::PathBuf;

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.frontend.txt"))
}

/// The pinned record of one algorithm under both option sets.
fn render(stem: &str, src: &str) -> String {
    let mut out = String::new();
    for (label, options) in [
        ("default", CompileOptions::default()),
        ("unoptimized", CompileOptions::unoptimized()),
    ] {
        let compiled = compile(src, &options)
            .unwrap_or_else(|d| panic!("{stem} ({label}): {}", d.render(src)));
        let report = &compiled.report;
        let steps: Vec<&str> = report.steps().map(|s| s.label()).collect();
        writeln!(out, "== {label}").unwrap();
        writeln!(out, "-- steps: {}", steps.join(", ")).unwrap();
        writeln!(out, "-- passes").unwrap();
        for t in report.pass_timings() {
            writeln!(out, "{} {} -> {}", t.pass, t.nodes_before, t.nodes_after).unwrap();
        }
        writeln!(out, "-- canonical").unwrap();
        out.push_str(&compiled.canonical_source);
    }
    out
}

#[test]
fn front_end_output_matches_golden_files() {
    let update = std::env::var_os("GM_UPDATE_GOLDEN").is_some();
    let mut mismatches = Vec::new();
    for alg in &native::ALL {
        let got = render(alg.stem, alg.source);
        let path = golden_path(alg.stem);
        if update {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with GM_UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        if got != want {
            mismatches.push(alg.stem);
            if let Some((i, (g, w))) = (1..)
                .zip(got.lines().zip(want.lines()))
                .find(|(_, (g, w))| g != w)
            {
                eprintln!(
                    "{}: first difference at line {i}:\n  generated: {g}\n  golden:    {w}",
                    alg.stem
                );
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "front-end output drifted from golden files for {mismatches:?}; \
         rerun with GM_UPDATE_GOLDEN=1 if the change is intentional"
    );
}
