//! Golden-file tests for the GPS Java backend: the exact generated source
//! and its counted LoC (the paper's Table 2 comparison axis) are pinned
//! for the five Table 2 algorithms and Betweenness Centrality. Any codegen change shows up as a
//! readable diff against `tests/golden/*.java` instead of a silent drift
//! in the LoC numbers.
//!
//! To regenerate after an intentional backend change:
//!
//! ```text
//! GM_UPDATE_GOLDEN=1 cargo test -p gm-algorithms --test javagen_golden
//! ```

use gm_algorithms::sources;
use gm_core::javagen::{count_loc, emit_java};
use gm_core::{compile, CompileOptions};
use std::path::PathBuf;

const ALGORITHMS: [(&str, &str); 6] = [
    ("avg_teen", sources::AVG_TEEN),
    ("pagerank", sources::PAGERANK),
    ("conductance", sources::CONDUCTANCE),
    ("sssp", sources::SSSP),
    ("bipartite_matching", sources::BIPARTITE_MATCHING),
    ("bc_approx", sources::BC_APPROX),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.java"))
}

fn generate(src: &str) -> String {
    let compiled = compile(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("compile failed:\n{}", e.render(src)));
    emit_java(&compiled.program).expect("verified PIR lowers")
}

#[test]
fn generated_java_matches_golden_files() {
    let update = std::env::var_os("GM_UPDATE_GOLDEN").is_some();
    let mut mismatches = Vec::new();
    for (name, src) in ALGORITHMS {
        let java = generate(src);
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &java).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with GM_UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        if java != expected {
            mismatches.push(name);
            // A targeted first-difference report beats a full dump.
            for (i, (got, want)) in java.lines().zip(expected.lines()).enumerate() {
                if got != want {
                    eprintln!(
                        "{name}: first difference at line {}:\n  generated: {got}\n  golden:    {want}",
                        i + 1
                    );
                    break;
                }
            }
            if java.lines().count() != expected.lines().count() {
                eprintln!(
                    "{name}: line count {} vs golden {}",
                    java.lines().count(),
                    expected.lines().count()
                );
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated Java drifted from golden files for {mismatches:?}; \
         rerun with GM_UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// Pins Table 2's generated-LoC column (EXPERIMENTS.md) as literals, so a
/// printer change that grows or shrinks a generated program fails here
/// even when its golden file is regenerated with it.
#[test]
fn generated_loc_matches_table1_pins() {
    let expected: [(&str, usize); 6] = [
        ("avg_teen", 93),
        ("pagerank", 122),
        ("conductance", 164),
        ("sssp", 118),
        ("bipartite_matching", 196),
        ("bc_approx", 307),
    ];
    for ((name, src), (gname, want)) in ALGORITHMS.iter().zip(expected) {
        assert_eq!(name, &gname);
        let got = count_loc(&generate(src));
        assert_eq!(got, want, "{name}: generated LoC {got} != Table 2's {want}");
    }
}
