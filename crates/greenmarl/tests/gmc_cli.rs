//! Integration tests for the `gmc` CLI binary: drive the real executable
//! end-to-end over a temp workspace.

use std::path::PathBuf;
use std::process::Command;

fn gmc() -> Command {
    // Cargo exposes the binary path to integration tests of the same crate.
    Command::new(env!("CARGO_BIN_EXE_gmc"))
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gmc-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const SSSP: &str = r"
Procedure sssp(G: Graph, root: Node, len: E_P<Int>, dist: N_P<Int>) {
    Node_Prop<Int> dist_nxt;
    Node_Prop<Bool> updated;
    G.dist = (G == root) ? 0 : INF;
    G.updated = (G == root) ? True : False;
    G.dist_nxt = G.dist;
    Bool fin = False;
    While (!fin) {
        Foreach (n: G.Nodes)(n.updated) {
            Foreach (s: n.Nbrs) {
                Edge e = s.ToEdge();
                s.dist_nxt min= n.dist + e.len;
            }
        }
        Foreach (n: G.Nodes) {
            n.updated = n.dist_nxt < n.dist;
            n.dist = n.dist_nxt;
        }
        fin = !Exist(n: G.Nodes)(n.updated);
    }
}
";

#[test]
fn compile_emits_states_java_and_canonical() {
    let dir = temp_dir();
    let gm = dir.join("sssp.gm");
    std::fs::write(&gm, SSSP).unwrap();

    let out = gmc()
        .args(["compile", gm.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pregel program `sssp`"), "{text}");
    assert!(text.contains("transformations:"), "{text}");

    let out = gmc()
        .args(["compile", gm.to_str().unwrap(), "--emit", "java"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("class GMVertex"), "{text}");

    let out = gmc()
        .args(["compile", gm.to_str().unwrap(), "--emit", "canonical"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Foreach"), "{text}");
}

#[test]
fn run_executes_and_prints_property() {
    let dir = temp_dir();
    let gm = dir.join("sssp2.gm");
    std::fs::write(&gm, SSSP).unwrap();
    let edges = dir.join("edges.txt");
    std::fs::write(&edges, "0 1 2\n1 2 3\n2 3 4\n0 3 10\n").unwrap();

    let out = gmc()
        .args([
            "run",
            gm.to_str().unwrap(),
            "--graph",
            edges.to_str().unwrap(),
            "--arg",
            "root=n:0",
            "--print",
            "dist",
            "--workers",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("supersteps:"), "{text}");
    // The direction line prints whatever the schedule.
    assert!(text.contains("pull supersteps:"), "{text}");
    // dist: 0, 2, 5, 9 via the weighted path.
    assert!(text.contains("0\t0"), "{text}");
    assert!(text.contains("1\t2"), "{text}");
    assert!(text.contains("2\t5"), "{text}");
    assert!(text.contains("3\t9"), "{text}");
}

#[test]
fn run_spills_under_a_tiny_message_budget_with_identical_results() {
    let dir = temp_dir();
    let gm = dir.join("sssp_spill.gm");
    std::fs::write(&gm, SSSP).unwrap();
    let edges = dir.join("edges_spill.txt");
    std::fs::write(&edges, "0 1 2\n1 2 3\n2 3 4\n0 3 10\n").unwrap();
    let spill_dir = dir.join("spill");

    let out = gmc()
        .args([
            "run",
            gm.to_str().unwrap(),
            "--graph",
            edges.to_str().unwrap(),
            "--arg",
            "root=n:0",
            "--print",
            "dist",
            "--workers",
            "2",
            "--max-message-bytes",
            "1",
            "--spill-dir",
            spill_dir.to_str().unwrap(),
            "--superstep-deadline",
            "60000",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Results are bit-identical to the unbudgeted run...
    assert!(text.contains("0\t0"), "{text}");
    assert!(text.contains("1\t2"), "{text}");
    assert!(text.contains("2\t5"), "{text}");
    assert!(text.contains("3\t9"), "{text}");
    // ...and the spill line reports the disk round-trip.
    assert!(text.contains("spills:"), "{text}");
}

#[test]
fn run_skip_edge_policy_tolerates_dirty_graphs() {
    let dir = temp_dir();
    let gm = dir.join("sssp_dirty.gm");
    std::fs::write(&gm, SSSP).unwrap();
    let edges = dir.join("edges_dirty.txt");
    std::fs::write(&edges, "0 1 2\nnot an edge\n1 2 3\n2 3 4\n0 3 10\n").unwrap();

    // Strict (the default) refuses the file, naming the line.
    let out = gmc()
        .args([
            "run",
            gm.to_str().unwrap(),
            "--graph",
            edges.to_str().unwrap(),
            "--arg",
            "root=n:0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");

    // Skip policy loads the clean edges and reports the damage.
    let out = gmc()
        .args([
            "run",
            gm.to_str().unwrap(),
            "--graph",
            edges.to_str().unwrap(),
            "--arg",
            "root=n:0",
            "--edge-policy",
            "skip",
            "--print",
            "dist",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("skipped 1 malformed line"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3\t9"), "{text}");
}

#[test]
fn run_with_metrics_file_writes_exposition_and_prints_percentiles() {
    let dir = temp_dir();
    let gm = dir.join("sssp_metrics.gm");
    std::fs::write(&gm, SSSP).unwrap();
    let edges = dir.join("edges_metrics.txt");
    std::fs::write(&edges, "0 1 2\n1 2 3\n2 3 4\n0 3 10\n").unwrap();
    let prom = dir.join("metrics.prom");

    let out = gmc()
        .args([
            "run",
            gm.to_str().unwrap(),
            "--graph",
            edges.to_str().unwrap(),
            "--arg",
            "root=n:0",
            "--workers",
            "2",
            "--metrics-file",
            prom.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-phase latency"), "{text}");
    assert!(text.contains("compute"), "{text}");
    assert!(text.contains("metrics exposition written to"), "{text}");

    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        prom_text.contains("# TYPE gm_phase_seconds histogram"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("gm_phase_seconds_bucket{phase=\"compute\",le="),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("gm_supersteps_total{direction=\"push\"}"),
        "{prom_text}"
    );
    assert!(prom_text.contains("gm_messages_total"), "{prom_text}");
}

#[test]
fn run_failure_names_the_post_mortem_bundle() {
    let dir = temp_dir();
    let gm = dir.join("sssp_bundle.gm");
    std::fs::write(&gm, SSSP).unwrap();
    let edges = dir.join("edges_bundle.txt");
    // A 100k-vertex chain: one superstep touches every vertex, which takes
    // far longer than the 1ms deadline below on any machine.
    let mut chain = String::new();
    for i in 0..100_000u32 {
        chain.push_str(&format!("{i} {} 1\n", i + 1));
    }
    std::fs::write(&edges, chain).unwrap();
    let bundles = dir.join("bundles");

    // The overrun deadline fails an early superstep, so the flight
    // recorder must dump a bundle and the error must point at it.
    let out = gmc()
        .args([
            "run",
            gm.to_str().unwrap(),
            "--graph",
            edges.to_str().unwrap(),
            "--arg",
            "root=n:0",
            "--superstep-deadline",
            "1",
            "--post-mortem-dir",
            bundles.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadline"), "{err}");
    assert!(err.contains("post-mortem bundle:"), "{err}");
    // The named directory exists and holds the manifest.
    let named: PathBuf = err
        .split("post-mortem bundle: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .map(PathBuf::from)
        .expect("bundle path in error");
    assert!(named.starts_with(&bundles), "{named:?}");
    assert!(named.join("MANIFEST.json").is_file(), "{named:?}");
}

#[test]
fn verify_prints_summary_on_valid_program() {
    let dir = temp_dir();
    let gm = dir.join("sssp_verify.gm");
    std::fs::write(&gm, SSSP).unwrap();

    let out = gmc()
        .args(["verify", gm.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pregel program `sssp`"), "{text}");
    assert!(text.contains("verified:"), "{text}");
    assert!(text.contains("message types"), "{text}");

    // The unoptimized state machine verifies too (more states, same summary
    // shape).
    let out = gmc()
        .args(["verify", gm.to_str().unwrap(), "--no-opt"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified:"), "{text}");
}

#[test]
fn verify_rejects_malformed_program_nonzero() {
    let dir = temp_dir();
    let gm = dir.join("broken_verify.gm");
    // Semantic error: `y` is never declared.
    std::fs::write(
        &gm,
        "Procedure broken(G: Graph, x: N_P<Int>) {\n    G.x = y + 1;\n}\n",
    )
    .unwrap();
    let out = gmc()
        .args(["verify", gm.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("compilation failed"), "{err}");

    // Missing file and unknown flag both fail cleanly.
    let out = gmc().args(["verify"]).output().unwrap();
    assert!(!out.status.success());
    let out = gmc()
        .args(["verify", gm.to_str().unwrap(), "--wat"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn compile_lowers_an_aggregate_filter_and_names_a_nested_in_bfs() {
    let dir = temp_dir();
    let compile = |name: &str, src: &str| {
        let gm = dir.join(format!("{name}.gm"));
        std::fs::write(&gm, src).unwrap();
        gmc()
            .args(["compile", gm.to_str().unwrap()])
            .output()
            .unwrap()
    };

    let out = compile(
        "agg_filter",
        "Procedure agg_filter(G: Graph, x: N_P<Int>) {
            Foreach (n: G.Nodes)(Sum(t: n.Nbrs){t.x} > 0) { n.x = 1; }
        }",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pregel program `agg_filter`"), "{text}");

    let out = compile(
        "nested_bfs",
        "Procedure nested_bfs(G: Graph, s: Node, p: N_P<Int>) {
            InBFS (v: G.Nodes From s) {
                Int c = 0;
                Foreach (t: v.Nbrs) { c += 1; }
                InBFS (u: G.Nodes From v) { c += 1; u.p = 1; }
                v.p = c;
            }
        }",
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("InBFS inside a vertex-parallel phase"),
        "{err}"
    );
    assert!(!err.contains("undeclared"), "{err}");
}

#[test]
fn compile_refuses_the_no_verify_flag() {
    // Every compile is verified; there is no switch to skip it.
    let dir = temp_dir();
    let gm = dir.join("sssp_noverify.gm");
    std::fs::write(&gm, SSSP).unwrap();
    let out = gmc()
        .args(["compile", gm.to_str().unwrap(), "--no-verify"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --no-verify"), "{err}");
}

#[test]
fn bad_inputs_fail_with_diagnostics() {
    let dir = temp_dir();
    let gm = dir.join("bad.gm");
    std::fs::write(&gm, "Procedure broken(").unwrap();
    let out = gmc()
        .args(["compile", gm.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("compilation failed"), "{err}");

    // Missing --graph.
    let out = gmc().args(["run", gm.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());

    // Unknown flag.
    let out = gmc()
        .args(["compile", gm.to_str().unwrap(), "--wat"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn nesting_past_the_cap_is_a_diagnostic_not_an_abort() {
    use gm_core::parser::MAX_NESTING;
    let dir = temp_dir();
    let compile = |name: &str, body: String| {
        let src = format!("Procedure deep(G: Graph) : Int {{ Int x = 0; {body} Return x; }}");
        let gm = dir.join(format!("{name}.gm"));
        std::fs::write(&gm, src).unwrap();
        gmc()
            .args(["compile", gm.to_str().unwrap(), "--emit", "java"])
            .output()
            .unwrap()
    };
    let blocks = |n: usize| format!("{}x = 1;{}", "{ ".repeat(n), " }".repeat(n));
    // `Int x` and `x = 1` are two more levels around the blocks.
    let out = compile("at_cap", blocks(MAX_NESTING - 2));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("class GMMaster"));
    // One block more, or 2,000 parentheses (which used to abort), fail
    // with a diagnostic and exit code 1.
    let parens = format!("x = {}1{};", "(".repeat(2_000), ")".repeat(2_000));
    for (name, body) in [("past_cap", blocks(MAX_NESTING - 1)), ("parens", parens)] {
        let out = compile(name, body);
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("nesting deeper than"), "{name}: {err}");
    }
}

#[test]
fn a_wrongly_typed_scalar_fails_alike_on_both_backends() {
    let dir = temp_dir();
    let edges = dir.join("edges_typed.txt");
    std::fs::write(&edges, "0 1 2\n1 2 3\n").unwrap();
    // The builtin source, so `--backend native` finds its compiled-in module.
    let sssp = concat!(env!("CARGO_MANIFEST_DIR"), "/../algorithms/gm/sssp.gm");
    for backend in ["interp", "native"] {
        let out = gmc()
            .args(["run", sssp, "--graph", edges.to_str().unwrap()])
            .args(["--backend", backend, "--arg", "root=true"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{backend}: {err}");
        assert!(
            err.contains("gmc run: bad argument: `root`: cannot coerce Bool(true) to Node"),
            "{backend}: {err}"
        );
    }
}

#[test]
fn resume_restores_its_own_legs_snapshots_and_reruns_over_the_others() {
    let dir = temp_dir();
    let edges = dir.join("edges_resume.txt");
    // Uneven degrees, so PageRank runs all ten iterations.
    let graph = "0 1\n0 2\n0 3\n1 2\n2 0\n3 0\n3 1\n4 0\n4 3\n5 4\n1 5\n2 5\n";
    std::fs::write(&edges, graph).unwrap();
    let ckpt = dir.join("resume-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    // The builtin source, so `--backend native` finds its compiled-in module.
    let pagerank = concat!(env!("CARGO_MANIFEST_DIR"), "/../algorithms/gm/pagerank.gm");
    // Each step is its own process: a resume depends on the program
    // identity being the same in every process that derives it.
    let step = |backend: &str, resume: bool| {
        let mut cmd = gmc();
        cmd.args(["run", pagerank, "--graph", edges.to_str().unwrap()])
            .args(["--arg", "e=0.0", "--arg", "d=0.85", "--arg", "max_iter=10"])
            .args(["--backend", backend, "--workers", "2", "--print", "pr"])
            .args(["--checkpoint-every", "2", "--checkpoint-dir"])
            .arg(&ckpt);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let pr: Vec<String> = (text.lines())
            .filter(|l| l.contains('\t'))
            .map(str::to_owned)
            .collect();
        assert_eq!(pr.len(), 6, "{text}");
        (text, pr)
    };
    let snapshots = || std::fs::read_dir(&ckpt).unwrap().count();

    let (text, reference) = step("native", false);
    assert!(
        text.contains("restores: 0   restarts: 0   discarded: 0"),
        "{text}"
    );
    let (text, pr) = step("native", true);
    assert!(
        text.contains("restores: 1   restarts: 0   discarded: 0"),
        "{text}"
    );
    assert_eq!(pr, reference, "a native resume diverged");

    // The interpreter cannot decode native snapshots: it discards and
    // removes every one, then runs from superstep 0 to the same result.
    let native_files = snapshots();
    assert!(native_files > 0);
    let (text, pr) = step("interp", true);
    let discarded = format!("restores: 0   restarts: 0   discarded: {native_files}");
    assert!(text.contains(&discarded), "{text}");
    assert_eq!(pr, reference, "the interpreter's re-run diverged");

    // What is left is the interpreter's own, and it resumes from it. The
    // counters are the job's: they carry the discards from the snapshot.
    let (text, pr) = step("interp", true);
    let restored = format!("restores: 1   restarts: 0   discarded: {native_files}");
    assert!(text.contains(&restored), "{text}");
    assert_eq!(pr, reference);
    let _ = std::fs::remove_dir_all(&ckpt);
}
