//! Compiler fuzzing with translation validation: generate random (but
//! well-typed) Green-Marl programs from seeded streams, then check that
//!
//! 1. the full pipeline compiles them (or rejects them with a diagnostic —
//!    never panics), with the PIR verifier re-checking the program after
//!    translation and after every optimization pass,
//! 2. the compiled Pregel execution matches the sequential interpreter
//!    bit-for-bit across the whole matrix: optimizations on/off ×
//!    {1, 2, 4} workers × a mid-run checkpoint/restore leg × a leg that
//!    gathers every pullable superstep,
//! 3. the §4.2 optimizations never change results.
//!
//! The generator stays inside the Pregel-compatible subset on purpose:
//! vertex loops with neighborhood reads/writes (both push and pull forms,
//! exercising edge flipping and loop dissection), an SSSP-style relaxation
//! over an edge property, global reductions, filters, and while loops with
//! aggregate conditions.

use gm_core::kernel::{lower, CPull};
use gm_core::seqinterp::{run_procedure, ArgValue};
use gm_core::value::Value;
use gm_core::{compile, CompileOptions};
use gm_graph::gen;
use gm_graph::rng::{check, SplitMix64};
use gm_interp::run_compiled;
use gm_pregel::{CheckpointConfig, FaultPlan, PregelConfig, RecoveryPolicy, Schedule};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Integer vertex properties available to generated programs.
const PROPS: [&str; 3] = ["pa", "pb", "pc"];

/// The chance of an operator node at each remaining level of nesting (up
/// to two), as proptest's `prop_recursive(2, 8, 2)` drew them.
const BRANCH: [f64; 3] = [0.0, 0.5, 0.9];

fn pick<'a, T>(rng: &mut SplitMix64, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// A random pure expression over integer scalars, rendered as source.
/// `var` is the node variable whose properties may be read; `props`
/// restricts which properties (pulls must not read what they write —
/// that is a data race in Green-Marl; real programs double-buffer).
fn expr(rng: &mut SplitMix64, var: &str, props: &[usize], level: usize) -> String {
    if level == 0 {
        return if rng.chance(0.5) {
            rng.below(20).to_string()
        } else {
            format!("{var}.{}", PROPS[*pick(rng, props)])
        };
    }
    if !rng.chance(BRANCH[level]) {
        return expr(rng, var, props, level - 1);
    }
    let a = expr(rng, var, props, level - 1);
    let op = pick(rng, &["+", "-", "*"]);
    let b = expr(rng, var, props, level - 1);
    format!("({a} {op} {b})")
}

/// A filter over one node variable (always boolean), reading only the
/// given properties, inside `open`/`close`; empty half the time.
fn filter(rng: &mut SplitMix64, var: &str, props: &[usize], [open, close]: [char; 2]) -> String {
    if rng.chance(0.5) {
        return String::new();
    }
    let p = PROPS[*pick(rng, props)];
    let k = rng.below(10);
    let cmp = pick(rng, &[">", "<", "=="]);
    format!("{open}({var}.{p} % 7) {cmp} {k}{close}")
}

/// One vertex-parallel statement group, as source whose iterators are
/// `$n` and `$t` ([`render`] numbers them per piece): a local write, a
/// push to neighbours, a pull (`Sum`) from them, a global reduction, or a
/// relaxation whose pushed value reads the edge weight `w`.
fn piece(rng: &mut SplitMix64) -> String {
    let prop = *pick(rng, &PROPS);
    let (n, t, all) = ("$n", "$t", &[0, 1, 2]);
    match rng.below(5) {
        0 => {
            let (filter, expr) = (filter(rng, n, all, ['(', ')']), expr(rng, n, all, 2));
            let op = pick(rng, &["+=", "="]);
            format!("Foreach ($n: G.Nodes){filter} {{ $n.{prop} {op} {expr}; }}")
        }
        1 => {
            let dir = pick(rng, &["Nbrs", "InNbrs"]);
            let (filter, expr) = (filter(rng, t, all, ['(', ')']), expr(rng, n, all, 2));
            format!("Foreach ($n: G.Nodes) {{ Foreach ($t: $n.{dir}){filter} {{ $t.{prop} += {expr}; }} }}")
        }
        // Pulls write `prop` but read (in body AND filter) only the other
        // two properties — reading what the region writes is a data race
        // in Green-Marl (real programs double-buffer, cf. SSSP).
        2 => {
            let readable: Vec<usize> = (0..3).filter(|&p| PROPS[p] != prop).collect();
            let dir = pick(rng, &["Nbrs", "InNbrs"]);
            let filter = filter(rng, t, &readable, ['[', ']']);
            let expr = expr(rng, t, &readable, 2);
            format!("Foreach ($n: G.Nodes) {{ $n.{prop} = Sum($t: $n.{dir}){filter}{{{expr}}}; }}")
        }
        3 => {
            let (filter, expr) = (filter(rng, n, all, ['(', ')']), expr(rng, n, all, 2));
            format!("Foreach ($n: G.Nodes){filter} {{ S += {expr}; }}")
        }
        // SSSP's shape: the pushed value reads the connecting edge, so a
        // gathered superstep re-evaluates it per in-edge. Through a local,
        // beside a second broadcast, or before a write to a property it
        // may read, the state must stay push.
        _ => {
            let filter = filter(rng, n, all, ['(', ')']);
            let relax = |value: &str| {
                format!("Foreach ($t: $n.Nbrs) {{ Edge e$t = $t.ToEdge(); $t.{prop} min= {value} + e$t.w; }}")
            };
            let other: Vec<usize> = (0..3).filter(|&p| PROPS[p] != prop).collect();
            let other = PROPS[*pick(rng, &other)];
            let body = match rng.below(4) {
                0 => relax(&expr(rng, n, all, 2)),
                1 => {
                    let (init, k, add) =
                        (expr(rng, n, all, 2), rng.below(20), expr(rng, n, all, 1));
                    format!(
                        "Int k$n = {init}; If (k$n > {k}) {{ k$n += {add}; }} {}",
                        relax("k$n")
                    )
                }
                2 => {
                    let (pushed, relaxed) = (expr(rng, n, all, 1), expr(rng, n, all, 1));
                    format!(
                        "Foreach (s$n: $n.Nbrs) {{ s$n.{other} += {pushed}; }} {}",
                        relax(&relaxed)
                    )
                }
                _ => {
                    let (relaxed, written) = (expr(rng, n, all, 2), expr(rng, n, all, 1));
                    format!("{} $n.{other} = {written};", relax(&relaxed))
                }
            };
            format!("Foreach ($n: G.Nodes){filter} {{ {body} }}")
        }
    }
}

/// Renders a whole program from the pieces, optionally wrapping the middle
/// section in a bounded While loop.
fn render(pieces: &[impl AsRef<str>], loop_rounds: Option<u8>) -> String {
    let mut body = String::new();
    for (k, piece) in (1..).zip(pieces) {
        let piece = piece.as_ref().replace("$n", &format!("n{k}"));
        body += &format!("    {}\n", piece.replace("$t", &format!("t{k}")));
    }
    let body = match loop_rounds {
        Some(r) => format!(
            "    Int rounds = 0;\n    While (rounds < {r}) {{\n{body}        rounds += 1;\n    }}\n"
        ),
        None => body,
    };
    format!(
        "Procedure fuzz(G: Graph, pa, pb, pc: N_P<Int>, w: E_P<Int>) : Int {{\n    Int S = 0;\n{body}    Return S + Sum(z: G.Nodes){{z.pa + z.pb * 3 + z.pc * 7}};\n}}"
    )
}

fn initial_props(n: u32, m: u32, salt: i64) -> HashMap<String, ArgValue> {
    let col = |len: u32, mult: i64| -> Vec<Value> {
        (0..len as i64)
            .map(|i| Value::Int((i * mult + salt) % 23))
            .collect()
    };
    HashMap::from([
        ("pa".to_owned(), ArgValue::NodeProp(col(n, 3))),
        ("pb".to_owned(), ArgValue::NodeProp(col(n, 5))),
        ("pc".to_owned(), ArgValue::NodeProp(col(n, 11))),
        ("w".to_owned(), ArgValue::EdgeProp(col(m, 13))),
    ])
}

/// A unique, pre-cleaned snapshot directory per checkpoint leg.
fn fresh_ckpt_dir() -> std::path::PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gm-fuzz-ckpt-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Which pull modes a case's gathered legs ran: `[Captured, Recomputed]`.
type Gathered = [bool; 2];

/// The translation-validation harness: compile `pieces` with the PIR
/// verifier forced on (both optimized and unoptimized) and require the
/// Pregel execution to match the sequential interpreter bit-for-bit on
/// 1, 2, and 4 workers, a leg that checkpoints every superstep, kills
/// worker 0 mid-run, and recovers from the snapshot, and a leg that
/// gathers every pullable superstep.
fn check_translation_validation(
    pieces: &[impl AsRef<str>],
    rounds: Option<u8>,
    n: u32,
    m_per_n: usize,
    seed: u64,
) -> Gathered {
    let src = render(pieces, rounds);
    let g = gen::uniform_random(n, n as usize * m_per_n, seed);
    let args = initial_props(n, g.num_edges(), seed as i64);

    // Sequential oracle.
    let mut prog = gm_core::parser::parse(&src).unwrap_or_else(|e| {
        panic!(
            "generated program fails to parse:\n{}\n{src}",
            e.render(&src)
        )
    });
    gm_core::normalize::desugar_bulk(&mut prog);
    let infos = gm_core::sema::check(&mut prog)
        .unwrap_or_else(|e| panic!("generated program fails sema:\n{}\n{src}", e.render(&src)));
    let seq = run_procedure(&g, &prog.procedures[0], &infos[0], &args, 0).expect("sequential run");

    let agree = |out: &gm_interp::CompiledOutcome, leg: &str| {
        assert_eq!(seq.ret, out.ret, "{leg}: return differs\n{src}");
        for p in PROPS {
            assert_eq!(
                &seq.node_props[p], &out.node_props[p],
                "{leg}: property {p} differs\n{src}"
            );
        }
    };

    let mut gathered = [false; 2];
    for opts in [CompileOptions::default(), CompileOptions::unoptimized()] {
        let tag = if opts.state_merging { "opt" } else { "unopt" };
        let compiled = compile(&src, &opts)
            .unwrap_or_else(|e| panic!("compile failed:\n{}\n{src}", e.render(&src)));
        for workers in [1usize, 2, 4] {
            let out = run_compiled(
                &g,
                &compiled,
                &args,
                0,
                &PregelConfig::with_workers(workers),
            )
            .expect("pregel run");
            agree(&out, &format!("{tag}/workers={workers}"));
        }
        // Checkpoint/restore leg: snapshot every superstep, panic worker 0
        // in superstep 1 (if the run gets that far), recover, and still
        // match the oracle exactly.
        let dir = fresh_ckpt_dir();
        let cfg = PregelConfig {
            checkpoint: Some(CheckpointConfig::new(dir.clone(), 1)),
            faults: FaultPlan::builder().panic_in_compute(1, Some(0)).build(),
            recovery: Some(RecoveryPolicy::with_max_restarts(2)),
            ..PregelConfig::with_workers(2)
        };
        let out = run_compiled(&g, &compiled, &args, 0, &cfg).expect("checkpointed pregel run");
        agree(&out, &format!("{tag}/ckpt-restore"));
        let _ = std::fs::remove_dir_all(&dir);
        // Gathered leg: every superstep whose state is pullable runs
        // gather-side.
        let cfg = PregelConfig::with_workers(2)
            .with_schedule(Schedule::Auto)
            .with_dense_threshold(0.0);
        let out = run_compiled(&g, &compiled, &args, 0, &cfg).expect("gathered pregel run");
        agree(&out, &format!("{tag}/gathered"));
        let kernels = lower(&compiled.program).expect("lowering").kernels;
        for (step, metrics) in out.trace.iter().zip(&out.metrics.per_superstep) {
            match kernels[step.state].as_ref().map(|k| &k.pull) {
                Some(CPull::Captured) if metrics.pulled => gathered[0] = true,
                Some(CPull::Recomputed(_)) if metrics.pulled => gathered[1] = true,
                _ => {}
            }
        }
    }
    gathered
}

#[test]
fn random_programs_agree_with_the_oracle() {
    let (mut cases, mut captured, mut recomputed) = (0, 0, 0);
    check("random_programs_agree_with_the_oracle", 32, |rng| {
        let pieces: Vec<String> = (0..rng.range(1..5)).map(|_| piece(rng)).collect();
        let rounds = rng.chance(0.5).then(|| rng.range(1..4) as u8);
        let (n, m_per_n) = (rng.range(2..40) as u32, rng.below(6) as usize);
        let [c, r] = check_translation_validation(&pieces, rounds, n, m_per_n, rng.below(1000));
        cases += 1;
        captured += usize::from(c);
        recomputed += usize::from(r);
    });
    println!(
        "{cases} cases: {captured} gathered a Captured superstep, {recomputed} a Recomputed one"
    );
    assert!(
        captured > 0 && recomputed > 0,
        "no gathered superstep of some mode"
    );
}

/// A seed proptest once shrank a failure to, promoted to a deterministic
/// named test: a pull-direction push (`InNbrs`) followed
/// by a plain local write inside a two-round `While` loop — a shape that
/// once diverged from the oracle. Pinning it here keeps the case covered
/// on every CI run without re-running the whole fuzz campaign.
#[test]
fn regression_push_innbrs_then_local_in_loop() {
    let pieces = [
        "Foreach ($n: G.Nodes) { Foreach ($t: $n.InNbrs) { $t.pb += ((0 + $n.pb) * (3 * $n.pb)); } }",
        "Foreach ($n: G.Nodes) { $n.pa = (($n.pb + 0) * ($n.pb * 7)); }",
    ];
    check_translation_validation(&pieces, Some(2), 30, 5, 249);
}

/// Compact single-piece cases that pin each generator shape through the
/// full matrix deterministically (cheap enough for every CI run).
#[test]
fn regression_each_piece_shape_alone() {
    let shapes = [
        "Foreach ($n: G.Nodes)(($n.pa % 7) < 4) { $n.pc += ($n.pc + 3); }",
        "Foreach ($n: G.Nodes) { Foreach ($t: $n.Nbrs)(($t.pb % 7) == 2) { $t.pa += ($n.pa * 2); } }",
        "Foreach ($n: G.Nodes) { $n.pb = Sum($t: $n.InNbrs)[($t.pa % 7) > 1]{($t.pc - 1)}; }",
        "Foreach ($n: G.Nodes) { S += ($n.pb + $n.pc); }",
        "Foreach ($n: G.Nodes) { Int k$n = $n.pb * 2; If (k$n > 9) { k$n += $n.pc; } Foreach ($t: $n.Nbrs) { Edge e$t = $t.ToEdge(); $t.pa min= k$n + e$t.w; } }",
        "Foreach ($n: G.Nodes) { Foreach (s$n: $n.Nbrs) { s$n.pc += $n.pb; } Foreach ($t: $n.Nbrs) { Edge e$t = $t.ToEdge(); $t.pa min= $n.pb + e$t.w; } }",
        "Foreach ($n: G.Nodes) { Foreach ($t: $n.Nbrs) { Edge e$t = $t.ToEdge(); $t.pa min= $n.pb + e$t.w; } $n.pb = ($n.pc + 1); }",
        "Foreach ($n: G.Nodes)(($n.pc % 7) > 2) { Foreach ($t: $n.Nbrs) { Edge e$t = $t.ToEdge(); $t.pa min= ($n.pb - 4) + e$t.w; } }",
    ];
    for shape in shapes {
        check_translation_validation(&[shape], Some(2), 12, 3, 7);
    }
    let relax = shapes.last().expect("shapes");
    let [_, recomputed] = check_translation_validation(&[relax], None, 12, 3, 7);
    assert!(recomputed, "the relaxation never gathered Recomputed");
}
