//! The end-to-end compilation pipeline (Fig. 1 of the paper).

use crate::ast::Program;
use crate::astutil::count_nodes;
use crate::canonical::check_canonical;
use crate::diag::Diagnostics;
use crate::normalize::desugar_bulk;
use crate::parser::parse;
use crate::pir::PregelProgram;
use crate::pretty::procedure_to_string;
use crate::report::TransformReport;
use crate::sema::ProcInfo;
use crate::transform::canonicalize;
use crate::translate::translate;
use gm_obs::{Category, Tracer};
use std::time::Instant;

/// Compilation switches (the ablation benches flip these). Every compile
/// runs the [`crate::verify`] PIR well-formedness checks after translation
/// and after every optimization pass, turning internal compiler bugs into
/// structured diagnostics instead of downstream panics or silent
/// miscompiles.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// §4.2 State Merging.
    pub state_merging: bool,
    /// §4.2 Intra-Loop State Merging.
    pub intra_loop_merging: bool,
    /// Extension beyond the paper: let `kernel::lower` give
    /// single-reduction message tags a combiner, so the runtime folds them
    /// sender-side (off by default, like the paper's compiler).
    pub combiners: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            state_merging: true,
            intra_loop_merging: true,
            combiners: false,
        }
    }
}

impl CompileOptions {
    /// Disables both optimizations (the naive translation).
    pub fn unoptimized() -> Self {
        CompileOptions {
            state_merging: false,
            intra_loop_merging: false,
            ..Self::default()
        }
    }

    /// Everything on, including the combiner extension.
    pub fn with_combiners() -> Self {
        CompileOptions {
            combiners: true,
            ..Self::default()
        }
    }
}

/// The result of compiling one procedure.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The executable Pregel state machine.
    pub program: PregelProgram,
    /// Which transformation/translation steps fired (Table 3).
    pub report: TransformReport,
    /// The Pregel-canonical Green-Marl the transformations produced.
    pub canonical_source: String,
    /// Final symbol table.
    pub info: ProcInfo,
    /// The canonical AST (used by differential tests).
    pub ast: crate::ast::Procedure,
}

/// Compiles the first procedure of `src` into a Pregel program.
///
/// Pipeline: parse → bulk-assignment desugar → type check → §4.1
/// transformations → §3.2 canonical check → §3.1 translation → §4.2
/// optimization, with the PIR verified after translation and after every
/// optimization pass.
///
/// # Errors
///
/// Returns every diagnostic produced by the failing phase.
pub fn compile(src: &str, options: &CompileOptions) -> Result<Compiled, Diagnostics> {
    compile_with(src, options, None)
}

/// [`compile`], optionally re-emitting the per-pass timings into a
/// [`Tracer`] as compiler-category spans (plus an instant event naming
/// the transformation steps that fired). The timings themselves are
/// always collected into [`Compiled::report`]; the tracer only controls
/// whether they also land in a trace file.
///
/// # Errors
///
/// Returns every diagnostic produced by the failing phase.
pub fn compile_with(
    src: &str,
    options: &CompileOptions,
    tracer: Option<&Tracer>,
) -> Result<Compiled, Diagnostics> {
    let mut report = TransformReport::new();

    let started = Instant::now();
    let mut program: Program = parse(src)?;
    let parsed_nodes: usize = program.procedures.iter().map(count_nodes).sum();
    report.record_timing("parse", started.elapsed(), 0, parsed_nodes);

    let started = Instant::now();
    desugar_bulk(&mut program);
    if program.procedures.is_empty() {
        let mut d = Diagnostics::new();
        d.error(crate::diag::Span::synthetic(), "no procedure to compile");
        return Err(d);
    }
    let desugared_nodes: usize = program.procedures.iter().map(count_nodes).sum();
    report.record_timing("desugar", started.elapsed(), parsed_nodes, desugared_nodes);
    let mut proc = program.procedures.remove(0);

    let info = canonicalize(&mut proc, &mut report)?;

    let ast_nodes = count_nodes(&proc);
    let started = Instant::now();
    check_canonical(&proc, &info)?;
    report.record_timing("check_canonical", started.elapsed(), ast_nodes, ast_nodes);
    let canonical_source = procedure_to_string(&proc);

    let started = Instant::now();
    let mut pregel = translate(&proc, &info, &mut report)?;
    report.record_timing(
        "translate",
        started.elapsed(),
        ast_nodes,
        pregel.num_instrs(),
    );
    crate::verify::verify_stage(
        &pregel,
        "translate",
        &crate::verify::VerifyOptions::strict(),
    )?;

    let instrs_before = pregel.num_instrs();
    let started = Instant::now();
    crate::optimize::optimize(
        &mut pregel,
        options.state_merging,
        options.intra_loop_merging,
        &mut report,
    )?;
    pregel.combiners = options.combiners;
    report.record_timing(
        "optimize",
        started.elapsed(),
        instrs_before,
        pregel.num_instrs(),
    );

    if let Some(t) = tracer {
        emit_pass_spans(t, &report);
    }

    Ok(Compiled {
        program: pregel,
        report,
        canonical_source,
        info,
        ast: proc,
    })
}

/// Re-emits the collected pass timings as consecutive compiler-category
/// spans ending "now" (the measurements were taken before the tracer saw
/// them, so the spans are laid out back-to-back at their cumulative
/// offsets), plus an instant event naming the Table 3 steps that fired.
fn emit_pass_spans(tracer: &Tracer, report: &TransformReport) {
    let total: u64 = report
        .pass_timings()
        .iter()
        .map(|t| t.duration.as_micros() as u64)
        .sum();
    let mut ts = tracer.now_us().saturating_sub(total);
    for timing in report.pass_timings() {
        let dur = timing.duration.as_micros() as u64;
        tracer.span_at(
            format!("pass/{}", timing.pass),
            Category::Compiler,
            0,
            ts,
            dur,
            vec![
                ("nodes_before", timing.nodes_before.into()),
                ("nodes_after", timing.nodes_after.into()),
            ],
        );
        ts += dur;
    }
    tracer.instant(
        "transform_steps",
        Category::Compiler,
        0,
        vec![("steps", report.to_string().into())],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Step;

    #[test]
    fn compile_avg_teen_like_program() {
        let src = "Procedure avg_teen(G: Graph, age, teen_cnt: N_P<Int>, K: Int) : Double {
            Foreach (n: G.Nodes) {
                n.teen_cnt = Count(t: n.InNbrs)(t.age >= 13 && t.age < 20);
            }
            Double avg = Avg(n: G.Nodes)[n.age > K]{n.teen_cnt};
            Return avg;
        }";
        let compiled = compile(src, &CompileOptions::default()).expect("compiles");
        assert!(compiled.report.applied(Step::StateMachine));
        assert!(compiled.report.applied(Step::FlippingEdge));
        assert!(compiled.report.applied(Step::DissectingLoops));
        assert!(compiled.program.num_vertex_kernels() >= 2);
        assert!(compiled.canonical_source.contains("Foreach"));
        assert!(!compiled.canonical_source.contains("Count("));
    }

    #[test]
    fn compile_reports_canonicality_errors() {
        // A random read in sequential phase cannot be transformed away.
        let src = "Procedure f(G: Graph, s: Node, x: N_P<Int>) : Int {
            Int v = s.x;
            Return v;
        }";
        let err = compile(src, &CompileOptions::default()).unwrap_err();
        assert!(err.to_string().contains("random reading"), "{err}");
    }

    #[test]
    fn optimization_flags_change_state_count() {
        let src = "Procedure f(G: Graph, x: N_P<Int>, x2: N_P<Int>) {
            Int k = 0;
            While (k < 3) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        t.x2 += n.x;
                    }
                }
                Foreach (n: G.Nodes) {
                    n.x = n.x2;
                    n.x2 = 0;
                }
                k += 1;
            }
        }";
        let unopt = compile(src, &CompileOptions::unoptimized()).unwrap();
        let opt = compile(src, &CompileOptions::default()).unwrap();
        assert!(opt.program.states.len() <= unopt.program.states.len());
        assert!(opt.report.applied(Step::IntraLoopMerge));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(compile("Procedure f(", &CompileOptions::default()).is_err());
    }

    #[test]
    fn pass_timings_cover_the_pipeline_and_reach_the_tracer() {
        let src = "Procedure f(G: Graph, x: N_P<Int>, x2: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    t.x2 += n.x;
                }
            }
        }";
        let (tracer, sink) = Tracer::in_memory();
        let compiled = compile_with(src, &CompileOptions::default(), Some(&tracer)).unwrap();
        let passes: Vec<&str> = compiled
            .report
            .pass_timings()
            .iter()
            .map(|t| t.pass)
            .collect();
        for expected in [
            "parse",
            "desugar",
            "canonicalize/sema",
            "canonicalize/flip",
            "check_canonical",
            "translate",
            "optimize",
        ] {
            assert!(passes.contains(&expected), "missing {expected}: {passes:?}");
        }
        // Node counts are populated: parse produces a non-empty AST, and
        // translate switches to PIR instruction counts.
        let parse_t = &compiled.report.pass_timings()[0];
        assert_eq!(parse_t.pass, "parse");
        assert!(parse_t.nodes_after > 0);
        // One compiler span per pass plus the steps instant.
        let events = sink.events();
        let spans = events
            .iter()
            .filter(|e| e.name.starts_with("pass/"))
            .count();
        assert_eq!(spans, passes.len());
        assert!(events.iter().any(|e| e.name == "transform_steps"));
        assert!(events
            .iter()
            .all(|e| e.cat == gm_obs::Category::Compiler && e.tid == 0));
        // The timing table renders every pass.
        let table = compiled.report.timing_table();
        assert!(table.contains("canonicalize/flip"), "{table}");
    }
}
