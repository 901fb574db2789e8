//! The program table: how gmd turns a job's program into something to run.
//!
//! Every program goes through [`Program::bind`]: the compiled program
//! plus, when the Rust `rustgen` emits for it is byte-identical to a
//! compiled-in module, that module's native entry point. That is the rule
//! `gmc run --backend native` uses, so a native run stays bit-identical to
//! the interpreter's, and it covers builtins and inline sources alike.
//!
//! The builtins are bound once, at start, under both their name and their
//! exact source text, so an inline job that sends a builtin's text is a
//! lookup. Any other inline text is bound again on each submission and
//! lives only as long as the jobs that hold its `Arc`.

use crate::daemon::Reject;
use crate::job::ProgramSpec;
use gm_algorithms::native::NativeRun;
use gm_core::Compiled;
use gm_obs::metrics::MetricsRegistry;
use std::collections::HashMap;
use std::sync::Arc;

/// What a runner executes: the compiled program and, when its emitted
/// Rust matches a compiled-in module, that module's entry point.
pub(crate) struct Program {
    pub(crate) compiled: Arc<Compiled>,
    pub(crate) native: Option<NativeRun>,
}

impl Program {
    /// Compiles `src` and, when `native` allows it, adopts the compiled-in
    /// module that is byte-identical to what the emitter produces for it.
    pub(crate) fn bind(src: &str, native: bool) -> Result<Program, String> {
        let compiled = greenmarl::service::compile_source(src)?;
        let emitted = native
            .then(|| gm_core::rustgen::emit_rust(&compiled.program).ok())
            .flatten();
        let native = (emitted.as_deref())
            .and_then(gm_algorithms::native::find_for_generated)
            .map(|alg| alg.run);
        Ok(Program {
            compiled: Arc::new(compiled),
            native,
        })
    }

    pub(crate) fn backend(&self) -> &'static str {
        if self.native.is_some() {
            "native"
        } else {
            "interp"
        }
    }
}

/// The builtin catalogue: short job-spec names for the paper's six
/// algorithm sources.
pub fn builtin_sources() -> [(&'static str, &'static str); 6] {
    use gm_algorithms::sources;
    [
        ("avg_teen", sources::AVG_TEEN),
        ("pagerank", sources::PAGERANK),
        ("conductance", sources::CONDUCTANCE),
        ("sssp", sources::SSSP),
        ("bipartite", sources::BIPARTITE_MATCHING),
        ("bc", sources::BC_APPROX),
    ]
}

/// The bound builtins, and the binding rule for everything else; see the
/// module docs.
pub(crate) struct ProgramTable {
    native: bool,
    registry: Arc<MetricsRegistry>,
    /// Builtins, under `Builtin(name)` and `Source(text)`.
    pinned: HashMap<ProgramSpec, Arc<Program>>,
}

impl ProgramTable {
    /// Binds the builtins; `native` is `DaemonConfig::native_builtins`.
    pub(crate) fn new(native: bool, registry: Arc<MetricsRegistry>) -> Result<Self, String> {
        let mut table = ProgramTable {
            native,
            registry,
            pinned: HashMap::new(),
        };
        for (name, src) in builtin_sources() {
            let program = Arc::new(
                (table.bind(src)).map_err(|e| format!("builtin {name} failed to compile: {e}"))?,
            );
            let source = ProgramSpec::Source(src.to_owned());
            table.pinned.insert(source, program.clone());
            table
                .pinned
                .insert(ProgramSpec::Builtin(name.to_owned()), program);
        }
        Ok(table)
    }

    /// [`Program::bind`], counted in `gm_program_compiles_total`.
    fn bind(&self, src: &str) -> Result<Program, String> {
        let bound = Program::bind(src, self.native);
        let backend = bound.as_ref().map_or("failed", Program::backend);
        (self.registry)
            .counter_with(
                "gm_program_compiles_total",
                "program texts compiled and bound to a backend",
                &[("backend", backend)],
            )
            .inc();
        bound
    }

    /// The program `spec` names: a builtin's entry, or an inline text
    /// bound now. Runs outside every lock, since binding compiles.
    pub(crate) fn get(&self, spec: &ProgramSpec) -> Result<Arc<Program>, Reject> {
        if let Some(program) = self.pinned.get(spec) {
            return Ok(program.clone());
        }
        match spec {
            ProgramSpec::Builtin(name) => Err(Reject::UnknownProgram(name.clone())),
            ProgramSpec::Source(src) => {
                (self.bind(src).map(Arc::new)).map_err(Reject::CompileError)
            }
        }
    }

    /// Builtin names, sorted.
    pub(crate) fn builtin_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = (self.pinned.keys())
            .filter_map(|spec| match spec {
                ProgramSpec::Builtin(name) => Some(name.as_str()),
                ProgramSpec::Source(_) => None,
            })
            .collect();
        names.sort_unstable();
        names
    }
}
