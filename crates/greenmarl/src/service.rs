//! Compile-as-a-library: the `gmc` pipeline without a process around it.
//!
//! Long-lived hosts — the `gmd` daemon foremost — accept untrusted
//! Green-Marl source over the wire and must turn compiler diagnostics
//! into structured API errors instead of stderr + exit codes. This
//! module is the one entry point both `gmc` and `gmd` share, so a
//! program accepted by one is byte-for-byte the program the other runs.

use gm_core::{compile_with, CompileOptions, Compiled};
use gm_obs::Tracer;

/// Compiles Green-Marl source with default optimizations, rendering
/// diagnostics into the returned error string. This is the entry `gmd`
/// compiles tenant-supplied source through.
pub fn compile_source(src: &str) -> Result<Compiled, String> {
    compile_source_with(src, true, None)
}

/// Compiles Green-Marl source with explicit knobs: `optimize` selects the
/// standard pass pipeline vs. none, and `tracer` receives per-pass compile
/// spans.
pub fn compile_source_with(
    src: &str,
    optimize: bool,
    tracer: Option<&Tracer>,
) -> Result<Compiled, String> {
    let options = if optimize {
        CompileOptions::default()
    } else {
        CompileOptions::unoptimized()
    };
    compile_with(src, &options, tracer).map_err(|d| d.render(src))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_a_builtin_source() {
        let compiled = compile_source(gm_algorithms::sources::PAGERANK).unwrap();
        assert!(!compiled.program.states.is_empty());
    }

    #[test]
    fn renders_diagnostics_for_bad_source() {
        let err = compile_source("Procedure broken(G: Graph) { nope }").unwrap_err();
        // The rendered diagnostic carries a source position, not a bare code.
        assert!(err.contains("1:"), "{err}");
    }

    #[test]
    fn unoptimized_compile_is_also_verified() {
        let compiled = compile_source_with(gm_algorithms::sources::SSSP, false, None).unwrap();
        assert!(!compiled.program.states.is_empty());
    }
}
