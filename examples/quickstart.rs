//! Quickstart: compile a Green-Marl program and run it on the bundled
//! Pregel runtime.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use greenmarl::prelude::*;
use std::collections::HashMap;
use std::error::Error;

/// Count, for every vertex, how many of its followers (in-neighbors) are
/// "active" — written the natural shared-memory way. The compiler notices
/// the message-pulling access pattern, flips the edges, and produces a
/// push-style Pregel program.
const SRC: &str = "
Procedure active_followers(G: Graph, active: N_P<Bool>, cnt: N_P<Int>) : Int {
    Foreach (n: G.Nodes) {
        n.cnt = Count(t: n.InNbrs)(t.active);
    }
    Return Sum(n: G.Nodes){n.cnt};
}
";

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Compile: parse → type check → canonicalize (§4.1) → translate to
    //    a Pregel state machine (§3.1) → optimize (§4.2).
    let compiled = compile(SRC, &CompileOptions::default())?;
    println!("compiled `active_followers`:");
    println!("  transformations applied: {}", compiled.report);
    println!(
        "  state machine: {} vertex kernels, {} message type(s)",
        compiled.program.num_vertex_kernels(),
        compiled.program.num_message_types()
    );

    // 2. Build an input graph — a small power-law web — and mark every
    //    third vertex active.
    let g = gen::rmat(1_000, 8_000, 42);
    let active: Vec<Value> = (0..g.num_nodes())
        .map(|i| Value::Bool(i % 3 == 0))
        .collect();
    let args = HashMap::from([("active".to_owned(), ArgValue::NodeProp(active))]);

    // 3. Execute on the BSP runtime and look at the metrics the paper
    //    reports: timesteps and network I/O.
    let out = run_compiled(&g, &compiled, &args, 0, &PregelConfig::default())?;
    println!("\nexecution:");
    println!(
        "  total active-follower edges: {}",
        out.ret.expect("returns a sum")
    );
    println!("  supersteps: {}", out.metrics.supersteps);
    println!(
        "  messages:   {} ({} bytes)",
        out.metrics.total_messages, out.metrics.total_message_bytes
    );

    // 4. The generated GPS-style Java is available for inspection too.
    let java = greenmarl::core::javagen::emit_java(&compiled.program)?;
    println!(
        "\ngenerated GPS-style Java: {} lines (vs {} lines of Green-Marl)",
        greenmarl::core::javagen::count_loc(&java),
        SRC.lines().filter(|l| !l.trim().is_empty()).count()
    );
    Ok(())
}
