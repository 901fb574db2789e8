//! The master's seeded `PickRandom` RNG. Master code itself is lowered by
//! [`gm_core::kernel`] and runs through the same [`crate::exec::eval`] as
//! vertex kernels.

use gm_graph::rng::SplitMix64;

/// The seeded RNG behind `G.PickRandom()`, with a draw counter so that
/// checkpoint snapshots can restore the stream position exactly.
///
/// `PickRandom` is the only consumer and every pick takes exactly one
/// draw, so `(seed, draws)` fully determines the RNG state:
/// [`PickRng::replay`] re-seeds and skips ahead in constant time.
pub struct PickRng {
    rng: SplitMix64,
    draws: u64,
}

impl PickRng {
    /// Fresh stream seeded from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        PickRng {
            rng: SplitMix64::new(seed),
            draws: 0,
        }
    }

    /// Draws a node id uniformly from `0..n`.
    pub fn pick(&mut self, n: u32) -> u32 {
        self.draws += 1;
        self.rng.below(n.into()) as u32
    }

    /// Draws consumed so far (persisted in master-state snapshots).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Re-seeds and skips `draws` picks, reproducing the exact stream
    /// position a snapshot captured (in constant time, so a corrupt count
    /// costs nothing).
    pub fn replay(seed: u64, draws: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        rng.skip(draws);
        PickRng { rng, draws }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{eval, EvalCx};
    use gm_core::kernel::{self, CMInstr};
    use gm_core::value::Value;
    use gm_core::{compile, CompileOptions};
    use gm_graph::Graph;
    use std::cell::RefCell;

    /// Compiles `src`, lowers it, and evaluates its `Return` value as
    /// master code over `args` (every other global at zero).
    fn master_return(src: &str, args: &[(&str, Value)], g: &Graph, rng: &mut PickRng) -> Value {
        let program = compile(src, &CompileOptions::default()).unwrap().program;
        let lowered = kernel::lower(&program).unwrap();
        let globals: Vec<Value> = (program.globals.iter())
            .map(|(name, _)| {
                args.iter()
                    .find(|(a, _)| a == name)
                    .map_or(Value::Int(0), |a| a.1)
            })
            .collect();
        let value = (lowered.masters.iter().flat_map(|m| &m.master))
            .find_map(|i| match i {
                CMInstr::SetReturn { value, .. } => value.clone(),
                _ => None,
            })
            .expect("a Return");
        let rng = RefCell::new(rng);
        let cx = EvalCx {
            globals: &globals,
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            rng: Some(&rng),
            ..EvalCx::default()
        };
        eval(&value, &cx)
    }

    #[test]
    fn master_eval_basics() {
        let g = gm_graph::gen::path(5);
        let mut rng = PickRng::seed_from_u64(1);
        let src = "Procedure f(G: Graph, k: Int) : Int { Return k * 2 + G.NumNodes(); }";
        let v = master_return(src, &[("k", Value::Int(3))], &g, &mut rng);
        assert_eq!(v, Value::Int(11));

        let src = "Procedure f(G: Graph, b: Bool) : Bool { Return !b || b; }";
        let v = master_return(src, &[("b", Value::Bool(false))], &g, &mut rng);
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn master_pick_random_is_seeded() {
        let g = gm_graph::gen::path(100);
        let pick = |seed| {
            let mut rng = PickRng::seed_from_u64(seed);
            let src = "Procedure f(G: Graph) : Node { Return G.PickRandom(); }";
            let v = master_return(src, &[], &g, &mut rng);
            assert_eq!(rng.draws(), 1);
            v
        };
        assert_eq!(pick(7), pick(7));
    }

    #[test]
    fn pick_rng_replay_restores_stream_position() {
        let mut a = PickRng::seed_from_u64(99);
        for _ in 0..5 {
            a.pick(1000);
        }
        let mut b = PickRng::replay(99, a.draws());
        for _ in 0..10 {
            assert_eq!(a.pick(1000), b.pick(1000));
        }
    }
}
