//! The frozen input sizes, rates and limits. Calibrated once on the 2-core
//! box (see README.md, "Calibration") so that a batch job lasts 0.2–0.5 s
//! and one run fits the driver's time cap; nothing adapts at run time.

/// Pregel workers, daemon runners and load-generator threads are each
/// capped at the machine's 2 cores.
pub const WORKERS: usize = 2;

#[derive(Clone, Debug, PartialEq)]
pub struct Sizes {
    /// `dense_pagerank`: R-MAT at the paper's 36:1 edge:vertex ratio.
    pub dense_nodes: u32,
    pub dense_edges: usize,
    pub dense_iters: i64,
    /// `sparse_sssp`: side of the square grid.
    pub grid_side: u32,
    /// `cold_run`: the edge-list file `gmc run` would be pointed at.
    pub cold_nodes: u32,
    pub cold_edges: usize,
    /// `inline_interp`: R-MAT for the interpreted SSSP and PageRank.
    pub interp_nodes: u32,
    pub interp_edges: usize,
    pub interp_iters: i64,
    /// `durable_pagerank`.
    pub durable_nodes: u32,
    pub durable_edges: usize,
    pub durable_iters: i64,
    pub durable_checkpoint_every: u32,
    pub durable_message_budget: u64,
    pub durable_fault_superstep: u32,
    /// `serve_small`: the graph behind sub-millisecond jobs.
    pub small_nodes: u32,
    pub small_edges: usize,
    pub small_iters: i64,
    /// `serve_mixed`: `g_mid` and the two fixed open-loop rates (jobs/s),
    /// about a third and 85 % of the calibrated capacity of 100 jobs/s. The
    /// low rate leaves room for the box running 40 % slower for minutes at
    /// a time, which at half of capacity put p90 on the queueing knee.
    pub mid_nodes: u32,
    pub mid_edges: usize,
    pub mid_iters: i64,
    pub rate_lo: f64,
    pub rate_hi: f64,
    /// Latency limit of the high-rate phase: 5× the unloaded p50 measured
    /// at calibration.
    pub latency_limit_ms: f64,
    /// Floors on sample counts: a leg keeps going past its time share until
    /// it has these.
    pub min_jobs: usize,
    pub min_jobs_w1: usize,
    pub min_jobs_manual: usize,
    pub min_serving_samples: usize,
}

impl Sizes {
    pub const FROZEN: Sizes = Sizes {
        dense_nodes: 50_000,
        dense_edges: 1_800_000,
        dense_iters: 20,
        grid_side: 250,
        cold_nodes: 40_000,
        cold_edges: 1_200_000,
        interp_nodes: 10_000,
        interp_edges: 360_000,
        interp_iters: 10,
        durable_nodes: 7_000,
        durable_edges: 252_000,
        durable_iters: 10,
        durable_checkpoint_every: 4,
        durable_message_budget: 256 * 1024,
        durable_fault_superstep: 9,
        small_nodes: 2_000,
        small_edges: 16_000,
        small_iters: 2,
        mid_nodes: 4_000,
        mid_edges: 144_000,
        mid_iters: 5,
        rate_lo: 32.0,
        rate_hi: 85.0,
        latency_limit_ms: 100.0,
        min_jobs: 7,
        min_jobs_w1: 5,
        min_jobs_manual: 3,
        min_serving_samples: 200,
    };

    /// The same workloads at about `1/divisor` of the size, for the smoke
    /// test. Iteration counts, the fault superstep and the rates stay.
    pub fn shrunk(divisor: u32) -> Sizes {
        let f = Self::FROZEN;
        let d = divisor.max(1);
        let side = ((f.grid_side as f64) / (d as f64).sqrt()).max(8.0) as u32;
        Sizes {
            dense_nodes: f.dense_nodes / d,
            dense_edges: f.dense_edges / d as usize,
            grid_side: side,
            cold_nodes: f.cold_nodes / d,
            cold_edges: f.cold_edges / d as usize,
            interp_nodes: f.interp_nodes / d,
            interp_edges: f.interp_edges / d as usize,
            durable_nodes: f.durable_nodes / d,
            durable_edges: f.durable_edges / d as usize,
            durable_message_budget: (f.durable_message_budget / u64::from(d)).max(1024),
            small_nodes: (f.small_nodes / d).max(64),
            small_edges: (f.small_edges / d as usize).max(256),
            mid_nodes: f.mid_nodes / d,
            mid_edges: f.mid_edges / d as usize,
            min_jobs: 2,
            min_jobs_w1: 2,
            min_jobs_manual: 1,
            min_serving_samples: 20,
            ..f
        }
    }

    /// `name=value` pairs for the run record.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "dense_pagerank",
                format!(
                    "rmat {}v/{}e, {} iterations",
                    self.dense_nodes, self.dense_edges, self.dense_iters
                ),
            ),
            (
                "sparse_sssp",
                format!("grid {0}x{0}, weights 1..=3", self.grid_side),
            ),
            (
                "cold_run",
                format!(
                    "rmat {}v/{}e edge-list file",
                    self.cold_nodes, self.cold_edges
                ),
            ),
            (
                "inline_interp",
                format!(
                    "rmat {}v/{}e, pagerank {} iterations",
                    self.interp_nodes, self.interp_edges, self.interp_iters
                ),
            ),
            (
                "durable_pagerank",
                format!(
                    "rmat {}v/{}e, {} iterations, checkpoint every {}, message budget {} B, panic at superstep {}",
                    self.durable_nodes,
                    self.durable_edges,
                    self.durable_iters,
                    self.durable_checkpoint_every,
                    self.durable_message_budget,
                    self.durable_fault_superstep
                ),
            ),
            (
                "serve_small",
                format!(
                    "rmat {}v/{}e, pagerank {} iterations, 2 closed-loop clients",
                    self.small_nodes, self.small_edges, self.small_iters
                ),
            ),
            (
                "serve_mixed",
                format!(
                    "rmat {}v/{}e, open loop at {}/s then {}/s, limit {} ms",
                    self.mid_nodes,
                    self.mid_edges,
                    self.rate_lo,
                    self.rate_hi,
                    self.latency_limit_ms
                ),
            ),
        ]
    }
}
