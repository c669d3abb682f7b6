//! Shared fixtures for the Criterion benchmarks in this crate.
//!
//! Benchmarks regenerate the paper's tables and figures at *bench scale*: sizes are reduced
//! so the whole suite finishes in minutes while preserving the relative cost of the
//! mechanisms being compared. The `reproduce` binary of `sfo-experiments` is the tool for
//! full-scale regeneration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfo_core::pa::PreferentialAttachment;
use sfo_core::DegreeCutoff;
use sfo_experiments::Scale;
use sfo_graph::{CsrGraph, Graph};

/// Node count used for single-topology benchmarks.
pub const BENCH_NODES: usize = 2_000;

/// Scale used when benchmarking the figure runners end to end.
pub fn micro_scale() -> Scale {
    Scale {
        degree_nodes: 500,
        search_nodes: 400,
        realizations: 1,
        searches_per_point: 10,
    }
}

/// A deterministic RNG for benchmarks.
pub fn bench_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn capped_pa(nodes: usize, m: usize, k_c: usize) -> PreferentialAttachment {
    PreferentialAttachment::new(nodes, m)
        .expect("bench parameters are valid")
        .with_cutoff(DegreeCutoff::hard(k_c))
}

/// A capped PA overlay, as a mutable graph, for the benchmarks that need one.
pub fn capped_pa_graph(nodes: usize, m: usize, k_c: usize, seed: u64) -> Graph {
    capped_pa(nodes, m, k_c)
        .generate(&mut bench_rng(seed))
        .expect("bench generation succeeds")
}

/// The same capped PA overlay as [`capped_pa_graph`], generated straight into CSR form:
/// the fixture of the benchmarks that only read it.
pub fn capped_pa_csr(nodes: usize, m: usize, k_c: usize, seed: u64) -> CsrGraph {
    capped_pa(nodes, m, k_c)
        .generate_frozen(&mut bench_rng(seed))
        .expect("bench generation succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let graph = capped_pa_graph(300, 2, 20, 1);
        assert_eq!(graph.node_count(), 300);
        assert!(graph.max_degree().unwrap() <= 20);
        assert_eq!(capped_pa_csr(300, 2, 20, 1), graph.freeze());
        assert!(micro_scale().degree_nodes <= 1_000);
    }
}
