//! Shared fixtures for the Criterion benchmarks in this crate.
//!
//! Each of the four benchmarks writes one tracked `BENCH_*.json` file at the workspace
//! root: `csr_vs_adjacency`, `hotpath`, `shard_vs_csr` and `snapshot_io`. The
//! `reproduce` binary of `sfo-experiments` regenerates the paper's figures and tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfo_core::pa::PreferentialAttachment;
use sfo_core::DegreeCutoff;
use sfo_graph::{CsrGraph, Graph};

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
    }
}
