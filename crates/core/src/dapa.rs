//! Discover-and-Attempt Preferential Attachment (DAPA) (paper, Alg. 4 and §IV-B).
//!
//! DAPA imitates how peers discover each other in Gnutella-like networks. It maintains two
//! networks: a pre-existing *substrate* `G_S` (the paper uses a geometric random network
//! with `N_S = 2·10⁴` nodes and average degree 10) and the *overlay* `G_O` built on top of
//! it. A joining node floods a discovery query `τ_sub` hops into the substrate (its local
//! time-to-live), collects the overlay peers visible in that horizon whose degree is still
//! below the hard cutoff, and then attaches to `m` of them preferentially by degree. If the
//! horizon contains at most `m` eligible peers it simply links to all of them, which is why
//! DAPA cannot guarantee a minimum degree of `m`.
//!
//! Small `τ_sub` values make nodes short-sighted and the degree distribution exponential;
//! large values recover a power law (paper, Fig. 4). DAPA is the only mechanism in the
//! paper that needs no global information at join time (Table II).

use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::generators::GeometricRandomNetwork;
use sfo_graph::{traversal, Graph, NodeId};

/// Default number of preferential-attachment draws per stub before falling back to a
/// uniform eligible peer from the horizon.
pub(crate) const DEFAULT_MAX_ATTEMPTS_PER_STUB: usize = 50_000;

/// Default number of seed peers bootstrapping the overlay (the paper uses 2).
pub(crate) const DEFAULT_SEEDS: usize = 2;

/// Result of building a DAPA overlay on a substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct DapaOverlay {
    /// The overlay graph; node `i` of this graph corresponds to substrate node
    /// `substrate_nodes[i]`.
    pub graph: Graph,
    /// Mapping from overlay node index to the substrate node it was built on.
    pub substrate_nodes: Vec<NodeId>,
    /// Number of join attempts that failed because the candidate saw no eligible peer in
    /// its `τ_sub` horizon (the candidate stays outside the overlay and may retry later).
    pub failed_discoveries: usize,
    /// `true` when overlay growth stopped before reaching the target size because no
    /// remaining substrate node could discover a peer (possible on fragmented substrates).
    pub stalled: bool,
}

impl DapaOverlay {
    /// Returns the number of peers in the overlay.
    pub fn peer_count(&self) -> usize {
        self.graph.node_count()
    }
}

/// Builder/configuration for the DAPA overlay construction on a caller-supplied substrate.
///
/// # Example
///
/// ```
/// use sfo_core::DiscoverAndAttempt;
/// use sfo_core::DegreeCutoff;
/// use sfo_graph::generators::GeometricRandomNetwork;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let (substrate, _) = GeometricRandomNetwork::with_average_degree(2_000, 10.0)?.generate(&mut rng)?;
/// let overlay = DiscoverAndAttempt::new(1_000, 2, 4)?
///     .with_cutoff(DegreeCutoff::hard(40))
///     .generate_on(&substrate, &mut rng)?;
/// assert_eq!(overlay.peer_count(), 1_000);
/// assert!(overlay.graph.max_degree().unwrap() <= 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoverAndAttempt {
    overlay_nodes: usize,
    stubs: StubCount,
    cutoff: DegreeCutoff,
    tau_sub: u32,
    seeds: usize,
    max_attempts_per_stub: usize,
}

impl DiscoverAndAttempt {
    /// Creates a DAPA configuration targeting `overlay_nodes` peers, `m` stubs per joining
    /// peer, and a local time-to-live of `tau_sub` substrate hops.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `m` is zero, `overlay_nodes < 3`, or
    /// `tau_sub` is zero.
    pub fn new(overlay_nodes: usize, m: usize, tau_sub: u32) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if overlay_nodes < 3 {
            return Err(TopologyError::InvalidConfig {
                reason: "dapa needs at least three overlay nodes",
            });
        }
        if tau_sub == 0 {
            return Err(TopologyError::InvalidConfig {
                reason: "tau_sub must be at least 1",
            });
        }
        Ok(DiscoverAndAttempt {
            overlay_nodes,
            stubs,
            cutoff: DegreeCutoff::Unbounded,
            tau_sub,
            seeds: DEFAULT_SEEDS,
            max_attempts_per_stub: DEFAULT_MAX_ATTEMPTS_PER_STUB,
        })
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the number of seed peers that bootstrap the overlay (default 2). Seeds are
    /// chosen uniformly from the substrate and fully connected to each other.
    pub fn with_seeds(mut self, seeds: usize) -> Self {
        self.seeds = seeds.max(2);
        self
    }

    /// Sets the number of preferential-attachment draws per stub tolerated before falling
    /// back to a uniform eligible peer.
    pub fn with_max_attempts_per_stub(mut self, attempts: usize) -> Self {
        self.max_attempts_per_stub = attempts.max(1);
        self
    }

    /// Returns the configured hard cutoff.
    pub fn cutoff(&self) -> DegreeCutoff {
        self.cutoff
    }

    /// Returns the configured local time-to-live `τ_sub`.
    pub fn tau_sub(&self) -> u32 {
        self.tau_sub
    }

    /// Returns the configured number of stubs `m`.
    pub fn stubs(&self) -> usize {
        self.stubs.get()
    }

    /// Returns the target overlay size `N_O`.
    pub fn overlay_nodes(&self) -> usize {
        self.overlay_nodes
    }

    fn validate(&self, substrate: &Graph) -> Result<()> {
        if substrate.node_count() < self.overlay_nodes {
            return Err(TopologyError::InvalidConfig {
                reason: "substrate must contain at least as many nodes as the target overlay",
            });
        }
        if self.seeds > self.overlay_nodes {
            return Err(TopologyError::InvalidConfig {
                reason: "seed count exceeds the target overlay size",
            });
        }
        if let Some(k_c) = self.cutoff.value() {
            if k_c < self.stubs.get() {
                return Err(TopologyError::InvalidConfig {
                    reason: "hard cutoff is smaller than the stub count m",
                });
            }
            if k_c < self.seeds - 1 {
                return Err(TopologyError::InvalidConfig {
                    reason: "hard cutoff is smaller than the seed clique degree",
                });
            }
        }
        Ok(())
    }

    /// Builds the DAPA overlay on top of `substrate`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if the substrate is smaller than the target
    /// overlay or the cutoff is inconsistent with `m` or the seed count.
    pub fn generate_on<R: Rng + ?Sized>(
        &self,
        substrate: &Graph,
        rng: &mut R,
    ) -> Result<DapaOverlay> {
        self.validate(substrate)?;
        let m = self.stubs.get();
        let n_s = substrate.node_count();

        let mut overlay = Graph::new();
        let mut substrate_nodes: Vec<NodeId> = Vec::with_capacity(self.overlay_nodes);
        // substrate node index -> overlay node id (if a member).
        let mut membership: Vec<Option<NodeId>> = vec![None; n_s];

        // Candidate pool of substrate nodes not yet in the overlay; uniform draws from this
        // pool are equivalent to the paper's "pick a random substrate node, skip members".
        let mut candidates: Vec<NodeId> = substrate.nodes().collect();

        // Bootstrap: `seeds` random substrate nodes, fully connected to each other.
        let mut seed_overlay_ids = Vec::with_capacity(self.seeds);
        for _ in 0..self.seeds {
            let idx = rng.gen_range(0..candidates.len());
            let substrate_node = candidates.swap_remove(idx);
            let overlay_id = overlay.add_node();
            membership[substrate_node.index()] = Some(overlay_id);
            substrate_nodes.push(substrate_node);
            seed_overlay_ids.push(overlay_id);
        }
        for (i, &a) in seed_overlay_ids.iter().enumerate() {
            for &b in &seed_overlay_ids[i + 1..] {
                overlay.add_edge(a, b)?;
            }
        }

        let mut failed_discoveries = 0usize;
        let mut consecutive_failures = 0usize;
        let mut stalled = false;

        while overlay.node_count() < self.overlay_nodes {
            if candidates.is_empty() {
                stalled = true;
                break;
            }
            // Give up when no remaining candidate appears able to discover a peer; this can
            // only happen on substrates whose giant component is smaller than the target
            // overlay.
            if consecutive_failures > 20 * candidates.len() + 100 {
                stalled = true;
                break;
            }

            let pick = rng.gen_range(0..candidates.len());
            let candidate = candidates[pick];

            // Discovery flood: overlay peers within tau_sub substrate hops whose degree is
            // still below the cutoff (Alg. 4, lines 4-10).
            let horizon = traversal::horizon(substrate, candidate, self.tau_sub);
            let peers_in_horizon: Vec<NodeId> = horizon
                .iter()
                .filter_map(|&(substrate_peer, _)| membership[substrate_peer.index()])
                .filter(|&overlay_peer| self.cutoff.admits(overlay.degree(overlay_peer)))
                .collect();

            if peers_in_horizon.is_empty() {
                failed_discoveries += 1;
                consecutive_failures += 1;
                continue;
            }
            consecutive_failures = 0;
            candidates.swap_remove(pick);

            let overlay_id = overlay.add_node();
            membership[candidate.index()] = Some(overlay_id);
            substrate_nodes.push(candidate);

            if peers_in_horizon.len() <= m {
                // Short horizon: link to every visible peer (Alg. 4, lines 11-15).
                for &peer in &peers_in_horizon {
                    overlay.add_edge(overlay_id, peer)?;
                }
            } else {
                // Preferential attachment restricted to the horizon (Alg. 4, lines 17-29).
                let mut filled = 0usize;
                while filled < m {
                    match self.pick_peer(&overlay, &peers_in_horizon, overlay_id, rng) {
                        Some(peer) => {
                            overlay.add_edge(overlay_id, peer)?;
                            filled += 1;
                        }
                        None => break, // every horizon peer already linked or saturated
                    }
                }
            }
        }

        Ok(DapaOverlay {
            graph: overlay,
            substrate_nodes,
            failed_discoveries,
            stalled,
        })
    }

    /// Degree-preferential draw over the horizon peers, with the paper's rejection rule
    /// `rnd < k_peer / k_total`, falling back to a uniform eligible peer when the attempt
    /// budget is exhausted.
    ///
    /// `horizon_peers` holds only peers the cutoff admitted at discovery. During one join
    /// a horizon peer's degree grows only by its link to `joining`, which
    /// `contains_edge` then skips, so no peer this draws can be saturated.
    fn pick_peer<R: Rng + ?Sized>(
        &self,
        overlay: &Graph,
        horizon_peers: &[NodeId],
        joining: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        let k_total = overlay.total_degree().max(1);
        for _ in 0..self.max_attempts_per_stub {
            let peer = horizon_peers[rng.gen_range(0..horizon_peers.len())];
            if overlay.contains_edge(joining, peer) {
                continue;
            }
            let k = overlay.degree(peer);
            if rng.gen::<f64>() < k as f64 / k_total as f64 {
                return Some(peer);
            }
        }
        // Budget exhausted (tiny horizon degrees versus a large overlay): fall back to a
        // uniform draw over the still-unlinked horizon peers so the join terminates.
        let eligible: Vec<NodeId> = horizon_peers
            .iter()
            .copied()
            .filter(|&p| !overlay.contains_edge(joining, p))
            .collect();
        if eligible.is_empty() {
            None
        } else {
            Some(eligible[rng.gen_range(0..eligible.len())])
        }
    }
}

/// A [`TopologyGenerator`] that builds a geometric-random-network substrate internally and
/// runs DAPA on it, matching the paper's experimental setup (`N_S = 2 N_O`, `k̄ = 10`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DapaOverGrn {
    dapa: DiscoverAndAttempt,
    substrate_nodes: usize,
    substrate_average_degree: f64,
}

impl DapaOverGrn {
    /// Creates a DAPA-over-GRN configuration with the paper's defaults: a substrate of
    /// `2 × overlay_nodes` nodes and average degree 10.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`DiscoverAndAttempt::new`].
    pub fn new(overlay_nodes: usize, m: usize, tau_sub: u32) -> Result<Self> {
        Ok(DapaOverGrn {
            dapa: DiscoverAndAttempt::new(overlay_nodes, m, tau_sub)?,
            substrate_nodes: overlay_nodes * 2,
            substrate_average_degree: 10.0,
        })
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.dapa = self.dapa.with_cutoff(cutoff);
        self
    }

    /// Overrides the substrate size (default `2 × overlay_nodes`).
    pub fn with_substrate_nodes(mut self, nodes: usize) -> Self {
        self.substrate_nodes = nodes;
        self
    }

    /// Overrides the substrate average degree (default 10).
    pub fn with_substrate_average_degree(mut self, k_bar: f64) -> Self {
        self.substrate_average_degree = k_bar;
        self
    }

    /// Returns the inner DAPA configuration.
    pub fn dapa(&self) -> &DiscoverAndAttempt {
        &self.dapa
    }
}

/// A [`TopologyGenerator`] that builds a two-dimensional torus mesh substrate internally
/// and runs DAPA on it — the paper's alternative substrate ("a two-dimensional regular
/// network (mesh with nodes connected to four neighbors in four different directions)",
/// §IV-B).
///
/// The mesh is the extreme-locality substrate: every node sees exactly four neighbors, so
/// the horizon within `τ_sub` hops grows only quadratically (versus exponentially on the
/// GRN), which makes the exponential-to-power-law transition of Fig. 4 happen at larger
/// `τ_sub` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DapaOverMesh {
    dapa: DiscoverAndAttempt,
    side: usize,
}

impl DapaOverMesh {
    /// Creates a DAPA-over-mesh configuration whose torus substrate holds at least
    /// `2 × overlay_nodes` nodes (the paper's substrate-to-overlay ratio).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`DiscoverAndAttempt::new`].
    pub fn new(overlay_nodes: usize, m: usize, tau_sub: u32) -> Result<Self> {
        let dapa = DiscoverAndAttempt::new(overlay_nodes, m, tau_sub)?;
        let side = ((2 * overlay_nodes) as f64).sqrt().ceil().max(3.0) as usize;
        Ok(DapaOverMesh { dapa, side })
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.dapa = self.dapa.with_cutoff(cutoff);
        self
    }

    /// Overrides the side length of the square torus substrate (default
    /// `ceil(sqrt(2 × overlay_nodes))`, minimum 3).
    pub fn with_side(mut self, side: usize) -> Self {
        self.side = side.max(3);
        self
    }

    /// Returns the side length of the torus substrate.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Returns the inner DAPA configuration.
    pub fn dapa(&self) -> &DiscoverAndAttempt {
        &self.dapa
    }
}

impl TopologyGenerator for DapaOverMesh {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        let substrate = sfo_graph::generators::mesh_2d(sfo_graph::generators::MeshConfig::torus(
            self.side, self.side,
        ))?;
        let overlay = self.dapa.generate_on(&substrate, rng)?;
        Ok(overlay.graph)
    }

    fn locality(&self) -> Locality {
        Locality::Local
    }

    fn name(&self) -> &'static str {
        "DAPA-mesh"
    }

    fn target_nodes(&self) -> usize {
        self.dapa.overlay_nodes
    }
}

impl TopologyGenerator for DapaOverGrn {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        let grn = GeometricRandomNetwork::with_average_degree(
            self.substrate_nodes,
            self.substrate_average_degree,
        )?;
        let (substrate, _) = grn.generate(rng)?;
        let overlay = self.dapa.generate_on(&substrate, rng)?;
        Ok(overlay.graph)
    }

    fn locality(&self) -> Locality {
        Locality::Local
    }

    fn name(&self) -> &'static str {
        "DAPA"
    }

    fn target_nodes(&self) -> usize {
        self.dapa.overlay_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::{mesh_2d, MeshConfig};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn grn_substrate(nodes: usize, seed: u64) -> Graph {
        let mut r = rng(seed);
        GeometricRandomNetwork::with_average_degree(nodes, 10.0)
            .unwrap()
            .generate(&mut r)
            .unwrap()
            .0
    }

    #[test]
    fn configuration_validation() {
        assert!(DiscoverAndAttempt::new(2, 1, 2).is_err());
        assert!(DiscoverAndAttempt::new(100, 0, 2).is_err());
        assert!(DiscoverAndAttempt::new(100, 1, 0).is_err());
        let substrate = grn_substrate(200, 1);
        let too_small_substrate = DiscoverAndAttempt::new(500, 1, 2)
            .unwrap()
            .generate_on(&substrate, &mut rng(1));
        assert!(too_small_substrate.is_err());
        let bad_cutoff = DiscoverAndAttempt::new(100, 3, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(2))
            .generate_on(&substrate, &mut rng(1));
        assert!(bad_cutoff.is_err());
        let bad_seed_cutoff = DiscoverAndAttempt::new(100, 1, 2)
            .unwrap()
            .with_seeds(6)
            .with_cutoff(DegreeCutoff::hard(3))
            .generate_on(&substrate, &mut rng(1));
        assert!(bad_seed_cutoff.is_err());
    }

    #[test]
    fn builds_overlay_of_requested_size_on_grn() {
        let substrate = grn_substrate(2_000, 2);
        let overlay = DiscoverAndAttempt::new(1_000, 2, 4)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(40))
            .generate_on(&substrate, &mut rng(3))
            .unwrap();
        assert_eq!(overlay.peer_count(), 1_000);
        assert!(!overlay.stalled);
        assert_eq!(overlay.substrate_nodes.len(), 1_000);
        assert!(overlay.graph.max_degree().unwrap() <= 40);
        overlay.graph.assert_consistent();
        // Every overlay peer maps to a distinct substrate node.
        let mut mapped: Vec<NodeId> = overlay.substrate_nodes.clone();
        mapped.sort_unstable();
        mapped.dedup();
        assert_eq!(mapped.len(), 1_000);
    }

    #[test]
    fn works_on_a_mesh_substrate() {
        let substrate = mesh_2d(MeshConfig::torus(40, 40)).unwrap();
        let overlay = DiscoverAndAttempt::new(600, 1, 6)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(20))
            .generate_on(&substrate, &mut rng(5))
            .unwrap();
        assert_eq!(overlay.peer_count(), 600);
        assert!(overlay.graph.max_degree().unwrap() <= 20);
    }

    #[test]
    fn minimum_degree_can_fall_below_m() {
        // Paper, Fig. 4(d-f): short horizons leave some peers with fewer than m links.
        let substrate = grn_substrate(2_000, 7);
        let overlay = DiscoverAndAttempt::new(1_000, 3, 2)
            .unwrap()
            .generate_on(&substrate, &mut rng(7))
            .unwrap();
        assert!(
            overlay.graph.min_degree().unwrap() >= 1,
            "every member found at least one peer"
        );
        let below_m = overlay.graph.degrees().iter().filter(|&&k| k < 3).count();
        assert!(
            below_m > 0,
            "with tau_sub=2 and m=3 some peers should be short of stubs"
        );
    }

    #[test]
    fn larger_tau_sub_produces_heavier_tails() {
        // Paper, Fig. 4: small tau_sub gives an exponential-like distribution, larger
        // tau_sub recovers a power law, i.e. larger hubs for the same overlay size.
        let substrate = grn_substrate(2_000, 11);
        let short = DiscoverAndAttempt::new(1_000, 1, 2)
            .unwrap()
            .generate_on(&substrate, &mut rng(11))
            .unwrap();
        let long = DiscoverAndAttempt::new(1_000, 1, 20)
            .unwrap()
            .generate_on(&substrate, &mut rng(11))
            .unwrap();
        assert!(
            long.graph.max_degree().unwrap() > short.graph.max_degree().unwrap(),
            "tau_sub=20 max degree {} should exceed tau_sub=2 max degree {}",
            long.graph.max_degree().unwrap(),
            short.graph.max_degree().unwrap()
        );
    }

    #[test]
    fn hard_cutoff_is_respected_even_with_long_horizons() {
        let substrate = grn_substrate(1_500, 13);
        let overlay = DiscoverAndAttempt::new(700, 2, 10)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(10))
            .generate_on(&substrate, &mut rng(13))
            .unwrap();
        assert!(overlay.graph.max_degree().unwrap() <= 10);
        let hist = sfo_graph::degree_histogram(&overlay.graph);
        assert!(hist.count(10) > 0, "the cutoff bin should accumulate nodes");
    }

    #[test]
    fn stalls_gracefully_on_a_fragmented_substrate() {
        // A substrate of isolated nodes: only the seed clique can ever exist, so the build
        // stalls instead of looping forever.
        let substrate = Graph::with_nodes(50);
        let overlay = DiscoverAndAttempt::new(20, 1, 3)
            .unwrap()
            .generate_on(&substrate, &mut rng(17))
            .unwrap();
        assert!(overlay.stalled);
        assert!(overlay.peer_count() < 20);
        assert!(overlay.failed_discoveries > 0);
    }

    #[test]
    fn trait_object_usage_over_grn() {
        let gen: Box<dyn TopologyGenerator> = Box::new(
            DapaOverGrn::new(400, 2, 4)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(40)),
        );
        assert_eq!(gen.name(), "DAPA");
        assert_eq!(gen.locality(), Locality::Local);
        assert_eq!(gen.target_nodes(), 400);
        let g = gen.generate(&mut rng(19)).unwrap();
        assert_eq!(g.node_count(), 400);
        assert!(g.max_degree().unwrap() <= 40);
    }

    #[test]
    fn trait_object_usage_over_mesh() {
        let gen: Box<dyn TopologyGenerator> = Box::new(
            DapaOverMesh::new(300, 1, 6)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(15)),
        );
        assert_eq!(gen.name(), "DAPA-mesh");
        assert_eq!(gen.locality(), Locality::Local);
        assert_eq!(gen.target_nodes(), 300);
        let g = gen.generate(&mut rng(37)).unwrap();
        assert_eq!(g.node_count(), 300);
        assert!(g.max_degree().unwrap() <= 15);
        g.assert_consistent();
    }

    #[test]
    fn mesh_wrapper_sizes_its_substrate_and_accepts_overrides() {
        let gen = DapaOverMesh::new(200, 1, 4).unwrap();
        // ceil(sqrt(400)) = 20
        assert_eq!(gen.side(), 20);
        assert_eq!(gen.dapa().overlay_nodes(), 200);
        let widened = gen.with_side(25);
        assert_eq!(widened.side(), 25);
        let tiny = DapaOverMesh::new(3, 1, 2).unwrap();
        assert!(tiny.side() >= 3, "torus substrate needs side >= 3");
    }

    #[test]
    fn mesh_substrate_horizons_grow_slower_than_grn_horizons() {
        // The same tau_sub sees far fewer peers on a 4-regular mesh than on a k̄=10 GRN, so
        // the mesh overlay's largest hub is no larger than the GRN overlay's.
        let grn = DapaOverGrn::new(500, 1, 4).unwrap();
        let mesh = DapaOverMesh::new(500, 1, 4).unwrap();
        let g_grn = TopologyGenerator::generate(&grn, &mut rng(41)).unwrap();
        let g_mesh = TopologyGenerator::generate(&mesh, &mut rng(41)).unwrap();
        assert!(
            g_mesh.max_degree().unwrap() <= g_grn.max_degree().unwrap(),
            "mesh hub {} should not exceed GRN hub {}",
            g_mesh.max_degree().unwrap(),
            g_grn.max_degree().unwrap()
        );
    }

    #[test]
    fn grn_wrapper_accessors_and_overrides() {
        let gen = DapaOverGrn::new(300, 1, 6)
            .unwrap()
            .with_substrate_nodes(900)
            .with_substrate_average_degree(8.0);
        assert_eq!(gen.dapa().overlay_nodes(), 300);
        assert_eq!(gen.dapa().tau_sub(), 6);
        assert_eq!(gen.dapa().stubs(), 1);
        let g = TopologyGenerator::generate(&gen, &mut rng(23)).unwrap();
        assert_eq!(g.node_count(), 300);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let substrate = grn_substrate(1_000, 29);
        let gen = DiscoverAndAttempt::new(500, 2, 4)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(30));
        let a = gen.generate_on(&substrate, &mut rng(31)).unwrap();
        let b = gen.generate_on(&substrate, &mut rng(31)).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.substrate_nodes, b.substrate_nodes);
    }
}
