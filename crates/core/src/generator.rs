//! The [`TopologyGenerator`] trait and the locality classification of Table II.

use crate::Result;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{CsrGraph, Graph};
use std::fmt;

/// How much information about the current overlay a construction mechanism needs when a
/// new peer joins (the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Locality {
    /// The joining peer needs global knowledge of the topology (all degrees, or the full
    /// degree sequence). PA and CM fall in this class.
    Global,
    /// The joining peer needs partial global knowledge (for example, the total degree of
    /// the network) but discovers candidate neighbors by local hopping. HAPA falls in this
    /// class.
    Partial,
    /// The joining peer uses only information reachable within a bounded local horizon of
    /// the substrate network. DAPA falls in this class.
    Local,
}

impl fmt::Display for Locality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locality::Global => write!(f, "global"),
            Locality::Partial => write!(f, "partial"),
            Locality::Local => write!(f, "local"),
        }
    }
}

/// A mechanism that constructs an overlay topology.
///
/// Implementations are deterministic given the random-number generator, so experiments can
/// be reproduced by seeding. The trait is object safe: the experiment harness stores
/// `Box<dyn TopologyGenerator>` values to sweep over mechanisms uniformly.
///
/// # Example
///
/// ```
/// use sfo_core::{pa::PreferentialAttachment, Locality, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let generator = PreferentialAttachment::new(200, 2)?;
/// assert_eq!(generator.locality(), Locality::Global);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let graph = generator.generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 200);
/// # Ok(())
/// # }
/// ```
pub trait TopologyGenerator {
    /// Generates one realization of the overlay topology.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TopologyError`] if the configuration is invalid or if hard cutoffs
    /// make it impossible to attach a node within the generator's attempt budget.
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph>;

    /// Generates one realization straight into its frozen form.
    ///
    /// The result equals `self.generate(rng)?.freeze()` — same topology, same neighbor
    /// order, same stream position afterwards — and that is the default. Generators
    /// that can build the CSR arrays without a mutable [`Graph`] override it;
    /// preferential attachment does. Callers that only read the realization (sweeps,
    /// snapshot builds, degree statistics) should call this.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`TopologyGenerator::generate`].
    fn generate_frozen(&self, rng: &mut dyn RngCore) -> Result<CsrGraph> {
        Ok(self.generate(rng)?.freeze())
    }

    /// Returns how much global information the mechanism requires (Table II).
    fn locality(&self) -> Locality;

    /// Returns a short human-readable name, used in experiment output ("PA", "CM", ...).
    fn name(&self) -> &'static str;

    /// Returns the number of nodes a generated overlay will contain.
    fn target_nodes(&self) -> usize;
}

/// A boxed, thread-safe [`TopologyGenerator`] trait object.
///
/// This is the currency of spec-driven layers (`sfo-scenario` and the experiment
/// harness): a declarative topology description is compiled into a
/// `DynTopologyGenerator` once, and everything downstream — realization loops, thread
/// fan-out, sweeps — works against the trait object instead of matching on concrete
/// generator types. All generators in this crate are plain-data configurations, so they
/// satisfy the `Send + Sync` bounds automatically.
pub type DynTopologyGenerator = Box<dyn TopologyGenerator + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyn_generator_is_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DynTopologyGenerator>();
    }

    #[test]
    fn locality_display() {
        assert_eq!(Locality::Global.to_string(), "global");
        assert_eq!(Locality::Partial.to_string(), "partial");
        assert_eq!(Locality::Local.to_string(), "local");
    }

    #[test]
    fn trait_is_object_safe() {
        fn assert_object_safe(_: Option<&dyn TopologyGenerator>) {}
        assert_object_safe(None);
    }
}
