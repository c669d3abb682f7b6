//! # sfo-core
//!
//! Scale-free overlay topology generators with hard degree cutoffs, implementing the four
//! construction mechanisms studied in *"Scale-Free Overlay Topologies with Hard Cutoffs for
//! Unstructured Peer-to-Peer Networks"* (Guclu & Yuksel, ICDCS 2007):
//!
//! | Mechanism | Module | Information used | Paper reference |
//! |---|---|---|---|
//! | Preferential Attachment (PA) | [`pa`] | global | Alg. 1, §III-B |
//! | Configuration Model (CM) | `cm` | global | Alg. 2, §III-C |
//! | Hop-and-Attempt PA (HAPA) | `hapa` | partial | Alg. 3, §IV-A |
//! | Discover-and-Attempt PA (DAPA) | `dapa` | local | Alg. 4, §IV-B |
//!
//! All four enforce an optional *hard cutoff* `k_c` on node degree: a peer never accepts
//! more than `k_c` links, modelling peers that refuse to store large neighbor tables. The
//! `cutoff` module provides the natural-cutoff theory the paper compares against, and
//! `powerlaw` samples the bounded power-law degree sequences the configuration model
//! needs.
//!
//! Beside them, `ucm` implements the uncorrelated configuration model (ref. \[59\]), the
//! configuration model with the structural cutoff `k_s ∼ √(⟨k⟩ N)`.
//!
//! # Example
//!
//! ```
//! use sfo_core::{pa::PreferentialAttachment, DegreeCutoff, TopologyGenerator};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), sfo_core::TopologyError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let generator = PreferentialAttachment::new(1_000, 2)?.with_cutoff(DegreeCutoff::hard(20));
//! let graph = generator.generate(&mut rng)?;
//! assert_eq!(graph.node_count(), 1_000);
//! assert!(graph.max_degree().unwrap() <= 20);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cm;
mod config;
mod cutoff;
mod dapa;
mod error;
mod generator;
mod hapa;
mod powerlaw;
mod ucm;

pub mod pa;

pub use cm::{CmOutcome, ConfigurationModel};
pub use config::{DegreeCutoff, StubCount};
pub use cutoff::{diameter_class, pa_natural_cutoff, predicted_diameter, DiameterClass};
pub use dapa::{DapaOverGrn, DapaOverMesh, DapaOverlay, DiscoverAndAttempt};
pub use error::TopologyError;
pub use generator::{DynTopologyGenerator, Locality, TopologyGenerator};
pub use hapa::HopAndAttempt;
pub use powerlaw::BoundedPowerLaw;
pub use ucm::{UcmOutcome, UncorrelatedConfigurationModel};

/// Convenience result alias used throughout this crate.
pub type Result<T, E = TopologyError> = std::result::Result<T, E>;
