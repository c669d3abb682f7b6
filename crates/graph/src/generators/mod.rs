//! Substrate-network generators.
//!
//! The DAPA topology-construction mechanism (paper, §IV-B) builds the overlay on top of a
//! pre-existing *substrate network* `G_S`. The paper uses a geometric random network (GRN)
//! with a giant component as the substrate because it is "topologically closer to real life
//! nodes in the Internet than a regular or highly random network", and mentions a
//! two-dimensional regular mesh as an alternative. Both are provided here, together with
//! classic random-graph generators used for baselines and tests.

mod classic;
mod geometric;
mod mesh;
mod structured;

pub use classic::{complete_graph, ring_graph};
pub use geometric::{GeometricRandomNetwork, Point};
pub use mesh::{mesh_2d, MeshConfig};
pub use structured::{path_graph, random_regular, star_graph};
