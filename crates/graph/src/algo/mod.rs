//! Local (single-machine, plain-text) shortest-path algorithms.
//!
//! These serve three roles in the FedRoad reproduction:
//! 1. correctness oracles for the federated algorithms (a federated query on
//!    the joint weights must equal a local query on the averaged weights),
//! 2. the per-silo local searches inside the Fed-AMPS lower bound, and
//! 3. non-federated baselines in the experiment harness.

mod astar;
mod bidirectional;
mod dijkstra;

pub use astar::{astar, astar_counting, Potential, ZeroPotential};
pub use bidirectional::bidirectional_spsp;
pub use dijkstra::{k_nearest, spsp, sssp, sssp_until, ResumableDijkstra, SsspResult};
