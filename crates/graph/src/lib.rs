//! # fedroad-graph — road-network substrate for FedRoad
//!
//! The public, non-secret layer of the FedRoad reproduction (ICDE 2025):
//! every traffic silo in a federation shares the road-network topology
//! `(V, E)`, the public static weight set `W0`, vertex coordinates — and
//! nothing else. This crate owns all of that plus the plain-text algorithms
//! the federated layer builds on:
//!
//! * [`Graph`]/[`GraphBuilder`] — immutable CSR road network with forward
//!   and backward adjacency.
//! * [`gen`] — deterministic synthetic road networks standing in for the
//!   paper's CAL/BJ/FLA datasets; [`dimacs`] parses the real ones.
//! * [`traffic`] — congestion models generating per-silo private weight
//!   sets, and the data-volume observation model behind the paper's Fig. 1.
//! * [`algo`] — Dijkstra reference searches and the resumable,
//!   distance-only, A\*-ordered [`algo::ResumableDijkstra`] behind the
//!   Fed-AMPS bound.
//! * [`ch`] — the **weight-independent** contraction order shared by all
//!   silos: it eliminates only the vertices the index contracts and ranks
//!   the uncontracted core after them by id.
//! * [`landmarks`] — landmark selection, landmark distance tables, and the
//!   vertex-major [`landmarks::LandmarkBounds`] the [`Graph`] holds.
//!
//! Nothing in this crate touches secret data; per-silo weight vectors are
//! plain `Vec<Weight>` values whose custody is managed by `fedroad-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod ch;
pub mod dimacs;
pub mod gen;
mod graph;
mod ids;
pub mod landmarks;
mod path;
pub mod traffic;

pub use graph::{Arc, Direction, Graph, GraphBuilder};
pub use ids::{ArcId, Coord, VertexId, Weight, INFINITY};
pub use path::{path_from_parents, Path};
