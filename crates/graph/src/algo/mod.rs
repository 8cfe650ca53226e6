//! Local (single-machine, plain-text) shortest-path algorithms: Dijkstra
//! ([`spsp`], [`sssp`], [`sssp_until`], [`k_nearest`]) and the resumable,
//! distance-only, A\*-ordered [`ResumableDijkstra`].
//!
//! These serve three roles in the FedRoad reproduction:
//! 1. correctness oracles for the federated algorithms (a federated query on
//!    the joint weights must equal a local query on the averaged weights),
//! 2. the per-silo local searches inside the Fed-AMPS lower bound
//!    ([`ResumableDijkstra`], settled only as far as the query reads it and
//!    aimed at the query's other endpoint), and landmark tables, and
//! 3. workload generation and non-federated baselines in the experiment
//!    harness.

mod dijkstra;

pub use dijkstra::{k_nearest, spsp, sssp, sssp_until, ResumableDijkstra, SsspResult};
