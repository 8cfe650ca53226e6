//! # fedroad-mpc — secret-sharing MPC engine for FedRoad
//!
//! A from-scratch, semi-honest secure multi-party computation substrate
//! standing in for MP-SPDZ's "Temi with edaBits" configuration used by the
//! paper (§II-B, §VIII-A). It provides exactly one high-level operation,
//! because that is all FedRoad needs: **Fed-SAC**, the federated
//! sum-and-compare that aggregates per-silo partial path costs and reveals
//! only the comparison bit between the two joint costs.
//!
//! Layering (bottom up):
//!
//! * [`net`] — an in-process full-mesh party network with per-round
//!   byte/message accounting and the paper's `R·(L + S/B)` time model.
//! * [`dealer`] — the one trusted dealer: edaBits and packed binary
//!   Beaver triples (the Temi offline phase's stand-in), which every
//!   kernel draws inline, on the calling thread, in a per-seed
//!   deterministic order.
//! * [`block`] — flat party-major struct-of-arrays lane buffers
//!   ([`ShareBlock`]) backing the batched kernels.
//! * [`binary`] — XOR-shared word gates; Beaver AND; a Kogge–Stone adder.
//! * [`compare`] — masked-opening sign extraction (`8` online rounds).
//! * [`duels`] — Fed-SAC input batches: the [`Duels`] read trait and the
//!   flat, reusable [`DuelBuf`].
//! * [`fedsac`] — the [`SacEngine`] with `Real` and
//!   `Modeled` backends producing identical results *and* identical cost
//!   statistics (pinned by tests).
//! * [`audit`] — the structural half of the paper's §VII simulation-based
//!   security argument, enforced mechanically.
//! * [`threaded`] — a coordinator-free execution of the same protocol with
//!   one real thread per party (pinned equal to the lockstep engine).
//! * [`scheduler`] — a cross-query submission queue + round scheduler
//!   coalescing pending comparisons from many in-flight queries into one
//!   protocol execution (the paper's `R·(L + S/B)` lever at serving time).
//!
//! ## Security model
//!
//! Semi-honest silos, no collusion with the dealer. Values are additively
//! shared over ℤ₂⁶⁴; partial path costs must stay below 2⁵⁴ so sums across
//! silos remain exact under two's-complement sign extraction (road-network
//! costs are orders of magnitude smaller). Malicious-security variants
//! would swap the dealer and opening phases, leaving this crate's API and
//! all of `fedroad-core` unchanged — mirroring the paper's remark that the
//! upper-layer algorithm is independent of the underlying protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Share material must never reach a console (fedroad-lint `no-debug-print`).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod audit;
pub mod binary;
pub mod block;
pub mod compare;
pub mod dealer;
pub mod duels;
pub mod error;
pub mod fedsac;
pub mod net;
pub mod scheduler;
pub mod threaded;

pub use audit::{
    audit_constant_trace, audit_engine, audit_masked_uniformity, trace_profile, AuditError,
    BitReplaySimulator, TraceProfile,
};
pub use block::{EdaBitBlock, ShareBlock, TripleBlock};
pub use duels::{DuelBuf, Duels};
pub use error::ProtocolError;
pub use fedsac::{SacBackend, SacEngine, SacStats, Transcript, FEDSAC_ROUNDS};
pub use net::{Mesh, MsgKind, NetStats, NetworkModel, PartyId};
pub use scheduler::{BatchScheduler, DuelTicket, SacSession, SchedulerStats};
pub use threaded::{run_comparisons, run_comparisons_with_fault, PartyFault};
