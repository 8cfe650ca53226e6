//! Executable form of the paper's §VII security argument.
//!
//! The simulation-based proof says: a silo's view of a federated query can
//! be generated by a simulator that knows only (a) public information and
//! the silo's own data and (b) the revealed Fed-SAC comparison bits. We
//! check the load-bearing half mechanically: re-running a query with a
//! comparator that *replays the recorded bits without ever reading key
//! values* must reproduce the identical result, consuming exactly the
//! recorded number of comparisons. Combined with `fedroad-mpc`'s audits
//! (message-kind allow-list, traffic profile, masked-opening uniformity),
//! this pins the implementation to the claimed leakage: comparison bits,
//! nothing else.

use crate::engine::QueryEngine;
use crate::federation::Federation;
use crate::partials::{ReplayComparator, SacComparator};
use fedroad_graph::VertexId;
use fedroad_mpc::{audit_engine, audit_masked_uniformity, AuditError, BitReplaySimulator};

/// Outcome of a security verification run.
#[derive(Debug)]
pub struct SecurityReport {
    /// The real query and the bit-replay simulation produced identical
    /// paths.
    pub simulation_faithful: bool,
    /// The simulation consumed exactly the recorded comparisons.
    pub bits_fully_consumed: bool,
    /// Structural audit of the engine's traffic (message kinds + counts).
    pub traffic_audit: Result<(), AuditError>,
    /// Statistical audit of the masked openings.
    pub mask_audit: Result<(), AuditError>,
    /// Fed-SAC invocations the query used.
    pub invocations: u64,
}

impl SecurityReport {
    /// All checks passed.
    pub fn passed(&self) -> bool {
        self.simulation_faithful
            && self.bits_fully_consumed
            && self.traffic_audit.is_ok()
            && self.mask_audit.is_ok()
    }
}

/// Runs an SPSP query under a fresh transcript, then replays it through a
/// [`ReplayComparator`] and audits the engine's traffic.
///
/// Requires the federation's engine to use the `Real` backend (the
/// `Modeled` backend has no masked openings to audit; its traffic audit
/// still passes).
pub fn verify_spsp_security(
    engine: &QueryEngine,
    fed: &mut Federation,
    s: VertexId,
    t: VertexId,
) -> SecurityReport {
    let snapshot = engine.snapshot(fed);
    // 1. Real run with transcript recording.
    fed.engine_mut().enable_transcript();
    let real_path = snapshot
        .run_spsp(s, t, &mut SacComparator::new(fed.engine_mut()))
        .path;
    let transcript = fed
        .engine()
        .transcript()
        .expect("transcript enabled above")
        .clone();
    let invocations = transcript.revealed_bits.len() as u64;

    // 2. Simulation: same control flow driven by recorded bits only.
    let mut replay = ReplayComparator::new(BitReplaySimulator::from_transcript(&transcript));
    let sim_path = snapshot.run_spsp(s, t, &mut replay).path;

    // 3. Audits.
    let traffic_audit = audit_engine(fed.engine(), fed.engine().batch_count());
    let mask_audit = audit_masked_uniformity(&transcript);

    SecurityReport {
        simulation_faithful: real_path == sim_path,
        bits_fully_consumed: replay.remaining() == 0,
        traffic_audit,
        mask_audit,
        invocations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;
    use crate::federation::FederationConfig;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;

    fn make_fed(seed: u64) -> Federation {
        let g = grid_city(&GridCityParams::small(), seed);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, seed);
        Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Real,
                seed,
            },
        )
    }

    #[test]
    fn naive_dijk_query_is_simulatable() {
        let mut fed = make_fed(71);
        let engine = QueryEngine::build(&mut fed, Method::NaiveDijk.config());
        let report = verify_spsp_security(&engine, &mut fed, VertexId(0), VertexId(80));
        assert!(report.simulation_faithful, "simulation diverged");
        assert!(report.bits_fully_consumed);
        report.traffic_audit.as_ref().expect("traffic audit");
        assert!(report.invocations > 0);
    }

    #[test]
    fn full_fedroad_query_is_simulatable() {
        let mut fed = make_fed(73);
        let engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
        let report = verify_spsp_security(&engine, &mut fed, VertexId(5), VertexId(77));
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn alt_query_is_simulatable() {
        // Fed-ALT spends extra comparisons inside the potential; the replay
        // must consume those too.
        let mut fed = make_fed(75);
        let engine = QueryEngine::build(&mut fed, Method::FedShortcutAlt.config());
        let report = verify_spsp_security(&engine, &mut fed, VertexId(3), VertexId(55));
        assert!(report.simulation_faithful);
        assert!(report.bits_fully_consumed);
    }
}
