//! The traffic-data federation: shared topology, private silo weights, and
//! the MPC engine binding them together.

use fedroad_graph::{ArcId, Graph, Weight};
use fedroad_mpc::{SacBackend, SacEngine, SacStats};
use std::sync::Arc;

/// One silo's private real-time weight observation, indexed by arc id.
///
/// The newtype marks custody: production code never averages these across
/// silos (that is what [`crate::oracle::JointOracle`] exists for, and it is
/// explicitly a test/evaluation tool).
#[derive(Clone, Debug)]
pub struct SiloWeights(Vec<Weight>);

impl SiloWeights {
    /// Wraps a weight vector (one entry per arc of the shared graph).
    pub fn new(weights: Vec<Weight>) -> Self {
        SiloWeights(weights)
    }

    /// The silo-local weight of arc `a` — only meaningful *inside* this
    /// silo's local computations (local searches, partial-cost sums).
    #[inline]
    pub fn weight(&self, a: fedroad_graph::ArcId) -> Weight {
        self.0[a.index()]
    }

    /// The full local weight slice, for silo-local algorithms.
    #[inline]
    pub fn as_slice(&self) -> &[Weight] {
        &self.0
    }

    /// Number of arcs covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty (a zero-arc graph).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Configuration of a [`Federation`].
#[derive(Clone, Copy, Debug)]
pub struct FederationConfig {
    /// Which Fed-SAC backend to run (`Real` executes the secret-sharing
    /// protocol; `Modeled` computes directly with identical accounting).
    pub backend: SacBackend,
    /// Seed for all protocol randomness.
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            backend: SacBackend::Real,
            seed: 0xFED0_0001,
        }
    }
}

/// A road-network traffic data federation: `P` silos sharing the topology
/// `(V, E)` and public static weights `W0`, each holding private weights.
///
/// The graph and the silo weights sit behind `Arc`s so query snapshots
/// share them instead of copying; weight writers copy on write, and only
/// when a weight actually changes.
///
/// ```
/// use fedroad_core::{Federation, FederationConfig};
/// use fedroad_graph::gen::{grid_city, GridCityParams};
/// use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
///
/// let g = grid_city(&GridCityParams::small(), 1);
/// let silos = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 1);
/// let fed = Federation::new(g, silos, FederationConfig::default());
/// assert_eq!(fed.num_silos(), 3);
/// ```
#[derive(Debug)]
pub struct Federation {
    pub(crate) graph: Arc<Graph>,
    pub(crate) silos: Arc<Vec<SiloWeights>>,
    engine: SacEngine,
}

impl Federation {
    /// Assembles a federation. Every silo's weight vector must cover every
    /// arc of the shared graph.
    ///
    /// # Panics
    /// Panics when fewer than two silos are supplied or a weight vector
    /// has the wrong length.
    pub fn new(graph: Graph, silo_weights: Vec<Vec<Weight>>, config: FederationConfig) -> Self {
        assert!(silo_weights.len() >= 2, "a federation needs ≥ 2 silos");
        for (p, w) in silo_weights.iter().enumerate() {
            assert_eq!(
                w.len(),
                graph.num_arcs(),
                "silo {p} weight vector does not cover the shared graph"
            );
        }
        let engine = SacEngine::new(silo_weights.len(), config.backend, config.seed);
        Federation {
            graph: Arc::new(graph),
            silos: Arc::new(silo_weights.into_iter().map(SiloWeights::new).collect()),
            engine,
        }
    }

    /// Number of silos `P`.
    pub fn num_silos(&self) -> usize {
        self.silos.len()
    }

    /// The shared public road network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Silo `p`'s private weights (for silo-local computation).
    pub fn silo(&self, p: usize) -> &SiloWeights {
        &self.silos[p]
    }

    /// All silos (for per-silo preprocessing loops).
    pub fn silos(&self) -> &[SiloWeights] {
        &self.silos
    }

    /// Per-silo partial weights of arc `a` as a vector — the unit the
    /// federated search accumulates.
    pub fn partial_weights(&self, a: fedroad_graph::ArcId) -> Vec<Weight> {
        self.silos.iter().map(|s| s.weight(a)).collect()
    }

    /// The Fed-SAC engine (mutably, to run comparisons).
    pub fn engine_mut(&mut self) -> &mut SacEngine {
        &mut self.engine
    }

    /// The Fed-SAC engine (read-only, for statistics).
    pub fn engine(&self) -> &SacEngine {
        &self.engine
    }

    /// Splits the federation into the pieces a search needs simultaneously:
    /// graph + silos (immutable) and the engine (mutable).
    pub fn split_mut(&mut self) -> (&Graph, &[SiloWeights], &mut SacEngine) {
        (&self.graph, &self.silos, &mut self.engine)
    }

    /// Engine statistics since construction. The counters are monotonic,
    /// so before/after snapshots around a query always subtract to a valid
    /// per-query delta.
    pub fn sac_cumulative_stats(&self) -> SacStats {
        self.engine.cumulative_stats()
    }

    /// Replaces silo `p`'s weights (real-time traffic refresh). The graph
    /// and other silos are untouched; indices must be updated separately
    /// (see [`crate::fedch`]).
    pub fn update_silo_weights(&mut self, p: usize, weights: Vec<Weight>) {
        assert_eq!(weights.len(), self.graph.num_arcs());
        if self.silos[p].0 != weights {
            Arc::make_mut(&mut self.silos)[p] = SiloWeights::new(weights);
        }
    }

    /// Applies a stream of per-silo point updates in place — the
    /// live-traffic path, which changes a handful of arcs per tick and
    /// must not clone whole weight vectors. Returns the distinct arcs
    /// whose weight actually changed on any silo (deduplicated, ascending),
    /// ready to hand to
    /// [`QueryEngine::update_index`](crate::engine::QueryEngine::update_index).
    pub fn apply_weight_updates(&mut self, updates: &[crate::fedch::WeightChange]) -> Vec<ArcId> {
        let mut changed = std::collections::BTreeSet::new();
        for u in updates {
            assert!(u.silo < self.silos.len(), "silo out of range");
            assert!(u.arc.index() < self.graph.num_arcs(), "arc out of range");
            if self.silos[u.silo].weight(u.arc) != u.weight {
                Arc::make_mut(&mut self.silos)[u.silo].0[u.arc.index()] = u.weight;
                changed.insert(u.arc);
            }
        }
        changed.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_graph::ArcId;

    fn small_fed() -> Federation {
        let g = grid_city(&GridCityParams::small(), 2);
        let silos = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 2);
        Federation::new(g, silos, FederationConfig::default())
    }

    #[test]
    fn partial_weights_line_up_with_silos() {
        let fed = small_fed();
        let a = ArcId(0);
        let parts = fed.partial_weights(a);
        assert_eq!(parts.len(), 3);
        for (p, &w) in parts.iter().enumerate() {
            assert_eq!(w, fed.silo(p).weight(a));
        }
    }

    #[test]
    #[should_panic(expected = "≥ 2 silos")]
    fn single_silo_rejected() {
        let g = grid_city(&GridCityParams::small(), 2);
        let w = g.static_weights().to_vec();
        Federation::new(g, vec![w], FederationConfig::default());
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn short_weight_vector_rejected() {
        let g = grid_city(&GridCityParams::small(), 2);
        let w = g.static_weights().to_vec();
        let mut w2 = w.clone();
        w2.pop();
        Federation::new(g, vec![w, w2], FederationConfig::default());
    }

    #[test]
    fn silo_weight_update_swaps_one_silo() {
        let mut fed = small_fed();
        let before = fed.silo(1).weight(ArcId(0));
        let mut new_w = fed.silo(1).as_slice().to_vec();
        new_w[0] = before + 100;
        fed.update_silo_weights(1, new_w);
        assert_eq!(fed.silo(1).weight(ArcId(0)), before + 100);
        assert_ne!(fed.silo(0).weight(ArcId(0)), before + 100);
    }
}
