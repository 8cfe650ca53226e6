//! The contraction order of the paper's federated shortcut index (§IV).
//!
//! [`contraction_order`] is a **weight-independent** vertex ordering. The
//! paper requires the contracted vertex set/order to be "independent of
//! the edge weights" so every silo derives it locally from the public
//! topology with zero communication. We use minimum-degree simulation
//! with deterministic tie-breaking, run only as far as the index
//! contracts: the vertices left in the uncontracted core are ranked after
//! the contracted ones in ascending id, without being eliminated.
//! `fedroad-core`'s `FedChTopology` contracts the graph in this order,
//! witness-free, to build the customizable contraction hierarchy the
//! federated queries run on.

use crate::graph::Graph;
use crate::ids::VertexId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes a weight-independent contraction order from the public topology,
/// leaving `core_size` vertices uncontracted.
///
/// Simulated minimum-degree elimination: repeatedly contract the vertex with
/// the smallest current degree (ties broken by a deterministic hash of the
/// vertex id), inserting topological fill-in edges between its neighbours,
/// until `n − core_size` vertices are contracted. The remaining core is
/// ranked after them in ascending vertex id: only the order of the
/// contracted vertices shapes the shortcut index, so eliminating the core —
/// where the fill-in is densest — would be wasted work. Elimination is
/// greedy and sequential, so the contracted prefix is the same for every
/// `core_size` that contracts at least as many vertices.
///
/// Returns the vertices in contraction order (index = rank). Every silo
/// calling this with the same graph and core size gets the same order.
///
/// # Panics
///
/// If `core_size` exceeds the number of vertices.
pub fn contraction_order(g: &Graph, core_size: usize) -> Vec<VertexId> {
    let n = g.num_vertices();
    assert!(core_size <= n, "core of {core_size} exceeds {n} vertices");
    let contract = n - core_size;
    // Undirected neighbour sets (ignoring weights and direction).
    let mut adj: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); n];
    for v in g.vertices() {
        for arc in g.out_arcs(v) {
            if arc.head != v {
                adj[v.index()].insert(arc.head.0);
                adj[arc.head.index()].insert(v.0);
            }
        }
    }

    let tie = |v: u32| -> u64 { (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (v as u64) };

    let mut heap: BinaryHeap<Reverse<(usize, u64, u32)>> = (0..n as u32)
        .map(|v| Reverse((adj[v as usize].len(), tie(v), v)))
        .collect();
    let mut contracted = vec![false; n];
    let mut order = Vec::with_capacity(n);

    while order.len() < contract {
        let Some(Reverse((deg, _, v))) = heap.pop() else {
            break;
        };
        if contracted[v as usize] {
            continue;
        }
        // Lazy key: re-push if the degree changed since insertion.
        let cur = adj[v as usize].len();
        if cur != deg {
            heap.push(Reverse((cur, tie(v), v)));
            continue;
        }
        contracted[v as usize] = true;
        order.push(VertexId(v));
        // Topological fill-in between remaining neighbours.
        let neigh: Vec<u32> = adj[v as usize]
            .iter()
            .copied()
            .filter(|&u| !contracted[u as usize])
            .collect();
        for &u in &neigh {
            adj[u as usize].remove(&v);
        }
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                let (a, b) = (neigh[i], neigh[j]);
                if adj[a as usize].insert(b) {
                    adj[b as usize].insert(a);
                    // Degrees changed; stale heap keys are fixed lazily.
                }
            }
        }
        for &u in &neigh {
            heap.push(Reverse((adj[u as usize].len(), tie(u), u)));
        }
    }
    debug_assert_eq!(order.len(), contract);
    order.extend(
        (0..n as u32)
            .filter(|&v| !contracted[v as usize])
            .map(VertexId),
    );
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid_city, GridCityParams, RoadNetworkPreset};

    #[test]
    fn order_is_deterministic_and_complete() {
        let g = grid_city(&GridCityParams::small(), 4);
        let core = g.num_vertices() / 2;
        let a = contraction_order(&g, core);
        let b = contraction_order(&g, core);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), g.num_vertices(), "order is a permutation");
    }

    #[test]
    fn stopping_at_the_core_keeps_the_contracted_prefix() {
        for g in [
            grid_city(&GridCityParams::small(), 4),
            RoadNetworkPreset::CalS.generate(7),
        ] {
            let n = g.num_vertices();
            let full = contraction_order(&g, 1);
            assert_eq!(contraction_order(&g, 0), full, "the last vertex is forced");
            for core in [1, 2, n / 10, n / 2, n - 1, n] {
                let prefix = contraction_order(&g, core);
                let k = n - core;
                assert_eq!(prefix[..k], full[..k], "contracted prefix, core {core}");
                assert!(
                    prefix[k..].windows(2).all(|w| w[0] < w[1]),
                    "core {core} is ranked by ascending id"
                );
                let mut core_set = full[k..].to_vec();
                core_set.sort();
                assert_eq!(prefix[k..], core_set[..], "same core vertices, core {core}");
            }
        }
    }
}
