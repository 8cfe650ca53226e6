//! Correctness, checked outside the timed phases: every answer's joint
//! cost must equal the `JointOracle` distance of the epoch that answered
//! it. Live runs replay the updater's change lists to rebuild each
//! epoch's weights.

use crate::drive::{Op, Tick};
use fedroad_core::{Federation, FederationConfig, JointOracle};
use fedroad_graph::{Graph, VertexId, Weight};
use fedroad_mpc::SacBackend;
use std::collections::{BTreeMap, HashMap};

/// For each op, whether it is correct: it returned, its path runs from
/// `s` to `t`, its joint cost equals the oracle's distance at its epoch,
/// and (where checked) it equals the untraced answer.
///
/// `ticks` are all of the run's updater ticks in order; the weights at
/// epoch `e` are the quiescent weights plus every tick up to and
/// including the one that published `e`.
pub fn verify(
    graph: &Graph,
    quiescent: &[Vec<Weight>],
    pairs: &[(VertexId, VertexId)],
    ops: &[&Op],
    ticks: &[Tick],
) -> Vec<bool> {
    let mut by_epoch: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        if let Ok(answer) = &op.result {
            by_epoch.entry(answer.epoch).or_default().push(i);
        }
    }
    let mut verdicts = vec![false; ops.len()];
    let mut replay = Federation::new(
        graph.clone(),
        quiescent.to_vec(),
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 0,
        },
    );
    let mut next_tick = 0;
    for (epoch, members) in by_epoch {
        if epoch > 0 {
            let Some(last) = ticks[next_tick..]
                .iter()
                .position(|t| t.published && t.epoch == epoch)
            else {
                // An epoch nobody published: every answer at it is wrong.
                continue;
            };
            for tick in &ticks[next_tick..=next_tick + last] {
                replay.apply_weight_updates(&tick.changes);
            }
            next_tick += last + 1;
        }
        let oracle = JointOracle::new(&replay);
        let mut truth: HashMap<usize, Option<Weight>> = HashMap::new();
        for i in members {
            let op = ops[i];
            let (s, t) = pairs[op.pair];
            let Ok(answer) = &op.result else { continue };
            let Some(path) = &answer.path else { continue };
            let distance = *truth
                .entry(op.pair)
                .or_insert_with(|| oracle.spsp_scaled(&replay, s, t).map(|(d, _)| d));
            verdicts[i] = path.source() == s
                && path.target() == t
                && distance.is_some()
                && oracle.path_cost_scaled(&replay, path) == distance
                && answer.matches_untraced != Some(false);
        }
    }
    verdicts
}
