//! Simulated party network with full cost accounting.
//!
//! The paper runs MP-SPDZ across five machines on a 1 GB/s LAN. We
//! substitute an in-process full-mesh network: every message is an
//! explicitly typed, byte-counted envelope, and every synchronous exchange
//! bumps the round counter. The quantities the paper's evaluation reports —
//! communication rounds, per-silo communication volume — come straight from
//! these counters, and [`NetworkModel`] turns them into modeled wall-clock
//! time via the paper's own cost formula `R · (L + S/B)` (§VIII-B).

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

/// Index of a party (silo) in the federation, `0..P`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartyId(pub usize);

/// The message types a secret-sharing protocol is allowed to exchange.
///
/// This enum is the heart of the structural security audit: raw weights or
/// path costs have no representable message kind, and
/// [`crate::audit::audit_engine`] checks the transcript against an allow-list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// A share of a value masked by dealer randomness, about to be opened.
    MaskedOpen,
    /// The `ε`/`δ` openings of a carry layer: generate/propagate shares
    /// masked by fresh dealer words.
    CarryOpen,
    /// A share of a final comparison-result bit.
    BitOpen,
}

impl MsgKind {
    /// All kinds a semi-honest FedRoad protocol run may produce.
    pub const ALLOWED: [MsgKind; 3] = [MsgKind::MaskedOpen, MsgKind::CarryOpen, MsgKind::BitOpen];
}

/// Aggregate traffic statistics of a [`Mesh`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Number of synchronous communication rounds.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total payload bytes across all parties.
    pub bytes: u64,
    /// Payload bytes sent by the busiest-average party: `bytes / P`, the
    /// per-silo communication the paper reports.
    pub per_party_bytes: u64,
}

impl NetStats {
    /// The fraction of federation-wide totals attributable to one party
    /// (`1/P`), recovered from the byte counters.
    pub fn per_party_fraction(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.per_party_bytes as f64 / self.bytes as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &NetStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.per_party_bytes += other.per_party_bytes;
    }

    /// Component-wise difference `self − baseline`. Mesh counters are
    /// monotonic, so two reads of [`Mesh::stats`] always subtract to a
    /// valid window delta.
    pub fn delta_since(&self, baseline: &NetStats) -> NetStats {
        NetStats {
            rounds: self.rounds - baseline.rounds,
            messages: self.messages - baseline.messages,
            bytes: self.bytes - baseline.bytes,
            per_party_bytes: self.per_party_bytes - baseline.per_party_bytes,
        }
    }
}

/// In-process full-mesh network between `P` parties.
///
/// All FedRoad protocols are *straight-line*: the sequence of exchanges
/// depends only on public information, so parties proceed in lockstep and a
/// synchronous round primitive suffices.
#[derive(Debug)]
pub struct Mesh {
    n: usize,
    stats: NetStats,
    /// Per-kind message counters for the audit.
    kind_counts: std::collections::HashMap<MsgKind, u64>,
}

impl Mesh {
    /// Creates a mesh between `n ≥ 2` parties.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a federation needs at least two silos");
        Mesh {
            n,
            stats: NetStats::default(),
            kind_counts: Default::default(),
        }
    }

    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.n
    }

    /// Traffic statistics so far. Counters are **monotonic** — they are
    /// never zeroed, so any two reads subtract to a valid window delta
    /// (see [`NetStats::delta_since`]). Windowed consumers snapshot a
    /// baseline instead of resetting.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Per-kind message counts (for the structural audit).
    pub fn kind_counts(&self) -> &std::collections::HashMap<MsgKind, u64> {
        &self.kind_counts
    }

    /// One synchronous round in which every party broadcasts `words[p]` to
    /// every other party. Returns `received[p][q]` = the words party `q`
    /// sent, from party `p`'s perspective (`received[p][p]` is `p`'s own
    /// contribution, included so recipients can fold all `P` shares
    /// uniformly).
    pub fn broadcast_words(&mut self, kind: MsgKind, words: &[Vec<u64>]) -> Vec<Vec<Vec<u64>>> {
        assert_eq!(words.len(), self.n);
        let word_len = words[0].len();
        debug_assert!(words.iter().all(|w| w.len() == word_len));
        self.account_broadcast(kind, word_len);
        (0..self.n).map(|_p| words.to_vec()).collect()
    }

    /// One synchronous broadcast round over a **flat** party-major payload:
    /// `payload[p * lanes..(p + 1) * lanes]` is what party `p` contributes.
    /// The lockstep runtime models delivery by letting every recipient read
    /// the same slab, so — unlike [`Self::broadcast_words`], which clones
    /// the nested payload once per recipient — this accounts the identical
    /// round/byte/message costs (one broadcast of width `lanes`) without
    /// allocating at all. The vectorized share kernels build their payloads
    /// directly in this shape.
    pub fn broadcast_flat(&mut self, kind: MsgKind, payload: &[u64], lanes: usize) {
        debug_assert_eq!(payload.len(), self.n * lanes);
        self.account_broadcast(kind, lanes);
    }

    /// Accounts the costs of a broadcast round without materializing
    /// payloads — used by the `Modeled` Fed-SAC backend, which must produce
    /// byte-for-byte identical statistics to the `Real` backend.
    pub fn account_broadcast(&mut self, kind: MsgKind, word_len: usize) {
        let n = self.n as u64;
        self.stats.rounds += 1;
        self.stats.messages += n * (n - 1);
        let bytes = n * (n - 1) * (word_len as u64) * 8;
        self.stats.bytes += bytes;
        self.stats.per_party_bytes += (n - 1) * (word_len as u64) * 8;
        *self.kind_counts.entry(kind).or_insert(0) += n * (n - 1);
    }
}

/// Latency/bandwidth model turning [`NetStats`] into modeled wall-clock
/// time, the paper's `R · (L + S/B)`.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// One-way message latency, seconds.
    pub latency_s: f64,
    /// Per-party bandwidth, bytes per second.
    pub bandwidth_bps: f64,
    /// Fixed per-message processing overhead (serialization, MAC/crypto,
    /// network stack), seconds. Each party sends `P − 1` messages per
    /// round, so this term is what makes protocol time grow with the silo
    /// count — the behaviour the paper observes in Figure 9.
    pub per_message_s: f64,
}

impl NetworkModel {
    /// The paper's experimental LAN: sub-millisecond latency, 1 GB/s.
    pub fn lan() -> Self {
        NetworkModel {
            latency_s: 0.2e-3,
            bandwidth_bps: 1.0e9,
            per_message_s: 40e-6,
        }
    }

    /// A WAN-ish federation between datacenters.
    pub fn wan() -> Self {
        NetworkModel {
            latency_s: 20e-3,
            bandwidth_bps: 100.0e6,
            per_message_s: 40e-6,
        }
    }

    /// Modeled elapsed time for a protocol execution: every round pays the
    /// latency, each party pushes its per-round share of bytes through its
    /// own link, and every message it sends costs fixed processing.
    pub fn modeled_time_s(&self, stats: &NetStats) -> f64 {
        // messages is a federation-wide total; a party sends 1/P of them.
        let per_party_messages = stats.messages as f64 * stats.per_party_fraction();
        stats.rounds as f64 * self.latency_s
            + stats.per_party_bytes as f64 / self.bandwidth_bps
            + per_party_messages * self.per_message_s
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_delivers_everyones_words_to_everyone() {
        let mut mesh = Mesh::new(3);
        let words = vec![vec![10u64], vec![20], vec![30]];
        let recv = mesh.broadcast_words(MsgKind::MaskedOpen, &words);
        for got in &recv {
            assert_eq!(got, &words);
        }
        let s = mesh.stats();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.messages, 6);
        assert_eq!(s.bytes, 6 * 8);
        assert_eq!(s.per_party_bytes, 2 * 8);
    }

    #[test]
    fn flat_broadcast_accounts_like_the_nested_one() {
        let mut nested = Mesh::new(3);
        let words = vec![vec![1u64, 2], vec![3, 4], vec![5, 6]];
        nested.broadcast_words(MsgKind::CarryOpen, &words);

        let mut flat = Mesh::new(3);
        flat.broadcast_flat(MsgKind::CarryOpen, &[1, 2, 3, 4, 5, 6], 2);
        assert_eq!(flat.stats(), nested.stats());
        assert_eq!(flat.kind_counts(), nested.kind_counts());
    }

    #[test]
    fn accounting_matches_real_exchange() {
        let mut real = Mesh::new(4);
        let words = vec![vec![1u64, 2], vec![3, 4], vec![5, 6], vec![7, 8]];
        real.broadcast_words(MsgKind::CarryOpen, &words);

        let mut modeled = Mesh::new(4);
        modeled.account_broadcast(MsgKind::CarryOpen, 2);
        assert_eq!(real.stats(), modeled.stats());
    }

    #[test]
    fn modeled_time_combines_latency_bandwidth_and_processing() {
        let m = NetworkModel {
            latency_s: 1.0,
            bandwidth_bps: 100.0,
            per_message_s: 0.5,
        };
        let stats = NetStats {
            rounds: 3,
            messages: 8, // per-party fraction = 200/800 ⇒ 2 per-party msgs
            bytes: 800,
            per_party_bytes: 200,
        };
        // 3 rounds × 1s + 200 B / 100 B/s + 2 msgs × 0.5s = 3 + 2 + 1.
        assert!((m.modeled_time_s(&stats) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn modeled_time_pins_the_paper_formula_on_lan() {
        // R·(L + S/B) + per-message processing, §VIII-B, on the paper's
        // LAN parameters: 10 rounds × 0.2 ms + 250 B / 1 GB/s
        // + 25 per-party messages × 40 µs = 0.00300025 s exactly.
        let stats = NetStats {
            rounds: 10,
            messages: 100,
            bytes: 1000,
            per_party_bytes: 250, // fraction 1/4 ⇒ 25 per-party messages
        };
        let got = NetworkModel::lan().modeled_time_s(&stats);
        assert!((got - 0.003_000_25).abs() < 1e-15, "got {got}");
    }

    #[test]
    fn modeled_time_pins_each_term_in_isolation() {
        let stats = NetStats {
            rounds: 7,
            messages: 60,
            bytes: 6000,
            per_party_bytes: 2000, // fraction 1/3 ⇒ 20 per-party messages
        };
        // Latency-only model: exactly R·L.
        let latency = NetworkModel {
            latency_s: 0.5,
            bandwidth_bps: f64::INFINITY,
            per_message_s: 0.0,
        };
        assert_eq!(latency.modeled_time_s(&stats), 3.5);
        // Bandwidth-only model: exactly S/B on the per-party volume.
        let bandwidth = NetworkModel {
            latency_s: 0.0,
            bandwidth_bps: 1000.0,
            per_message_s: 0.0,
        };
        assert_eq!(bandwidth.modeled_time_s(&stats), 2.0);
        // Processing-only model: exactly per-party messages × cost.
        let processing = NetworkModel {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
            per_message_s: 0.25,
        };
        assert_eq!(processing.modeled_time_s(&stats), 5.0);
    }

    #[test]
    fn modeled_time_of_empty_stats_is_zero() {
        assert_eq!(
            NetworkModel::lan().modeled_time_s(&NetStats::default()),
            0.0
        );
        assert_eq!(
            NetworkModel::wan().modeled_time_s(&NetStats::default()),
            0.0
        );
    }

    #[test]
    fn stats_are_monotonic_and_deltas_subtract() {
        let mut mesh = Mesh::new(3);
        mesh.account_broadcast(MsgKind::MaskedOpen, 4);
        let before = mesh.stats();
        mesh.account_broadcast(MsgKind::BitOpen, 2);
        mesh.account_broadcast(MsgKind::CarryOpen, 1);
        let delta = mesh.stats().delta_since(&before);
        assert_eq!(delta.rounds, 2);
        assert_eq!(delta.messages, 12);
        assert_eq!(delta.bytes, 6 * 3 * 8);
        assert_eq!(delta.per_party_bytes, 2 * 3 * 8);
    }

    #[test]
    fn per_party_fraction_recovers_one_over_p() {
        let mut mesh = Mesh::new(4);
        mesh.account_broadcast(MsgKind::MaskedOpen, 3);
        mesh.account_broadcast(MsgKind::BitOpen, 1);
        assert!((mesh.stats().per_party_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_party_mesh_is_rejected() {
        Mesh::new(1);
    }
}
