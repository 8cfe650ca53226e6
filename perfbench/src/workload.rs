//! The benchmark's workloads and the inputs it generates for them.
//!
//! The road network and the silos' quiescent weights are fixed per city
//! (the paper's datasets are fixed too); the workload seed drives only the
//! origin–destination pairs and the congestion wave, so every seed
//! measures the same federation under different traffic.

use fedroad_bench::workload::hop_bucketed_queries;
use fedroad_graph::gen::{grid_city, GridCityParams, RoadNetworkPreset};
use fedroad_graph::{Graph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Seed of every city's road network, silo weights and protocol
/// randomness. Fixed, so that the workload seed varies only the traffic.
pub const CITY_SEED: u64 = 0xFED_2025;

/// Silos in the federation (the paper's default).
pub const SILOS: usize = 3;

/// The road networks the workloads run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum City {
    /// CAL-S, ≈2.1k vertices.
    CalS,
    /// FLA-S, ≈21k vertices.
    FlaS,
    /// A 10×10 grid city (100 vertices) for the benchmark's own tests.
    Tiny,
}

impl City {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            City::CalS => RoadNetworkPreset::CalS.name(),
            City::FlaS => RoadNetworkPreset::FlaS.name(),
            City::Tiny => "tiny-grid",
        }
    }

    /// Generates the road network.
    pub fn generate(self) -> Graph {
        match self {
            City::CalS => RoadNetworkPreset::CalS.generate(CITY_SEED),
            City::FlaS => RoadNetworkPreset::FlaS.generate(CITY_SEED),
            City::Tiny => grid_city(&GridCityParams::small(), CITY_SEED),
        }
    }

    /// Set-ups an untraced run makes; `setup_s` is their median. A CAL-S
    /// set-up takes ≈0.4 s, short enough for one scheduling hiccup to
    /// move it, so it is repeated more often than an FLA-S one (≈5 s).
    pub fn setup_reps(self) -> usize {
        match self {
            City::CalS => 9,
            City::FlaS => 3,
            City::Tiny => 2,
        }
    }

    /// The five hop buckets of the city, as six bounds.
    pub fn hop_buckets(self) -> [usize; 6] {
        match self {
            City::CalS => RoadNetworkPreset::CalS.hop_buckets(),
            City::FlaS => RoadNetworkPreset::FlaS.hop_buckets(),
            City::Tiny => [0, 3, 6, 9, 12, 15],
        }
    }
}

/// One workload: a city, which of its hop buckets the queries come from,
/// and how many threads load the program.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// The road network.
    pub city: City,
    /// First and one-past-last hop bucket the OD pairs come from.
    pub buckets: (usize, usize),
    /// OD pairs generated per bucket.
    pub per_bucket: usize,
    /// Closed-loop query clients.
    pub clients: usize,
    /// Whether an updater thread streams weight updates beside the reads.
    pub updater: bool,
}

impl WorkloadSpec {
    /// Every workload. `BENCHMARK.json` lists `cal-long` and `fla-live`;
    /// `fla-short` runs by hand (`METRICS.md` says why).
    pub fn all() -> [WorkloadSpec; 3] {
        [
            WorkloadSpec {
                name: "cal-long",
                city: City::CalS,
                buckets: (3, 5),
                per_bucket: 400,
                clients: 2,
                updater: false,
            },
            WorkloadSpec {
                name: "fla-short",
                city: City::FlaS,
                buckets: (0, 1),
                per_bucket: 600,
                clients: 1,
                updater: false,
            },
            WorkloadSpec {
                name: "fla-live",
                city: City::FlaS,
                buckets: (0, 5),
                per_bucket: 100,
                clients: 1,
                updater: true,
            },
        ]
    }

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<WorkloadSpec> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// The same workload on the tiny grid city, with few OD pairs.
    pub fn on_tiny_city(mut self) -> WorkloadSpec {
        self.city = City::Tiny;
        self.per_bucket = 4;
        self
    }

    /// Threads that load the program at once: the clients plus the
    /// updater. (Each client blocks while the executor's worker thread
    /// answers its query, so a client and its worker count once.)
    pub fn threads(&self) -> usize {
        self.clients + usize::from(self.updater)
    }

    /// The OD pairs for `seed`: `per_bucket` pairs from each chosen hop
    /// bucket, each bucket shuffled, then interleaved one pair per bucket
    /// at a time, so that any prefix of the list (a timed run answers a
    /// prefix) holds the buckets in equal shares.
    pub fn od_pairs(&self, graph: &Graph, seed: u64) -> Vec<(VertexId, VertexId)> {
        let bounds = &self.city.hop_buckets()[self.buckets.0..=self.buckets.1];
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x005E_ED0D);
        let groups: Vec<Vec<(VertexId, VertexId)>> =
            hop_bucketed_queries(graph, bounds, self.per_bucket, seed)
                .into_iter()
                .map(|g| {
                    let mut pairs = g.pairs;
                    pairs.shuffle(&mut rng);
                    pairs
                })
                .collect();
        (0..self.per_bucket)
            .flat_map(|i| groups.iter().map(move |g| g[i]))
            .collect()
    }

    /// Seed of the congestion wave for workload seed `seed`.
    pub fn wave_seed(seed: u64) -> u64 {
        seed ^ 0x3A7E_11FE
    }
}
