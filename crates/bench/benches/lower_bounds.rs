//! Per-estimation cost of the federated lower bounds — the computation
//! side of the §V communication/computation/accuracy trade-off
//! (Figure 11 covers the accuracy side).

use criterion::{criterion_group, criterion_main, Criterion};
use fedroad_core::lb::{
    FedAltMaxPotential, FedAltPotential, FedAmpsPotential, FedPotential, LandmarkPartials,
};
use fedroad_core::{
    fed_spsp, BaseView, FedChView, Federation, FederationConfig, JointComparator, Method,
    PartialKey, PlainComparator, QueryEngine, SacComparator,
};
use fedroad_graph::gen::{grid_city, GridCityParams};
use fedroad_graph::landmarks::{select_landmarks, LandmarkTable};
use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
use fedroad_graph::VertexId;
use fedroad_mpc::SacBackend;
use std::hint::black_box;

/// Fed-AMPS that records each estimate the search asks for:
/// `(v, toward_target)`, in order.
struct Recorded<'a> {
    inner: FedAmpsPotential<'a>,
    asks: Vec<(VertexId, bool)>,
}

impl FedPotential for Recorded<'_> {
    fn toward_target(&mut self, v: VertexId, cmp: &mut dyn JointComparator) -> PartialKey {
        self.asks.push((v, true));
        self.inner.toward_target(v, cmp)
    }

    fn from_source(&mut self, v: VertexId, cmp: &mut dyn JointComparator) -> PartialKey {
        self.asks.push((v, false));
        self.inner.from_source(v, cmp)
    }

    fn joint_nonnegative(&self) -> bool {
        self.inner.joint_nonnegative()
    }
}

fn bench_lower_bounds(c: &mut Criterion) {
    let city = grid_city(&GridCityParams::with_target_vertices(900), 7);
    let silos = gen_silo_weights(&city, CongestionLevel::Moderate, 3, 7);
    let mut fed = Federation::new(
        city.clone(),
        silos,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 7,
        },
    );
    // Also computes the landmark bounds the Fed-AMPS sweeps read.
    let engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
    let landmarks = select_landmarks(&city, 16);
    let static_table = LandmarkTable::compute(&city, city.static_weights(), &landmarks);
    let tables = {
        let (g, s, e) = fed.split_mut();
        let mut cmp = SacComparator::new(e);
        LandmarkPartials::build(&BaseView::new(g, s), 3, &landmarks, &mut cmp)
    };
    let n = city.num_vertices() as u32;
    let (s, t) = (VertexId(3), VertexId(n - 4));

    let mut group = c.benchmark_group("lower_bounds");
    group.sample_size(30);

    group.bench_function("fed_alt_estimate", |b| {
        let mut plain = PlainComparator::default();
        let mut i = 0u32;
        b.iter(|| {
            // Fresh potential each iteration so memoization doesn't hide
            // the per-vertex estimation cost.
            let mut pot = FedAltPotential::new(&tables, s, t);
            i = (i + 1) % n;
            black_box(pot.toward_target(VertexId(i), &mut plain))
        })
    });

    group.bench_function("fed_alt_max_estimate", |b| {
        let mut plain = PlainComparator::default();
        let mut pot = FedAltMaxPotential::new(&tables, &static_table, s, t);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % n;
            black_box(pot.toward_target(VertexId(i), &mut plain))
        })
    });

    group.bench_function("fed_amps_new_and_first_estimate", |b| {
        // What a query pays before its first estimate: `new` runs nothing,
        // so the first lookup starts every silo's sweep from `t`.
        let mut plain = PlainComparator::default();
        b.iter(|| {
            let mut pot = FedAmpsPotential::new(fed.graph(), fed.silos(), s, t);
            black_box(pot.toward_target(s, &mut plain))
        })
    });

    // The estimates one FedRoad query asks, in the order it asks them:
    // replaying them times what a query pays for its potential, where
    // asking every vertex in id order would sweep the whole graph.
    let index = engine.fedch().expect("FedRoad builds an index");
    let mut recorded = Recorded {
        inner: FedAmpsPotential::new(fed.graph(), fed.silos(), s, t),
        asks: Vec::new(),
    };
    let outcome = fed_spsp(
        &FedChView::new(index, fed.graph()),
        3,
        s,
        t,
        &mut recorded,
        engine.config().queue,
        &mut PlainComparator::default(),
    );
    assert!(outcome.path.is_some(), "the benched pair is connected");
    let asks = recorded.asks;
    group.bench_function("fed_amps_query_estimates", |b| {
        let mut plain = PlainComparator::default();
        b.iter(|| {
            let mut pot = FedAmpsPotential::new(fed.graph(), fed.silos(), s, t);
            for &(v, toward) in &asks {
                black_box(if toward {
                    pot.toward_target(v, &mut plain)
                } else {
                    pot.from_source(v, &mut plain)
                });
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_lower_bounds);
criterion_main!(benches);
