//! Per-estimation cost of the federated lower bounds — the computation
//! side of the §V communication/computation/accuracy trade-off
//! (Figure 11 covers the accuracy side).

use criterion::{criterion_group, criterion_main, Criterion};
use fedroad_core::lb::{
    FedAltMaxPotential, FedAltPotential, FedAmpsPotential, FedPotential, LandmarkPartials,
};
use fedroad_core::{BaseView, Federation, FederationConfig, PlainComparator, SacComparator};
use fedroad_graph::gen::{grid_city, GridCityParams};
use fedroad_graph::landmarks::{select_landmarks, LandmarkTable};
use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
use fedroad_graph::VertexId;
use fedroad_mpc::SacBackend;
use std::hint::black_box;

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
            let mut pot = FedAmpsPotential::new(&city, fed.silos(), s, t);
            black_box(pot.toward_target(s, &mut plain))
        })
    });

    group.bench_function("fed_amps_estimate", |b| {
        let mut plain = PlainComparator::default();
        let mut pot = FedAmpsPotential::new(&city, fed.silos(), s, t);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % n;
            black_box(pot.toward_target(VertexId(i), &mut plain))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_lower_bounds);
criterion_main!(benches);
