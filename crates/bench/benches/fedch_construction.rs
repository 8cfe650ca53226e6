//! Federated shortcut-index construction and partial update on a small
//! city — the micro view of Table II. Both run at FedRoad's own core, and
//! construction covers everything set-up pays for the index: the
//! contraction order, the topology and the first customization.

use criterion::{criterion_group, criterion_main, Criterion};
use fedroad_core::{FedChIndex, Federation, FederationConfig, Method, SacComparator};
use fedroad_graph::gen::{grid_city, GridCityParams};
use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
use fedroad_graph::ArcId;
use fedroad_mpc::SacBackend;
use std::hint::black_box;

fn bench_fedch(c: &mut Criterion) {
    let city = grid_city(&GridCityParams::with_target_vertices(600), 7);
    let silos = gen_silo_weights(&city, CongestionLevel::Moderate, 3, 7);
    let mut fed = Federation::new(
        city.clone(),
        silos,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 7,
        },
    );
    let core = Method::FedRoad.config().core_size(city.num_vertices());

    let mut group = c.benchmark_group("fedch");
    group.sample_size(10);

    group.bench_function("construction_600v", |b| {
        b.iter(|| {
            let (g, s, e) = fed.split_mut();
            let mut cmp = SacComparator::new(e);
            black_box(FedChIndex::build(g, s, core, &mut cmp))
        })
    });

    let index = {
        let (g, s, e) = fed.split_mut();
        let mut cmp = SacComparator::new(e);
        FedChIndex::build(g, s, core, &mut cmp)
    };
    let m = city.num_arcs();
    let changed: Vec<ArcId> = (0..m).step_by(509).map(|i| ArcId(i as u32)).collect();
    let mut w = fed.silo(0).as_slice().to_vec();
    for a in &changed {
        w[a.index()] += 13;
    }
    fed.update_silo_weights(0, w);

    group.bench_function("partial_update_600v", |b| {
        b.iter(|| {
            let mut idx = index.clone();
            let (g, s, e) = fed.split_mut();
            let mut cmp = SacComparator::new(e);
            black_box(idx.update(g, s, &changed, &mut cmp))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fedch);
criterion_main!(benches);
