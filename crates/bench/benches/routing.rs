//! Routing microbenchmarks: the analytic §9.2 path computation vs
//! building and querying full minimal-path tables.

use criterion::{criterion_group, criterion_main, Criterion};
use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar::routing::AnalyticRouter;
use polarstar_netsim::routing::RouteTable;

fn bench_analytic_route(c: &mut Criterion) {
    let net = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
    let router = AnalyticRouter::new(net.clone());
    let n = net.spec.routers() as u32;
    let mut g = c.benchmark_group("analytic_route");
    g.sample_size(20);
    g.bench_function("ps_iq_1064", |b| {
        let mut s = 0u32;
        let mut t = n / 2;
        b.iter(|| {
            s = (s + 7) % n;
            t = (t + 13) % n;
            criterion::black_box(router.route(s, t))
        })
    });
    g.finish();
}

fn bench_table_build(c: &mut Criterion) {
    let net = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
    let mut g = c.benchmark_group("route_table_build");
    g.sample_size(10);
    g.bench_function("ps_iq_1064", |b| b.iter(|| RouteTable::for_spec(&net.spec)));
    g.finish();
}

fn bench_table_lookup(c: &mut Criterion) {
    let net = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
    let table = RouteTable::for_spec(&net.spec);
    let n = net.spec.routers() as u32;
    let mut g = c.benchmark_group("route_table_lookup");
    g.bench_function("ps_iq_1064", |b| {
        let mut s = 0u32;
        let mut t = n / 2;
        b.iter(|| {
            s = (s + 7) % n;
            t = (t + 13) % n;
            criterion::black_box(table.min_ports(s, t))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_analytic_route,
    bench_table_build,
    bench_table_lookup
);
criterion_main!(benches);
