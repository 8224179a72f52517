//! End-to-end simulation tests spanning topology construction, routing
//! tables, traffic generation and the cycle engine — the Figure 9/10
//! methodology on reduced-size networks.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_repro::netsim::engine::{simulate, SimConfig};
use polarstar_repro::netsim::routing::{RouteTable, RoutingKind};
use polarstar_repro::netsim::stats::{saturation_search, sweep};
use polarstar_repro::netsim::traffic::Pattern;
use polarstar_repro::topo::dragonfly::{dragonfly, DragonflyParams};
use polarstar_repro::topo::network::NetworkSpec;

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 400,
        measure_cycles: 1_000,
        drain_cycles: 8_000,
        seed,
        ..SimConfig::default()
    }
}

fn small_polarstar(p: u32) -> NetworkSpec {
    let c = best_config(9).unwrap(); // ER_5 * IQ_3 = 248 routers
    let mut net = PolarStarNetwork::build(c, p).unwrap().spec;
    net.name = "PS".into();
    net
}

/// §9.5: PolarStar sustains high uniform load with minimal routing.
#[test]
fn polarstar_uniform_min_sustains_majority_load() {
    let net = small_polarstar(3);
    let table = RouteTable::for_spec(&net);
    let r = simulate(
        &net,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.6,
        &cfg(1),
    );
    assert!(r.stable, "PolarStar at 60% uniform load: {r:?}");
    assert!(r.avg_latency < 100.0, "latency {}", r.avg_latency);
}

/// §9.6 / Figure 10: under adversarial group traffic, PolarStar (many
/// links per supernode pair) saturates later than Dragonfly (one link
/// per group pair) at matched endpoints-per-router.
#[test]
fn adversarial_polarstar_beats_dragonfly() {
    let ps = small_polarstar(3);
    let df = {
        let mut net = dragonfly(DragonflyParams { a: 6, h: 3, p: 3 });
        net.name = "DF".into();
        net
    };
    let pst = RouteTable::for_spec(&ps);
    // BookSim's Dragonfly MIN is hierarchical: local, one global, local.
    let dft = RouteTable::for_spec(&df);
    let sat_ps = saturation_search(
        &ps,
        &pst,
        RoutingKind::MinMulti,
        &Pattern::AdversarialGroup,
        &cfg(2),
        0.05,
    );
    let sat_df = saturation_search(
        &df,
        &dft,
        RoutingKind::MinMulti,
        &Pattern::AdversarialGroup,
        &cfg(2),
        0.05,
    );
    assert!(
        sat_ps > sat_df,
        "PolarStar adversarial saturation {sat_ps} must exceed Dragonfly {sat_df}"
    );
}

/// UGAL never collapses below MIN's saturation on permutation traffic.
#[test]
fn ugal_reasonable_on_permutation() {
    let net = small_polarstar(3);
    let table = RouteTable::for_spec(&net);
    let s = sweep(
        &net,
        &table,
        RoutingKind::ugal4(),
        &Pattern::Permutation,
        &[0.1, 0.3, 0.5],
        &cfg(3),
    );
    assert!(
        s.saturation_load() >= 0.3,
        "UGAL permutation saturation {}",
        s.saturation_load()
    );
}

/// Bit patterns run end-to-end on a hierarchical network and deliver.
#[test]
fn bit_patterns_deliver() {
    let net = small_polarstar(2);
    let table = RouteTable::for_spec(&net);
    for pattern in [Pattern::BitShuffle, Pattern::BitReverse] {
        let r = simulate(&net, &table, RoutingKind::MinMulti, &pattern, 0.1, &cfg(4));
        assert!(r.measured_ejected > 0, "{pattern:?} delivered nothing");
        assert!(r.stable, "{pattern:?} unstable at 10% load");
    }
}

/// Simulation determinism across an entire sweep (same seed, same
/// numbers), which the recorded EXPERIMENTS.md relies on.
#[test]
fn sweeps_are_reproducible() {
    let net = small_polarstar(2);
    let table = RouteTable::for_spec(&net);
    let a = sweep(
        &net,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        &[0.2, 0.4],
        &cfg(5),
    );
    let b = sweep(
        &net,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        &[0.2, 0.4],
        &cfg(5),
    );
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.avg_latency, y.avg_latency);
        assert_eq!(x.measured_ejected, y.measured_ejected);
    }
}
