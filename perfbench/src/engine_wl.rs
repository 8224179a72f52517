//! `engine_synthetic`: the cycle engine on pristine PS-IQ at four fixed
//! points, on one engine thread.
//!
//! The engine is most of the reproduction's host time. MIN, UGAL and
//! NEG each take a different route path, and the saturated permutation
//! point stresses allocation and credit stalls. No fault epoch, remask,
//! flow or motif code runs here.

use crate::trace::Tracer;
use crate::util::{Checks, Digest, Metrics};
use crate::Pass;
use polarstar_netsim::engine::simulate_overlay_monitored;
use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
use polarstar_netsim::monitor::{MetricsMonitor, ShardableMonitor, SimMonitor};
use polarstar_netsim::negotiate::{NegotiateConfig, NegotiatedRoutes};
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::traffic::{engine_resolve_seed, resolve, Pattern};
use polarstar_netsim::{SimConfig, SimResult};
use polarstar_topo::network::NetworkSpec;
use std::time::Instant;

/// Engine worker threads for every timed point. On the shared 2-vCPU
/// reference host the sharded engine's per-cycle barriers wait on
/// whichever vCPU the hypervisor slows, and its run-to-run spread
/// (IQR/median 0.29–0.35 over ten seeds) exceeded any bound; one thread
/// does not wait on the other.
const ENGINE_THREADS: usize = 1;
/// Threads of the sharded run checked against the timed ones.
const SHARDED_THREADS: usize = 2;
/// Simulated window per point: warm-up, measurement and the drain limit.
const WARMUP: u64 = 300;
const MEASURE: u64 = 600;
const DRAIN: u64 = 600;

pub struct Point {
    /// `<pattern>_<routing>_<load>`, the per-layer metric stem.
    pub label: &'static str,
    /// Route path class the point exercises.
    pub class: &'static str,
    pub pattern: Pattern,
    pub kind: RoutingKind,
    pub load: f64,
}

pub fn points() -> Vec<Point> {
    vec![
        Point {
            label: "uniform_MIN_0.5",
            class: "MIN",
            pattern: Pattern::Uniform,
            kind: RoutingKind::MinMulti,
            load: 0.5,
        },
        Point {
            label: "uniform_UGAL_0.5",
            class: "UGAL",
            pattern: Pattern::Uniform,
            kind: RoutingKind::ugal4(),
            load: 0.5,
        },
        Point {
            label: "adversarial_NEG_0.15",
            class: "NEG",
            pattern: Pattern::AdversarialGroup,
            kind: RoutingKind::Negotiated,
            load: 0.15,
        },
        Point {
            label: "permutation_MIN_0.3",
            class: "MIN",
            pattern: Pattern::Permutation,
            kind: RoutingKind::MinMulti,
            load: 0.3,
        },
    ]
}

/// Records the simulated cycle count the engine reports at run end;
/// every other hook is the trait's no-op default.
#[derive(Default)]
struct CycleCount(u64);

impl SimMonitor for CycleCount {
    fn on_run_end(&mut self, cycles: u64) {
        self.0 = cycles;
    }
}

impl ShardableMonitor for CycleCount {
    fn fork(&self) -> Self {
        CycleCount(0)
    }
    fn absorb(&mut self, _shard: Self) {}
}

pub fn digest(r: &SimResult) -> u64 {
    let mut d = Digest::default();
    d.f64(r.offered)
        .f64(r.accepted)
        .f64(r.avg_latency)
        .f64(r.p99_latency)
        .f64(r.delivered_fraction)
        .u64(r.stable as u64)
        .u64(r.measured_ejected)
        .f64(r.avg_hops)
        .u64(r.unroutable)
        .u64(r.faulted_in_flight)
        .u64(r.rerouted)
        .u64(r.watchdog_fired as u64);
    d.0
}

pub struct Engine {
    spec: NetworkSpec,
    table: RouteTable,
    neg: NegotiatedRoutes,
    cfg: SimConfig,
    points: Vec<Point>,
    /// Per-point result digests of the first pass.
    first: Vec<u64>,
    /// Results of the first pass (checked against the sharded engine).
    results: Vec<SimResult>,
    /// Simulated cycles per point in the first pass.
    cycles: Vec<u64>,
}

impl Engine {
    /// Network build, route table and the negotiated overlay for the
    /// adversarial point.
    pub fn setup(tr: &mut Tracer, sim_seed: u64) -> Engine {
        let spec = tr.span("topo.build", |_| {
            bench::table3_network("PS-IQ").expect("PS-IQ builds")
        });
        let table = tr.span("routing.table_build", |_| RouteTable::for_spec(&spec));
        let neg = tr.span("negotiate.setup", |_| {
            let comps = [TrafficComponent::new(
                Pattern::AdversarialGroup,
                engine_resolve_seed(sim_seed),
            )];
            let plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
            let ncfg = NegotiateConfig {
                seed: sim_seed,
                ..NegotiateConfig::default()
            };
            NegotiatedRoutes::negotiate(&spec, &table, &plan, &ncfg)
        });
        let cfg = SimConfig {
            warmup_cycles: WARMUP,
            measure_cycles: MEASURE,
            drain_cycles: DRAIN,
            seed: sim_seed,
            threads: Some(ENGINE_THREADS),
            ..SimConfig::default()
        };
        Engine {
            spec,
            table,
            neg,
            cfg,
            points: points(),
            first: Vec::new(),
            results: Vec::new(),
            cycles: Vec::new(),
        }
    }

    fn overlay(&self, p: &Point) -> Option<&NegotiatedRoutes> {
        (p.kind == RoutingKind::Negotiated).then_some(&self.neg)
    }

    /// One point; returns the result and the simulated cycle count.
    fn run(
        &self,
        tr: &mut Tracer,
        name: &'static str,
        p: &Point,
        cfg: &SimConfig,
    ) -> (SimResult, u64) {
        tr.span(name, |_| {
            let mut mon = CycleCount::default();
            let r = simulate_overlay_monitored(
                &self.spec,
                &self.table,
                p.kind,
                self.overlay(p),
                &p.pattern,
                p.load,
                cfg,
                &mut mon,
            );
            (r, mon.0)
        })
    }

    /// The four points once. Steps are points; work is router-cycles.
    pub fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Pass {
        let routers = self.spec.routers() as f64;
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let mut digests = Vec::with_capacity(self.points.len());
        let mut results = Vec::with_capacity(self.points.len());
        let mut cycle_counts = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let t = Instant::now();
            let (r, cycles) = self.run(tr, "engine.simulate", p, &self.cfg);
            let s = t.elapsed().as_secs_f64();
            pass.steps_ms.push(s * 1e3);
            pass.work += routers * cycles as f64;
            cycle_counts.push(cycles);
            pass.work_s += s;
            if r.stable {
                checks.check(!r.watchdog_fired, || {
                    format!("{}: watchdog fired on a stable point", p.label)
                });
            }
            digests.push(digest(&r));
            results.push(r);
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        if self.first.is_empty() {
            self.first = digests;
            self.results = results;
            self.cycles = cycle_counts;
        } else {
            for ((p, a), b) in self.points.iter().zip(&digests).zip(&self.first) {
                checks.check(a == b, || {
                    format!("{}: result differs between passes", p.label)
                });
            }
        }
        pass
    }

    /// Checks outside the timed phase: the sharded engine reproduces the
    /// sequential result of the uniform/MIN point.
    pub fn post_checks(&self, tr: &mut Tracer, checks: &mut Checks) {
        let p = &self.points[0];
        let cfg = SimConfig {
            threads: Some(SHARDED_THREADS),
            ..self.cfg.clone()
        };
        let (r, _) = self.run(tr, "engine.simulate_sharded", p, &cfg);
        checks.check(r == self.results[0], || {
            format!("{}: sharded engine differs from sequential", p.label)
        });
    }

    pub fn print_digests(&self) {
        for (p, (d, r)) in self.points.iter().zip(self.first.iter().zip(&self.results)) {
            eprintln!(
                "perfbench: engine {} digest {d:016x} accepted {:.4} latency {:.2} stable {}",
                p.label, r.accepted, r.avg_latency, r.stable
            );
        }
    }

    /// Traced-run extras: traffic resolve, an invariant-checked point and
    /// the monitored saturated point; call after [`Engine::post_checks`].
    pub fn census(&self, tr: &mut Tracer, checks: &mut Checks, m: &mut Metrics) {
        let routers = self.spec.routers() as f64;
        // The traced pass recorded one engine.simulate span per point.
        let point_ns = tr.durations("engine.simulate");
        let last = &point_ns[point_ns.len() - self.points.len()..];
        let mut class_ns: Vec<(&str, f64, f64)> = Vec::new();
        for ((p, &ns), &cycles) in self.points.iter().zip(last).zip(&self.cycles) {
            m.put(format!("engine.{}.s", p.label), ns as f64 / 1e9, "s");
            let rc = routers * cycles as f64;
            match class_ns.iter_mut().find(|c| c.0 == p.class) {
                Some(c) => {
                    c.1 += ns as f64;
                    c.2 += rc;
                }
                None => class_ns.push((p.class, ns as f64, rc)),
            }
        }
        let total_rc: f64 = class_ns.iter().map(|c| c.2).sum();
        m.put("engine.router_cycles", total_rc, "count");
        for (class, ns, rc) in &class_ns {
            m.put(format!("engine.ns_per_router_cycle.{class}"), ns / rc, "ns");
        }

        // Traffic resolve for the four patterns.
        let resolve_ns: u64 = self
            .points
            .iter()
            .map(|p| {
                let t = tr.now_ns();
                tr.span("traffic.resolve", |_| {
                    std::hint::black_box(resolve(
                        &p.pattern,
                        &self.spec,
                        engine_resolve_seed(self.cfg.seed),
                    ));
                });
                tr.now_ns() - t
            })
            .sum();
        m.put("traffic.resolve_ms", resolve_ns as f64 / 1e6, "ms");

        // Shard speed-up: 1-thread ÷ 2-thread time of uniform/MIN, the
        // latter from the sharded run `post_checks` recorded.
        let sharded_ns = tr.durations("engine.simulate_sharded");
        let sharded_ns = *sharded_ns
            .last()
            .expect("post_checks ran before the census");
        m.put(
            "engine.shard_speedup",
            last[0] as f64 / sharded_ns as f64,
            "ratio",
        );

        // The invariant pass must not fire and must not change the result.
        let p = &self.points[0];
        let cfg = SimConfig {
            invariant_check_every: Some(100),
            ..self.cfg.clone()
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut tr2 = Tracer::new(false);
            self.run(&mut tr2, "engine.simulate_checked", p, &cfg).0
        }));
        checks.check(matches!(&run, Ok(r) if *r == self.results[0]), || {
            format!("{}: invariant-checked run failed or differs", p.label)
        });

        // Stall counters on the saturated point.
        let sat = &self.points[3];
        let mut mon = MetricsMonitor::new(256);
        let r = tr.span("engine.simulate_monitored", |_| {
            simulate_overlay_monitored(
                &self.spec,
                &self.table,
                sat.kind,
                None,
                &sat.pattern,
                sat.load,
                &self.cfg,
                &mut mon,
            )
        });
        checks.check(digest(&r) == digest(&self.results[3]), || {
            format!("{}: monitored run differs", sat.label)
        });
        let rep = mon.report();
        m.put("engine.stall_credit", rep.stall_credit as f64, "count");
        m.put("engine.stall_vc_alloc", rep.stall_vc_alloc as f64, "count");
        m.put("engine.stall_crossbar", rep.stall_crossbar as f64, "count");
        m.put(
            "engine.injection_backpressure",
            rep.injection_backpressure as f64,
            "count",
        );
        m.put(
            "engine.mean_link_utilization",
            rep.mean_link_utilization,
            "fraction",
        );
    }
}
