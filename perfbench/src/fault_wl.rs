//! `fault_walk`: a seeded, nested PS-IQ link-fault schedule with one
//! recovery epoch, each epoch walked through every fault consumer —
//! `RouteTable::remask`, `AnalyticOracle::remask`, the flow plan's epoch
//! advance with its network and solve, a full negotiation, and the motif
//! model's fault swap plus two collectives. No engine work runs here.

use crate::trace::Tracer;
use crate::util::{median, Checks, Digest, Metrics};
use crate::Pass;
use polarstar::network::PolarStarNetwork;
use polarstar_motifs::{
    allreduce, striped_broadcast, AllreduceAlgo, FaultEpochs, MotifConfig, NetModel, RepairPolicy,
    RoutingMode,
};
use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
use polarstar_netsim::negotiate::{NegotiateConfig, NegotiatedRoutes};
use polarstar_netsim::routing::RouteTable;
use polarstar_netsim::traffic::Pattern;
use polarstar_routed::AnalyticOracle;
use polarstar_topo::fault::{FaultSchedule, FaultSet};
use polarstar_topo::oracle::PathOracle;
use std::sync::Arc;
use std::time::Instant;

/// Failed-link share added per growth epoch (PS-IQ has 7980 links).
const STEP_FRACTION: f64 = 0.0075;
/// Growth epochs before the recovery epoch.
const GROWTH_EPOCHS: u64 = 2;
/// Offered load of the per-epoch max-min solve.
const SOLVE_LOAD: f64 = 1.0;
/// Collective payload (bytes) and the pairs sampled for agreement.
const MOTIF_BYTES: u64 = 64 * 1024;
const SAMPLED_PAIRS: usize = 1_000;

/// The workload inputs generated from the seed.
struct Inputs {
    /// Cumulative fault set of each epoch after the pristine one.
    epochs: Vec<FaultSet>,
    traffic_seed: u64,
    negotiate_seed: u64,
    pairs: Vec<(u32, u32)>,
}

/// Nested growth: one seed with a growing fraction fails a growing
/// prefix of the same shuffled link order; the recovery epoch then
/// restores the first half of it.
fn inputs(net: &PolarStarNetwork, seed: u64) -> Inputs {
    let g = &net.spec.graph;
    let fault_seed = crate::util::derive(seed, "faults");
    let mut sched = FaultSchedule::new();
    for i in 1..=GROWTH_EPOCHS {
        let frac = STEP_FRACTION * i as f64;
        sched = sched.fail_at(i * 100, FaultSet::random_links(g, frac, fault_seed));
    }
    let healed = STEP_FRACTION * GROWTH_EPOCHS.div_ceil(2) as f64;
    sched = sched.recover_at(
        (GROWTH_EPOCHS + 1) * 100,
        FaultSet::random_links(g, healed, fault_seed),
    );
    let epochs = sched
        .epochs(&FaultSet::empty())
        .into_iter()
        .skip(1)
        .map(|(_, fs)| fs)
        .collect();
    let n = g.n() as u64;
    let pair_seed = crate::util::derive(seed, "pairs");
    let pairs = (0..SAMPLED_PAIRS as u64)
        .map(|i| {
            let h = crate::util::mix64(pair_seed ^ i);
            ((h % n) as u32, ((h >> 32) % n) as u32)
        })
        .collect();
    Inputs {
        epochs,
        traffic_seed: crate::util::derive(seed, "traffic"),
        negotiate_seed: crate::util::derive(seed, "negotiate"),
        pairs,
    }
}

pub struct FaultWalk {
    net: Arc<PolarStarNetwork>,
    table: RouteTable,
    oracle: AnalyticOracle,
    trees: Vec<Vec<(u32, u32)>>,
    comps: Vec<TrafficComponent>,
    plan: FlowPlan,
    ncfg: NegotiateConfig,
    inputs: Inputs,
    /// Per-epoch output digests of the first pass.
    first: Vec<u64>,
    /// (re-routed pairs, plan pairs, negotiation iterations) per epoch
    /// of the latest pass.
    notes: Vec<(usize, usize, u32)>,
}

/// What one epoch step produced, for the checks that follow it.
struct EpochOut {
    table: RouteTable,
    oracle: AnalyticOracle,
    rerouted: usize,
    digest: u64,
    converged: bool,
    overused: usize,
    iterations: u32,
}

impl FaultWalk {
    /// Network, route table, analytic oracle, EDST trees and the pristine
    /// flow plan.
    pub fn setup(tr: &mut Tracer, seed: u64) -> FaultWalk {
        let net = tr.span("topo.build", |_| {
            Arc::new(bench::table3_polarstar("PS-IQ").expect("PS-IQ builds"))
        });
        let spec = &net.spec;
        let inputs = inputs(&net, seed);
        let table = tr.span("routing.table_build", |_| RouteTable::for_spec(spec));
        let oracle = tr.span("routed.analytic_build", |_| {
            AnalyticOracle::new(net.clone())
        });
        let trees = tr.span("topo.edst", |_| net.edst_trees());
        let comps = vec![TrafficComponent::new(
            Pattern::Permutation,
            inputs.traffic_seed,
        )];
        let plan = tr.span("flow.build", |_| {
            FlowPlan::build(spec, &oracle, &comps, FlowRouting::EcmpSplit)
        });
        let ncfg = NegotiateConfig {
            seed: inputs.negotiate_seed,
            ..NegotiateConfig::default()
        };
        FaultWalk {
            net,
            table,
            oracle,
            trees,
            comps,
            plan,
            ncfg,
            inputs,
            first: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The timed step: every fault consumer reacts to one epoch.
    fn step(
        &self,
        tr: &mut Tracer,
        model: &mut NetModel,
        plan: &mut FlowPlan,
        prev: &FaultSet,
        fs: &FaultSet,
    ) -> EpochOut {
        let spec = &self.net.spec;
        let table = tr.span("routing.remask", |_| self.table.remask(spec, fs));
        let oracle = tr.span("routed.analytic_remask", |_| self.oracle.remask(fs));
        let rerouted = tr.span("flow.advance", |_| {
            plan.advance_epoch(spec, &oracle, prev, fs)
        });
        let fnet = tr.span("flow.network", |_| plan.network());
        let sol = tr.span("flow.solve", |_| fnet.solve(SOLVE_LOAD));
        let neg = tr.span("negotiate.run", |_| {
            NegotiatedRoutes::negotiate(spec, &oracle, plan, &self.ncfg)
        });
        tr.span("motifs.set_faults", |_| model.set_faults(fs.clone()));
        model.reset();
        let ar = tr.span("motifs.allreduce", |_| {
            allreduce(
                model,
                AllreduceAlgo::RecursiveDoubling,
                MOTIF_BYTES,
                1,
                RoutingMode::Min,
            )
        });
        model.reset();
        let sb = tr.span("motifs.striped_bcast", |_| {
            striped_broadcast(
                model,
                &self.trees,
                MOTIF_BYTES * self.trees.len() as u64,
                &FaultEpochs::at_time_zero(fs.clone()),
                RepairPolicy::Replace,
            )
        });
        let mut d = Digest::default();
        d.u64(rerouted as u64)
            .f64(sol.accepted)
            .f64(sol.delivered_fraction)
            .u64(sol.rounds)
            .f64(neg.max_link_load())
            .u64(neg.iterations() as u64)
            .f64(ar.as_ref().map_or(-1.0, |&t| t))
            .f64(sb.as_ref().map_or(-1.0, |o| o.completion_ns));
        EpochOut {
            table,
            oracle,
            rerouted,
            digest: d.0,
            converged: neg.converged() && ar.is_ok() && sb.is_ok(),
            overused: neg.overused_links(),
            iterations: neg.iterations(),
        }
    }

    /// Outside the timed step: the advanced plan equals a fresh build,
    /// the two remasked route sources agree on sampled distances, and
    /// negotiation converged with no overused link.
    fn check_epoch(
        &self,
        tr: &mut Tracer,
        checks: &mut Checks,
        i: usize,
        plan: &FlowPlan,
        out: &EpochOut,
    ) {
        let spec = &self.net.spec;
        let fresh = tr.span("flow.fresh_build", |_| {
            FlowPlan::build(spec, &out.oracle, &self.comps, plan.routing())
        });
        let same = tr.span("check.flow_equal", |_| fresh.network() == plan.network());
        checks.check(same, || {
            format!("epoch {i}: advanced plan differs from a fresh build")
        });
        let agree = tr.span("check.distance_agree", |_| {
            self.inputs.pairs.iter().all(|&(s, d)| {
                let a = PathOracle::distance(&out.table, s, d).ok();
                let b = PathOracle::distance(&out.oracle, s, d).ok();
                a == b
            })
        });
        checks.check(agree, || {
            format!("epoch {i}: table and analytic distances disagree")
        });
        checks.check(out.converged && out.overused == 0, || {
            format!(
                "epoch {i}: negotiation/motifs did not complete cleanly ({} overused links)",
                out.overused
            )
        });
    }

    /// The whole schedule once, from the pristine plan and a fresh motif
    /// model (its path sampler is seeded, so every pass replays the same
    /// draws). Steps are epochs; checks run between steps, untimed.
    pub fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Pass {
        let mut pass = Pass::default();
        let mut plan = self.plan.clone();
        let mut model = NetModel::new(self.net.spec.clone(), MotifConfig::default());
        let mut prev = FaultSet::empty();
        let epochs = self.inputs.epochs.clone();
        let mut digests = Vec::with_capacity(epochs.len());
        self.notes.clear();
        for (i, fs) in epochs.iter().enumerate() {
            let t = Instant::now();
            let out = tr.span("step.epoch", |tr| {
                self.step(tr, &mut model, &mut plan, &prev, fs)
            });
            let s = t.elapsed().as_secs_f64();
            pass.steps_ms.push(s * 1e3);
            pass.work += 1.0;
            pass.work_s += s;
            self.check_epoch(tr, checks, i, &plan, &out);
            digests.push(out.digest);
            self.notes
                .push((out.rerouted, plan.num_pairs(), out.iterations));
            prev = fs.clone();
        }
        pass.wall_s = pass.work_s;
        if self.first.is_empty() {
            self.first = digests;
        } else {
            checks.check(digests == self.first, || {
                "epoch outputs differ between passes".into()
            });
        }
        pass
    }

    pub fn print_digests(&self) {
        let epochs = self.first.iter().zip(&self.inputs.epochs).zip(&self.notes);
        for (i, ((d, fs), (rerouted, _, iters))) in epochs.enumerate() {
            eprintln!(
                "perfbench: fault epoch {i}: {} failed links, {rerouted} pairs re-routed, \
                 {iters} negotiation iterations, digest {d:016x}",
                fs.failed_links().len()
            );
        }
    }

    /// Traced-run extras on top of the traced pass's spans.
    pub fn census(&self, tr: &mut Tracer, m: &mut Metrics) {
        m.put(
            "routing.remask_ms",
            median(&tr.durations_ms("routing.remask")),
            "ms",
        );
        m.put(
            "routed.analytic_remask_us",
            median(&tr.durations_ms("routed.analytic_remask")) * 1e3,
            "us",
        );

        // Negotiation per epoch.
        let neg_ms = tr.durations_ms("negotiate.run");
        let iters: Vec<f64> = self.notes.iter().map(|n| n.2 as f64).collect();
        m.put("negotiate.ms", median(&neg_ms), "ms");
        m.put("negotiate.iterations", median(&iters), "count");
        let per_iter: Vec<f64> = neg_ms
            .iter()
            .zip(&iters)
            .map(|(t, i)| t / i.max(1.0))
            .collect();
        m.put("negotiate.ms_per_iter", median(&per_iter), "ms");

        // Flow: monotone epochs take the fast path, the recovery epoch
        // re-routes every pair.
        let advance = tr.durations_ms("flow.advance");
        let fresh = tr.durations_ms("flow.fresh_build");
        let recover = self.inputs.epochs.len() - 1;
        let monotone: Vec<usize> = (0..recover).collect();
        m.put("flow.fresh_build_ms", median(&fresh), "ms");
        m.put(
            "flow.advance_ms",
            median(&monotone.iter().map(|&i| advance[i]).collect::<Vec<_>>()),
            "ms",
        );
        m.put("flow.advance_recover_ms", advance[recover], "ms");
        let rerouted: usize = self.notes.iter().map(|n| n.0).sum();
        m.put("flow.rerouted_pairs", rerouted as f64, "count");
        m.put(
            "flow.network_ms",
            median(&tr.durations_ms("flow.network")),
            "ms",
        );
        m.put(
            "flow.solve_ms",
            median(&tr.durations_ms("flow.solve")),
            "ms",
        );
        let ratios: Vec<f64> = monotone
            .iter()
            .map(|&i| {
                let (re, pairs, _) = self.notes[i];
                let dirty = re.max(1) as f64 / pairs as f64;
                advance[i] / (fresh[i] * dirty)
            })
            .collect();
        m.put("flow.walk_vs_fresh", median(&ratios), "ratio");

        // Bulk queries on the most-faulted analytic oracle.
        let worst = &self.inputs.epochs[recover - 1];
        let faulted = self.oracle.remask(worst);
        let mut col = Vec::new();
        let n = self.net.spec.routers() as u32;
        for (i, &(_, d)) in self.inputs.pairs.iter().take(16).enumerate() {
            let dst = (d + i as u32) % n;
            tr.span("routed.distance_column", |_| {
                faulted.distance_column(dst, &mut col)
            });
        }
        m.put(
            "routed.distance_column_us",
            median(&tr.durations_ms("routed.distance_column")) * 1e3,
            "us",
        );
        for &(s, d) in self.inputs.pairs.iter().take(64) {
            let paths = tr.span("routed.k_paths", |_| faulted.k_paths(s, d, 4));
            std::hint::black_box(paths.ok());
        }
        m.put(
            "routed.k_paths_us",
            median(&tr.durations_ms("routed.k_paths")) * 1e3,
            "us",
        );

        m.put(
            "motifs.set_faults_ms",
            median(&tr.durations_ms("motifs.set_faults")),
            "ms",
        );
        m.put(
            "motifs.allreduce_ms",
            median(&tr.durations_ms("motifs.allreduce")),
            "ms",
        );
        m.put(
            "motifs.striped_bcast_ms",
            median(&tr.durations_ms("motifs.striped_bcast")),
            "ms",
        );
    }
}
