//! `route_storm`: one closed-loop client thread answers fixed-size
//! batches (next-hop queries plus k = 4 path answers) against a
//! `routed::Oracle` snapshot while a second thread installs seeded fault
//! epochs through `EpochSwapper`, one per fixed number of client batches.
//! Bypasses the engine, the flow model and the motifs.

use crate::trace::Tracer;
use crate::util::{derive, median, quantile, Checks, Digest, Metrics};
use crate::Pass;
use polarstar_routed::{EpochSwapper, Oracle, QueryBatch, RouteAnswer};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::PathOracle;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Distinct query slices; batch `b` uses slice `b % SLICES`. Enough of
/// them that no single slice's cost sets the p99.
const SLICES: usize = 512;
/// Failed-link shares of the churn epochs; the cycle ends pristine.
const CHURN_FRACTIONS: [f64; 3] = [0.01, 0.02, 0.03];
/// Sampled batches re-answered on a fresh snapshot after the run.
const TORN_SAMPLES: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    Table,
    Analytic,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Table => "table",
            Backend::Analytic => "analytic",
        }
    }

    /// The backend's storm shape. A table install rebuilds a route table
    /// (about a quarter of a second, a quarter of the client time between
    /// installs), an analytic one swaps a fault mask (microseconds), so
    /// each installer keeps up and most batches run beside an idle one.
    /// Analytic queries cost about 20× more, so its batches are smaller;
    /// every pass holds at least 1000 batches, which puts at least 10
    /// samples beyond the p99. A pass installs a whole number of churn
    /// cycles, so it ends on the pristine epoch and every pass, like the
    /// first, starts from it.
    fn sizing(self) -> Sizing {
        match self {
            Backend::Table => Sizing {
                batches: 51_200,
                per_install: 12_800,
                next_hop: 256,
                k4: 16,
            },
            Backend::Analytic => Sizing {
                batches: 2_048,
                per_install: 16,
                next_hop: 64,
                k4: 4,
            },
        }
    }

    /// Build this backend's base snapshot, spanned by layer.
    pub fn build(self, tr: &mut Tracer) -> Oracle {
        match self {
            Backend::Table => {
                let spec = tr.span("topo.build", |_| {
                    bench::table3_network("PS-IQ").expect("PS-IQ builds")
                });
                tr.span("routing.table_build", |_| Oracle::new(Arc::new(spec)))
            }
            Backend::Analytic => {
                let net = tr.span("topo.build", |_| {
                    bench::table3_polarstar("PS-IQ").expect("PS-IQ builds")
                });
                tr.span("routed.analytic_build", |_| Oracle::new_analytic(net))
            }
        }
    }
}

/// Client batches per pass and per epoch install, and the queries of one
/// batch: next-hop only, and full k = 4 answers.
struct Sizing {
    batches: usize,
    per_install: usize,
    next_hop: usize,
    k4: usize,
}

fn answers_digest(d: &mut Digest, answers: &[RouteAnswer]) {
    for a in answers {
        d.u64(a.distance.map_or(u64::MAX, u64::from))
            .u64(a.next_hop.map_or(u64::MAX, u64::from))
            .u64(a.path.len() as u64)
            .u64(a.alternatives.len() as u64);
        for p in &a.alternatives {
            for &r in p {
                d.u64(u64::from(r));
            }
        }
    }
}

/// One batch against one snapshot: (digest of every answer, torn).
fn answer(tr: &mut Tracer, snap: &Oracle, nh: &[(u32, u32)], k4: &QueryBatch) -> (u64, bool) {
    let mut d = Digest::default();
    tr.span("routed.next_hop_batch", |_| {
        for &(s, t) in nh {
            d.u64(PathOracle::next_hop(snap, s, t).map_or(u64::MAX, u64::from));
        }
    });
    let answers = tr.span("routed.answer_batch", |_| snap.answer_batch(k4));
    let torn = answers.iter().any(|a| a.epoch != snap.epoch());
    answers_digest(&mut d, &answers);
    (d.0, torn)
}

pub struct Storm {
    backend: Backend,
    swapper: EpochSwapper,
    next_hop: Vec<Vec<(u32, u32)>>,
    k4: Vec<QueryBatch>,
    /// Install `e` (1-based) applies `churn[(e - 1) % churn.len()]`.
    churn: Vec<FaultSet>,
    next_epoch: u64,
    /// (slice, epoch, digest) of every timed batch.
    records: Vec<(usize, u64, u64)>,
    torn: u64,
}

impl Storm {
    pub fn setup(tr: &mut Tracer, backend: Backend, seed: u64) -> Storm {
        let base = backend.build(tr);
        let n = base.spec().routers() as u32;
        let size = backend.sizing();
        let qseed = derive(seed, "queries");
        let next_hop = (0..SLICES as u64)
            .map(|i| {
                QueryBatch::random(size.next_hop, n, 0, qseed ^ (2 * i))
                    .queries
                    .iter()
                    .map(|q| (q.src, q.dst))
                    .collect()
            })
            .collect();
        let k4 = (0..SLICES as u64)
            .map(|i| QueryBatch::random(size.k4, n, 4, qseed ^ (2 * i + 1)))
            .collect();
        let cseed = derive(seed, "churn");
        let mut churn: Vec<FaultSet> = CHURN_FRACTIONS
            .iter()
            .map(|&f| FaultSet::random_links(&base.spec().graph, f, cseed))
            .collect();
        churn.push(FaultSet::empty());
        assert_eq!(
            (size.batches / size.per_install) % churn.len(),
            0,
            "a pass must end on the pristine epoch"
        );
        Storm {
            backend,
            swapper: EpochSwapper::new(base),
            next_hop,
            k4,
            churn,
            next_epoch: 1,
            records: Vec::new(),
            torn: 0,
        }
    }

    fn faults_of(&self, epoch: u64) -> &FaultSet {
        if epoch == 0 {
            self.swapper.base().spec().faults()
        } else {
            &self.churn[((epoch - 1) as usize) % self.churn.len()]
        }
    }

    /// One pass: a fixed number of client batches, with an epoch install
    /// after every `per_install` of them when `churn` is set. Steps are
    /// installs (prepare + publish); requests are client batches.
    pub fn pass(&mut self, tr: &mut Tracer, churn: bool) -> Pass {
        let Sizing {
            batches,
            per_install,
            next_hop,
            k4,
        } = self.backend.sizing();
        let mut pass = Pass::default();
        let (tx, rx) = mpsc::channel::<u64>();
        let mut installer_tr = tr.child_track(1);
        let t0 = Instant::now();
        let this = &*self;
        let (lat, recs, torn, installs, installer_tr) = std::thread::scope(|scope| {
            let installer = scope.spawn(move || {
                let mut times = Vec::new();
                for epoch in rx {
                    let t = Instant::now();
                    let next = installer_tr.span("routed.prepare", |_| {
                        this.swapper.prepare(this.faults_of(epoch), epoch)
                    });
                    installer_tr.span("routed.publish", |_| this.swapper.install(next));
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                }
                (times, installer_tr)
            });
            let mut lat = Vec::with_capacity(batches);
            let mut recs = Vec::with_capacity(batches);
            let mut torn = 0u64;
            let mut epoch = this.next_epoch;
            for b in 0..batches {
                let slice = b % SLICES;
                let t = Instant::now();
                let (digest, snap_epoch, was_torn) = tr.span("step.batch", |tr| {
                    let snap = this.swapper.load();
                    let (d, torn) = answer(tr, &snap, &this.next_hop[slice], &this.k4[slice]);
                    (d, snap.epoch(), torn)
                });
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                recs.push((slice, snap_epoch, digest));
                torn += u64::from(was_torn);
                if churn && (b + 1) % per_install == 0 {
                    tx.send(epoch).expect("installer is running");
                    epoch += 1;
                }
            }
            drop(tx);
            let (installs, itr) = installer.join().expect("installer thread");
            (lat, recs, torn, installs, itr)
        });
        pass.wall_s = t0.elapsed().as_secs_f64();
        tr.absorb(installer_tr);
        self.next_epoch += installs.len() as u64;
        self.records.extend(recs);
        self.torn += torn;
        // Client throughput at the median batch latency: one slow burst
        // on the shared cores moves the tail, not the rate.
        pass.work = (next_hop + k4) as f64;
        pass.work_s = median(&lat) / 1e3;
        pass.requests_ms = lat;
        pass.steps_ms = installs;
        pass
    }

    /// After the timed phase: no batch mixed epochs; sampled batches
    /// re-answered on a freshly prepared snapshot of their epoch's fault
    /// set give the same digest; and both backends agree on reachability
    /// and hop distance for sampled pairs under every churn fault set.
    pub fn post_checks(&self, tr: &mut Tracer, checks: &mut Checks) {
        checks.check(self.torn == 0, || {
            format!("{} batches mixed epochs", self.torn)
        });
        let step = (self.records.len() / TORN_SAMPLES).max(1);
        let mut by_set: BTreeMap<usize, Vec<(usize, u64, u64)>> = BTreeMap::new();
        for &(slice, epoch, d) in self.records.iter().step_by(step) {
            let set = if epoch == 0 {
                self.churn.len() - 1
            } else {
                ((epoch - 1) as usize) % self.churn.len()
            };
            by_set.entry(set).or_default().push((slice, epoch, d));
        }
        for (set, recs) in by_set {
            let snap = tr.span("check.prepare", |_| {
                self.swapper.prepare(&self.churn[set], recs[0].1)
            });
            for (slice, _, d) in recs {
                let mut quiet = Tracer::new(false);
                let (again, _) = answer(&mut quiet, &snap, &self.next_hop[slice], &self.k4[slice]);
                checks.check(again == d, || {
                    format!("batch on slice {slice} differs from its epoch's fresh snapshot")
                });
            }
        }

        let other = match self.backend {
            Backend::Table => Backend::Analytic,
            Backend::Analytic => Backend::Table,
        };
        let mut quiet = Tracer::new(false);
        let other_base = other.build(&mut quiet);
        let pairs = &self.next_hop[0];
        for (i, fs) in self.churn.iter().enumerate() {
            let a = self.swapper.prepare(fs, 0);
            let b = other_base.remask(fs, 0);
            let agree = tr.span("check.backends_agree", |_| {
                pairs.iter().all(|&(s, d)| {
                    PathOracle::distance(&a, s, d).ok() == PathOracle::distance(&b, s, d).ok()
                })
            });
            checks.check(agree, || {
                format!("churn set {i}: backends disagree on distances")
            });
        }
    }

    /// Traced-run layer metrics from one quiet pass and one churn pass.
    pub fn census(&mut self, tr: &mut Tracer, m: &mut Metrics) {
        let name = self.backend.name();
        let from = tr.now_ns();
        let quiet = self.pass(tr, false);
        let mid = tr.now_ns();
        let churned = self.pass(tr, true);
        let to = tr.now_ns();
        let nh_ns: u64 = tr
            .durations_in("routed.next_hop_batch", from, mid)
            .iter()
            .sum();
        let k4_ns: u64 = tr
            .durations_in("routed.answer_batch", from, mid)
            .iter()
            .sum();
        let size = self.backend.sizing();
        m.put(
            format!("routed.next_hop_ns.{name}"),
            nh_ns as f64 / (size.batches * size.next_hop) as f64,
            "ns",
        );
        m.put(
            format!("routed.answer_k4_us.{name}"),
            k4_ns as f64 / 1e3 / (size.batches * size.k4) as f64,
            "us",
        );
        if self.backend == Backend::Table {
            let prep = tr.durations_in("routed.prepare", mid, to);
            let publ = tr.durations_in("routed.publish", mid, to);
            let ms: Vec<f64> = prep.iter().map(|&x| x as f64 / 1e6).collect();
            let us: Vec<f64> = publ.iter().map(|&x| x as f64 / 1e3).collect();
            m.put("routed.prepare_ms", median(&ms), "ms");
            m.put("routed.publish_us", median(&us), "us");
            m.put("routed.swaps", prep.len() as f64, "count");
            m.put(
                "routed.p99_under_churn_ratio",
                quantile(&churned.requests_ms, 0.99) / quantile(&quiet.requests_ms, 0.99),
                "ratio",
            );
        }
    }
}
