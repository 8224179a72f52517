//! PolarStar reproduction benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! With `--trace 0` it sets the workload up nine times (reporting the
//! median), then repeats whole passes of the workload's fixed work for
//! about `--seconds`, with tracing off, and prints the end-to-end metrics.
//! With `--trace 1` it sets up and runs every workload once with spans
//! recorded around each call into a layer, and prints the per-layer
//! metrics; the selected workload also runs a warm-up and an untraced
//! pass first, which gives the tracing overhead. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. All
//! times are host times; simulated statistics are digested and checked,
//! never reported as metrics.

mod engine_wl;
mod fault_wl;
mod storm_wl;
mod trace;
mod util;

use engine_wl::Engine;
use fault_wl::FaultWalk;
use std::fmt::Write as _;
use std::time::Instant;
use storm_wl::{Backend, Storm};
use trace::Tracer;
use util::{derive, median, peak_rss_mb, quantile, Checks, Metrics};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// What one pass of a workload's fixed work measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host time of the pass (timed steps only, for `fault_walk`).
    pub wall_s: f64,
    /// Host time of each step: an engine point, a fault-epoch step or an
    /// epoch install.
    pub steps_ms: Vec<f64>,
    /// Work done (router-cycles, epochs, or the queries of one client
    /// batch) and the host time it took (for the batch: its median).
    pub work: f64,
    pub work_s: f64,
    /// Per-request latency (client batches), where requests exist.
    pub requests_ms: Vec<f64>,
}

/// The workloads. `BENCHMARK.json` lists all but `RouteStormTable`,
/// whose table reads are too sensitive to a shared last-level cache to
/// hold an end-to-end bound; it runs in every traced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    EngineSynthetic,
    FaultWalk,
    RouteStormTable,
    RouteStormAnalytic,
}

const WORKLOADS: [Workload; 4] = [
    Workload::EngineSynthetic,
    Workload::FaultWalk,
    Workload::RouteStormTable,
    Workload::RouteStormAnalytic,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::EngineSynthetic => "engine_synthetic",
            Workload::FaultWalk => "fault_walk",
            Workload::RouteStormTable => "route_storm_table",
            Workload::RouteStormAnalytic => "route_storm_analytic",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads the library's rayon pool may use: two, the host's
    /// core count. The route storm already runs a client and an installer
    /// thread, so its installs rebuild tables on one thread.
    fn pool_width(self) -> &'static str {
        match self {
            Workload::EngineSynthetic | Workload::FaultWalk => "2",
            Workload::RouteStormTable | Workload::RouteStormAnalytic => "1",
        }
    }
}

enum Unit {
    Engine(Box<Engine>),
    Fault(Box<FaultWalk>),
    Storm(Box<Storm>),
}

impl Unit {
    fn setup(w: Workload, tr: &mut Tracer, seed: u64) -> Unit {
        // The vendored rayon reads its width from the environment on every
        // parallel call. Set-up runs before any thread of this unit starts
        // and after the previous unit's threads have been joined, so no
        // other thread reads the environment while it changes.
        std::env::set_var("RAYON_NUM_THREADS", w.pool_width());
        match w {
            Workload::EngineSynthetic => {
                Unit::Engine(Box::new(Engine::setup(tr, derive(seed, "traffic"))))
            }
            Workload::FaultWalk => Unit::Fault(Box::new(FaultWalk::setup(tr, seed))),
            Workload::RouteStormTable => {
                Unit::Storm(Box::new(Storm::setup(tr, Backend::Table, seed)))
            }
            Workload::RouteStormAnalytic => {
                Unit::Storm(Box::new(Storm::setup(tr, Backend::Analytic, seed)))
            }
        }
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Pass {
        match self {
            Unit::Engine(e) => e.pass(tr, checks),
            Unit::Fault(f) => f.pass(tr, checks),
            Unit::Storm(s) => s.pass(tr, true),
        }
    }

    fn post_checks(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        match self {
            Unit::Engine(e) => {
                e.post_checks(tr, checks);
                e.print_digests();
            }
            Unit::Fault(f) => f.print_digests(),
            Unit::Storm(s) => s.post_checks(tr, checks),
        }
    }
}

/// The end-to-end metrics, tracing off.
fn measure(w: Workload, seed: u64, seconds: f64) -> (Metrics, Checks) {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut unit = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first, so only one is resident.
        drop(unit.take());
        let t = Instant::now();
        unit = Some(Unit::setup(w, &mut tr, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut unit = unit.expect("at least one set-up");
    let mut checks = Checks::default();
    // Whole passes only, and none that would end past `seconds`: the run
    // measures for about `seconds` whatever the host's speed.
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        passes.push(unit.pass(&mut tr, &mut checks));
        took.push(t.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() + median(&took) > seconds {
            break;
        }
    }
    let rss = peak_rss_mb();
    unit.post_checks(&mut tr, &mut checks);

    // Every pass repeats the same work. Host noise on a shared VM is
    // one-sided and bursty (neighbours slow whole passes by up to half),
    // so each figure is taken from the fastest pass, or for a step, its
    // fastest instance: the uncontended cost, which a median would mix
    // with however much of the run happened to be contended.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.work / p.work_s).collect();
    let step_best: Vec<f64> = (0..passes[0].steps_ms.len())
        .map(|i| {
            let v: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.steps_ms.get(i).copied())
                .collect();
            fastest(&v)
        })
        .collect();
    // The tail is the per-request p99 where requests exist (client
    // batches, at least 1000 per pass), else the slowest step.
    let tail_ms = if passes[0].requests_ms.is_empty() {
        step_best.iter().copied().fold(0.0, f64::max)
    } else {
        let p99s: Vec<f64> = passes
            .iter()
            .map(|p| {
                let n = p.requests_ms.len();
                let beyond = n - (0.99 * n as f64).ceil() as usize;
                checks.check(beyond >= 10, || {
                    format!("only {beyond} of {n} batch samples beyond p99")
                });
                quantile(&p.requests_ms, 0.99)
            })
            .collect();
        eprintln!(
            "perfbench: {} client batches per pass, p99 per pass {p99s:.3?} ms",
            passes[0].requests_ms.len()
        );
        fastest(&p99s)
    };
    eprintln!(
        "perfbench: {} passes of {} steps, {} set-ups; pass walls {:.3?} s",
        passes.len(),
        step_best.len(),
        setups.len(),
        walls
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", fastest(&walls), "s");
    m.put("peak_rss_mb", rss, "MB");
    m.put(
        "throughput_per_s",
        rates.iter().copied().fold(0.0, f64::max),
        "1/s",
    );
    m.put("step_p50_ms", median(&step_best), "ms");
    m.put("tail_ms", tail_ms, "ms");
    (m, checks)
}

/// Layers whose self time the traced run reports, named after the
/// repository's modules (`check` and `step` are the benchmark's own).
const LAYERS: [&str; 10] = [
    "topo",
    "routing",
    "traffic",
    "engine",
    "flow",
    "negotiate",
    "motifs",
    "routed",
    "check",
    "step",
];

/// The per-layer metrics: every workload once, traced.
fn traced(w: Workload, seed: u64) -> (Metrics, Checks, Tracer) {
    let mut tr = Tracer::new(true);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let mut overhead = 0.0;
    let mut coverage = 0.0;
    for unit_w in WORKLOADS {
        let t_setup = tr.now_ns();
        let mut unit = Unit::setup(unit_w, &mut tr, seed);
        if unit_w == w {
            // A first, discarded pass warms caches and the allocator, so
            // the untraced and traced passes compare like with like.
            let mut off = Tracer::new(false);
            unit.pass(&mut off, &mut checks);
            let plain = unit.pass(&mut off, &mut checks);
            let from = tr.now_ns();
            let traced = unit.pass(&mut tr, &mut checks);
            let to = tr.now_ns();
            overhead = traced.wall_s / plain.wall_s - 1.0;
            coverage = tr.top_level_ns(from, to) as f64 / (to - from) as f64;
            eprintln!(
                "perfbench: traced pass {:.3}s vs untraced {:.3}s",
                traced.wall_s, plain.wall_s
            );
        }
        match &mut unit {
            Unit::Engine(e) => {
                if unit_w != w {
                    e.pass(&mut tr, &mut checks);
                }
                let setup_ms = tr.durations_in("negotiate.setup", t_setup, u64::MAX);
                m.put("negotiate.setup_ms", setup_ms[0] as f64 / 1e6, "ms");
                e.post_checks(&mut tr, &mut checks);
                e.census(&mut tr, &mut checks, &mut m);
                e.print_digests();
            }
            Unit::Fault(f) => {
                let edst = tr.durations_in("topo.edst", t_setup, u64::MAX);
                m.put("topo.edst_ms", edst[0] as f64 / 1e6, "ms");
                if unit_w != w {
                    f.pass(&mut tr, &mut checks);
                }
                f.census(&mut tr, &mut m);
                f.print_digests();
            }
            Unit::Storm(s) => {
                s.census(&mut tr, &mut m);
                s.post_checks(&mut tr, &mut checks);
            }
        }
    }
    let ms = |name: &str| median(&tr.durations_ms(name));
    m.put("topo.build_ms", ms("topo.build"), "ms");
    m.put("routing.table_build_ms", ms("routing.table_build"), "ms");
    let remask = ms("routing.remask");
    m.put(
        "routing.remask_vs_build",
        remask / ms("routing.table_build"),
        "ratio",
    );
    let self_ns = tr.self_ns_by_layer();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        m.put(format!("self_s.{layer}"), ns as f64 / 1e9, "s");
    }
    m.put("trace.overhead", overhead, "ratio");
    m.put("trace.coverage", coverage, "ratio");
    m.put("trace.spans", tr.spans().len() as f64, "count");
    (m, checks, tr)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.windows(2)
            .find(|p| p[0] == flag)
            .map(|p| p[1].as_str())
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")
        .unwrap_or("10")
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out: value("--trace-out").map(str::to_string),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (metrics, checks) = if args.trace {
        let (m, checks, tr) = traced(args.workload, args.seed);
        if let Some(path) = &args.trace_out {
            let header = format!(
                "\"workload\": \"{}\", \"seed\": {}",
                args.workload.name(),
                args.seed
            );
            if let Err(e) = std::fs::write(path, tr.to_json(&header)) {
                eprintln!("perfbench: writing {path}: {e}");
                std::process::exit(1);
            }
        }
        (m, checks)
    } else {
        measure(args.workload, args.seed, args.seconds)
    };
    for (name, value, unit) in &metrics.0 {
        eprintln!("perfbench: {:<40} {value:>16.6} {unit}", name);
    }
    eprintln!(
        "perfbench: error_rate {} ({} of {} checks failed)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed
    )
    .expect("string write");
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { -1.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    out.push_str("}}");
    println!("{out}");
}
