//! The cycle loop: input-queued virtual-channel routers with credit-based
//! flow control and virtual cut-through switching.
//!
//! See the crate docs for the model. The engine is deterministic for a
//! fixed seed at *any* thread count: routers are partitioned into
//! contiguous shards, each simulated cycle runs as compute phases
//! separated by a barrier, and cross-shard effects travel as
//! [`Ev::Arrive`]/[`Ev::Credit`] events through per-shard outboxes. Two
//! properties make shard boundaries unobservable:
//!
//! * **Per-router RNG streams.** Every router owns a ChaCha8 stream
//!   seeded from `(cfg.seed, router id)`, and all draws a router makes
//!   (generation Bernoulli, destinations, UGAL/Valiant intermediates,
//!   minimal-port picks) come from its own stream in a fixed per-router
//!   order. No draw order is shared across routers, so it cannot depend
//!   on how routers are grouped into threads.
//! * **Commutative event delivery.** Credit-based flow control
//!   serializes each directed link for `packet_flits ≥ 1` cycles, so at
//!   most one packet arrives per (router, inport, vc) per cycle:
//!   arrivals land in distinct input queues, credits are plain
//!   increments, and stats are integer sums — all insensitive to the
//!   order events are drained from a wheel slot. The one
//!   order-sensitive operation, breaking a tie among several minimal
//!   output ports on arrival, uses a stateless hash of
//!   `(seed, router, inport, vc, cycle)` instead of an RNG stream, so no
//!   per-slot sort is needed. All cross-router effects land at least one
//!   cycle in the future, so one barrier per cycle suffices.
//!
//! One run loop (`sharded::run`) serves every shard count. A single
//! whole-network shard (`threads: None`) takes the same cycle loop on
//! the caller's thread, so results are bit-identical at every thread
//! count by construction, which `tests/determinism.rs` locks in.
//!
//! Hot-path state lives in flat arenas: input queues are fixed-capacity
//! ring buffers in one `u32` arena, credits/busy-horizons/round-robin
//! pointers are offset-indexed flat vectors, and the packet arena plus
//! freelist are pre-sized from topology stats so the steady state does
//! not allocate.

use crate::monitor::{NoopMonitor, ShardableMonitor, SimMonitor, StallCause, WatchdogDiag};
use crate::negotiate::NegotiatedRoutes;
use crate::routing::{RouteTable, RoutingKind};
use crate::traffic::{resolve, Pattern, ResolvedPattern};
use polarstar_topo::fault::FaultSchedule;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::PathOracle as _;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// How the engine responds when a [`FaultSchedule`] epoch takes effect
/// mid-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultResponse {
    /// Online route repair: per-epoch route tables are prebuilt from the
    /// schedule, packets queued on a newly dead link are re-routed (or
    /// dropped when the destination became unreachable), and
    /// Valiant/UGAL candidate filtering follows the current epoch.
    #[default]
    Reroute,
    /// Physical failure only: dead links stop carrying traffic, but all
    /// routing state stays at the cycle-0 view — an unconverged control
    /// plane. Packets routed onto a dead link wait forever, modeling the
    /// wedge the watchdog exists to catch.
    Stale,
}

/// Simulation parameters; defaults follow §9.4 (4-flit packets, 128-flit
/// buffers per port, 4 VCs).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Flits per packet.
    pub packet_flits: u32,
    /// Virtual channels per port.
    pub vcs: usize,
    /// Flit buffer per port, divided evenly among VCs.
    pub buf_flits_per_port: u32,
    /// Link traversal latency in cycles.
    pub link_latency: u32,
    /// Cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Measurement window length.
    pub measure_cycles: u64,
    /// Max extra cycles to drain measured packets.
    pub drain_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Engine worker threads for one run: `Some(t)` shards routers
    /// across `t` threads (clamped to `1..=routers`); `None` or
    /// `Some(0|1)` runs one shard on the caller's thread. Results are
    /// bit-identical for every setting.
    pub threads: Option<usize>,
    /// Timed mid-run fault events, layered on top of the spec's static
    /// [`polarstar_topo::FaultSet`]. `None` keeps faults static for the
    /// whole run. Epochs are materialized (and their route tables built)
    /// before cycle 0, so the schedule costs nothing on the hot path and
    /// results stay bit-identical at any thread count.
    pub fault_schedule: Option<FaultSchedule>,
    /// What an epoch switch does to routing state and queued packets.
    pub fault_response: FaultResponse,
    /// Watchdog: terminate the run (with a diagnostic snapshot through
    /// [`SimMonitor::on_watchdog`]) after this many consecutive cycles
    /// with zero deliveries while packets sit buffered — a wedged
    /// network. `None` disables; the default catches deadlock without
    /// ever firing on a live (even deeply saturated) network.
    pub watchdog_cycles: Option<u64>,
    /// Run the self-check pass ([`Shard::check_invariants`]) every this
    /// many cycles: credit conservation, packet-arena conservation, and
    /// queue bounds. Panics on violation. `None` (the default) skips it;
    /// it is a debugging/CI tool, not a production-path feature.
    pub invariant_check_every: Option<u64>,
}

/// A [`SimConfig`] the engine arena cannot represent. Checked by
/// [`SimConfig::validate`] and at `Ctx` construction (the entry points
/// panic with this error's message rather than silently corrupting
/// state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// `packet_flits == 0`: zero-length packets would deliver events in
    /// the same cycle they are sent.
    ZeroPacketFlits,
    /// `vcs == 0`: every port needs at least one virtual channel.
    ZeroVcs,
    /// The per-VC queue capacity (`buf_flits_per_port / vcs /
    /// packet_flits` packets) exceeds what the `u16` queue/credit
    /// arena fields can count — enqueueing would silently wrap.
    QueueCapacityOverflow {
        /// The capacity the config implies, in packets per VC.
        cap_pkts: u32,
        /// The largest representable capacity.
        max: u32,
    },
    /// `Ugal { candidates }` beyond the fixed scoring scratch.
    TooManyUgalCandidates { candidates: usize, max: usize },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::ZeroPacketFlits => {
                write!(f, "packet_flits must be >= 1 (zero-length packets would deliver events in the same cycle)")
            }
            SimConfigError::ZeroVcs => write!(f, "vcs must be >= 1"),
            SimConfigError::QueueCapacityOverflow { cap_pkts, max } => write!(
                f,
                "per-VC queue capacity of {cap_pkts} packets exceeds the u16 arena limit of {max} \
                 (shrink buf_flits_per_port or raise vcs/packet_flits)"
            ),
            SimConfigError::TooManyUgalCandidates { candidates, max } => {
                write!(
                    f,
                    "Ugal {{ candidates: {candidates} }} exceeds the scoring scratch ({max})"
                )
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

impl SimConfig {
    /// The per-VC input queue capacity this config implies, in packets.
    pub fn queue_capacity_pkts(&self) -> u32 {
        (self.buf_flits_per_port / (self.vcs.max(1) as u32) / self.packet_flits.max(1)).max(1)
    }

    /// Check the arena can represent this config. The queue length,
    /// head pointer, and credit counters are `u16`, so a per-VC
    /// capacity ≥ 65 536 packets would silently wrap on enqueue — it
    /// is rejected here instead.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.packet_flits < 1 {
            return Err(SimConfigError::ZeroPacketFlits);
        }
        if self.vcs < 1 {
            return Err(SimConfigError::ZeroVcs);
        }
        let cap_pkts = self.queue_capacity_pkts();
        if cap_pkts > u16::MAX as u32 {
            return Err(SimConfigError::QueueCapacityOverflow {
                cap_pkts,
                max: u16::MAX as u32,
            });
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_flits: 4,
            vcs: 4,
            buf_flits_per_port: 128,
            link_latency: 1,
            warmup_cycles: 2_000,
            measure_cycles: 5_000,
            drain_cycles: 20_000,
            seed: 0x9e3779b97f4a7c15,
            threads: None,
            fault_schedule: None,
            fault_response: FaultResponse::Reroute,
            watchdog_cycles: Some(10_000),
            invariant_check_every: None,
        }
    }
}

/// Outcome of one simulation point.
///
/// `PartialEq` is exact (floats included): determinism tests compare
/// results across engine-thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Offered load (fraction of endpoint injection bandwidth).
    pub offered: f64,
    /// Accepted throughput: ejected flits per active endpoint per cycle
    /// during the measurement window.
    pub accepted: f64,
    /// Mean packet latency (cycles, generation → tail ejection) over
    /// measured packets.
    pub avg_latency: f64,
    /// 99th-percentile latency of measured packets.
    pub p99_latency: f64,
    /// Measured packets ejected / measured packets generated.
    pub delivered_fraction: f64,
    /// Whether the run drained its measured packets (a saturated network
    /// fails to, or shows runaway latency).
    pub stable: bool,
    /// Measured packets ejected.
    pub measured_ejected: u64,
    /// Mean hop count of measured packets (minimal routing on a
    /// diameter-3 network gives ≤ 3 + 1 ejection-free hops).
    pub avg_hops: f64,
    /// Measured packets dropped at injection because the fault-degraded
    /// network offers no path (source/destination router failed or the
    /// pair is disconnected). Always 0 on a pristine network; never
    /// counted in `delivered_fraction`'s denominator.
    pub unroutable: u64,
    /// Packets (all windows) dropped in flight by a live fault event: the
    /// packet was buffered or on the wire when its router died or its
    /// destination became unreachable. Always 0 without a
    /// [`FaultSchedule`].
    pub faulted_in_flight: u64,
    /// Packets re-routed in place at a fault-epoch switch because their
    /// chosen output port crossed a newly dead link.
    pub rerouted: u64,
    /// The watchdog cut the run short: the network sat wedged (buffered
    /// packets, zero deliveries) for `SimConfig::watchdog_cycles`
    /// consecutive cycles. A diagnostic snapshot went to the monitor's
    /// `on_watchdog` hook.
    pub watchdog_fired: bool,
}

const EJECT: u8 = u8::MAX;
const NO_INTERMEDIATE: u32 = u32::MAX;
/// `Packet::pair` when the packet's (src, dst) router pair is not part
/// of the negotiated overlay (or no overlay is attached).
const NO_PAIR: u32 = u32::MAX;
/// Largest `Ugal { candidates }` the fixed scoring scratch supports.
const MAX_UGAL_CANDIDATES: usize = 16;

/// In-flight packet state. Deliberately not `Clone`: packets move —
/// between the arena, the event wheel, and cross-shard mailboxes — and
/// are only materialized once their winning path is chosen.
#[derive(Debug)]
pub(crate) struct Packet {
    dst_router: u32,
    dst_slot: u16,
    intermediate: u32, // NO_INTERMEDIATE = none
    /// Index into the negotiated overlay's pair table (NO_PAIR = none):
    /// lets [`Shard::route_at`] follow the negotiated path without a
    /// per-hop binary search.
    pair: u32,
    phase: u8,
    hops: u8,
    cur_port: u8, // routed output at current router (EJECT = ejection)
    measured: bool,
    gen_cycle: u64,
}

impl Packet {
    /// Placeholder left in the arena when a packet moves out.
    const fn vacant() -> Packet {
        Packet {
            dst_router: u32::MAX,
            dst_slot: 0,
            intermediate: NO_INTERMEDIATE,
            pair: NO_PAIR,
            phase: 0,
            hops: 0,
            cur_port: 0,
            measured: false,
            gen_cycle: 0,
        }
    }
}

/// A scheduled effect at some router. Arrivals carry the packet by value
/// so events travel uniformly whether the target router lives in the same
/// shard or another one.
#[derive(Debug)]
pub(crate) enum Ev {
    Arrive {
        router: u32,
        inport: u16,
        vc: u8,
        packet: Packet,
    },
    Credit {
        router: u32,
        outport: u8,
        vc: u8,
    },
}

impl Ev {
    #[inline]
    fn router(&self) -> u32 {
        match self {
            Ev::Arrive { router, .. } | Ev::Credit { router, .. } => *router,
        }
    }
}

/// How [`Shard::route_at`] breaks a tie among several minimal output
/// ports. Injection draws from the source router's RNG stream (the draw
/// order within one router is fixed regardless of sharding); arrivals
/// use a stateless hash of `(seed, router, inport, vc, cycle)` — unique
/// per cycle — so wheel-slot drain order never feeds back into routing.
#[derive(Clone, Copy)]
enum Tie {
    Stream,
    Hash(u64),
}

/// Simulate `spec` under `pattern` at `load` (fraction of injection
/// bandwidth) with the given routing: [`simulate_overlay_monitored`]
/// with no overlay and no monitor.
pub fn simulate(
    spec: &NetworkSpec,
    table: &RouteTable,
    kind: RoutingKind,
    pattern: &Pattern,
    load: f64,
    cfg: &SimConfig,
) -> SimResult {
    simulate_overlay_monitored(
        spec,
        table,
        kind,
        None,
        pattern,
        load,
        cfg,
        &mut NoopMonitor,
    )
}

/// The engine's entry point. Simulates `spec` under `pattern` at `load`
/// with routing `kind`, an optional negotiated overlay, and `monitor`.
///
/// * `neg`: under [`RoutingKind::Negotiated`] (which requires it)
///   packets follow the overlay's per-pair paths, falling back to the
///   first minimal port when a fault kills a negotiated hop. Under
///   every other kind the overlay's historic congestion costs are added
///   to [`Shard::port_cost`], so `Ugal` scores its candidates with
///   offline knowledge of persistent contention (historic-cost-informed
///   UGAL).
/// * `monitor`: every engine event is reported to it (see
///   [`crate::monitor`]); [`NoopMonitor`]'s hooks monomorphize to
///   nothing. With more than one engine thread each shard reports into
///   a fork of `monitor`, absorbed back in shard order when the run
///   ends.
#[allow(clippy::too_many_arguments)]
pub fn simulate_overlay_monitored<M: ShardableMonitor>(
    spec: &NetworkSpec,
    table: &RouteTable,
    kind: RoutingKind,
    neg: Option<&NegotiatedRoutes>,
    pattern: &Pattern,
    load: f64,
    cfg: &SimConfig,
    monitor: &mut M,
) -> SimResult {
    assert!((0.0..=1.0).contains(&load));
    let resolved = resolve(pattern, spec, crate::traffic::engine_resolve_seed(cfg.seed));
    let ctx = Ctx::new(spec, table, kind, neg, resolved, load, cfg.clone());
    monitor.on_run_start(spec, &ctx.cfg);
    let (stats, cycles) = crate::sharded::run(&ctx, monitor.sample_interval(), monitor);
    monitor.on_run_end(cycles);
    ctx.finalize(stats)
}

/// Precomputed per-run view of a [`NegotiatedRoutes`] table: the pair
/// list for injection-time lookup, each pair's hop sequence flattened
/// to (router, port) steps, and the historic congestion costs scaled
/// into [`Shard::port_cost`] units.
pub(crate) struct NegotiatedOverlay {
    /// Sorted (src, dst) router pairs of the negotiated matrix.
    pairs: Vec<(u32, u32)>,
    /// CSR offsets into `hop_router`/`hop_port` per pair.
    hop_off: Vec<u32>,
    /// Router each hop leaves from.
    hop_router: Vec<u32>,
    /// Output port taken at that router.
    hop_port: Vec<u8>,
    /// Historic congestion cost per directed output port (indexed by
    /// the graph's directed edge id), in `port_cost` units (flit-cycles).
    hist_port: Vec<u64>,
}

impl NegotiatedOverlay {
    fn build(spec: &NetworkSpec, neg: &NegotiatedRoutes, cfg: &SimConfig) -> NegotiatedOverlay {
        let n = spec.graph.n();
        assert_eq!(
            neg.num_routers(),
            n,
            "negotiated routes built for a different graph"
        );
        let mut hop_off = Vec::with_capacity(neg.num_pairs() + 1);
        hop_off.push(0u32);
        let mut hop_router = Vec::new();
        let mut hop_port = Vec::new();
        for i in 0..neg.num_pairs() {
            for w in neg.path_of(i).windows(2) {
                let port = spec
                    .graph
                    .neighbors(w[0])
                    .binary_search(&w[1])
                    .expect("negotiated path hop is not a graph edge");
                hop_router.push(w[0]);
                hop_port.push(port as u8);
            }
            hop_off.push(hop_router.len() as u32);
        }
        // Historic costs are unit-less multiples of the base path cost;
        // scale by packet_flits so one unit matches one buffered packet
        // in the credit-occupancy proxy.
        let links = neg.net_links() as u32;
        let hist_port: Vec<u64> = (0..links)
            .map(|e| (neg.historic_cost(e) * cfg.packet_flits as f64).round() as u64)
            .collect();
        NegotiatedOverlay {
            pairs: neg.pairs().to_vec(),
            hop_off,
            hop_router,
            hop_port,
            hist_port,
        }
    }

    /// Overlay pair index of (src, dst), or NO_PAIR.
    #[inline]
    fn pair_index(&self, src: u32, dst: u32) -> u32 {
        match self.pairs.binary_search(&(src, dst)) {
            Ok(i) => i as u32,
            Err(_) => NO_PAIR,
        }
    }

    /// The negotiated output port at router `r` for overlay pair `pair`
    /// (None when off-path — e.g. after a fault-epoch re-route).
    #[inline]
    fn port_after(&self, pair: u32, r: u32) -> Option<u8> {
        if pair == NO_PAIR {
            return None;
        }
        let lo = self.hop_off[pair as usize] as usize;
        let hi = self.hop_off[pair as usize + 1] as usize;
        self.hop_router[lo..hi]
            .iter()
            .position(|&h| h == r)
            .map(|i| self.hop_port[lo + i])
    }
}

/// Immutable per-run state shared by every shard: the topology, routing
/// table, resolved traffic, config, and the precomputed flat index maps
/// (endpoint prefix sums, reverse-port CSR, shard boundaries).
///
/// Port-indexed arrays are indexed by the graph's directed edge id:
/// port `p` of router `r` is slot [`Ctx::port_base`]`(r) + p`.
pub(crate) struct Ctx<'a> {
    table: &'a RouteTable,
    kind: RoutingKind,
    /// Negotiated route overlay: required for
    /// [`RoutingKind::Negotiated`]; under any other kind its historic
    /// costs feed [`Shard::port_cost`] (historic-informed UGAL).
    negotiated: Option<NegotiatedOverlay>,
    pattern: ResolvedPattern,
    /// Endpoints that transmit under the pattern (self-maps are idle).
    active_src: Vec<bool>,
    active_eps: usize,
    load: f64,
    /// Per-endpoint per-cycle generation probability.
    p_gen: f64,
    pub(crate) cfg: SimConfig,
    /// Reverse port map: port p of router r leads to u;
    /// back_port[port_base(r) + p] = the port of u back to r.
    back_port: Vec<u8>,
    /// Global endpoint prefix sums per router (len n + 1).
    ep_off: Vec<u32>,
    /// endpoint → (router, slot).
    ep_router: Vec<(u32, u16)>,
    /// Epoch start cycles from the fault schedule (always begins with 0;
    /// len 1 on a run without live faults). The epoch in force at cycle
    /// `now` is a pure function of `now`, so every shard switches at the
    /// same barrier with no extra synchronization.
    epoch_starts: Vec<u64>,
    /// Re-masked route tables for epochs 1.. (epoch 0 uses the caller's
    /// table). Built before cycle 0 via [`RouteTable::remask`] — pristine
    /// CSR and port numbering retained, only the BFS distance and port
    /// layers recomputed. Empty in [`FaultResponse::Stale`] mode, where
    /// routing state deliberately never converges.
    epoch_tables: Vec<RouteTable>,
    /// Per-epoch per-router failed flag (all-false on a pristine
    /// network). Packets touching a failed router at either end are
    /// dropped — as unroutable at injection, as faulted in flight.
    epoch_failed_router: Vec<Vec<bool>>,
    /// Per-epoch dead flag per directed output port (edge-id-indexed):
    /// true when the link under that port is failed in the epoch. Dead
    /// ports carry no traffic in either response mode.
    epoch_dead_port: Vec<Vec<bool>>,
    /// Per-VC input buffer capacity, in packets.
    cap_pkts: u32,
    wheel_len: usize,
    pub(crate) end_measure: u64,
    pub(crate) hard_end: u64,
    /// Contiguous shard boundaries (len shards + 1, starts ascending).
    shard_starts: Vec<u32>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        spec: &'a NetworkSpec,
        table: &'a RouteTable,
        kind: RoutingKind,
        neg: Option<&NegotiatedRoutes>,
        pattern: ResolvedPattern,
        load: f64,
        cfg: SimConfig,
    ) -> Self {
        let n = spec.graph.n();
        assert_eq!(table.n(), n, "route table built for a different graph");
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        if let RoutingKind::Ugal { candidates } = kind {
            if candidates > MAX_UGAL_CANDIDATES {
                panic!(
                    "{}",
                    SimConfigError::TooManyUgalCandidates {
                        candidates,
                        max: MAX_UGAL_CANDIDATES,
                    }
                );
            }
        }
        assert!(
            kind != RoutingKind::Negotiated || neg.is_some(),
            "RoutingKind::Negotiated requires a NegotiatedRoutes overlay \
             (pass one to simulate_overlay_monitored)"
        );
        let negotiated = neg.map(|nr| NegotiatedOverlay::build(spec, nr, &cfg));
        let links = spec.graph.directed_edge_count();
        let mut back_port = Vec::with_capacity(links);
        for r in 0..n as u32 {
            for &u in spec.graph.neighbors(r) {
                let bp = spec
                    .graph
                    .neighbors(u)
                    .binary_search(&r)
                    .expect("undirected edge");
                back_port.push(bp as u8);
            }
        }
        let ep_off: Vec<u32> = spec.endpoint_offsets().iter().map(|&o| o as u32).collect();
        let total_eps = spec.total_endpoints();
        let ep_router: Vec<(u32, u16)> = (0..total_eps)
            .map(|e| {
                let (r, s) = spec.endpoint_router(e);
                (r, s as u16)
            })
            .collect();
        let active_src: Vec<bool> = match &pattern.dest {
            None => vec![true; total_eps],
            Some(map) => map
                .iter()
                .enumerate()
                .map(|(i, &d)| d != i as u32)
                .collect(),
        };
        let active_eps = active_src.iter().filter(|&&a| a).count();
        // Live fault epochs: cumulative fault sets materialized up front
        // (epoch 0 = the spec's static mask), with their route tables
        // prebuilt so the per-cycle cost of a schedule is one
        // partition_point over a handful of entries.
        let schedule = cfg.fault_schedule.clone().unwrap_or_default();
        if let Err(e) = schedule.validate(n) {
            panic!("{e}");
        }
        let epochs = schedule.epochs(spec.faults());
        let epoch_starts: Vec<u64> = epochs.iter().map(|&(c, _)| c).collect();
        let epoch_failed_router: Vec<Vec<bool>> = epochs
            .iter()
            .map(|(_, f)| (0..n as u32).map(|r| f.router_failed(r)).collect())
            .collect();
        let epoch_dead_port: Vec<Vec<bool>> = epochs
            .iter()
            .map(|(_, f)| {
                let mask = f.edge_mask(&spec.graph);
                (0..links as u32).map(|e| mask.failed(e)).collect()
            })
            .collect();
        let epoch_tables: Vec<RouteTable> = if cfg.fault_response == FaultResponse::Reroute {
            epochs
                .iter()
                .skip(1)
                .map(|(_, f)| table.remask(spec, f))
                .collect()
        } else {
            Vec::new()
        };
        let threads = cfg.threads.unwrap_or(1).clamp(1, n);
        // Contiguous partition balanced by per-router work weight
        // (ports + endpoints + fixed overhead).
        let weights: Vec<u64> = (0..n)
            .map(|r| {
                spec.graph.degree(r as u32) as u64 + ep_off[r + 1] as u64 - ep_off[r] as u64 + 1
            })
            .collect();
        let shard_starts = partition_starts(&weights, threads);
        // Validated above to fit the u16 queue/credit arena fields.
        let cap_pkts = cfg.queue_capacity_pkts();
        let wheel_len = (cfg.packet_flits + cfg.link_latency + 2) as usize;
        let end_measure = cfg.warmup_cycles + cfg.measure_cycles;
        Ctx {
            table,
            kind,
            negotiated,
            pattern,
            active_src,
            active_eps,
            load,
            p_gen: load / cfg.packet_flits as f64,
            back_port,
            ep_off,
            ep_router,
            epoch_starts,
            epoch_tables,
            epoch_failed_router,
            epoch_dead_port,
            cap_pkts,
            wheel_len,
            end_measure,
            hard_end: end_measure + cfg.drain_cycles,
            shard_starts,
            cfg,
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.shard_starts.len() - 1
    }

    #[inline]
    fn degree(&self, r: u32) -> usize {
        self.table.degree(r)
    }

    /// Slot of router `r`'s port 0 in port-indexed arrays: the graph's
    /// directed edge id of that port.
    #[inline]
    fn port_base(&self, r: u32) -> usize {
        self.table.graph().edge_range(r).start as usize
    }

    #[inline]
    fn endpoints(&self, r: u32) -> usize {
        (self.ep_off[r as usize + 1] - self.ep_off[r as usize]) as usize
    }

    /// Which shard owns router `r` (shards are contiguous ranges).
    #[inline]
    fn shard_of(&self, r: u32) -> usize {
        self.shard_starts.partition_point(|&s| s <= r) - 1
    }

    /// Fault epoch in force at cycle `now` — a pure function of the
    /// cycle, so every shard agrees without communicating.
    #[inline]
    pub(crate) fn epoch_of(&self, now: u64) -> usize {
        if self.epoch_starts.len() == 1 {
            return 0;
        }
        self.epoch_starts.partition_point(|&s| s <= now) - 1
    }

    /// Route table for epoch `e`. In Stale mode `epoch_tables` is empty
    /// and every epoch routes on the cycle-0 view.
    #[inline]
    fn table_at(&self, e: usize) -> &RouteTable {
        if e == 0 || self.epoch_tables.is_empty() {
            self.table
        } else {
            &self.epoch_tables[e - 1]
        }
    }

    #[inline]
    fn router_failed(&self, e: usize, r: u32) -> bool {
        self.epoch_failed_router[e][r as usize]
    }

    #[inline]
    fn port_dead(&self, e: usize, r: u32, port: usize) -> bool {
        self.epoch_dead_port[e][self.port_base(r) + port]
    }

    /// Fold merged shard statistics into the run result.
    pub(crate) fn finalize(&self, mut stats: ShardStats) -> SimResult {
        let delivered = if stats.measured_generated == 0 {
            1.0
        } else {
            stats.measured_ejected as f64 / stats.measured_generated as f64
        };
        let avg = if stats.measured_ejected == 0 {
            f64::INFINITY
        } else {
            stats.latency_sum as f64 / stats.measured_ejected as f64
        };
        let p99 = if stats.latencies.is_empty() {
            f64::INFINITY
        } else {
            let l = &mut stats.latencies;
            l.sort_unstable();
            l[(l.len() - 1) * 99 / 100] as f64
        };
        let active_eps = self.active_eps.max(1);
        let accepted = stats.ejected_flits_measure as f64
            / (active_eps as f64 * self.cfg.measure_cycles as f64);
        // Steady state: the second half of the measurement window must
        // not show materially higher latency than the first (saturated
        // networks accumulate backlog, so latency grows with time).
        let steady = if stats.half_counts[0] == 0 || stats.half_counts[1] == 0 {
            stats.measured_generated == 0
        } else {
            let a0 = stats.half_sums[0] as f64 / stats.half_counts[0] as f64;
            let a1 = stats.half_sums[1] as f64 / stats.half_counts[1] as f64;
            a1 <= a0 * 1.5 + 4.0 * self.cfg.packet_flits as f64
        };
        // Throughput criterion: a stable network accepts what is offered
        // (ejected flit rate within 10% of the injection rate).
        let throughput_ok = self.load == 0.0 || accepted >= 0.9 * self.load;
        SimResult {
            offered: self.load,
            accepted,
            avg_latency: avg,
            p99_latency: p99,
            delivered_fraction: delivered,
            stable: delivered >= 0.99 && steady && throughput_ok && !stats.watchdog_fired,
            measured_ejected: stats.measured_ejected,
            avg_hops: if stats.measured_ejected == 0 {
                0.0
            } else {
                stats.hops_sum as f64 / stats.measured_ejected as f64
            },
            unroutable: stats.unroutable,
            faulted_in_flight: stats.faulted_total,
            rerouted: stats.rerouted,
            watchdog_fired: stats.watchdog_fired,
        }
    }
}

/// Contiguous router partition: boundary i is the smallest prefix whose
/// weight reaches `i/s` of the total, nudged so every shard is nonempty.
fn partition_starts(weights: &[u64], shards: usize) -> Vec<u32> {
    let n = weights.len();
    let shards = shards.clamp(1, n.max(1));
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut starts = Vec::with_capacity(shards + 1);
    starts.push(0u32);
    let mut acc = 0u64;
    let mut r = 0usize;
    for i in 1..shards {
        let target = total * i as u64 / shards as u64;
        while acc < target && r < n {
            acc += weights[r];
            r += 1;
        }
        let prev = *starts.last().unwrap() as usize;
        let start = r.max(prev + 1).min(n - (shards - i));
        starts.push(start as u32);
        r = start;
        acc = weights[..r].iter().sum();
    }
    starts.push(n as u32);
    starts
}

/// Order-insensitive run statistics a shard accumulates locally; merged
/// across shards in ascending shard order.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    measured_generated: u64,
    measured_ejected: u64,
    /// Measured packets dropped at injection: no surviving path (see
    /// [`SimResult::unroutable`]). Kept out of `measured_generated` so
    /// drain-completion checks and delivered_fraction stay meaningful.
    unroutable: u64,
    latency_sum: u64,
    latencies: Vec<u32>,
    ejected_flits_measure: u64,
    hops_sum: u64,
    /// Latency sums/counts split by generation half of the measurement
    /// window — steady-state detection (saturated runs show growth).
    half_sums: [u64; 2],
    half_counts: [u64; 2],
    /// In-flight packets (any window) dropped by a live fault event.
    faulted_total: u64,
    /// The measured subset of `faulted_total` — these were already
    /// counted in `measured_generated`, so the drain-completion check
    /// becomes `ejected + faulted == generated`.
    measured_faulted: u64,
    /// Packets re-routed in place at an epoch switch.
    rerouted: u64,
    /// Every ejection, measured or not — the watchdog's progress signal.
    delivered_total: u64,
    /// Set by the driver when the watchdog terminated the run.
    watchdog_fired: bool,
}

impl ShardStats {
    pub(crate) fn measured_generated(&self) -> u64 {
        self.measured_generated
    }

    pub(crate) fn measured_ejected(&self) -> u64 {
        self.measured_ejected
    }

    pub(crate) fn measured_faulted(&self) -> u64 {
        self.measured_faulted
    }

    pub(crate) fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    pub(crate) fn set_watchdog_fired(&mut self) {
        self.watchdog_fired = true;
    }

    pub(crate) fn merge(&mut self, other: ShardStats) {
        self.measured_generated += other.measured_generated;
        self.measured_ejected += other.measured_ejected;
        self.unroutable += other.unroutable;
        self.latency_sum += other.latency_sum;
        self.latencies.extend_from_slice(&other.latencies);
        self.ejected_flits_measure += other.ejected_flits_measure;
        self.hops_sum += other.hops_sum;
        for h in 0..2 {
            self.half_sums[h] += other.half_sums[h];
            self.half_counts[h] += other.half_counts[h];
        }
        self.faulted_total += other.faulted_total;
        self.measured_faulted += other.measured_faulted;
        self.rerouted += other.rerouted;
        self.delivered_total += other.delivered_total;
        self.watchdog_fired |= other.watchdog_fired;
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// One contiguous range of routers and all their mutable state, laid out
/// as flat arenas indexed by per-shard prefix-sum offsets.
pub(crate) struct Shard {
    /// Global router range [r0, r1).
    r0: u32,
    r1: u32,
    /// Per-local-router offsets: queues (qoff, ×vcs), network ports
    /// (poff), endpoint slots (eoff), round-robin pointers (rroff,
    /// deg + 1 per router). All len local_n + 1.
    qoff: Vec<usize>,
    poff: Vec<usize>,
    eoff: Vec<usize>,
    /// Ring-buffer queue arena: queue qi occupies
    /// q_data[qi*cap .. (qi+1)*cap]; (q_head, q_len) index it.
    cap: u32,
    q_data: Vec<u32>,
    q_head: Vec<u16>,
    q_len: Vec<u16>,
    /// Downstream credit per (network outport, vc): (poff + port)*vcs+vc.
    credits: Vec<u16>,
    /// Output-busy horizon per network outport (poff-indexed).
    out_busy: Vec<u64>,
    /// Ejection-busy horizon per endpoint slot (eoff-indexed).
    eject_busy: Vec<u64>,
    /// Round-robin pointer per outport plus one virtual ejection port.
    rr: Vec<u32>,
    /// Buffered packets per local router (skip-idle fast path).
    load: Vec<u32>,
    /// One deterministic RNG stream per local router, seeded from
    /// (cfg.seed, global router id) — draw order is router-local, so
    /// results cannot depend on shard boundaries.
    rngs: Vec<ChaCha8Rng>,
    packets: Vec<Packet>,
    free: Vec<u32>,
    /// Per-local-endpoint source queues (unbounded).
    sources: Vec<VecDeque<u32>>,
    /// Global endpoint id of sources[0].
    ep0: usize,
    /// Event wheel over `ctx.wheel_len` slots (local events only).
    wheel: Vec<Vec<Ev>>,
    /// Outgoing cross-shard events, one buffer per destination shard.
    outboxes: Vec<Vec<(u64, Ev)>>,
    /// Locally active routers (global ids; deduplicated via flags).
    pub(crate) active: Vec<u32>,
    active_scratch: Vec<u32>,
    active_flag: Vec<bool>,
    /// Reusable switch-allocation scratch.
    req_buf: Vec<(u16, u8, u8)>,
    granted_slots: Vec<u16>,
    occ_scratch: Vec<u64>,
    cand_buf: [u32; MAX_UGAL_CANDIDATES],
    /// Fault epoch this shard last applied (see [`Ctx::epoch_of`]).
    cur_epoch: usize,
    pub(crate) stats: ShardStats,
}

impl Shard {
    pub(crate) fn new(ctx: &Ctx, id: usize) -> Self {
        let r0 = ctx.shard_starts[id];
        let r1 = ctx.shard_starts[id + 1];
        let local_n = (r1 - r0) as usize;
        let vcs = ctx.cfg.vcs;
        let mut qoff = Vec::with_capacity(local_n + 1);
        let mut poff = Vec::with_capacity(local_n + 1);
        let mut eoff = Vec::with_capacity(local_n + 1);
        qoff.push(0);
        poff.push(0);
        eoff.push(0);
        for lr in 0..local_n {
            let r = r0 + lr as u32;
            let deg = ctx.degree(r);
            let eps = ctx.endpoints(r);
            qoff.push(qoff[lr] + (deg + eps) * vcs);
            poff.push(poff[lr] + deg);
            eoff.push(eoff[lr] + eps);
        }
        let q_count = qoff[local_n];
        let port_count = poff[local_n];
        let ep_count = eoff[local_n];
        let cap = ctx.cap_pkts;
        let ep0 = ctx.ep_off[r0 as usize] as usize;
        let rngs = (0..local_n)
            .map(|lr| {
                let r = r0 + lr as u32;
                ChaCha8Rng::seed_from_u64(splitmix64(
                    ctx.cfg.seed.wrapping_add(splitmix64(r as u64 + 1)),
                ))
            })
            .collect();
        // Pre-size the packet arena to the shard's total buffer capacity
        // so the steady state never grows it.
        let arena_cap = q_count * cap as usize + port_count + ep_count;
        let mut wheel = Vec::with_capacity(ctx.wheel_len);
        for _ in 0..ctx.wheel_len {
            wheel.push(Vec::with_capacity((port_count + ep_count).max(4)));
        }
        Shard {
            r0,
            r1,
            qoff,
            poff,
            eoff,
            cap,
            q_data: vec![0; q_count * cap as usize],
            q_head: vec![0; q_count],
            q_len: vec![0; q_count],
            credits: vec![cap as u16; port_count * vcs],
            out_busy: vec![0; port_count],
            eject_busy: vec![0; ep_count],
            rr: vec![0; port_count + local_n],
            load: vec![0; local_n],
            rngs,
            packets: Vec::with_capacity(arena_cap),
            free: Vec::with_capacity(arena_cap),
            sources: vec![VecDeque::new(); ep_count],
            ep0,
            wheel,
            outboxes: (0..ctx.shards()).map(|_| Vec::new()).collect(),
            active: Vec::with_capacity(local_n),
            active_scratch: Vec::with_capacity(local_n),
            active_flag: vec![false; local_n],
            req_buf: Vec::new(),
            granted_slots: Vec::new(),
            occ_scratch: vec![0; vcs],
            cand_buf: [0; MAX_UGAL_CANDIDATES],
            cur_epoch: 0,
            stats: ShardStats::default(),
        }
    }

    #[inline]
    fn lr(&self, r: u32) -> usize {
        debug_assert!(self.r0 <= r && r < self.r1);
        (r - self.r0) as usize
    }

    #[inline]
    fn q_index(&self, lr: usize, inport: usize, vc: usize) -> usize {
        self.qoff[lr] + inport * self.vcs_of() + vc
    }

    #[inline]
    fn vcs_of(&self) -> usize {
        self.occ_scratch.len()
    }

    #[inline]
    fn q_push(&mut self, qi: usize, pid: u32) {
        let cap = self.cap as usize;
        let (h, l) = (self.q_head[qi] as usize, self.q_len[qi] as usize);
        debug_assert!(l < cap, "VC buffer overflow in queue {qi}");
        let mut at = h + l;
        if at >= cap {
            at -= cap;
        }
        self.q_data[qi * cap + at] = pid;
        self.q_len[qi] = (l + 1) as u16;
    }

    #[inline]
    fn q_pop(&mut self, qi: usize) -> u32 {
        let cap = self.cap as usize;
        let h = self.q_head[qi] as usize;
        debug_assert!(self.q_len[qi] > 0);
        let pid = self.q_data[qi * cap + h];
        let next = h + 1;
        self.q_head[qi] = if next == cap { 0 } else { next } as u16;
        self.q_len[qi] -= 1;
        pid
    }

    #[inline]
    fn q_front(&self, qi: usize) -> u32 {
        debug_assert!(self.q_len[qi] > 0);
        self.q_data[qi * self.cap as usize + self.q_head[qi] as usize]
    }

    fn alloc_packet(&mut self, p: Packet) -> u32 {
        if let Some(id) = self.free.pop() {
            self.packets[id as usize] = p;
            id
        } else {
            self.packets.push(p);
            (self.packets.len() - 1) as u32
        }
    }

    /// Move a packet out of the arena, returning its id to the freelist.
    fn take_packet(&mut self, pid: u32) -> Packet {
        self.free.push(pid);
        std::mem::replace(&mut self.packets[pid as usize], Packet::vacant())
    }

    #[inline]
    fn mark_active(&mut self, r: u32) {
        let lr = self.lr(r);
        if !self.active_flag[lr] {
            self.active_flag[lr] = true;
            self.active.push(r);
        }
    }

    /// Queue an event: into the local wheel when this shard owns the
    /// target router, otherwise into that shard's outbox.
    #[inline]
    fn emit(&mut self, ctx: &Ctx, at: u64, ev: Ev) {
        let dst = ev.router();
        if self.r0 <= dst && dst < self.r1 {
            self.enqueue_local(at, ev);
        } else {
            self.outboxes[ctx.shard_of(dst)].push((at, ev));
        }
    }

    /// Push an event due at absolute cycle `at` into the wheel.
    #[inline]
    pub(crate) fn enqueue_local(&mut self, at: u64, ev: Ev) {
        let slot = (at % self.wheel.len() as u64) as usize;
        self.wheel[slot].push(ev);
    }

    /// Take this shard's cross-shard outbox for `dst` (capacity returns
    /// via the mailbox swap protocol).
    pub(crate) fn outbox_mut(&mut self, dst: usize) -> &mut Vec<(u64, Ev)> {
        &mut self.outboxes[dst]
    }

    pub(crate) fn take_stats(&mut self) -> ShardStats {
        std::mem::take(&mut self.stats)
    }

    /// Run every compute phase of cycle `now`: fault-epoch switch, VC
    /// sampling, packet generation, event delivery (order-insensitive),
    /// and switch allocation. After `step`, `active` lists exactly the
    /// local routers with buffered packets.
    pub(crate) fn step<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        now: u64,
        sample_every: Option<u64>,
        mon: &mut M,
    ) {
        let e = ctx.epoch_of(now);
        if e != self.cur_epoch {
            self.apply_epoch(ctx, e, now);
        }
        if let Some(k) = sample_every {
            if now.is_multiple_of(k) {
                self.sample_vc(now, mon);
            }
        }
        if now < ctx.end_measure {
            self.generate(ctx, now, mon);
        }
        self.deliver(ctx, now);
        self.allocate_all(ctx, now, mon);
        if let Some(k) = ctx.cfg.invariant_check_every {
            if now.is_multiple_of(k) {
                self.check_invariants(ctx, now);
            }
        }
    }

    /// Which epoch routing decisions see: in Stale mode the control
    /// plane never converges, so all routing state stays at epoch 0 even
    /// as the physical epoch advances.
    #[inline]
    fn route_epoch(&self, ctx: &Ctx) -> usize {
        match ctx.cfg.fault_response {
            FaultResponse::Reroute => self.cur_epoch,
            FaultResponse::Stale => 0,
        }
    }

    /// Locally buffered packets per VC, reported to the monitor (summed
    /// across shards by `ShardableMonitor::absorb`).
    fn sample_vc<M: SimMonitor>(&mut self, now: u64, mon: &mut M) {
        let vcs = self.vcs_of();
        self.occ_scratch.iter_mut().for_each(|o| *o = 0);
        for (qi, &l) in self.q_len.iter().enumerate() {
            self.occ_scratch[qi % vcs] += l as u64;
        }
        for vc in 0..vcs {
            mon.on_vc_sample(now, vc, self.occ_scratch[vc]);
        }
    }

    /// Generation phase: each active local endpoint flips its router's
    /// Bernoulli coin and, on success, builds, routes, and enqueues one
    /// packet.
    fn generate<M: SimMonitor>(&mut self, ctx: &Ctx, now: u64, mon: &mut M) {
        for lr in 0..self.load.len() {
            let r = self.r0 + lr as u32;
            let eps = ctx.endpoints(r);
            for slot in 0..eps {
                let ep = ctx.ep_off[r as usize] as usize + slot;
                if !ctx.active_src[ep] || self.rngs[lr].gen::<f64>() >= ctx.p_gen {
                    continue;
                }
                self.generate_packet(ctx, ep as u32, r, slot, now, mon);
            }
        }
    }

    fn generate_packet<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        src_ep: u32,
        src_router: u32,
        slot: usize,
        now: u64,
        mon: &mut M,
    ) {
        let lr = self.lr(src_router);
        let dst_ep = match ctx.pattern.destination(src_ep, &mut self.rngs[lr]) {
            Some(d) => d,
            None => return,
        };
        let (dst_router, dst_slot) = ctx.ep_router[dst_ep as usize];
        let measured = now >= ctx.cfg.warmup_cycles && now < ctx.end_measure;
        // Fault handling: a packet whose source or destination router is
        // dead, or whose pair the degraded network no longer connects,
        // is dropped here — before any path state is materialized — and
        // counted instead of wedging the drain loop. The destination was
        // already drawn, so per-router RNG draw order (and therefore
        // cross-thread determinism) is unaffected. Everything consults
        // the routing view (`route_epoch`): a Stale control plane keeps
        // injecting toward faults it has not learned about.
        let re = self.route_epoch(ctx);
        let table = ctx.table_at(re);
        if ctx.router_failed(re, src_router)
            || ctx.router_failed(re, dst_router)
            || (src_router != dst_router && !table.is_reachable(src_router, dst_router))
        {
            if measured {
                self.stats.unroutable += 1;
            }
            mon.on_unroutable(src_router);
            return;
        }
        let intermediate = match ctx.kind {
            RoutingKind::Ugal { candidates } if src_router != dst_router => {
                self.ugal_intermediate(ctx, src_router, dst_router, now, candidates)
            }
            RoutingKind::Valiant if src_router != dst_router => {
                // Uniform random intermediate (≠ endpoints, and with both
                // misroute legs surviving any fault degradation).
                let n = table.n() as u32;
                let usable = |i: u32| {
                    i != src_router
                        && i != dst_router
                        && table.is_reachable(src_router, i)
                        && table.is_reachable(i, dst_router)
                };
                let rng = &mut self.rngs[lr];
                let mut i = rng.gen_range(0..n);
                for _ in 0..4 {
                    if usable(i) {
                        break;
                    }
                    i = rng.gen_range(0..n);
                }
                if usable(i) {
                    i
                } else {
                    NO_INTERMEDIATE
                }
            }
            _ => NO_INTERMEDIATE,
        };
        let pair = match &ctx.negotiated {
            Some(ov) if ctx.kind == RoutingKind::Negotiated => {
                ov.pair_index(src_router, dst_router)
            }
            _ => NO_PAIR,
        };
        // The packet is materialized only now, after the candidate
        // comparison settled on a path.
        let mut p = Packet {
            dst_router,
            dst_slot,
            intermediate,
            pair,
            phase: 0,
            hops: 0,
            cur_port: 0,
            measured,
            gen_cycle: now,
        };
        // The reachability pre-check above guarantees a minimal port
        // exists, but route on the same epoch view defensively: a false
        // return drops the packet as unroutable rather than panicking.
        if !self.route_at(ctx, &mut p, src_router, Tie::Stream) {
            if measured {
                self.stats.unroutable += 1;
            }
            mon.on_unroutable(src_router);
            return;
        }
        if measured {
            self.stats.measured_generated += 1;
        }
        let pid = self.alloc_packet(p);
        let lep = src_ep as usize - self.ep0;
        self.sources[lep].push_back(pid);
        // Move from source queue into the injection input if there is
        // room (injection buffer = one VC of cap packets).
        let deg = ctx.degree(src_router);
        let qi = self.q_index(lr, deg + slot, 0);
        if (self.q_len[qi] as u32) < self.cap {
            let head = self.sources[lep].pop_front().unwrap();
            self.q_push(qi, head);
            self.load[lr] += 1;
        } else {
            mon.on_injection_backpressure(src_router);
        }
        self.mark_active(src_router);
    }

    /// Route `p` at local router `r`: set `cur_port` (EJECT or a network
    /// port) and handle Valiant phase transitions. Returns `false` when
    /// the current routing epoch offers no port toward the target — the
    /// caller must drop the packet (possible only after a live fault cut
    /// the destination off).
    #[must_use]
    fn route_at(&mut self, ctx: &Ctx, p: &mut Packet, r: u32, tie: Tie) -> bool {
        if p.phase == 0 && p.intermediate != NO_INTERMEDIATE && r == p.intermediate {
            p.phase = 1;
        }
        let target = if p.phase == 0 && p.intermediate != NO_INTERMEDIATE {
            p.intermediate
        } else {
            p.dst_router
        };
        if r == target && target == p.dst_router {
            p.cur_port = EJECT;
            return true;
        }
        let ports = ctx.table_at(self.route_epoch(ctx)).min_ports(r, target);
        if ports.is_empty() {
            return false;
        }
        p.cur_port = match ctx.kind {
            RoutingKind::MinSingle => ports[0],
            RoutingKind::Negotiated => {
                // Follow the negotiated path while on it; fall back to
                // the first minimal port when the packet is off-path or
                // the negotiated hop died in this routing epoch (the
                // per-epoch re-route keeps fault runs live).
                let re = self.route_epoch(ctx);
                let ov = ctx.negotiated.as_ref().expect("checked at Ctx::new");
                match ov
                    .port_after(p.pair, r)
                    .filter(|&port| !ctx.port_dead(re, r, port as usize))
                {
                    Some(port) => port,
                    None => ports[0],
                }
            }
            RoutingKind::MinMulti | RoutingKind::Valiant | RoutingKind::Ugal { .. } => {
                if ports.len() == 1 {
                    ports[0]
                } else {
                    let idx = match tie {
                        Tie::Stream => {
                            let lr = self.lr(r);
                            self.rngs[lr].gen_range(0..ports.len())
                        }
                        Tie::Hash(h) => (h % ports.len() as u64) as usize,
                    };
                    ports[idx]
                }
            }
        };
        true
    }

    /// Occupancy proxy for UGAL: packets worth of consumed credit on the
    /// first minimal port toward `target`, plus residual serialization.
    fn port_cost(&self, ctx: &Ctx, r: u32, target: u32, now: u64) -> u64 {
        let ports = ctx.table_at(self.route_epoch(ctx)).min_ports(r, target);
        if ports.is_empty() {
            return 0;
        }
        let lr = self.lr(r);
        let port = ports[0] as usize;
        let vcs = self.vcs_of();
        let base = (self.poff[lr] + port) * vcs;
        let cap: u32 = self.credits[base..base + vcs]
            .iter()
            .map(|&c| c as u32)
            .sum();
        let max_cap = ctx.cfg.buf_flits_per_port / ctx.cfg.packet_flits;
        let consumed = max_cap.saturating_sub(cap) as u64;
        let busy = self.out_busy[self.poff[lr] + port].saturating_sub(now);
        // With a negotiated overlay attached, persistent offline
        // contention (historic cost) prices the port too — UGAL's
        // candidate scoring then avoids links the negotiation kept
        // finding overused.
        let hist = match &ctx.negotiated {
            Some(ov) => ov.hist_port[ctx.port_base(r) + port],
            None => 0,
        };
        consumed * ctx.cfg.packet_flits as u64 + busy + hist
    }

    /// UGAL-L decision at injection (§9.3): min path vs the best of k
    /// random Valiant intermediates, judged by local occupancy × hops.
    /// Candidates are drawn first, then scored on borrowed table and
    /// credit state — no packet exists until the winner is known.
    fn ugal_intermediate(
        &mut self,
        ctx: &Ctx,
        src_router: u32,
        dst_router: u32,
        now: u64,
        k: usize,
    ) -> u32 {
        let table = ctx.table_at(self.route_epoch(ctx));
        let n = table.n() as u32;
        let lr = self.lr(src_router);
        for c in &mut self.cand_buf[..k] {
            *c = self.rngs[lr].gen_range(0..n);
        }
        let dmin = table.distance(src_router, dst_router) as u64;
        let min_cost = (dmin.max(1))
            * (self.port_cost(ctx, src_router, dst_router, now) + ctx.cfg.packet_flits as u64);
        let mut best = NO_INTERMEDIATE;
        let mut best_cost = min_cost;
        for ci in 0..k {
            let i = self.cand_buf[ci];
            // All k candidates are drawn before filtering so the RNG draw
            // count per injection is fixed; fault-degraded candidates
            // (either misroute leg disconnected) are then skipped.
            if i == src_router
                || i == dst_router
                || !table.is_reachable(src_router, i)
                || !table.is_reachable(i, dst_router)
            {
                continue;
            }
            let hops = table.distance(src_router, i) as u64 + table.distance(i, dst_router) as u64;
            let cost = hops.max(1)
                * (self.port_cost(ctx, src_router, i, now) + ctx.cfg.packet_flits as u64);
            if cost < best_cost {
                best_cost = cost;
                best = i;
            }
        }
        best
    }

    /// Deliver this cycle's wheel slot. Processing is insensitive to the
    /// order events sit in the slot: at most one arrival lands per
    /// (router, inport, vc) per cycle (links serialize for
    /// `packet_flits ≥ 1` cycles), each arrival goes to its own input
    /// queue, credits are plain increments, and the arrival-path port
    /// tie-break is a stateless hash of a tuple that is unique this
    /// cycle — so the result is independent of emission order (and hence
    /// of shard count) without sorting.
    fn deliver(&mut self, ctx: &Ctx, now: u64) {
        let slot = (now % self.wheel.len() as u64) as usize;
        let mut events = std::mem::take(&mut self.wheel[slot]);
        for ev in events.drain(..) {
            match ev {
                Ev::Arrive {
                    router,
                    inport,
                    vc,
                    packet,
                } => {
                    let mut packet = packet;
                    // A packet can arrive at a router that died while it
                    // was on the wire, or find its destination cut off by
                    // the epoch that just switched. Either way the hop
                    // completes, the packet is dropped, and the upstream
                    // buffer slot is reclaimed one cycle later (never at
                    // `now`: this slot already drained, and cross-shard
                    // effects must stay ≥ 1 cycle in the future).
                    if ctx.router_failed(self.cur_epoch, router) {
                        self.drop_in_flight(packet.measured);
                        self.credit_upstream(ctx, router, inport, vc, now + 1);
                        continue;
                    }
                    let h = splitmix64(
                        ctx.cfg.seed
                            ^ splitmix64(
                                ((router as u64) << 32)
                                    | ((inport as u64) << 16)
                                    | ((vc as u64) << 8),
                            )
                            ^ splitmix64(now.wrapping_add(0x9e37_79b9_7f4a_7c15)),
                    );
                    if !self.route_at(ctx, &mut packet, router, Tie::Hash(h)) {
                        self.drop_in_flight(packet.measured);
                        self.credit_upstream(ctx, router, inport, vc, now + 1);
                        continue;
                    }
                    let pid = self.alloc_packet(packet);
                    let lr = self.lr(router);
                    let qi = self.q_index(lr, inport as usize, vc as usize);
                    // Credit accounting must keep arrivals within the VC
                    // buffer capacity (checked inside q_push).
                    self.q_push(qi, pid);
                    self.load[lr] += 1;
                    self.mark_active(router);
                }
                Ev::Credit {
                    router,
                    outport,
                    vc,
                } => {
                    let lr = self.lr(router);
                    let vcs = self.vcs_of();
                    self.credits[(self.poff[lr] + outport as usize) * vcs + vc as usize] += 1;
                    self.mark_active(router);
                }
            }
        }
        self.wheel[slot] = events;
    }

    /// Allocation phase over the active set. Iteration order does not
    /// matter: allocation touches only router-local state and draws no
    /// randomness, and delivery is commutative (see [`Shard::deliver`]).
    fn allocate_all<M: SimMonitor>(&mut self, ctx: &Ctx, now: u64, mon: &mut M) {
        std::mem::swap(&mut self.active, &mut self.active_scratch);
        for i in 0..self.active_scratch.len() {
            let lr = self.lr(self.active_scratch[i]);
            self.active_flag[lr] = false;
        }
        for i in 0..self.active_scratch.len() {
            let r = self.active_scratch[i];
            self.allocate(ctx, r, now, mon);
            if self.load[self.lr(r)] > 0 {
                self.mark_active(r);
            }
        }
        self.active_scratch.clear();
    }

    /// Switch allocation at router `r`: every output port (and every
    /// ejection port) accepts at most one packet per cycle, chosen
    /// round-robin among requesting input VCs.
    fn allocate<M: SimMonitor>(&mut self, ctx: &Ctx, r: u32, now: u64, mon: &mut M) {
        let lr = self.lr(r);
        let deg = ctx.degree(r);
        let eps = ctx.endpoints(r);
        let vcs = self.vcs_of();
        let n_inputs = deg + eps;
        let qbase = self.qoff[lr];
        let rrbase = self.poff[lr] + lr;

        // Collect head requests (inport, vc, desired output) into the
        // reusable scratch, then process them grouped by output port.
        let mut requests = std::mem::take(&mut self.req_buf);
        requests.clear();
        for inport in 0..n_inputs {
            for vc in 0..vcs {
                let qi = qbase + inport * vcs + vc;
                if self.q_len[qi] > 0 {
                    let pid = self.q_front(qi);
                    let port = self.packets[pid as usize].cur_port;
                    requests.push((inport as u16, vc as u8, port));
                }
            }
        }
        if requests.is_empty() {
            self.req_buf = requests;
            self.refill_injection(ctx, r);
            return;
        }
        // Group by output port (EJECT = 255 sorts last).
        requests.sort_unstable_by_key(|&(i, v, o)| (o, i, v));

        let mut gi = 0usize;
        while gi < requests.len() {
            let out = requests[gi].2;
            let mut ge = gi + 1;
            while ge < requests.len() && requests[ge].2 == out {
                ge += 1;
            }
            let gstart = gi;
            let glen = ge - gi;
            gi = ge;
            if out == EJECT {
                // Ejection: one grant per endpoint slot per packet-time.
                let rr = self.rr[rrbase + deg] as usize;
                self.granted_slots.clear();
                let mut granted_slots = std::mem::take(&mut self.granted_slots);
                for k in 0..glen {
                    let (inport, vc, _) = requests[gstart + (rr + k) % glen];
                    let qi = qbase + inport as usize * vcs + vc as usize;
                    let pid = self.q_front(qi);
                    let slot = self.packets[pid as usize].dst_slot;
                    if granted_slots.contains(&slot)
                        || self.eject_busy[self.eoff[lr] + slot as usize] > now
                    {
                        continue;
                    }
                    granted_slots.push(slot);
                    self.eject(ctx, r, inport, vc, slot, now, mon);
                    self.rr[rrbase + deg] = ((rr + k) % glen) as u32 + 1;
                }
                self.granted_slots = granted_slots;
                continue;
            }
            let out = out as usize;
            // A dead link carries nothing, whatever the routing state
            // believes. Under Reroute the epoch switch already re-routed
            // queued packets, so this never triggers; under Stale it is
            // where the stale control plane meets physical reality and
            // head-of-line packets wedge their queues.
            if ctx.port_dead(self.cur_epoch, r, out) {
                for _ in 0..glen {
                    mon.on_stall(r, StallCause::DeadLink);
                }
                continue;
            }
            if self.out_busy[self.poff[lr] + out] > now {
                mon.on_stall(r, StallCause::Crossbar);
                continue;
            }
            let rr = self.rr[rrbase + out] as usize;
            let mut examined = 0usize;
            let mut granted = false;
            for k in 0..glen {
                let (inport, vc, _) = requests[gstart + (rr + k) % glen];
                let qi = qbase + inport as usize * vcs + vc as usize;
                let pid = self.q_front(qi);
                let next_vc = (self.packets[pid as usize].hops as usize).min(vcs - 1);
                examined += 1;
                if self.credits[(self.poff[lr] + out) * vcs + next_vc] == 0 {
                    mon.on_stall(r, StallCause::CreditStarved);
                    continue;
                }
                self.rr[rrbase + out] = ((rr + k) % glen) as u32 + 1;
                self.send(ctx, r, inport, vc, out, next_vc as u8, now, mon);
                granted = true;
                break;
            }
            if granted {
                // Requests never examined lost the port to this cycle's
                // winner — VC-allocation stalls.
                for _ in examined..glen {
                    mon.on_stall(r, StallCause::VcAllocation);
                }
            }
        }
        self.req_buf = requests;
        self.refill_injection(ctx, r);
    }

    /// Move waiting source-queue packets into free injection buffers.
    fn refill_injection(&mut self, ctx: &Ctx, r: u32) {
        let lr = self.lr(r);
        let deg = ctx.degree(r);
        let eps = ctx.endpoints(r);
        for slot in 0..eps {
            let lep = self.eoff[lr] + slot;
            let qi = self.q_index(lr, deg + slot, 0);
            while !self.sources[lep].is_empty() && (self.q_len[qi] as u32) < self.cap {
                let pid = self.sources[lep].pop_front().unwrap();
                self.q_push(qi, pid);
                self.load[lr] += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        r: u32,
        inport: u16,
        vc: u8,
        out: usize,
        next_vc: u8,
        now: u64,
        mon: &mut M,
    ) {
        let lr = self.lr(r);
        let vcs = self.vcs_of();
        let qi = self.q_index(lr, inport as usize, vc as usize);
        let pid = self.q_pop(qi);
        self.load[lr] -= 1;
        let mut p = self.take_packet(pid);
        p.hops += 1;
        let serialize = ctx.cfg.packet_flits as u64;
        self.out_busy[self.poff[lr] + out] = now + serialize;
        self.credits[(self.poff[lr] + out) * vcs + next_vc as usize] -= 1;
        mon.on_link_flit(r, out, ctx.cfg.packet_flits);

        let next_router = ctx.table.neighbor(r, out as u8);
        let next_inport = ctx.back_port[ctx.port_base(r) + out] as u16;
        let arrive_at = now + serialize + ctx.cfg.link_latency as u64;
        self.emit(
            ctx,
            arrive_at,
            Ev::Arrive {
                router: next_router,
                inport: next_inport,
                vc: next_vc,
                packet: p,
            },
        );
        // Credit return to the upstream router once the packet fully
        // leaves this buffer (network inputs only; injection has no
        // upstream).
        let deg = ctx.degree(r);
        if (inport as usize) < deg {
            self.credit_upstream(ctx, r, inport, vc, now + serialize);
        }
    }

    fn credit_upstream(&mut self, ctx: &Ctx, r: u32, inport: u16, vc: u8, at: u64) {
        let upstream = ctx.table.neighbor(r, inport as u8);
        let up_out = ctx.back_port[ctx.port_base(r) + inport as usize];
        self.emit(
            ctx,
            at,
            Ev::Credit {
                router: upstream,
                outport: up_out,
                vc,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn eject<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        r: u32,
        inport: u16,
        vc: u8,
        slot: u16,
        now: u64,
        mon: &mut M,
    ) {
        let lr = self.lr(r);
        let qi = self.q_index(lr, inport as usize, vc as usize);
        let pid = self.q_pop(qi);
        self.load[lr] -= 1;
        let serialize = ctx.cfg.packet_flits as u64;
        self.eject_busy[self.eoff[lr] + slot as usize] = now + serialize;
        let done = now + serialize;
        let p = self.take_packet(pid);
        self.stats.delivered_total += 1;
        mon.on_packet_delivered(done, done - p.gen_cycle, p.hops as u32, p.measured);
        if p.measured {
            self.stats.measured_ejected += 1;
            let lat = (done - p.gen_cycle) as u32;
            self.stats.latency_sum += lat as u64;
            self.stats.latencies.push(lat);
            self.stats.hops_sum += p.hops as u64;
            let mid = ctx.cfg.warmup_cycles + ctx.cfg.measure_cycles / 2;
            let half = usize::from(p.gen_cycle >= mid);
            self.stats.half_sums[half] += lat as u64;
            self.stats.half_counts[half] += 1;
        }
        if now >= ctx.cfg.warmup_cycles && now < ctx.end_measure {
            self.stats.ejected_flits_measure += ctx.cfg.packet_flits as u64;
        }
        // Credit return to upstream.
        if (inport as usize) < ctx.degree(r) {
            self.credit_upstream(ctx, r, inport, vc, now + serialize);
        }
    }

    /// Account one in-flight packet killed by a live fault.
    fn drop_in_flight(&mut self, measured: bool) {
        self.stats.faulted_total += 1;
        if measured {
            self.stats.measured_faulted += 1;
        }
    }

    /// Switch to fault epoch `e` at the cycle boundary (before any phase
    /// of cycle `now` runs, so every shard applies it under the same
    /// state regardless of thread count).
    ///
    /// Stale mode ends here: the physical masks (`port_dead`,
    /// `router_failed`) are read per cycle and the routing view never
    /// changes. Reroute mode walks every local queue and source buffer:
    /// packets at a failed router are dropped; a packet whose chosen
    /// output crosses a newly dead link is re-routed on the epoch's
    /// table (abandoning a Valiant detour whose legs died); packets
    /// whose destination the epoch cut off are dropped. Every drop from
    /// a network input returns the upstream credit at `now + 1` — never
    /// `now`, whose wheel slot already drained.
    fn apply_epoch(&mut self, ctx: &Ctx, e: usize, now: u64) {
        self.cur_epoch = e;
        if ctx.cfg.fault_response == FaultResponse::Stale {
            return;
        }
        let vcs = self.vcs_of();
        for lr in 0..self.load.len() {
            let r = self.r0 + lr as u32;
            let deg = ctx.degree(r);
            let eps = ctx.endpoints(r);
            let failed = ctx.router_failed(e, r);
            for inport in 0..deg + eps {
                for vc in 0..vcs {
                    let qi = self.q_index(lr, inport, vc);
                    // Drain the ring once; survivors re-enter in FIFO
                    // order behind the drained prefix.
                    for k in 0..self.q_len[qi] as usize {
                        let pid = self.q_pop(qi);
                        if !failed && self.refit_packet(ctx, e, r, pid, (inport, vc, k), now) {
                            self.q_push(qi, pid);
                        } else {
                            let p = self.take_packet(pid);
                            self.drop_in_flight(p.measured);
                            self.load[lr] -= 1;
                            if inport < deg {
                                self.credit_upstream(ctx, r, inport as u16, vc as u8, now + 1);
                            }
                        }
                    }
                }
            }
            for slot in 0..eps {
                let lep = self.eoff[lr] + slot;
                for k in 0..self.sources[lep].len() {
                    let pid = self.sources[lep].pop_front().unwrap();
                    if !failed && self.refit_packet(ctx, e, r, pid, (deg + slot, 0, k), now) {
                        self.sources[lep].push_back(pid);
                    } else {
                        let p = self.take_packet(pid);
                        self.drop_in_flight(p.measured);
                    }
                }
            }
        }
    }

    /// Decide the fate of one buffered packet at surviving router `r`
    /// under epoch `e`: `true` keeps it (possibly re-routed in place),
    /// `false` tells the caller to drop it. The re-route tie-break is a
    /// stateless hash of the packet's queue coordinates — identical at
    /// any shard count.
    fn refit_packet(
        &mut self,
        ctx: &Ctx,
        e: usize,
        r: u32,
        pid: u32,
        key: (usize, usize, usize),
        now: u64,
    ) -> bool {
        let table = ctx.table_at(e);
        let mut p = std::mem::replace(&mut self.packets[pid as usize], Packet::vacant());
        let mut reroute = false;
        // Abandon a Valiant detour whose legs the epoch cut; the direct
        // path is judged below like any other packet's.
        if p.phase == 0
            && p.intermediate != NO_INTERMEDIATE
            && (ctx.router_failed(e, p.intermediate)
                || !table.is_reachable(r, p.intermediate)
                || !table.is_reachable(p.intermediate, p.dst_router))
        {
            p.intermediate = NO_INTERMEDIATE;
            reroute = true;
        }
        if ctx.router_failed(e, p.dst_router)
            || (r != p.dst_router && !table.is_reachable(r, p.dst_router))
        {
            self.packets[pid as usize] = p;
            return false;
        }
        if p.cur_port != EJECT && ctx.port_dead(e, r, p.cur_port as usize) {
            reroute = true;
        }
        if reroute {
            let (inport, vc, k) = key;
            let h = splitmix64(
                ctx.cfg.seed
                    ^ splitmix64(((r as u64) << 32) | ((inport as u64) << 16) | ((vc as u64) << 8))
                    ^ splitmix64(k as u64)
                    ^ splitmix64(now.wrapping_add(0x517c_c1b7_2722_0a95)),
            );
            if !self.route_at(ctx, &mut p, r, Tie::Hash(h)) {
                self.packets[pid as usize] = p;
                return false;
            }
            self.stats.rerouted += 1;
        }
        self.packets[pid as usize] = p;
        true
    }

    /// Snapshot of this shard's stuck state for the watchdog report:
    /// per-VC occupancy, zero-credit port count, oldest buffered packet
    /// age, and (a sample of) the routers holding traffic.
    pub(crate) fn watchdog_diag(&self, fired_at: u64, stalled_cycles: u64) -> WatchdogDiag {
        let vcs = self.vcs_of();
        let mut vc_occupancy = vec![0u64; vcs];
        for (qi, &l) in self.q_len.iter().enumerate() {
            vc_occupancy[qi % vcs] += l as u64;
        }
        let buffered_packets: u64 = self.load.iter().map(|&l| l as u64).sum();
        let zero_credit_ports = self.credits.iter().filter(|&&c| c == 0).count();
        let mut oldest_packet_age = 0u64;
        let cap = self.cap as usize;
        for qi in 0..self.q_len.len() {
            let h = self.q_head[qi] as usize;
            for k in 0..self.q_len[qi] as usize {
                let pid = self.q_data[qi * cap + (h + k) % cap] as usize;
                oldest_packet_age = oldest_packet_age.max(fired_at - self.packets[pid].gen_cycle);
            }
        }
        for s in &self.sources {
            for &pid in s {
                oldest_packet_age =
                    oldest_packet_age.max(fired_at - self.packets[pid as usize].gen_cycle);
            }
        }
        let stuck_routers: Vec<u32> = self
            .load
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            .map(|(lr, _)| self.r0 + lr as u32)
            .take(8)
            .collect();
        WatchdogDiag {
            fired_at,
            stalled_cycles,
            buffered_packets,
            vc_occupancy,
            zero_credit_ports,
            total_credit_ports: self.credits.len(),
            oldest_packet_age,
            stuck_routers,
        }
    }

    /// Invariant pass ([`SimConfig::invariant_check_every`]): queue
    /// bounds, router-load consistency, packet-arena conservation, and —
    /// for links with both endpoints in this shard — exact credit
    /// conservation including in-flight wheel events. Panics on
    /// violation; runs after the cycle's phases complete.
    pub(crate) fn check_invariants(&self, ctx: &Ctx, now: u64) {
        let vcs = self.vcs_of();
        for lr in 0..self.load.len() {
            let mut sum = 0u32;
            for qi in self.qoff[lr]..self.qoff[lr + 1] {
                let l = self.q_len[qi] as u32;
                assert!(l <= self.cap, "cycle {now}: queue {qi} exceeds capacity");
                sum += l;
            }
            assert_eq!(
                sum, self.load[lr],
                "cycle {now}: load[{lr}] out of sync with its queues"
            );
        }
        // Arena conservation: live entries are exactly the queued +
        // source-buffered packets (in-flight packets travel by value
        // inside events, outside the arena).
        let queued: usize = self.q_len.iter().map(|&l| l as usize).sum();
        let sourced: usize = self.sources.iter().map(|s| s.len()).sum();
        assert_eq!(
            self.packets.len() - self.free.len(),
            queued + sourced,
            "cycle {now}: packet arena leaked"
        );
        // Credit conservation per (link, vc): credit held at the sender +
        // credits in flight back + packets buffered downstream +
        // arrivals in flight == capacity. Only checkable when both ends
        // are local (cross-shard events may sit in mailboxes).
        let mut arr_inflight = vec![0u32; self.q_len.len()];
        let mut cred_inflight = vec![0u32; self.credits.len()];
        for slot in &self.wheel {
            for ev in slot {
                match *ev {
                    Ev::Arrive {
                        router, inport, vc, ..
                    } => {
                        let lr = self.lr(router);
                        arr_inflight[self.q_index(lr, inport as usize, vc as usize)] += 1;
                    }
                    Ev::Credit {
                        router,
                        outport,
                        vc,
                    } => {
                        let lr = self.lr(router);
                        cred_inflight[(self.poff[lr] + outport as usize) * vcs + vc as usize] += 1;
                    }
                }
            }
        }
        for lr in 0..self.load.len() {
            let r = self.r0 + lr as u32;
            let deg = ctx.degree(r);
            for port in 0..deg {
                let v = ctx.table.neighbor(r, port as u8);
                let ci_base = (self.poff[lr] + port) * vcs;
                for vc in 0..vcs {
                    let ci = ci_base + vc;
                    assert!(
                        (self.credits[ci] as u32) <= self.cap,
                        "cycle {now}: credit overflow at router {r} port {port} vc {vc}"
                    );
                    if v < self.r0 || v >= self.r1 {
                        continue;
                    }
                    let back = ctx.back_port[ctx.port_base(r) + port] as usize;
                    let qv = self.q_index(self.lr(v), back, vc);
                    let total = self.credits[ci] as u32
                        + cred_inflight[ci]
                        + self.q_len[qv] as u32
                        + arr_inflight[qv];
                    assert_eq!(
                        total, self.cap,
                        "cycle {now}: credit conservation broken on link {r}→{v} vc {vc}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup_cycles: 500,
            measure_cycles: 1_000,
            drain_cycles: 10_000,
            seed,
            ..SimConfig::default()
        }
    }

    fn k8_spec() -> NetworkSpec {
        NetworkSpec::uniform("k8", Graph::complete(8), 2)
    }

    #[test]
    fn config_validation_catches_u16_queue_overflow() {
        // 2^23 flits / 1 vc / 1 flit-per-packet = 2^23 packets per VC —
        // far past what the u16 queue/credit arena fields can count.
        let cfg = SimConfig {
            packet_flits: 1,
            vcs: 1,
            buf_flits_per_port: 1 << 23,
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(SimConfigError::QueueCapacityOverflow {
                cap_pkts: 1 << 23,
                max: u16::MAX as u32,
            })
        );
        assert_eq!(
            SimConfig {
                packet_flits: 0,
                ..SimConfig::default()
            }
            .validate(),
            Err(SimConfigError::ZeroPacketFlits)
        );
        assert_eq!(
            SimConfig {
                vcs: 0,
                ..SimConfig::default()
            }
            .validate(),
            Err(SimConfigError::ZeroVcs)
        );
        assert_eq!(SimConfig::default().validate(), Ok(()));
        // The largest representable capacity passes.
        let edge = SimConfig {
            packet_flits: 1,
            vcs: 1,
            buf_flits_per_port: u16::MAX as u32,
            ..SimConfig::default()
        };
        assert_eq!(edge.validate(), Ok(()));
        assert_eq!(edge.queue_capacity_pkts(), u16::MAX as u32);
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 arena limit")]
    fn engine_rejects_overflowing_queue_capacity() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            packet_flits: 1,
            vcs: 1,
            buf_flits_per_port: 1 << 23,
            ..small_cfg(1)
        };
        let _ = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Uniform,
            0.1,
            &cfg,
        );
    }

    #[test]
    fn negotiated_routing_delivers_and_follows_paths() {
        use crate::flow::{FlowPlan, FlowRouting, TrafficComponent};
        use crate::negotiate::{NegotiateConfig, NegotiatedRoutes};

        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let cfg = small_cfg(3);
        let comps = [TrafficComponent::new(
            Pattern::Permutation,
            crate::traffic::engine_resolve_seed(cfg.seed),
        )];
        let plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
        let neg = NegotiatedRoutes::negotiate(&spec, &table, &plan, &NegotiateConfig::default());
        assert!(neg.converged());
        let r = simulate_overlay_monitored(
            &spec,
            &table,
            RoutingKind::Negotiated,
            Some(&neg),
            &Pattern::Permutation,
            0.3,
            &cfg,
            &mut NoopMonitor,
        );
        assert!(r.stable, "K8 permutation at 30% under NEG: {r:?}");
        assert!(r.delivered_fraction > 0.999);
        // On K8 every negotiated path is the single-hop minimal one, so
        // NEG must agree with MinSingle exactly (same RNG draw order).
        let min = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Permutation,
            0.3,
            &cfg,
        );
        assert_eq!(r, min);
    }

    #[test]
    fn low_load_latency_near_zero_load_baseline() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        // A longer window than small_cfg: at 5% load only ~2.5 packets
        // arrive per endpoint per 1000 cycles, so short windows make the
        // accepted-throughput criterion a coin flip.
        let cfg = SimConfig {
            measure_cycles: 4_000,
            ..small_cfg(1)
        };
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Uniform,
            0.05,
            &cfg,
        );
        assert!(r.stable, "complete graph at 5% load must be stable: {r:?}");
        // Minimum latency: serialization (4) + link (1) + eject
        // serialization (4) ≈ 9-10 cycles for a 1-hop path.
        assert!(
            r.avg_latency >= 8.0 && r.avg_latency < 30.0,
            "latency {}",
            r.avg_latency
        );
        assert!(r.delivered_fraction > 0.999);
    }

    #[test]
    fn complete_graph_sustains_high_uniform_load() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.7,
            &small_cfg(2),
        );
        assert!(
            r.stable,
            "K8 with 2 eps/router should sustain 70% uniform load"
        );
        assert!(r.accepted > 0.5, "accepted {}", r.accepted);
    }

    #[test]
    fn ring_saturates_under_uniform_load() {
        // An 8-cycle with 2 endpoints per router has tiny bisection; high
        // uniform load must saturate (latency runaway / undelivered).
        let spec = NetworkSpec::uniform("c8", Graph::cycle(8), 2);
        let table = RouteTable::for_spec(&spec);
        let hi = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Uniform,
            0.9,
            &small_cfg(3),
        );
        assert!(
            !hi.stable || hi.avg_latency > 200.0,
            "ring at 90% must saturate"
        );
        let lo = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Uniform,
            0.05,
            &small_cfg(3),
        );
        assert!(lo.stable);
        assert!(lo.avg_latency < hi.avg_latency.min(1e9));
    }

    #[test]
    fn latency_monotone_in_load() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let mut last = 0.0;
        for load in [0.1, 0.4, 0.7] {
            let r = simulate(
                &spec,
                &table,
                RoutingKind::MinMulti,
                &Pattern::Uniform,
                load,
                &small_cfg(4),
            );
            assert!(
                r.avg_latency >= last * 0.9,
                "latency not ~monotone at {load}"
            );
            last = r.avg_latency;
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let a = simulate(
            &spec,
            &table,
            RoutingKind::Ugal { candidates: 4 },
            &Pattern::Uniform,
            0.3,
            &small_cfg(5),
        );
        let b = simulate(
            &spec,
            &table,
            RoutingKind::Ugal { candidates: 4 },
            &Pattern::Uniform,
            0.3,
            &small_cfg(5),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_matches_sequential_on_k8() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let seq = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.4,
            &small_cfg(9),
        );
        for threads in [2, 3, 8] {
            let cfg = SimConfig {
                threads: Some(threads),
                ..small_cfg(9)
            };
            let par = simulate(
                &spec,
                &table,
                RoutingKind::MinMulti,
                &Pattern::Uniform,
                0.4,
                &cfg,
            );
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn permutation_traffic_runs() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Permutation,
            0.4,
            &small_cfg(6),
        );
        assert!(r.measured_ejected > 0);
        assert!(r.stable);
    }

    #[test]
    fn ugal_beats_min_on_adversarial_ring() {
        // On a cycle, a permutation pinning flows through one region
        // benefits from Valiant spreading. Use adversarial-group traffic
        // on a dragonfly instead — the canonical UGAL showcase.
        let spec =
            polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
                a: 4,
                h: 2,
                p: 2,
            });
        let flat = spec
            .clone()
            .with_policy(polarstar_topo::RoutingPolicy::FlatMinimal);
        let table = RouteTable::for_spec(&flat);
        // Each group funnels 8 endpoints over a single global link under
        // MIN (throughput cap ≈ 1/8); UGAL spreads over all groups.
        let load = 0.3;
        let min = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::AdversarialGroup,
            load,
            &small_cfg(7),
        );
        let ugal = simulate(
            &spec,
            &table,
            RoutingKind::ugal4(),
            &Pattern::AdversarialGroup,
            load,
            &small_cfg(7),
        );
        assert!(!min.stable, "MIN at 0.3 exceeds the single-link cap");
        assert!(
            ugal.avg_latency < min.avg_latency * 0.7 || (ugal.stable && !min.stable),
            "UGAL {:?} vs MIN {:?}",
            (ugal.stable, ugal.avg_latency),
            (min.stable, min.avg_latency)
        );
    }

    #[test]
    fn zero_load_produces_no_packets() {
        let spec = k8_spec();
        let table = RouteTable::for_spec(&spec);
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Uniform,
            0.0,
            &small_cfg(8),
        );
        assert_eq!(r.measured_ejected, 0);
        assert!(r.stable);
    }

    #[test]
    fn partition_starts_cover_and_balance() {
        let weights = vec![1u64; 10];
        assert_eq!(partition_starts(&weights, 2), vec![0, 5, 10]);
        assert_eq!(partition_starts(&weights, 1), vec![0, 10]);
        // More shards than routers: clamped, every shard nonempty.
        let starts = partition_starts(&[3, 1, 1], 5);
        assert_eq!(starts.first(), Some(&0));
        assert_eq!(starts.last(), Some(&3));
        for w in starts.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Skewed weights shift the boundary.
        let starts = partition_starts(&[10, 1, 1, 1, 1], 2);
        assert_eq!(starts, vec![0, 1, 5]);
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use crate::routing::{RouteTable, RoutingKind};
    use crate::traffic::Pattern;
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;

    /// Failure injection end-to-end: knock links out of a topology,
    /// rebuild the routing tables, and verify traffic still delivers at
    /// low load (the operational recovery story behind Figure 14).
    #[test]
    fn traffic_survives_link_failures_after_reroute() {
        let full = polarstar_graph::random::random_regular(32, 6, 9).unwrap();
        // Remove ~10% of links (every 10th edge, scattered so the
        // survivor stays connected).
        let edges: Vec<(u32, u32)> = full.edges().collect();
        let removed: Vec<(u32, u32)> = edges.iter().copied().step_by(10).collect();
        let faulty = full.without_edges(&removed);
        assert!(polarstar_graph::traversal::is_connected(&faulty));
        let spec = NetworkSpec::uniform("faulty", faulty, 2);
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 800,
            drain_cycles: 6_000,
            seed: 3,
            ..SimConfig::default()
        };
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.2,
            &cfg,
        );
        assert!(r.stable, "faulty network at 20% load: {r:?}");
        assert!(r.delivered_fraction > 0.999);
    }

    /// Hop counts respect the (possibly fault-lengthened) diameter.
    #[test]
    fn hop_counts_bounded_by_diameter() {
        let g = Graph::cycle(10);
        let spec = NetworkSpec::uniform("c10", g, 1);
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 600,
            drain_cycles: 4_000,
            seed: 4,
            ..SimConfig::default()
        };
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Uniform,
            0.1,
            &cfg,
        );
        assert!(
            r.avg_hops >= 1.0 && r.avg_hops <= 5.0,
            "avg hops {}",
            r.avg_hops
        );
    }

    /// Pure Valiant doubles path length but still delivers.
    #[test]
    fn valiant_hops_exceed_minimal() {
        let spec = NetworkSpec::uniform("k8", Graph::complete(8), 2);
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 800,
            drain_cycles: 6_000,
            seed: 5,
            ..SimConfig::default()
        };
        let min = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.2,
            &cfg,
        );
        let val = simulate(
            &spec,
            &table,
            RoutingKind::Valiant,
            &Pattern::Uniform,
            0.2,
            &cfg,
        );
        assert!(
            val.avg_hops > min.avg_hops,
            "valiant {} vs min {}",
            val.avg_hops,
            min.avg_hops
        );
        assert!(val.stable && min.stable);
    }

    /// A spec-level fault mask (rather than structural edge removal)
    /// reroutes traffic the same way: the degraded network still
    /// delivers everything when it stays connected, with zero
    /// unroutable drops, under every routing kind.
    #[test]
    fn fault_mask_reroutes_when_connected() {
        use polarstar_topo::FaultSet;
        let full = polarstar_graph::random::random_regular(32, 6, 9).unwrap();
        let faults = FaultSet::random_links(&full, 0.1, 41);
        assert!(polarstar_graph::traversal::is_connected(
            &faults.degraded_graph(&full)
        ));
        let spec = NetworkSpec::uniform("masked", full, 2).with_faults(faults);
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 800,
            drain_cycles: 6_000,
            seed: 3,
            ..SimConfig::default()
        };
        for kind in [
            RoutingKind::MinMulti,
            RoutingKind::Valiant,
            RoutingKind::ugal4(),
        ] {
            let r = simulate(&spec, &table, kind, &Pattern::Uniform, 0.15, &cfg);
            assert!(r.stable, "{kind:?}: {r:?}");
            assert!(r.delivered_fraction > 0.999, "{kind:?}");
            assert_eq!(r.unroutable, 0, "{kind:?}");
        }
    }

    /// Failing a router disconnects its endpoints: the run terminates
    /// cleanly (no hang, no panic) with a nonzero unroutable count and
    /// full delivery of everything that had a path.
    #[test]
    fn failed_router_yields_unroutable_not_hang() {
        use polarstar_topo::FaultSet;
        let g = polarstar_graph::random::random_regular(24, 5, 2).unwrap();
        let spec =
            NetworkSpec::uniform("dead-router", g, 2).with_faults(FaultSet::from_routers([3]));
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 600,
            drain_cycles: 5_000,
            seed: 8,
            ..SimConfig::default()
        };
        for kind in [
            RoutingKind::MinSingle,
            RoutingKind::Valiant,
            RoutingKind::ugal4(),
        ] {
            let r = simulate(&spec, &table, kind, &Pattern::Uniform, 0.2, &cfg);
            // Router 3's endpoints inject toward, and are targeted by,
            // the rest of the network: both directions drop.
            assert!(r.unroutable > 0, "{kind:?}: {r:?}");
            // Everything with a surviving path drains.
            assert!(r.delivered_fraction > 0.999, "{kind:?}: {r:?}");
        }
    }

    /// Monitored runs count every unroutable drop (all windows, not just
    /// measured) and agree with the SimResult on the measured subset.
    #[test]
    fn monitor_counts_unroutable_drops() {
        use crate::monitor::MetricsMonitor;
        use polarstar_topo::FaultSet;
        let g = Graph::complete(8);
        let spec = NetworkSpec::uniform("k8-dead", g, 1).with_faults(FaultSet::from_routers([0]));
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 600,
            drain_cycles: 4_000,
            seed: 6,
            ..SimConfig::default()
        };
        let mut mon = MetricsMonitor::new(64);
        let r = simulate_overlay_monitored(
            &spec,
            &table,
            RoutingKind::MinMulti,
            None,
            &Pattern::Uniform,
            0.3,
            &cfg,
            &mut mon,
        );
        let rep = mon.report();
        assert!(r.unroutable > 0);
        assert!(
            rep.unroutable >= r.unroutable,
            "monitor {} < result {}",
            rep.unroutable,
            r.unroutable
        );
        assert!(rep.to_json().contains("\"unroutable\""));
    }
}

#[cfg(test)]
mod live_fault_tests {
    use super::*;
    use crate::monitor::MetricsMonitor;
    use crate::routing::{RouteTable, RoutingKind};
    use crate::traffic::Pattern;
    use polarstar_graph::Graph;
    use polarstar_topo::fault::{FaultSchedule, FaultSet};
    use polarstar_topo::network::NetworkSpec;

    /// A mid-run failure burst with online repair: packets en route over
    /// the dying links are dropped or re-routed, everything else drains,
    /// and the run still terminates cleanly after the links return.
    #[test]
    fn live_burst_reroutes_and_drains() {
        let g = polarstar_graph::random::random_regular(32, 6, 9).unwrap();
        // Link burst plus one dead router: the link cut forces queued
        // packets onto detours (rerouted), the router death cuts off a
        // destination outright (faulted_in_flight).
        let burst = FaultSet::random_links(&g, 0.15, 77).union(&FaultSet::from_routers([5]));
        let spec = NetworkSpec::uniform("live", g, 2);
        let table = RouteTable::for_spec(&spec);
        let schedule = FaultSchedule::new()
            .fail_at(450, burst.clone())
            .recover_at(900, burst);
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 800,
            drain_cycles: 6_000,
            seed: 11,
            fault_schedule: Some(schedule),
            ..SimConfig::default()
        };
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.55,
            &cfg,
        );
        assert!(r.faulted_in_flight > 0, "{r:?}");
        assert!(r.rerouted > 0, "{r:?}");
        assert!(!r.watchdog_fired, "{r:?}");
        // Dropped measured packets are excluded from the drain equality,
        // so the run still terminates with everything routable delivered.
        assert!(r.delivered_fraction > 0.9, "{r:?}");
    }

    /// A recovered schedule ends on the pristine epoch: after the links
    /// return, routing is exactly the zero-fault table again and a
    /// post-recovery run behaves like an unfaulted one (full delivery).
    #[test]
    fn recovery_restores_full_delivery() {
        let g = Graph::complete(8);
        let spec = NetworkSpec::uniform("k8", g, 2);
        let table = RouteTable::for_spec(&spec);
        let schedule = FaultSchedule::new()
            .fail_link_at(100, 0, 1)
            .recover_link_at(200, 0, 1);
        let cfg = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 1_000,
            drain_cycles: 10_000,
            seed: 12,
            fault_schedule: Some(schedule),
            ..SimConfig::default()
        };
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.3,
            &cfg,
        );
        // The burst ends before measurement starts at cycle 500, so the
        // measured window sees only the recovered (pristine) epoch.
        assert!(r.stable, "{r:?}");
        assert!(r.delivered_fraction > 0.999, "{r:?}");
        assert_eq!(r.unroutable, 0);
    }

    /// The acceptance-criterion wedge: fail every link into a hot
    /// destination mid-run with a *stale* control plane (no re-route).
    /// Head-of-line blocking freezes the whole network; the watchdog must
    /// terminate the run in bounded cycles with a diagnostic snapshot —
    /// not spin to `hard_end`.
    #[test]
    fn stale_wedge_fires_watchdog_with_diagnostics() {
        let g = Graph::complete(8);
        let spec = NetworkSpec::uniform("k8-wedge", g, 2);
        let table = RouteTable::for_spec(&spec);
        // All links incident to router 7. from_links (not from_routers):
        // router 7 itself stays alive, so arrivals are not dropped and
        // the stale-routed packets wedge in place.
        let cut = FaultSet::from_links((0..7u32).map(|u| (u, 7)));
        let schedule = FaultSchedule::new().fail_at(300, cut);
        let cfg = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 1_000,
            drain_cycles: 50_000,
            seed: 13,
            fault_schedule: Some(schedule),
            fault_response: FaultResponse::Stale,
            watchdog_cycles: Some(300),
            ..SimConfig::default()
        };
        let mut mon = MetricsMonitor::new(64);
        let r = simulate_overlay_monitored(
            &spec,
            &table,
            RoutingKind::MinSingle,
            None,
            &Pattern::Uniform,
            0.4,
            &cfg,
            &mut mon,
        );
        assert!(r.watchdog_fired, "{r:?}");
        assert!(!r.stable, "{r:?}");
        let rep = mon.report();
        let diag = rep.watchdog.as_ref().expect("diagnostic snapshot");
        assert!(diag.buffered_packets > 0, "{diag:?}");
        assert_eq!(diag.stalled_cycles, 300);
        assert!(diag.oldest_packet_age > 0, "{diag:?}");
        assert!(!diag.stuck_routers.is_empty(), "{diag:?}");
        // The watchdog fired within warmup + stall bound + slack — far
        // short of the 50k-cycle drain horizon.
        assert!(diag.fired_at < 5_000, "{diag:?}");
        assert!(rep.to_json().contains("\"watchdog\":{"));
    }

    /// The same wedge under `Reroute` does NOT wedge: the epoch switch
    /// re-routes or drops every packet aimed at the now-unreachable hot
    /// router and the run terminates without the watchdog.
    #[test]
    fn reroute_unwedges_the_same_cut() {
        let g = Graph::complete(8);
        let spec = NetworkSpec::uniform("k8-repair", g, 2);
        let table = RouteTable::for_spec(&spec);
        let cut = FaultSet::from_links((0..7u32).map(|u| (u, 7)));
        let schedule = FaultSchedule::new().fail_at(300, cut);
        let cfg = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 1_000,
            drain_cycles: 50_000,
            seed: 13,
            fault_schedule: Some(schedule),
            fault_response: FaultResponse::Reroute,
            watchdog_cycles: Some(300),
            ..SimConfig::default()
        };
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinSingle,
            &Pattern::Uniform,
            0.4,
            &cfg,
        );
        assert!(!r.watchdog_fired, "{r:?}");
        // Router 7 is unreachable after the cut: packets for it drop —
        // at the epoch switch if buffered, at injection afterwards.
        assert!(r.unroutable > 0, "{r:?}");
    }

    /// The debug invariant pass (credit conservation, arena conservation,
    /// queue bounds) holds through fault epochs at one shard and at
    /// several.
    #[test]
    fn invariants_hold_through_fault_epochs() {
        let g = polarstar_graph::random::random_regular(24, 5, 2).unwrap();
        let burst = FaultSet::random_links(&g, 0.1, 5);
        let spec = NetworkSpec::uniform("inv", g, 2);
        let table = RouteTable::for_spec(&spec);
        let schedule = FaultSchedule::new()
            .fail_at(250, burst.clone())
            .recover_at(600, burst);
        for threads in [None, Some(2)] {
            let cfg = SimConfig {
                warmup_cycles: 200,
                measure_cycles: 600,
                drain_cycles: 5_000,
                seed: 21,
                threads,
                fault_schedule: Some(schedule.clone()),
                invariant_check_every: Some(64),
                ..SimConfig::default()
            };
            let r = simulate(
                &spec,
                &table,
                RoutingKind::MinMulti,
                &Pattern::Uniform,
                0.2,
                &cfg,
            );
            assert!(r.delivered_fraction > 0.9, "{threads:?}: {r:?}");
        }
    }
}
