//! Routing state: minimal next-hop tables and the §9.3 routing schemes.
//!
//! A [`RouteTable`] stores, for every (router, destination-router) pair,
//! the set of output ports lying on minimal paths — the "all minpaths"
//! tables the paper attributes to SF/BF (and that HyperX computes by
//! coordinate alignment). [`RoutingKind`] selects how the table is used:
//!
//! * `MinSingle` — one deterministic minimal path per pair;
//! * `MinMulti` — a uniformly random minimal port at each hop;
//! * `Ugal` — UGAL-L (§9.3): at the source, compare the minimal path
//!   against 4 random Valiant intermediates using local output-queue
//!   occupancy × remaining hops, then route minimally per phase.

use polarstar_graph::traversal::bfs_distances_masked;
use polarstar_graph::Graph;
use polarstar_topo::fault::{EdgeMask, FaultSet};
use polarstar_topo::network::{NetworkSpec, RoutingPolicy};
use polarstar_topo::oracle::{PathOracle, RouteError};
use rayon::prelude::*;

/// How packets pick output ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingKind {
    /// Deterministic single minimal path.
    MinSingle,
    /// Random minimal port per hop (oblivious multipath).
    MinMulti,
    /// Valiant load balancing: every packet misroutes through a uniform
    /// random intermediate router, then routes minimally.
    Valiant,
    /// UGAL-L: adaptive choice between minimal and Valiant misrouting,
    /// sampling this many random intermediates (the paper uses 4).
    Ugal {
        /// Number of Valiant candidates sampled at injection.
        candidates: usize,
    },
    /// Follow an offline congestion-negotiated per-pair assignment
    /// ([`crate::negotiate::NegotiatedRoutes`]). Requires the overlay
    /// argument of [`crate::engine::simulate_overlay_monitored`].
    /// Packets off the negotiated path (or whose negotiated hop died in
    /// the current fault epoch) fall back to the first minimal port.
    Negotiated,
}

impl RoutingKind {
    /// The paper's UGAL configuration.
    pub fn ugal4() -> Self {
        RoutingKind::Ugal { candidates: 4 }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingKind::MinSingle | RoutingKind::MinMulti => "MIN",
            RoutingKind::Valiant => "VAL",
            RoutingKind::Ugal { .. } => "UGAL",
            RoutingKind::Negotiated => "NEG",
        }
    }
}

/// Per-destination distance and minimal-port table.
///
/// Built only from a [`NetworkSpec`]: [`RouteTable::for_spec`] for the
/// spec's own fault mask, [`RouteTable::remask`] for a fault epoch. The
/// spec's [`RoutingPolicy`] picks the discipline — all minimal paths for
/// flat topologies, ≤1-global minimal paths over the spec's groups for
/// Dragonfly and Megafly — and both run through one assembly loop.
///
/// The table keeps the spec's pristine [`Graph`], so port `p` of router
/// `r` is the graph's CSR edge id `edge_range(r).start + p` by
/// construction, in every fault epoch. Distances and port sets live in
/// flat arenas, so lookups on the simulator hot path are offset
/// arithmetic into contiguous memory with no pointer chasing.
pub struct RouteTable {
    /// The pristine router graph; its CSR order is the port order.
    graph: Graph,
    /// dist[dst * n + r] = hop distance from router r to dst.
    dist: Vec<u16>,
    /// Flattened minimal-port lists: for (r, dst), ports[..] are indices
    /// into r's neighbor list that decrease the distance to dst.
    port_offsets: Vec<u32>,
    ports: Vec<u8>,
}

impl RouteTable {
    /// Distance sentinel for pairs no surviving path connects (always the
    /// stored value when the BFS distance exceeds `u16::MAX`, which only
    /// happens for genuinely unreachable pairs on these topologies).
    pub const UNREACHABLE: u16 = u16::MAX;

    /// Build the table a spec asks for: its [`RoutingPolicy`] picks
    /// between flat and hierarchical minimal tables, and its
    /// [`FaultSet`] masks failed links/routers out of both distances and
    /// minimal-port sets. Distances skip dead links and minimal ports
    /// skip failed directed links, but port numbering stays the pristine
    /// graph's, so engine-side port indices match the physical topology.
    ///
    /// A caller holding only a graph wraps it in
    /// [`NetworkSpec::uniform`], adding [`NetworkSpec::with_faults`] or
    /// [`NetworkSpec::with_policy`] where needed.
    ///
    /// # Panics
    /// If the graph is empty, a router has 256 or more ports, or a
    /// hierarchical spec's group array does not match the graph.
    pub fn for_spec(spec: &NetworkSpec) -> Self {
        Self::build(spec, spec.faults())
    }

    /// The table for `spec` under a new cumulative fault set in place of
    /// the spec's own — the route-table *epoch* path of live fault
    /// schedules. `spec` must be the spec this table was built for; the
    /// pristine graph, and with it the port numbering the engine's
    /// flattened state is indexed by, is the same in every epoch.
    pub fn remask(&self, spec: &NetworkSpec, faults: &FaultSet) -> RouteTable {
        assert_eq!(spec.graph.n(), self.n(), "spec does not match this table");
        Self::build(spec, faults)
    }

    /// Pick the spec's global-edge rule: none for a flat table, the
    /// inter-group edges for a hierarchical one.
    fn build(spec: &NetworkSpec, faults: &FaultSet) -> Self {
        let g = &spec.graph;
        assert!(g.n() > 0, "route table over an empty graph");
        assert!(g.max_degree() < 256, "ports are stored as u8");
        let mask = faults.edge_mask(g);
        match spec.routing_policy() {
            RoutingPolicy::FlatMinimal => Self::minimal(g, &mask, |_, _| false),
            RoutingPolicy::HierarchicalMinimal => {
                let group = &spec.group;
                assert_eq!(group.len(), g.n(), "group length does not match the graph");
                Self::minimal(g, &mask, |u, v| group[u as usize] != group[v as usize])
            }
        }
    }

    /// The one construction path: minimal paths that cross at most one
    /// edge `global` marks. One masked BFS per destination
    /// (rayon-parallel) skips [`EdgeMask::dead`] edges; minimal ports
    /// exclude [`EdgeMask::failed`] directed links. Pairs the mask
    /// disconnects keep [`RouteTable::UNREACHABLE`] distance and an empty
    /// port set; an empty fault set builds the pristine table.
    ///
    /// With inter-group edges as globals this is hierarchical routing
    /// (Dragonfly, Megafly): BookSim's built-in ≤1-global MIN
    /// discipline; UGAL over it composes two such segments, matching the
    /// standard Dragonfly Valiant scheme. Per destination it keeps two
    /// columns: `d0`, the purely local distance, and `d1`, the ≤1-global
    /// distance the table stores. A local port is minimal if it shortens
    /// `d1`; a global port only if the remainder from its far end is
    /// purely local (`d0`), so no path ever takes two globals. The flat
    /// rule is the same rule with every edge local: then `d0 = d1`, and
    /// only that one column is kept.
    fn minimal<F: Fn(u32, u32) -> bool + Sync>(g: &Graph, mask: &EdgeMask, global: F) -> Self {
        let n = g.n();
        let any_global = (0..n as u32).any(|u| g.neighbors(u).iter().any(|&v| global(u, v)));
        // (d1, d0) per destination; d0 is empty when no edge is global.
        let cols: Vec<(Vec<u32>, Vec<u32>)> = (0..n as u32)
            .into_par_iter()
            .map(|dst| {
                let mut d0 = Vec::new();
                let local = |e: u32, u: u32, v: u32| !mask.dead(e) && !global(u, v);
                bfs_distances_masked(g, dst, local, &mut d0, &mut Vec::new());
                if any_global {
                    (one_global_bfs(g, &global, mask, &d0), d0)
                } else {
                    (d0, Vec::new())
                }
            })
            .collect();
        let mut dist = vec![0u16; n * n];
        for (dst, (d1, _)) in cols.iter().enumerate() {
            for (r, &x) in d1.iter().enumerate() {
                dist[dst * n + r] = x.min(u16::MAX as u32) as u16;
            }
        }
        let mut port_offsets = Vec::with_capacity(n * n + 1);
        // Every reachable ordered pair contributes at least one minimal
        // port, so n·(n−1) is a lower bound on the arena size.
        let mut ports = Vec::with_capacity(n * n.saturating_sub(1));
        port_offsets.push(0u32);
        for r in 0..n as u32 {
            let (edges, row) = (g.edge_range(r), g.neighbors(r));
            for (dst, (d1, d0)) in cols.iter().enumerate() {
                let dr = d1[r as usize];
                if r as usize != dst && dr != u32::MAX {
                    for (p, (e, &nb)) in edges.clone().zip(row).enumerate() {
                        let via = if global(r, nb) { d0 } else { d1 };
                        if via[nb as usize].saturating_add(1) == dr && !mask.failed(e) {
                            ports.push(p as u8);
                        }
                    }
                }
                port_offsets.push(ports.len() as u32);
            }
        }
        RouteTable {
            graph: g.clone(),
            dist,
            port_offsets,
            ports,
        }
    }

    /// Number of routers.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The pristine router graph whose CSR order is this table's port
    /// order: port `p` of router `r` is directed edge
    /// `graph().edge_range(r).start + p`.
    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Hop distance from `r` to `dst`.
    #[inline]
    pub fn distance(&self, r: u32, dst: u32) -> u16 {
        self.dist[dst as usize * self.n() + r as usize]
    }

    /// Whether any surviving path connects `r` to `dst` (true for
    /// `r == dst`).
    #[inline]
    pub fn is_reachable(&self, r: u32, dst: u32) -> bool {
        self.distance(r, dst) != Self::UNREACHABLE
    }

    /// Minimal output ports at router `r` toward `dst` (empty iff r == dst
    /// or dst unreachable).
    #[inline]
    pub fn min_ports(&self, r: u32, dst: u32) -> &[u8] {
        let idx = r as usize * self.n() + dst as usize;
        let (s, e) = (
            self.port_offsets[idx] as usize,
            self.port_offsets[idx + 1] as usize,
        );
        &self.ports[s..e]
    }

    /// The neighbor reached through `port` of router `r`.
    #[inline]
    pub fn neighbor(&self, r: u32, port: u8) -> u32 {
        self.graph.neighbors(r)[port as usize]
    }

    /// All neighbors of router `r`, in port order.
    #[inline]
    pub fn neighbors(&self, r: u32) -> &[u32] {
        self.graph.neighbors(r)
    }

    /// Degree of router `r`.
    #[inline]
    pub fn degree(&self, r: u32) -> usize {
        self.graph.degree(r)
    }

    /// Total table entries (for the paper's storage comparison).
    pub fn storage_entries(&self) -> usize {
        self.ports.len()
    }

    /// Bytes held by the table's flat arenas and its graph's CSR
    /// (capacity overshoot and the struct headers excluded). Lets sweeps
    /// budget per-config routing state up front.
    pub fn memory_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<u16>()
            + self.port_offsets.len() * std::mem::size_of::<u32>()
            + self.ports.len() * std::mem::size_of::<u8>()
            + (self.graph.n() + 1) * std::mem::size_of::<usize>()
            + self.graph.directed_edge_count() * std::mem::size_of::<u32>()
    }
}

impl PathOracle for RouteTable {
    fn num_routers(&self) -> usize {
        self.n()
    }

    /// Typed-error variant of the inherent [`RouteTable::distance`]: the
    /// [`RouteTable::UNREACHABLE`] sentinel surfaces as
    /// [`RouteError::Unreachable`] instead of an in-band `u16::MAX`.
    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        let n = self.n() as u32;
        for id in [src, dst] {
            if id >= n {
                return Err(RouteError::OutOfRange { id, routers: n });
            }
        }
        match RouteTable::distance(self, src, dst) {
            Self::UNREACHABLE => Err(RouteError::Unreachable { src, dst }),
            d => Ok(u32::from(d)),
        }
    }

    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        PathOracle::distance(self, src, dst)?;
        for &p in self.min_ports(src, dst) {
            out.push(self.neighbor(src, p));
        }
        Ok(())
    }
}

/// Shortest distance to `dst` over paths with at most one edge `global`
/// marks, given the pure-local distances `d0` toward `dst`.
///
/// A ≤1-global path from `v` is a local prefix to some router `w`, an
/// optional global hop `w → s`, then a pure-local suffix `s → dst`. So
/// `d1 = min(d0, local-Dijkstra from seeds seed[w] = min over global
/// edges (w, s) of d0[s] + 1)` — a bucketed multi-source Dijkstra over
/// local edges only. Edges the mask marks dead are skipped throughout.
fn one_global_bfs(
    g: &Graph,
    global: impl Fn(u32, u32) -> bool,
    mask: &EdgeMask,
    d0: &[u32],
) -> Vec<u32> {
    let n = g.n();
    let mut dist1 = d0.to_vec();
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); 8];
    let push = |buckets: &mut Vec<Vec<u32>>, d: u32, v: u32| {
        let d = d as usize;
        if buckets.len() <= d {
            buckets.resize(d + 1, Vec::new());
        }
        buckets[d].push(v);
    };
    // Seeds: crossing a global edge (w, s) costs d0[s] + 1 at w, plus
    // the pure-local distances themselves.
    for w in 0..n as u32 {
        for (e, &s) in g.edge_range(w).zip(g.neighbors(w)) {
            if !mask.dead(e) && global(w, s) && d0[s as usize] != u32::MAX {
                let cand = d0[s as usize] + 1;
                if cand < dist1[w as usize] {
                    dist1[w as usize] = cand;
                }
            }
        }
    }
    for (r, &d) in dist1.iter().enumerate() {
        if d != u32::MAX {
            push(&mut buckets, d, r as u32);
        }
    }
    let mut d = 0usize;
    while d < buckets.len() {
        let mut i = 0;
        while i < buckets[d].len() {
            let u = buckets[d][i];
            i += 1;
            if dist1[u as usize] != d as u32 {
                continue; // stale entry
            }
            for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
                if global(u, v) || mask.dead(e) {
                    continue; // only live local propagation
                }
                let nd = d as u32 + 1;
                if nd < dist1[v as usize] {
                    dist1[v as usize] = nd;
                    push(&mut buckets, nd, v);
                }
            }
        }
        d += 1;
    }
    dist1
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;

    /// The flat table of a bare graph under `faults`.
    fn flat_table(g: &Graph, faults: &FaultSet) -> RouteTable {
        RouteTable::for_spec(&NetworkSpec::uniform("g", g.clone(), 1).with_faults(faults.clone()))
    }

    #[test]
    fn table_on_cycle() {
        let g = Graph::cycle(6);
        let t = flat_table(&g, &FaultSet::empty());
        assert_eq!(t.distance(0, 3), 3);
        assert_eq!(t.distance(0, 1), 1);
        // Opposite vertex: both directions are minimal.
        assert_eq!(t.min_ports(0, 3).len(), 2);
        // Adjacent: single minimal port.
        let ports = t.min_ports(0, 1);
        assert_eq!(ports.len(), 1);
        assert_eq!(t.neighbor(0, ports[0]), 1);
        assert!(t.min_ports(2, 2).is_empty());
    }

    #[test]
    fn minimal_ports_reduce_distance() {
        let g = polarstar_graph::random::random_regular(40, 4, 3).unwrap();
        let t = flat_table(&g, &FaultSet::empty());
        for r in 0..40u32 {
            for dst in 0..40u32 {
                if r == dst {
                    continue;
                }
                let d = t.distance(r, dst);
                assert!(!t.min_ports(r, dst).is_empty(), "{r}->{dst}");
                for &p in t.min_ports(r, dst) {
                    let nb = t.neighbor(r, p);
                    assert_eq!(t.distance(nb, dst), d - 1);
                }
            }
        }
    }

    #[test]
    fn complete_graph_all_single_hop() {
        let g = Graph::complete(5);
        let t = flat_table(&g, &FaultSet::empty());
        for r in 0..5u32 {
            for dst in 0..5u32 {
                if r != dst {
                    assert_eq!(t.distance(r, dst), 1);
                    assert_eq!(t.min_ports(r, dst).len(), 1);
                }
            }
        }
    }

    #[test]
    fn hierarchical_dragonfly_distances() {
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let t = RouteTable::for_spec(&df);
        let free = flat_table(&df.graph, &FaultSet::empty());
        for r in 0..df.graph.n() as u32 {
            for dst in 0..df.graph.n() as u32 {
                // Hierarchical distance dominates unconstrained distance
                // and stays ≤ 3 (local, global, local).
                assert!(t.distance(r, dst) >= free.distance(r, dst));
                assert!(t.distance(r, dst) <= 3, "{r}→{dst}");
            }
        }
    }

    #[test]
    fn hierarchical_paths_use_at_most_one_global() {
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let t = RouteTable::for_spec(&df);
        // Walk every (src, dst) pair greedily along every minimal-port
        // choice at the first hop and the deterministic one after,
        // counting global hops.
        for src in 0..df.graph.n() as u32 {
            for dst in 0..df.graph.n() as u32 {
                if src == dst {
                    continue;
                }
                for &p0 in t.min_ports(src, dst) {
                    let mut cur = t.neighbor(src, p0);
                    let mut globals = usize::from(df.group[src as usize] != df.group[cur as usize]);
                    let mut hops = 1;
                    while cur != dst {
                        let ports = t.min_ports(cur, dst);
                        assert!(!ports.is_empty(), "stuck at {cur} toward {dst}");
                        let next = t.neighbor(cur, ports[0]);
                        globals += usize::from(df.group[cur as usize] != df.group[next as usize]);
                        cur = next;
                        hops += 1;
                        assert!(hops <= 4, "loop {src}→{dst}");
                    }
                    assert!(globals <= 1, "{src}→{dst} used {globals} globals");
                }
            }
        }
    }

    #[test]
    fn hierarchical_megafly_reaches_leaves() {
        let mf = polarstar_topo::megafly::megafly(polarstar_topo::megafly::MegaflyParams {
            rho: 2,
            a: 4,
            p: 1,
        });
        let t = RouteTable::for_spec(&mf);
        let leaves = mf.endpoint_routers();
        for &a in &leaves {
            for &b in &leaves {
                if a != b {
                    assert!(t.distance(a, b) <= 3, "{a}→{b}: {}", t.distance(a, b));
                    assert!(!t.min_ports(a, b).is_empty());
                }
            }
        }
    }

    #[test]
    fn memory_bytes_matches_component_sum_on_table3_config() {
        // Table 3's PS-IQ entry: radix-15 PolarStar with p = 5 (1064
        // routers). memory_bytes must equal the exact sum of the flat
        // arena sizes so sweep planners can trust it as a budget.
        let cfg = polarstar::design::best_config(15).unwrap();
        let net = polarstar::network::PolarStarNetwork::build(cfg, 5)
            .unwrap()
            .spec;
        let n = net.graph.n();
        assert_eq!(n, 1064);
        let t = RouteTable::for_spec(&net);
        let sum_deg: usize = (0..n as u32).map(|r| net.graph.degree(r)).sum();
        let expect = n * n * 2            // dist: u16 per (r, dst)
            + (n * n + 1) * 4             // port_offsets: u32
            + t.storage_entries()         // ports: u8
            + (n + 1) * std::mem::size_of::<usize>() // graph offsets: usize
            + sum_deg * 4; // graph neighbors: u32
        assert_eq!(t.memory_bytes(), expect);
        // Sanity: the whole routing state for a 1064-router Table-3
        // config stays well under 16 MiB.
        assert!(t.memory_bytes() < 16 << 20, "{} bytes", t.memory_bytes());
    }

    #[test]
    fn neighbors_slice_matches_graph_adjacency() {
        let g = polarstar_graph::random::random_regular(30, 5, 7).unwrap();
        let t = flat_table(&g, &FaultSet::empty());
        for r in 0..30u32 {
            assert_eq!(t.neighbors(r), g.neighbors(r));
            assert_eq!(t.degree(r), g.degree(r));
            for p in 0..g.degree(r) {
                assert_eq!(t.neighbor(r, p as u8), g.neighbors(r)[p]);
            }
        }
    }

    #[test]
    fn masked_table_routes_around_failed_link() {
        use polarstar_topo::FaultSet;
        // Cycle of 6: kill edge (0, 1). Every pair stays connected the
        // long way round, but distances grow and the failed directed
        // link never appears as a minimal port.
        let g = Graph::cycle(6);
        let f = FaultSet::from_links([(0, 1)]);
        let t = flat_table(&g, &f);
        assert_eq!(t.distance(0, 1), 5);
        assert!(t.is_reachable(0, 1));
        for &p in t.min_ports(0, 1) {
            assert_ne!(t.neighbor(0, p), 1, "failed link offered as port");
        }
        // Pristine port numbering is preserved.
        assert_eq!(t.neighbors(0), g.neighbors(0));
    }

    #[test]
    fn masked_table_marks_disconnected_pairs_unreachable() {
        use polarstar_topo::FaultSet;
        // Path 0-1-2-3: cutting (1, 2) splits the graph in two.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = FaultSet::from_links([(1, 2)]);
        let t = flat_table(&g, &f);
        assert_eq!(t.distance(0, 3), RouteTable::UNREACHABLE);
        assert!(!t.is_reachable(0, 3));
        assert!(t.min_ports(0, 3).is_empty());
        assert!(t.min_ports(1, 2).is_empty());
        // Within each side routing still works.
        assert!(t.is_reachable(0, 1));
        assert_eq!(t.min_ports(2, 3).len(), 1);
    }

    #[test]
    fn masked_table_isolates_failed_router() {
        use polarstar_topo::FaultSet;
        let g = Graph::complete(5);
        let f = FaultSet::from_routers([2]);
        let t = flat_table(&g, &f);
        for r in 0..5u32 {
            if r != 2 {
                assert!(!t.is_reachable(r, 2), "{r}→2");
                assert!(t.min_ports(r, 2).is_empty());
                // No surviving pair routes through the dead router.
                for dst in 0..5u32 {
                    for &p in t.min_ports(r, dst) {
                        assert_ne!(t.neighbor(r, p), 2);
                    }
                }
            }
        }
    }

    #[test]
    fn masked_hierarchical_avoids_failed_global_link() {
        use polarstar_topo::FaultSet;
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        // Fail one global edge and rebuild. Under the ≤1-global
        // discipline, pairs whose groups were joined only by that edge
        // become UNREACHABLE (a flat table would still route them via
        // two globals); every surviving pair keeps nonempty port sets
        // that never traverse the dead directed link.
        let (u, v) = df
            .graph
            .edges()
            .find(|&(u, v)| df.group[u as usize] != df.group[v as usize])
            .unwrap();
        let f = FaultSet::from_links([(u, v)]);
        let t = RouteTable::for_spec(&df.clone().with_faults(f));
        let mut lost = 0usize;
        for src in 0..df.graph.n() as u32 {
            for dst in 0..df.graph.n() as u32 {
                if src == dst {
                    continue;
                }
                if t.is_reachable(src, dst) {
                    assert!(!t.min_ports(src, dst).is_empty(), "{src}→{dst}");
                    for &p in t.min_ports(src, dst) {
                        let nb = t.neighbor(src, p);
                        assert!(!((src == u && nb == v) || (src == v && nb == u)));
                    }
                } else {
                    assert!(t.min_ports(src, dst).is_empty(), "{src}→{dst}");
                    lost += 1;
                }
            }
        }
        // The dead edge's own endpoints must be among the lost pairs,
        // but most pairs survive (other groups keep their globals).
        assert!(lost > 0);
        assert!(!t.is_reachable(u, v));
        assert!(lost < df.graph.n() * (df.graph.n() - 1) / 2, "{lost}");
    }

    #[test]
    fn for_spec_honors_fault_mask() {
        use polarstar_topo::FaultSet;
        let spec = polarstar_topo::NetworkSpec::uniform("ring8", Graph::cycle(8), 1)
            .with_faults(FaultSet::from_links([(0, 1)]));
        let t = RouteTable::for_spec(&spec);
        assert_eq!(t.distance(0, 1), 7);
    }

    /// Pointwise table equality (RouteTable deliberately has no PartialEq:
    /// production code should never compare whole tables).
    fn assert_tables_equal(a: &RouteTable, b: &RouteTable) {
        assert_eq!(a.n(), b.n());
        for r in 0..a.n() as u32 {
            assert_eq!(a.neighbors(r), b.neighbors(r), "CSR row {r}");
            for dst in 0..a.n() as u32 {
                assert_eq!(a.distance(r, dst), b.distance(r, dst), "{r}→{dst}");
                assert_eq!(a.min_ports(r, dst), b.min_ports(r, dst), "{r}→{dst}");
            }
        }
    }

    /// The flat masked table from first principles: distances over
    /// `FaultSet::degraded_graph` (a half-dead cable is dead), minimal
    /// ports filtered by the directed `FaultSet::link_failed` rule.
    fn assert_matches_fault_rules(t: &RouteTable, g: &Graph, f: &polarstar_topo::FaultSet) {
        let degraded = f.degraded_graph(g);
        for dst in 0..g.n() as u32 {
            let d = polarstar_graph::traversal::bfs_distances(&degraded, dst);
            for r in 0..g.n() as u32 {
                let dr = d[r as usize];
                assert_eq!(
                    t.distance(r, dst),
                    dr.min(u16::MAX as u32) as u16,
                    "{r}→{dst}"
                );
                let expect: Vec<u8> = (0..g.degree(r))
                    .filter(|&p| {
                        let nb = g.neighbors(r)[p];
                        r != dst
                            && dr != u32::MAX
                            && !f.link_failed(r, nb)
                            && d[nb as usize].wrapping_add(1) == dr
                    })
                    .map(|p| p as u8)
                    .collect();
                assert_eq!(t.min_ports(r, dst), &expect[..], "{r}→{dst}");
            }
        }
    }

    /// One fault set of each kind: undirected cuts, one-directional
    /// (laser) failures, and router failures, plus their union.
    fn fault_kinds(g: &Graph) -> Vec<polarstar_topo::FaultSet> {
        use polarstar_topo::FaultSet;
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let cuts = FaultSet::random_links(g, 0.1, 5);
        // Fail alternate directions so both orientations are exercised.
        let lasers = FaultSet::from_directed_links(
            edges
                .iter()
                .step_by(7)
                .enumerate()
                .map(|(i, &(u, v))| if i % 2 == 0 { (u, v) } else { (v, u) }),
        );
        let routers = FaultSet::from_routers([3, g.n() as u32 / 2]);
        let all = cuts.union(&lasers).union(&routers);
        vec![cuts, lasers, routers, all]
    }

    #[test]
    fn remask_matches_fresh_masked_build() {
        use polarstar_topo::FaultSet;
        let g = polarstar_graph::random::random_regular(24, 4, 11).unwrap();
        let spec = polarstar_topo::NetworkSpec::uniform("rr24", g.clone(), 1);
        let pristine = RouteTable::for_spec(&spec);
        for f in fault_kinds(&g) {
            let remasked = pristine.remask(&spec, &f);
            assert_tables_equal(&remasked, &flat_table(&g, &f));
            assert_matches_fault_rules(&remasked, &g, &f);
        }
        // Remasking back to the empty set restores the pristine table.
        assert_tables_equal(&pristine.remask(&spec, &FaultSet::empty()), &pristine);
    }

    /// The hierarchical masked table from first principles: ≤1-global
    /// distances by a plain BFS over (router, globals used) states on
    /// `FaultSet::degraded_graph`, minimal ports filtered by the directed
    /// `FaultSet::link_failed` rule plus the local/global rule (a local
    /// hop shortens the ≤1-global distance, a global hop lands where the
    /// rest is purely local).
    fn assert_matches_hierarchical_rules(t: &RouteTable, spec: &NetworkSpec, f: &FaultSet) {
        let (g, group) = (&spec.graph, &spec.group);
        let degraded = f.degraded_graph(g);
        let n = g.n();
        let global = |u: u32, v: u32| group[u as usize] != group[v as usize];
        for dst in 0..n as u32 {
            // state[k * n + v]: hops from dst to v using k globals.
            let mut state = vec![u32::MAX; 2 * n];
            let mut queue = std::collections::VecDeque::from([(dst, 0usize)]);
            state[dst as usize] = 0;
            while let Some((u, k)) = queue.pop_front() {
                let du = state[k * n + u as usize];
                for &v in degraded.neighbors(u) {
                    let kv = k + usize::from(global(u, v));
                    if kv < 2 && state[kv * n + v as usize] == u32::MAX {
                        state[kv * n + v as usize] = du + 1;
                        queue.push_back((v, kv));
                    }
                }
            }
            let d0 = |v: u32| state[v as usize];
            let d1 = |v: u32| state[v as usize].min(state[n + v as usize]);
            for r in 0..n as u32 {
                let dr = d1(r);
                assert_eq!(
                    t.distance(r, dst),
                    dr.min(u16::MAX as u32) as u16,
                    "{r}→{dst}"
                );
                let expect: Vec<u8> = (0..g.degree(r))
                    .filter(|&p| {
                        let nb = g.neighbors(r)[p];
                        let via = if global(r, nb) { d0(nb) } else { d1(nb) };
                        r != dst
                            && dr != u32::MAX
                            && !f.link_failed(r, nb)
                            && via.wrapping_add(1) == dr
                    })
                    .map(|p| p as u8)
                    .collect();
                assert_eq!(t.min_ports(r, dst), &expect[..], "{r}→{dst}");
            }
        }
    }

    #[test]
    fn hierarchical_tables_match_first_principles() {
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let mf = polarstar_topo::megafly::megafly(polarstar_topo::megafly::MegaflyParams {
            rho: 2,
            a: 4,
            p: 1,
        });
        for spec in [df, mf] {
            assert_eq!(spec.routing_policy(), RoutingPolicy::HierarchicalMinimal);
            let pristine = RouteTable::for_spec(&spec);
            assert_matches_hierarchical_rules(&pristine, &spec, &FaultSet::empty());
            for f in fault_kinds(&spec.graph) {
                let t = RouteTable::for_spec(&spec.clone().with_faults(f.clone()));
                assert_matches_hierarchical_rules(&t, &spec, &f);
            }
        }
    }

    #[test]
    fn remask_matches_fresh_hierarchical_build() {
        use polarstar_topo::{FaultSet, RoutingPolicy};
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let spec = polarstar_topo::NetworkSpec::new(
            "df",
            df.graph.clone(),
            df.endpoints.clone(),
            df.group.clone(),
        )
        .with_policy(RoutingPolicy::HierarchicalMinimal);
        let pristine = RouteTable::for_spec(&spec);
        let (u, v) = df
            .graph
            .edges()
            .find(|&(u, v)| df.group[u as usize] != df.group[v as usize])
            .unwrap();
        let mut kinds = fault_kinds(&df.graph);
        kinds.push(FaultSet::from_links([(u, v)]));
        // A one-directional global failure: the reverse port stays
        // offered when it is still minimal, the forward one never is.
        let laser = FaultSet::from_directed_links([(u, v)]);
        kinds.push(laser.clone());
        for f in &kinds {
            let remasked = pristine.remask(&spec, f);
            assert_tables_equal(
                &remasked,
                &RouteTable::for_spec(&df.clone().with_faults(f.clone())),
            );
            for r in 0..df.graph.n() as u32 {
                for dst in 0..df.graph.n() as u32 {
                    for &p in remasked.min_ports(r, dst) {
                        assert!(!f.link_failed(r, remasked.neighbor(r, p)), "{r}→{dst}");
                    }
                }
            }
        }
        // The half-dead global cable is dead for distances: neither end
        // sees the other one hop away.
        let t = pristine.remask(&spec, &laser);
        let cut = pristine.remask(&spec, &FaultSet::from_links([(u, v)]));
        assert!(t.distance(u, v) > 1 && t.distance(v, u) > 1);
        for r in 0..df.graph.n() as u32 {
            assert_eq!(t.distance(r, u), cut.distance(r, u), "{r}→{u}");
            assert_eq!(t.distance(r, v), cut.distance(r, v), "{r}→{v}");
        }
    }

    #[test]
    fn oracle_errors_distinguish_unreachable_from_degree_zero() {
        use polarstar_topo::oracle::{PathOracle, RouteError};
        use polarstar_topo::FaultSet;
        // Path 0-1-2-3 with (1, 2) cut: min_ports(0, 3) and min_ports(3, 3)
        // are both empty slices — the silent fallback this trait fixes.
        // The oracle surface tells them apart with a typed error.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = FaultSet::from_links([(1, 2)]);
        let t = flat_table(&g, &f);
        assert!(t.min_ports(0, 3).is_empty());
        assert!(t.min_ports(3, 3).is_empty());
        assert_eq!(
            PathOracle::distance(&t, 0, 3),
            Err(RouteError::Unreachable { src: 0, dst: 3 })
        );
        assert_eq!(
            t.next_hop(0, 3),
            Err(RouteError::Unreachable { src: 0, dst: 3 })
        );
        assert_eq!(
            t.k_paths(0, 3, 2),
            Err(RouteError::Unreachable { src: 0, dst: 3 })
        );
        // The self-pair stays a healthy answer, not an error.
        assert_eq!(PathOracle::distance(&t, 3, 3), Ok(0));
        assert_eq!(t.next_hop(3, 3), Ok(3));
        // Out-of-range ids are their own typed error.
        assert_eq!(
            PathOracle::distance(&t, 0, 9),
            Err(RouteError::OutOfRange { id: 9, routers: 4 })
        );
    }

    #[test]
    fn oracle_walks_match_table_lookups() {
        use polarstar_topo::oracle::PathOracle;
        let g = polarstar_graph::random::random_regular(30, 4, 3).unwrap();
        let t = flat_table(&g, &FaultSet::empty());
        for src in 0..30u32 {
            for dst in 0..30u32 {
                let d = PathOracle::distance(&t, src, dst).unwrap();
                assert_eq!(d as u16, RouteTable::distance(&t, src, dst));
                let p = t.path(src, dst).unwrap();
                assert_eq!(p.len() as u32, d + 1);
                assert_eq!((p[0], *p.last().unwrap()), (src, dst));
                // Every enumerated alternative is a distinct minimal path.
                let alts = t.k_paths(src, dst, 4).unwrap();
                assert!(!alts.is_empty());
                for (i, a) in alts.iter().enumerate() {
                    assert_eq!(a.len() as u32, d + 1, "{src}→{dst}");
                    for w in a.windows(2) {
                        assert!(g.has_edge(w[0], w[1]), "{src}→{dst} hop {w:?}");
                    }
                    for b in &alts[..i] {
                        assert_ne!(a, b, "{src}→{dst} duplicate path");
                    }
                }
            }
        }
    }

    #[test]
    fn storage_scales_with_path_diversity() {
        // HyperX-like graphs have more minimal ports than a cycle.
        let hx = polarstar_topo::hyperx::hyperx(&[4, 4], 1);
        let t = RouteTable::for_spec(&hx);
        // For routers differing in both coordinates there are 2 minimal
        // first hops.
        assert!(t.storage_entries() > 16 * 15);
    }
}
