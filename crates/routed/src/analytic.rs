//! Table-free serving backend: the §9.2 analytic router as a
//! [`PathOracle`].
//!
//! A [`RouteTable`](polarstar_netsim::RouteTable) answers queries from a
//! per-destination arena that costs O(n²) bytes to hold and one BFS per
//! destination to rebuild on every fault epoch. The analytic backend
//! keeps only factor-graph state (the [`AnalyticRouter`]'s middle lists
//! and bijection) plus the current [`FaultSet`], and reconstructs
//! answers per query:
//!
//! * **pristine** (no faults): distance is
//!   [`AnalyticRouter::distance`] — product adjacency, else a two-hop
//!   template, else 3 — with no route built; minimal next hops are the
//!   neighbors whose distance is one less. O(1) memory per query.
//! * **faulted, minimal path survives**: a depth-≤3 walk over the
//!   pristine minimal-path DAG checks that some template-length path
//!   avoids the fault mask; if so the pristine distance still holds and
//!   next hops are filtered by the mask. Still O(1) memory.
//! * **faulted, minimal DAG severed**: the query escalates to one exact
//!   degraded search — the shared
//!   [`bfs_distances_masked`] with a [`FaultSet::link_dead`] predicate
//!   (O(n) transient, nothing cached) — reproducing the masked table's
//!   answer bit for bit.
//!
//! Because the fault mask is the *only* per-epoch state, an epoch switch
//! is an `Arc` clone plus a `FaultSet` clone — no BFS sweep and no
//! per-link [`EdgeMask`](polarstar_topo::fault::EdgeMask), so installing
//! an epoch costs microseconds where `RouteTable::remask` reruns one
//! masked BFS per destination (about a fresh table build; see
//! `routing.remask_ms` in the perfbench `fault_walk` ledger).
//!
//! Equivalence contract (pinned by `tests/analytic_vs_table.rs`):
//! distances and the full minimal next-hop sets equal a freshly masked
//! `RouteTable`'s on every config and fault mask. [`PathOracle::path`]
//! is overridden on the pristine path to return the template route in
//! one shot (it is still minimal and deterministic, but may pick a
//! different tie among equally minimal paths than the hop-by-hop
//! first-next-hop walk that [`PathOracle::k_paths`] enumerates).

use polarstar::network::PolarStarNetwork;
use polarstar::routing::AnalyticRouter;
use polarstar_graph::traversal::bfs_distances_masked;
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::{PathOracle, RouteError};
use std::sync::Arc;

/// A table-free [`PathOracle`] over a PolarStar network: §9.2 analytic
/// routing plus a fault mask.
///
/// Cloning is O(1) (the router is shared behind an [`Arc`]); so is
/// [`AnalyticOracle::remask`], which makes fault epochs nearly free.
#[derive(Clone)]
pub struct AnalyticOracle {
    router: Arc<AnalyticRouter>,
    faults: FaultSet,
}

impl AnalyticOracle {
    /// Build the oracle for a network, honoring the static fault mask
    /// its spec already carries.
    pub fn new(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        let router = Arc::new(AnalyticRouter::new(net));
        let faults = router.network().spec.faults().clone();
        AnalyticOracle { router, faults }
    }

    /// Wrap an already-built router (shares its middle lists).
    pub fn from_router(router: Arc<AnalyticRouter>) -> Self {
        let faults = router.network().spec.faults().clone();
        AnalyticOracle { router, faults }
    }

    /// The oracle for a new cumulative fault set. O(1): clones the
    /// shared router `Arc` and swaps the mask — the whole per-epoch
    /// cost of the table-free backend.
    pub fn remask(&self, faults: &FaultSet) -> AnalyticOracle {
        AnalyticOracle {
            router: Arc::clone(&self.router),
            faults: faults.clone(),
        }
    }

    /// The underlying analytic router (fallback counters live there).
    pub fn router(&self) -> &AnalyticRouter {
        &self.router
    }

    /// The network this oracle answers for.
    pub fn network(&self) -> &Arc<PolarStarNetwork> {
        self.router.network()
    }

    /// The fault mask this oracle serves.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Resident bytes of the routing state (factor-graph middles + the
    /// fault mask) — the table-free counterpart of
    /// `RouteTable::memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        self.router.memory_bytes()
            + std::mem::size_of_val(self.faults.failed_links())
            + std::mem::size_of_val(self.faults.failed_routers())
    }

    fn check(&self, r: u32) -> Result<(), RouteError> {
        let n = self.num_routers() as u32;
        if r >= n {
            return Err(RouteError::OutOfRange { id: r, routers: n });
        }
        Ok(())
    }

    #[inline]
    fn pristine_distance(&self, src: u32, dst: u32) -> u32 {
        self.router.distance(src, dst)
    }

    /// Whether some pristine-minimal path of length `r` from `v` to
    /// `dst` survives the fault mask. Depth-bounded (diameter ≤ 3) walk
    /// over the minimal-path DAG; every path of pristine-minimal length
    /// in the degraded graph lies on this DAG, so a `false` here proves
    /// the degraded distance strictly exceeds the pristine one.
    fn survives(&self, v: u32, dst: u32, r: u32) -> bool {
        if r == 0 {
            return true;
        }
        for &nb in self.network().graph().neighbors(v) {
            if self.faults.link_dead(v, nb) {
                continue;
            }
            if self.pristine_distance(nb, dst) == r - 1 && self.survives(nb, dst, r - 1) {
                return true;
            }
        }
        false
    }

    /// Exact degraded-graph BFS distances toward `dst` into `dist` —
    /// the escalation path for queries whose minimal DAG the mask
    /// severed. O(n) transient, nothing cached.
    fn degraded_distances_into(&self, dst: u32, dist: &mut Vec<u32>) {
        let faults = &self.faults;
        let usable = |_, u, v| !faults.link_dead(u, v);
        bfs_distances_masked(self.network().graph(), dst, usable, dist, &mut Vec::new());
    }

    /// The faulted-query case split shared by [`PathOracle::distance`]
    /// and [`PathOracle::min_next_hops`]: `Ok(None)` when a pristine-
    /// minimal path survives (the pristine distance holds), otherwise the
    /// degraded column toward `dst` with `src` known reachable.
    fn faulted_column(&self, src: u32, dst: u32) -> Result<Option<Vec<u32>>, RouteError> {
        let unreachable = RouteError::Unreachable { src, dst };
        if self.faults.router_failed(src) || self.faults.router_failed(dst) {
            return Err(unreachable);
        }
        if self.survives(src, dst, self.pristine_distance(src, dst)) {
            return Ok(None);
        }
        let mut dist = Vec::new();
        self.degraded_distances_into(dst, &mut dist);
        match dist[src as usize] {
            u32::MAX => Err(unreachable),
            _ => Ok(Some(dist)),
        }
    }
}

impl PathOracle for AnalyticOracle {
    fn num_routers(&self) -> usize {
        self.network().spec.routers()
    }

    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(0);
        }
        if self.faults.is_empty() {
            return Ok(self.pristine_distance(src, dst));
        }
        Ok(match self.faulted_column(src, dst)? {
            None => self.pristine_distance(src, dst),
            Some(dist) => dist[src as usize],
        })
    }

    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(());
        }
        // Pristine neighbor order is ascending router id — the same
        // port order `RouteTable` stores, so the sets match verbatim.
        let nbrs = self.network().graph().neighbors(src);
        let d = self.pristine_distance(src, dst);
        if self.faults.is_empty() {
            out.extend(
                nbrs.iter()
                    .filter(|&&nb| self.pristine_distance(nb, dst) + 1 == d),
            );
            return Ok(());
        }
        match self.faulted_column(src, dst)? {
            // The minimal DAG survives: a neighbor is a port iff its
            // *directed* link is alive (the table's port rule) and a
            // surviving minimal continuation exists.
            None => out.extend(nbrs.iter().filter(|&&nb| {
                !self.faults.link_failed(src, nb)
                    && self.pristine_distance(nb, dst) + 1 == d
                    && self.survives(nb, dst, d - 1)
            })),
            // Severed: one degraded search gives both the distance and
            // the ports.
            Some(dist) => out.extend(nbrs.iter().filter(|&&nb| {
                !self.faults.link_failed(src, nb)
                    && dist[nb as usize] != u32::MAX
                    && dist[nb as usize] + 1 == dist[src as usize]
            })),
        }
        Ok(())
    }

    /// Bulk per-destination distances for the class-batched flow build.
    ///
    /// Pristine columns exploit the diameter-≤3 guarantee (§4; the
    /// routing tests pin template route lengths to BFS distances on
    /// every config): a BFS that expands only depths 0 and 1 labels the
    /// whole column, because any router it never reaches sits at
    /// distance exactly 3. That is ~deg² work per destination instead
    /// of O(E), which is what turns per-flow template queries into
    /// per-destination array scans. Faulted columns run the exact
    /// degraded-graph BFS the per-query escalation path uses, so the
    /// column equals per-query [`AnalyticOracle::distance`] answers in
    /// every epoch.
    fn distance_column(&self, dst: u32, out: &mut Vec<u32>) -> bool {
        let g = self.network().graph();
        let n = g.n();
        out.clear();
        if dst as usize >= n {
            // Per-query answers are OutOfRange errors; the column
            // equivalent is an all-unreachable destination.
            out.resize(n, u32::MAX);
            return true;
        }
        if !self.faults.is_empty() {
            self.degraded_distances_into(dst, out);
            return true;
        }
        out.resize(n, 3);
        out[dst as usize] = 0;
        for &nb in g.neighbors(dst) {
            out[nb as usize] = 1;
        }
        for &nb in g.neighbors(dst) {
            for &nb2 in g.neighbors(nb) {
                if out[nb2 as usize] == 3 {
                    out[nb2 as usize] = 2;
                }
            }
        }
        #[cfg(debug_assertions)]
        {
            // Debug builds verify the diameter-≤3 shortcut against the
            // full BFS, column by column — `cargo test` exercises every
            // column the flow build asks for.
            let exact = polarstar_graph::traversal::bfs_distances(g, dst);
            for (v, &d) in exact.iter().enumerate() {
                debug_assert_eq!(
                    out[v], d,
                    "pristine distance column {dst}: router {v} off the \
                     diameter-3 envelope"
                );
            }
        }
        true
    }

    /// The masked table's directed port rule: a link carries traffic
    /// unless this epoch failed it (or either endpoint router).
    fn link_usable(&self, u: u32, v: u32) -> bool {
        !self.faults.link_failed(u, v)
    }

    /// Pristine queries answer with the §9.2 template path directly —
    /// one template search instead of a min-next-hop scan per hop,
    /// which is what lets the flow simulator route a million flows
    /// without a table. Faulted queries fall back to the standard
    /// first-next-hop walk so the masked-table semantics hold exactly.
    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        if self.faults.is_empty() {
            self.check(src)?;
            self.check(dst)?;
            let mut path = vec![src];
            path.extend(self.router.route(src, dst));
            return Ok(path);
        }
        let mut path = vec![src];
        let mut cur = src;
        let mut hops = Vec::with_capacity(4);
        while cur != dst {
            hops.clear();
            self.min_next_hops(cur, dst, &mut hops)?;
            cur = *hops.first().ok_or(RouteError::Unreachable { src, dst })?;
            path.push(cur);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar::design::{PolarStarConfig, SupernodeKind};

    fn small_net() -> PolarStarNetwork {
        let cfg = PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        };
        PolarStarNetwork::build(cfg, 1).unwrap()
    }

    #[test]
    fn pristine_answers_are_minimal_and_o1() {
        let net = small_net();
        let o = AnalyticOracle::new(net.clone());
        let n = o.num_routers() as u32;
        for s in 0..n {
            for t in 0..n {
                let d = o.distance(s, t).unwrap();
                assert!(d <= 3, "{s}→{t}");
                let p = o.path(s, t).unwrap();
                assert_eq!(p.len() as u32, d + 1);
                assert_eq!((p[0], *p.last().unwrap()), (s, t));
                for w in p.windows(2) {
                    assert!(net.graph().has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn remask_is_arc_shallow_and_masks() {
        let o = AnalyticOracle::new(small_net());
        // Sever every minimal continuation of some edge and check the
        // distance grows while the base oracle is untouched.
        let cut = FaultSet::from_links([(0, 1)]);
        let masked = o.remask(&cut);
        assert!(Arc::ptr_eq(&o.router, &masked.router), "router shared");
        if o.network().graph().has_edge(0, 1) {
            assert_eq!(o.distance(0, 1), Ok(1));
            assert!(masked.distance(0, 1).unwrap() > 1);
        }
        // Router failure seals the router off.
        let dead = o.remask(&FaultSet::from_routers([2]));
        assert_eq!(dead.distance(2, 2), Ok(0));
        assert!(dead.distance(2, 0).is_err());
        assert!(dead.distance(0, 2).is_err());
    }

    #[test]
    fn distance_column_matches_per_query_answers() {
        let net = small_net();
        let o = AnalyticOracle::new(net.clone());
        let n = o.num_routers() as u32;
        let check = |o: &AnalyticOracle| {
            let mut col = Vec::new();
            for dst in 0..n {
                assert!(o.distance_column(dst, &mut col));
                assert_eq!(col.len(), n as usize);
                for v in 0..n {
                    let expect = o.distance(v, dst).unwrap_or(u32::MAX);
                    assert_eq!(col[v as usize], expect, "col[{v}] for dst {dst}");
                }
            }
        };
        check(&o);
        // Faulted columns take the degraded-BFS path; a router failure
        // must read back as an all-MAX column (except the self entry).
        let masked = o.remask(&FaultSet::from_links([(0, 1), (2, 5)]));
        check(&masked);
        let dead = o.remask(&FaultSet::from_routers([3]));
        check(&dead);
        // Out-of-range destinations answer all-unreachable, mirroring
        // the typed per-query error.
        let mut col = Vec::new();
        assert!(o.distance_column(n, &mut col));
        assert!(col.iter().all(|&d| d == u32::MAX));
    }

    #[test]
    fn link_usable_mirrors_the_directed_port_rule() {
        let o = AnalyticOracle::new(small_net());
        assert!(o.link_usable(0, 1));
        let masked = o.remask(&FaultSet::from_directed_links([(0, 1)]));
        assert!(!masked.link_usable(0, 1));
        assert!(masked.link_usable(1, 0), "reverse direction stays up");
        let dead = o.remask(&FaultSet::from_routers([2]));
        assert!(!dead.link_usable(2, 0));
        assert!(!dead.link_usable(0, 2));
    }

    #[test]
    fn out_of_range_is_typed() {
        let o = AnalyticOracle::new(small_net());
        let n = o.num_routers() as u32;
        assert_eq!(
            o.distance(n, 0),
            Err(RouteError::OutOfRange { id: n, routers: n })
        );
        assert!(o.path(0, n).is_err());
    }
}
