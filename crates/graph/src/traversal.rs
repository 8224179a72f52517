//! BFS-based structural metrics: distances, diameter, average path length,
//! connectivity, components.
//!
//! Diameter and average path length run one BFS per vertex; the sweeps are
//! independent, so they are parallelized with rayon (the topologies in the
//! evaluation have 10^2–10^4 vertices, where all-pairs BFS is a few ms).

use crate::csr::{Graph, VertexId};
use rayon::prelude::*;

/// Distance marker for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances; unreachable vertices get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, src: VertexId) -> Vec<u32> {
    let mut dist = Vec::new();
    bfs_distances_masked(g, src, |_, _, _| true, &mut dist, &mut Vec::new());
    dist
}

/// Single-source BFS over the edges `usable(e, u, v)` admits, where `e`
/// is the directed edge id ([`Graph::edge_id`]) of the visit `u → v`.
///
/// Writes distances into `dist` (resized to `n`, unreachable vertices
/// get [`UNREACHABLE`]) and uses `queue` as scratch, so a caller that
/// runs many searches can reuse both buffers. This is the one masked
/// shortest-path search: fault-masked route tables, motif parent trees
/// and the analytic oracle's degraded escalation all run it, each with
/// its own predicate (a precompiled per-slot mask, or a point query).
pub fn bfs_distances_masked(
    g: &Graph,
    src: VertexId,
    usable: impl Fn(u32, VertexId, VertexId) -> bool,
    dist: &mut Vec<u32>,
    queue: &mut Vec<VertexId>,
) {
    dist.clear();
    dist.resize(g.n(), UNREACHABLE);
    queue.clear();
    dist[src as usize] = 0;
    queue.push(src);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = dist[u as usize] + 1;
        for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
            if dist[v as usize] == UNREACHABLE && usable(e, u, v) {
                dist[v as usize] = du;
                queue.push(v);
            }
        }
    }
}

/// Shortest-path distance between a pair, or `None` if disconnected.
pub fn pair_distance(g: &Graph, u: VertexId, v: VertexId) -> Option<u32> {
    let d = bfs_distances(g, u)[v as usize];
    (d != UNREACHABLE).then_some(d)
}

/// Eccentricity of `v` (max finite distance), or `None` if some vertex is
/// unreachable from `v`.
pub fn eccentricity(g: &Graph, v: VertexId) -> Option<u32> {
    let dist = bfs_distances(g, v);
    let mut ecc = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Diameter (max eccentricity), or `None` if disconnected or empty.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return None;
    }
    (0..g.n() as VertexId)
        .into_par_iter()
        .map(|v| eccentricity(g, v))
        .try_reduce(|| 0, |a, b| Some(a.max(b)))
}

/// Average shortest-path length over all ordered reachable pairs with
/// `u != v`; `None` if no such pair exists. For a connected graph this is
/// the paper's "average path length"; on faulty (possibly disconnected)
/// graphs we follow the paper's Figure 14 and average over the pairs that
/// remain connected.
pub fn avg_path_length(g: &Graph) -> Option<f64> {
    if g.n() < 2 {
        return None;
    }
    let (sum, count) = (0..g.n() as VertexId)
        .into_par_iter()
        .map(|v| {
            let dist = bfs_distances(g, v);
            let mut s = 0u64;
            let mut c = 0u64;
            for (u, &d) in dist.iter().enumerate() {
                if u as VertexId != v && d != UNREACHABLE {
                    s += d as u64;
                    c += 1;
                }
            }
            (s, c)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    (count > 0).then(|| sum as f64 / count as f64)
}

/// Diameter restricted to reachable pairs (well-defined on disconnected
/// graphs); `None` only if there is no edge at all.
pub fn reachable_diameter(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return None;
    }
    let d = (0..g.n() as VertexId)
        .into_par_iter()
        .map(|v| {
            bfs_distances(g, v)
                .iter()
                .filter(|&&d| d != UNREACHABLE)
                .max()
                .copied()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    (d > 0).then_some(d)
}

/// Histogram of shortest-path lengths over unordered reachable pairs:
/// `hist[d]` = number of pairs at distance d (d ≥ 1).
pub fn distance_histogram(g: &Graph) -> Vec<u64> {
    let per_vertex: Vec<Vec<u64>> = (0..g.n() as VertexId)
        .into_par_iter()
        .map(|v| {
            let dist = bfs_distances(g, v);
            let mut h = Vec::new();
            for (u, &d) in dist.iter().enumerate() {
                if (u as VertexId) > v && d != UNREACHABLE {
                    if h.len() <= d as usize {
                        h.resize(d as usize + 1, 0);
                    }
                    h[d as usize] += 1;
                }
            }
            h
        })
        .collect();
    let mut out: Vec<u64> = Vec::new();
    for h in per_vertex {
        if out.len() < h.len() {
            out.resize(h.len(), 0);
        }
        for (d, c) in h.into_iter().enumerate() {
            out[d] += c;
        }
    }
    out
}

/// Connected components as a label array (labels are component-minimum
/// vertex ids) plus the component count.
pub fn components(g: &Graph) -> (Vec<VertexId>, usize) {
    let mut label = vec![VertexId::MAX; g.n()];
    let mut count = 0;
    for s in 0..g.n() as VertexId {
        if label[s as usize] != VertexId::MAX {
            continue;
        }
        count += 1;
        let mut queue = std::collections::VecDeque::new();
        label[s as usize] = s;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if label[v as usize] == VertexId::MAX {
                    label[v as usize] = s;
                    queue.push_back(v);
                }
            }
        }
    }
    (label, count)
}

/// Size of the largest connected component.
pub fn largest_component_size(g: &Graph) -> usize {
    let (labels, _) = components(g);
    let mut counts = std::collections::HashMap::new();
    for l in labels {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Graph;

    #[test]
    fn bfs_on_path() {
        let g = Graph::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn masked_bfs_skips_rejected_edges_and_reuses_buffers() {
        let g = Graph::cycle(6);
        let cut = g.edge_id(0, 1).unwrap();
        let (mut dist, mut queue) = (vec![7; 2], Vec::new());
        // Reject the undirected edge {0, 1} by either slot.
        let usable = |e: u32, u: u32, v: u32| e != cut && (u, v) != (1, 0);
        bfs_distances_masked(&g, 0, usable, &mut dist, &mut queue);
        assert_eq!(dist, vec![0, 5, 4, 3, 2, 1]);
        bfs_distances_masked(&g, 0, |_, _, _| true, &mut dist, &mut queue);
        assert_eq!(dist, bfs_distances(&g, 0));
        bfs_distances_masked(&g, 3, |_, u, _| u != 3, &mut dist, &mut queue);
        assert_eq!(dist[3], 0);
        assert!(dist
            .iter()
            .enumerate()
            .all(|(v, &d)| v == 3 || d == UNREACHABLE));
    }

    #[test]
    fn diameters_of_known_graphs() {
        assert_eq!(diameter(&Graph::complete(10)), Some(1));
        assert_eq!(diameter(&Graph::cycle(6)), Some(3));
        assert_eq!(diameter(&Graph::cycle(7)), Some(3));
        assert_eq!(diameter(&Graph::path(9)), Some(8));
        // Petersen graph: diameter 2 (Moore graph for d=3, D=2).
        let petersen = petersen();
        assert_eq!(diameter(&petersen), Some(2));
    }

    fn petersen() -> Graph {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push((i, (i + 1) % 5)); // outer cycle
            edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
            edges.push((i, 5 + i)); // spokes
        }
        Graph::from_edges(10, &edges)
    }

    #[test]
    fn disconnected_handling() {
        let g = Graph::complete(3).disjoint_union(&Graph::complete(3));
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
        assert_eq!(reachable_diameter(&g), Some(1));
        let (labels, count) = components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(largest_component_size(&g), 3);
        // APL over reachable pairs only.
        assert_eq!(avg_path_length(&g), Some(1.0));
    }

    #[test]
    fn apl_of_cycle() {
        // C_4: each vertex sees distances 1,1,2 → APL = 4/3.
        let g = Graph::cycle(4);
        let apl = avg_path_length(&g).unwrap();
        assert!((apl - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_sums_to_pairs() {
        let g = Graph::cycle(8);
        let h = distance_histogram(&g);
        let pairs: u64 = h.iter().sum();
        assert_eq!(pairs, (8 * 7 / 2) as u64);
        assert_eq!(h[1], 8); // the 8 edges
        assert_eq!(h.len() - 1, 4); // diameter 4
    }

    #[test]
    fn eccentricity_and_pair_distance() {
        let g = Graph::path(4);
        assert_eq!(eccentricity(&g, 0), Some(3));
        assert_eq!(eccentricity(&g, 1), Some(2));
        assert_eq!(pair_distance(&g, 0, 3), Some(3));
        let h = Graph::empty(2);
        assert_eq!(pair_distance(&h, 0, 1), None);
        assert_eq!(eccentricity(&h, 0), None);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::empty(0);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), None);
        assert_eq!(avg_path_length(&g), None);
    }
}
