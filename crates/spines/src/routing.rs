//! Overlay topology analysis: shortest paths and node-disjoint path
//! counts.
//!
//! Spines' intrusion tolerance degrades with overlay connectivity: a
//! message survives `c-1` compromised intermediate daemons iff the overlay
//! is `c`-connected between source and destination (the dissemination
//! floods over all paths; a relay next to a unicast's destination hands
//! it to the destination alone, which is the last hop of every such
//! path). The deployment overlays in this reproduction are full meshes
//! (maximal connectivity); this module exists so
//! alternative topologies — like the multi-site WAN overlays of the
//! follow-on Spire work — can be analyzed before deployment.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::SpinesConfig;

/// Shortest hop-count from `from` to every reachable daemon (BFS — overlay
/// links are unweighted here).
pub fn hop_counts(cfg: &SpinesConfig, from: u32) -> BTreeMap<u32, u32> {
    let mut dist = BTreeMap::new();
    if !cfg.daemons.contains_key(&from) {
        return dist;
    }
    dist.insert(from, 0);
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        for v in cfg.neighbors(u) {
            if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Node-split graph vertex: each daemon `v` becomes `In(v) → Out(v)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
enum Node {
    In(u32),
    Out(u32),
}

/// Unit-capacity max-flow on the node-split graph: returns the flow value
/// plus the initial and residual capacity maps (for path decomposition).
type FlowResult = (
    u32,
    BTreeMap<(Node, Node), i32>,
    BTreeMap<(Node, Node), i32>,
);

fn node_split_flow(cfg: &SpinesConfig, s: u32, t: u32) -> FlowResult {
    // Node splitting: each daemon v becomes v_in → v_out with capacity 1
    // (except s and t, which are unbounded). Edges are (u_out → v_in).
    // Unit capacities → count augmenting paths with BFS (Edmonds-Karp).
    let mut capacity: BTreeMap<(Node, Node), i32> = BTreeMap::new();
    let mut adj: BTreeMap<Node, BTreeSet<Node>> = BTreeMap::new();
    let add_edge = |a: Node,
                    b: Node,
                    cap: i32,
                    capacity: &mut BTreeMap<(Node, Node), i32>,
                    adj: &mut BTreeMap<Node, BTreeSet<Node>>| {
        *capacity.entry((a, b)).or_insert(0) += cap;
        capacity.entry((b, a)).or_insert(0);
        adj.entry(a).or_default().insert(b);
        adj.entry(b).or_default().insert(a);
    };
    for (&v, _) in cfg.daemons.iter() {
        let cap = if v == s || v == t { i32::MAX / 2 } else { 1 };
        add_edge(Node::In(v), Node::Out(v), cap, &mut capacity, &mut adj);
    }
    for &(a, b) in cfg.edges.iter() {
        add_edge(Node::Out(a), Node::In(b), 1, &mut capacity, &mut adj);
        add_edge(Node::Out(b), Node::In(a), 1, &mut capacity, &mut adj);
    }
    let initial = capacity.clone();
    let source = Node::Out(s);
    let sink = Node::In(t);
    let mut flow = 0u32;
    loop {
        // BFS for an augmenting path.
        let mut parent: BTreeMap<Node, Node> = BTreeMap::new();
        let mut queue = VecDeque::from([source]);
        let mut found = false;
        while let Some(u) = queue.pop_front() {
            if u == sink {
                found = true;
                break;
            }
            if let Some(neigh) = adj.get(&u) {
                for &v in neigh {
                    if v != source
                        && !parent.contains_key(&v)
                        && capacity.get(&(u, v)).copied().unwrap_or(0) > 0
                    {
                        parent.insert(v, u);
                        queue.push_back(v);
                    }
                }
            }
        }
        if !found {
            break;
        }
        // Augment by 1 (unit capacities).
        let mut v = sink;
        while v != source {
            let u = parent[&v];
            *capacity.get_mut(&(u, v)).expect("edge") -= 1;
            *capacity.get_mut(&(v, u)).expect("edge") += 1;
            v = u;
        }
        flow += 1;
    }
    (flow, initial, capacity)
}

/// Number of *internally node-disjoint* paths between `s` and `t`
/// (Menger's theorem via unit-capacity max-flow on the node-split graph).
pub fn disjoint_paths(cfg: &SpinesConfig, s: u32, t: u32) -> u32 {
    if s == t || !cfg.daemons.contains_key(&s) || !cfg.daemons.contains_key(&t) {
        return 0;
    }
    node_split_flow(cfg, s, t).0
}

/// The actual node-disjoint routes behind [`disjoint_paths`]: one daemon
/// sequence (from `s` to `t` inclusive) per unit of max-flow, obtained by
/// flow decomposition. The routes share no intermediate daemon, and every
/// consecutive pair is an edge of `cfg` — WAN route selection for a
/// multi-site overlay picks redundant disjoint routes from this set.
pub fn disjoint_routes(cfg: &SpinesConfig, s: u32, t: u32) -> Vec<Vec<u32>> {
    if s == t || !cfg.daemons.contains_key(&s) || !cfg.daemons.contains_key(&t) {
        return Vec::new();
    }
    let (flow, initial, residual) = node_split_flow(cfg, s, t);
    // Net forward flow per directed edge. Netting both directions drops
    // any cancelled push-back introduced by augmentation.
    let mut net: BTreeMap<(Node, Node), i32> = BTreeMap::new();
    for (&(u, v), &init) in initial.iter() {
        if init <= 0 {
            continue;
        }
        let used = init - residual.get(&(u, v)).copied().unwrap_or(0);
        let back_init = initial.get(&(v, u)).copied().unwrap_or(0);
        let back_used = back_init - residual.get(&(v, u)).copied().unwrap_or(0);
        let f = used - back_used.max(0);
        if f > 0 {
            net.insert((u, v), f);
        }
    }
    // Walk each unit of flow from the source; conservation guarantees the
    // walk reaches t, and consuming edges as we go makes it terminate.
    let mut routes = Vec::new();
    for _ in 0..flow {
        let mut path = vec![s];
        let mut cur = Node::Out(s);
        loop {
            let Some((&(u, v), _)) = net
                .range((cur, Node::In(0))..)
                .take_while(|(&(u, _), _)| u == cur)
                .find(|(_, &f)| f > 0)
            else {
                // No remaining flow out of this vertex (should not happen
                // for a conserved flow); abandon the partial walk.
                return routes;
            };
            debug_assert_eq!(u, cur);
            match net.get_mut(&(u, v)) {
                Some(f) if *f > 1 => *f -= 1,
                _ => {
                    net.remove(&(u, v));
                }
            }
            match v {
                Node::In(d) if d == t => {
                    path.push(t);
                    break;
                }
                Node::In(d) => {
                    path.push(d);
                    // Consume the node edge In(d) → Out(d).
                    match net.get_mut(&(Node::In(d), Node::Out(d))) {
                        Some(f) if *f > 1 => *f -= 1,
                        _ => {
                            net.remove(&(Node::In(d), Node::Out(d)));
                        }
                    }
                    cur = Node::Out(d);
                }
                Node::Out(_) => unreachable!("edges go Out → In"),
            }
        }
        routes.push(path);
    }
    routes
}

/// The overlay's resilience: the minimum number of node-disjoint paths
/// over all daemon pairs. A resilience of `c` means any `c-1` compromised
/// or crashed intermediate daemons cannot disconnect correct daemons.
pub fn resilience(cfg: &SpinesConfig) -> u32 {
    let ids: Vec<u32> = cfg.daemons.keys().copied().collect();
    let mut min = u32::MAX;
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            min = min.min(disjoint_paths(cfg, a, b));
        }
    }
    if min == u32::MAX {
        0
    } else {
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpinesMode;
    use simnet::types::{IpAddr, Port};

    fn addrs(n: u32) -> Vec<(u32, IpAddr)> {
        (0..n)
            .map(|i| (i, IpAddr::new(10, 1, 0, (i + 1) as u8)))
            .collect()
    }

    fn with_edges(n: u32, edges: &[(u32, u32)]) -> SpinesConfig {
        SpinesConfig::with_edges(
            addrs(n),
            edges.iter().copied(),
            Port(8100),
            [1; 32],
            SpinesMode::IntrusionTolerant,
        )
    }

    #[test]
    fn hop_counts_on_line() {
        let cfg = with_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = hop_counts(&cfg, 0);
        assert_eq!(d[&0], 0);
        assert_eq!(d[&1], 1);
        assert_eq!(d[&2], 2);
        assert_eq!(d[&3], 3);
    }

    #[test]
    fn hop_counts_unreachable_omitted() {
        let cfg = with_edges(4, &[(0, 1), (2, 3)]);
        let d = hop_counts(&cfg, 0);
        assert!(d.contains_key(&1));
        assert!(!d.contains_key(&2));
    }

    #[test]
    fn full_mesh_has_maximal_disjoint_paths() {
        let cfg =
            SpinesConfig::full_mesh(addrs(6), Port(8100), [1; 32], SpinesMode::IntrusionTolerant);
        // Direct edge + 4 two-hop paths through the other daemons.
        assert_eq!(disjoint_paths(&cfg, 0, 5), 5);
        assert_eq!(resilience(&cfg), 5);
    }

    #[test]
    fn line_topology_has_one_path() {
        let cfg = with_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(disjoint_paths(&cfg, 0, 3), 1);
        assert_eq!(resilience(&cfg), 1);
    }

    #[test]
    fn ring_topology_has_two_paths() {
        let cfg = with_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(disjoint_paths(&cfg, 0, 2), 2);
        assert_eq!(resilience(&cfg), 2);
    }

    #[test]
    fn cut_vertex_limits_resilience() {
        // Two triangles joined at daemon 2: removing it disconnects them.
        let cfg = with_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4)]);
        assert_eq!(disjoint_paths(&cfg, 0, 4), 1, "all paths pass daemon 2");
        assert_eq!(resilience(&cfg), 1);
    }

    #[test]
    fn degenerate_inputs() {
        let cfg = with_edges(3, &[(0, 1)]);
        assert_eq!(disjoint_paths(&cfg, 0, 0), 0);
        assert_eq!(disjoint_paths(&cfg, 0, 9), 0);
        assert_eq!(disjoint_paths(&cfg, 0, 2), 0, "daemon 2 is isolated");
    }

    /// Routes returned by `disjoint_routes` must be valid (every hop an
    /// overlay edge), internally node-disjoint, and as numerous as
    /// `disjoint_paths` says.
    fn assert_routes_valid(cfg: &SpinesConfig, s: u32, t: u32) {
        let routes = disjoint_routes(cfg, s, t);
        assert_eq!(routes.len() as u32, disjoint_paths(cfg, s, t));
        let mut middles = BTreeSet::new();
        for r in &routes {
            assert_eq!(r.first(), Some(&s));
            assert_eq!(r.last(), Some(&t));
            for hop in r.windows(2) {
                let e = if hop[0] <= hop[1] {
                    (hop[0], hop[1])
                } else {
                    (hop[1], hop[0])
                };
                assert!(cfg.edges.contains(&e), "hop {e:?} not an edge");
            }
            for &m in &r[1..r.len() - 1] {
                assert!(middles.insert(m), "routes share intermediate {m}");
            }
        }
    }

    #[test]
    fn disjoint_routes_on_ring() {
        let cfg = with_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_routes_valid(&cfg, 0, 2);
    }

    #[test]
    fn disjoint_routes_on_full_mesh() {
        let cfg =
            SpinesConfig::full_mesh(addrs(6), Port(8100), [1; 32], SpinesMode::IntrusionTolerant);
        assert_routes_valid(&cfg, 0, 5);
        assert_eq!(disjoint_routes(&cfg, 0, 5).len(), 5);
    }

    #[test]
    fn disjoint_routes_through_cut_vertex() {
        let cfg = with_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4)]);
        let routes = disjoint_routes(&cfg, 0, 4);
        assert_eq!(routes.len(), 1);
        assert!(routes[0].contains(&2), "the single route passes the cut");
        assert_routes_valid(&cfg, 0, 4);
    }

    #[test]
    fn disjoint_routes_degenerate_inputs() {
        let cfg = with_edges(3, &[(0, 1)]);
        assert!(disjoint_routes(&cfg, 0, 0).is_empty());
        assert!(disjoint_routes(&cfg, 0, 9).is_empty());
        assert!(disjoint_routes(&cfg, 0, 2).is_empty());
    }

    #[test]
    fn deployment_overlays_are_maximally_resilient() {
        // The internal overlay of the plant config: 6-daemon full mesh.
        let cfg =
            SpinesConfig::full_mesh(addrs(6), Port(8100), [1; 32], SpinesMode::IntrusionTolerant);
        // f = 1 compromised daemon cannot partition correct daemons —
        // with room to spare.
        assert!(resilience(&cfg) > 1);
    }
}
