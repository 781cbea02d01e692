//! Overlay connectivity: node-disjoint path counts.
//!
//! Spines' intrusion tolerance degrades with overlay connectivity: a
//! message survives `c-1` compromised intermediate daemons iff the overlay
//! is `c`-connected between source and destination (the dissemination
//! floods over all paths; a relay next to a unicast's destination hands
//! it to the destination alone, which is the last hop of every such
//! path). No daemon routes by these counts; they are the test oracle that
//! the deployed overlays (`spire::config::SpireConfig::internal_spines`
//! and `external_spines`) keep `f + 1` disjoint paths between every pair.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::SpinesConfig;

/// Node-split graph vertex: each daemon `v` becomes `In(v) → Out(v)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
enum Node {
    In(u32),
    Out(u32),
}

/// Number of *internally node-disjoint* paths between `s` and `t`
/// (Menger's theorem via unit-capacity max-flow on the node-split graph).
pub fn disjoint_paths(cfg: &SpinesConfig, s: u32, t: u32) -> u32 {
    if s == t || !cfg.daemons.contains_key(&s) || !cfg.daemons.contains_key(&t) {
        return 0;
    }
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
    flow
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
}
