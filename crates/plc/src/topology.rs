//! Electrical topology models and the energization solver.
//!
//! A topology is a graph of sources, buses, and loads whose edges are
//! guarded by breakers. A load is energized iff some path of *closed*
//! breakers connects it to a source. This is the physical ground truth the
//! SCADA masters can always re-poll (§III-A) — the property that lets
//! Spire recover from temporary assumption breaches.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// A vertex in the electrical graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum BusNode {
    /// A power source (the grid tie, or a generator).
    Source(u16),
    /// An internal bus.
    Bus(u16),
    /// A load (a building, substation, or remote site).
    Load(u16),
}

/// One breaker-guarded edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerEdge {
    /// Breaker index (coil/discrete-input address on the owning PLC).
    pub breaker: u16,
    /// Human name as shown on the HMI (e.g. `B10-1`).
    pub name: String,
    /// One endpoint.
    pub a: BusNode,
    /// Other endpoint.
    pub b: BusNode,
}

/// An electrical topology with named loads.
///
/// Nodes are interned to dense indices as the topology is built, so the
/// energization solver walks vectors: a PLC asks it for every breaker's
/// current whenever a breaker moves.
#[derive(Clone, Debug, Default)]
pub struct PowerTopology {
    edges: Vec<BreakerEdge>,
    /// Named loads by id: the name and the load node's dense index.
    loads: BTreeMap<u16, (String, usize)>,
    /// Dense indices of the sources, `Source(0)` first.
    sources: Vec<usize>,
    /// Every node an edge, source or load names; a node's position here is
    /// its dense index.
    nodes: Vec<BusNode>,
    /// Per node, its `(neighbour, guarding breaker)` pairs.
    adjacency: Vec<Vec<(usize, u16)>>,
    /// Scratch of the solver, kept between queries.
    search: RefCell<Search>,
}

/// The solver's reusable buffers.
#[derive(Clone, Debug, Default)]
struct Search {
    visited: Vec<bool>,
    frontier: Vec<usize>,
}

impl PowerTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source and returns its node.
    pub fn add_source(&mut self) -> BusNode {
        let source = BusNode::Source(self.sources.len() as u16);
        let at = self.index_of(source);
        self.sources.push(at);
        source
    }

    /// Registers a named load and returns its node.
    pub fn add_load(&mut self, id: u16, name: impl Into<String>) -> BusNode {
        let at = self.index_of(BusNode::Load(id));
        self.loads.insert(id, (name.into(), at));
        BusNode::Load(id)
    }

    /// Adds a breaker-guarded edge.
    pub fn add_breaker(&mut self, breaker: u16, name: impl Into<String>, a: BusNode, b: BusNode) {
        let (ia, ib) = (self.index_of(a), self.index_of(b));
        self.adjacency[ia].push((ib, breaker));
        self.adjacency[ib].push((ia, breaker));
        self.edges.push(BreakerEdge {
            breaker,
            name: name.into(),
            a,
            b,
        });
    }

    /// The dense index of `node`, interning it on first sight.
    fn index_of(&mut self, node: BusNode) -> usize {
        if let Some(i) = self.nodes.iter().position(|&n| n == node) {
            return i;
        }
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        self.nodes.len() - 1
    }

    /// All breaker edges.
    pub fn breakers(&self) -> &[BreakerEdge] {
        &self.edges
    }

    /// Number of breakers.
    pub fn breaker_count(&self) -> usize {
        self.edges.len()
    }

    /// The breaker index for a named breaker, if present.
    pub fn breaker_by_name(&self, name: &str) -> Option<u16> {
        self.edges
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.breaker)
    }

    /// Breaker name for an index.
    pub fn breaker_name(&self, breaker: u16) -> Option<&str> {
        self.edges
            .iter()
            .find(|e| e.breaker == breaker)
            .map(|e| e.name.as_str())
    }

    /// Named loads as `(id, name)` pairs.
    pub fn loads(&self) -> impl Iterator<Item = (u16, &str)> {
        self.loads.iter().map(|(id, (n, _))| (*id, n.as_str()))
    }

    /// Marks every node some path of closed breakers connects to a source
    /// and hands the marks, by dense index, to `read`. `closed[i]` =
    /// breaker `i` closed; breakers beyond `closed.len()`, and `held_open`,
    /// count as open.
    fn with_energized<R>(
        &self,
        closed: &[bool],
        held_open: Option<u16>,
        read: impl FnOnce(&[bool]) -> R,
    ) -> R {
        let mut search = self.search.borrow_mut();
        let Search { visited, frontier } = &mut *search;
        visited.clear();
        visited.resize(self.nodes.len(), false);
        frontier.clear();
        for &source in &self.sources {
            visited[source] = true;
            frontier.push(source);
        }
        while let Some(n) = frontier.pop() {
            for &(m, breaker) in &self.adjacency[n] {
                let conducts = Some(breaker) != held_open
                    && closed.get(breaker as usize).copied().unwrap_or(false);
                if conducts && !visited[m] {
                    visited[m] = true;
                    frontier.push(m);
                }
            }
        }
        read(visited)
    }

    /// Count of energized loads with `held_open` treated as open.
    fn energized_count_without(&self, closed: &[bool], held_open: Option<u16>) -> usize {
        self.with_energized(closed, held_open, |energized| {
            self.loads.values().filter(|(_, at)| energized[*at]).count()
        })
    }

    /// Computes which loads are energized given `closed[i]` = breaker `i`
    /// closed. Breakers beyond `closed.len()` are treated as open.
    pub fn energized_loads(&self, closed: &[bool]) -> BTreeMap<u16, bool> {
        self.with_energized(closed, None, |energized| {
            let state = |(&id, &(_, at)): (&u16, &(String, usize))| (id, energized[at]);
            self.loads.iter().map(state).collect()
        })
    }

    /// Count of energized loads.
    pub fn energized_count(&self, closed: &[bool]) -> usize {
        self.energized_count_without(closed, None)
    }

    /// A nominal current (amps) per closed source-side breaker: proportional
    /// to the number of loads it currently feeds. Simple but state-dependent,
    /// so MANA and the HMI have live analog values to display.
    pub fn breaker_current(&self, breaker: u16, closed: &[bool]) -> u16 {
        if !closed.get(breaker as usize).copied().unwrap_or(false) {
            return 0;
        }
        // Current through a breaker ~ loads energized with it closed minus
        // loads energized with it open, times a nominal 100 A.
        let with = self.energized_count(closed);
        let without = self.energized_count_without(closed, Some(breaker));
        ((with - without) as u16) * 100
    }
}

impl fmt::Display for PowerTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "topology: {} breakers, {} loads",
            self.edges.len(),
            self.loads.len()
        )?;
        for e in &self.edges {
            writeln!(f, "  {} [{}]: {:?} -- {:?}", e.name, e.breaker, e.a, e.b)?;
        }
        Ok(())
    }
}

/// The scenarios deployed in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// Figure 4: the red-team topology — seven breakers, four buildings,
    /// controlled by the one physical PLC.
    RedTeamDistribution,
    /// §V: the plant subset — the three left-hand breakers of Figure 4
    /// (B10-1, B57, B56) wired to real breakers.
    PlantSubset,
    /// The ten emulated PLCs "modeling power distribution to several
    /// substations and remote sites" (§IV-A), indexed 0..10.
    EmulatedDistribution(u8),
    /// The six emulated PLCs of the power-generation scenario created with
    /// the plant engineers (§V), indexed 0..6.
    EmulatedGeneration(u8),
    /// One field device in a regional-grid substation (the E14
    /// scale-out): device `device` of substation `station`, polled by
    /// that substation's proxy and reported inside its batched
    /// substation report.
    SubstationDevice {
        /// Substation index.
        station: u16,
        /// Device index within the substation's PLC/RTU bank.
        device: u16,
    },
}

impl Scenario {
    /// Builds the topology for this scenario.
    pub fn topology(self) -> PowerTopology {
        match self {
            Scenario::RedTeamDistribution => fig4_topology(),
            Scenario::PlantSubset => plant_subset_topology(),
            Scenario::EmulatedDistribution(i) => substation_topology(i),
            Scenario::EmulatedGeneration(i) => generation_topology(i),
            Scenario::SubstationDevice { station, device } => {
                substation_topology((station.wrapping_mul(31).wrapping_add(device) % 256) as u8)
            }
        }
    }

    /// A short identifier used in HMI labels and SCADA state keys.
    pub fn tag(self) -> String {
        match self {
            Scenario::RedTeamDistribution => "jhu".to_string(),
            Scenario::PlantSubset => "plant".to_string(),
            Scenario::EmulatedDistribution(i) => format!("dist{i}"),
            Scenario::EmulatedGeneration(i) => format!("gen{i}"),
            Scenario::SubstationDevice { station, device } => format!("s{station}d{device}"),
        }
    }

    /// The substation of a `s{station}d{device}` tag, the form
    /// [`Scenario::tag`] writes for a [`Scenario::SubstationDevice`];
    /// `None` for any other tag.
    pub fn station_of_tag(tag: &str) -> Option<u16> {
        let (station, device) = tag.strip_prefix('s')?.split_once('d')?;
        device.parse::<u16>().ok()?;
        station.parse().ok()
    }
}

/// The Figure 4 topology: grid source feeds a main bus through `B10-1`;
/// `B57` and `B56` split it onto two feeder buses; four building breakers
/// (`B3`, `B4`, `B8`, `B9`) hang off the feeders.
pub fn fig4_topology() -> PowerTopology {
    let mut t = PowerTopology::new();
    let grid = t.add_source();
    let main = BusNode::Bus(0);
    let feeder_a = BusNode::Bus(1);
    let feeder_b = BusNode::Bus(2);
    let b1 = t.add_load(0, "Building 1");
    let b2 = t.add_load(1, "Building 2");
    let b3 = t.add_load(2, "Building 3");
    let b4 = t.add_load(3, "Building 4");
    t.add_breaker(0, "B10-1", grid, main);
    t.add_breaker(1, "B57", main, feeder_a);
    t.add_breaker(2, "B56", main, feeder_b);
    t.add_breaker(3, "B3", feeder_a, b1);
    t.add_breaker(4, "B4", feeder_a, b2);
    t.add_breaker(5, "B8", feeder_b, b3);
    t.add_breaker(6, "B9", feeder_b, b4);
    t
}

/// §V plant subset: the three left-hand breakers of Figure 4 in series
/// from the grid tie to one feeder (B10-1 → B57, with B56 as the parallel
/// tie the engineers included).
pub fn plant_subset_topology() -> PowerTopology {
    let mut t = PowerTopology::new();
    let grid = t.add_source();
    let main = BusNode::Bus(0);
    let feeder = t.add_load(0, "Plant feeder");
    let tie = t.add_load(1, "Tie feeder");
    t.add_breaker(0, "B10-1", grid, main);
    t.add_breaker(1, "B57", main, feeder);
    t.add_breaker(2, "B56", main, tie);
    t
}

/// One of the ten emulated distribution PLCs: a substation with a grid
/// tie, two feeder breakers, and three remote-site loads.
pub fn substation_topology(index: u8) -> PowerTopology {
    let mut t = PowerTopology::new();
    let grid = t.add_source();
    let station = BusNode::Bus(0);
    let feeder = BusNode::Bus(1);
    let l0 = t.add_load(0, format!("Substation {index} site A"));
    let l1 = t.add_load(1, format!("Substation {index} site B"));
    let l2 = t.add_load(2, format!("Substation {index} remote"));
    t.add_breaker(0, format!("S{index}-MAIN"), grid, station);
    t.add_breaker(1, format!("S{index}-F1"), station, feeder);
    t.add_breaker(2, format!("S{index}-L1"), feeder, l0);
    t.add_breaker(3, format!("S{index}-L2"), feeder, l1);
    t.add_breaker(4, format!("S{index}-R1"), station, l2);
    t
}

/// One of the six emulated generation PLCs: a generator, its step-up bus,
/// and the tie to the transmission load.
pub fn generation_topology(index: u8) -> PowerTopology {
    let mut t = PowerTopology::new();
    let gen = t.add_source();
    let stepup = BusNode::Bus(0);
    let grid_tie = t.add_load(0, format!("Unit {index} grid tie"));
    let aux = t.add_load(1, format!("Unit {index} auxiliaries"));
    t.add_breaker(0, format!("G{index}-GCB"), gen, stepup);
    t.add_breaker(1, format!("G{index}-TIE"), stepup, grid_tie);
    t.add_breaker(2, format!("G{index}-AUX"), stepup, aux);
    t
}

/// The solver as it was before nodes were interned: a breadth-first
/// search over maps built per query. Kept as what the dense one is held to.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::VecDeque;

    pub(super) fn energized_loads(t: &PowerTopology, closed: &[bool]) -> BTreeMap<u16, bool> {
        let mut adj: BTreeMap<BusNode, Vec<BusNode>> = BTreeMap::new();
        for e in &t.edges {
            if closed.get(e.breaker as usize).copied().unwrap_or(false) {
                adj.entry(e.a).or_default().push(e.b);
                adj.entry(e.b).or_default().push(e.a);
            }
        }
        let mut reached: BTreeMap<BusNode, bool> = BTreeMap::new();
        let mut queue: VecDeque<BusNode> =
            (0..t.sources.len() as u16).map(BusNode::Source).collect();
        for s in &queue {
            reached.insert(*s, true);
        }
        while let Some(n) = queue.pop_front() {
            if let Some(neigh) = adj.get(&n) {
                for &m in neigh {
                    if reached.insert(m, true).is_none() {
                        queue.push_back(m);
                    }
                }
            }
        }
        t.loads
            .keys()
            .map(|&id| (id, reached.contains_key(&BusNode::Load(id))))
            .collect()
    }

    pub(super) fn breaker_current(t: &PowerTopology, breaker: u16, closed: &[bool]) -> u16 {
        if !closed.get(breaker as usize).copied().unwrap_or(false) {
            return 0;
        }
        let count = |closed: &[bool]| energized_loads(t, closed).values().filter(|&&v| v).count();
        let with = count(closed);
        let mut open_variant = closed.to_vec();
        if (breaker as usize) < open_variant.len() {
            open_variant[breaker as usize] = false;
        }
        let without = count(&open_variant);
        ((with - without) as u16) * 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Node `code` of a graph with `ids` source, bus and load ids: the
    /// fewer the ids, the denser the graph. Only the added sources feed
    /// power and only the named loads report.
    fn node(code: u16, ids: (u16, u16, u16)) -> BusNode {
        match code % 4 {
            0 => BusNode::Source(code / 4 % ids.0),
            1 | 2 => BusNode::Bus(code / 4 % ids.1),
            _ => BusNode::Load(code / 4 % ids.2),
        }
    }

    proptest! {
        #[test]
        fn dense_solver_equals_the_map_based_one(
            sources in 0usize..5,
            late_sources in 0usize..5,
            ids in (1u16..6, 1u16..8, 1u16..36),
            loads in proptest::collection::vec(0u16..36, 0..33),
            edges in proptest::collection::vec((0u16..48, any::<u16>(), any::<u16>()), 0..49),
            open in proptest::collection::vec(0u8..4, 16..53),
        ) {
            // Three breakers in four are closed; `closed` may be shorter
            // than the breaker count.
            let closed: Vec<bool> = open.iter().map(|&o| o != 0).collect();
            // Sources and loads are added on both sides of the edges that
            // name them: a node is interned wherever it is first seen.
            let mut t = PowerTopology::new();
            let late_sources = late_sources.min(sources);
            for _ in late_sources..sources {
                t.add_source();
            }
            let loads: Vec<u16> = loads.iter().map(|id| id % ids.2).collect();
            let (early_loads, late_loads) = loads.split_at(loads.len() / 2);
            for &id in early_loads {
                t.add_load(id, format!("L{id}"));
            }
            for (i, &(breaker, a, b)) in edges.iter().enumerate() {
                t.add_breaker(breaker, format!("E{i}"), node(a, ids), node(b, ids));
            }
            for &id in late_loads {
                t.add_load(id, format!("L{id}"));
            }
            for _ in 0..late_sources {
                t.add_source();
            }
            prop_assert_eq!(t.energized_loads(&closed), oracle::energized_loads(&t, &closed));
            prop_assert_eq!(
                t.energized_count(&closed),
                oracle::energized_loads(&t, &closed).values().filter(|&&v| v).count()
            );
            for breaker in 0..50 {
                prop_assert_eq!(
                    t.breaker_current(breaker, &closed),
                    oracle::breaker_current(&t, breaker, &closed),
                    "breaker {}", breaker
                );
            }
            // A clone carries the index with it.
            prop_assert_eq!(t.clone().energized_loads(&closed), t.energized_loads(&closed));
        }
    }

    #[test]
    fn fig4_has_seven_breakers_four_buildings() {
        let t = fig4_topology();
        assert_eq!(t.breaker_count(), 7);
        assert_eq!(t.loads().count(), 4);
        assert_eq!(t.breaker_by_name("B10-1"), Some(0));
        assert_eq!(t.breaker_by_name("B57"), Some(1));
        assert_eq!(t.breaker_by_name("B56"), Some(2));
        assert_eq!(t.breaker_name(6), Some("B9"));
        assert_eq!(t.breaker_by_name("NOPE"), None);
    }

    #[test]
    fn all_closed_energizes_all_buildings() {
        let t = fig4_topology();
        let closed = vec![true; 7];
        assert_eq!(t.energized_count(&closed), 4);
    }

    #[test]
    fn opening_main_kills_everything() {
        let t = fig4_topology();
        let mut closed = vec![true; 7];
        closed[0] = false; // B10-1
        assert_eq!(t.energized_count(&closed), 0);
    }

    #[test]
    fn opening_feeder_kills_its_side_only() {
        let t = fig4_topology();
        let mut closed = vec![true; 7];
        closed[1] = false; // B57: feeder A → buildings 1,2 dark
        let energized = t.energized_loads(&closed);
        assert!(!energized[&0]);
        assert!(!energized[&1]);
        assert!(energized[&2]);
        assert!(energized[&3]);
    }

    #[test]
    fn building_breaker_affects_single_load() {
        let t = fig4_topology();
        let mut closed = vec![true; 7];
        closed[3] = false; // B3
        let energized = t.energized_loads(&closed);
        assert!(!energized[&0]);
        assert_eq!(energized.values().filter(|&&v| v).count(), 3);
    }

    #[test]
    fn all_open_nothing_energized() {
        let t = fig4_topology();
        assert_eq!(t.energized_count(&[false; 7]), 0);
        // Short state vectors are treated as open.
        assert_eq!(t.energized_count(&[]), 0);
    }

    #[test]
    fn breaker_current_proportional_to_served_loads() {
        let t = fig4_topology();
        let closed = vec![true; 7];
        // Main breaker carries all four buildings.
        assert_eq!(t.breaker_current(0, &closed), 400);
        // Each feeder carries two.
        assert_eq!(t.breaker_current(1, &closed), 200);
        // A building breaker carries one.
        assert_eq!(t.breaker_current(3, &closed), 100);
        // Open breaker carries nothing.
        let mut open_main = closed.clone();
        open_main[0] = false;
        assert_eq!(t.breaker_current(0, &open_main), 0);
        // And downstream of an open main, feeders carry nothing.
        assert_eq!(t.breaker_current(1, &open_main), 0);
    }

    #[test]
    fn plant_subset_three_breakers() {
        let t = plant_subset_topology();
        assert_eq!(t.breaker_count(), 3);
        let all = vec![true; 3];
        assert_eq!(t.energized_count(&all), 2);
        let mut b57_open = all.clone();
        b57_open[1] = false;
        let e = t.energized_loads(&b57_open);
        assert!(!e[&0]);
        assert!(e[&1]);
    }

    #[test]
    fn scenario_builders() {
        assert_eq!(Scenario::RedTeamDistribution.topology().breaker_count(), 7);
        assert_eq!(Scenario::PlantSubset.topology().breaker_count(), 3);
        assert_eq!(
            Scenario::EmulatedDistribution(3).topology().breaker_count(),
            5
        );
        assert_eq!(
            Scenario::EmulatedGeneration(5).topology().breaker_count(),
            3
        );
        assert_eq!(Scenario::RedTeamDistribution.tag(), "jhu");
        assert_eq!(Scenario::EmulatedDistribution(7).tag(), "dist7");
        assert_eq!(Scenario::EmulatedGeneration(2).tag(), "gen2");
        assert_eq!(Scenario::PlantSubset.tag(), "plant");
    }

    #[test]
    fn substation_remote_fed_from_station_bus() {
        let t = substation_topology(0);
        // Closing MAIN + R1 but not F1 energizes only the remote.
        let closed = vec![true, false, false, false, true];
        let e = t.energized_loads(&closed);
        assert!(!e[&0]);
        assert!(!e[&1]);
        assert!(e[&2]);
    }

    #[test]
    fn display_renders() {
        let s = fig4_topology().to_string();
        assert!(s.contains("7 breakers"));
        assert!(s.contains("B10-1"));
    }

    #[test]
    fn station_of_tag_reads_substation_device_tags_only() {
        let device = Scenario::SubstationDevice {
            station: 17,
            device: 3,
        };
        assert_eq!(Scenario::station_of_tag(&device.tag()), Some(17));
        assert_eq!(Scenario::station_of_tag("s0d0"), Some(0));
        for tag in ["plant", "jhu", "dist3", "gen0", "sXd1", "s1dX", "s1", "s1d"] {
            assert_eq!(Scenario::station_of_tag(tag), None, "{tag}");
        }
    }
}
