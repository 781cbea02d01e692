//! The operator's Human-Machine Interface.
//!
//! Renders the Figure 4 power topology as text, timestamps every applied
//! frame (the §V reaction-time measurement reads these), and exposes the
//! "large box that changed from black to white based on the breaker
//! state" that the plant's sensor watched.

use std::collections::BTreeMap;

use plc::topology::PowerTopology;
use simnet::time::SimTime;

/// A display update received from the masters (via the HMI proxy, which
/// already enforced `f+1` matching copies).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HmiUpdate {
    /// Scenario tag.
    pub scenario: String,
    /// Breaker positions.
    pub positions: Vec<bool>,
    /// Currents.
    pub currents: Vec<u16>,
}

/// One scenario's display state.
#[derive(Clone, Debug, Default)]
struct Pane {
    positions: Vec<bool>,
    currents: Vec<u16>,
}

/// The HMI.
#[derive(Debug, Default)]
pub struct Hmi {
    panes: BTreeMap<String, Pane>,
    /// Every applied display update: `(time, scenario)`.
    pub update_log: Vec<(SimTime, String)>,
    /// The breaker driving the measurement box: `(scenario, index)`.
    pub sensor_breaker: Option<(String, u16)>,
    /// Black/white box transitions: `(time, white)`.
    pub box_transitions: Vec<(SimTime, bool)>,
    box_white: bool,
}

impl Hmi {
    /// Creates an empty HMI.
    pub fn new() -> Self {
        Self::default()
    }

    /// Configures the §V measurement box to track one breaker. If the
    /// scenario already has display state, the box color initializes from
    /// it (so the first flip is measured as a transition, not an
    /// initialization).
    pub fn set_sensor_breaker(&mut self, scenario: impl Into<String>, breaker: u16) {
        let scenario = scenario.into();
        if let Some(pane) = self.panes.get(&scenario) {
            self.box_white = pane
                .positions
                .get(breaker as usize)
                .copied()
                .unwrap_or(false);
        }
        self.sensor_breaker = Some((scenario, breaker));
    }

    /// Applies a display update at `now`. Returns whether anything shown
    /// to the operator changed.
    pub fn apply(&mut self, update: HmiUpdate, now: SimTime) -> bool {
        let pane = self.panes.entry(update.scenario.clone()).or_default();
        let changed = pane.positions != update.positions || pane.currents != update.currents;
        pane.positions = update.positions;
        pane.currents = update.currents;
        self.update_log.push((now, update.scenario.clone()));
        if let Some((tag, idx)) = &self.sensor_breaker {
            if *tag == update.scenario {
                let white = pane.positions.get(*idx as usize).copied().unwrap_or(false);
                if white != self.box_white {
                    self.box_white = white;
                    self.box_transitions.push((now, white));
                }
            }
        }
        changed
    }

    /// Current positions for a scenario pane.
    pub fn positions(&self, scenario: &str) -> Option<&[bool]> {
        self.panes.get(scenario).map(|p| p.positions.as_slice())
    }

    /// Current color of the measurement box (true = white = closed).
    pub fn box_is_white(&self) -> bool {
        self.box_white
    }

    /// Renders a scenario pane against its topology, Figure 4 style:
    /// breakers as `[■]` (closed) / `[ ]` (open), loads as `⚡`/`·`.
    pub fn render(&self, scenario: &str, topology: &PowerTopology) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== HMI: {scenario} ===\n"));
        let Some(pane) = self.panes.get(scenario) else {
            out.push_str("(no data)\n");
            return out;
        };
        for edge in topology.breakers() {
            let closed = pane
                .positions
                .get(edge.breaker as usize)
                .copied()
                .unwrap_or(false);
            let current = pane
                .currents
                .get(edge.breaker as usize)
                .copied()
                .unwrap_or(0);
            let mark = if closed { "[■]" } else { "[ ]" };
            out.push_str(&format!("  {mark} {:<7} {:>4} A\n", edge.name, current));
        }
        let energized = topology.energized_loads(&pane.positions);
        for (id, name) in topology.loads() {
            let lit = energized.get(&id).copied().unwrap_or(false);
            let mark = if lit { "⚡" } else { "·" };
            out.push_str(&format!("  {mark} {name}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc::topology::fig4_topology;

    fn frame(tag: &str, positions: Vec<bool>) -> HmiUpdate {
        let currents = positions.iter().map(|&p| u16::from(p) * 100).collect();
        HmiUpdate {
            scenario: tag.into(),
            positions,
            currents,
        }
    }

    #[test]
    fn apply_tracks_changes_and_log() {
        let mut hmi = Hmi::new();
        assert!(hmi.apply(frame("jhu", vec![true; 7]), SimTime(10)));
        assert!(
            !hmi.apply(frame("jhu", vec![true; 7]), SimTime(20)),
            "no visible change"
        );
        assert!(hmi.apply(frame("jhu", vec![false; 7]), SimTime(30)));
        assert!(hmi.apply(frame("acme", vec![true; 3]), SimTime(40)));
        let jhu = hmi.update_log.iter().filter(|(_, tag)| tag == "jhu");
        assert_eq!(
            jhu.map(|&(t, _)| t).collect::<Vec<_>>(),
            [SimTime(10), SimTime(20), SimTime(30)]
        );
        assert_eq!(hmi.positions("jhu"), Some(vec![false; 7].as_slice()));
    }

    #[test]
    fn sensor_box_transitions_on_tracked_breaker() {
        let mut hmi = Hmi::new();
        hmi.set_sensor_breaker("plant", 1);
        hmi.apply(frame("plant", vec![true, true, true]), SimTime(100));
        assert!(hmi.box_is_white());
        // Flip the tracked breaker open → box goes black.
        hmi.apply(frame("plant", vec![true, false, true]), SimTime(200));
        assert!(!hmi.box_is_white());
        // Untracked scenario does not move the box.
        hmi.apply(frame("jhu", vec![true; 7]), SimTime(300));
        assert_eq!(
            hmi.box_transitions,
            vec![(SimTime(100), true), (SimTime(200), false)]
        );
    }

    #[test]
    fn render_shows_breakers_and_buildings() {
        let mut hmi = Hmi::new();
        let topo = fig4_topology();
        let mut positions = vec![true; 7];
        positions[1] = false; // B57 open → buildings 1,2 dark
        hmi.apply(frame("jhu", positions), SimTime(1));
        let art = hmi.render("jhu", &topo);
        assert!(art.contains("[■] B10-1"));
        assert!(art.contains("[ ] B57"));
        assert!(art.contains("· Building 1"));
        assert!(art.contains("⚡ Building 3"));
    }

    #[test]
    fn render_without_data() {
        let hmi = Hmi::new();
        assert!(hmi.render("nope", &fig4_topology()).contains("(no data)"));
    }
}
