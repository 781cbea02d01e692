//! The SCADA master's application state: one map from scenario tag to
//! that scenario's live state, kept in tag order, which is the order
//! [`ScadaState::digest`] and [`ScadaState::snapshot`] serialize in. A
//! regional master holds the same state with more tags.

use std::collections::BTreeMap;

use itcrypto::sha256::{Digest, Sha256};
use simnet::wire::{DecodeError, Reader, Wire, Writer};

use crate::updates::ScadaUpdate;

/// Per-scenario live state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScenarioState {
    /// Last reported breaker positions.
    pub positions: Vec<bool>,
    /// Last reported currents.
    pub currents: Vec<u16>,
    /// Highest poll sequence applied (stale polls are ignored).
    pub last_poll_seq: u64,
    /// Desired breaker states from ordered HMI commands (what the master
    /// is currently trying to make true in the field).
    pub desired: BTreeMap<u16, bool>,
}

impl Wire for ScenarioState {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.positions.len() as u32);
        for &p in &self.positions {
            w.put_bool(p);
        }
        w.put_u32(self.currents.len() as u32);
        for &c in &self.currents {
            w.put_u16(c);
        }
        w.put_u64(self.last_poll_seq);
        w.put_u32(self.desired.len() as u32);
        for (&b, &v) in &self.desired {
            w.put_u16(b);
            w.put_bool(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let np = r.get_u32()? as usize;
        if np > 4096 {
            return Err(DecodeError::new("positions length"));
        }
        let positions = (0..np).map(|_| r.get_bool()).collect::<Result<_, _>>()?;
        let nc = r.get_u32()? as usize;
        if nc > 4096 {
            return Err(DecodeError::new("currents length"));
        }
        let currents = (0..nc).map(|_| r.get_u16()).collect::<Result<_, _>>()?;
        let last_poll_seq = r.get_u64()?;
        let nd = r.get_u32()? as usize;
        if nd > 4096 {
            return Err(DecodeError::new("desired length"));
        }
        let mut desired = BTreeMap::new();
        for _ in 0..nd {
            let b = r.get_u16()?;
            let v = r.get_bool()?;
            desired.insert(b, v);
        }
        Ok(ScenarioState {
            positions,
            currents,
            last_poll_seq,
            desired,
        })
    }
}

/// A layout name that selects nothing: every state is one tag-ordered
/// map. Kept only because `benchmark/src/adapter.rs` calls
/// [`ScadaState::partitioned`]; goes at the re-base.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Partitioning {
    /// The one value.
    BySubstation,
}

/// The full master state: every scenario's live state, in tag order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScadaState {
    scenarios: BTreeMap<String, ScenarioState>,
    /// Updates executed (part of the digest so replicas at different
    /// execution points never compare equal).
    pub executed: u64,
}

impl ScadaState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty state. Kept only because `benchmark/src/adapter.rs`
    /// calls it; goes at the re-base.
    pub fn partitioned(_: Partitioning) -> Self {
        Self::new()
    }

    fn entry(&mut self, tag: &str) -> &mut ScenarioState {
        self.scenarios.entry(tag.to_string()).or_default()
    }

    /// Applies one ordered update and returns the tags whose polled view
    /// (positions, currents) it changed, in the update's device order:
    /// the master refreshes the HMI for exactly these. An HMI command
    /// changes only what is desired and a rebaseline resets a scenario
    /// from the field; neither is a poll, so neither returns a tag.
    pub fn apply<'u>(&mut self, update: &'u ScadaUpdate) -> Vec<&'u str> {
        self.executed += 1;
        match update {
            ScadaUpdate::RtuStatus {
                scenario,
                poll_seq,
                positions,
                currents,
            } => {
                if self.poll(scenario, *poll_seq, positions, currents) {
                    vec![scenario.as_str()]
                } else {
                    Vec::new()
                }
            }
            ScadaUpdate::SubstationReport { devices, .. } => devices
                .iter()
                .filter(|d| self.poll(&d.scenario, d.poll_seq, &d.positions, &d.currents))
                .map(|d| d.scenario.as_str())
                .collect(),
            ScadaUpdate::HmiCommand {
                scenario,
                breaker,
                close,
            } => {
                self.entry(scenario).desired.insert(*breaker, *close);
                Vec::new()
            }
            ScadaUpdate::FieldRebaseline {
                scenario,
                positions,
            } => {
                let s = self.entry(scenario);
                s.positions = positions.clone();
                s.currents = vec![0; positions.len()];
                s.desired.clear();
                Vec::new()
            }
        }
    }

    /// Applies one device's poll and returns whether it changed the
    /// device's view. A poll no newer than the last one applied is stale
    /// and ignored.
    fn poll(&mut self, tag: &str, seq: u64, positions: &[bool], currents: &[u16]) -> bool {
        let s = self.entry(tag);
        if seq <= s.last_poll_seq {
            return false;
        }
        s.last_poll_seq = seq;
        if s.positions == positions && s.currents == currents {
            return false;
        }
        s.positions = positions.to_vec();
        s.currents = currents.to_vec();
        true
    }

    /// Live state for a scenario.
    pub fn scenario(&self, tag: &str) -> Option<&ScenarioState> {
        self.scenarios.get(tag)
    }

    /// All scenario tags with state, in tag order.
    pub fn scenario_tags(&self) -> impl Iterator<Item = &str> {
        self.scenarios.keys().map(String::as_str)
    }

    /// Structural digest over the whole state, in tag order.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(&self.executed.to_be_bytes());
        for (tag, s) in &self.scenarios {
            h.update(tag.as_bytes());
            h.update(&s.to_wire());
        }
        h.finalize()
    }

    /// Serializes the full state (application-level state transfer), in
    /// tag order.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.executed);
        w.put_u32(self.scenarios.len() as u32);
        for (tag, s) in &self.scenarios {
            w.put_bytes(tag.as_bytes());
            s.encode(&mut w);
        }
        w.into_vec()
    }

    /// Restores a state from a snapshot; empty or invalid input yields an
    /// empty state.
    pub fn restore(snapshot: &[u8]) -> Self {
        Self::decode_snapshot(snapshot).unwrap_or_default()
    }

    fn decode_snapshot(snapshot: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(snapshot);
        let executed = r.get_u64()?;
        let n = r.get_u32()?;
        let mut scenarios = BTreeMap::new();
        for _ in 0..n {
            let tag =
                String::from_utf8(r.get_bytes()?).map_err(|_| DecodeError::new("scenario tag"))?;
            scenarios.insert(tag, ScenarioState::decode(&mut r)?);
        }
        Ok(ScadaState {
            scenarios,
            executed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updates::DeviceReport;

    fn status(tag: &str, seq: u64, pos: Vec<bool>) -> ScadaUpdate {
        let currents = pos.iter().map(|&p| if p { 100 } else { 0 }).collect();
        ScadaUpdate::RtuStatus {
            scenario: tag.into(),
            poll_seq: seq,
            positions: pos,
            currents,
        }
    }

    #[test]
    fn rtu_status_applies_and_stale_ignored() {
        let mut st = ScadaState::new();
        let first = status("jhu", 2, vec![true, false]);
        assert_eq!(st.apply(&first), vec!["jhu"]);
        assert!(
            st.apply(&status("jhu", 1, vec![false, false])).is_empty(),
            "stale poll ignored"
        );
        let s = st.scenario("jhu").expect("scenario");
        assert_eq!(s.positions, vec![true, false]);
        assert_eq!(s.last_poll_seq, 2);
        assert_eq!(st.executed, 2);
    }

    #[test]
    fn hmi_command_records_desired() {
        let mut st = ScadaState::new();
        let command = ScadaUpdate::HmiCommand {
            scenario: "plant".into(),
            breaker: 1,
            close: false,
        };
        assert!(st.apply(&command).is_empty(), "a command is not a poll");
        assert_eq!(
            st.scenario("plant").expect("scenario").desired.get(&1),
            Some(&false)
        );
    }

    #[test]
    fn rebaseline_resets_scenario() {
        let mut st = ScadaState::new();
        st.apply(&status("jhu", 5, vec![true, true]));
        st.apply(&ScadaUpdate::HmiCommand {
            scenario: "jhu".into(),
            breaker: 0,
            close: false,
        });
        st.apply(&ScadaUpdate::FieldRebaseline {
            scenario: "jhu".into(),
            positions: vec![false, true],
        });
        let s = st.scenario("jhu").expect("scenario");
        assert_eq!(s.positions, vec![false, true]);
        assert!(s.desired.is_empty());
    }

    #[test]
    fn digest_distinguishes_states() {
        let mut a = ScadaState::new();
        let mut b = ScadaState::new();
        a.apply(&status("jhu", 1, vec![true]));
        b.apply(&status("jhu", 1, vec![false]));
        assert_ne!(a.digest(), b.digest());
        let mut c = ScadaState::new();
        c.apply(&status("jhu", 1, vec![true]));
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut st = ScadaState::new();
        st.apply(&status("jhu", 3, vec![true, false, true]));
        st.apply(&status("gen0", 1, vec![true, true, true]));
        st.apply(&ScadaUpdate::HmiCommand {
            scenario: "jhu".into(),
            breaker: 2,
            close: false,
        });
        let restored = ScadaState::restore(&st.snapshot());
        assert_eq!(restored, st);
        assert_eq!(restored.digest(), st.digest());
    }

    #[test]
    fn restore_from_garbage_is_empty() {
        let st = ScadaState::restore(&[1, 2, 3]);
        assert_eq!(st.executed, 0);
        assert_eq!(st.scenario_tags().count(), 0);
        let st2 = ScadaState::restore(&[]);
        assert_eq!(st2, ScadaState::new());
    }

    #[test]
    fn substation_report_applies_per_device_latest_value() {
        let mut st = ScadaState::new();
        let report = ScadaUpdate::SubstationReport {
            station: 4,
            devices: vec![
                DeviceReport {
                    scenario: "s4d0".into(),
                    poll_seq: 2,
                    positions: vec![true, false],
                    currents: vec![100, 0],
                },
                DeviceReport {
                    scenario: "s4d1".into(),
                    poll_seq: 1,
                    positions: vec![false, false],
                    currents: vec![0, 0],
                },
            ],
        };
        assert_eq!(st.apply(&report), vec!["s4d0", "s4d1"]);
        assert_eq!(st.executed, 1, "one ordered update for the whole bank");
        // A later report with one stale device: only the fresh one lands.
        let report2 = ScadaUpdate::SubstationReport {
            station: 4,
            devices: vec![
                DeviceReport {
                    scenario: "s4d0".into(),
                    poll_seq: 1, // stale
                    positions: vec![false, false],
                    currents: vec![0, 0],
                },
                DeviceReport {
                    scenario: "s4d1".into(),
                    poll_seq: 3,
                    positions: vec![true, true],
                    currents: vec![100, 100],
                },
            ],
        };
        assert_eq!(st.apply(&report2), vec!["s4d1"]);
        assert_eq!(
            st.scenario("s4d0").expect("d0").positions,
            vec![true, false],
            "stale device report ignored"
        );
        assert_eq!(st.scenario("s4d1").expect("d1").last_poll_seq, 3);
    }
}
