//! The replicated SCADA master as a [`prime::Application`].

use std::collections::VecDeque;

use itcrypto::sha256::Digest;
use prime::application::Application;
use prime::types::Update;
use simnet::wire::Wire;

use crate::state::ScadaState;
use crate::updates::ScadaUpdate;

/// Side effects the master requests after executing ordered updates. The
/// hosting replica process sends these over the external Spines network;
/// proxies and HMIs act only on `f+1` matching copies from distinct
/// replicas, so a compromised master cannot forge them alone.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MasterAction {
    /// Drive a field breaker through the PLC proxy.
    PlcCommand {
        /// Scenario tag.
        scenario: String,
        /// Breaker index.
        breaker: u16,
        /// Desired state.
        close: bool,
        /// Execution sequence that produced this command (for proxy
        /// deduplication across replicas).
        exec_seq: u64,
    },
    /// Refresh an HMI with current scenario state.
    HmiFrame {
        /// Scenario tag.
        scenario: String,
        /// Breaker positions.
        positions: Vec<bool>,
        /// Currents.
        currents: Vec<u16>,
        /// Execution sequence that produced this frame.
        exec_seq: u64,
    },
}

/// The SCADA master application hosted by each Prime replica.
#[derive(Clone, Debug, Default)]
pub struct ScadaApp {
    state: ScadaState,
    actions: VecDeque<MasterAction>,
}

impl ScadaApp {
    /// An empty master.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the state.
    pub fn state(&self) -> &ScadaState {
        &self.state
    }

    /// Drains pending actions (the replica owner sends them).
    pub fn take_actions(&mut self) -> Vec<MasterAction> {
        std::mem::take(&mut self.actions).into()
    }

    /// Applies a ground-truth rebaseline directly (used by the §III-A
    /// recovery path *before* updates resume flowing; normal operation
    /// orders a [`ScadaUpdate::FieldRebaseline`] instead).
    pub fn force_rebaseline(&mut self, scenario: &str, positions: Vec<bool>) {
        self.state.apply(&ScadaUpdate::FieldRebaseline {
            scenario: scenario.to_string(),
            positions,
        });
    }
}

impl Application for ScadaApp {
    fn execute(&mut self, update: &Update, exec_seq: u64) {
        // A payload that fails to parse (faulty client or corruption) is
        // skipped: it changes no state and sends nothing.
        let Ok(scada_update) = ScadaUpdate::from_wire(&update.payload) else {
            return;
        };
        // One HMI frame per scenario whose polled view changed: one for
        // a plant poll, up to one per device for a substation report.
        for scenario in self.state.apply(&scada_update) {
            let s = self.state.scenario(scenario).expect("just applied");
            self.actions.push_back(MasterAction::HmiFrame {
                scenario: scenario.to_string(),
                positions: s.positions.clone(),
                currents: s.currents.clone(),
                exec_seq,
            });
        }
        if let ScadaUpdate::HmiCommand {
            scenario,
            breaker,
            close,
        } = scada_update
        {
            self.actions.push_back(MasterAction::PlcCommand {
                scenario,
                breaker,
                close,
                exec_seq,
            });
        }
    }

    fn digest(&self) -> Digest {
        self.state.digest()
    }

    fn snapshot(&self) -> Vec<u8> {
        self.state.snapshot()
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.state = ScadaState::restore(snapshot);
        self.actions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn prime_update(seq: u64, u: &ScadaUpdate) -> Update {
        Update::new(1, seq, u.to_wire())
    }

    #[test]
    fn hmi_command_emits_plc_action() {
        let mut app = ScadaApp::new();
        let cmd = ScadaUpdate::HmiCommand {
            scenario: "jhu".into(),
            breaker: 1,
            close: false,
        };
        app.execute(&prime_update(1, &cmd), 1);
        let actions = app.take_actions();
        assert_eq!(
            actions,
            vec![MasterAction::PlcCommand {
                scenario: "jhu".into(),
                breaker: 1,
                close: false,
                exec_seq: 1
            }]
        );
        assert!(app.take_actions().is_empty(), "actions drained");
    }

    #[test]
    fn rtu_status_emits_hmi_frame_on_change_only() {
        let mut app = ScadaApp::new();
        let st = ScadaUpdate::RtuStatus {
            scenario: "plant".into(),
            poll_seq: 1,
            positions: vec![true, true, false],
            currents: vec![100, 100, 0],
        };
        app.execute(&prime_update(1, &st), 1);
        assert_eq!(app.take_actions().len(), 1);
        // Identical positions in a newer poll: no frame.
        let st2 = ScadaUpdate::RtuStatus {
            scenario: "plant".into(),
            poll_seq: 2,
            positions: vec![true, true, false],
            currents: vec![100, 100, 0],
        };
        app.execute(&prime_update(2, &st2), 2);
        assert!(app.take_actions().is_empty());
    }

    #[test]
    fn malformed_payload_is_skipped_not_panicking() {
        let mut app = ScadaApp::new();
        app.execute(&Update::new(1, 1, Bytes::from_static(b"\xde\xad")), 1);
        assert_eq!(app.state().executed, 0);
        assert!(app.take_actions().is_empty());
    }

    #[test]
    fn snapshot_install_roundtrip_matches_digest() {
        let mut a = ScadaApp::new();
        let st = ScadaUpdate::RtuStatus {
            scenario: "jhu".into(),
            poll_seq: 7,
            positions: vec![true; 7],
            currents: vec![100; 7],
        };
        a.execute(&prime_update(1, &st), 1);
        let snap = a.snapshot();
        let mut b = ScadaApp::new();
        b.install_snapshot(&snap);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(
            b.state().scenario("jhu").expect("scenario").positions,
            vec![true; 7]
        );
    }

    #[test]
    fn force_rebaseline_changes_digest() {
        let mut app = ScadaApp::new();
        let before = app.digest();
        app.force_rebaseline("plant", vec![true, false, true]);
        assert_ne!(app.digest(), before);
        assert_eq!(
            app.state().scenario("plant").expect("scenario").positions,
            vec![true, false, true]
        );
    }
}
