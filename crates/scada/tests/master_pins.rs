//! Pins what the replicated SCADA master makes of one fixed ordered
//! stream: the state digest, the snapshot bytes and every action it asks
//! its host to send.
//!
//! The stream mixes plant-style `RtuStatus` polls (some stale), 4-device
//! `SubstationReport`s whose devices are sometimes stale, `HmiCommand`s
//! on `s{station}d{device}` tags, one `FieldRebaseline` and one payload
//! that does not decode. Any change to how the master applies, orders or
//! serializes its state moves one of the three pinned values.

use bytes::Bytes;
use itcrypto::sha256::sha256;
use prime::application::Application;
use prime::types::Update;
use scada::master::ScadaApp;
use scada::updates::{DeviceReport, ScadaUpdate};
use simnet::wire::Wire;

/// A small deterministic generator (64-bit LCG), so the stream needs no
/// randomness crate and never changes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next() % 2 == 1).collect()
    }
}

fn currents(positions: &[bool]) -> Vec<u16> {
    positions.iter().map(|&p| u16::from(p) * 120).collect()
}

/// The fixed stream of ordered payloads.
fn stream() -> Vec<Bytes> {
    let mut rng = Lcg(42);
    let mut out = Vec::new();
    let plant_tags = ["plant", "jhu", "dist3", "gen0"];
    for i in 0..240u64 {
        let update = match i % 6 {
            // Plant-style polls; every fifth one replays an old sequence.
            0 | 1 => {
                let tag = plant_tags[rng.next() as usize % plant_tags.len()];
                let poll_seq = if i % 5 == 0 { i / 3 } else { i };
                let positions = rng.bits(3);
                ScadaUpdate::RtuStatus {
                    scenario: tag.into(),
                    poll_seq,
                    currents: currents(&positions),
                    positions,
                }
            }
            // A 4-device substation sweep; device 3 often lags behind.
            2 | 3 => {
                let station = rng.next() % 3;
                ScadaUpdate::SubstationReport {
                    station: station as u32,
                    devices: (0..4u64)
                        .map(|d| {
                            let positions = rng.bits(2);
                            DeviceReport {
                                scenario: format!("s{station}d{d}"),
                                poll_seq: if d == 3 && rng.next().is_multiple_of(2) {
                                    1
                                } else {
                                    i
                                },
                                currents: currents(&positions),
                                positions,
                            }
                        })
                        .collect(),
                }
            }
            4 => ScadaUpdate::HmiCommand {
                scenario: format!("s{}d{}", rng.next() % 3, rng.next() % 4),
                breaker: (rng.next() % 2) as u16,
                close: rng.next().is_multiple_of(2),
            },
            _ if i == 125 => ScadaUpdate::FieldRebaseline {
                scenario: "plant".into(),
                positions: vec![true, false, true],
            },
            _ => {
                // The same sweep again at the same sequence: every
                // device is stale.
                ScadaUpdate::SubstationReport {
                    station: 1,
                    devices: (0..4)
                        .map(|d| DeviceReport {
                            scenario: format!("s1d{d}"),
                            poll_seq: i - 2,
                            positions: vec![false, false],
                            currents: vec![0, 0],
                        })
                        .collect(),
                }
            }
        };
        out.push(update.to_wire());
        if i == 60 {
            out.push(Bytes::from_static(b"\xde\xad"));
        }
    }
    out
}

/// `(digest hex, snapshot SHA-256 hex, actions SHA-256 hex)` after the
/// stream.
fn run(mut app: ScadaApp) -> (String, String, String) {
    let mut actions = String::new();
    for (seq, payload) in stream().into_iter().enumerate() {
        let seq = seq as u64 + 1;
        app.execute(&Update::new(1, seq, payload), seq);
        for action in app.take_actions() {
            actions.push_str(&format!("{action:?}\n"));
        }
    }
    (
        app.digest().to_hex(),
        sha256(&app.snapshot()).to_hex(),
        sha256(actions.as_bytes()).to_hex(),
    )
}

#[test]
fn master_state_and_actions_are_pinned() {
    let (digest, snapshot, actions) = run(ScadaApp::new());
    assert_eq!(
        digest,
        "d1de46ce8cd91bca9c9181aa4740f487c23fd8aa373132f5b0f1c788996cd2c8"
    );
    assert_eq!(
        snapshot,
        "c7e085a87739a1b5df3d47c54300a597b6057428dba9422c6f5bf6cc0948f8ec"
    );
    assert_eq!(
        actions,
        "42969128242ac6114c6a2c25376a44d02e38bff08114953aafc0ad389fd4da4c"
    );
}
