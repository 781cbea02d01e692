//! Switches with learning or static MAC tables.
//!
//! §III-B: "On the switch, we configured a static mapping of MAC addresses
//! to switch ports." [`SwitchMode::Static`] models that configuration, with
//! optional ingress port-security (frames whose source MAC does not belong
//! to the arrival port are dropped and counted) — which is what defeats MAC
//! spoofing and the switch half of the man-in-the-middle attacks.

use std::collections::BTreeMap;

use crate::link::LinkId;
use crate::types::MacAddr;

/// Identifies a switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SwitchId(pub u32);

/// Forwarding behaviour.
#[derive(Clone, Debug, PartialEq)]
pub enum SwitchMode {
    /// Commodity behaviour: learn source MAC → port, flood unknown unicast
    /// and broadcast. Vulnerable to CAM games and MITM via ARP poisoning.
    Learning,
    /// Hardened behaviour: a fixed MAC → port map. Unknown unicast is
    /// dropped (never flooded), and if `enforce_ingress` is set, frames
    /// arriving on a port that does not own their source MAC are dropped.
    Static {
        /// The operator-configured MAC-to-port map.
        map: BTreeMap<MacAddr, usize>,
        /// Drop frames whose source MAC does not match the ingress port.
        enforce_ingress: bool,
    },
}

/// Forwarding decision for one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Forward {
    /// Send out this one port (a known unicast destination).
    Port(usize),
    /// Flood out these ports (broadcast or unknown unicast).
    Ports(Vec<usize>),
    /// Drop, with the reason recorded.
    Drop(DropReason),
}

/// Why a switch dropped a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Static mode: source MAC not assigned to the ingress port.
    IngressViolation,
    /// Static mode: destination MAC not in the static map.
    UnknownDestination,
    /// Destination port has no connected link.
    DeadPort,
}

/// A switch instance.
#[derive(Clone, Debug)]
pub struct Switch {
    /// This switch's id.
    pub id: SwitchId,
    /// Forwarding mode.
    pub mode: SwitchMode,
    /// Link attached to each port (None = empty port).
    pub ports: Vec<Option<LinkId>>,
    /// Learning mode's CAM table.
    cam: BTreeMap<MacAddr, usize>,
    /// Count of port-security violations (observable evidence of spoofing).
    pub ingress_violations: u64,
    /// Count of unknown-destination drops in static mode.
    pub unknown_dst_drops: u64,
    /// Count of frames dropped by an active partition.
    pub partition_drops: u64,
    /// Capture taps attached to this switch (span ports).
    pub taps: Vec<crate::capture::TapId>,
    /// Active partition: port → group (unlisted ports are group 0).
    /// Frames only forward between ports of the same group.
    partition: Option<BTreeMap<usize, u32>>,
}

impl Switch {
    /// Creates a switch with `port_count` empty ports.
    pub fn new(id: SwitchId, port_count: usize, mode: SwitchMode) -> Self {
        Switch {
            id,
            mode,
            ports: vec![None; port_count],
            cam: BTreeMap::new(),
            ingress_violations: 0,
            unknown_dst_drops: 0,
            partition_drops: 0,
            taps: Vec::new(),
            partition: None,
        }
    }

    /// Activates a partition: ports are confined to their assigned group
    /// (unlisted ports form group 0).
    pub fn set_partition(&mut self, assignment: BTreeMap<usize, u32>) {
        self.partition = Some(assignment);
    }

    /// Heals the partition.
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Whether a partition is currently active.
    pub fn partition_active(&self) -> bool {
        self.partition.is_some()
    }

    /// Whether two ports may exchange frames under the active partition
    /// (always true when none is set).
    pub fn same_partition_group(&self, a: usize, b: usize) -> bool {
        match &self.partition {
            None => true,
            Some(groups) => {
                groups.get(&a).copied().unwrap_or(0) == groups.get(&b).copied().unwrap_or(0)
            }
        }
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Computes where a frame entering on `ingress` with the given MACs
    /// goes. Mutates learning state / violation counters.
    pub fn forward(&mut self, ingress: usize, src_mac: MacAddr, dst_mac: MacAddr) -> Forward {
        match &self.mode {
            SwitchMode::Learning => {
                self.cam.insert(src_mac, ingress);
                if dst_mac.is_broadcast() {
                    return Forward::Ports(self.all_except(ingress));
                }
                match self.cam.get(&dst_mac) {
                    Some(&p) if p != ingress => Forward::Port(p),
                    Some(_) => Forward::Drop(DropReason::DeadPort), // hairpin: already local
                    None => Forward::Ports(self.all_except(ingress)),
                }
            }
            SwitchMode::Static {
                map,
                enforce_ingress,
            } => {
                if *enforce_ingress {
                    match map.get(&src_mac) {
                        Some(&owner) if owner == ingress => {}
                        _ => {
                            self.ingress_violations += 1;
                            return Forward::Drop(DropReason::IngressViolation);
                        }
                    }
                }
                if dst_mac.is_broadcast() {
                    return Forward::Ports(self.all_except(ingress));
                }
                match map.get(&dst_mac) {
                    Some(&p) if p != ingress => Forward::Port(p),
                    Some(_) => Forward::Drop(DropReason::DeadPort),
                    None => {
                        self.unknown_dst_drops += 1;
                        Forward::Drop(DropReason::UnknownDestination)
                    }
                }
            }
        }
    }

    fn all_except(&self, ingress: usize) -> Vec<usize> {
        (0..self.ports.len())
            .filter(|&p| p != ingress && self.ports[p].is_some())
            .collect()
    }

    /// Learning-mode CAM contents (for tests / diagnostics).
    pub fn cam_entry(&self, mac: MacAddr) -> Option<usize> {
        self.cam.get(&mac).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

    fn mac(n: u32) -> MacAddr {
        MacAddr::derived(NodeId(n), 0)
    }

    fn learning(ports: usize) -> Switch {
        let mut sw = Switch::new(SwitchId(0), ports, SwitchMode::Learning);
        for p in 0..ports {
            sw.ports[p] = Some(crate::link::LinkId(p as u32));
        }
        sw
    }

    fn static_sw(assignments: &[(u32, usize)], enforce: bool) -> Switch {
        let ports = assignments.iter().map(|&(_, p)| p).max().unwrap_or(0) + 1;
        let map = assignments.iter().map(|&(m, p)| (mac(m), p)).collect();
        let mut sw = Switch::new(
            SwitchId(0),
            ports,
            SwitchMode::Static {
                map,
                enforce_ingress: enforce,
            },
        );
        for p in 0..ports {
            sw.ports[p] = Some(crate::link::LinkId(p as u32));
        }
        sw
    }

    #[test]
    fn learning_floods_unknown_then_forwards() {
        let mut sw = learning(4);
        // Unknown destination: flood to all other ports.
        assert_eq!(sw.forward(0, mac(1), mac(2)), Forward::Ports(vec![1, 2, 3]));
        // Now the switch heard mac(2) on port 1; unicast goes there only.
        sw.forward(1, mac(2), mac(1));
        assert_eq!(sw.forward(0, mac(1), mac(2)), Forward::Port(1));
        assert_eq!(sw.cam_entry(mac(1)), Some(0));
    }

    #[test]
    fn learning_broadcast_floods() {
        let mut sw = learning(3);
        assert_eq!(
            sw.forward(2, mac(1), MacAddr::BROADCAST),
            Forward::Ports(vec![0, 1])
        );
    }

    #[test]
    fn learning_is_poisonable_by_cam_override() {
        let mut sw = learning(3);
        sw.forward(0, mac(1), MacAddr::BROADCAST); // mac1 at port 0
                                                   // Attacker on port 2 claims mac(1).
        sw.forward(2, mac(1), MacAddr::BROADCAST);
        assert_eq!(sw.cam_entry(mac(1)), Some(2));
        // Traffic for mac(1) now goes to the attacker.
        assert_eq!(sw.forward(1, mac(5), mac(1)), Forward::Port(2));
    }

    #[test]
    fn static_forwards_by_map_only() {
        let mut sw = static_sw(&[(1, 0), (2, 1), (3, 2)], false);
        assert_eq!(sw.forward(0, mac(1), mac(2)), Forward::Port(1));
        // Destination not in map → dropped, not flooded.
        assert_eq!(
            sw.forward(0, mac(1), mac(9)),
            Forward::Drop(DropReason::UnknownDestination)
        );
        assert_eq!(sw.unknown_dst_drops, 1);
    }

    #[test]
    fn static_ingress_enforcement_blocks_spoofed_source() {
        let mut sw = static_sw(&[(1, 0), (2, 1)], true);
        // Attacker on port 1 spoofs mac(1) (which belongs to port 0).
        assert_eq!(
            sw.forward(1, mac(1), mac(2)),
            Forward::Drop(DropReason::IngressViolation)
        );
        assert_eq!(sw.ingress_violations, 1);
        // Unknown source MAC is also a violation when enforcing.
        assert_eq!(
            sw.forward(1, mac(7), mac(1)),
            Forward::Drop(DropReason::IngressViolation)
        );
    }

    #[test]
    fn static_broadcast_still_floods_from_legit_source() {
        let mut sw = static_sw(&[(1, 0), (2, 1), (3, 2)], true);
        assert_eq!(
            sw.forward(0, mac(1), MacAddr::BROADCAST),
            Forward::Ports(vec![1, 2])
        );
    }

    #[test]
    fn hairpin_to_same_port_dropped() {
        let mut sw = static_sw(&[(1, 0), (2, 0)], false);
        assert_eq!(
            sw.forward(0, mac(1), mac(2)),
            Forward::Drop(DropReason::DeadPort)
        );
    }

    #[test]
    fn flood_skips_empty_ports() {
        let mut sw = learning(4);
        sw.ports[2] = None;
        assert_eq!(
            sw.forward(0, mac(1), MacAddr::BROADCAST),
            Forward::Ports(vec![1, 3])
        );
    }
}
