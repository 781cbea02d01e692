//! The commercial half of the Figure 3 laboratory: an enterprise network
//! (historian, office machines) trunked through a weak boundary to the
//! commercial operations network (primary/backup masters, HMI, and the
//! PLC sitting *directly on the switch* — no proxy).
//!
//! The whole point of this side is that it falls: the boundary firewall
//! let the red team reach the operations network "within only a few
//! hours", the PLC answered unauthenticated Modbus, and master↔HMI
//! traffic could be steered through an attacker and forged.

use plc::emulator::PlcEmulator;
use plc::topology::Scenario;
use scada::commercial::{CommercialHmi, CommercialMaster, MasterRole};
use simnet::link::LinkSpec;
use simnet::sim::{InterfaceSpec, NodeSpec, Simulation};
use simnet::switch::{SwitchId, SwitchMode};
use simnet::types::{IpAddr, NodeId};

/// Addresses on the commercial operations network.
pub mod addr {
    use simnet::types::IpAddr;
    /// The exposed PLC.
    pub const PLC: IpAddr = IpAddr::new(10, 30, 0, 10);
    /// Primary SCADA master.
    pub const PRIMARY: IpAddr = IpAddr::new(10, 30, 0, 11);
    /// Backup SCADA master.
    pub const BACKUP: IpAddr = IpAddr::new(10, 30, 0, 12);
    /// Operator HMI.
    pub const HMI: IpAddr = IpAddr::new(10, 30, 0, 13);
    /// Historian (PI server) on the enterprise network.
    pub const HISTORIAN: IpAddr = IpAddr::new(10, 40, 0, 10);
    /// Attacker foothold on the enterprise network.
    pub const ENTERPRISE_ATTACKER: IpAddr = IpAddr::new(10, 40, 0, 66);
    /// Attacker placed directly on the operations network.
    pub const OPS_ATTACKER: IpAddr = IpAddr::new(10, 30, 0, 66);
}

/// The built commercial lab.
pub struct CommercialLab {
    /// The simulation.
    pub sim: Simulation,
    /// The lab-wide observability hub (metrics, journal, trace spans).
    pub obs: obs::ObsHub,
    /// Enterprise switch (where MANA 1 of Figure 3 would attach a tap).
    pub enterprise_switch: SwitchId,
    /// Commercial operations switch (where MANA 3 would attach a tap).
    pub ops_switch: SwitchId,
    /// The exposed PLC node.
    pub plc: NodeId,
    /// Primary master node.
    pub primary: NodeId,
    /// Backup master node.
    pub backup: NodeId,
    /// HMI node.
    pub hmi: NodeId,
    /// Historian node (enterprise).
    pub historian: NodeId,
    spare_ops_ports: Vec<usize>,
    spare_enterprise_ports: Vec<usize>,
}

/// A do-nothing process for passive hosts (historian, office machines).
struct PassiveHost;
impl simnet::process::Process for PassiveHost {}

impl CommercialLab {
    /// Builds the lab. `boundary_open` models the weak enterprise/ops
    /// firewall the red team walked through (true reproduces the exercise;
    /// false severs the networks).
    pub fn build(seed: u64, boundary_open: bool) -> Self {
        let mut sim = Simulation::new(seed);
        let obs = sim.obs().clone();
        // All commercial/enterprise hosts: dynamic ARP, open firewalls —
        // "NIST-recommended best practices" did not include any of §III-B.
        let plc = sim.add_node(NodeSpec::new(
            "commercial-plc",
            vec![InterfaceSpec::dynamic(addr::PLC)],
            Box::new(PlcEmulator::new(Scenario::RedTeamDistribution, &obs)),
        ));
        let primary = sim.add_node(NodeSpec::new(
            "commercial-primary",
            vec![InterfaceSpec::dynamic(addr::PRIMARY)],
            Box::new(CommercialMaster::new(
                MasterRole::Primary,
                addr::PLC,
                addr::HMI,
                addr::BACKUP,
                7,
                &obs,
            )),
        ));
        let backup = sim.add_node(NodeSpec::new(
            "commercial-backup",
            vec![InterfaceSpec::dynamic(addr::BACKUP)],
            Box::new(CommercialMaster::new(
                MasterRole::Backup,
                addr::PLC,
                addr::HMI,
                addr::PRIMARY,
                7,
                &obs,
            )),
        ));
        let hmi = sim.add_node(NodeSpec::new(
            "commercial-hmi",
            vec![InterfaceSpec::dynamic(addr::HMI)],
            Box::new(CommercialHmi::new(addr::PRIMARY, &obs)),
        ));
        let historian = sim.add_node(NodeSpec::new(
            "historian",
            vec![InterfaceSpec::dynamic(addr::HISTORIAN)],
            Box::new(PassiveHost),
        ));

        let ops_switch = sim.add_switch(10, SwitchMode::Learning);
        sim.connect(plc, 0, ops_switch, 0, LinkSpec::lan());
        sim.connect(primary, 0, ops_switch, 1, LinkSpec::lan());
        sim.connect(backup, 0, ops_switch, 2, LinkSpec::lan());
        sim.connect(hmi, 0, ops_switch, 3, LinkSpec::lan());

        let enterprise_switch = sim.add_switch(6, SwitchMode::Learning);
        sim.connect(historian, 0, enterprise_switch, 0, LinkSpec::lan());

        if boundary_open {
            // The "firewall" between the networks: a router that, per the
            // exercise's outcome, passes the traffic that matters.
            sim.connect_switches((enterprise_switch, 1), (ops_switch, 4), LinkSpec::wan());
        }

        CommercialLab {
            sim,
            obs,
            enterprise_switch,
            ops_switch,
            plc,
            primary,
            backup,
            hmi,
            historian,
            spare_ops_ports: vec![5, 6, 7, 8, 9],
            spare_enterprise_ports: vec![2, 3, 4, 5],
        }
    }

    /// Attaches an attacker to the enterprise network (phase 1 position).
    pub fn attach_enterprise_attacker(&mut self, spec: NodeSpec) -> NodeId {
        let port = self
            .spare_enterprise_ports
            .pop()
            .expect("spare enterprise port");
        let node = self.sim.add_node(spec);
        self.sim
            .connect(node, 0, self.enterprise_switch, port, LinkSpec::lan());
        node
    }

    /// Attaches an attacker directly to the operations network (phase 2).
    pub fn attach_ops_attacker(&mut self, spec: NodeSpec) -> NodeId {
        let port = self.spare_ops_ports.pop().expect("spare ops port");
        let node = self.sim.add_node(spec);
        self.sim
            .connect(node, 0, self.ops_switch, port, LinkSpec::lan());
        node
    }

    /// Convenience: standard attacker node spec (promiscuous, open
    /// firewall, dynamic ARP).
    pub fn attacker_spec(ip: IpAddr, attacker: crate::attacker::Attacker) -> NodeSpec {
        let mut spec = NodeSpec::new(
            "red-team",
            vec![InterfaceSpec::dynamic(ip)],
            Box::new(attacker),
        );
        spec.promiscuous = true;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::{AttackStep, Attacker};
    use simnet::time::{SimDuration, SimTime};

    #[test]
    fn commercial_system_operates_normally() {
        let mut lab = CommercialLab::build(1, true);
        lab.sim.run_for(SimDuration::from_secs(2));
        let hmi = lab.sim.process_ref::<CommercialHmi>(lab.hmi).expect("hmi");
        assert_eq!(hmi.positions, vec![true; 7]);
    }

    #[test]
    fn enterprise_attacker_dumps_and_reuploads_plc_config() {
        // §IV-B phase 1: from the enterprise network, through the weak
        // boundary, the red team dumped the PLC's configuration and
        // uploaded a modified one, taking control of the device.
        let mut lab = CommercialLab::build(2, true);
        let mut attacker = Attacker::new();
        attacker.schedule(SimTime(500_000), AttackStep::ModbusDump { plc: addr::PLC });
        let node = lab.attach_enterprise_attacker(CommercialLab::attacker_spec(
            addr::ENTERPRISE_ATTACKER,
            attacker,
        ));
        lab.sim.run_for(SimDuration::from_secs(2));
        // The dump succeeded across the boundary.
        let obs = &lab
            .sim
            .process_ref::<Attacker>(node)
            .expect("attacker")
            .observed;
        assert!(obs.device_id.is_some(), "device identification read");
        let config = obs
            .dumped_config
            .clone()
            .expect("config dumped from enterprise network");
        // Phase 2: modify and upload — force all breakers open.
        let mut cfg = plc::logic::LogicConfig::from_image(&config).expect("parses");
        cfg.force_open_mask = 0x7F;
        let mut attacker2 = Attacker::new();
        attacker2.schedule(
            SimTime(2_100_000),
            AttackStep::ModbusUpload {
                plc: addr::PLC,
                image: cfg.to_image(),
            },
        );
        let node2 = lab.attach_enterprise_attacker(CommercialLab::attacker_spec(
            IpAddr::new(10, 40, 0, 67),
            attacker2,
        ));
        lab.sim.run_for(SimDuration::from_secs(3));
        assert!(
            lab.sim
                .process_ref::<Attacker>(node2)
                .expect("attacker")
                .observed
                .upload_acked,
            "upload acknowledged"
        );
        let plc = lab.sim.process_ref::<PlcEmulator>(lab.plc).expect("plc");
        assert_eq!(
            plc.energized_loads(),
            0,
            "attacker opened every breaker via config"
        );
        assert!(!plc.config().is_factory());
    }

    #[test]
    fn closed_boundary_blocks_enterprise_attacker() {
        let mut lab = CommercialLab::build(3, false);
        let mut attacker = Attacker::new();
        attacker.schedule(SimTime(500_000), AttackStep::ModbusDump { plc: addr::PLC });
        let node = lab.attach_enterprise_attacker(CommercialLab::attacker_spec(
            addr::ENTERPRISE_ATTACKER,
            attacker,
        ));
        lab.sim.run_for(SimDuration::from_secs(2));
        let obs = &lab
            .sim
            .process_ref::<Attacker>(node)
            .expect("attacker")
            .observed;
        assert!(obs.device_id.is_none(), "no path to the operations network");
    }

    #[test]
    fn ops_attacker_mitm_hides_breaker_state_from_operator() {
        // §IV-B phase 2: on the operations network, the red team disrupted
        // master↔HMI communication, "sending modified updates to the HMI".
        let mut lab = CommercialLab::build(4, true);
        lab.sim.run_for(SimDuration::from_secs(1));
        let mut attacker = Attacker::new();
        // Poison the segment: claim the HMI's IP so the primary's status
        // frames for the HMI are steered through the attacker.
        attacker.schedule(
            SimTime(1_100_000),
            AttackStep::ArpPoison {
                victim: addr::PRIMARY,
                claim_ip: addr::HMI,
                count: 5,
            },
        );
        // Then open a breaker via unauthenticated command...
        attacker.schedule(
            SimTime(1_500_000),
            AttackStep::InjectCommercialCommand {
                master: addr::PRIMARY,
                breaker: 0,
                close: false,
            },
        );
        attacker.mitm = Some(crate::attacker::MitmConfig {
            rewrite_status_all_closed: true,
            forward: true,
        });
        let node =
            lab.attach_ops_attacker(CommercialLab::attacker_spec(addr::OPS_ATTACKER, attacker));
        lab.sim.run_for(SimDuration::from_secs(4));
        // The breaker is really open...
        let plc = lab.sim.process_ref::<PlcEmulator>(lab.plc).expect("plc");
        assert!(!plc.positions()[0], "B10-1 opened by injected command");
        // ...but the operator's screen says everything is closed.
        let hmi = lab.sim.process_ref::<CommercialHmi>(lab.hmi).expect("hmi");
        assert_eq!(
            hmi.positions,
            vec![true; 7],
            "operator sees forged all-closed state"
        );
        let obs = &lab
            .sim
            .process_ref::<Attacker>(node)
            .expect("attacker")
            .observed;
        // A frame the attacker rewrote is one it held in transit.
        assert!(obs.rewritten >= 1, "status frames rewritten in flight");
    }
}
