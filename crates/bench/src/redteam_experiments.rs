//! Experiments E1–E3 and E10: the red-team exercise (§IV) and the
//! hardening ablation (§VI-A).

use crate::registry::RunMeta;
use plc::emulator::PlcEmulator;
use plc::logic::LogicConfig;
use plc::topology::Scenario;
use prime::types::Config as PrimeConfig;
use redteam::attacker::{AttackStep, Attacker, MitmConfig};
use redteam::excursion::{run_excursion, ExcursionReport};
use redteam::lab::{addr, CommercialLab};
use redteam::report::{AttackOutcome, AttackReport};
use scada::commercial::CommercialHmi;
use simnet::sim::{InterfaceSpec, NodeSpec};
use simnet::time::{SimDuration, SimTime};
use simnet::types::IpAddr;
use spire::config::{SpireConfig, EXTERNAL_SPINES_PORT, INTERNAL_SPINES_PORT};
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;

/// Attacker address on the Spire operations network.
const SPIRE_ATTACKER_IP: IpAddr = IpAddr::new(10, 20, 0, 66);

/// Builds the standard Spire target (E2, E3, E7, E10): red-team prime
/// config, Figure 4 scenario, breaker cycle running, fast timing.
pub(crate) fn spire_target(hardening: HardeningProfile, seed: u64) -> Deployment {
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(500),
            0,
        );
    let mut d = Deployment::build(cfg, hardening, seed);
    d.set_timing(fast_timing());
    d
}

/// Result of E1.
#[derive(Clone, Debug)]
pub struct E1Result {
    /// The attack matrix.
    pub report: AttackReport,
    /// Determinism captures of the enterprise lab and the operations lab.
    pub meta: Vec<RunMeta>,
}

/// E1 — the red team against the commercial system: every attack from
/// §IV-B's first two paragraphs, executed and verified.
pub fn e1_commercial_attacks(seed: u64) -> E1Result {
    let mut report = AttackReport::new();

    // Phase 1: from the enterprise network — dump, then re-upload PLC
    // configuration through the weak boundary.
    let mut lab = CommercialLab::build(seed, true);
    let mut attacker = Attacker::new();
    attacker.schedule(SimTime(500_000), AttackStep::ModbusDump { plc: addr::PLC });
    let node = lab.attach_enterprise_attacker(CommercialLab::attacker_spec(
        addr::ENTERPRISE_ATTACKER,
        attacker,
    ));
    lab.sim.run_for(SimDuration::from_secs(2));
    let dumped = lab
        .sim
        .process_ref::<Attacker>(node)
        .expect("attacker")
        .observed
        .dumped_config
        .clone();
    report.add(
        "PLC memory dump (enterprise net)",
        "commercial",
        if dumped.is_some() {
            AttackOutcome::Succeeded
        } else {
            AttackOutcome::Defeated
        },
        "unauthenticated Modbus through the boundary firewall",
    );
    if let Some(image) = dumped {
        let mut cfg = LogicConfig::from_image(&image).expect("factory image parses");
        cfg.force_open_mask = 0x7F;
        let mut uploader = Attacker::new();
        uploader.schedule(
            SimTime(2_100_000),
            AttackStep::ModbusUpload {
                plc: addr::PLC,
                image: cfg.to_image(),
            },
        );
        let n2 = lab.attach_enterprise_attacker(CommercialLab::attacker_spec(
            IpAddr::new(10, 40, 0, 67),
            uploader,
        ));
        lab.sim.run_for(SimDuration::from_secs(3));
        let acked = lab
            .sim
            .process_ref::<Attacker>(n2)
            .expect("attacker")
            .observed
            .upload_acked;
        let plc_taken = lab
            .sim
            .process_ref::<PlcEmulator>(lab.plc)
            .expect("plc")
            .energized_loads()
            == 0;
        report.add(
            "PLC config upload → control device",
            "commercial",
            if acked && plc_taken {
                AttackOutcome::Succeeded
            } else {
                AttackOutcome::Defeated
            },
            "modified configuration forced every breaker open",
        );
    }

    // Phase 2: on the operations network — MITM the HMI and inject
    // commands while hiding the evidence.
    let mut lab2 = CommercialLab::build(seed + 1, true);
    lab2.sim.run_for(SimDuration::from_secs(1));
    let mut mitm = Attacker::new();
    mitm.schedule(
        SimTime(1_100_000),
        AttackStep::ArpPoison {
            victim: addr::PRIMARY,
            claim_ip: addr::HMI,
            count: 5,
        },
    );
    mitm.schedule(
        SimTime(1_500_000),
        AttackStep::InjectCommercialCommand {
            master: addr::PRIMARY,
            breaker: 0,
            close: false,
        },
    );
    mitm.mitm = Some(MitmConfig {
        rewrite_status_all_closed: true,
        forward: true,
    });
    let node = lab2.attach_ops_attacker(CommercialLab::attacker_spec(addr::OPS_ATTACKER, mitm));
    lab2.sim.run_for(SimDuration::from_secs(4));
    let plc_open = !lab2
        .sim
        .process_ref::<PlcEmulator>(lab2.plc)
        .expect("plc")
        .positions()[0];
    let hmi = lab2
        .sim
        .process_ref::<CommercialHmi>(lab2.hmi)
        .expect("hmi");
    let operator_blind = hmi.positions == vec![true; 7];
    let obs = &lab2
        .sim
        .process_ref::<Attacker>(node)
        .expect("attacker")
        .observed;
    report.add(
        "unauthenticated command injection",
        "commercial",
        if plc_open {
            AttackOutcome::Succeeded
        } else {
            AttackOutcome::Defeated
        },
        "master accepts supervisory commands from anyone",
    );
    report.add(
        "ARP MITM: forge HMI updates",
        "commercial",
        if operator_blind && obs.rewritten >= 1 {
            AttackOutcome::Succeeded
        } else {
            AttackOutcome::Defeated
        },
        "operator display shows forged all-closed state",
    );
    let meta = vec![
        RunMeta::capture("e1.enterprise-lab", &lab.obs, &lab.sim),
        RunMeta::capture("e1.ops-lab", &lab2.obs, &lab2.sim),
    ];
    E1Result { report, meta }
}

/// Result of E2 including service-continuity evidence.
#[derive(Clone, Debug)]
pub struct E2Result {
    /// The attack matrix.
    pub report: AttackReport,
    /// HMI frames applied before attacks began.
    pub frames_before: u64,
    /// HMI frames applied after all attacks.
    pub frames_after: u64,
    /// ARP poisoning attempts rejected by static tables.
    pub arp_rejections: u64,
    /// Spoofed/keyless frames rejected by Spines link crypto.
    pub spines_auth_failures: u64,
    /// Determinism capture of the deployment (digest + event count).
    pub meta: RunMeta,
}

/// E2 — the same network attacks against Spire: port scan, ARP poisoning,
/// IP spoofing, DoS bursts. All fail; the breaker cycle never stops.
pub fn e2_spire_network_attacks(seed: u64) -> E2Result {
    let mut d = spire_target(HardeningProfile::deployed(), seed);
    d.run_for(SimDuration::from_secs(4));
    let frames_before = d.obs.counter_value("hmi.0.frames_applied");

    let t0 = d.now();
    let mut attacker = Attacker::new();
    let replica_ext = d.cfg.replica_external_ip(0);
    let hmi_ip = d.cfg.hmi_ip(0);
    attacker.schedule(
        t0 + SimDuration::from_millis(100),
        AttackStep::PortScan {
            target: replica_ext,
            from_port: 8000,
            to_port: 8300,
        },
    );
    attacker.schedule(
        t0 + SimDuration::from_millis(600),
        AttackStep::ArpPoison {
            victim: hmi_ip,
            claim_ip: replica_ext,
            count: 20,
        },
    );
    attacker.schedule(
        t0 + SimDuration::from_millis(1_200),
        AttackStep::SpinesProbe {
            target: replica_ext,
            port: EXTERNAL_SPINES_PORT,
            payload: vec![1; 200],
        },
    );
    // IP-spoofed injection: forge an allowed peer's source address.
    attacker.schedule(
        t0 + SimDuration::from_millis(1_500),
        AttackStep::DosBurst {
            target: replica_ext,
            port: EXTERNAL_SPINES_PORT,
            pps: 2_000,
            duration: SimDuration::from_secs(2),
            spoof_src: Some(d.cfg.proxy_ip(0)),
            payload: 400,
        },
    );
    let node = d.attach_external_attacker(attacker_spec(attacker));
    d.run_for(SimDuration::from_secs(6));
    let frames_after = d.obs.counter_value("hmi.0.frames_applied");

    let obs = d
        .sim
        .process_ref::<Attacker>(node)
        .expect("attacker")
        .observed
        .clone();
    // Poisoning attempts that bounced off a static table, journaled per
    // node: the replicas and HMI 0.
    let targets: Vec<u32> = d
        .replica_nodes
        .iter()
        .chain(&d.hmi_nodes[..1])
        .map(|n| n.0)
        .collect();
    let arp_rejections = d.obs.journal_count(|e| {
        matches!(e, obs::Event::PacketDrop { node, kind: obs::event::DropKind::Arp }
            if targets.contains(node))
    }) as u64;
    let spines_auth_failures: u64 = (0..d.cfg.n())
        .map(|i| d.replica(i).external.stats().auth_failures)
        .sum();

    let mut report = AttackReport::new();
    report.add(
        "port scan (300 ports)",
        "spire",
        if obs.scan_results.is_empty() {
            AttackOutcome::NoVisibility
        } else {
            AttackOutcome::Succeeded
        },
        format!(
            "{} SYNs sent, {} responses — default-deny drops silently",
            obs.syns_sent,
            obs.scan_results.len()
        ),
    );
    report.add(
        "ARP poisoning",
        "spire",
        if arp_rejections > 0 {
            AttackOutcome::Defeated
        } else {
            AttackOutcome::Succeeded
        },
        format!("static ARP tables rejected {arp_rejections} gratuitous replies"),
    );
    report.add(
        "unauthenticated Spines injection",
        "spire",
        if obs.spines_probes_sent > 0 && frames_after > frames_before {
            AttackOutcome::Defeated
        } else {
            AttackOutcome::Succeeded
        },
        "link authentication rejects outsider frames",
    );
    report.add(
        "DoS burst (spoofed source)",
        "spire",
        if frames_after > frames_before {
            AttackOutcome::Defeated
        } else {
            AttackOutcome::Succeeded
        },
        format!(
            "{} packets sent; breaker cycle continued",
            obs.dos_packets_sent
        ),
    );
    E2Result {
        report,
        frames_before,
        frames_after,
        arp_rejections,
        spines_auth_failures,
        meta: RunMeta::capture("e2.deployment", &d.obs, &d.sim),
    }
}

/// The red team's node on the Spire operations network.
pub(crate) fn attacker_spec(attacker: Attacker) -> NodeSpec {
    let mut spec = NodeSpec::new(
        "red-team",
        vec![InterfaceSpec::dynamic(SPIRE_ATTACKER_IP)],
        Box::new(attacker),
    );
    spec.promiscuous = true;
    spec
}

/// Result of E3.
#[derive(Clone, Debug)]
pub struct E3Result {
    /// The staged excursion, stage by stage.
    pub report: ExcursionReport,
    /// Determinism capture of the deployment (digest + event count).
    pub meta: RunMeta,
}

/// E3 — the compromised-replica excursion (§IV-B, day 3).
pub fn e3_replica_excursion(seed: u64) -> E3Result {
    let mut d = spire_target(HardeningProfile::deployed(), seed);
    d.run_for(SimDuration::from_secs(4));
    let report = run_excursion(&mut d, 3);
    let meta = RunMeta::capture("e3.deployment", &d.obs, &d.sim);
    E3Result { report, meta }
}

/// One row of the E10 hardening-ablation matrix.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which switch was turned off ("(full)" = nothing).
    pub disabled: String,
    /// Whether the port scan gained visibility (any response came back).
    pub scan_visible: bool,
    /// Whether ARP poisoning took effect on a victim's table.
    pub arp_poisoned: bool,
    /// Whether claiming another device's MAC captured its traffic path
    /// (learning-switch CAM takeover).
    pub mac_spoof_accepted: bool,
    /// Whether the replication (internal Spines) traffic path was
    /// reachable by the attacker at all.
    pub internal_reachable: bool,
    /// Whether internal addressing leaked via cross-interface ARP answers.
    pub internal_addr_leaked: bool,
    /// Whether the PLC answered attacker Modbus directly.
    pub plc_exposed: bool,
    /// Whether known kernel/sshd escalation works on this OS profile.
    pub root_escalation: bool,
    /// Whether the breaker cycle kept making progress regardless.
    pub service_progressed: bool,
    /// Determinism capture of this case's deployment.
    pub meta: RunMeta,
}

/// E10 — re-run the attack suite with each §III-B hardening switch turned
/// off, one at a time (each case is its own deployment).
pub fn e10_hardening_ablation(seed: u64) -> Vec<AblationRow> {
    let mut configs: Vec<(String, HardeningProfile)> =
        vec![("(full hardening)".into(), HardeningProfile::deployed())];
    for &name in HardeningProfile::switch_names() {
        configs.push((format!("-{name}"), HardeningProfile::without(name)));
    }
    configs
        .into_iter()
        .enumerate()
        .map(|(i, (label, profile))| run_ablation_case(label, profile, seed + i as u64))
        .collect()
}

fn run_ablation_case(label: String, profile: HardeningProfile, seed: u64) -> AblationRow {
    let mut d = spire_target(profile, seed);
    d.run_for(SimDuration::from_secs(3));
    let frames_before = d.obs.counter_value("hmi.0.frames_applied");
    let t0 = d.now();

    let replica_ext = d.cfg.replica_external_ip(0);
    let replica_int = d.cfg.internal_ip(0);
    let peer_int = d.cfg.internal_ip(1);
    let proxy_ip = d.cfg.proxy_ip(0);
    let plc_cable = d.cfg.plc_cable_ip(0);
    let proxy_mac = simnet::types::MacAddr::derived(d.proxy_nodes[0], 0);

    let mut attacker = Attacker::new();
    // Scan a range spanning the Spines ports.
    attacker.schedule(
        t0 + SimDuration::from_millis(100),
        AttackStep::PortScan {
            target: replica_ext,
            from_port: 8110,
            to_port: 8150,
        },
    );
    // Poison the proxy's view of replica 0 (would reroute its updates).
    attacker.schedule(
        t0 + SimDuration::from_millis(400),
        AttackStep::ArpPoison {
            victim: proxy_ip,
            claim_ip: replica_ext,
            count: 10,
        },
    );
    // Claim the proxy's MAC (CAM takeover on a learning switch).
    attacker.schedule(
        t0 + SimDuration::from_millis(600),
        AttackStep::MacSpoof {
            impersonate: proxy_mac,
            count: 5,
        },
    );
    // Probe the replication network with a forged internal-peer source:
    // the firewall trusts the peer, so only physical isolation (or the
    // strong-host model) keeps this away from the internal daemon.
    attacker.schedule(
        t0 + SimDuration::from_millis(800),
        AttackStep::SpoofedProbe {
            target: replica_int,
            port: INTERNAL_SPINES_PORT,
            spoof_src: peer_int,
            payload: vec![2; 64],
        },
    );
    // Ask who owns the internal address (cross-interface ARP leak).
    attacker.schedule(
        t0 + SimDuration::from_millis(1_000),
        AttackStep::Ping {
            target: replica_int,
        },
    );
    // Try the PLC directly (only reachable when not behind the proxy).
    attacker.schedule(
        t0 + SimDuration::from_millis(1_200),
        AttackStep::ModbusDump { plc: plc_cable },
    );
    let node = d.attach_external_attacker(attacker_spec(attacker));
    d.run_for(SimDuration::from_secs(4));

    let obs = d
        .sim
        .process_ref::<Attacker>(node)
        .expect("attacker")
        .observed
        .clone();
    let internal_auth_failures: u64 = (0..d.cfg.n())
        .map(|i| {
            let stats = d.replica(i).internal.stats();
            stats.auth_failures + stats.malformed
        })
        .sum();
    // Poison success: the attacker's forged mapping stuck in the proxy's table.
    let atk_mac = simnet::types::MacAddr::derived(node, 0);
    let arp_poisoned = d.sim.arp_entry(d.proxy_nodes[0], 0, replica_ext) == Some(atk_mac);
    // CAM takeover: the switch now maps the proxy's MAC to a different port.
    let mac_spoof_accepted = match &d.sim.switch(d.external_switch).mode {
        simnet::switch::SwitchMode::Learning => {
            d.sim
                .switch(d.external_switch)
                .cam_entry(proxy_mac)
                .is_some()
                && d.sim.switch(d.external_switch).ingress_violations == 0
        }
        simnet::switch::SwitchMode::Static { .. } => false,
    };
    // Cross-interface ARP leak: the attacker resolved an internal address
    // on the external network.
    let internal_addr_leaked = d.sim.arp_entry(node, 0, replica_int).is_some();
    AblationRow {
        meta: RunMeta::capture(&format!("e10.{label}"), &d.obs, &d.sim),
        disabled: label,
        scan_visible: !obs.scan_results.is_empty(),
        arp_poisoned,
        mac_spoof_accepted,
        internal_reachable: internal_auth_failures > 0,
        internal_addr_leaked,
        plc_exposed: obs.device_id.is_some(),
        root_escalation: d
            .hardening
            .os
            .vulnerable_to(diversity::os::CveClass::DirtyCow),
        service_progressed: d.obs.counter_value("hmi.0.frames_applied") > frames_before,
    }
}

/// Renders the ablation matrix.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>6} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>8}\n",
        "disabled switch",
        "scan",
        "poison",
        "mac-spoof",
        "int-reach",
        "addr-leak",
        "plc",
        "root",
        "svc-ok"
    ));
    out.push_str(&format!("{}\n", "-".repeat(94)));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>6} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>8}\n",
            r.disabled,
            r.scan_visible,
            r.arp_poisoned,
            r.mac_spoof_accepted,
            r.internal_reachable,
            r.internal_addr_leaked,
            r.plc_exposed,
            r.root_escalation,
            r.service_progressed
        ));
    }
    out
}
