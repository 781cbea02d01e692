//! Builds a full Spire deployment on a [`simnet::Simulation`] — Figure 2's
//! plant, §VI's wide-area placements and the regional substation tier, all
//! through the one [`Deployment::build`] — parameterized by the
//! [`HardeningProfile`] so the E10 ablation can weaken it one switch at a
//! time.

use std::collections::BTreeMap;

use diversity::os::OsProfile;
use plc::emulator::PlcEmulator;
use prime::replica::Timing;
use simnet::capture::TapId;
use simnet::firewall::Firewall;
use simnet::link::{LinkId, LinkSpec};
use simnet::process::Process;
use simnet::sim::{InterfaceSpec, NodeSpec, Simulation};
use simnet::switch::{SwitchId, SwitchMode};
use simnet::time::{SimDuration, SimTime};
use simnet::types::{IpAddr, MacAddr, NodeId};

use crate::config::{SpireConfig, EXTERNAL_SPINES_PORT, INTERNAL_SPINES_PORT};
use crate::hardening::HardeningProfile;
use crate::hmi_host::HmiHost;
use crate::proxy::{PlcProxy, PROXY_MODBUS_PORT};
use crate::replica_host::ReplicaHost;
use crate::site::{SiteTopology, SurvivalMode};
use crate::substation::{SubstationProxy, SUBSTATION_MODBUS_PORT};

/// Number of spare switch ports kept for attacker attachment.
const SPARE_PORTS: usize = 4;

/// The Prime timing every deployment-level experiment and test runs under
/// (10 ms ARU and pre-prepare spacing, 2 s suspicion, a checkpoint every 20
/// executions, 300 ms catch-up); install it with
/// [`Deployment::set_timing`].
pub fn fast_timing() -> Timing {
    Timing {
        aru_interval: SimDuration::from_millis(10),
        pp_interval: SimDuration::from_millis(10),
        suspect_timeout: SimDuration::from_millis(2_000),
        checkpoint_interval: 20,
        catchup_timeout: SimDuration::from_millis(300),
    }
}

/// A built Spire deployment.
pub struct Deployment {
    /// The simulation hosting everything.
    pub sim: Simulation,
    /// The shared observability hub: every host's metrics and journal
    /// records land here under deployment-wide names.
    pub obs: obs::ObsHub,
    /// The configuration it was built from.
    pub cfg: SpireConfig,
    /// The hardening profile in force.
    pub hardening: HardeningProfile,
    /// The external (operations) switch; the WAN hub of the operations
    /// overlay in a multi-site deployment.
    pub external_switch: SwitchId,
    /// The internal switch (present only when `isolated_internal`, and
    /// only on a single LAN).
    pub internal_switch: Option<SwitchId>,
    /// Replica host nodes, by replica id.
    pub replica_nodes: Vec<NodeId>,
    /// Proxy nodes, by proxy index.
    pub proxy_nodes: Vec<NodeId>,
    /// PLC nodes, by proxy index (regional: by global device index).
    pub plc_nodes: Vec<NodeId>,
    /// HMI nodes, by HMI index.
    pub hmi_nodes: Vec<NodeId>,
    /// The MANA tap on the external switch.
    pub external_tap: TapId,
    /// Multi-site only, per site: its operations access switch (where an
    /// attacker's MAC must be known behind the trunk) and its internal and
    /// external WAN trunks (what severing the site cuts).
    site_uplinks: Vec<(SwitchId, [LinkId; 2])>,
    /// Spare external-switch ports for attacker attachment.
    spare_external_ports: Vec<usize>,
}

/// A switch's cabling: `plan[i]` is the NIC `(node, ifidx)` on port `i` and
/// the link it hangs on.
type PortPlan = Vec<(NodeId, usize, LinkSpec)>;

/// One overlay's switches: the core switch (the only one on a single LAN,
/// the WAN hub otherwise), its spare ports, and per site the access switch
/// with its trunk to the hub.
struct Overlay {
    core: SwitchId,
    spare_ports: Vec<usize>,
    sites: Vec<(SwitchId, LinkId)>,
}

impl Deployment {
    /// Builds the deployment: `cfg.sites` spreads the replicas (and the
    /// proxies and HMIs homed with them) over sites joined by WAN trunks,
    /// `cfg.substations` puts a LAN with a bank of PLCs behind every proxy;
    /// with neither this is Figure 2's plant.
    ///
    /// `NodeId`, `MacAddr::derived`, `SwitchId`, `LinkId` and switch port
    /// numbers are allocation-order and sit under every journal digest, so
    /// the order in which this function adds things is part of its contract.
    pub fn build(cfg: SpireConfig, hardening: HardeningProfile, seed: u64) -> Self {
        let mut sim = Simulation::new(seed);
        let obs = obs::ObsHub::new();
        sim.attach_obs(&obs);
        let h = &hardening;
        let lan = LinkSpec::lan();
        let n_proxies = cfg.proxies.len();
        let bank = cfg.substations.map_or(1, |t| t.devices_per);

        // ---- Hosts: replicas, then per proxy slot the proxy followed by
        // its PLC bank, then HMIs. ----
        let replica_nodes: Vec<NodeId> = (0..cfg.n())
            .map(|i| {
                let mut host = ReplicaHost::new(cfg.clone(), i);
                host.attach_obs(&obs);
                let ips = [cfg.internal_ip(i), cfg.replica_external_ip(i)];
                add_host(&mut sim, &cfg, h, Host::Replica(i), &ips, Box::new(host))
            })
            .collect();
        let mut proxy_nodes = Vec::new();
        let mut plc_nodes = Vec::new();
        for p in 0..n_proxies as u32 {
            let process: Box<dyn Process> = if cfg.substations.is_some() {
                let mut proxy = SubstationProxy::new(cfg.clone(), p);
                proxy.attach_obs(&obs);
                Box::new(proxy)
            } else {
                let mut proxy = PlcProxy::new(cfg.clone(), p);
                proxy.attach_obs(&obs);
                Box::new(proxy)
            };
            let (field_ip, bank_ips) = field_ips(&cfg, p);
            let ips = [cfg.proxy_ip(p), field_ip];
            proxy_nodes.push(add_host(&mut sim, &cfg, h, Host::Proxy(p), &ips, process));
            // The PLC is the *unhardenable* component: no host firewall, no
            // static ARP, speaks unauthenticated Modbus to anyone who can
            // reach it. That is exactly why §III-B puts it behind a proxy
            // on a direct cable.
            for (dev, ip) in (0..).zip(bank_ips) {
                let (name, scenario) = match &cfg.substations {
                    Some(topo) => (format!("plc-s{p}d{dev}"), topo.device_scenario(p, dev)),
                    None => (format!("plc-{p}"), cfg.proxies[p as usize].scenario),
                };
                let node = sim.add_node(NodeSpec::new(
                    name,
                    vec![InterfaceSpec::dynamic(ip)],
                    Box::new(PlcEmulator::new(scenario)),
                ));
                if let Some(plc) = sim.process_mut::<PlcEmulator>(node) {
                    plc.attach_obs(&obs, node.0);
                }
                plc_nodes.push(node);
            }
        }
        let hmi_nodes: Vec<NodeId> = (0..cfg.hmis)
            .map(|i| {
                let mut hmi = HmiHost::new(cfg.clone(), i);
                hmi.attach_obs(&obs);
                add_host(
                    &mut sim,
                    &cfg,
                    h,
                    Host::Hmi(i),
                    &[cfg.hmi_ip(i)],
                    Box::new(hmi),
                )
            })
            .collect();
        let banks: Vec<&[NodeId]> = plc_nodes.chunks(bank as usize).collect();

        // ---- Port plans, per site. A deployment without a multi-site
        // placement (§IV/§V, `6@1`, regional) is one site holding
        // everything. A site's operations switch carries
        //   [replicas if1][proxies if0][hmis if0]
        //   [replicas if0 if the LAN is shared][proxy if1 + plc if0 if exposed]
        // and its internal switch, unless the LAN is shared, [replicas if0].
        // Substation proxies hang on a WAN uplink instead of a LAN cable. ----
        let wan = cfg.sites.as_ref().filter(|t| t.site_count() > 1);
        let members: Vec<Vec<u32>> = match wan {
            Some(topo) => topo.sites.iter().map(|s| s.replicas.clone()).collect(),
            None => vec![(0..cfg.n()).collect()],
        };
        let uplink = match &cfg.substations {
            Some(topo) => wan_link(topo.wan_latency, topo.wan_loss),
            None => lan,
        };
        // Replication between sites cannot share an operations LAN, and a
        // substation bank is never on one.
        let shared_lan = !h.isolated_internal && wan.is_none();
        let exposed = !h.plc_behind_proxy && cfg.substations.is_none();
        // Under `static_switch` an overlay's MAC tables name its own NICs
        // `(mac, home site)` only: an exposed PLC is reachable inside its
        // site, not across a trunk.
        let (mut internal_plans, mut internal_macs) = (Vec::new(), Vec::new());
        let (mut ops_plans, mut ops_macs) = (Vec::new(), Vec::new());
        for (s, replicas) in members.iter().enumerate() {
            let nics = |ifidx: usize| -> PortPlan {
                let nic = |&r: &u32| (replica_nodes[r as usize], ifidx, lan);
                replicas.iter().map(nic).collect()
            };
            let macs = |plan: &PortPlan| -> Vec<(MacAddr, usize)> {
                let mac = |&(node, ifidx, _): &(NodeId, usize, LinkSpec)| {
                    (MacAddr::derived(node, ifidx as u8), s)
                };
                plan.iter().map(mac).collect()
            };
            let proxies: Vec<usize> = (0..n_proxies)
                .filter(|&p| wan.map_or(0, |t| t.home_of_proxy(p as u32)) == s)
                .collect();
            let hmis = (0..cfg.hmis).filter(|&i| wan.map_or(0, |t| t.home_of_hmi(i)) == s);
            let (internal, mut ops) = (nics(0), nics(1));
            ops.extend(proxies.iter().map(|&p| (proxy_nodes[p], 0, uplink)));
            ops.extend(hmis.map(|i| (hmi_nodes[i as usize], 0, lan)));
            internal_macs.extend(macs(&internal));
            ops_macs.extend(macs(&ops));
            if shared_lan {
                ops.extend(&internal);
            }
            if exposed {
                ops.extend(proxies.iter().map(|&p| (proxy_nodes[p], 1, lan)));
                ops.extend(proxies.iter().map(|&p| (banks[p][0], 0, lan)));
            }
            internal_plans.push(internal);
            ops_plans.push(ops);
        }

        // ---- Switches. A WAN fabric numbers its replication switches
        // first, a single LAN its operations switch; a WAN replication hub
        // has no spare ports to plug into. ----
        let internal_spare = if wan.is_some() { 0 } else { SPARE_PORTS };
        let add_internal = |sim: &mut Simulation| {
            add_overlay(sim, h, wan, &internal_plans, &internal_macs, internal_spare)
        };
        let wan_internal = wan.map(|_| add_internal(&mut sim));
        let ops = add_overlay(&mut sim, h, wan, &ops_plans, &ops_macs, SPARE_PORTS);
        let internal = wan_internal.or_else(|| (!shared_lan).then(|| add_internal(&mut sim)));
        let external_tap = sim.add_tap(ops.core);

        // ---- Field side of each proxy slot: a substation LAN, the direct
        // cable, or (exposed) the operations ports planned above. ----
        for (&proxy, plcs) in proxy_nodes.iter().zip(&banks) {
            if cfg.substations.is_some() {
                let mut plan = vec![(proxy, 1, lan)];
                plan.extend(plcs.iter().map(|&plc| (plc, 0, lan)));
                add_switch(&mut sim, h, &plan, 0, &[]);
            } else if h.plc_behind_proxy {
                sim.connect_direct((proxy, 1), (plcs[0], 0), LinkSpec::cable());
            }
        }

        // ---- Static ARP provisioning: replicas know their internal peers
        // on if0 and every operations participant on if1; proxies and HMIs
        // every participant on if0; a proxy its bank on if1. (The PLC keeps
        // dynamic ARP — real devices cannot be provisioned with static
        // tables.) ----
        if h.static_arp {
            let ops_nics: Vec<(NodeId, usize)> = (replica_nodes.iter().map(|&node| (node, 1)))
                .chain(proxy_nodes.iter().chain(&hmi_nodes).map(|&node| (node, 0)))
                .collect();
            for &(node, ifidx) in &ops_nics {
                for &(peer, peer_if) in &ops_nics {
                    sim.install_arp(
                        node,
                        ifidx,
                        sim.ip_of(peer, peer_if),
                        sim.mac_of(peer, peer_if),
                    );
                }
            }
            for &node in &replica_nodes {
                for &peer in replica_nodes.iter().filter(|&&peer| peer != node) {
                    sim.install_arp(node, 0, sim.ip_of(peer, 0), sim.mac_of(peer, 0));
                }
            }
            for (&proxy, plcs) in proxy_nodes.iter().zip(&banks) {
                for &plc in plcs.iter() {
                    sim.install_arp(proxy, 1, sim.ip_of(plc, 0), sim.mac_of(plc, 0));
                }
            }
        }

        let internal_switch = internal.as_ref().filter(|_| wan.is_none()).map(|o| o.core);
        let internal_sites = internal.map(|o| o.sites).unwrap_or_default();
        let site_uplinks = ops
            .sites
            .iter()
            .zip(internal_sites)
            .map(|(&(access, ext_trunk), (_, int_trunk))| (access, [int_trunk, ext_trunk]))
            .collect();
        Deployment {
            sim,
            obs,
            cfg,
            hardening,
            external_switch: ops.core,
            internal_switch,
            replica_nodes,
            proxy_nodes,
            plc_nodes,
            hmi_nodes,
            external_tap,
            site_uplinks,
            spare_external_ports: ops.spare_ports,
        }
    }

    /// Sets every replica's protocol timing.
    pub fn set_timing(&mut self, timing: Timing) {
        for i in 0..self.cfg.n() {
            self.replica_mut(i).set_timing(timing);
        }
    }
    /// Runs the simulation for `dur`.
    pub fn run_for(&mut self, dur: SimDuration) {
        self.sim.run_for(dur);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The process on `node`, which the node lists guarantee is a `T`.
    fn host<T: Process>(&self, node: NodeId) -> &T {
        let found = self.sim.process_ref(node);
        found.unwrap_or_else(|| panic!("{node:?} hosts no {}", std::any::type_name::<T>()))
    }

    /// Mutable twin of [`Deployment::host`].
    fn host_mut<T: Process>(&mut self, node: NodeId) -> &mut T {
        let found = self.sim.process_mut(node);
        found.unwrap_or_else(|| panic!("{node:?} hosts no {}", std::any::type_name::<T>()))
    }

    /// Read access to replica host `i`.
    pub fn replica(&self, i: u32) -> &ReplicaHost {
        self.host(self.replica_nodes[i as usize])
    }

    /// Mutable access to replica host `i` (fault injection, daemon
    /// manipulation — the attacker's hands-on-keyboard access).
    pub fn replica_mut(&mut self, i: u32) -> &mut ReplicaHost {
        self.host_mut(self.replica_nodes[i as usize])
    }

    /// Read access to proxy `p`.
    pub fn proxy(&self, p: u32) -> &PlcProxy {
        self.host(self.proxy_nodes[p as usize])
    }

    /// Mutable access to proxy `p`.
    pub fn proxy_mut(&mut self, p: u32) -> &mut PlcProxy {
        self.host_mut(self.proxy_nodes[p as usize])
    }

    /// Read access to substation proxy `s` (regional deployments).
    pub fn substation_proxy(&self, s: u32) -> &SubstationProxy {
        self.host(self.proxy_nodes[s as usize])
    }

    /// Mutable access to substation proxy `s` (compromise injection,
    /// sweep cadence).
    pub fn substation_proxy_mut(&mut self, s: u32) -> &mut SubstationProxy {
        self.host_mut(self.proxy_nodes[s as usize])
    }

    /// Number of substations (0 for flat deployments).
    pub fn substation_count(&self) -> u32 {
        self.cfg.substations.map(|t| t.count).unwrap_or(0)
    }

    /// The WAN trunk of substation `s` — its proxy's uplink (regional
    /// only).
    pub fn substation_link(&self, s: u32) -> Option<LinkId> {
        self.cfg.substations?;
        self.sim.link_of(*self.proxy_nodes.get(s as usize)?, 0)
    }

    /// Raises or drops substation `s`'s WAN trunk — the chaos engine's
    /// substation-flap actuator. No-op for flat deployments.
    pub fn set_substation_link_up(&mut self, s: u32, up: bool) {
        if let Some(link) = self.substation_link(s) {
            self.sim.set_link_up(link, up);
        }
    }

    /// Read access to the PLC behind proxy `p`.
    pub fn plc(&self, p: u32) -> &PlcEmulator {
        self.host(self.plc_nodes[p as usize])
    }

    /// Mutable access to the PLC behind proxy `p` (the measurement device
    /// physically flips breakers through this).
    pub fn plc_mut(&mut self, p: u32) -> &mut PlcEmulator {
        self.host_mut(self.plc_nodes[p as usize])
    }

    /// Read access to HMI `h`.
    pub fn hmi(&self, h: u32) -> &HmiHost {
        self.host(self.hmi_nodes[h as usize])
    }

    /// Mutable access to HMI `h`.
    pub fn hmi_mut(&mut self, h: u32) -> &mut HmiHost {
        self.host_mut(self.hmi_nodes[h as usize])
    }

    /// Whether replica `i`'s node is currently up (reachable on the
    /// overlays). Observable health, not oracle knowledge: a response
    /// controller may key off this without peeking at fault schedules.
    pub fn replica_up(&self, i: u32) -> bool {
        self.sim.node_up(self.replica_nodes[i as usize])
    }

    /// Probes replica `i`'s flight-recorder health gauges (PO-queue
    /// depth, TAT, view, catch-up flag) at the current simulated time.
    /// Works whether or not periodic health journaling is armed.
    pub fn replica_health(&self, i: u32) -> prime::replica::HealthSample {
        self.replica(i).replica.health_sample(self.now())
    }

    /// Pushes a status-update rate limit into proxy `p` (`None` lifts
    /// it) — the response controller's throttling actuator.
    pub fn set_proxy_rate_limit(&mut self, p: u32, min_interval: Option<SimDuration>) {
        self.proxy_mut(p).set_update_rate_limit(min_interval);
    }

    /// Takes replica `i` down for proactive recovery (or a crash).
    pub fn take_replica_down(&mut self, i: u32) {
        self.obs.journal(obs::Event::RecoveryStart { replica: i });
        self.sim.set_node_up(self.replica_nodes[i as usize], false);
    }

    /// Brings replica `i` back with a clean, re-diversified image. The new
    /// host immediately runs Prime's recovery (catch-up + app-level state
    /// transfer).
    pub fn restore_replica(&mut self, i: u32) {
        self.reinstall_replica(i, true);
    }

    /// Powers replica `i`'s node up with a factory-fresh host.
    fn reinstall_replica(&mut self, i: u32, pending_recovery: bool) {
        let node = self.replica_nodes[i as usize];
        self.sim.set_node_up(node, true);
        let mut host = ReplicaHost::new(self.cfg.clone(), i);
        host.attach_obs(&self.obs);
        host.pending_recovery = pending_recovery;
        self.sim.replace_process(node, Box::new(host));
    }

    /// Runs the deployment for `dur` with a proactive-recovery scheduler
    /// driving replica rejuvenation (take down → clean restart → Prime
    /// catch-up + application state transfer), the §II long-lifetime
    /// defense. At most one replica is down at a time per the scheduler's
    /// `k`. Returns the number of recoveries completed.
    pub fn run_with_recovery(
        &mut self,
        dur: SimDuration,
        scheduler: &mut diversity::recovery::RecoveryScheduler,
    ) -> u64 {
        let deadline = self.now() + dur;
        let step = SimDuration::from_millis(500);
        let mut down: Option<(u32, SimTime)> = None;
        while self.now() < deadline {
            self.sim.run_for(step);
            let now = self.now();
            if let Some((replica, finish)) = down {
                if now >= finish {
                    self.restore_replica(replica);
                    down = None;
                }
            }
            if down.is_none() {
                for event in scheduler.poll(now) {
                    self.take_replica_down(event.replica);
                    down = Some((event.replica, event.finish));
                }
            }
        }
        if let Some((replica, _)) = down {
            self.restore_replica(replica);
        }
        scheduler.completed
    }

    /// The §III-A automatic system reset for assumption breaches that no
    /// replica quorum survives: every replica restarts together from a
    /// clean image with *empty* state (a fresh replication era). Field
    /// polling then repopulates the SCADA state from ground truth.
    pub fn system_reset(&mut self) {
        for i in 0..self.cfg.n() {
            self.reinstall_replica(i, false);
        }
    }

    /// Attaches an attacker node to the external (operations) switch on a
    /// spare port. Returns the node id.
    ///
    /// # Panics
    ///
    /// Panics when no spare ports remain.
    pub fn attach_external_attacker(&mut self, spec: NodeSpec) -> NodeId {
        let port = self
            .spare_external_ports
            .pop()
            .expect("spare external port");
        let node = self.sim.add_node(spec);
        self.sim
            .connect(node, 0, self.external_switch, port, LinkSpec::lan());
        // The attacker's own MAC is legitimate on its port (they occupy a
        // real network drop); spoofing *other* MACs is what port security
        // blocks.
        let mac = MacAddr::derived(node, 0);
        self.sim
            .authorize_switch_port(self.external_switch, mac, port);
        // Multi-site: the drop is at the WAN hub, so each site switch
        // learns the attacker's MAC behind its trunk (last port).
        for &(sw, _) in &self.site_uplinks {
            let trunk_port = self.sim.switch(sw).port_count() - 1;
            self.sim.authorize_switch_port(sw, mac, trunk_port);
        }
        node
    }

    /// Partitions the internal (replication) switch so the `isolated`
    /// replicas can only talk among themselves; everyone else stays in
    /// the majority group. Internal switch port `i` hosts replica `i` by
    /// construction. Returns false when no internal switch exists.
    pub fn partition_internal(&mut self, isolated: &[u32]) -> bool {
        let Some(sw) = self.internal_switch else {
            return false;
        };
        let groups: BTreeMap<usize, u32> = isolated.iter().map(|&r| (r as usize, 1u32)).collect();
        self.sim.set_switch_partition(sw, groups);
        true
    }

    /// Heals an internal-switch partition (no-op when none is active).
    pub fn heal_internal_partition(&mut self) {
        if let Some(sw) = self.internal_switch {
            self.sim.clear_switch_partition(sw);
        }
    }

    /// Severs an entire site from the deployment — the E13 fault.
    ///
    /// Multi-site placements lose the site's internal *and* external WAN
    /// trunks (everything inside the site keeps running, cut off from the
    /// world). The single-site `6@1` placement has no trunks to cut:
    /// losing "the site" takes down every replica's access links instead,
    /// which is the point — there is no remaining site to fail over to.
    ///
    /// No-op for deployments without a site topology.
    pub fn sever_site(&mut self, site: usize) {
        self.set_site_connectivity(site, false);
    }

    /// Reconnects a severed site (reverse of [`Deployment::sever_site`]).
    pub fn heal_site(&mut self, site: usize) {
        self.set_site_connectivity(site, true);
    }

    fn set_site_connectivity(&mut self, site: usize, up: bool) {
        if !self.site_uplinks.is_empty() {
            for trunk in self.site_uplinks[site].1 {
                self.sim.set_link_up(trunk, up);
            }
        } else if let Some(topo) = &self.cfg.sites {
            let nodes: Vec<NodeId> = topo
                .replicas_of(site)
                .iter()
                .map(|&r| self.replica_nodes[r as usize])
                .collect();
            for node in nodes {
                for ifidx in 0..2 {
                    if let Some(link) = self.sim.link_of(node, ifidx) {
                        self.sim.set_link_up(link, up);
                    }
                }
            }
        }
    }

    /// What ordering can still do after losing `site` (see
    /// [`crate::site::SiteTopology::survival_after_losing`]). `None` for
    /// deployments without a site topology.
    pub fn site_survival(&self, site: usize) -> Option<SurvivalMode> {
        self.cfg
            .sites
            .as_ref()
            .map(|t| t.survival_after_losing(&self.cfg.prime, site))
    }

    /// The management-plane failover after `site` is lost: when the
    /// survivors cannot meet the native quorum but a degraded membership
    /// epoch is possible, installs that epoch on every survivor. Returns
    /// the survival mode so the caller knows what to expect (`None` when
    /// no site topology is configured).
    pub fn failover_after_site_loss(&mut self, site: usize) -> Option<SurvivalMode> {
        let survival = self.site_survival(site)?;
        if let SurvivalMode::DegradedEpoch(membership) = &survival {
            let now = self.now();
            let members = membership.members().to_vec();
            for r in members {
                let m = membership.clone();
                self.replica_mut(r).replica.set_membership(m, now);
            }
        }
        Some(survival)
    }

    /// The management-plane failback once a severed site heals: every
    /// replica returns to the full static membership (the previously
    /// severed ones never left it) and the protocol's catch-up machinery
    /// brings them up to date.
    pub fn failback_full_membership(&mut self) {
        for i in 0..self.cfg.n() {
            self.replica_mut(i).replica.clear_membership();
        }
    }

    /// Minimum executed count across the given (presumed live) replicas.
    pub fn min_executed_among(&self, replicas: &[u32]) -> u64 {
        replicas
            .iter()
            .map(|&i| self.replica(i).replica.exec_seq())
            .min()
            .unwrap_or(0)
    }

    /// The link attached to replica `i`'s interface `ifidx` (0 =
    /// internal/replication, 1 = external/operations).
    pub fn replica_link(&self, i: u32, ifidx: usize) -> Option<LinkId> {
        self.sim.link_of(self.replica_nodes[i as usize], ifidx)
    }

    /// Minimum executed count across correct replicas.
    pub fn min_executed(&self) -> u64 {
        (0..self.cfg.n())
            .filter(|&i| self.replica_up(i))
            .map(|i| self.replica(i).replica.exec_seq())
            .min()
            .unwrap_or(0)
    }
}

/// A hardenable host (everything but a PLC), by role and index.
#[derive(Clone, Copy, PartialEq)]
enum Host {
    Replica(u32),
    Proxy(u32),
    Hmi(u32),
}

/// Adds hardenable host `host` with a NIC per address in `ips`: static or
/// dynamic ARP, cross-interface ARP answers and the strong-host model per
/// `hardening`, behind its [`firewall`].
fn add_host(
    sim: &mut Simulation,
    cfg: &SpireConfig,
    hardening: &HardeningProfile,
    host: Host,
    ips: &[IpAddr],
    process: Box<dyn Process>,
) -> NodeId {
    let name = match host {
        Host::Replica(i) => format!("replica-{i}"),
        Host::Proxy(p) if cfg.substations.is_some() => format!("substation-{p}"),
        Host::Proxy(p) => format!("proxy-{p}"),
        Host::Hmi(i) => format!("hmi-{i}"),
    };
    let iface = |&ip: &IpAddr| match hardening.static_arp {
        true => InterfaceSpec::static_arp(ip),
        false => InterfaceSpec::dynamic(ip),
    };
    let mut spec = NodeSpec::new(name, ips.iter().map(iface).collect(), process);
    spec.answers_arp_for_other_ifaces = !hardening.no_cross_iface_arp;
    spec.strict_interface_binding = hardening.firewall_lockdown;
    spec.firewall = firewall(cfg, hardening, host);
    sim.add_node(spec)
}

/// The field side of proxy slot `p`: the proxy's own address there and its
/// bank's — a substation LAN, or the plant's one PLC on a cable.
fn field_ips(cfg: &SpireConfig, p: u32) -> (IpAddr, Vec<IpAddr>) {
    match &cfg.substations {
        Some(topo) => {
            let bank = (0..topo.devices_per).map(|dev| cfg.device_index(p, dev));
            (
                cfg.device_lan_proxy_ip(cfg.device_index(p, 0)),
                bank.map(|idx| cfg.device_lan_plc_ip(idx)).collect(),
            )
        }
        None => (cfg.proxy_cable_ip(p), vec![cfg.plc_cable_ip(p)]),
    }
}

/// A WAN trunk with the given one-way latency and loss.
fn wan_link(latency: SimDuration, loss: f64) -> LinkSpec {
    LinkSpec {
        latency,
        loss,
        ..LinkSpec::wan()
    }
}

/// Makes one switch: `plan[i]` is cabled to port `i`, `extra` more ports
/// stay empty for the caller (trunks, attacker drops), and under
/// `static_switch` the MAC table holds every planned NIC on its port plus
/// `behind` — the MACs that live behind a trunk port.
fn add_switch(
    sim: &mut Simulation,
    hardening: &HardeningProfile,
    plan: &[(NodeId, usize, LinkSpec)],
    extra: usize,
    behind: &[(MacAddr, usize)],
) -> SwitchId {
    let mode = if hardening.static_switch {
        let planned = plan.iter().enumerate();
        let planned =
            planned.map(|(port, &(node, ifidx, _))| (MacAddr::derived(node, ifidx as u8), port));
        SwitchMode::Static {
            map: planned.chain(behind.iter().copied()).collect(),
            enforce_ingress: true,
        }
    } else {
        SwitchMode::Learning
    };
    let switch = sim.add_switch(plan.len() + extra, mode);
    for (port, &(node, ifidx, spec)) in plan.iter().enumerate() {
        sim.connect(node, ifidx, switch, port, spec);
    }
    switch
}

/// Makes one overlay's switches from its per-site port plans. A single LAN
/// (`wan` is `None`) is one switch with `spare` ports left over. A
/// wide-area placement is an access switch per site, trunked — with that
/// site's uplink latency and loss; the trunk is the thing E13 severs — to
/// its own port of a WAN hub that keeps `spare` more. `macs` lists the
/// overlay's `(mac, home site)`: what each static switch must expect
/// behind a trunk.
fn add_overlay(
    sim: &mut Simulation,
    hardening: &HardeningProfile,
    wan: Option<&SiteTopology>,
    plans: &[PortPlan],
    macs: &[(MacAddr, usize)],
    spare: usize,
) -> Overlay {
    let Some(topo) = wan else {
        let taken = plans[0].len();
        return Overlay {
            core: add_switch(sim, hardening, &plans[0], spare, &[]),
            spare_ports: (taken..taken + spare).collect(),
            sites: Vec::new(),
        };
    };
    let hub = add_switch(sim, hardening, &[], plans.len() + spare, macs);
    let mut sites = Vec::new();
    for (s, (plan, site)) in plans.iter().zip(&topo.sites).enumerate() {
        let trunk_port = plan.len();
        let remote = macs.iter().filter(|&&(_, home)| home != s);
        let behind: Vec<_> = remote.map(|&(mac, _)| (mac, trunk_port)).collect();
        let access = add_switch(sim, hardening, plan, 1, &behind);
        let trunk = wan_link(site.wan_latency, site.wan_loss);
        sites.push((
            access,
            sim.connect_switches((access, trunk_port), (hub, s), trunk),
        ));
    }
    Overlay {
        core: hub,
        spare_ports: (plans.len()..plans.len() + spare).collect(),
        sites,
    }
}

/// The host firewall: open without `firewall_lockdown`; with it,
/// default-deny plus exactly the peer/port pairs the host's protocols use.
/// Everyone hears every replica's external daemon. Beyond that a replica
/// hears its peers' internal daemons, every proxy and every HMI; a plant
/// proxy the other proxies, the HMIs and its PLC; a substation proxy only
/// its bank; an HMI the proxies.
fn firewall(cfg: &SpireConfig, hardening: &HardeningProfile, host: Host) -> Firewall {
    if !hardening.firewall_lockdown {
        return Firewall::open();
    }
    let mut fw = Firewall::locked_down();
    // The open OS profile leaves extra services listening; model that as
    // IPv6 left on (an extra, unfirewalled surface flag).
    fw.ipv6_enabled = hardening.os == OsProfile::UbuntuDesktop;
    let is_replica = matches!(host, Host::Replica(_));
    let substation = matches!(host, Host::Proxy(_)) && cfg.substations.is_some();
    for j in (0..cfg.n()).filter(|&j| host != Host::Replica(j)) {
        fw.allow(cfg.replica_external_ip(j), EXTERNAL_SPINES_PORT);
        if is_replica {
            fw.allow(cfg.internal_ip(j), INTERNAL_SPINES_PORT);
        }
    }
    if !substation {
        for p in (0..cfg.proxies.len() as u32).filter(|&p| host != Host::Proxy(p)) {
            fw.allow(cfg.proxy_ip(p), EXTERNAL_SPINES_PORT);
        }
    }
    if is_replica || (matches!(host, Host::Proxy(_)) && !substation) {
        for i in 0..cfg.hmis {
            fw.allow(cfg.hmi_ip(i), EXTERNAL_SPINES_PORT);
        }
    }
    if let Host::Proxy(me) = host {
        let port = match substation {
            true => SUBSTATION_MODBUS_PORT,
            false => PROXY_MODBUS_PORT,
        };
        for ip in field_ips(cfg, me).1 {
            fw.allow(ip, port);
        }
    }
    fw
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc::topology::Scenario;
    use prime::types::Config as PrimeConfig;
    use std::iter::repeat;

    fn minimal_deployment() -> Deployment {
        let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::PlantSubset);
        let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 7);
        d.set_timing(fast_timing());
        d
    }

    #[test]
    fn end_to_end_rtu_status_reaches_hmi() {
        let mut d = minimal_deployment();
        d.run_for(SimDuration::from_secs(5));
        // The proxy polled, masters ordered the status, the HMI displays it.
        assert!(d.proxy(0).stats.updates_sent >= 1, "proxy sent updates");
        assert!(d.min_executed() >= 1, "replicas executed status updates");
        let hmi = d.hmi(0);
        assert!(
            hmi.stats.frames_applied >= 1,
            "HMI applied a vote-gated frame"
        );
        assert_eq!(
            hmi.hmi.positions("plant"),
            Some(vec![true, true, true].as_slice()),
            "initial breaker positions shown"
        );
    }

    #[test]
    fn end_to_end_hmi_command_actuates_breaker() {
        let mut d = minimal_deployment();
        d.run_for(SimDuration::from_secs(2));
        // Operator opens breaker B57 (index 1) from the HMI.
        let node = d.hmi_nodes[0];
        // Drive the command through the process API by injecting a cycle
        // of one flip targeted at breaker... simpler: call issue_command
        // via a one-off context is not possible from outside; use the
        // cycle generator instead.
        let _ = node;
        d.hmi_mut(0).set_cycle(crate::hmi_host::CycleConfig {
            scenario: Scenario::PlantSubset,
            period: SimDuration::from_millis(200),
            max_flips: 1,
        });
        // Re-arm by restarting the HMI process timer: the cycle only arms
        // on start, so trigger one step manually through a fresh start.
        let cfg = d.cfg.clone();
        let mut host = HmiHost::new(cfg, 0);
        host.set_cycle(crate::hmi_host::CycleConfig {
            scenario: Scenario::PlantSubset,
            period: SimDuration::from_millis(200),
            max_flips: 1,
        });
        d.sim.replace_process(d.hmi_nodes[0], Box::new(host));
        d.run_for(SimDuration::from_secs(5));
        // The first cycle step opens breaker 0 (B10-1).
        assert!(!d.plc(0).positions()[0], "breaker opened in the field");
        assert!(d.proxy(0).stats.commands_actuated >= 1);
        // And the new field state flowed back to the HMI display.
        let hmi = d.hmi(0);
        assert_eq!(hmi.hmi.positions("plant").map(|p| p[0]), Some(false));
    }

    #[test]
    fn hardened_deployment_uses_static_infrastructure() {
        let d = minimal_deployment();
        let sw = d.sim.switch(d.external_switch);
        assert!(matches!(sw.mode, SwitchMode::Static { .. }));
        assert!(d.internal_switch.is_some());
        assert_eq!(d.sim.firewall_drops(d.replica_nodes[0]), 0);
    }

    #[test]
    fn unhardened_deployment_uses_learning_and_shared_network() {
        let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::PlantSubset);
        let mut d = Deployment::build(cfg, HardeningProfile::none(), 8);
        d.set_timing(fast_timing());
        assert!(
            d.internal_switch.is_none(),
            "replication shares the ops network"
        );
        let sw = d.sim.switch(d.external_switch);
        assert!(matches!(sw.mode, SwitchMode::Learning));
        // The system still works without hardening — it is just exposed.
        d.run_for(SimDuration::from_secs(5));
        assert!(d.min_executed() >= 1);
        assert!(d.hmi(0).stats.frames_applied >= 1);
    }

    #[test]
    fn multi_site_deployment_runs_end_to_end() {
        let cfg = SpireConfig::minimal(PrimeConfig::plant(), Scenario::PlantSubset)
            .with_sites(crate::site::SiteTopology::three_plus_three());
        let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 7);
        d.set_timing(fast_timing());
        assert_eq!(d.site_uplinks.len(), 2);
        d.run_for(SimDuration::from_secs(5));
        // Ordering spans the WAN: replicas at *both* sites execute, and
        // the site-0 HMI sees vote-gated frames assembled from replies
        // that crossed the trunks.
        assert!(d.min_executed() >= 1, "all six replicas execute");
        assert!(d.hmi(0).stats.frames_applied >= 1);
    }

    #[test]
    fn severed_site_triggers_degraded_epoch_and_failback() {
        let cfg = SpireConfig::minimal(PrimeConfig::plant(), Scenario::PlantSubset)
            .with_sites(crate::site::SiteTopology::three_plus_three());
        let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 9);
        d.set_timing(fast_timing());
        d.run_for(SimDuration::from_secs(3));
        let before = d.min_executed_among(&[0, 1, 2]);
        assert!(before >= 1);
        // Lose cc-b entirely: three survivors < native quorum 4.
        d.sever_site(1);
        match d.failover_after_site_loss(1) {
            Some(crate::site::SurvivalMode::DegradedEpoch(m)) => {
                assert_eq!(m.members(), &[0, 1, 2]);
            }
            other => panic!("expected degraded epoch, got {other:?}"),
        }
        d.run_for(SimDuration::from_secs(5));
        let during = d.min_executed_among(&[0, 1, 2]);
        assert!(
            during > before,
            "degraded epoch keeps ordering: {during} > {before}"
        );
        // The cut-off minority must not have advanced past the survivors.
        assert!(d.min_executed_among(&[3, 4, 5]) <= during);
        // Heal and fail back: everyone reconverges on one state.
        d.heal_site(1);
        d.failback_full_membership();
        d.run_for(SimDuration::from_secs(6));
        let finals: Vec<u64> = (0..6).map(|i| d.replica(i).replica.exec_seq()).collect();
        assert!(
            finals.iter().all(|&e| e >= during),
            "severed replicas caught up: {finals:?}"
        );
        assert!(d.min_executed() > during, "full membership makes progress");
    }

    #[test]
    fn native_quorum_site_loss_needs_no_reconfiguration() {
        let cfg = SpireConfig::minimal(PrimeConfig::plant(), Scenario::PlantSubset)
            .with_sites(crate::site::SiteTopology::two_two_one_one());
        let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 11);
        d.set_timing(fast_timing());
        d.run_for(SimDuration::from_secs(3));
        let survivors = [0u32, 1, 4, 5];
        let before = d.min_executed_among(&survivors);
        d.sever_site(1);
        assert_eq!(
            d.failover_after_site_loss(1),
            Some(crate::site::SurvivalMode::NativeQuorum)
        );
        d.run_for(SimDuration::from_secs(5));
        let during = d.min_executed_among(&survivors);
        assert!(
            during > before,
            "native quorum rides through: {during} > {before}"
        );
    }

    #[test]
    fn single_site_placement_loses_everything_on_sever() {
        let cfg = SpireConfig::minimal(PrimeConfig::plant(), Scenario::PlantSubset)
            .with_sites(crate::site::SiteTopology::six_at_one());
        let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 13);
        d.set_timing(fast_timing());
        // 6@1 keeps the classic single-LAN fabric (no trunks to cut).
        assert!(d.site_uplinks.is_empty());
        d.run_for(SimDuration::from_secs(3));
        let before = d.min_executed();
        assert!(before >= 1);
        d.sever_site(0);
        assert_eq!(d.site_survival(0), Some(crate::site::SurvivalMode::Lost));
        let frames_before = d.hmi(0).stats.frames_applied;
        d.run_for(SimDuration::from_secs(4));
        assert_eq!(d.min_executed(), before, "no replica can execute anything");
        assert_eq!(
            d.hmi(0).stats.frames_applied,
            frames_before,
            "the HMI goes dark"
        );
    }

    fn regional_deployment(stations: u32, per: u32, seed: u64) -> Deployment {
        let cfg = SpireConfig::regional(
            PrimeConfig::plant(),
            crate::site::SubstationTopology::new(stations, per),
        );
        let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
        d.set_timing(fast_timing());
        d
    }

    #[test]
    fn regional_reports_coalesce_device_polls() {
        let mut d = regional_deployment(2, 3, 7);
        assert!(d.substation_link(1).is_some() && d.substation_link(2).is_none());
        assert_eq!(d.plc_nodes.len(), 6);
        d.run_for(SimDuration::from_secs(5));
        let proxy = d.substation_proxy(0);
        assert!(proxy.stats.sweeps_completed >= 1, "bank swept");
        assert!(
            proxy.stats.device_polls >= 3 * proxy.stats.reports_sent,
            "one report coalesces a whole bank: polls {} reports {}",
            proxy.stats.device_polls,
            proxy.stats.reports_sent
        );
        assert!(d.min_executed() >= 1, "replicas ordered substation reports");
        // The HMI shows every device of every substation, not just the
        // proxy's own scenario.
        let hmi = d.hmi(0);
        for s in 0..2 {
            for dev in 0..3 {
                let tag = format!("s{s}d{dev}");
                assert!(
                    hmi.hmi.positions(&tag).is_some(),
                    "HMI has a live view of {tag}"
                );
            }
        }
    }

    #[test]
    fn regional_command_actuates_bank_device() {
        let mut d = regional_deployment(2, 2, 9);
        d.run_for(SimDuration::from_secs(2));
        // Drive a supervisory command at a *non-zero* device of station 1
        // — routing must fall back to substation ownership.
        let cfg = d.cfg.clone();
        let mut host = HmiHost::new(cfg, 0);
        host.set_cycle(crate::hmi_host::CycleConfig {
            scenario: Scenario::SubstationDevice {
                station: 1,
                device: 1,
            },
            period: SimDuration::from_millis(200),
            max_flips: 1,
        });
        d.sim.replace_process(d.hmi_nodes[0], Box::new(host));
        d.run_for(SimDuration::from_secs(5));
        let idx = d.cfg.device_index(1, 1);
        assert!(
            !d.plc(idx).positions()[0],
            "breaker opened on the owning bank device"
        );
        assert!(d.substation_proxy(1).stats.commands_actuated >= 1);
    }

    #[test]
    fn substation_trunk_flap_stalls_and_recovers_reports() {
        let mut d = regional_deployment(2, 2, 11);
        d.run_for(SimDuration::from_secs(3));
        let before = d.substation_proxy(1).stats.reports_sent;
        assert!(before >= 1);
        d.set_substation_link_up(1, false);
        d.run_for(SimDuration::from_secs(2));
        // Reports keep being produced but cannot reach the masters; the
        // executed count for that station's devices stalls. Station 0
        // keeps flowing.
        let exec_mid = d.min_executed();
        d.run_for(SimDuration::from_secs(1));
        assert!(d.min_executed() >= exec_mid, "core keeps ordering");
        d.set_substation_link_up(1, true);
        let frames_before = d.hmi(0).stats.frames_applied;
        d.run_for(SimDuration::from_secs(3));
        assert!(
            d.hmi(0).stats.frames_applied >= frames_before,
            "healed trunk resumes the display pipeline"
        );
        assert!(d.substation_proxy(1).stats.reports_sent > before);
    }

    #[test]
    fn lost_modbus_reply_costs_a_sweep_not_the_substation() {
        let mut d = regional_deployment(1, 2, 13);
        d.run_for(SimDuration::from_secs(2));
        // A bank device is off for 400 ms: the request in flight, and
        // every retry meanwhile, is never answered.
        d.sim.set_node_up(d.plc_nodes[0], false);
        d.run_for(SimDuration::from_millis(400));
        d.sim.set_node_up(d.plc_nodes[0], true);
        d.run_for(SimDuration::from_millis(300));
        let before = d.substation_proxy(0).stats.reports_sent;
        d.run_for(SimDuration::from_secs(1));
        let after = d.substation_proxy(0).stats.reports_sent;
        assert!(after > before, "sweeps resumed: {before} -> {after}");
    }

    #[test]
    fn compromised_substation_proxy_blast_radius_is_local() {
        let mut d = regional_deployment(2, 2, 13);
        d.run_for(SimDuration::from_secs(3));
        d.substation_proxy_mut(1).set_compromised(true);
        d.run_for(SimDuration::from_secs(3));
        // Station 1's view is inverted (the lying aggregator), station
        // 0's stays true to the field.
        let hmi = d.hmi(0);
        let honest = hmi.hmi.positions("s0d0").expect("s0d0 view");
        assert_eq!(honest, d.plc(0).positions(), "honest station undamaged");
        let lied = hmi.hmi.positions("s1d0").expect("s1d0 view");
        let truth = d.plc(d.cfg.device_index(1, 0)).positions();
        assert_ne!(lied, truth, "compromised station misreports");
    }

    /// `fabric hardening fabric-shape journal-digest events-processed` after 300
    /// simulated milliseconds with a breaker cycle, captured from the three
    /// builders that preceded the single one. `NodeId`, `MacAddr::derived`,
    /// `SwitchId`, `LinkId` and switch port numbers are allocation-order: a
    /// builder change that reorders a node, a switch, a port or a link moves
    /// the shape column, and one that changes what the network does moves the
    /// other two. Four shapes are not the old builders': with
    /// `plc_behind_proxy` off (that switch, and `none`) a multi-site access
    /// switch used to seat each exposed proxy-if1 / PLC pair right after its
    /// proxy, where a single LAN seats them all after the HMIs; now both do
    /// the latter. Their digests and event counts are the old ones.
    const FABRIC_PINS: &str = "\
minimal deployed 7d0af5f8 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3123
minimal none e17720f2 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3760
minimal static_arp 7d0af5f8 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3412
minimal static_switch 21c9de8a f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3173
minimal firewall_lockdown 7d0af5f8 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3123
minimal isolated_internal 683326b7 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3123
minimal plc_behind_proxy 19bbf882 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3147
minimal no_cross_iface_arp 7d0af5f8 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3123
minimal os 7d0af5f8 f46768ae8c9b96fbef6cf236fc9b3d7b1e98c9c6135f44b1becddc84a7364f8c 3123
3+3 deployed 9624e1e4 df75ac2ab36bc32cdd9c84ede4ddc56675fff3ba6841cab17a8acd0fa4dcc515 15421
3+3 none 01b1a6c3 76a65080452f3b150b097ed4cfa892a6c0c3bff41693c7920576a05887edc1ca 17735
3+3 static_arp 9624e1e4 20a947886215512a1ed422f2a901c002d10f272c427e8dc4911a6ecc8c55bba6 16804
3+3 static_switch 27298a9b ad33cb0d130576b4318074f4856d82fb6cd38d01ff0add5325f1068c1ca11074 15769
3+3 firewall_lockdown 9624e1e4 76a65080452f3b150b097ed4cfa892a6c0c3bff41693c7920576a05887edc1ca 15837
3+3 isolated_internal 9624e1e4 df75ac2ab36bc32cdd9c84ede4ddc56675fff3ba6841cab17a8acd0fa4dcc515 15421
3+3 plc_behind_proxy d2b13dc6 21cddde124a3b61bd73bdfa1e045a60e6ea56327a9848a9d8479781514863ac8 15467
3+3 no_cross_iface_arp 9624e1e4 df75ac2ab36bc32cdd9c84ede4ddc56675fff3ba6841cab17a8acd0fa4dcc515 15421
3+3 os 9624e1e4 df75ac2ab36bc32cdd9c84ede4ddc56675fff3ba6841cab17a8acd0fa4dcc515 15421
2+2+1+1 deployed 8ac4de50 a1798f074a6d91de8e2b04eba9d7c8507abdba544d633a4ecf99f9ab2d290f7f 21235
2+2+1+1 none 438bed5f acade1bdb78eca2c0ab19c3f6ed3996f93f1b5f88e9b8eda5f43a891b58dfd79 23770
2+2+1+1 static_arp 8ac4de50 ff84bca5df13673a3cd2f13dc5c50500e184ea23a278cf1aedaea352b9e57bd2 22908
2+2+1+1 static_switch c78073f7 a1798f074a6d91de8e2b04eba9d7c8507abdba544d633a4ecf99f9ab2d290f7f 21701
2+2+1+1 firewall_lockdown 8ac4de50 acade1bdb78eca2c0ab19c3f6ed3996f93f1b5f88e9b8eda5f43a891b58dfd79 21651
2+2+1+1 isolated_internal 8ac4de50 a1798f074a6d91de8e2b04eba9d7c8507abdba544d633a4ecf99f9ab2d290f7f 21235
2+2+1+1 plc_behind_proxy feba0821 09bfd358d221c42aabcd68e2791b9db6c93c2a8cd2f7ab7295afa990e315ecd3 21267
2+2+1+1 no_cross_iface_arp 8ac4de50 a1798f074a6d91de8e2b04eba9d7c8507abdba544d633a4ecf99f9ab2d290f7f 21235
2+2+1+1 os 8ac4de50 a1798f074a6d91de8e2b04eba9d7c8507abdba544d633a4ecf99f9ab2d290f7f 21235
6@1 deployed abfd7402 444e6914d734fdaa5a2899b8310a668165ab96a63a317f7e3b70f2e428d7395c 23201
6@1 none ce826ee6 17508ab27b72e1264ca0d3a37aee8c7be92ec2cf558923563d35ea76946014c8 28058
6@1 static_arp abfd7402 ee204a5bd0dc118a025ca15c68416e785f49ab2fbd95d2d171a9a7d075a68133 24866
6@1 static_switch b760d604 f657cdf0100be8477890594b237e359524f8972a7d2ed7dc0de2b714908aa1df 23625
6@1 firewall_lockdown abfd7402 17508ab27b72e1264ca0d3a37aee8c7be92ec2cf558923563d35ea76946014c8 23729
6@1 isolated_internal 9d5fbf1f 444e6914d734fdaa5a2899b8310a668165ab96a63a317f7e3b70f2e428d7395c 23201
6@1 plc_behind_proxy 97aa0e4a 9df83b0a09bf634aff9f1e147bc193d1099564218b0097dda3413876c8e5ce1d 23287
6@1 no_cross_iface_arp abfd7402 444e6914d734fdaa5a2899b8310a668165ab96a63a317f7e3b70f2e428d7395c 23201
6@1 os abfd7402 444e6914d734fdaa5a2899b8310a668165ab96a63a317f7e3b70f2e428d7395c 23201
regional-2x3 deployed 73042505 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12166
regional-2x3 none 09f01b52 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 13292
regional-2x3 static_arp 73042505 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12746
regional-2x3 static_switch c1e67822 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12322
regional-2x3 firewall_lockdown 73042505 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12166
regional-2x3 isolated_internal c6c578e7 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12166
regional-2x3 plc_behind_proxy 73042505 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12166
regional-2x3 no_cross_iface_arp 73042505 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12166
regional-2x3 os 73042505 f7a79b28413b3ca26ef6795af247a9975e2b958fc36934304556a83c53dd1440 12166
";

    fn fabric_pin_profiles() -> Vec<(&'static str, HardeningProfile)> {
        let mut profiles = vec![
            ("deployed", HardeningProfile::deployed()),
            ("none", HardeningProfile::none()),
        ];
        for &name in HardeningProfile::switch_names() {
            profiles.push((name, HardeningProfile::without(name)));
        }
        profiles
    }

    /// Every allocation-order id of the fabric, hashed: per switch its MAC
    /// table and the link (with its spec) on each port, per NIC its link.
    /// The journal cannot see a port or a link renumbered; this can.
    fn fabric_shape(d: &Deployment) -> String {
        let mut shape = String::new();
        for id in (0..d.sim.switch_count() as u32).map(SwitchId) {
            let sw = d.sim.switch(id);
            let link = |l: &Option<LinkId>| l.map(|l| (l, d.sim.link_spec(l)));
            let ports: Vec<_> = sw.ports.iter().map(link).collect();
            shape += &format!("{id:?} {:?} {ports:?}\n", sw.mode);
        }
        let two = d.replica_nodes.iter().chain(&d.proxy_nodes);
        let one = d.plc_nodes.iter().chain(&d.hmi_nodes);
        for (&node, nics) in two.zip(repeat(2)).chain(one.zip(repeat(1))) {
            for ifidx in 0..nics {
                shape += &format!("{node:?}.{ifidx} {:?}\n", d.sim.link_of(node, ifidx));
            }
        }
        itcrypto::sha256::sha256(shape.as_bytes()).short()
    }

    fn check_fabric_pins(fabric: &str, cfg: SpireConfig) {
        let mut now = String::new();
        for (profile, hardening) in fabric_pin_profiles() {
            let mut d = Deployment::build(cfg.clone(), hardening, 42);
            let shape = fabric_shape(&d);
            d.set_timing(fast_timing());
            d.run_for(SimDuration::from_millis(300));
            let (digest, events) = (d.obs.journal_digest().to_hex(), d.sim.events_processed());
            now += &format!("{fabric} {profile} {shape} {digest} {events}\n");
        }
        let pinned: String = FABRIC_PINS
            .lines()
            .filter(|line| line.split(' ').next() == Some(fabric))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(now, pinned, "fabric {fabric} moved; it now reads\n{now}");
    }

    fn cycled(cfg: SpireConfig, scenario: Scenario) -> SpireConfig {
        cfg.with_cycle(scenario, SimDuration::from_millis(50), 4)
    }

    /// The plant with its proxies cut from 17 to 3 (two home at one
    /// control centre and one at the other, as do the three HMIs): the
    /// same port plans as the full plant at a fifth of the flooding, which
    /// is what keeps 27 cells inside a debug-build budget. The full plant
    /// under `deployed()` is pinned by `tests/golden_digests.rs`.
    fn small_plant() -> SpireConfig {
        let mut cfg = SpireConfig::plant();
        cfg.proxies.truncate(3);
        cycled(cfg, Scenario::PlantSubset)
    }

    #[test]
    fn fabric_pins_minimal() {
        let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::PlantSubset);
        check_fabric_pins("minimal", cycled(cfg, Scenario::PlantSubset));
    }

    #[test]
    fn fabric_pins_three_plus_three() {
        let cfg = small_plant().with_sites(crate::site::SiteTopology::three_plus_three());
        check_fabric_pins("3+3", cfg);
    }

    #[test]
    fn fabric_pins_two_two_one_one() {
        let cfg = small_plant().with_sites(crate::site::SiteTopology::two_two_one_one());
        check_fabric_pins("2+2+1+1", cfg);
    }

    #[test]
    fn fabric_pins_six_at_one() {
        let cfg = small_plant().with_sites(crate::site::SiteTopology::six_at_one());
        check_fabric_pins("6@1", cfg);
    }

    #[test]
    fn fabric_pins_regional() {
        let cfg = SpireConfig::regional(
            PrimeConfig::plant(),
            crate::site::SubstationTopology::new(2, 3),
        );
        let scenario = Scenario::SubstationDevice {
            station: 1,
            device: 1,
        };
        check_fabric_pins("regional-2x3", cycled(cfg, scenario));
    }

    #[test]
    fn proactive_recovery_round_trip() {
        let mut d = minimal_deployment();
        d.run_for(SimDuration::from_secs(4));
        let exec_before = d.replica(3).replica.exec_seq();
        assert!(exec_before >= 1);
        d.take_replica_down(3);
        d.run_for(SimDuration::from_secs(2));
        d.restore_replica(3);
        d.run_for(SimDuration::from_secs(4));
        let restored = d.replica(3);
        assert!(
            restored.replica.exec_seq() >= exec_before,
            "recovered replica caught up: {} >= {exec_before}",
            restored.replica.exec_seq()
        );
        assert!(
            restored.stats.state_transfers >= 1,
            "app-level state transfer ran"
        );
        // Meanwhile the system never stopped.
        assert!(d.hmi(0).stats.frames_applied >= 1);
    }
}
