//! Deployment configuration: identities, keys, overlays, scenarios.

use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use plc::topology::Scenario;
use prime::types::Config as PrimeConfig;
use simnet::types::{IpAddr, Port};
use spines::config::{SpinesConfig, SpinesMode};
use spines::wan::{Overlay, WanLink, WanSite, WanTopology};

use crate::site::{SiteTopology, SubstationTopology};

/// Spines port of the isolated internal (replication) network.
pub const INTERNAL_SPINES_PORT: Port = Port(8100);
/// Spines port of the external network.
pub const EXTERNAL_SPINES_PORT: Port = Port(8120);

/// Spines group carrying Prime protocol messages (internal network).
pub const GROUP_PRIME: u16 = 1;
/// Spines group carrying client updates to the masters (external).
pub const GROUP_MASTERS: u16 = 2;
/// Base group for per-proxy command delivery: proxy `p` listens on
/// `GROUP_PROXY_BASE + p`.
pub const GROUP_PROXY_BASE: u16 = 100;
/// Base group for per-HMI frame delivery.
pub const GROUP_HMI_BASE: u16 = 300;

/// Key-generation seed bases (distinct namespaces).
const REPLICA_SEED: u64 = 0xAA00;
const PROXY_SEED: u64 = 0xBB00;
const HMI_SEED: u64 = 0xCC00;

/// One proxied field device.
#[derive(Clone, Debug)]
pub struct ProxyAssignment {
    /// Proxy index (0-based).
    pub index: u32,
    /// The scenario/PLC this proxy fronts.
    pub scenario: Scenario,
}

/// Full Spire deployment configuration.
#[derive(Clone, Debug)]
pub struct SpireConfig {
    /// Prime fault configuration.
    pub prime: PrimeConfig,
    /// Proxied scenarios, one proxy per PLC.
    pub proxies: Vec<ProxyAssignment>,
    /// Number of HMIs (the plant deployment had three locations).
    pub hmis: u32,
    /// Master secret of the internal Spines network.
    pub internal_secret: [u8; 32],
    /// Master secret of the external Spines network.
    pub external_secret: [u8; 32],
    /// Breaker-flip cycle armed on HMI 0 at start (§IV-A's "automatic
    /// update generation tool"): `(scenario, period, max_flips)`.
    pub cycle: Option<(Scenario, simnet::time::SimDuration, u64)>,
    /// Multi-site placement. `None` keeps the single-LAN deployments of
    /// §IV/§V exactly as before; `Some` spreads replicas over sites
    /// joined by Spines WAN overlays.
    pub sites: Option<SiteTopology>,
    /// Regional substation hierarchy. `None` keeps the flat one-PLC-per-
    /// proxy deployments exactly as before; `Some` gives every proxy a
    /// whole substation (its own switch, PLC bank, and coalesced
    /// reporting) reached over a WAN trunk.
    pub substations: Option<SubstationTopology>,
}

impl SpireConfig {
    /// The §IV red-team deployment: 4 replicas, the Figure 4 PLC plus ten
    /// emulated distribution PLCs, one HMI.
    pub fn red_team() -> Self {
        let mut proxies = vec![ProxyAssignment {
            index: 0,
            scenario: Scenario::RedTeamDistribution,
        }];
        for i in 0..10u8 {
            proxies.push(ProxyAssignment {
                index: 1 + i as u32,
                scenario: Scenario::EmulatedDistribution(i),
            });
        }
        SpireConfig {
            prime: PrimeConfig::red_team(),
            proxies,
            hmis: 1,
            internal_secret: [0x1A; 32],
            external_secret: [0x2B; 32],
            cycle: None,
            sites: None,
            substations: None,
        }
    }

    /// The §V plant deployment: 6 replicas, the plant's three real
    /// breakers plus ten distribution and six generation PLCs, three HMIs.
    pub fn plant() -> Self {
        let mut proxies = vec![ProxyAssignment {
            index: 0,
            scenario: Scenario::PlantSubset,
        }];
        for i in 0..10u8 {
            proxies.push(ProxyAssignment {
                index: 1 + i as u32,
                scenario: Scenario::EmulatedDistribution(i),
            });
        }
        for i in 0..6u8 {
            proxies.push(ProxyAssignment {
                index: 11 + i as u32,
                scenario: Scenario::EmulatedGeneration(i),
            });
        }
        SpireConfig {
            prime: PrimeConfig::plant(),
            proxies,
            hmis: 3,
            internal_secret: [0x3C; 32],
            external_secret: [0x4D; 32],
            cycle: None,
            sites: None,
            substations: None,
        }
    }

    /// A minimal configuration for tests: `n` per `prime_config`, one
    /// proxied scenario, one HMI.
    pub fn minimal(prime: PrimeConfig, scenario: Scenario) -> Self {
        SpireConfig {
            prime,
            proxies: vec![ProxyAssignment { index: 0, scenario }],
            hmis: 1,
            internal_secret: [0x5E; 32],
            external_secret: [0x6F; 32],
            cycle: None,
            sites: None,
            substations: None,
        }
    }

    /// A regional-grid configuration: one proxy per substation, each
    /// fronting `topo.devices_per` PLCs over its own LAN, all feeding the
    /// replicated masters through the external overlay. The proxy's
    /// configured scenario is its substation's device 0 (the remaining
    /// devices are derived from the topology), so existing per-proxy
    /// identity machinery (keys, client ids, daemon ids, groups) applies
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics when [`SubstationTopology::validate`] refuses `topo`.
    pub fn regional(prime: PrimeConfig, topo: SubstationTopology) -> Self {
        if let Err(why) = topo.validate() {
            panic!("{why}");
        }
        let proxies = (0..topo.count)
            .map(|station| ProxyAssignment {
                index: station,
                scenario: topo.device_scenario(station, 0),
            })
            .collect();
        SpireConfig {
            prime,
            proxies,
            hmis: 1,
            internal_secret: [0x7A; 32],
            external_secret: [0x8B; 32],
            cycle: None,
            sites: None,
            substations: Some(topo),
        }
    }

    /// Arms the breaker-flip cycle on HMI 0.
    pub fn with_cycle(
        mut self,
        scenario: Scenario,
        period: simnet::time::SimDuration,
        max_flips: u64,
    ) -> Self {
        self.cycle = Some((scenario, period, max_flips));
        self
    }

    /// Spreads the deployment over `sites` (a wide-area configuration).
    ///
    /// # Panics
    ///
    /// Panics when the placement's replica count differs from `n`, or on
    /// a regional configuration: its fabric is one operations LAN, and
    /// sites × substations is not built.
    pub fn with_sites(mut self, sites: SiteTopology) -> Self {
        assert!(
            self.substations.is_none(),
            "a regional deployment is one operations LAN: it takes no site placement"
        );
        assert_eq!(
            sites.replica_count(),
            self.n(),
            "site placement must cover exactly the configured replicas"
        );
        self.sites = Some(sites);
        self
    }

    /// Replica count.
    pub fn n(&self) -> u32 {
        self.prime.n()
    }

    /// Internal-network IP of replica `i`.
    pub fn internal_ip(&self, replica: u32) -> IpAddr {
        IpAddr::new(10, 10, 0, 1 + replica as u8)
    }

    /// External-network IP of replica `i`.
    pub fn replica_external_ip(&self, replica: u32) -> IpAddr {
        IpAddr::new(10, 20, 0, 1 + replica as u8)
    }

    /// External-network IP of proxy `p`. The first 50 keep the historic
    /// `10.20.0.51+` block (anything else would perturb pinned digests);
    /// regional deployments with more substations than that spill into
    /// `10.21.0.0/16`, clear of every other address family.
    pub fn proxy_ip(&self, proxy: u32) -> IpAddr {
        if proxy < 50 {
            IpAddr::new(10, 20, 0, 51 + proxy as u8)
        } else {
            let spill = proxy - 50;
            IpAddr::new(10, 21, (spill / 250) as u8, (spill % 250) as u8 + 1)
        }
    }

    /// External-network IP of HMI `h`.
    pub fn hmi_ip(&self, hmi: u32) -> IpAddr {
        IpAddr::new(10, 20, 0, 101 + hmi as u8)
    }

    /// Cable-side IP of proxy `p` (proxy end of the PLC wire).
    pub fn proxy_cable_ip(&self, proxy: u32) -> IpAddr {
        IpAddr::new(192, 168, 1 + proxy as u8, 1)
    }

    /// Cable-side IP of the PLC behind proxy `p`.
    pub fn plc_cable_ip(&self, proxy: u32) -> IpAddr {
        IpAddr::new(192, 168, 1 + proxy as u8, 2)
    }

    /// Global device index of `(station, device)` in a regional
    /// deployment (PLC nodes are laid out station-major).
    pub fn device_index(&self, station: u32, device: u32) -> u32 {
        let topo = self.substations.as_ref().expect("regional config");
        assert!(station < topo.count && device < topo.devices_per);
        station * topo.devices_per + device
    }

    /// Substation-LAN IP of the proxy-side endpoint for global device
    /// `idx` (one /24 per device in `172.16.0.0/14`, far from both the
    /// `10.x` overlay space and the legacy `192.168.x` cables).
    pub fn device_lan_proxy_ip(&self, idx: u32) -> IpAddr {
        assert!(idx < 1024, "device LAN space covers 1024 devices");
        IpAddr::new(172, 16 + (idx / 256) as u8, (idx % 256) as u8, 1)
    }

    /// Substation-LAN IP of PLC `idx` itself.
    pub fn device_lan_plc_ip(&self, idx: u32) -> IpAddr {
        assert!(idx < 1024, "device LAN space covers 1024 devices");
        IpAddr::new(172, 16 + (idx / 256) as u8, (idx % 256) as u8, 2)
    }

    /// The proxy responsible for a scenario tag: an exact scenario match
    /// (the flat deployments, and a substation's own device 0), falling
    /// back to substation ownership for the rest of a regional PLC bank
    /// (`s{station}d{device}` tags all route to proxy `station`).
    pub fn proxy_for_scenario_tag(&self, tag: &str) -> Option<u32> {
        if let Some(p) = self
            .proxies
            .iter()
            .find(|p| p.scenario.tag() == tag)
            .map(|p| p.index)
        {
            return Some(p);
        }
        let station = scada::state::parse_substation(tag)?;
        self.proxies
            .iter()
            .find(|p| matches!(p.scenario, Scenario::SubstationDevice { station: s, .. } if s as u32 == station))
            .map(|p| p.index)
    }

    /// External-daemon id of replica `i` (internal ids equal replica ids).
    pub fn ext_daemon_of_replica(&self, replica: u32) -> u32 {
        replica
    }

    /// External-daemon id of proxy `p`.
    pub fn ext_daemon_of_proxy(&self, proxy: u32) -> u32 {
        self.n() + proxy
    }

    /// External-daemon id of HMI `h`.
    pub fn ext_daemon_of_hmi(&self, hmi: u32) -> u32 {
        self.n() + self.proxies.len() as u32 + hmi
    }

    /// Client principal id of proxy `p` (signs RTU updates).
    pub fn client_of_proxy(&self, proxy: u32) -> u32 {
        proxy
    }

    /// Client principal id of HMI `h` (signs supervisory commands).
    pub fn client_of_hmi(&self, hmi: u32) -> u32 {
        1000 + hmi
    }

    /// Signing key pair of replica `i` (deterministic from the config).
    pub fn replica_keypair(&self, replica: u32) -> KeyPair {
        KeyPair::generate(REPLICA_SEED + replica as u64)
    }

    /// Signing key pair of proxy `p`'s client identity.
    pub fn proxy_keypair(&self, proxy: u32) -> KeyPair {
        KeyPair::generate(PROXY_SEED + proxy as u64)
    }

    /// Signing key pair of HMI `h`'s client identity.
    pub fn hmi_keypair(&self, hmi: u32) -> KeyPair {
        KeyPair::generate(HMI_SEED + hmi as u64)
    }

    /// The complete public-key registry all components are provisioned
    /// with.
    pub fn registry(&self) -> KeyRegistry {
        let mut reg = KeyRegistry::new();
        for i in 0..self.n() {
            reg.register(Principal::Replica(i), self.replica_keypair(i).public_key());
        }
        for p in &self.proxies {
            reg.register(
                Principal::Client(self.client_of_proxy(p.index)),
                self.proxy_keypair(p.index).public_key(),
            );
        }
        for h in 0..self.hmis {
            reg.register(
                Principal::Client(self.client_of_hmi(h)),
                self.hmi_keypair(h).public_key(),
            );
        }
        reg
    }

    /// The control-center site homing proxy `p` (multi-site only).
    pub fn home_site_of_proxy(&self, proxy: u32) -> Option<usize> {
        self.sites.as_ref().map(|s| s.home_of_proxy(proxy))
    }

    /// The control-center site homing HMI `h` (multi-site only).
    pub fn home_site_of_hmi(&self, hmi: u32) -> Option<usize> {
        self.sites.as_ref().map(|s| s.home_of_hmi(hmi))
    }

    /// The Spines wide-area overlay description of a multi-site
    /// deployment (`None` for single-LAN configurations).
    ///
    /// Each site homes its replicas' internal daemons, plus the external
    /// daemons of its replicas and of the proxies/HMIs it hosts. Between
    /// every pair of sites, each overlay gets up to two inter-site links
    /// on *distinct* gateway replicas — so WAN routes between sites with
    /// two or more replicas are node-disjoint — with the latency/loss
    /// profile combining both sites' uplinks.
    pub fn wan_topology(&self) -> Option<WanTopology> {
        let topo = self.sites.as_ref()?;
        let mut sites = Vec::new();
        for (idx, site) in topo.sites.iter().enumerate() {
            let mut external: Vec<u32> = site
                .replicas
                .iter()
                .map(|&r| self.ext_daemon_of_replica(r))
                .collect();
            for p in &self.proxies {
                if topo.home_of_proxy(p.index) == idx {
                    external.push(self.ext_daemon_of_proxy(p.index));
                }
            }
            for h in 0..self.hmis {
                if topo.home_of_hmi(h) == idx {
                    external.push(self.ext_daemon_of_hmi(h));
                }
            }
            sites.push(WanSite {
                name: site.name.clone(),
                internal_daemons: site.replicas.clone(),
                external_daemons: external,
            });
        }
        let mut links = Vec::new();
        for (i, a) in topo.sites.iter().enumerate() {
            for b in &topo.sites[i + 1..] {
                let latency_us = (a.wan_latency + b.wan_latency).as_micros();
                let loss = (a.wan_loss + b.wan_loss).min(1.0);
                let redundancy = 2.min(a.replicas.len()).min(b.replicas.len());
                for g in 0..redundancy {
                    links.push(WanLink {
                        a: a.replicas[g],
                        b: b.replicas[g],
                        overlay: Overlay::Internal,
                        latency_us,
                        loss,
                    });
                    links.push(WanLink {
                        a: self.ext_daemon_of_replica(a.replicas[g]),
                        b: self.ext_daemon_of_replica(b.replicas[g]),
                        overlay: Overlay::External,
                        latency_us,
                        loss,
                    });
                }
            }
        }
        Some(WanTopology { sites, links })
    }

    /// The isolated internal Spines overlay: replicas only — a full mesh
    /// in the single-LAN deployments, per-site meshes joined by redundant
    /// WAN links in multi-site ones.
    pub fn internal_spines(&self) -> SpinesConfig {
        let daemons = (0..self.n()).map(|i| (i, self.internal_ip(i)));
        match self.wan_topology() {
            Some(wan) => wan.overlay_config(
                Overlay::Internal,
                daemons,
                INTERNAL_SPINES_PORT,
                self.internal_secret,
                SpinesMode::IntrusionTolerant,
            ),
            None => SpinesConfig::full_mesh(
                daemons,
                INTERNAL_SPINES_PORT,
                self.internal_secret,
                SpinesMode::IntrusionTolerant,
            ),
        }
    }

    /// The external Spines overlay (replicas + proxies + HMIs): a full
    /// mesh in the single-LAN deployments, per-site meshes joined by
    /// redundant WAN links in multi-site ones.
    pub fn external_spines(&self) -> SpinesConfig {
        let mut daemons: Vec<(u32, IpAddr)> = (0..self.n())
            .map(|i| (self.ext_daemon_of_replica(i), self.replica_external_ip(i)))
            .collect();
        for p in &self.proxies {
            daemons.push((self.ext_daemon_of_proxy(p.index), self.proxy_ip(p.index)));
        }
        for h in 0..self.hmis {
            daemons.push((self.ext_daemon_of_hmi(h), self.hmi_ip(h)));
        }
        if self.substations.is_some() {
            // Regional overlays stay sparse: a replica core mesh with
            // every client daemon homed on two distinct replica gateways.
            // A 100-substation full mesh would flood O(n²) links; this
            // keeps flooding linear in substations while every client
            // still has node-disjoint paths into the core.
            let n = self.n();
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    edges.push((self.ext_daemon_of_replica(a), self.ext_daemon_of_replica(b)));
                }
            }
            for p in &self.proxies {
                let d = self.ext_daemon_of_proxy(p.index);
                edges.push((d, self.ext_daemon_of_replica(p.index % n)));
                edges.push((d, self.ext_daemon_of_replica((p.index + 1) % n)));
            }
            for h in 0..self.hmis {
                let d = self.ext_daemon_of_hmi(h);
                edges.push((d, self.ext_daemon_of_replica(h % n)));
                edges.push((d, self.ext_daemon_of_replica((h + 1) % n)));
            }
            return SpinesConfig::with_edges(
                daemons,
                edges,
                EXTERNAL_SPINES_PORT,
                self.external_secret,
                SpinesMode::IntrusionTolerant,
            );
        }
        match self.wan_topology() {
            Some(wan) => wan.overlay_config(
                Overlay::External,
                daemons,
                EXTERNAL_SPINES_PORT,
                self.external_secret,
                SpinesMode::IntrusionTolerant,
            ),
            None => SpinesConfig::full_mesh(
                daemons,
                EXTERNAL_SPINES_PORT,
                self.external_secret,
                SpinesMode::IntrusionTolerant,
            ),
        }
    }

    /// The group a proxy listens on for master commands.
    pub fn proxy_group(&self, proxy: u32) -> u16 {
        GROUP_PROXY_BASE + proxy as u16
    }

    /// The group an HMI listens on for display frames.
    pub fn hmi_group(&self, hmi: u32) -> u16 {
        GROUP_HMI_BASE + hmi as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_team_shape_matches_paper() {
        let c = SpireConfig::red_team();
        assert_eq!(c.n(), 4);
        assert_eq!(c.proxies.len(), 11, "one physical + ten emulated");
        assert_eq!(c.hmis, 1);
        assert_eq!(c.proxies[0].scenario, Scenario::RedTeamDistribution);
    }

    #[test]
    fn plant_shape_matches_paper() {
        let c = SpireConfig::plant();
        assert_eq!(c.n(), 6);
        assert_eq!(c.proxies.len(), 17, "plant subset + 10 dist + 6 gen");
        assert_eq!(c.hmis, 3, "HMIs in three locations throughout the plant");
    }

    #[test]
    fn addressing_is_collision_free() {
        let c = SpireConfig::plant();
        let mut ips = std::collections::BTreeSet::new();
        for i in 0..c.n() {
            assert!(ips.insert(c.internal_ip(i)));
            assert!(ips.insert(c.replica_external_ip(i)));
        }
        for p in 0..c.proxies.len() as u32 {
            assert!(ips.insert(c.proxy_ip(p)));
            assert!(ips.insert(c.proxy_cable_ip(p)));
            assert!(ips.insert(c.plc_cable_ip(p)));
        }
        for h in 0..c.hmis {
            assert!(ips.insert(c.hmi_ip(h)));
        }
    }

    #[test]
    fn daemon_ids_are_disjoint() {
        let c = SpireConfig::plant();
        let mut ids = std::collections::BTreeSet::new();
        for i in 0..c.n() {
            assert!(ids.insert(c.ext_daemon_of_replica(i)));
        }
        for p in 0..c.proxies.len() as u32 {
            assert!(ids.insert(c.ext_daemon_of_proxy(p)));
        }
        for h in 0..c.hmis {
            assert!(ids.insert(c.ext_daemon_of_hmi(h)));
        }
    }

    #[test]
    fn registry_covers_all_principals() {
        let c = SpireConfig::plant();
        let reg = c.registry();
        assert_eq!(reg.len() as u32, c.n() + c.proxies.len() as u32 + c.hmis);
    }

    #[test]
    fn multi_site_overlays_use_redundant_disjoint_wan_links() {
        let cfg = SpireConfig::plant().with_sites(SiteTopology::three_plus_three());
        let wan = cfg.wan_topology().expect("multi-site");
        let internal = wan.overlay_edges(Overlay::Internal);
        // Per-site meshes plus exactly two WAN links on distinct gateways.
        assert!(internal.contains(&(0, 1)) && internal.contains(&(3, 4)));
        assert!(internal.contains(&(0, 3)) && internal.contains(&(1, 4)));
        assert!(!internal.contains(&(2, 5)), "only two gateway pairs");
        assert!(!internal.contains(&(0, 4)), "gateway pairing is aligned");
        // Cross-site routes are redundant and node-disjoint.
        let routes = wan.select_routes(Overlay::Internal, 0, 5);
        assert_eq!(routes.len(), 2, "two node-disjoint WAN routes");
        // The overlay configs carry the restricted edge sets (no longer a
        // full mesh), and every daemon still appears.
        let spines = cfg.internal_spines();
        assert_eq!(spines.daemon_count(), 6);
        assert_eq!(spines.edges.len(), 3 + 3 + 2);
        let ext = cfg.external_spines();
        assert_eq!(ext.daemon_count(), 6 + 17 + 3);
        assert!(ext
            .edges
            .contains(&(cfg.ext_daemon_of_replica(0), cfg.ext_daemon_of_replica(3))));
    }

    #[test]
    fn multi_site_homes_clients_at_control_centers_only() {
        let cfg = SpireConfig::plant().with_sites(SiteTopology::two_two_one_one());
        let wan = cfg.wan_topology().expect("multi-site");
        for p in 0..cfg.proxies.len() as u32 {
            let home = cfg.home_site_of_proxy(p).expect("homed");
            assert!(home < 2, "proxies only at the two control centers");
            assert!(wan.sites[home]
                .external_daemons
                .contains(&cfg.ext_daemon_of_proxy(p)));
        }
        for h in 0..cfg.hmis {
            assert!(cfg.home_site_of_hmi(h).expect("homed") < 2);
        }
        // Data-center sites host replica daemons only.
        assert_eq!(wan.sites[2].internal_daemons, vec![4]);
        assert_eq!(wan.sites[2].external_daemons, vec![4]);
    }

    #[test]
    fn regional_addressing_is_collision_free_at_scale() {
        let c = SpireConfig::regional(PrimeConfig::plant(), SubstationTopology::new(100, 10));
        assert_eq!(c.proxies.len(), 100);
        let mut ips = std::collections::BTreeSet::new();
        for i in 0..c.n() {
            assert!(ips.insert(c.internal_ip(i)));
            assert!(ips.insert(c.replica_external_ip(i)));
        }
        for p in 0..c.proxies.len() as u32 {
            assert!(ips.insert(c.proxy_ip(p)), "proxy ip {p}");
        }
        for h in 0..c.hmis {
            assert!(ips.insert(c.hmi_ip(h)));
        }
        for idx in 0..1000 {
            assert!(ips.insert(c.device_lan_proxy_ip(idx)), "lan proxy {idx}");
            assert!(ips.insert(c.device_lan_plc_ip(idx)), "lan plc {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "takes no site placement")]
    fn regional_config_refuses_a_site_placement() {
        let _ = SpireConfig::regional(PrimeConfig::plant(), SubstationTopology::new(2, 3))
            .with_sites(SiteTopology::three_plus_three());
    }

    #[test]
    #[should_panic(expected = "1500 devices")]
    fn regional_refuses_a_region_its_addressing_cannot_hold() {
        let _ = SpireConfig::regional(PrimeConfig::plant(), SubstationTopology::new(150, 10));
    }

    #[test]
    fn regional_routes_device_tags_to_owning_substation() {
        let c = SpireConfig::regional(PrimeConfig::plant(), SubstationTopology::new(5, 4));
        // Device 0 of each substation is the proxy's own scenario.
        assert_eq!(c.proxy_for_scenario_tag("s0d0"), Some(0));
        assert_eq!(c.proxy_for_scenario_tag("s3d0"), Some(3));
        // Other devices fall back to substation ownership.
        assert_eq!(c.proxy_for_scenario_tag("s3d2"), Some(3));
        assert_eq!(c.proxy_for_scenario_tag("s4d3"), Some(4));
        assert_eq!(c.proxy_for_scenario_tag("s9d0"), None, "no such station");
        // Flat deployments still resolve by exact tag only.
        let flat = SpireConfig::plant();
        assert_eq!(flat.proxy_for_scenario_tag("plant"), Some(0));
        assert_eq!(flat.proxy_for_scenario_tag("s1d1"), None);
    }

    #[test]
    fn regional_external_overlay_is_sparse_with_disjoint_gateways() {
        let c = SpireConfig::regional(PrimeConfig::plant(), SubstationTopology::new(30, 10));
        let ext = c.external_spines();
        let n = c.n();
        assert_eq!(ext.daemon_count() as u32, n + 30 + 1);
        // Core mesh + two gateway links per client, far below a full mesh.
        let expected = n * (n - 1) / 2 + 2 * 30 + 2;
        assert_eq!(ext.edges.len() as u32, expected);
        for p in 0..30u32 {
            let d = c.ext_daemon_of_proxy(p);
            let gws = ext.neighbors(d);
            assert_eq!(gws.len(), 2, "proxy {p} has two gateways");
            assert_ne!(gws[0], gws[1], "gateways are distinct replicas");
        }
    }

    #[test]
    fn overlays_have_expected_membership() {
        let c = SpireConfig::red_team();
        assert_eq!(c.internal_spines().daemon_count(), 4);
        assert_eq!(c.external_spines().daemon_count(), 4 + 11 + 1);
        assert_ne!(
            c.internal_spines().link_key(0, 1),
            c.external_spines().link_key(0, 1)
        );
    }
}
