//! Deployment configuration: identities, keys, overlays, scenarios.

use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use plc::topology::Scenario;
use prime::types::Config as PrimeConfig;
use simnet::types::{IpAddr, Port};
use spines::config::{SpinesConfig, SpinesMode};

use crate::site::{SiteTopology, SubstationTopology};

/// Spines port of the isolated internal (replication) network.
pub const INTERNAL_SPINES_PORT: Port = Port(8100);
/// Spines port of the external network.
pub const EXTERNAL_SPINES_PORT: Port = Port(8120);

/// Spines group carrying Prime protocol messages (internal network).
pub const GROUP_PRIME: u16 = 1;
/// Spines group carrying client updates to the masters (external).
/// Commands to a proxy and frames to an HMI are unicasts to its daemon.
pub const GROUP_MASTERS: u16 = 2;

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

/// Which of the two Spines networks an edge set is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Overlay {
    /// The replication network: replicas only.
    Internal,
    /// The client network: replicas, proxies and HMIs.
    External,
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
        let station = Scenario::station_of_tag(tag)?;
        self.proxies
            .iter()
            .find(|p| matches!(p.scenario, Scenario::SubstationDevice { station: s, .. } if s == station))
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

    /// The isolated internal Spines overlay: replicas only.
    pub fn internal_spines(&self) -> SpinesConfig {
        SpinesConfig::with_edges(
            (0..self.n()).map(|i| (i, self.internal_ip(i))),
            self.overlay_edges(Overlay::Internal),
            INTERNAL_SPINES_PORT,
            self.internal_secret,
            SpinesMode::IntrusionTolerant,
        )
    }

    /// The external Spines overlay: replicas, proxies and HMIs.
    pub fn external_spines(&self) -> SpinesConfig {
        let replicas =
            (0..self.n()).map(|i| (self.ext_daemon_of_replica(i), self.replica_external_ip(i)));
        let proxies = self
            .proxies
            .iter()
            .map(|p| (self.ext_daemon_of_proxy(p.index), self.proxy_ip(p.index)));
        let hmis = (0..self.hmis).map(|h| (self.ext_daemon_of_hmi(h), self.hmi_ip(h)));
        SpinesConfig::with_edges(
            replicas.chain(proxies).chain(hmis),
            self.overlay_edges(Overlay::External),
            EXTERNAL_SPINES_PORT,
            self.external_secret,
            SpinesMode::IntrusionTolerant,
        )
    }

    /// The edges of one overlay: the one place either is described.
    ///
    /// Each site is a full mesh of the overlay's daemons it homes: its
    /// replicas' and, on the external overlay, those of the proxies and
    /// HMIs homed there, as [`Deployment::build`](crate::deploy::Deployment::build)
    /// cables them. A deployment without a placement is one site holding
    /// everything. Each pair of sites is joined by up to two aligned
    /// gateway pairs `a.replicas[g] ↔ b.replicas[g]`, so two sites of two
    /// replicas or more have node-disjoint routes between them. A regional
    /// external overlay is sparse instead: a replica core mesh with every
    /// client on two distinct replica gateways, which keeps flooding
    /// linear in substations where a full mesh would flood O(n²) links.
    fn overlay_edges(&self, overlay: Overlay) -> Vec<(u32, u32)> {
        let n = self.n();
        let daemon = |replica: u32| match overlay {
            Overlay::Internal => replica,
            Overlay::External => self.ext_daemon_of_replica(replica),
        };
        // (daemon, home site, gateway index) of every client.
        let sites = self.sites.as_ref();
        let clients: Vec<(u32, usize, u32)> = match overlay {
            Overlay::Internal => Vec::new(),
            Overlay::External => {
                let proxies = self.proxies.iter().map(|p| {
                    let home = sites.map_or(0, |t| t.home_of_proxy(p.index));
                    (self.ext_daemon_of_proxy(p.index), home, p.index)
                });
                let hmis = (0..self.hmis).map(|h| {
                    let home = sites.map_or(0, |t| t.home_of_hmi(h));
                    (self.ext_daemon_of_hmi(h), home, h)
                });
                proxies.chain(hmis).collect()
            }
        };
        let (meshes, mut edges): (Vec<Vec<u32>>, Vec<(u32, u32)>) =
            if overlay == Overlay::External && self.substations.is_some() {
                let gateways = clients
                    .iter()
                    .flat_map(|&(d, _, k)| [(d, daemon(k % n)), (d, daemon((k + 1) % n))]);
                (vec![(0..n).map(daemon).collect()], gateways.collect())
            } else {
                let everything: Vec<u32> = (0..n).collect();
                let placement: Vec<&[u32]> = match sites {
                    Some(t) => t.sites.iter().map(|s| s.replicas.as_slice()).collect(),
                    None => vec![&everything],
                };
                let meshes = placement.iter().enumerate().map(|(s, replicas)| {
                    let homed = clients.iter().filter(|c| c.1 == s).map(|c| c.0);
                    replicas.iter().map(|&r| daemon(r)).chain(homed).collect()
                });
                let mut gateways = Vec::new();
                for (i, a) in placement.iter().enumerate() {
                    for b in &placement[i + 1..] {
                        for g in 0..2.min(a.len()).min(b.len()) {
                            gateways.push((daemon(a[g]), daemon(b[g])));
                        }
                    }
                }
                (meshes.collect(), gateways)
            };
        for mesh in &meshes {
            for (i, &a) in mesh.iter().enumerate() {
                edges.extend(mesh[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        edges
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
        let internal = cfg.internal_spines();
        // Per-site meshes plus exactly two WAN links on distinct gateways.
        assert!(internal.edges.contains(&(0, 1)) && internal.edges.contains(&(3, 4)));
        assert!(internal.edges.contains(&(0, 3)) && internal.edges.contains(&(1, 4)));
        assert!(!internal.edges.contains(&(2, 5)), "only two gateway pairs");
        assert!(
            !internal.edges.contains(&(0, 4)),
            "gateway pairing is aligned"
        );
        assert_eq!(internal.daemon_count(), 6);
        assert_eq!(internal.edges.len(), 3 + 3 + 2);
        // Cross-site routes are redundant and node-disjoint.
        assert_eq!(spines::routing::disjoint_paths(&internal, 0, 5), 2);
        let ext = cfg.external_spines();
        assert_eq!(ext.daemon_count(), 6 + 17 + 3);
        assert!(ext
            .edges
            .contains(&(cfg.ext_daemon_of_replica(0), cfg.ext_daemon_of_replica(3))));
    }

    #[test]
    fn multi_site_homes_clients_at_control_centers_only() {
        let cfg = SpireConfig::plant().with_sites(SiteTopology::two_two_one_one());
        let topo = cfg.sites.as_ref().expect("multi-site");
        let ext = cfg.external_spines();
        let replica_daemons: Vec<u32> =
            (0..cfg.n()).map(|r| cfg.ext_daemon_of_replica(r)).collect();
        // A client's replica neighbours are exactly its home site's.
        let gateways = |daemon: u32| -> Vec<u32> {
            let peers = ext.neighbors(daemon).into_iter();
            peers.filter(|d| replica_daemons.contains(d)).collect()
        };
        let site_daemons = |site: usize| -> Vec<u32> {
            let replicas = topo.replicas_of(site).iter();
            replicas.map(|&r| cfg.ext_daemon_of_replica(r)).collect()
        };
        for p in 0..cfg.proxies.len() as u32 {
            let home = topo.home_of_proxy(p);
            assert!(home < 2, "proxies only at the two control centers");
            assert_eq!(gateways(cfg.ext_daemon_of_proxy(p)), site_daemons(home));
        }
        for h in 0..cfg.hmis {
            let home = topo.home_of_hmi(h);
            assert!(home < 2, "HMIs only at the two control centers");
            assert_eq!(gateways(cfg.ext_daemon_of_hmi(h)), site_daemons(home));
        }
        // Data-center sites host replica daemons only, joined to the other
        // sites by their gateways.
        for r in [4, 5] {
            let d = cfg.ext_daemon_of_replica(r);
            assert_eq!(
                ext.neighbors(d),
                gateways(d),
                "dc replica {r} has no client"
            );
        }
        assert_eq!(cfg.internal_spines().neighbors(4), vec![0, 2, 5]);
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

    /// Every overlay edge set the deployments use, as
    /// `shape overlay daemons edges sha256(sorted edges)`.
    const OVERLAY_PINS: &str = "\
red_team internal 4 6 6ad7991fce84cd1b03088ca24c1326b94d9dbbfbcdb4ca9478def71f19db3505
red_team external 16 120 1d412ea06781682edae1273ee6bbdf699531f98809444b4c38a9e9b7a71d3450
plant internal 6 15 bc7bbf5f9dfab3b4b14568095dd127bf4e3ae48bfa712e16f86b7d271f9e55ca
plant external 26 325 d026c5a44544afb1ffe7ffe4411691f14988d4e9e4a436cc9d9991ffef4a004d
minimal internal 4 6 6ad7991fce84cd1b03088ca24c1326b94d9dbbfbcdb4ca9478def71f19db3505
minimal external 6 15 bc7bbf5f9dfab3b4b14568095dd127bf4e3ae48bfa712e16f86b7d271f9e55ca
regional-2x3 internal 6 15 bc7bbf5f9dfab3b4b14568095dd127bf4e3ae48bfa712e16f86b7d271f9e55ca
regional-2x3 external 9 21 2da96ab55bedb21761fd80d5a7ac15d96f0044bf7ee5503d1c26505faadfc5d8
regional-100x10 internal 6 15 bc7bbf5f9dfab3b4b14568095dd127bf4e3ae48bfa712e16f86b7d271f9e55ca
regional-100x10 external 107 217 3e3b9ee045b364c67d25ff25c1b29ba5963be8b3a111acfa62e8e2a5c52988e9
plant+6@1 internal 6 15 bc7bbf5f9dfab3b4b14568095dd127bf4e3ae48bfa712e16f86b7d271f9e55ca
plant+6@1 external 26 325 d026c5a44544afb1ffe7ffe4411691f14988d4e9e4a436cc9d9991ffef4a004d
cut+6@1 internal 6 15 bc7bbf5f9dfab3b4b14568095dd127bf4e3ae48bfa712e16f86b7d271f9e55ca
cut+6@1 external 12 66 3cf7083a5f91cf8523d7857d51e180da5d2bd4e43f208a24c82189cdba2439f6
plant+3+3 internal 6 8 0c3511ca5f90598949f61a0deaec701f40d0a28d0bbcaa1bc0eb479bff1b8bf2
plant+3+3 external 26 159 46641aacce1eca604a5a0b7e997d14791c5b2411907cde3fb65d830094887ac7
cut+3+3 internal 6 8 0c3511ca5f90598949f61a0deaec701f40d0a28d0bbcaa1bc0eb479bff1b8bf2
cut+3+3 external 12 33 68be21b9af39e3edc95016694d71a4930c36a7d66c1e829cb0b887f277775b55
plant+2+2+1+1 internal 6 9 30797b33f823fe2fad486defb8e7ba392c2621b964f68d991157b356fc93c7f5
plant+2+2+1+1 external 26 140 3eedc748597bf0b282b54633009fa3b9e4540532959470e1fe70eba2d580a3a2
cut+2+2+1+1 internal 6 9 30797b33f823fe2fad486defb8e7ba392c2621b964f68d991157b356fc93c7f5
cut+2+2+1+1 external 12 28 50d109e841cfe24503987ca362403ed1ae8726b6d41a1c98e7999c6180882a7f
";

    /// The plant with its proxies cut from 17 to 3.
    fn cut_plant() -> SpireConfig {
        let mut cfg = SpireConfig::plant();
        cfg.proxies.truncate(3);
        cfg
    }

    #[test]
    fn overlay_edge_sets_pinned() {
        let regional = |count, devices_per| {
            SpireConfig::regional(
                PrimeConfig::plant(),
                SubstationTopology::new(count, devices_per),
            )
        };
        let shapes = [
            ("red_team", SpireConfig::red_team()),
            ("plant", SpireConfig::plant()),
            (
                "minimal",
                SpireConfig::minimal(PrimeConfig::red_team(), Scenario::PlantSubset),
            ),
            ("regional-2x3", regional(2, 3)),
            ("regional-100x10", regional(100, 10)),
            (
                "plant+6@1",
                SpireConfig::plant().with_sites(SiteTopology::six_at_one()),
            ),
            (
                "cut+6@1",
                cut_plant().with_sites(SiteTopology::six_at_one()),
            ),
            (
                "plant+3+3",
                SpireConfig::plant().with_sites(SiteTopology::three_plus_three()),
            ),
            (
                "cut+3+3",
                cut_plant().with_sites(SiteTopology::three_plus_three()),
            ),
            (
                "plant+2+2+1+1",
                SpireConfig::plant().with_sites(SiteTopology::two_two_one_one()),
            ),
            (
                "cut+2+2+1+1",
                cut_plant().with_sites(SiteTopology::two_two_one_one()),
            ),
        ];
        let mut now = String::new();
        for (shape, cfg) in &shapes {
            for (overlay, spines) in [
                ("internal", cfg.internal_spines()),
                ("external", cfg.external_spines()),
            ] {
                let bytes: Vec<u8> = spines
                    .edges
                    .iter()
                    .flat_map(|&(a, b)| a.to_be_bytes().into_iter().chain(b.to_be_bytes()))
                    .collect();
                let digest = itcrypto::sha256::sha256(&bytes).to_hex();
                let (daemons, edges) = (spines.daemon_count(), spines.edges.len());
                now += &format!("{shape} {overlay} {daemons} {edges} {digest}\n");
            }
        }
        assert_eq!(
            now, OVERLAY_PINS,
            "the overlays moved; they now read\n{now}"
        );
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
