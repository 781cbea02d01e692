//! Multi-site topologies: where replicas, proxies, and HMIs live.
//!
//! The single-site deployments of §IV/§V place every SCADA-master replica
//! in one control center — losing that site loses the whole system. The
//! wide-area Spire configurations distribute the same six plant replicas
//! across several sites (control centers that can host proxies and HMIs,
//! plus data centers that host only replicas), connected by the Spines
//! WAN overlays of [`spines::wan`]. [`SiteTopology`] describes such a
//! placement; [`SiteTopology::survival_after_losing`] answers the
//! question E13 measures: *what happens to ordering when a whole site
//! drops off the map?*
//!
//! Three placements of the plant's `n = 6` (`f = 1, k = 1`) replicas are
//! provided, matching the configurations the failover experiment runs:
//!
//! * [`SiteTopology::six_at_one`] — `6@1`: everything in one site. Site
//!   loss is total; the baseline the wide-area placements improve on.
//! * [`SiteTopology::three_plus_three`] — `3+3`: two control centers.
//!   Losing either leaves 3 survivors, below the static ordering quorum
//!   of 4 — the survivors continue in a degraded membership epoch
//!   (`f' = 0`, majority quorum) installed by the management plane.
//! * [`SiteTopology::two_two_one_one`] — `2+2+1+1`: two control centers
//!   and two data centers. Losing any one site leaves at least 4
//!   survivors — the native quorum still meets and no reconfiguration
//!   is needed at all.

use plc::topology::Scenario;
use prime::types::{Config as PrimeConfig, Membership};
use simnet::time::SimDuration;

/// What a site is allowed to host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SiteKind {
    /// Hosts replicas and homes proxies and HMIs (operations staff work
    /// here).
    ControlCenter,
    /// Hosts replicas only (rented rack space; no field devices, no
    /// operators).
    DataCenter,
}

/// One site of a wide-area deployment.
#[derive(Clone, Debug)]
pub struct Site {
    /// Human-readable name (`"cc-a"`, `"dc-1"`, …).
    pub name: String,
    /// What the site may host.
    pub kind: SiteKind,
    /// Replica ids homed here (disjoint across sites, covering `0..n`).
    pub replicas: Vec<u32>,
    /// One-way propagation delay of this site's WAN uplink.
    pub wan_latency: SimDuration,
    /// Independent frame-loss probability of this site's WAN uplink.
    pub wan_loss: f64,
}

/// What ordering can still do after an entire site is lost.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SurvivalMode {
    /// Enough survivors remain for the static `2f + k + 1` quorum: the
    /// protocol keeps running unmodified, no reconfiguration needed.
    NativeQuorum,
    /// Too few survivors for the native quorum, but at least two: the
    /// management plane installs this degraded membership epoch
    /// (`f' = 0`, majority quorum) and ordering continues without
    /// intrusion tolerance until the site heals.
    DegradedEpoch(Membership),
    /// Fewer than two survivors — no meaningful replication remains and
    /// the system correctly reports loss of liveness.
    Lost,
}

/// A named multi-site placement of one deployment's replicas.
#[derive(Clone, Debug)]
pub struct SiteTopology {
    /// The sites, in declaration order (site indices are positions here).
    pub sites: Vec<Site>,
}

impl SiteTopology {
    /// `6@1`: all six plant replicas in a single control center. The
    /// degenerate "wide-area" placement — used by E13 as the baseline
    /// that demonstrably does *not* survive a site loss.
    pub fn six_at_one() -> Self {
        SiteTopology {
            sites: vec![Site {
                name: "cc-a".into(),
                kind: SiteKind::ControlCenter,
                replicas: (0..6).collect(),
                wan_latency: SimDuration::from_micros(0),
                wan_loss: 0.0,
            }],
        }
    }

    /// `3+3`: two control centers with three replicas each. Survives a
    /// site loss only by falling back to a degraded membership epoch.
    pub fn three_plus_three() -> Self {
        SiteTopology {
            sites: vec![
                Site {
                    name: "cc-a".into(),
                    kind: SiteKind::ControlCenter,
                    replicas: vec![0, 1, 2],
                    wan_latency: SimDuration::from_micros(1_000),
                    wan_loss: 0.0,
                },
                Site {
                    name: "cc-b".into(),
                    kind: SiteKind::ControlCenter,
                    replicas: vec![3, 4, 5],
                    wan_latency: SimDuration::from_micros(2_000),
                    wan_loss: 0.0005,
                },
            ],
        }
    }

    /// `2+2+1+1`: two control centers with two replicas each plus two
    /// single-replica data centers. Any one site can be lost while the
    /// native `2f + k + 1 = 4` quorum still meets.
    pub fn two_two_one_one() -> Self {
        SiteTopology {
            sites: vec![
                Site {
                    name: "cc-a".into(),
                    kind: SiteKind::ControlCenter,
                    replicas: vec![0, 1],
                    wan_latency: SimDuration::from_micros(1_000),
                    wan_loss: 0.0,
                },
                Site {
                    name: "cc-b".into(),
                    kind: SiteKind::ControlCenter,
                    replicas: vec![2, 3],
                    wan_latency: SimDuration::from_micros(2_000),
                    wan_loss: 0.0,
                },
                Site {
                    name: "dc-1".into(),
                    kind: SiteKind::DataCenter,
                    replicas: vec![4],
                    wan_latency: SimDuration::from_micros(3_000),
                    wan_loss: 0.0005,
                },
                Site {
                    name: "dc-2".into(),
                    kind: SiteKind::DataCenter,
                    replicas: vec![5],
                    wan_latency: SimDuration::from_micros(4_000),
                    wan_loss: 0.001,
                },
            ],
        }
    }

    /// The conventional label: `"6@1"`, `"3+3"`, `"2+2+1+1"`.
    pub fn label(&self) -> String {
        if self.sites.len() == 1 {
            format!("{}@1", self.sites[0].replicas.len())
        } else {
            self.sites
                .iter()
                .map(|s| s.replicas.len().to_string())
                .collect::<Vec<_>>()
                .join("+")
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total replicas across all sites.
    pub fn replica_count(&self) -> u32 {
        self.sites.iter().map(|s| s.replicas.len() as u32).sum()
    }

    /// The site homing replica `r`, if any.
    pub fn site_of_replica(&self, r: u32) -> Option<usize> {
        self.sites.iter().position(|s| s.replicas.contains(&r))
    }

    /// Replica ids homed at `site`.
    pub fn replicas_of(&self, site: usize) -> &[u32] {
        &self.sites[site].replicas
    }

    /// Indices of the control-center sites, in declaration order.
    pub fn control_centers(&self) -> Vec<usize> {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SiteKind::ControlCenter)
            .map(|(i, _)| i)
            .collect()
    }

    /// The control center homing proxy `p` (round-robin over control
    /// centers — field connectivity terminates at operations sites).
    pub fn home_of_proxy(&self, p: u32) -> usize {
        let ccs = self.control_centers();
        assert!(!ccs.is_empty(), "a topology needs a control center");
        ccs[p as usize % ccs.len()]
    }

    /// The control center homing HMI `h` (round-robin over control
    /// centers).
    pub fn home_of_hmi(&self, h: u32) -> usize {
        let ccs = self.control_centers();
        assert!(!ccs.is_empty(), "a topology needs a control center");
        ccs[h as usize % ccs.len()]
    }

    /// Replica ids that remain after losing `site` entirely.
    pub fn survivors_after_losing(&self, site: usize) -> Vec<u32> {
        let mut survivors: Vec<u32> = self
            .sites
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != site)
            .flat_map(|(_, s)| s.replicas.iter().copied())
            .collect();
        survivors.sort_unstable();
        survivors
    }

    /// What ordering can still do (under `prime`'s static configuration)
    /// after losing `site`: keep the native quorum, fall back to a
    /// degraded membership epoch, or report loss of liveness.
    pub fn survival_after_losing(&self, prime: &PrimeConfig, site: usize) -> SurvivalMode {
        let survivors = self.survivors_after_losing(site);
        let m = survivors.len() as u32;
        if m >= prime.ordering_quorum() {
            SurvivalMode::NativeQuorum
        } else if m >= 2 {
            SurvivalMode::DegradedEpoch(Membership::degraded(survivors))
        } else {
            SurvivalMode::Lost
        }
    }
}

/// A regional utility's substation tier (the E14 scale-out): `count`
/// substations hang off the control center's external overlay, each with
/// its own LAN switch, one aggregating proxy, and a bank of `devices_per`
/// PLC/RTU field devices polled locally. Substation trunks are WAN links
/// (latency + loss), and each substation's proxy coalesces one full poll
/// sweep into a single batched, signed substation report — so ordered
/// update volume through Prime scales with `count`, not
/// `count * devices_per`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubstationTopology {
    /// Number of substations.
    pub count: u32,
    /// Field devices (PLC/RTUs) behind each substation proxy.
    pub devices_per: u32,
    /// One-way WAN latency of each substation's trunk to the control
    /// center.
    pub wan_latency: SimDuration,
    /// Loss probability on the substation trunks.
    pub wan_loss: f64,
}

impl SubstationTopology {
    /// A regional topology with default trunk characteristics (5 ms
    /// one-way, lossless — a metro-area utility WAN).
    pub fn new(count: u32, devices_per: u32) -> Self {
        assert!(count > 0, "a region needs at least one substation");
        assert!(devices_per > 0, "a substation needs at least one device");
        SubstationTopology {
            count,
            devices_per,
            wan_latency: SimDuration::from_millis(5),
            wan_loss: 0.0,
        }
    }

    /// Whether the region fits the deployment's identifier and address
    /// spaces, or the one-line reason it does not: fewer than 200
    /// substations (per-proxy group ids would run into the HMI group
    /// space), at most 4096 devices in a bank (the wire cap on a coalesced
    /// report) and at most 1024 devices in all (the device LAN address
    /// space). [`crate::config::SpireConfig::regional`] and the `spire-sim`
    /// flag parser both ask here.
    pub fn validate(&self) -> Result<(), String> {
        let (count, per) = (self.count, self.devices_per);
        if count >= 200 {
            return Err(format!(
                "{count} substations exhaust the group space (at most 199)"
            ));
        }
        if per > 4096 {
            return Err(format!(
                "a bank of {per} devices exceeds the report wire cap (at most 4096)"
            ));
        }
        if count * per > 1024 {
            return Err(format!(
                "{count} substations x {per} devices = {} devices exceed the device LAN \
                 address space (at most 1024)",
                count * per
            ));
        }
        Ok(())
    }

    /// Total field devices across the region.
    pub fn total_devices(&self) -> u32 {
        self.count * self.devices_per
    }

    /// The scenario controlled by device `device` of substation
    /// `station`.
    pub fn device_scenario(&self, station: u32, device: u32) -> Scenario {
        assert!(station < self.count && device < self.devices_per);
        Scenario::SubstationDevice {
            station: station as u16,
            device: device as u16,
        }
    }

    /// Label for reports, e.g. `10x5`.
    pub fn label(&self) -> String {
        format!("{}x{}", self.count, self.devices_per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_convention() {
        assert_eq!(SiteTopology::six_at_one().label(), "6@1");
        assert_eq!(SiteTopology::three_plus_three().label(), "3+3");
        assert_eq!(SiteTopology::two_two_one_one().label(), "2+2+1+1");
    }

    #[test]
    fn placements_cover_all_plant_replicas_disjointly() {
        for topo in [
            SiteTopology::six_at_one(),
            SiteTopology::three_plus_three(),
            SiteTopology::two_two_one_one(),
        ] {
            assert_eq!(topo.replica_count(), 6, "{}", topo.label());
            let mut seen = std::collections::BTreeSet::new();
            for site in &topo.sites {
                for &r in &site.replicas {
                    assert!(seen.insert(r), "{}: replica {r} homed twice", topo.label());
                }
            }
            assert_eq!(seen, (0..6).collect(), "{}", topo.label());
            for r in 0..6 {
                assert!(topo.site_of_replica(r).is_some());
            }
        }
    }

    #[test]
    fn survival_math_matches_the_paper_configurations() {
        let prime = PrimeConfig::plant();
        // 6@1: losing the only site is fatal.
        let one = SiteTopology::six_at_one();
        assert_eq!(one.survival_after_losing(&prime, 0), SurvivalMode::Lost);
        // 3+3: three survivors < quorum 4 → degraded epoch, f'=0, q'=2.
        let two = SiteTopology::three_plus_three();
        match two.survival_after_losing(&prime, 1) {
            SurvivalMode::DegradedEpoch(m) => {
                assert_eq!(m.members(), &[0, 1, 2]);
                assert_eq!(m.f, 0);
                assert_eq!(m.ordering_quorum(), 2);
            }
            other => panic!("expected degraded epoch, got {other:?}"),
        }
        // 2+2+1+1: any single site loss keeps the native quorum.
        let four = SiteTopology::two_two_one_one();
        for site in 0..4 {
            assert_eq!(
                four.survival_after_losing(&prime, site),
                SurvivalMode::NativeQuorum,
                "losing site {site}"
            );
        }
    }

    #[test]
    fn proxies_and_hmis_home_only_at_control_centers() {
        let topo = SiteTopology::two_two_one_one();
        assert_eq!(topo.control_centers(), vec![0, 1]);
        for p in 0..17 {
            let home = topo.home_of_proxy(p);
            assert_eq!(topo.sites[home].kind, SiteKind::ControlCenter);
        }
        // Round-robin spreads consecutive proxies across both centers.
        assert_ne!(topo.home_of_proxy(0), topo.home_of_proxy(1));
        for h in 0..3 {
            let home = topo.home_of_hmi(h);
            assert_eq!(topo.sites[home].kind, SiteKind::ControlCenter);
        }
    }

    #[test]
    fn substation_topology_validity_names_the_exhausted_space() {
        assert_eq!(SubstationTopology::new(100, 10).validate(), Ok(()));
        assert_eq!(SubstationTopology::new(199, 5).validate(), Ok(()));
        let err = |count, per| SubstationTopology::new(count, per).validate().unwrap_err();
        assert!(err(250, 1).contains("group space"));
        assert!(err(1, 5000).contains("wire cap"));
        assert!(err(150, 10).contains("1500 devices"));
    }

    #[test]
    fn survivors_exclude_exactly_the_lost_site() {
        let topo = SiteTopology::three_plus_three();
        assert_eq!(topo.survivors_after_losing(0), vec![3, 4, 5]);
        assert_eq!(topo.survivors_after_losing(1), vec![0, 1, 2]);
        assert_eq!(topo.replicas_of(1), &[3, 4, 5]);
    }
}
