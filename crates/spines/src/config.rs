//! Overlay network configuration.

use std::collections::{BTreeMap, BTreeSet};

use simnet::types::{IpAddr, Port};

/// Operating mode of a Spines network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpinesMode {
    /// Open-source default: no link crypto, legacy diagnostic path active.
    /// This is the configuration whose vulnerability the red team found.
    Legacy,
    /// The deployment configuration: per-link authenticated encryption and
    /// the legacy code paths disabled.
    IntrusionTolerant,
}

/// Static configuration shared by all daemons of one overlay network.
#[derive(Clone, Debug)]
pub struct SpinesConfig {
    /// Daemon id → IP address on this network.
    pub daemons: BTreeMap<u32, IpAddr>,
    /// Overlay edges (unordered daemon-id pairs).
    pub edges: BTreeSet<(u32, u32)>,
    /// UDP port all daemons use on this network.
    pub port: Port,
    /// Network master secret; per-link keys are derived from it. In the
    /// real system this is provisioned out-of-band at configuration time.
    pub master_secret: [u8; 32],
    /// Operating mode.
    pub mode: SpinesMode,
}

impl SpinesConfig {
    /// Builds a full-mesh overlay over the given daemons.
    pub fn full_mesh(
        daemons: impl IntoIterator<Item = (u32, IpAddr)>,
        port: Port,
        master_secret: [u8; 32],
        mode: SpinesMode,
    ) -> Self {
        let daemons: BTreeMap<u32, IpAddr> = daemons.into_iter().collect();
        let ids: Vec<u32> = daemons.keys().copied().collect();
        let mut edges = BTreeSet::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                edges.insert((a, b));
            }
        }
        SpinesConfig {
            daemons,
            edges,
            port,
            master_secret,
            mode,
        }
    }

    /// Builds an overlay with explicit edges.
    pub fn with_edges(
        daemons: impl IntoIterator<Item = (u32, IpAddr)>,
        edges: impl IntoIterator<Item = (u32, u32)>,
        port: Port,
        master_secret: [u8; 32],
        mode: SpinesMode,
    ) -> Self {
        let edges = edges
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        SpinesConfig {
            daemons: daemons.into_iter().collect(),
            edges,
            port,
            master_secret,
            mode,
        }
    }

    /// The neighbors of a daemon in the overlay, in ascending id order
    /// (edges are stored low end first).
    pub fn neighbors(&self, id: u32) -> Vec<u32> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == id {
                    Some(b)
                } else if b == id {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// The derived key for frames `from` seals for its neighbour `to`.
    /// Each direction of a link has its own: the two ends never seal under
    /// one keystream, and a frame sent back to the daemon that sealed it
    /// does not authenticate.
    pub fn link_key(&self, from: u32, to: u32) -> [u8; 32] {
        let label = format!("spines-link-{from}-{to}");
        itcrypto::hmac::derive_key(&self.master_secret, label.as_bytes())
    }

    /// IP address of a daemon.
    pub fn addr_of(&self, id: u32) -> Option<IpAddr> {
        self.daemons.get(&id).copied()
    }

    /// Daemon id for an IP address, if the address belongs to the overlay.
    pub fn id_of(&self, addr: IpAddr) -> Option<u32> {
        self.daemons
            .iter()
            .find(|(_, &a)| a == addr)
            .map(|(&id, _)| id)
    }

    /// Number of daemons.
    pub fn daemon_count(&self) -> usize {
        self.daemons.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: u32) -> Vec<(u32, IpAddr)> {
        (0..n)
            .map(|i| (i, IpAddr::new(10, 1, 0, (i + 1) as u8)))
            .collect()
    }

    #[test]
    fn full_mesh_edges() {
        let cfg =
            SpinesConfig::full_mesh(addrs(4), Port(8100), [0; 32], SpinesMode::IntrusionTolerant);
        assert_eq!(cfg.edges.len(), 6);
        assert_eq!(cfg.neighbors(0), vec![1, 2, 3]);
        assert_eq!(cfg.daemon_count(), 4);
    }

    #[test]
    fn explicit_edges_normalized() {
        let cfg = SpinesConfig::with_edges(
            addrs(3),
            [(2, 0), (1, 2)],
            Port(8100),
            [0; 32],
            SpinesMode::Legacy,
        );
        assert!(cfg.edges.contains(&(0, 2)));
        assert!(cfg.edges.contains(&(1, 2)));
        assert_eq!(cfg.neighbors(2), vec![0, 1]);
        assert_eq!(cfg.neighbors(0), vec![2]);
    }

    #[test]
    fn link_keys_differ_per_direction_and_link() {
        let cfg =
            SpinesConfig::full_mesh(addrs(3), Port(8100), [7; 32], SpinesMode::IntrusionTolerant);
        assert_ne!(cfg.link_key(0, 1), cfg.link_key(1, 0));
        assert_ne!(cfg.link_key(0, 1), cfg.link_key(0, 2));
        // Different master secret → different keys.
        let other =
            SpinesConfig::full_mesh(addrs(3), Port(8100), [8; 32], SpinesMode::IntrusionTolerant);
        assert_ne!(cfg.link_key(0, 1), other.link_key(0, 1));
    }

    #[test]
    fn addr_and_id_lookup() {
        let cfg = SpinesConfig::full_mesh(addrs(2), Port(8100), [0; 32], SpinesMode::Legacy);
        assert_eq!(cfg.addr_of(1), Some(IpAddr::new(10, 1, 0, 2)));
        assert_eq!(cfg.id_of(IpAddr::new(10, 1, 0, 1)), Some(0));
        assert_eq!(cfg.addr_of(9), None);
        assert_eq!(cfg.id_of(IpAddr::new(9, 9, 9, 9)), None);
    }
}
