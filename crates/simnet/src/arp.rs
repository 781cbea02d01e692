//! ARP tables — the man-in-the-middle battleground.
//!
//! §III-B: "on each machine, we set up a static mapping of MAC addresses to
//! IP addresses and turned off the default ability for a NIC to answer ARP
//! requests for an IP address assigned to another NIC on the same machine."
//!
//! [`ArpMode::Dynamic`] tables learn from any reply (including gratuitous
//! ones — the poisoning vector the red team used against the commercial
//! system). [`ArpMode::Static`] tables ignore network input entirely.

use std::collections::BTreeMap;

use crate::types::{IpAddr, MacAddr};

/// How the table treats ARP traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpMode {
    /// Learn mappings from replies (and opportunistically from requests),
    /// including unsolicited/gratuitous replies. Poisonable.
    Dynamic,
    /// Only entries installed by the operator are used; all learned input is
    /// ignored. This is the hardened deployment profile.
    Static,
}

/// A per-interface ARP table.
#[derive(Clone, Debug)]
pub struct ArpTable {
    mode: ArpMode,
    entries: BTreeMap<IpAddr, MacAddr>,
}

impl ArpTable {
    /// Creates an empty table in the given mode.
    pub fn new(mode: ArpMode) -> Self {
        ArpTable {
            mode,
            entries: BTreeMap::new(),
        }
    }

    /// The table's mode.
    pub fn mode(&self) -> ArpMode {
        self.mode
    }

    /// Installs a mapping administratively (always allowed; this is the
    /// operator seeding static entries, or a host's own configuration).
    pub fn install(&mut self, ip: IpAddr, mac: MacAddr) {
        self.entries.insert(ip, mac);
    }

    /// Applies a mapping learned from the network. In static mode this is
    /// rejected: the table is left as it was and `false` returned.
    pub fn learn(&mut self, ip: IpAddr, mac: MacAddr) -> bool {
        match self.mode {
            ArpMode::Dynamic => {
                self.entries.insert(ip, mac);
                true
            }
            ArpMode::Static => false,
        }
    }

    /// Resolves an IP to a MAC, if known.
    pub fn resolve(&self, ip: IpAddr) -> Option<MacAddr> {
        self.entries.get(&ip).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries (for diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&IpAddr, &MacAddr)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

    const IP_A: IpAddr = IpAddr::new(10, 0, 0, 1);
    const IP_B: IpAddr = IpAddr::new(10, 0, 0, 2);

    fn mac(n: u32) -> MacAddr {
        MacAddr::derived(NodeId(n), 0)
    }

    #[test]
    fn dynamic_learns_and_overwrites() {
        let mut t = ArpTable::new(ArpMode::Dynamic);
        assert!(t.learn(IP_A, mac(1)));
        assert_eq!(t.resolve(IP_A), Some(mac(1)));
        // Gratuitous reply overwrites — the poisoning primitive.
        assert!(t.learn(IP_A, mac(66)));
        assert_eq!(t.resolve(IP_A), Some(mac(66)));
    }

    #[test]
    fn static_rejects_learning_but_accepts_install() {
        let mut t = ArpTable::new(ArpMode::Static);
        t.install(IP_A, mac(1));
        assert!(!t.learn(IP_A, mac(66)));
        assert_eq!(t.resolve(IP_A), Some(mac(1)));
        // A rejected mapping is not learned either.
        assert!(!t.learn(IP_B, mac(66)));
        assert_eq!(t.resolve(IP_B), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn len_and_iter() {
        let mut t = ArpTable::new(ArpMode::Dynamic);
        assert!(t.is_empty());
        t.install(IP_A, mac(1));
        t.install(IP_B, mac(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.mode(), ArpMode::Dynamic);
    }
}
