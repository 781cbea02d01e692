//! The [`Process`] trait — application code hosted on a simulated node —
//! and the [`Context`] handed to its callbacks.

use std::any::Any;

use obs::trace::TraceCtx;
use rand::rngs::StdRng;

use crate::exec::Interface;
use crate::packet::{Frame, Packet};
use crate::time::{SimDuration, SimTime};
use crate::types::{IpAddr, MacAddr, NodeId, Port};

/// Buffered side effects a process requests during a callback. Applied by
/// the simulator after the callback returns, preserving determinism.
#[derive(Debug)]
pub enum Action {
    /// Send a packet through the normal host stack (ARP resolution,
    /// outbound firewall) on interface `ifidx`.
    SendPacket {
        /// Interface index.
        ifidx: usize,
        /// The packet to send.
        packet: Packet,
    },
    /// Inject a raw frame on interface `ifidx`, bypassing ARP and the
    /// outbound firewall — the raw-socket capability an attacker with root
    /// uses for spoofing and poisoning.
    SendRawFrame {
        /// Interface index.
        ifidx: usize,
        /// The frame, with arbitrary (possibly forged) MACs/IPs.
        frame: Frame,
    },
    /// Arm a one-shot timer that fires `delay` from now with identifier
    /// `timer`.
    SetTimer {
        /// Delay from the current instant.
        delay: SimDuration,
        /// Caller-chosen identifier passed back to `on_timer`.
        timer: u64,
    },
    /// Open a listening port (SYNs to it now answer SYN-ACK).
    Listen(Port),
}

/// Execution context for a single process callback.
pub struct Context<'a> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) interfaces: &'a [Interface],
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) rng: &'a mut StdRng,
    /// Ambient causal-trace context: pre-set to the incoming packet's
    /// context for `on_packet`/`on_transit`, adjustable by the process.
    pub(crate) trace: Option<TraceCtx>,
}

impl<'a> Context<'a> {
    /// The hosting node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of interfaces on this node.
    pub fn interface_count(&self) -> usize {
        self.interfaces.len()
    }

    /// IP address of interface `ifidx`.
    ///
    /// # Panics
    ///
    /// Panics if `ifidx` is out of range.
    pub fn ip(&self, ifidx: usize) -> IpAddr {
        self.interfaces[ifidx].ip
    }

    /// MAC address of interface `ifidx`.
    ///
    /// # Panics
    ///
    /// Panics if `ifidx` is out of range.
    pub fn mac(&self, ifidx: usize) -> MacAddr {
        self.interfaces[ifidx].mac
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The ambient causal-trace context: the incoming packet's context
    /// for packet callbacks, unless the process overrode it.
    pub fn trace(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// Overrides the ambient trace context for the rest of the
    /// callback; subsequent [`Context::send`]s stamp it on packets.
    pub fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    /// Sends a packet through the normal host stack. Packets without
    /// an explicit trace context inherit the ambient one, so causality
    /// propagates through request/response relays untouched.
    pub fn send(&mut self, ifidx: usize, mut packet: Packet) {
        if packet.trace.is_none() {
            packet.trace = self.trace;
        }
        self.actions.push(Action::SendPacket { ifidx, packet });
    }

    /// Injects a raw frame (attacker capability; bypasses outbound checks).
    pub fn send_raw(&mut self, ifidx: usize, frame: Frame) {
        self.actions.push(Action::SendRawFrame { ifidx, frame });
    }

    /// Arms a one-shot timer.
    pub fn set_timer(&mut self, delay: SimDuration, timer: u64) {
        self.actions.push(Action::SetTimer { delay, timer });
    }

    /// Opens a listening port.
    pub fn listen(&mut self, port: Port) {
        self.actions.push(Action::Listen(port));
    }
}

/// Application logic hosted on a node.
///
/// All callbacks receive a [`Context`] for reading node identity/time and
/// buffering side effects. Default implementations ignore the event, so
/// simple processes implement only what they need.
///
/// `Send` so that a [`crate::Simulation`], which owns its processes, can be
/// built on one thread and run on another.
pub trait Process: Any + Send {
    /// Called once when the simulation starts (or the node is replaced).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called for every packet addressed to this host that passed the MAC
    /// filter and inbound firewall: datagrams, scan responses
    /// (SYN-ACK/RST), and echo replies.
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let _ = (ctx, pkt);
    }

    /// Called when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        let _ = (ctx, timer);
    }

    /// Called for an IP packet whose destination MAC is this host but whose
    /// destination IP is not — i.e. traffic steered here by ARP poisoning.
    /// Ordinary hosts drop it (the default); a man-in-the-middle attacker
    /// inspects, modifies, and re-injects.
    fn on_transit(&mut self, ctx: &mut Context<'_>, ifidx: usize, pkt: Packet) {
        let _ = (ctx, ifidx, pkt);
    }

    /// Called for frames observed promiscuously (node configured with
    /// `promiscuous: true`) that are not addressed to this host. Passive
    /// observation only.
    fn on_promiscuous(&mut self, ctx: &mut Context<'_>, ifidx: usize, frame: &Frame) {
        let _ = (ctx, ifidx, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Nop;
    impl Process for Nop {}

    fn interface(node: NodeId, ip: IpAddr) -> Interface {
        Interface {
            mac: MacAddr::derived(node, 0),
            ip,
            arp: crate::arp::ArpTable::new(crate::arp::ArpMode::Dynamic),
            link: None,
            pending: std::collections::BTreeMap::new(),
        }
    }

    #[test]
    fn context_accessors_and_actions() {
        let interfaces = [interface(NodeId(3), IpAddr::new(10, 0, 0, 3))];
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context {
            node: NodeId(3),
            now: SimTime(77),
            interfaces: &interfaces,
            actions: &mut actions,
            rng: &mut rng,
            trace: None,
        };
        assert_eq!(ctx.node(), NodeId(3));
        assert_eq!(ctx.now(), SimTime(77));
        assert_eq!(ctx.interface_count(), 1);
        assert_eq!(ctx.ip(0), IpAddr::new(10, 0, 0, 3));
        assert_eq!(ctx.mac(0), MacAddr::derived(NodeId(3), 0));
        ctx.set_timer(SimDuration::from_millis(5), 42);
        ctx.listen(Port(8100));
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn default_process_impls_are_noops() {
        let interfaces = [interface(NodeId(0), IpAddr::new(1, 1, 1, 1))];
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context {
            node: NodeId(0),
            now: SimTime(0),
            interfaces: &interfaces,
            actions: &mut actions,
            rng: &mut rng,
            trace: None,
        };
        let mut p = Nop;
        p.on_start(&mut ctx);
        p.on_timer(&mut ctx, 1);
        assert!(actions.is_empty());
    }
}
