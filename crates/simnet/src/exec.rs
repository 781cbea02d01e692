//! The execution core: what dispatching one event does.
//!
//! [`World`] owns the mutable network state (nodes, switches, links,
//! taps) in vectors indexed by the public ids. [`Exec`] holds the
//! event-delivery semantics for one dispatch and schedules follow-up
//! events straight into the simulation's queue, numbering them in
//! creation order.

use std::collections::{BTreeMap, BTreeSet};

use obs::event::DropKind;
use obs::{Event as ObsEvent, ObsHub};
use rand::rngs::StdRng;
use rand::Rng;

use crate::arp::{ArpMode, ArpTable};
use crate::capture::{PacketRecord, Tap};
use crate::firewall::{Direction, Firewall};
use crate::link::{Link, LinkId};
use crate::packet::{ArpBody, ArpOp, EtherPayload, Frame, Packet, TransportKind};
use crate::process::{Action, Context, Process};
use crate::queue::EventQueue;
use crate::sim::EndpointRef;
use crate::switch::{Forward, Switch, SwitchId};
use crate::time::{SimDuration, SimTime};
use crate::types::{IpAddr, MacAddr, NodeId};

/// How long a host waits on an unanswered ARP request before
/// re-broadcasting it (see [`EventKind::ArpRetry`]).
pub(crate) const ARP_RETRY_INTERVAL: SimDuration = SimDuration::from_millis(250);

pub(crate) struct Interface {
    pub(crate) mac: MacAddr,
    pub(crate) ip: IpAddr,
    pub(crate) arp: ArpTable,
    pub(crate) link: Option<LinkId>,
    /// Packets parked while dynamic ARP resolves their next hop.
    pub(crate) pending: BTreeMap<IpAddr, Vec<Packet>>,
}

pub(crate) struct Node {
    #[allow(dead_code)]
    pub(crate) name: String,
    pub(crate) firewall: Firewall,
    pub(crate) interfaces: Vec<Interface>,
    pub(crate) listeners: BTreeSet<crate::types::Port>,
    pub(crate) process: Option<Box<dyn Process>>,
    pub(crate) promiscuous: bool,
    pub(crate) answers_arp_for_other_ifaces: bool,
    pub(crate) strict_interface_binding: bool,
    pub(crate) up: bool,
    /// Bumped on process replacement; stale Start/Timer events are dropped.
    pub(crate) generation: u32,
    /// Inbound packets the firewall silently dropped.
    pub(crate) firewall_drops: u64,
}

#[derive(Debug)]
pub(crate) enum EventKind {
    FrameAt {
        to: EndpointRef,
        frame: Frame,
        /// The link the frame is in flight on; if that link goes down
        /// before the arrival time, the frame is lost (no ghost
        /// deliveries after a flap heals).
        via: LinkId,
    },
    Timer {
        node: NodeId,
        timer: u64,
        generation: u32,
    },
    Start {
        node: NodeId,
        generation: u32,
    },
    /// Re-sends an ARP request if a resolution is still outstanding;
    /// without this, one lost request/reply frame on a lossy link would
    /// park the destination's packets forever.
    ArpRetry {
        node: NodeId,
        ifidx: usize,
        dst_ip: IpAddr,
        generation: u32,
    },
}

impl EventKind {
    /// The profiler stack this event dispatches under: frames charge
    /// the shared network lane, timers/starts/ARP retries charge the
    /// owning host by node name (sanitized so the folded-stack format
    /// survives arbitrary names).
    pub(crate) fn prof_stack(&self, world: &World) -> String {
        let host = |node: NodeId| {
            let name: String = world
                .node(node)
                .name
                .chars()
                .map(|c| {
                    if c == ';' || c.is_whitespace() {
                        '-'
                    } else {
                        c
                    }
                })
                .collect();
            format!("host;{name}")
        };
        match self {
            EventKind::FrameAt { .. } => "net;frame".to_string(),
            EventKind::Timer { node, .. } | EventKind::Start { node, .. } => host(*node),
            EventKind::ArpRetry { node, .. } => format!("{};arp", host(*node)),
        }
    }
}

/// Cached handles for the engine's hot-path counters, re-registered
/// whenever the hub changes (see [`crate::sim::Simulation::attach_obs`]).
pub(crate) struct NetCounters {
    pub(crate) frames_sent: obs::Counter,
    pub(crate) frames_delivered: obs::Counter,
    pub(crate) frames_dropped: obs::Counter,
    pub(crate) packets_to_process: obs::Counter,
    pub(crate) firewall_drops: obs::Counter,
    pub(crate) arp_rejected: obs::Counter,
}

impl NetCounters {
    pub(crate) fn from_hub(hub: &ObsHub) -> Self {
        NetCounters {
            frames_sent: hub.counter("net.frames_sent"),
            frames_delivered: hub.counter("net.frames_delivered"),
            frames_dropped: hub.counter("net.frames_dropped"),
            packets_to_process: hub.counter("net.packets_to_process"),
            firewall_drops: hub.counter("net.firewall_drops"),
            arp_rejected: hub.counter("net.arp_rejected"),
        }
    }
}

/// Mutable network state, stored in vectors indexed by the public ids.
pub(crate) struct World {
    pub(crate) nodes: Vec<Node>,
    pub(crate) switches: Vec<Switch>,
    pub(crate) links: Vec<(Link, EndpointRef, EndpointRef)>,
    pub(crate) taps: Vec<(Tap, SwitchId)>,
    pub(crate) logs: Vec<(SimTime, NodeId, String)>,
    pub(crate) rng: StdRng,
    pub(crate) obs: ObsHub,
    pub(crate) net: NetCounters,
    /// The buffer a process callback fills with what it asks for, empty
    /// between callbacks: kept so a dispatch does not allocate one.
    pub(crate) actions: Vec<Action>,
}

impl World {
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    pub(crate) fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.0 as usize]
    }

    pub(crate) fn switch_mut(&mut self, id: SwitchId) -> &mut Switch {
        &mut self.switches[id.0 as usize]
    }

    pub(crate) fn link(&self, id: LinkId) -> &(Link, EndpointRef, EndpointRef) {
        &self.links[id.0 as usize]
    }

    pub(crate) fn link_mut(&mut self, id: LinkId) -> &mut (Link, EndpointRef, EndpointRef) {
        &mut self.links[id.0 as usize]
    }

    pub(crate) fn tap_mut(&mut self, id: crate::capture::TapId) -> &mut (Tap, SwitchId) {
        &mut self.taps[id.0 as usize]
    }
}

/// One event dispatch worth of execution: delivery semantics over a
/// [`World`], emitting follow-up events into the simulation's queue.
pub(crate) struct Exec<'a> {
    pub(crate) world: &'a mut World,
    pub(crate) now: SimTime,
    pub(crate) queue: &'a mut EventQueue<EventKind>,
    /// The next creation sequence number, the queue's tie-break key.
    pub(crate) seq: &'a mut u64,
}

impl Exec<'_> {
    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.queue.insert(at.as_micros(), *self.seq, kind);
        *self.seq += 1;
    }

    pub(crate) fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start { node, generation } => {
                if self.world.node(node).generation == generation {
                    self.call_process(node, |p, ctx| p.on_start(ctx));
                }
            }
            EventKind::Timer {
                node,
                timer,
                generation,
            } => {
                let n = self.world.node(node);
                if n.up && n.generation == generation {
                    self.call_process(node, |p, ctx| p.on_timer(ctx, timer));
                }
            }
            EventKind::FrameAt { to, frame, via } => {
                // Frames queued on a link that has since gone down are
                // lost, not delivered on heal.
                if !self.world.link(via).0.up {
                    self.world.net.frames_dropped.inc();
                    return;
                }
                match to {
                    EndpointRef::SwitchPort { switch, port } => {
                        self.frame_at_switch(switch, port, frame)
                    }
                    EndpointRef::Nic { node, ifidx } => self.frame_at_nic(node, ifidx, frame),
                }
            }
            EventKind::ArpRetry {
                node,
                ifidx,
                dst_ip,
                generation,
            } => {
                self.arp_retry(node, ifidx, dst_ip, generation);
            }
        }
    }

    /// Invokes a process callback with a fresh [`Context`], then applies the
    /// buffered actions.
    fn call_process<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Process, &mut Context<'_>),
    {
        let Some(mut process) = self.world.node_mut(node).process.take() else {
            return;
        };
        let mut actions = std::mem::take(&mut self.world.actions);
        {
            let mut ctx = Context {
                node,
                now: self.now,
                // Not `world.node()`: the RNG beside it is borrowed too.
                interfaces: &self.world.nodes[node.0 as usize].interfaces,
                actions: &mut actions,
                rng: &mut self.world.rng,
                trace: None,
            };
            f(process.as_mut(), &mut ctx);
        }
        // Only put the process back if nothing replaced it meanwhile
        // (replace_process cannot run during dispatch, so this is safe).
        self.world.node_mut(node).process = Some(process);
        self.apply_actions(node, &mut actions);
        self.world.actions = actions;
    }

    /// Carries out `actions`, leaving the buffer empty.
    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::SendPacket { ifidx, packet } => self.host_send(node, ifidx, packet),
                Action::SendRawFrame { ifidx, frame } => {
                    self.transmit_from_nic(node, ifidx, frame);
                }
                Action::SetTimer { delay, timer } => {
                    let at = self.now + delay;
                    let generation = self.world.node(node).generation;
                    self.push_event(
                        at,
                        EventKind::Timer {
                            node,
                            timer,
                            generation,
                        },
                    );
                }
                Action::Listen(port) => {
                    self.world.node_mut(node).listeners.insert(port);
                }
                Action::Log(line) => {
                    let now = self.now;
                    self.world.logs.push((now, node, line));
                }
            }
        }
    }

    /// The normal host send path: outbound firewall, ARP resolution, frame
    /// construction, transmission.
    fn host_send(&mut self, node: NodeId, ifidx: usize, packet: Packet) {
        {
            let n = self.world.node_mut(node);
            if !n.up {
                return;
            }
            if !n.firewall.permits(Direction::Outbound, &packet) {
                n.firewall_drops += 1;
                self.world.net.firewall_drops.inc();
                self.world.obs.journal(ObsEvent::PacketDrop {
                    node: node.0,
                    kind: DropKind::Firewall,
                });
                return;
            }
        }
        let dst_ip = packet.dst_ip;
        if dst_ip == IpAddr::BROADCAST {
            let src_mac = self.world.node(node).interfaces[ifidx].mac;
            let frame = Frame {
                src_mac,
                dst_mac: MacAddr::BROADCAST,
                payload: EtherPayload::Ip(packet),
            };
            self.transmit_from_nic(node, ifidx, frame);
            return;
        }
        let (resolved, src_mac, src_ip) = {
            let iface = &self.world.node(node).interfaces[ifidx];
            (iface.arp.resolve(dst_ip), iface.mac, iface.ip)
        };
        match resolved {
            Some(dst_mac) => {
                let frame = Frame {
                    src_mac,
                    dst_mac,
                    payload: EtherPayload::Ip(packet),
                };
                self.transmit_from_nic(node, ifidx, frame);
            }
            None => {
                let iface = &mut self.world.node_mut(node).interfaces[ifidx];
                if iface.arp.mode() == ArpMode::Static {
                    // Hardened host: unknown peers are unreachable, full stop.
                    self.world.net.frames_dropped.inc();
                    return;
                }
                // One in-flight ARP resolution per destination: further
                // packets just park on the pending queue (hosts do not
                // emit one ARP request per queued datagram).
                let resolution_in_flight = iface.pending.contains_key(&dst_ip);
                iface.pending.entry(dst_ip).or_default().push(packet);
                if resolution_in_flight {
                    return;
                }
                let frame = Frame {
                    src_mac,
                    dst_mac: MacAddr::BROADCAST,
                    payload: EtherPayload::Arp(ArpBody {
                        op: ArpOp::Request,
                        sender_ip: src_ip,
                        sender_mac: src_mac,
                        target_ip: dst_ip,
                    }),
                };
                self.transmit_from_nic(node, ifidx, frame);
                let generation = self.world.node(node).generation;
                let at = self.now + ARP_RETRY_INTERVAL;
                self.push_event(
                    at,
                    EventKind::ArpRetry {
                        node,
                        ifidx,
                        dst_ip,
                        generation,
                    },
                );
            }
        }
    }

    /// Fires while an ARP resolution is outstanding: re-broadcasts the
    /// request (the first one may have been lost) or, if the mapping
    /// arrived through an opportunistic learn that bypassed the reply
    /// path, flushes the parked packets directly.
    fn arp_retry(&mut self, node: NodeId, ifidx: usize, dst_ip: IpAddr, generation: u32) {
        let (still_pending, resolved, src_mac, src_ip) = {
            let n = self.world.node(node);
            if !n.up || n.generation != generation {
                return;
            }
            let iface = &n.interfaces[ifidx];
            (
                iface.pending.contains_key(&dst_ip),
                iface.arp.resolve(dst_ip).is_some(),
                iface.mac,
                iface.ip,
            )
        };
        if !still_pending {
            return;
        }
        if resolved {
            let ready = self.world.node_mut(node).interfaces[ifidx]
                .pending
                .remove(&dst_ip)
                .unwrap_or_default();
            for pkt in ready {
                self.host_send(node, ifidx, pkt);
            }
            return;
        }
        let frame = Frame {
            src_mac,
            dst_mac: MacAddr::BROADCAST,
            payload: EtherPayload::Arp(ArpBody {
                op: ArpOp::Request,
                sender_ip: src_ip,
                sender_mac: src_mac,
                target_ip: dst_ip,
            }),
        };
        self.transmit_from_nic(node, ifidx, frame);
        let at = self.now + ARP_RETRY_INTERVAL;
        self.push_event(
            at,
            EventKind::ArpRetry {
                node,
                ifidx,
                dst_ip,
                generation,
            },
        );
    }

    fn transmit_from_nic(&mut self, node: NodeId, ifidx: usize, frame: Frame) {
        if !self.world.node(node).up {
            return;
        }
        let Some(link_id) = self.world.node(node).interfaces[ifidx].link else {
            self.world.net.frames_dropped.inc();
            return;
        };
        let from = EndpointRef::Nic { node, ifidx };
        self.transmit(link_id, from, frame);
    }

    fn transmit(&mut self, link_id: LinkId, from: EndpointRef, frame: Frame) {
        self.world.net.frames_sent.inc();
        let (a, b, loss) = {
            let (link, a, b) = self.world.link(link_id);
            (*a, *b, link.spec.loss)
        };
        let a_to_b = a == from;
        debug_assert!(a_to_b || b == from, "endpoint not on link");
        let to = if a_to_b { b } else { a };
        if loss > 0.0 && self.world.rng.gen::<f64>() < loss {
            self.world.link_mut(link_id).0.loss_drops += 1;
            self.world.net.frames_dropped.inc();
            return;
        }
        let now = self.now;
        let scheduled = self
            .world
            .link_mut(link_id)
            .0
            .schedule(a_to_b, frame.wire_size(), now);
        match scheduled {
            Some(arrive) => self.push_event(
                arrive,
                EventKind::FrameAt {
                    to,
                    frame,
                    via: link_id,
                },
            ),
            None => self.world.net.frames_dropped.inc(),
        }
    }

    fn frame_at_switch(&mut self, switch: SwitchId, ingress: usize, frame: Frame) {
        // Span-port capture sees every frame entering the switch.
        let tap_ids = self.world.switch(switch).taps.clone();
        for tap_id in tap_ids {
            let rec = PacketRecord::from_frame(self.now, switch, &frame);
            self.world.tap_mut(tap_id).0.record(rec);
        }
        let decision = self
            .world
            .switch_mut(switch)
            .forward(ingress, frame.src_mac, frame.dst_mac);
        match decision {
            Forward::Ports(ports) => {
                for port in ports {
                    // An active partition confines frames to the ingress
                    // port's group.
                    if !self
                        .world
                        .switch(switch)
                        .same_partition_group(ingress, port)
                    {
                        self.world.switch_mut(switch).partition_drops += 1;
                        self.world.net.frames_dropped.inc();
                        continue;
                    }
                    if let Some(link_id) = self.world.switch(switch).ports[port] {
                        let from = EndpointRef::SwitchPort { switch, port };
                        self.transmit(link_id, from, frame.clone());
                    }
                }
            }
            Forward::Drop(_) => {
                self.world.net.frames_dropped.inc();
            }
        }
    }

    fn frame_at_nic(&mut self, node: NodeId, ifidx: usize, frame: Frame) {
        if !self.world.node(node).up {
            self.world.net.frames_dropped.inc();
            return;
        }
        self.world.net.frames_delivered.inc();
        let (my_mac, my_ip) = {
            let iface = &self.world.node(node).interfaces[ifidx];
            (iface.mac, iface.ip)
        };
        let addressed_to_me = frame.dst_mac == my_mac || frame.dst_mac.is_broadcast();
        if !addressed_to_me {
            if self.world.node(node).promiscuous {
                self.call_process(node, |p, ctx| p.on_promiscuous(ctx, ifidx, &frame));
            }
            return;
        }
        match frame.payload {
            EtherPayload::Arp(arp) => self.handle_arp(node, ifidx, my_mac, my_ip, arp),
            EtherPayload::Ip(packet) => self.handle_ip(node, ifidx, my_mac, my_ip, packet),
        }
    }

    fn handle_arp(
        &mut self,
        node: NodeId,
        ifidx: usize,
        my_mac: MacAddr,
        my_ip: IpAddr,
        arp: ArpBody,
    ) {
        match arp.op {
            ArpOp::Request => {
                // Opportunistic learn of the requester (dynamic mode only).
                {
                    let iface = &mut self.world.node_mut(node).interfaces[ifidx];
                    if iface.arp.mode() == ArpMode::Dynamic {
                        iface.arp.learn(arp.sender_ip, arp.sender_mac);
                    }
                }
                let answers_cross = self.world.node(node).answers_arp_for_other_ifaces;
                let owns_target = arp.target_ip == my_ip
                    || (answers_cross
                        && self
                            .world
                            .node(node)
                            .interfaces
                            .iter()
                            .any(|i| i.ip == arp.target_ip));
                if owns_target {
                    let reply = Frame {
                        src_mac: my_mac,
                        dst_mac: arp.sender_mac,
                        payload: EtherPayload::Arp(ArpBody {
                            op: ArpOp::Reply,
                            sender_ip: arp.target_ip,
                            sender_mac: my_mac,
                            target_ip: arp.sender_ip,
                        }),
                    };
                    self.transmit_from_nic(node, ifidx, reply);
                }
            }
            ArpOp::Reply => {
                let learned = {
                    let iface = &mut self.world.node_mut(node).interfaces[ifidx];
                    let before = iface.arp.rejected_updates;
                    let ok = iface.arp.learn(arp.sender_ip, arp.sender_mac);
                    let rejected = iface.arp.rejected_updates - before;
                    if !ok && rejected > 0 {
                        self.world.net.arp_rejected.add(rejected);
                        self.world.obs.journal(ObsEvent::PacketDrop {
                            node: node.0,
                            kind: DropKind::Arp,
                        });
                    }
                    ok
                };
                if learned {
                    // Flush packets that were waiting for this resolution.
                    let ready = self.world.node_mut(node).interfaces[ifidx]
                        .pending
                        .remove(&arp.sender_ip)
                        .unwrap_or_default();
                    for pkt in ready {
                        self.host_send(node, ifidx, pkt);
                    }
                }
            }
        }
    }

    fn handle_ip(
        &mut self,
        node: NodeId,
        ifidx: usize,
        _my_mac: MacAddr,
        my_ip: IpAddr,
        packet: Packet,
    ) {
        let is_mine = if self.world.node(node).strict_interface_binding {
            // Strong-host model: only the arrival interface's own address.
            packet.dst_ip == my_ip || packet.dst_ip == IpAddr::BROADCAST
        } else {
            packet.dst_ip == my_ip
                || packet.dst_ip == IpAddr::BROADCAST
                || self
                    .world
                    .node(node)
                    .interfaces
                    .iter()
                    .any(|i| i.ip == packet.dst_ip)
        };
        if !is_mine {
            // Steered here by a poisoned ARP entry: transit traffic.
            let trace = packet.trace;
            self.call_process(node, move |p, ctx| {
                ctx.trace = trace;
                p.on_transit(ctx, ifidx, packet);
            });
            return;
        }
        let permitted = self
            .world
            .node(node)
            .firewall
            .permits(Direction::Inbound, &packet);
        if !permitted {
            let n = self.world.node_mut(node);
            n.firewall_drops += 1;
            let responds = n.firewall.responds_to_blocked_syn();
            self.world.net.firewall_drops.inc();
            self.world.obs.journal(ObsEvent::PacketDrop {
                node: node.0,
                kind: DropKind::Firewall,
            });
            if packet.kind == TransportKind::TcpSyn && responds {
                self.respond(node, ifidx, &packet, TransportKind::TcpRst);
            }
            return;
        }
        match packet.kind {
            TransportKind::TcpSyn => {
                let open = self.world.node(node).listeners.contains(&packet.dst_port);
                let kind = if open {
                    TransportKind::TcpSynAck
                } else {
                    TransportKind::TcpRst
                };
                self.respond(node, ifidx, &packet, kind);
                if open {
                    self.world.net.packets_to_process.inc();
                    let trace = packet.trace;
                    self.call_process(node, move |p, ctx| {
                        ctx.trace = trace;
                        p.on_packet(ctx, packet);
                    });
                }
            }
            TransportKind::Ping => {
                self.respond(node, ifidx, &packet, TransportKind::Pong);
            }
            _ => {
                self.world.net.packets_to_process.inc();
                let trace = packet.trace;
                self.call_process(node, move |p, ctx| {
                    ctx.trace = trace;
                    p.on_packet(ctx, packet);
                });
            }
        }
    }

    fn respond(&mut self, node: NodeId, ifidx: usize, to: &Packet, kind: TransportKind) {
        let my_ip = self.world.node(node).interfaces[ifidx].ip;
        let reply = Packet {
            src_ip: my_ip,
            dst_ip: to.src_ip,
            src_port: to.dst_port,
            dst_port: to.src_port,
            kind,
            payload: bytes::Bytes::new(),
            trace: to.trace,
        };
        self.host_send(node, ifidx, reply);
    }
}
