//! The simulation engine: world construction, scheduling, and the event
//! loop.
//!
//! Delivery semantics live in `crate::exec` (a private module); event
//! storage lives in [`crate::queue`]. This module owns the public API
//! and the loop, which dispatches in `(time, creation sequence)` order on
//! the thread that called it.

use std::collections::{BTreeMap, BTreeSet};

use obs::ObsHub;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arp::{ArpMode, ArpTable};
use crate::capture::{PacketRecord, Tap, TapId};
use crate::exec::{EventKind, Exec, Interface, NetCounters, Node, World};
use crate::firewall::Firewall;
use crate::link::{Link, LinkId, LinkSpec};
use crate::process::Process;
use crate::queue::EventQueue;
use crate::switch::{Switch, SwitchId, SwitchMode};
use crate::time::{SimDuration, SimTime};
use crate::types::{IpAddr, MacAddr, NodeId};

/// Where a link terminates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EndpointRef {
    /// A node interface.
    Nic {
        /// The node.
        node: NodeId,
        /// Interface index on the node.
        ifidx: usize,
    },
    /// A switch port.
    SwitchPort {
        /// The switch.
        switch: SwitchId,
        /// Port index on the switch.
        port: usize,
    },
}

/// Configuration for one interface of a new node.
#[derive(Clone, Debug)]
pub struct InterfaceSpec {
    /// The interface's IP address.
    pub ip: IpAddr,
    /// Static (hardened) or dynamic (poisonable) ARP.
    pub arp_mode: ArpMode,
}

impl InterfaceSpec {
    /// Convenience: an interface with dynamic ARP.
    pub fn dynamic(ip: IpAddr) -> Self {
        InterfaceSpec {
            ip,
            arp_mode: ArpMode::Dynamic,
        }
    }

    /// Convenience: an interface with static ARP.
    pub fn static_arp(ip: IpAddr) -> Self {
        InterfaceSpec {
            ip,
            arp_mode: ArpMode::Static,
        }
    }
}

/// Configuration for a new node.
pub struct NodeSpec {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Host firewall.
    pub firewall: Firewall,
    /// Interfaces to create.
    pub interfaces: Vec<InterfaceSpec>,
    /// The hosted process.
    pub process: Box<dyn Process>,
    /// Whether the NIC delivers frames not addressed to it (attacker boxes).
    pub promiscuous: bool,
    /// The misfeature §III-B disables: answer ARP requests for IPs that
    /// belong to *other* NICs on this machine.
    pub answers_arp_for_other_ifaces: bool,
    /// Strong-host model (strict reverse-path/interface binding): accept a
    /// packet only if its destination IP belongs to the *arrival*
    /// interface. Part of the §III-B host hardening; commodity hosts run
    /// the weak-host model (false).
    pub strict_interface_binding: bool,
}

impl NodeSpec {
    /// A standard host: given interfaces, open firewall, not promiscuous,
    /// with the ARP cross-answer misfeature *enabled* (the OS default the
    /// paper had to turn off).
    pub fn new(
        name: impl Into<String>,
        interfaces: Vec<InterfaceSpec>,
        process: Box<dyn Process>,
    ) -> Self {
        NodeSpec {
            name: name.into(),
            firewall: Firewall::open(),
            interfaces,
            process,
            promiscuous: false,
            answers_arp_for_other_ifaces: true,
            strict_interface_binding: false,
        }
    }

    /// Applies the full §III-B host hardening: locked-down firewall (caller
    /// adds allow rules), static ARP, no cross-interface ARP answers.
    pub fn hardened(mut self) -> Self {
        self.firewall = Firewall::locked_down();
        self.answers_arp_for_other_ifaces = false;
        self.strict_interface_binding = true;
        for i in &mut self.interfaces {
            i.arp_mode = ArpMode::Static;
        }
        self
    }
}

/// Does nothing: every [`Simulation`] runs on the thread that called it,
/// whatever `n` is. Kept only because `benchmark/src/adapter.rs` imports
/// it; it goes when the benchmark is next re-based (ROADMAP.md).
pub fn set_default_threads(n: usize) {
    let _ = n;
}

/// The simulation world and scheduler.
pub struct Simulation {
    now: SimTime,
    seq: u64,
    queue: EventQueue<EventKind>,
    world: World,
    events_processed: u64,
}

impl Simulation {
    /// Creates an empty simulation with a deterministic RNG seed, on a
    /// fresh [`ObsHub`]: a deployment builds every component on that hub
    /// ([`Simulation::obs`]), so engine and hosts share one registry.
    pub fn new(seed: u64) -> Self {
        let obs = ObsHub::new();
        let net = NetCounters::from_hub(&obs);
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            world: World {
                nodes: Vec::new(),
                switches: Vec::new(),
                links: Vec::new(),
                taps: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                obs,
                net,
                actions: Vec::new(),
            },
            events_processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed since construction (the numerator of the
    /// benchmark's `sim_events_per_s`).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The observability hub this engine stamps and counts into, for the
    /// life of the simulation.
    pub fn obs(&self) -> &ObsHub {
        &self.world.obs
    }

    /// Adds a node; MACs are derived deterministically. Schedules its
    /// `on_start` at the current time.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.world.nodes.len() as u32);
        let interfaces = spec
            .interfaces
            .into_iter()
            .enumerate()
            .map(|(i, ispec)| Interface {
                mac: MacAddr::derived(id, i as u8),
                ip: ispec.ip,
                arp: ArpTable::new(ispec.arp_mode),
                link: None,
                pending: BTreeMap::new(),
            })
            .collect();
        self.world.nodes.push(Node {
            name: spec.name,
            firewall: spec.firewall,
            interfaces,
            listeners: BTreeSet::new(),
            process: Some(spec.process),
            promiscuous: spec.promiscuous,
            answers_arp_for_other_ifaces: spec.answers_arp_for_other_ifaces,
            strict_interface_binding: spec.strict_interface_binding,
            up: true,
            generation: 0,
        });
        self.push_event(
            self.now,
            EventKind::Start {
                node: id,
                generation: 0,
            },
        );
        id
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, port_count: usize, mode: SwitchMode) -> SwitchId {
        let id = SwitchId(self.world.switches.len() as u32);
        self.world.switches.push(Switch::new(id, port_count, mode));
        id
    }

    /// Attaches a capture tap (span port) to a switch.
    pub fn add_tap(&mut self, switch: SwitchId) -> TapId {
        let id = TapId(self.world.taps.len() as u32);
        self.world.taps.push((Tap::new(), switch));
        self.world.switch_mut(switch).taps.push(id);
        id
    }

    /// Read access to a tap's records.
    pub fn tap(&self, tap: TapId) -> &Tap {
        &self.world.taps[tap.0 as usize].0
    }

    /// Drains a tap's buffered records.
    pub fn drain_tap(&mut self, tap: TapId) -> Vec<PacketRecord> {
        self.world.tap_mut(tap).0.drain()
    }

    /// Connects a node interface to a switch port.
    ///
    /// # Panics
    ///
    /// Panics if either side is already connected or indices are invalid.
    pub fn connect(
        &mut self,
        node: NodeId,
        ifidx: usize,
        switch: SwitchId,
        port: usize,
        spec: LinkSpec,
    ) -> LinkId {
        self.link_endpoints(
            EndpointRef::Nic { node, ifidx },
            EndpointRef::SwitchPort { switch, port },
            spec,
        )
    }

    /// Connects two node interfaces with a direct cable (no switch) — the
    /// paper's PLC-to-proxy wire.
    pub fn connect_direct(
        &mut self,
        (a, a_if): (NodeId, usize),
        (b, b_if): (NodeId, usize),
        spec: LinkSpec,
    ) -> LinkId {
        self.link_endpoints(
            EndpointRef::Nic {
                node: a,
                ifidx: a_if,
            },
            EndpointRef::Nic {
                node: b,
                ifidx: b_if,
            },
            spec,
        )
    }

    /// Connects two switches (inter-switch trunk, e.g. through a router
    /// modeled as a plain link between enterprise and operations networks).
    pub fn connect_switches(
        &mut self,
        (a, a_port): (SwitchId, usize),
        (b, b_port): (SwitchId, usize),
        spec: LinkSpec,
    ) -> LinkId {
        self.link_endpoints(
            EndpointRef::SwitchPort {
                switch: a,
                port: a_port,
            },
            EndpointRef::SwitchPort {
                switch: b,
                port: b_port,
            },
            spec,
        )
    }

    /// The link slot of a NIC or switch port.
    fn link_slot(&mut self, end: EndpointRef) -> &mut Option<LinkId> {
        match end {
            EndpointRef::Nic { node, ifidx } => {
                &mut self.world.node_mut(node).interfaces[ifidx].link
            }
            EndpointRef::SwitchPort { switch, port } => {
                &mut self.world.switch_mut(switch).ports[port]
            }
        }
    }

    /// Allocates the next [`LinkId`] and plugs both ends into it.
    fn link_endpoints(&mut self, a: EndpointRef, b: EndpointRef, spec: LinkSpec) -> LinkId {
        for end in [a, b] {
            let what = match end {
                EndpointRef::Nic { .. } => "interface already connected",
                EndpointRef::SwitchPort { .. } => "switch port already connected",
            };
            assert!(self.link_slot(end).is_none(), "{what}");
        }
        let id = LinkId(self.world.links.len() as u32);
        self.world.links.push((Link::new(spec), a, b));
        *self.link_slot(a) = Some(id);
        *self.link_slot(b) = Some(id);
        id
    }

    /// Installs a static ARP entry on a node interface.
    pub fn install_arp(&mut self, node: NodeId, ifidx: usize, ip: IpAddr, mac: MacAddr) {
        self.world.node_mut(node).interfaces[ifidx]
            .arp
            .install(ip, mac);
    }

    /// The derived MAC of a node interface.
    pub fn mac_of(&self, node: NodeId, ifidx: usize) -> MacAddr {
        self.world.node(node).interfaces[ifidx].mac
    }

    /// The IP of a node interface.
    pub fn ip_of(&self, node: NodeId, ifidx: usize) -> IpAddr {
        self.world.node(node).interfaces[ifidx].ip
    }

    /// Takes a node up or down (crash / power off). Down nodes drop all
    /// frames and timers.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.world.node_mut(node).up = up;
    }

    /// Whether a node is up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.world.node(node).up
    }

    /// Takes a link up or down. Taking a link down also loses every frame
    /// already in flight on it (see `EventKind::FrameAt`).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.world.link_mut(link).0.up = up;
    }

    /// Whether a link is up.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.world.link(link).0.up
    }

    /// A link's current spec (chaos windows save it before mutating).
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        self.world.link(link).0.spec
    }

    /// Sets a link's random-loss probability (loss-burst injection).
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        self.world.link_mut(link).0.spec.loss = loss;
    }

    /// Sets a link's one-way latency (latency-spike injection).
    pub fn set_link_latency(&mut self, link: LinkId, latency: SimDuration) {
        self.world.link_mut(link).0.spec.latency = latency;
    }

    /// The link attached to a node interface, if connected.
    pub fn link_of(&self, node: NodeId, ifidx: usize) -> Option<LinkId> {
        self.world.node(node).interfaces[ifidx].link
    }

    /// Partitions a switch: ports are assigned to groups (unlisted ports
    /// are group 0) and frames only forward between ports of the same
    /// group. Inert until set; [`Simulation::clear_switch_partition`]
    /// heals.
    pub fn set_switch_partition(&mut self, id: SwitchId, assignment: BTreeMap<usize, u32>) {
        self.world.switch_mut(id).set_partition(assignment);
    }

    /// Heals a switch partition.
    pub fn clear_switch_partition(&mut self, id: SwitchId) {
        self.world.switch_mut(id).clear_partition();
    }

    /// Replaces a node's process (proactive recovery installs a fresh,
    /// rediversified replica). Schedules `on_start` for the new process.
    pub fn replace_process(&mut self, node: NodeId, process: Box<dyn Process>) {
        let n = self.world.node_mut(node);
        n.process = Some(process);
        n.generation += 1;
        let generation = n.generation;
        self.push_event(self.now, EventKind::Start { node, generation });
    }

    /// Immutable access to a node's process, downcast to `T`.
    pub fn process_ref<T: Process>(&self, node: NodeId) -> Option<&T> {
        let p = self.world.node(node).process.as_deref()?;
        (p as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Mutable access to a node's process, downcast to `T`.
    ///
    /// Mutating process state from outside the event loop is reserved for
    /// test setup and attacker "hands-on-keyboard" actions.
    pub fn process_mut<T: Process>(&mut self, node: NodeId) -> Option<&mut T> {
        let p = self.world.node_mut(node).process.as_deref_mut()?;
        (p as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// Resolves an IP in a node interface's ARP table (diagnostics: lets
    /// experiments check what a host — or an attacker — has learned).
    pub fn arp_entry(&self, node: NodeId, ifidx: usize, ip: IpAddr) -> Option<MacAddr> {
        self.world.node(node).interfaces[ifidx].arp.resolve(ip)
    }

    /// How many switches exist; their ids are `0..switch_count()`.
    pub fn switch_count(&self) -> usize {
        self.world.switches.len()
    }

    /// Reads a switch's counters.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        self.world.switch(id)
    }

    /// Authorizes `mac` on `port` of a static switch (the operator — or an
    /// attacker with physical access to patch panels — amending the static
    /// MAC-to-port map). No-op for learning switches.
    pub fn authorize_switch_port(&mut self, id: SwitchId, mac: MacAddr, port: usize) {
        if let SwitchMode::Static { map, .. } = &mut self.world.switch_mut(id).mode {
            map.insert(mac, port);
        }
    }

    /// Runs until the event queue is empty or `deadline` is passed.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        // With `obs::prof` enabled this loop is also the profiler's time
        // source: each gap of simulated time is charged to the event
        // that ends it (and the trailing drain to `idle`), so the
        // attribution rows telescope exactly to the elapsed time.
        let profiling = obs::prof::enabled();
        while let Some((at, _key, kind)) = self.queue.pop_due(deadline.as_micros()) {
            if profiling {
                let stack = kind.prof_stack(&self.world);
                obs::prof::charge_time(&stack, at.saturating_sub(self.now.as_micros()));
                obs::prof::charge_msg(&stack, 1, 0);
            }
            self.now = SimTime(at);
            self.world.obs.set_now_us(at);
            Exec {
                world: &mut self.world,
                now: self.now,
                queue: &mut self.queue,
                seq: &mut self.seq,
            }
            .dispatch(kind);
            n += 1;
        }
        self.events_processed += n;
        // Time always advances to the deadline even if the queue drained.
        if self.now < deadline {
            if profiling {
                obs::prof::charge_time("idle", deadline.since(self.now).as_micros());
            }
            self.now = deadline;
            self.world.obs.set_now_us(deadline.as_micros());
        }
        n
    }

    /// Runs for `dur` beyond the current time.
    pub fn run_for(&mut self, dur: SimDuration) -> u64 {
        let deadline = self.now + dur;
        self.run_until(deadline)
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(at.as_micros(), seq, kind);
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.world.nodes.len())
            .field("switches", &self.world.switches.len())
            .field("links", &self.world.links.len())
            .field("queued_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Frame, Packet, TransportKind};
    use crate::process::{Context, Process};
    use crate::types::Port;
    use bytes::Bytes;

    /// Sends one datagram to a peer on start; records everything received.
    struct Chatter {
        peer: IpAddr,
        received: Vec<Packet>,
        send_on_start: bool,
    }

    impl Chatter {
        fn new(peer: IpAddr, send_on_start: bool) -> Box<Self> {
            Box::new(Chatter {
                peer,
                received: Vec::new(),
                send_on_start,
            })
        }
    }

    impl Process for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.send_on_start {
                let pkt = Packet::udp(
                    ctx.ip(0),
                    self.peer,
                    Port(1000),
                    Port(2000),
                    Bytes::from_static(b"hi"),
                );
                ctx.send(0, pkt);
            }
            ctx.listen(Port(2000));
        }

        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            self.received.push(pkt);
        }
    }

    const IP_A: IpAddr = IpAddr::new(10, 0, 0, 1);
    const IP_B: IpAddr = IpAddr::new(10, 0, 0, 2);

    /// Packets `node`'s firewall dropped, as journaled.
    fn journaled_firewall_drops(sim: &Simulation, node: NodeId) -> usize {
        use obs::event::DropKind;
        sim.obs().journal_count(|e| {
            matches!(
                e,
                obs::Event::PacketDrop { node: n, kind: DropKind::Firewall } if *n == node.0
            )
        })
    }

    fn two_hosts_on_switch(arp: ArpMode, seed: u64) -> (Simulation, NodeId, NodeId) {
        let mut sim = Simulation::new(seed);
        let spec_a = InterfaceSpec {
            ip: IP_A,
            arp_mode: arp,
        };
        let spec_b = InterfaceSpec {
            ip: IP_B,
            arp_mode: arp,
        };
        let a = sim.add_node(NodeSpec::new("a", vec![spec_a], Chatter::new(IP_B, true)));
        let b = sim.add_node(NodeSpec::new("b", vec![spec_b], Chatter::new(IP_A, false)));
        let sw = sim.add_switch(4, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        (sim, a, b)
    }

    #[test]
    fn datagram_delivered_via_dynamic_arp() {
        let (mut sim, _a, b) = two_hosts_on_switch(ArpMode::Dynamic, 1);
        sim.run_for(SimDuration::from_millis(10));
        let recv = &sim.process_ref::<Chatter>(b).expect("chatter").received;
        assert_eq!(recv.len(), 1);
        assert_eq!(recv[0].payload.as_ref(), b"hi");
        assert_eq!(recv[0].src_ip, IP_A);
    }

    #[test]
    fn static_arp_without_entry_cannot_send() {
        let (mut sim, _a, b) = two_hosts_on_switch(ArpMode::Static, 1);
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim
            .process_ref::<Chatter>(b)
            .expect("chatter")
            .received
            .is_empty());
    }

    #[test]
    fn static_arp_with_installed_entries_works() {
        let (mut sim, a, b) = two_hosts_on_switch(ArpMode::Static, 1);
        let mac_b = sim.mac_of(b, 0);
        sim.install_arp(a, 0, IP_B, mac_b);
        // Restart a's process behaviour by re-running start via replace.
        sim.replace_process(a, Chatter::new(IP_B, true));
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(
            sim.process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len(),
            1
        );
    }

    #[test]
    fn down_node_receives_nothing() {
        let (mut sim, _a, b) = two_hosts_on_switch(ArpMode::Dynamic, 1);
        sim.set_node_up(b, false);
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim
            .process_ref::<Chatter>(b)
            .expect("chatter")
            .received
            .is_empty());
        sim.set_node_up(b, true);
        assert!(sim.node_up(b));
    }

    #[test]
    fn firewall_blocks_inbound() {
        let mut sim = Simulation::new(2);
        let a = sim.add_node(NodeSpec::new(
            "a",
            vec![InterfaceSpec::dynamic(IP_A)],
            Chatter::new(IP_B, true),
        ));
        let mut spec_b = NodeSpec::new(
            "b",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        );
        spec_b.firewall = Firewall::locked_down();
        let b = sim.add_node(spec_b);
        let sw = sim.add_switch(2, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim
            .process_ref::<Chatter>(b)
            .expect("chatter")
            .received
            .is_empty());
        assert_eq!(journaled_firewall_drops(&sim, b), 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProc {
            fired: Vec<u64>,
        }
        impl Process for TimerProc {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_millis(9), 3);
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: u64) {
                self.fired.push(timer);
            }
        }
        let mut sim = Simulation::new(3);
        let n = sim.add_node(NodeSpec::new(
            "t",
            vec![InterfaceSpec::dynamic(IP_A)],
            Box::new(TimerProc { fired: vec![] }),
        ));
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(
            sim.process_ref::<TimerProc>(n).expect("proc").fired,
            vec![1, 2, 3]
        );
    }

    /// What a run leaves to compare: the registry's snapshot (counters,
    /// journal and its digest) and the events it processed.
    fn run_two_hosts(seed: u64) -> (obs::ObsReport, u64) {
        let (mut sim, _a, _b) = two_hosts_on_switch(ArpMode::Dynamic, seed);
        let n = sim.run_for(SimDuration::from_millis(10));
        assert_eq!(n, sim.events_processed());
        (sim.obs().report(), n)
    }

    #[test]
    fn determinism_same_seed_same_run() {
        for seed in [1, 2, 42, u64::MAX] {
            let first = run_two_hosts(seed);
            assert!(
                first.0.counter("net.frames_delivered") > 0,
                "seed {seed}: nothing ran"
            );
            assert_eq!(run_two_hosts(seed), first, "seed {seed}");
        }
    }

    /// The whole contract of the symbol the benchmark adapter pins.
    #[test]
    fn set_default_threads_changes_nothing_about_a_run() {
        let before = run_two_hosts(1);
        assert!(
            before.0.counter("net.frames_delivered") > 0,
            "the run delivered something to compare"
        );
        set_default_threads(4);
        assert_eq!(run_two_hosts(1), before);
    }

    #[test]
    fn direct_cable_bypasses_switch() {
        let mut sim = Simulation::new(4);
        let a = sim.add_node(NodeSpec::new(
            "plc",
            vec![InterfaceSpec::dynamic(IP_A)],
            Chatter::new(IP_B, true),
        ));
        let b = sim.add_node(NodeSpec::new(
            "proxy",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        ));
        sim.connect_direct((a, 0), (b, 0), LinkSpec::cable());
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(
            sim.process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len(),
            1
        );
    }

    #[test]
    fn tap_records_switch_traffic() {
        let mut sim = Simulation::new(5);
        let a = sim.add_node(NodeSpec::new(
            "a",
            vec![InterfaceSpec::dynamic(IP_A)],
            Chatter::new(IP_B, true),
        ));
        let b = sim.add_node(NodeSpec::new(
            "b",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        ));
        let sw = sim.add_switch(4, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        let tap = sim.add_tap(sw);
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.tap(tap).len() >= 3, "ARP request + reply + data");
        let drained = sim.drain_tap(tap);
        assert!(!drained.is_empty());
        assert!(sim.tap(tap).is_empty());
    }

    /// Sends fifteen numbered datagrams to its peer, one a millisecond.
    struct Beacon {
        peer: IpAddr,
        sent: u32,
    }

    impl Process for Beacon {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: u64) {
            self.sent += 1;
            let payload = Bytes::from(self.sent.to_be_bytes().to_vec());
            ctx.send(
                0,
                Packet::udp(ctx.ip(0), self.peer, Port(1000), Port(2000), payload),
            );
            if self.sent < 15 {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
    }

    /// A beacon and a listener on one switch, run for 20 ms. With
    /// `tap_at`, a tap is attached that far in. Returns the registry's
    /// snapshot, the listener's payloads and the tap's records (none
    /// without a tap).
    fn beacon_run(tap_at: Option<SimDuration>) -> (obs::ObsReport, Vec<Bytes>, Vec<PacketRecord>) {
        let mut sim = Simulation::new(5);
        let beacon = Box::new(Beacon {
            peer: IP_B,
            sent: 0,
        });
        let a = sim.add_node(NodeSpec::new(
            "a",
            vec![InterfaceSpec::dynamic(IP_A)],
            beacon,
        ));
        let b = sim.add_node(NodeSpec::new(
            "b",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        ));
        let sw = sim.add_switch(4, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        let tap = tap_at.map(|at| {
            sim.run_for(at);
            sim.add_tap(sw)
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(20));
        let records = tap.map(|tap| sim.drain_tap(tap)).unwrap_or_default();
        let chatter = sim.process_ref::<Chatter>(b).expect("chatter");
        let received = chatter.received.iter().map(|p| p.payload.clone()).collect();
        (sim.obs().report(), received, records)
    }

    #[test]
    fn tap_attached_mid_run_records_from_then_on_and_changes_nothing() {
        let (plain_stats, plain_rx, _) = beacon_run(None);
        let (full_stats, full_rx, full) = beacon_run(Some(SimDuration::ZERO));
        let from = SimDuration::from_millis(10);
        let (late_stats, late_rx, late) = beacon_run(Some(from));

        // A tap from the start sees every frame that enters the switch.
        // Here each leaves by exactly one port, so that is half of all
        // frames sent.
        assert_eq!(plain_stats.counter("net.frames_dropped"), 0);
        assert_eq!(
            full.len() as u64 * 2,
            plain_stats.counter("net.frames_sent")
        );

        // The late tap holds exactly what a tap from the start saw after
        // it was attached (events at `from` itself ran before it).
        let (before, after): (Vec<_>, Vec<_>) = full
            .into_iter()
            .partition(|r| r.time <= SimTime::ZERO + from);
        assert!(
            !before.is_empty(),
            "frames entered the switch before the attach"
        );
        assert!(!late.is_empty());
        assert_eq!(late, after);

        // A tap only watches: the run without one delivers the same frames.
        assert_eq!(plain_rx.len(), 15);
        assert_eq!(plain_stats.counters, full_stats.counters);
        assert_eq!(plain_stats.counters, late_stats.counters);
        assert_eq!(plain_rx, full_rx);
        assert_eq!(plain_rx, late_rx);
    }

    #[test]
    fn ping_gets_pong() {
        struct Pinger {
            peer: IpAddr,
            pongs: u32,
        }
        impl Process for Pinger {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let pkt = Packet {
                    src_ip: ctx.ip(0),
                    dst_ip: self.peer,
                    src_port: Port(0),
                    dst_port: Port(0),
                    kind: TransportKind::Ping,
                    payload: Bytes::new(),
                    trace: None,
                };
                ctx.send(0, pkt);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
                if pkt.kind == TransportKind::Pong {
                    self.pongs += 1;
                }
            }
        }
        let mut sim = Simulation::new(6);
        let a = sim.add_node(NodeSpec::new(
            "a",
            vec![InterfaceSpec::dynamic(IP_A)],
            Box::new(Pinger {
                peer: IP_B,
                pongs: 0,
            }),
        ));
        let b = sim.add_node(NodeSpec::new(
            "b",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        ));
        let sw = sim.add_switch(2, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.process_ref::<Pinger>(a).expect("pinger").pongs, 1);
    }

    #[test]
    fn syn_to_open_port_synack_closed_rst() {
        struct Scanner {
            peer: IpAddr,
            results: Vec<(Port, TransportKind)>,
        }
        impl Process for Scanner {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for port in [2000u16, 2001] {
                    let pkt = Packet::syn(ctx.ip(0), self.peer, Port(40000), Port(port));
                    ctx.send(0, pkt);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
                self.results.push((pkt.src_port, pkt.kind));
            }
        }
        let mut sim = Simulation::new(7);
        let a = sim.add_node(NodeSpec::new(
            "scanner",
            vec![InterfaceSpec::dynamic(IP_A)],
            Box::new(Scanner {
                peer: IP_B,
                results: vec![],
            }),
        ));
        let b = sim.add_node(NodeSpec::new(
            "b",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        ));
        let sw = sim.add_switch(2, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        sim.run_for(SimDuration::from_millis(10));
        let results = &sim.process_ref::<Scanner>(a).expect("scanner").results;
        assert_eq!(results.len(), 2);
        let mut sorted = results.clone();
        sorted.sort_by_key(|(p, _)| p.0);
        assert_eq!(sorted[0], (Port(2000), TransportKind::TcpSynAck));
        assert_eq!(sorted[1], (Port(2001), TransportKind::TcpRst));
    }

    #[test]
    fn strict_interface_binding_drops_cross_interface_packets() {
        // Node B has two interfaces; a packet addressed to interface 1's
        // IP but delivered (via broadcast) to interface 0 is dropped under
        // the strong-host model and accepted under the weak-host model.
        struct RawSender {
            target_ip: IpAddr,
        }
        impl Process for RawSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let pkt = Packet::udp(ctx.ip(0), self.target_ip, Port(5), Port(2000), Bytes::new());
                let frame = Frame {
                    src_mac: ctx.mac(0),
                    dst_mac: MacAddr::BROADCAST,
                    payload: crate::packet::EtherPayload::Ip(pkt),
                };
                ctx.send_raw(0, frame);
            }
        }
        let other_ip = IpAddr::new(172, 16, 0, 1);
        for (strict, expect_delivered) in [(true, 0usize), (false, 1usize)] {
            let mut sim = Simulation::new(31);
            let a = sim.add_node(NodeSpec::new(
                "a",
                vec![InterfaceSpec::dynamic(IP_A)],
                Box::new(RawSender {
                    target_ip: other_ip,
                }),
            ));
            let mut spec_b = NodeSpec::new(
                "b",
                vec![
                    InterfaceSpec::dynamic(IP_B),
                    InterfaceSpec::dynamic(other_ip),
                ],
                Chatter::new(IP_A, false),
            );
            spec_b.strict_interface_binding = strict;
            let b = sim.add_node(spec_b);
            let sw = sim.add_switch(2, SwitchMode::Learning);
            sim.connect(a, 0, sw, 0, LinkSpec::lan());
            sim.connect(b, 0, sw, 1, LinkSpec::lan());
            sim.run_for(SimDuration::from_millis(10));
            let got = sim
                .process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len();
            assert_eq!(got, expect_delivered, "strict={strict}");
        }
    }

    #[test]
    fn locked_down_target_gives_scanner_nothing() {
        struct Scanner {
            peer: IpAddr,
            responses: u32,
        }
        impl Process for Scanner {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for port in 2000u16..2010 {
                    ctx.send(
                        0,
                        Packet::syn(ctx.ip(0), self.peer, Port(40000), Port(port)),
                    );
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
                self.responses += 1;
            }
        }
        let mut sim = Simulation::new(8);
        let a = sim.add_node(NodeSpec::new(
            "scanner",
            vec![InterfaceSpec::dynamic(IP_A)],
            Box::new(Scanner {
                peer: IP_B,
                responses: 0,
            }),
        ));
        let mut spec_b = NodeSpec::new(
            "b",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        );
        spec_b.firewall = Firewall::locked_down();
        let b = sim.add_node(spec_b);
        let sw = sim.add_switch(2, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        sim.run_for(SimDuration::from_millis(10));
        // The red team saw *nothing*: no SYN-ACK, no RST.
        assert_eq!(sim.process_ref::<Scanner>(a).expect("scanner").responses, 0);
        assert_eq!(journaled_firewall_drops(&sim, b), 10);
    }

    /// Two chatters on a direct link with ARP already warm; returns the
    /// link so tests can flap or reshape it.
    fn warm_direct_pair() -> (Simulation, NodeId, NodeId, LinkId) {
        let mut sim = Simulation::new(3);
        let a = sim.add_node(NodeSpec::new(
            "a",
            vec![InterfaceSpec::dynamic(IP_A)],
            Chatter::new(IP_B, true),
        ));
        let b = sim.add_node(NodeSpec::new(
            "b",
            vec![InterfaceSpec::dynamic(IP_B)],
            Chatter::new(IP_A, false),
        ));
        let link = sim.connect_direct((a, 0), (b, 0), LinkSpec::lan());
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(
            sim.process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len(),
            1
        );
        (sim, a, b, link)
    }

    #[test]
    fn downed_link_drops_in_flight_frames() {
        let (mut sim, a, b, link) = warm_direct_pair();
        // Re-send, then take the link down while the frame is in flight:
        // the frame must be lost, not delivered when the link heals.
        sim.replace_process(a, Chatter::new(IP_B, true));
        sim.run_for(SimDuration::from_micros(10));
        sim.set_link_up(link, false);
        assert!(!sim.link_up(link));
        sim.run_for(SimDuration::from_millis(1));
        sim.set_link_up(link, true);
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(
            sim.process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len(),
            1,
            "ghost frame delivered after link heal"
        );
    }

    #[test]
    fn link_loss_and_latency_windows_apply() {
        let (mut sim, a, b, link) = warm_direct_pair();
        // Total loss: nothing new arrives.
        sim.set_link_loss(link, 1.0);
        sim.replace_process(a, Chatter::new(IP_B, true));
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(
            sim.process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len(),
            1
        );
        // Heal the loss, spike the latency: delivery happens, but late.
        sim.set_link_loss(link, 0.0);
        sim.set_link_latency(link, SimDuration::from_millis(2));
        assert_eq!(sim.link_spec(link).latency, SimDuration::from_millis(2));
        sim.replace_process(a, Chatter::new(IP_B, true));
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(
            sim.process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len(),
            1,
            "frame arrived before the spiked latency elapsed"
        );
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(
            sim.process_ref::<Chatter>(b)
                .expect("chatter")
                .received
                .len(),
            2
        );
    }

    #[test]
    fn switch_partition_confines_frames_to_groups() {
        let (mut sim, a, b) = two_hosts_on_switch(ArpMode::Dynamic, 1);
        let sw = SwitchId(0);
        let mut groups = BTreeMap::new();
        groups.insert(1usize, 1u32); // b's port in group 1, a's in group 0
        sim.set_switch_partition(sw, groups);
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim
            .process_ref::<Chatter>(b)
            .expect("chatter")
            .received
            .is_empty());
        assert!(sim.switch(sw).partition_drops > 0);
        assert!(sim.switch(sw).partition_active());
        // Heal: the ARP retry re-broadcasts, resolution completes, and the
        // packet parked during the partition finally delivers.
        sim.clear_switch_partition(sw);
        sim.run_for(SimDuration::from_millis(600));
        assert!(!sim
            .process_ref::<Chatter>(b)
            .expect("chatter")
            .received
            .is_empty());
        let _ = a;
    }
}
