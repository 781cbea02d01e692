//! The PLC emulator as a [`simnet`] process.
//!
//! Speaks Modbus/TCP framing over the simulator (on the standard port 502)
//! whether it is attached to a switch (the exposed commercial deployment)
//! or to a direct cable behind a proxy (the Spire deployment) — the *same
//! device* in both experiments; only the network placement differs.
//!
//! Every `scan_interval` the emulator runs one scan cycle, like OpenPLC:
//!
//! 1. adopt any newly uploaded configuration image (if it parses),
//! 2. map coil values through the configuration to breaker commands,
//! 3. step breaker mechanics (operate delays),
//! 4. publish positions to discrete inputs and currents to input
//!    registers.

use modbus::{execute, execute_traced, DataStore, Request, Response, TcpFrame};
use obs::trace::{Stage, TraceCtx};
use obs::ObsHub;
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::{SimDuration, SimTime};
use simnet::types::Port;

use crate::breaker::BreakerBank;
use crate::logic::LogicConfig;
use crate::topology::{PowerTopology, Scenario};

/// The standard Modbus port the emulator listens on.
pub const PLC_MODBUS_PORT: Port = Port(502);

const SCAN_TIMER: u64 = 1;

/// An emulated PLC controlling one scenario topology.
pub struct PlcEmulator {
    topology: PowerTopology,
    bank: BreakerBank,
    store: DataStore,
    config: LogicConfig,
    last_adopted_image: Vec<u8>,
    /// The breaker positions the power flow was last solved for, and the
    /// current through each breaker then. Currents are a function of the
    /// positions alone, so a scan re-solves only when a breaker has moved.
    solved_positions: Vec<bool>,
    solved_currents: Vec<u16>,
    /// Power-flow solves so far.
    #[cfg(test)]
    solves: u64,
    scan_interval: SimDuration,
    /// Modbus requests answered.
    pub requests_served: u64,
    /// Frames that failed to parse (malformed / tampered).
    pub invalid_frames: u64,
    /// Configuration images adopted after upload (forensics).
    pub configs_adopted: u64,
    /// Breaker position changes, as `(time, breaker, closed)`.
    pub position_log: Vec<(SimTime, u16, bool)>,
    /// Observability hub (private by default; deployments share theirs
    /// via [`PlcEmulator::attach_obs`]).
    obs: ObsHub,
    /// Component id used on journaled spans (the proxy/PLC index).
    trace_node: u32,
    /// Detect span opened by a physical flip, not yet published.
    armed_trace: Option<TraceCtx>,
    /// Detect span whose position change a scan has published; handed
    /// to the next positions poll.
    visible_trace: Option<TraceCtx>,
    /// Modbus-write span of a commanded operation awaiting mechanics.
    pending_cmd_trace: Option<TraceCtx>,
}

impl PlcEmulator {
    /// Creates an emulator for a scenario with typical timings (10 ms scan,
    /// 40 ms breaker operate delay).
    pub fn new(scenario: Scenario) -> Self {
        Self::with_timing(
            scenario,
            SimDuration::from_millis(10),
            SimDuration::from_millis(40),
        )
    }

    /// Creates an emulator with explicit scan interval and operate delay.
    pub fn with_timing(
        scenario: Scenario,
        scan_interval: SimDuration,
        operate_delay: SimDuration,
    ) -> Self {
        let topology = scenario.topology();
        let n = topology.breaker_count();
        let mut store = DataStore::new(n.max(1), n.max(8));
        let config = LogicConfig::factory();
        let image = config.to_image();
        store.config_image = image.clone();
        store.device_id = format!("OpenPLC-emu scenario={}", scenario.tag());
        // Coils start closed to match the initially-closed breaker bank.
        for i in 0..n {
            store.set_coil(i as u16, true);
            store.set_discrete_input(i as u16, true);
        }
        PlcEmulator {
            topology,
            bank: BreakerBank::new(n, operate_delay),
            store,
            config,
            last_adopted_image: image,
            solved_positions: Vec::new(),
            solved_currents: Vec::new(),
            #[cfg(test)]
            solves: 0,
            scan_interval,
            requests_served: 0,
            invalid_frames: 0,
            configs_adopted: 0,
            position_log: Vec::new(),
            obs: ObsHub::new(),
            trace_node: 0,
            armed_trace: None,
            visible_trace: None,
            pending_cmd_trace: None,
        }
    }

    /// Replaces the private hub with the deployment's shared one and
    /// records the PLC's index for span attribution.
    pub fn attach_obs(&mut self, hub: &ObsHub, node: u32) {
        self.obs = hub.clone();
        self.trace_node = node;
    }

    /// The electrical topology under control.
    pub fn topology(&self) -> &PowerTopology {
        &self.topology
    }

    /// Current mechanical breaker positions.
    pub fn positions(&self) -> Vec<bool> {
        self.bank.positions().collect()
    }

    /// The currently active logic configuration.
    pub fn config(&self) -> &LogicConfig {
        &self.config
    }

    /// Direct access to the Modbus data store (tests and the direct-wire
    /// proxy use this; network peers go through packets).
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Count of loads currently energized (derived ground truth).
    pub fn energized_loads(&self) -> usize {
        self.topology.energized_count(&self.positions())
    }

    /// Runs one scan cycle at `now` (public so the direct-wire proxy and
    /// unit tests can drive the device without a simulator).
    pub fn scan(&mut self, now: SimTime) {
        // 1. Adopt a newly uploaded config if it parses.
        if self.store.config_image != self.last_adopted_image {
            if let Ok(cfg) = LogicConfig::from_image(&self.store.config_image) {
                self.config = cfg;
                self.configs_adopted += 1;
            }
            self.last_adopted_image = self.store.config_image.clone();
        }
        // 2. Coils → commands through the logic config.
        for i in 0..self.bank.len() {
            let coil = self.store.coil(i as u16).unwrap_or(false);
            if let Some(cmd) = self.config.transform_command(i, coil) {
                self.bank.command(i, cmd, now);
            }
        }
        // 3. Mechanics.
        for idx in self.bank.step(now) {
            let closed = self.bank.breaker(idx).is_some_and(|b| b.position);
            self.position_log.push((now, idx as u16, closed));
            // A commanded operation completed its operate delay: the
            // mechanical actuation terminates the command trace.
            let cmd = self.pending_cmd_trace.take();
            let _ = self.obs.instant_span(cmd, Stage::Actuate, self.trace_node);
        }
        // 4. Publish feedback, every scan; the currents are solved anew
        // only for positions other than the last ones solved for.
        if !self
            .bank
            .positions()
            .eq(self.solved_positions.iter().copied())
        {
            self.solved_positions.clear();
            self.solved_positions.extend(self.bank.positions());
            self.solved_currents.clear();
            let current = |i| {
                self.topology
                    .breaker_current(i as u16, &self.solved_positions)
            };
            self.solved_currents
                .extend((0..self.solved_positions.len()).map(current));
            #[cfg(test)]
            {
                self.solves += 1;
            }
        }
        let feedback = self.solved_positions.iter().zip(&self.solved_currents);
        for (i, (&closed, &current)) in feedback.enumerate() {
            self.store.set_discrete_input(i as u16, closed);
            self.store.set_input(i as u16, current);
        }
        // A physically flipped position is now visible to polls; the
        // next positions read carries its Detect span onward.
        if self.armed_trace.is_some() {
            self.visible_trace = self.armed_trace.take();
        }
    }

    /// Handles one Modbus request PDU, returning the response PDU.
    pub fn handle_request(&mut self, req: &Request) -> Response {
        self.requests_served += 1;
        execute(req, &mut self.store)
    }

    /// Physically operates a breaker (the §V measurement device, or a
    /// field crew): the mechanical position changes immediately and the
    /// coil follows, bypassing the network command path entirely. The next
    /// scan publishes the new position to the discrete inputs.
    pub fn force_breaker(&mut self, idx: u16, closed: bool, now: SimTime) {
        if self.bank.force_position(idx as usize, closed) {
            self.store.set_coil(idx, closed);
            self.position_log.push((now, idx, closed));
            // Root a status trace at the physical event. Ends when a
            // positions poll picks the change up.
            self.armed_trace = self.obs.start_root(Stage::Detect, self.trace_node);
        }
    }

    /// [`PlcEmulator::handle_request`] for network requests: writes
    /// stamp Modbus-write spans under the request packet's context.
    fn handle_request_traced(&mut self, req: &Request, parent: Option<TraceCtx>) -> Response {
        self.requests_served += 1;
        let (resp, write_span) =
            execute_traced(req, &mut self.store, &self.obs, parent, self.trace_node);
        if write_span.is_some() {
            self.pending_cmd_trace = write_span;
        }
        resp
    }
}

impl Process for PlcEmulator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.listen(PLC_MODBUS_PORT);
        ctx.set_timer(self.scan_interval, SCAN_TIMER);
        ctx.log("plc: online");
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer == SCAN_TIMER {
            self.scan(ctx.now());
            ctx.set_timer(self.scan_interval, SCAN_TIMER);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.dst_port != PLC_MODBUS_PORT {
            return;
        }
        let Some(frame) = TcpFrame::decode(&pkt.payload) else {
            self.invalid_frames += 1;
            return;
        };
        let Some(req) = Request::decode(&frame.pdu) else {
            self.invalid_frames += 1;
            return;
        };
        obs::prof::charge_msg("plc;io", 1, 0);
        let resp = self.handle_request_traced(&req, ctx.trace());
        if matches!(req, Request::ReadDiscreteInputs { .. }) {
            if let Some(detect) = self.visible_trace.take() {
                // This poll observes the flipped position: close the
                // Detect span and let the reply carry it to the poller.
                self.obs.end_span(Some(detect));
                ctx.set_trace(Some(detect));
            }
        }
        let reply_frame = TcpFrame::new(frame.header.transaction, frame.header.unit, resp.encode());
        let reply = Packet::udp(
            ctx.ip(0),
            pkt.src_ip,
            PLC_MODBUS_PORT,
            pkt.src_port,
            bytes::Bytes::from(reply_frame.encode()),
        );
        ctx.send(0, reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unchanged_positions_are_solved_once_and_a_flip_once_more() {
        let mut plc = PlcEmulator::new(Scenario::RedTeamDistribution);
        for scan in 0..1_000u64 {
            plc.scan(SimTime(scan * 10_000));
        }
        assert_eq!(plc.solves, 1);
        assert_eq!(plc.store().input(0), Some(400));
        plc.force_breaker(1, false, SimTime(10_000_000));
        for scan in 1_000..2_000u64 {
            plc.scan(SimTime(scan * 10_000));
        }
        assert_eq!(plc.solves, 2);
        assert_eq!(plc.store().input(0), Some(200));
        assert_eq!(plc.store().input(1), Some(0));
    }

    proptest! {
        /// The remembered currents are invisible: against a twin that
        /// forgets them before every scan, any interleaving of scans,
        /// coil writes, physical operations and config uploads leaves the
        /// same data store and the same position log at every step.
        #[test]
        fn remembering_currents_changes_nothing_observable(
            ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u32>()), 1..80),
        ) {
            let mut plc = PlcEmulator::new(Scenario::RedTeamDistribution);
            let mut twin = PlcEmulator::new(Scenario::RedTeamDistribution);
            let mut now = SimTime(0);
            for (op, a, b) in ops {
                let breaker = a % 8; // one past the bank: rejected by both
                let on = b & 1 == 1;
                for device in [&mut plc, &mut twin] {
                    match op {
                        0..4 => device.scan(now),
                        4 | 5 => {
                            device.handle_request(&Request::WriteSingleCoil {
                                address: breaker,
                                value: on,
                            });
                        }
                        6 => device.force_breaker(breaker, on, now),
                        _ => {
                            let image = LogicConfig {
                                invert_commands: b & 2 != 0,
                                force_open_mask: (b >> 8) & 0x7f & u32::from(a),
                                force_closed_mask: (b >> 16) & 0x7f & u32::from(a >> 8),
                                accept_remote_commands: b & 4 == 0,
                                ..LogicConfig::factory()
                            }
                            .to_image();
                            device.handle_request(&Request::ConfigUpload { image });
                        }
                    }
                }
                twin.solved_positions.clear();
                now += SimDuration::from_millis(u64::from(a % 5) * 10);
                prop_assert_eq!(plc.store(), twin.store());
                prop_assert_eq!(&plc.position_log, &twin.position_log);
            }
            prop_assert!(plc.solves <= twin.solves);
        }
    }

    #[test]
    fn scan_applies_coil_to_breaker_after_delay() {
        let mut plc = PlcEmulator::new(Scenario::RedTeamDistribution);
        assert_eq!(plc.energized_loads(), 4);
        // Open the main breaker via a Modbus write.
        let resp = plc.handle_request(&Request::WriteSingleCoil {
            address: 0,
            value: false,
        });
        assert_eq!(
            resp,
            Response::WriteSingleCoil {
                address: 0,
                value: false
            }
        );
        plc.scan(SimTime(10_000)); // command issued, mechanics pending
        assert!(plc.positions()[0]);
        plc.scan(SimTime(60_000)); // past operate delay
        assert!(!plc.positions()[0]);
        assert_eq!(plc.energized_loads(), 0);
        assert_eq!(plc.position_log.len(), 1);
        // Feedback published.
        assert_eq!(plc.store().discrete_input(0), Some(false));
        assert_eq!(plc.store().input(0), Some(0));
    }

    #[test]
    fn currents_published_for_closed_breakers() {
        let mut plc = PlcEmulator::new(Scenario::RedTeamDistribution);
        plc.scan(SimTime(0));
        assert_eq!(plc.store().input(0), Some(400));
        assert_eq!(plc.store().input(1), Some(200));
        assert_eq!(plc.store().input(3), Some(100));
    }

    #[test]
    fn tampered_config_upload_takes_control() {
        let mut plc = PlcEmulator::new(Scenario::RedTeamDistribution);
        // Attacker dumps config...
        let dump = plc.handle_request(&Request::ConfigDownload);
        let Response::ConfigImage { image } = dump else {
            panic!("expected image")
        };
        let mut cfg = LogicConfig::from_image(&image).expect("factory parses");
        // ...modifies it to force every breaker open...
        cfg.force_open_mask = 0x7F;
        // ...and uploads it.
        let up = plc.handle_request(&Request::ConfigUpload {
            image: cfg.to_image(),
        });
        assert_eq!(up, Response::ConfigAccepted);
        plc.scan(SimTime(10_000));
        plc.scan(SimTime(100_000));
        // All breakers forced open despite coils commanding closed.
        assert!(plc.positions().iter().all(|&p| !p));
        assert_eq!(plc.energized_loads(), 0);
        assert_eq!(plc.configs_adopted, 1);
        assert!(!plc.config().is_factory());
    }

    #[test]
    fn invalid_config_upload_is_ignored() {
        let mut plc = PlcEmulator::new(Scenario::PlantSubset);
        plc.handle_request(&Request::ConfigUpload {
            image: vec![0xde, 0xad],
        });
        plc.scan(SimTime(10_000));
        assert!(plc.config().is_factory());
        assert_eq!(plc.configs_adopted, 0);
    }

    #[test]
    fn device_id_names_scenario() {
        let mut plc = PlcEmulator::new(Scenario::EmulatedGeneration(2));
        let resp = plc.handle_request(&Request::ReadDeviceId);
        let Response::DeviceId { text } = resp else {
            panic!("expected id")
        };
        assert!(text.contains("gen2"));
    }

    #[test]
    fn positions_via_modbus_poll() {
        let mut plc = PlcEmulator::new(Scenario::PlantSubset);
        plc.scan(SimTime(0));
        let resp = plc.handle_request(&Request::ReadDiscreteInputs {
            address: 0,
            count: 3,
        });
        assert_eq!(
            resp,
            Response::Bits {
                function: 0x02,
                values: vec![true, true, true]
            }
        );
    }
}
