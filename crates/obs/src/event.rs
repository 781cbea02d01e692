//! Typed journal records and their canonical byte encoding.
//!
//! The journal is the run's narrative: every security- or
//! availability-relevant occurrence lands here as a typed record with
//! the simulated timestamp. The byte encoding is fixed (tag byte +
//! little-endian fields) so a run hashes to a stable digest — the
//! determinism tests compare digests across same-seed runs.

use std::fmt;

use crate::trace::{SpanId, Stage, TraceId};

/// Why the network layer dropped a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropKind {
    /// Random link loss.
    Loss,
    /// Rejected by a firewall rule.
    Firewall,
    /// ARP request from an unauthorized address.
    Arp,
    /// Destination NIC or port not present.
    NoRoute,
}

impl DropKind {
    fn tag(self) -> u8 {
        match self {
            DropKind::Loss => 0,
            DropKind::Firewall => 1,
            DropKind::Arp => 2,
            DropKind::NoRoute => 3,
        }
    }
}

/// [`Event::InvariantViolation`] tag: two replicas reported different
/// application digests for one executed sequence number (safety).
pub const INV_AGREEMENT: u8 = 0;
/// [`Event::InvariantViolation`] tag: an HMI rendered a breaker state the
/// field never held (safety).
pub const INV_HMI_TRUTH: u8 = 1;
/// [`Event::InvariantViolation`] tag: ordering stalled past the delay
/// bound while the faults fit the budget (liveness).
pub const INV_BOUNDED_DELAY: u8 = 2;
/// [`Event::InvariantViolation`] tag: a healed replica missed the
/// reconvergence window (liveness).
pub const INV_RECONVERGENCE: u8 = 3;

/// The name of an invariant tag, as the journal prints it.
fn invariant_name(tag: u8) -> &'static str {
    match tag {
        INV_AGREEMENT => "agreement",
        INV_HMI_TRUTH => "hmi-truth",
        INV_BOUNDED_DELAY => "bounded-delay",
        INV_RECONVERGENCE => "reconvergence",
        _ => "unknown",
    }
}

/// One structured journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The network dropped a frame at `node`.
    PacketDrop {
        /// Node (switch or host) where the drop happened.
        node: u32,
        /// Drop cause.
        kind: DropKind,
    },
    /// A Spines daemon rejected an unauthenticated or forged message.
    AuthFailure {
        /// Rejecting daemon id.
        daemon: u32,
    },
    /// A Prime replica installed a new view.
    ViewChange {
        /// Replica that installed the view.
        replica: u32,
        /// The installed view number.
        view: u64,
    },
    /// A replica was taken down for proactive or reactive recovery.
    RecoveryStart {
        /// Recovering replica id.
        replica: u32,
    },
    /// A recovered replica rejoined with state transferred.
    RecoveryEnd {
        /// Recovered replica id.
        replica: u32,
    },
    /// An HMI emitted a display frame after collecting enough votes.
    FrameEmit {
        /// Emitting HMI id.
        hmi: u32,
        /// Frame sequence number that crossed the vote threshold.
        seq: u64,
    },
    /// A causal-tracing span began (the record's timestamp is the span
    /// start). Span trees fold into the run digest like any other event.
    SpanStart {
        /// Trace this span belongs to.
        trace: TraceId,
        /// The span's id (unique within the run).
        span: SpanId,
        /// Parent span, `None` for a trace root.
        parent: Option<SpanId>,
        /// Pipeline stage the span attributes time to.
        stage: Stage,
        /// Component id (replica/proxy/HMI index) that stamped it.
        node: u32,
    },
    /// A causal-tracing span ended (the record's timestamp is the end).
    SpanEnd {
        /// Trace the span belongs to.
        trace: TraceId,
        /// The ending span.
        span: SpanId,
    },
    /// The scheduler, or the chaos `ClockSkew` probe, handed the hub a
    /// clock earlier than the current one.
    /// The hub keeps the monotonic clock (span durations can never
    /// underflow) and journals the rejected value instead.
    ClockSkew {
        /// The monotonic clock that was kept, in microseconds.
        from_us: u64,
        /// The rejected earlier timestamp, in microseconds.
        to_us: u64,
    },
    /// The chaos driver injected a fault (`kind` is the
    /// `chaos::FaultKind` tag; `target` the replica/link it hit).
    ChaosInject {
        /// Fault-kind tag.
        kind: u8,
        /// Target component (replica id for most kinds).
        target: u32,
    },
    /// The chaos driver healed a previously injected fault.
    ChaosHeal {
        /// Fault-kind tag.
        kind: u8,
        /// Target component (replica id for most kinds).
        target: u32,
    },
    /// The continuous invariant checker recorded a violation.
    InvariantViolation {
        /// Invariant tag ([`INV_AGREEMENT`] .. [`INV_RECONVERGENCE`]).
        invariant: u8,
        /// Invariant-specific detail (e.g. the execution sequence or the
        /// replica involved).
        detail: u64,
    },
    /// A replica the checker saw come back (from down or cut off) caught
    /// up to where the healthy majority was when it came back.
    Reconverged {
        /// The replica that caught up.
        replica: u32,
        /// Time from its return to caught up, microseconds.
        latency_us: u64,
    },
    /// Periodic per-replica Prime health snapshot (the flight recorder).
    /// Emitted every `prof::health_every()` protocol ticks; off by
    /// default so historical digests are untouched, and fully
    /// seed-deterministic when on (gauges are pure replica state read at
    /// deterministic tick times).
    ReplicaHealth {
        /// Snapshotting replica id.
        replica: u32,
        /// Current view number.
        view: u64,
        /// Sum of per-origin pre-ordering ARU counters (cumulative
        /// updates contiguously received across all origins).
        aru: u64,
        /// PO-queue depth: updates received into pre-ordering but not
        /// yet executed here (eligible-but-unplanned plus the planned
        /// execution backlog). Drains to ~0 in a healthy quiet cluster.
        po_queue: u32,
        /// Ordering sequences proposed but not yet committed here.
        in_flight: u32,
        /// Turnaround-time estimate: age of the oldest known unordered
        /// update, microseconds (0 = nothing waiting).
        tat_us: u64,
        /// Whether a catch-up (state transfer) is in progress.
        catching_up: bool,
    },
    /// Periodic per-link Spines queue-depth snapshot, journaled by the
    /// replica host on the same cadence as [`Event::ReplicaHealth`].
    LinkHealth {
        /// Owning Spines daemon id.
        daemon: u32,
        /// Which overlay: 0 = internal (replication), 1 = external.
        link: u8,
        /// Forwarding fair-queue depth at snapshot time.
        depth: u32,
    },
    /// A MANA detector scored an observation window for a subject
    /// (replica or proxy). Off by default — instances journal only after
    /// `mana::ids::ManaInstance::journal_scores` arms them — so
    /// historical digests are untouched; when armed the scores fold into
    /// the digest like any other record.
    AnomalyScore {
        /// Subject id (replica index, or `1000 + p` for proxy `p`).
        replica: u32,
        /// Peak per-feature z-score of the window, in fixed-point
        /// thousandths (f64 scores are quantized so the encoding is
        /// byte-stable).
        score_milli: u64,
    },
    /// The response controller moved between degraded-mode states.
    ResponseTransition {
        /// Previous `response::ResponseState` tag.
        from: u8,
        /// New state tag.
        to: u8,
        /// Transition-cause tag (see `response::controller`).
        reason: u8,
    },
    /// The response controller fired an actuator.
    ResponseActuation {
        /// Actuator tag: 0 = take-down, 1 = restore, 2 = throttle,
        /// 3 = unthrottle.
        actuator: u8,
        /// Target component (replica id or proxy id).
        target: u32,
        /// Actuator parameter (e.g. throttle interval in microseconds).
        param: u64,
    },
}

impl Event {
    /// Appends the canonical encoding: tag byte, then fields in
    /// little-endian. Field widths are fixed per variant.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Event::PacketDrop { node, kind } => {
                out.push(1);
                out.extend_from_slice(&node.to_le_bytes());
                out.push(kind.tag());
            }
            Event::AuthFailure { daemon } => {
                out.push(2);
                out.extend_from_slice(&daemon.to_le_bytes());
            }
            Event::ViewChange { replica, view } => {
                out.push(3);
                out.extend_from_slice(&replica.to_le_bytes());
                out.extend_from_slice(&view.to_le_bytes());
            }
            Event::RecoveryStart { replica } => {
                out.push(4);
                out.extend_from_slice(&replica.to_le_bytes());
            }
            Event::RecoveryEnd { replica } => {
                out.push(5);
                out.extend_from_slice(&replica.to_le_bytes());
            }
            Event::FrameEmit { hmi, seq } => {
                out.push(6);
                out.extend_from_slice(&hmi.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Event::SpanStart {
                trace,
                span,
                parent,
                stage,
                node,
            } => {
                out.push(7);
                out.extend_from_slice(&trace.0.to_le_bytes());
                out.extend_from_slice(&span.0.to_le_bytes());
                // Span ids start at 1, so 0 encodes "root".
                out.extend_from_slice(&parent.map_or(0, |p| p.0).to_le_bytes());
                out.push(stage.tag());
                out.extend_from_slice(&node.to_le_bytes());
            }
            Event::SpanEnd { trace, span } => {
                out.push(8);
                out.extend_from_slice(&trace.0.to_le_bytes());
                out.extend_from_slice(&span.0.to_le_bytes());
            }
            Event::ClockSkew { from_us, to_us } => {
                out.push(9);
                out.extend_from_slice(&from_us.to_le_bytes());
                out.extend_from_slice(&to_us.to_le_bytes());
            }
            Event::ChaosInject { kind, target } => {
                out.push(10);
                out.push(*kind);
                out.extend_from_slice(&target.to_le_bytes());
            }
            Event::ChaosHeal { kind, target } => {
                out.push(11);
                out.push(*kind);
                out.extend_from_slice(&target.to_le_bytes());
            }
            Event::InvariantViolation { invariant, detail } => {
                out.push(12);
                out.push(*invariant);
                out.extend_from_slice(&detail.to_le_bytes());
            }
            Event::ReplicaHealth {
                replica,
                view,
                aru,
                po_queue,
                in_flight,
                tat_us,
                catching_up,
            } => {
                out.push(13);
                out.extend_from_slice(&replica.to_le_bytes());
                out.extend_from_slice(&view.to_le_bytes());
                out.extend_from_slice(&aru.to_le_bytes());
                out.extend_from_slice(&po_queue.to_le_bytes());
                out.extend_from_slice(&in_flight.to_le_bytes());
                out.extend_from_slice(&tat_us.to_le_bytes());
                out.push(u8::from(*catching_up));
            }
            Event::LinkHealth {
                daemon,
                link,
                depth,
            } => {
                out.push(14);
                out.extend_from_slice(&daemon.to_le_bytes());
                out.push(*link);
                out.extend_from_slice(&depth.to_le_bytes());
            }
            Event::AnomalyScore {
                replica,
                score_milli,
            } => {
                out.push(15);
                out.extend_from_slice(&replica.to_le_bytes());
                out.extend_from_slice(&score_milli.to_le_bytes());
            }
            Event::ResponseTransition { from, to, reason } => {
                out.push(16);
                out.push(*from);
                out.push(*to);
                out.push(*reason);
            }
            Event::ResponseActuation {
                actuator,
                target,
                param,
            } => {
                out.push(17);
                out.push(*actuator);
                out.extend_from_slice(&target.to_le_bytes());
                out.extend_from_slice(&param.to_le_bytes());
            }
            Event::Reconverged {
                replica,
                latency_us,
            } => {
                out.push(18);
                out.extend_from_slice(&replica.to_le_bytes());
                out.extend_from_slice(&latency_us.to_le_bytes());
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::PacketDrop { node, kind } => write!(f, "drop at node {node} ({kind:?})"),
            Event::AuthFailure { daemon } => write!(f, "auth failure at daemon {daemon}"),
            Event::ViewChange { replica, view } => {
                write!(f, "replica {replica} installed view {view}")
            }
            Event::RecoveryStart { replica } => write!(f, "recovery of replica {replica} begins"),
            Event::RecoveryEnd { replica } => write!(f, "replica {replica} recovered"),
            Event::FrameEmit { hmi, seq } => write!(f, "hmi {hmi} emitted frame {seq}"),
            Event::SpanStart {
                trace,
                span,
                parent,
                stage,
                node,
            } => match parent {
                Some(p) => write!(
                    f,
                    "span t{trace}.s{span} {stage} at node {node} (parent s{p})"
                ),
                None => write!(f, "span t{trace}.s{span} {stage} at node {node} (root)"),
            },
            Event::SpanEnd { trace, span } => write!(f, "span t{trace}.s{span} end"),
            Event::ClockSkew { from_us, to_us } => {
                write!(f, "clock skew rejected: {from_us}us -> {to_us}us")
            }
            Event::ChaosInject { kind, target } => {
                write!(f, "chaos inject kind {kind} on target {target}")
            }
            Event::ChaosHeal { kind, target } => {
                write!(f, "chaos heal kind {kind} on target {target}")
            }
            Event::InvariantViolation { invariant, detail } => {
                let name = invariant_name(*invariant);
                write!(f, "invariant {name} violated (detail {detail})")
            }
            Event::Reconverged {
                replica,
                latency_us,
            } => write!(f, "replica {replica} reconverged after {latency_us}us"),
            Event::ReplicaHealth {
                replica,
                view,
                aru,
                po_queue,
                in_flight,
                tat_us,
                catching_up,
            } => write!(
                f,
                "health r{replica}: view {view} aru {aru} po_queue {po_queue} \
                 in_flight {in_flight} tat {tat_us}us catching_up {catching_up}"
            ),
            Event::LinkHealth {
                daemon,
                link,
                depth,
            } => {
                let overlay = if *link == 0 { "int" } else { "ext" };
                write!(f, "health link d{daemon} {overlay}: queue depth {depth}")
            }
            Event::AnomalyScore {
                replica,
                score_milli,
            } => write!(f, "anomaly score {score_milli}m on subject {replica}"),
            Event::ResponseTransition { from, to, reason } => {
                write!(f, "response state {from} -> {to} (reason {reason})")
            }
            Event::ResponseActuation {
                actuator,
                target,
                param,
            } => write!(
                f,
                "response actuator {actuator} on target {target} (param {param})"
            ),
        }
    }
}

/// An [`Event`] plus the simulated time it was journaled at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Simulated time in microseconds.
    pub at_us: u64,
    /// The record itself.
    pub event: Event,
}

impl TimedEvent {
    /// Appends timestamp then event encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.at_us.to_le_bytes());
        self.event.encode_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_are_distinct_per_variant_and_payload() {
        let events = [
            Event::PacketDrop {
                node: 1,
                kind: DropKind::Loss,
            },
            Event::PacketDrop {
                node: 1,
                kind: DropKind::Firewall,
            },
            Event::PacketDrop {
                node: 2,
                kind: DropKind::Loss,
            },
            Event::AuthFailure { daemon: 1 },
            Event::ViewChange {
                replica: 1,
                view: 1,
            },
            Event::ViewChange {
                replica: 1,
                view: 2,
            },
            Event::RecoveryStart { replica: 1 },
            Event::RecoveryEnd { replica: 1 },
            Event::FrameEmit { hmi: 0, seq: 9 },
            Event::SpanStart {
                trace: TraceId(1),
                span: SpanId(1),
                parent: None,
                stage: Stage::Detect,
                node: 0,
            },
            Event::SpanStart {
                trace: TraceId(1),
                span: SpanId(1),
                parent: Some(SpanId(1)),
                stage: Stage::Detect,
                node: 0,
            },
            Event::SpanStart {
                trace: TraceId(1),
                span: SpanId(1),
                parent: None,
                stage: Stage::Render,
                node: 0,
            },
            Event::SpanEnd {
                trace: TraceId(1),
                span: SpanId(1),
            },
            Event::SpanEnd {
                trace: TraceId(1),
                span: SpanId(2),
            },
            Event::ClockSkew {
                from_us: 2,
                to_us: 1,
            },
            Event::ChaosInject { kind: 0, target: 1 },
            Event::ChaosInject { kind: 1, target: 1 },
            Event::ChaosHeal { kind: 0, target: 1 },
            Event::ChaosHeal { kind: 0, target: 2 },
            Event::InvariantViolation {
                invariant: 0,
                detail: 1,
            },
            Event::InvariantViolation {
                invariant: 1,
                detail: 1,
            },
            Event::ReplicaHealth {
                replica: 0,
                view: 1,
                aru: 2,
                po_queue: 3,
                in_flight: 4,
                tat_us: 5,
                catching_up: false,
            },
            Event::ReplicaHealth {
                replica: 0,
                view: 1,
                aru: 2,
                po_queue: 3,
                in_flight: 4,
                tat_us: 5,
                catching_up: true,
            },
            Event::LinkHealth {
                daemon: 1,
                link: 0,
                depth: 7,
            },
            Event::LinkHealth {
                daemon: 1,
                link: 1,
                depth: 7,
            },
            Event::AnomalyScore {
                replica: 2,
                score_milli: 6500,
            },
            Event::AnomalyScore {
                replica: 2,
                score_milli: 6501,
            },
            Event::ResponseTransition {
                from: 0,
                to: 1,
                reason: 0,
            },
            Event::ResponseTransition {
                from: 0,
                to: 1,
                reason: 1,
            },
            Event::ResponseActuation {
                actuator: 0,
                target: 3,
                param: 0,
            },
            Event::ResponseActuation {
                actuator: 2,
                target: 3,
                param: 500_000,
            },
            Event::Reconverged {
                replica: 3,
                latency_us: 1,
            },
            Event::Reconverged {
                replica: 3,
                latency_us: 2,
            },
        ];
        let encoded: Vec<Vec<u8>> = events
            .iter()
            .map(|e| {
                let mut buf = Vec::new();
                e.encode_into(&mut buf);
                buf
            })
            .collect();
        for i in 0..encoded.len() {
            for j in (i + 1)..encoded.len() {
                assert_ne!(encoded[i], encoded[j], "{:?} vs {:?}", events[i], events[j]);
            }
        }
    }

    #[test]
    fn timed_encoding_prefixes_timestamp() {
        let rec = TimedEvent {
            at_us: 0x0102,
            event: Event::AuthFailure { daemon: 7 },
        };
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(&buf[..8], &0x0102u64.to_le_bytes());
        assert_eq!(buf[8], 2);
    }

    #[test]
    fn display_is_human_readable() {
        let s = format!(
            "{}",
            Event::ViewChange {
                replica: 3,
                view: 4
            }
        );
        assert!(s.contains("replica 3") && s.contains("view 4"));
    }

    #[test]
    fn chaos_records_print_their_own_vocabulary() {
        let violation = Event::InvariantViolation {
            invariant: INV_RECONVERGENCE,
            detail: 3,
        };
        assert_eq!(
            violation.to_string(),
            "invariant reconvergence violated (detail 3)"
        );
        let names: Vec<&str> = (0..4).map(invariant_name).collect();
        assert_eq!(
            names,
            ["agreement", "hmi-truth", "bounded-delay", "reconvergence"]
        );
        let caught_up = Event::Reconverged {
            replica: 3,
            latency_us: 1_200_000,
        };
        assert_eq!(
            caught_up.to_string(),
            "replica 3 reconverged after 1200000us"
        );
    }
}
