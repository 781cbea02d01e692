//! Declarative, seed-deterministic fault schedules.
//!
//! A [`ChaosPlan`] is a timeline of [`ScheduledFault`]s: each names a
//! concrete fault, when (relative to the driver's start) it is injected,
//! and how long it stays active before the driver heals it. Plans are
//! pure data — generating one touches no simulation state — so the same
//! seed always yields byte-identical schedules and the whole soak stays
//! replayable.
//!
//! Two generator families matter:
//!
//! * [`ChaosPlan::within_budget`] — randomized-but-seeded plans that are
//!   *provably within the deployment's fault budget* by construction:
//!   disruptive faults (crash, recovery, Byzantine flip, partition) are
//!   serialized into slots so at most one is active at a time, partitions
//!   only ever isolate a minority, and every window heals. Under such a
//!   plan the continuous invariant checker must stay green.
//! * [`ChaosPlan::beyond_budget_crashes`] / [`beyond_budget_partition`] —
//!   adversarial plans that deliberately exceed the `f`/`k` budget (more
//!   simultaneous crashes than any quorum survives, an even split that
//!   leaves no side a quorum). These exist so tests can prove the
//!   invariant checker actually *trips* — a checker that cannot fail
//!   verifies nothing.
//!
//! [`beyond_budget_partition`]: ChaosPlan::beyond_budget_partition

use prime::byzantine::ByzMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::time::SimDuration;

/// The fault families the chaos driver can inject.
///
/// The `u8` tag is stable and is what lands in the observability journal
/// (`Event::ChaosInject { kind, .. }`), so it participates in run digests.
///
/// [`FaultKind::SiteSever`] is special: it is never dealt by the
/// randomized [`ChaosPlan::within_budget`] deck ([`FaultKind::ALL`] stays
/// the original eight so existing soak digests are unchanged) — site
/// failover is always scheduled explicitly via
/// [`ChaosPlan::site_failover`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Internal-network switch partition isolating a minority of replicas.
    Partition,
    /// Loss burst on one replica's internal link.
    LinkLoss,
    /// Latency spike on one replica's external link.
    LatencySpike,
    /// Brief hard outage (link down/up) on one replica's internal link.
    LinkFlap,
    /// Fail-stop crash of a replica host, later restarted from a clean image.
    NodeCrash,
    /// A replica turns Byzantine (mute or delaying leader) for a window.
    ByzFlip,
    /// An observability-monotonicity probe, not a clock fault: the obs
    /// hub is offered an earlier time, rejects it and journals an
    /// [`obs::Event::ClockSkew`]. No replica, link or timer sees it.
    ClockSkew,
    /// An unscheduled proactive recovery (take down, re-diversify, rejoin).
    Recovery,
    /// An entire site drops off the WAN (multi-site deployments; the E13
    /// failover fault). Healing reconnects the site and fails back.
    SiteSever,
    /// A substation's WAN trunk drops (regional deployments): the station
    /// keeps polling locally but its coalesced reports cannot reach the
    /// masters until the trunk heals. Like [`FaultKind::SiteSever`], it is
    /// never dealt by the randomized deck — regional soaks schedule it via
    /// [`ChaosPlan::regional`], keeping historical E12 digests unchanged.
    SubstationFlap,
}

impl FaultKind {
    /// The kinds the randomized within-budget deck rotates through, in
    /// tag order. Deliberately excludes [`FaultKind::SiteSever`]: a site
    /// loss is not a within-budget fault for single-site deployments, and
    /// keeping the deck fixed preserves historical soak digests.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::Partition,
        FaultKind::LinkLoss,
        FaultKind::LatencySpike,
        FaultKind::LinkFlap,
        FaultKind::NodeCrash,
        FaultKind::ByzFlip,
        FaultKind::ClockSkew,
        FaultKind::Recovery,
    ];

    /// Stable journal tag.
    pub fn tag(self) -> u8 {
        match self {
            FaultKind::Partition => 0,
            FaultKind::LinkLoss => 1,
            FaultKind::LatencySpike => 2,
            FaultKind::LinkFlap => 3,
            FaultKind::NodeCrash => 4,
            FaultKind::ByzFlip => 5,
            FaultKind::ClockSkew => 6,
            FaultKind::Recovery => 7,
            FaultKind::SiteSever => 8,
            FaultKind::SubstationFlap => 9,
        }
    }

    /// Human-readable name (reports, rendered plans).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Partition => "partition",
            FaultKind::LinkLoss => "link-loss",
            FaultKind::LatencySpike => "latency-spike",
            FaultKind::LinkFlap => "link-flap",
            FaultKind::NodeCrash => "node-crash",
            FaultKind::ByzFlip => "byz-flip",
            FaultKind::ClockSkew => "clock-skew",
            FaultKind::Recovery => "recovery",
            FaultKind::SiteSever => "site-sever",
            FaultKind::SubstationFlap => "substation-flap",
        }
    }
}

/// A concrete fault with its parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Partition the internal switch so `isolated` replicas sit alone.
    Partition { isolated: Vec<u32> },
    /// Raise the loss probability on `replica`'s internal link.
    LinkLoss { replica: u32, loss: f64 },
    /// Raise the one-way latency on `replica`'s external link.
    LatencySpike { replica: u32, latency: SimDuration },
    /// Take `replica`'s internal link hard down (in-flight frames drop).
    LinkFlap { replica: u32 },
    /// Crash `replica`; the heal restarts it from a clean image.
    NodeCrash { replica: u32 },
    /// Flip `replica` into the given Byzantine mode; the heal flips it back.
    ByzFlip { replica: u32, mode: ByzMode },
    /// Offer the obs hub a time `behind` earlier than its clock. The hub
    /// rejects it and journals the skew; no replica, link or timer sees
    /// it (see [`FaultKind::ClockSkew`]).
    ClockSkew { behind: SimDuration },
    /// Proactively recover `replica` (down, clean image, rejoin).
    Recovery { replica: u32 },
    /// Sever `site` from the WAN; the heal reconnects it and fails back
    /// to the full membership.
    SiteSever { site: u32 },
    /// Drop substation `station`'s WAN trunk; the heal restores it.
    SubstationFlap { station: u32 },
}

impl Fault {
    /// The family this fault belongs to.
    pub fn kind(&self) -> FaultKind {
        match self {
            Fault::Partition { .. } => FaultKind::Partition,
            Fault::LinkLoss { .. } => FaultKind::LinkLoss,
            Fault::LatencySpike { .. } => FaultKind::LatencySpike,
            Fault::LinkFlap { .. } => FaultKind::LinkFlap,
            Fault::NodeCrash { .. } => FaultKind::NodeCrash,
            Fault::ByzFlip { .. } => FaultKind::ByzFlip,
            Fault::ClockSkew { .. } => FaultKind::ClockSkew,
            Fault::Recovery { .. } => FaultKind::Recovery,
            Fault::SiteSever { .. } => FaultKind::SiteSever,
            Fault::SubstationFlap { .. } => FaultKind::SubstationFlap,
        }
    }

    /// The journal `target` field: the replica acted on, or the first
    /// isolated replica for partitions, or the skew in microseconds.
    pub fn target(&self) -> u32 {
        match self {
            Fault::Partition { isolated } => isolated.first().copied().unwrap_or(0),
            Fault::LinkLoss { replica, .. }
            | Fault::LatencySpike { replica, .. }
            | Fault::LinkFlap { replica }
            | Fault::NodeCrash { replica }
            | Fault::ByzFlip { replica, .. }
            | Fault::Recovery { replica } => *replica,
            Fault::ClockSkew { behind } => behind.as_micros() as u32,
            Fault::SiteSever { site } => *site,
            Fault::SubstationFlap { station } => *station,
        }
    }
}

/// A fault scheduled at an offset from the soak's start.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledFault {
    /// Injection time, relative to when the driver starts.
    pub at: SimDuration,
    /// Active window; the driver heals the fault at `at + duration`.
    /// Zero for instantaneous faults (clock skew).
    pub duration: SimDuration,
    /// What to inject.
    pub fault: Fault,
}

/// An ordered fault timeline.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Faults sorted by injection time.
    pub faults: Vec<ScheduledFault>,
}

/// Disruptive slots repeat on this period; at most one disruptive fault
/// is active per slot, so serialized windows never overlap.
const SLOT: SimDuration = SimDuration::from_millis(1_500);
/// No fault window may extend into the last `TAIL` of the horizon, so a
/// within-budget run always ends with every fault healed and time to
/// settle before quiescence checks.
const TAIL: SimDuration = SimDuration::from_millis(500);

impl ChaosPlan {
    /// A randomized-but-seeded plan that stays within the deployment's
    /// fault budget by construction (see module docs). `n` is the replica
    /// count and `quorum` the ordering quorum; partitions isolate at most
    /// `n - quorum` replicas so the majority side always keeps a quorum.
    ///
    /// Fault kinds rotate through a per-cycle shuffled deck, so any
    /// horizon of at least `8 * SLOT` (12 s) exercises every family.
    /// Benign windows (loss, latency, skew) may stretch across slot
    /// boundaries and overlap the next disruptive window — including
    /// overlapping a proactive recovery — which is exactly the messy
    /// concurrency the invariant checker must tolerate.
    pub fn within_budget(seed: u64, n: u32, quorum: u32, horizon: SimDuration) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5eed);
        let mut faults = Vec::new();
        let slots = horizon.as_micros() / SLOT.as_micros();
        let mut deck: Vec<FaultKind> = Vec::new();
        for s in 0..slots {
            if deck.is_empty() {
                deck = FaultKind::ALL.to_vec();
                // Fisher-Yates so each 8-slot cycle covers all kinds in a
                // seed-determined order.
                for i in (1..deck.len()).rev() {
                    let j = rng.gen_range(0..i + 1);
                    deck.swap(i, j);
                }
            }
            let kind = deck.pop().expect("deck refilled above");
            let at = SimDuration::from_micros(SLOT.as_micros() * s + rng.gen_range(0..300_000u64));
            let replica = rng.gen_range(0..n);
            let (duration, fault) = match kind {
                FaultKind::Partition => {
                    let max_isolated = (n - quorum).max(1);
                    let count = rng.gen_range(1..max_isolated + 1);
                    let mut isolated = Vec::new();
                    while (isolated.len() as u32) < count {
                        let r = rng.gen_range(0..n);
                        if !isolated.contains(&r) {
                            isolated.push(r);
                        }
                    }
                    isolated.sort_unstable();
                    (
                        SimDuration::from_millis(rng.gen_range(400..900)),
                        Fault::Partition { isolated },
                    )
                }
                FaultKind::LinkLoss => (
                    SimDuration::from_millis(rng.gen_range(800..2_200)),
                    Fault::LinkLoss {
                        replica,
                        loss: rng.gen_range(0.15..0.35),
                    },
                ),
                FaultKind::LatencySpike => (
                    SimDuration::from_millis(rng.gen_range(800..2_200)),
                    Fault::LatencySpike {
                        replica,
                        latency: SimDuration::from_millis(rng.gen_range(2..8)),
                    },
                ),
                FaultKind::LinkFlap => (
                    SimDuration::from_millis(rng.gen_range(150..400)),
                    Fault::LinkFlap { replica },
                ),
                FaultKind::NodeCrash => (
                    SimDuration::from_millis(rng.gen_range(500..1_000)),
                    Fault::NodeCrash { replica },
                ),
                FaultKind::ByzFlip => {
                    let mode = if rng.gen_bool(0.5) {
                        ByzMode::MuteLeader
                    } else {
                        ByzMode::DelayLeader(SimDuration::from_millis(100))
                    };
                    (
                        SimDuration::from_millis(rng.gen_range(400..900)),
                        Fault::ByzFlip { replica, mode },
                    )
                }
                FaultKind::ClockSkew => (
                    SimDuration::ZERO,
                    Fault::ClockSkew {
                        behind: SimDuration::from_micros(rng.gen_range(500..5_000)),
                    },
                ),
                FaultKind::Recovery => (
                    SimDuration::from_millis(rng.gen_range(500..1_000)),
                    Fault::Recovery { replica },
                ),
                // Never dealt: the deck is `FaultKind::ALL`, which
                // excludes site severs and substation flaps by design.
                FaultKind::SiteSever | FaultKind::SubstationFlap => {
                    unreachable!("scheduled explicitly, never dealt")
                }
            };
            // Quiet tail: clamp windows so everything heals before the
            // horizon, dropping the fault if no meaningful window fits.
            let latest_heal = horizon.as_micros().saturating_sub(TAIL.as_micros());
            if at.as_micros() >= latest_heal {
                continue;
            }
            let duration =
                SimDuration::from_micros(duration.as_micros().min(latest_heal - at.as_micros()));
            faults.push(ScheduledFault {
                at,
                duration,
                fault,
            });
        }
        ChaosPlan { faults }
    }

    /// A deliberately over-budget plan: `f + 2` replicas crash at once and
    /// stay down for the whole horizon, leaving fewer than a quorum alive.
    /// The bounded-delay invariant must trip under this plan.
    pub fn beyond_budget_crashes(f: u32, horizon: SimDuration) -> Self {
        let faults = (0..f + 2)
            .map(|r| ScheduledFault {
                at: SimDuration::from_millis(200),
                duration: horizon,
                fault: Fault::NodeCrash { replica: r },
            })
            .collect();
        ChaosPlan { faults }
    }

    /// A deliberately over-budget plan: an even split of the internal
    /// network that never heals within the horizon, so neither side holds
    /// an ordering quorum. The bounded-delay invariant must trip.
    pub fn beyond_budget_partition(n: u32, horizon: SimDuration) -> Self {
        let isolated: Vec<u32> = (0..n / 2).collect();
        ChaosPlan {
            faults: vec![ScheduledFault {
                at: SimDuration::from_millis(200),
                duration: horizon,
                fault: Fault::Partition { isolated },
            }],
        }
    }

    /// A seeded regional soak schedule: substation WAN-trunk flaps across
    /// `stations`, serialized into the same non-overlapping slot structure
    /// as [`ChaosPlan::within_budget`] so at most one trunk is down at a
    /// time. Substation loss never consumes the replica `f`/`k` budget —
    /// the replication core is untouched — so these flaps may be layered
    /// on top of a within-budget replica plan without exceeding it.
    pub fn regional(seed: u64, stations: u32, horizon: SimDuration) -> Self {
        assert!(stations > 0, "a regional plan needs substations");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50b5_7a71_0f1a_9000);
        let mut faults = Vec::new();
        let slots = horizon.as_micros() / SLOT.as_micros();
        for s in 0..slots {
            let at = SimDuration::from_micros(SLOT.as_micros() * s + rng.gen_range(0..300_000u64));
            let duration = SimDuration::from_millis(rng.gen_range(400..900));
            let station = rng.gen_range(0..stations);
            let latest_heal = horizon.as_micros().saturating_sub(TAIL.as_micros());
            if at.as_micros() >= latest_heal {
                continue;
            }
            let duration =
                SimDuration::from_micros(duration.as_micros().min(latest_heal - at.as_micros()));
            faults.push(ScheduledFault {
                at,
                duration,
                fault: Fault::SubstationFlap { station },
            });
        }
        ChaosPlan { faults }
    }

    /// The E13 schedule: sever `site` at `at`, heal (reconnect + fail
    /// back) after `duration`. Pure data, like every plan.
    pub fn site_failover(site: u32, at: SimDuration, duration: SimDuration) -> Self {
        ChaosPlan {
            faults: vec![ScheduledFault {
                at,
                duration,
                fault: Fault::SiteSever { site },
            }],
        }
    }

    /// Number of distinct fault kinds the plan schedules.
    pub fn distinct_kinds(&self) -> usize {
        let mut kinds: Vec<u8> = self.faults.iter().map(|f| f.fault.kind().tag()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds.len()
    }

    /// Renders the timeline as one line per fault (reports, debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.faults {
            out.push_str(&format!(
                "  t=+{:>8.3}s  {:>13}  for {:.3}s  {:?}\n",
                f.at.as_secs_f64(),
                f.fault.kind().name(),
                f.duration.as_secs_f64(),
                f.fault,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let h = SimDuration::from_secs(20);
        let a = ChaosPlan::within_budget(42, 6, 4, h);
        let b = ChaosPlan::within_budget(42, 6, 4, h);
        assert_eq!(a.faults, b.faults);
        let c = ChaosPlan::within_budget(43, 6, 4, h);
        assert_ne!(a.faults, c.faults, "different seeds give different plans");
    }

    #[test]
    fn twelve_second_horizon_covers_at_least_five_kinds() {
        for seed in [1u64, 7, 42, 1111] {
            let plan = ChaosPlan::within_budget(seed, 6, 4, SimDuration::from_secs(12));
            assert!(
                plan.distinct_kinds() >= 5,
                "seed {seed}: only {} kinds",
                plan.distinct_kinds()
            );
        }
    }

    #[test]
    fn within_budget_serializes_disruptive_faults_and_heals_everything() {
        let horizon = SimDuration::from_secs(30);
        let plan = ChaosPlan::within_budget(42, 6, 4, horizon);
        let disruptive: Vec<&ScheduledFault> = plan
            .faults
            .iter()
            .filter(|f| {
                matches!(
                    f.fault.kind(),
                    FaultKind::Partition
                        | FaultKind::NodeCrash
                        | FaultKind::ByzFlip
                        | FaultKind::Recovery
                        | FaultKind::LinkFlap
                )
            })
            .collect();
        for pair in disruptive.windows(2) {
            let end = pair[0].at + pair[0].duration;
            assert!(
                end.as_micros() <= pair[1].at.as_micros(),
                "disruptive windows overlap: {:?} vs {:?}",
                pair[0],
                pair[1]
            );
        }
        for f in &plan.faults {
            assert!(
                (f.at + f.duration).as_micros() <= horizon.as_micros(),
                "window extends past horizon: {f:?}"
            );
        }
    }

    #[test]
    fn partitions_only_isolate_minorities() {
        let plan = ChaosPlan::within_budget(7, 6, 4, SimDuration::from_secs(60));
        for f in &plan.faults {
            if let Fault::Partition { isolated } = &f.fault {
                assert!(
                    isolated.len() as u32 <= 6 - 4,
                    "majority isolated: {isolated:?}"
                );
            }
        }
    }

    #[test]
    fn site_sever_is_tagged_but_never_dealt_by_the_deck() {
        assert_eq!(FaultKind::SiteSever.tag(), 8);
        assert_eq!(FaultKind::SiteSever.name(), "site-sever");
        assert!(
            !FaultKind::ALL.contains(&FaultKind::SiteSever),
            "the within-budget deck must stay the original eight kinds"
        );
        let plan =
            ChaosPlan::site_failover(1, SimDuration::from_millis(200), SimDuration::from_secs(9));
        assert_eq!(plan.faults.len(), 1);
        assert_eq!(plan.faults[0].fault, Fault::SiteSever { site: 1 });
        assert_eq!(plan.faults[0].fault.kind().tag(), 8);
        assert_eq!(plan.faults[0].fault.target(), 1);
    }

    #[test]
    fn beyond_budget_plans_exceed_the_budget() {
        let crashes = ChaosPlan::beyond_budget_crashes(1, SimDuration::from_secs(10));
        assert_eq!(crashes.faults.len(), 3, "f+2 simultaneous crashes");
        let split = ChaosPlan::beyond_budget_partition(6, SimDuration::from_secs(10));
        match &split.faults[0].fault {
            Fault::Partition { isolated } => assert_eq!(isolated.len(), 3, "even 3/3 split"),
            other => panic!("expected partition, got {other:?}"),
        }
    }
}
