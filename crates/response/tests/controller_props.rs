//! Property tests for the response controller: determinism (same
//! observation stream ⇒ identical actuator sequence), honest detection
//! (journal records it must not read change nothing), and the budget
//! guard (controller-initiated recoveries never exceed the `f`/`k`
//! disruptive-window discipline, mirroring `ChaosPlan::within_budget`).

use obs::{Event, ObsHub, TimedEvent};
use prime::types::Config;
use proptest::prelude::*;
use response::controller::{COOLDOWN, REPLICA_COOLDOWN};
use response::{Actuation, Controller, ControllerInput, ProxyObservation, ReplicaObservation};
use simnet::time::SimTime;

/// The plant deployment's replica count (`Config::plant().n()`).
const N: u32 = 6;
const TICK_US: u64 = 100_000;
const TICKS: u64 = 400;

/// SplitMix64 — a self-contained deterministic stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Up to three journal records per tick that the controller must ignore:
/// fault injections and heals (the schedule it may not peek at),
/// detector scores and its own transitions. Drawn from their own stream,
/// so the observations stay those of the noise-free run.
fn noise(rng: &mut Rng, now: SimTime) -> Vec<TimedEvent> {
    (0..rng.below(4))
        .map(|_| {
            let target = rng.below(N as u64 + 1) as u32;
            let event = match rng.below(4) {
                0 => Event::ChaosInject {
                    kind: rng.below(10) as u8,
                    target,
                },
                1 => Event::ChaosHeal {
                    kind: rng.below(10) as u8,
                    target,
                },
                2 => Event::AnomalyScore {
                    replica: target,
                    score_milli: rng.below(20_000),
                },
                _ => Event::ResponseTransition {
                    from: rng.below(5) as u8,
                    to: rng.below(5) as u8,
                    reason: rng.below(6) as u8,
                },
            };
            TimedEvent {
                at_us: now.as_micros(),
                event,
            }
        })
        .collect()
}

/// The bounds of each tick's random observations.
#[derive(Clone, Copy)]
struct World {
    /// Replica z-scores are drawn below this, in tenths.
    replica_z: u64,
    /// The proxy z-score is drawn below this, in tenths.
    proxy_z: u64,
    po_queue: u64,
    tat_us: u64,
}

/// Scores and gauges past every red line: suspicion, takedowns and
/// throttles all the time.
const HOSTILE: World = World {
    replica_z: 150,
    proxy_z: 120,
    po_queue: 700,
    tat_us: 4_000_000,
};

/// Scores and gauges under the red lines: only view churn raises
/// suspicion, so the calm streak runs and the controller keeps settling
/// back to Normal.
const CALM: World = World {
    replica_z: 60,
    proxy_z: 60,
    po_queue: 400,
    tat_us: 2_000_000,
};

/// What a driven controller left behind.
struct Run {
    /// Every actuation `step` returned, with its tick time.
    actions: Vec<(SimTime, Actuation)>,
    /// The controller's hub, its clock set to each tick's time: every
    /// actuation and transition journaled.
    hub: ObsHub,
    /// Per tick: was any replica externally down when the tick was fed?
    ext_down: Vec<(u64, bool)>,
}

/// An *observable* world: random anomaly scores, random external
/// crashes, view bumps, floods. The controller's own downs are reflected
/// back as `up = false`, exactly as a deployment would. With `noisy`,
/// each tick's journal also carries [`noise`].
fn drive(seed: u64, cfg: Config, world: World, noisy: bool) -> Run {
    let mut rng = Rng(seed ^ 0x5eed_50de);
    let mut noise_rng = Rng(seed ^ 0x0a15_e5ed);
    let hub = ObsHub::new();
    let mut c = Controller::new(cfg, &hub);
    let mut actions = Vec::new();
    let mut ours_down: Vec<u32> = Vec::new();
    // Externally-crashed replicas: (replica, ticks remaining).
    let mut ext_down: Vec<(u32, u64)> = Vec::new();
    let mut view = 0u64;
    let mut ext_down_log = Vec::new();
    for t in 0..TICKS {
        let now = SimTime(t * TICK_US);
        hub.set_now_us(now.as_micros());
        ext_down.retain_mut(|(_, left)| {
            *left -= 1;
            *left > 0
        });
        if rng.below(40) == 0 && ext_down.len() < 2 {
            ext_down.push((rng.below(N as u64) as u32, 5 + rng.below(20)));
        }
        if rng.below(60) == 0 {
            view += 1;
        }
        let replicas: Vec<ReplicaObservation> = (0..N)
            .map(|r| {
                let externally_down = ext_down.iter().any(|(dr, _)| *dr == r);
                ReplicaObservation {
                    replica: r,
                    up: !externally_down && !ours_down.contains(&r),
                    anomaly_z: rng.below(world.replica_z) as f64 / 10.0,
                    po_queue: rng.below(world.po_queue) as u32,
                    tat_us: rng.below(world.tat_us),
                    view,
                    catching_up: rng.below(30) == 0,
                }
            })
            .collect();
        let any_ext_down = !ext_down.is_empty();
        ext_down_log.push((t, any_ext_down));
        let input = ControllerInput {
            now,
            replicas,
            proxies: vec![ProxyObservation {
                proxy: 0,
                anomaly_z: rng.below(world.proxy_z) as f64 / 10.0,
            }],
            journal: if noisy {
                noise(&mut noise_rng, now)
            } else {
                Vec::new()
            },
        };
        for act in c.step(&input) {
            match act {
                Actuation::TakeDown { replica } => ours_down.push(replica),
                Actuation::Restore { replica } => ours_down.retain(|r| *r != replica),
                _ => {}
            }
            actions.push((input.now, act));
        }
    }
    Run {
        actions,
        hub,
        ext_down: ext_down_log,
    }
}

proptest! {
    /// Determinism: the controller is a pure function of its observation
    /// stream — same seed, twice, must produce identical actuation and
    /// transition sequences.
    #[test]
    fn same_stream_same_actuator_sequence(seed in any::<u64>()) {
        let cfg = Config::plant();
        let (a, b) = (drive(seed, cfg, HOSTILE, false), drive(seed, cfg, HOSTILE, false));
        prop_assert_eq!(a.actions, b.actions);
        prop_assert_eq!(a.hub.journal_records(), b.hub.journal_records());
    }

    /// Honest detection: injections, heals, anomaly scores and response
    /// transitions in the journal leave the actuations unchanged — the
    /// controller reads only reconvergences and violations there.
    #[test]
    fn unread_journal_records_change_no_actuation(seed in any::<u64>()) {
        let cfg = Config::plant();
        for world in [HOSTILE, CALM] {
            let (quiet, noisy) = (drive(seed, cfg, world, false), drive(seed, cfg, world, true));
            prop_assert_eq!(quiet.actions, noisy.actions);
            prop_assert_eq!(quiet.hub.journal_records(), noisy.hub.journal_records());
        }
    }

    /// Budget guard: replaying the action log, controller-initiated downs
    /// never exceed `k` concurrently, never open while an external crash
    /// is live, honor the restore-to-next-takedown cool-down, and honor
    /// the per-replica re-recovery cool-down.
    #[test]
    fn recoveries_never_exceed_the_disruptive_budget(seed in any::<u64>()) {
        let cfg = Config::plant();
        let run = drive(seed, cfg, HOSTILE, false);
        let mut down: Vec<u32> = Vec::new();
        let mut last_restore: Option<SimTime> = None;
        let mut last_restore_of = vec![None::<SimTime>; N as usize];
        for (at, act) in &run.actions {
            match act {
                Actuation::TakeDown { replica } => {
                    down.push(*replica);
                    prop_assert!(
                        down.len() as u32 <= cfg.k,
                        "seed {seed}: {} concurrent controller downs at {at:?}",
                        down.len()
                    );
                    let tick = at.as_micros() / TICK_US;
                    let ext = run.ext_down.iter().find(|(t, _)| *t == tick).map(|(_, e)| *e);
                    prop_assert_eq!(
                        ext, Some(false),
                        "seed {}: takedown at tick {} with an external crash live",
                        seed, tick
                    );
                    if let Some(end) = last_restore {
                        prop_assert!(
                            at.since(end).as_micros() >= COOLDOWN.as_micros(),
                            "seed {seed}: windows not serialized ({end:?} -> {at:?})"
                        );
                    }
                    if let Some(prev) = last_restore_of[*replica as usize] {
                        prop_assert!(
                            at.since(prev).as_micros() >= REPLICA_COOLDOWN.as_micros(),
                            "seed {seed}: replica {replica} re-recovered too soon"
                        );
                    }
                }
                Actuation::Restore { replica } => {
                    prop_assert!(down.contains(replica), "restore without takedown");
                    down.retain(|r| r != replica);
                    last_restore = Some(*at);
                    last_restore_of[*replica as usize] = Some(*at);
                }
                _ => {}
            }
        }
    }
}
