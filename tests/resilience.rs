//! Cross-crate resilience scenarios beyond the paper's scripted
//! experiments: leader crashes inside the full deployment, vote gating
//! under partial interception, lossy links, and figure regeneration.

use bench::figures::{fig1_conventional, fig2_spire, fig4_hmi};
use plc::topology::Scenario;
use prime::replica::Timing;
use prime::types::Config as PrimeConfig;
use redteam::attacker::{AttackStep, Attacker};
use simnet::link::LinkSpec;
use simnet::sim::{InterfaceSpec, NodeSpec, Simulation};
use simnet::switch::SwitchMode;
use simnet::time::{SimDuration, SimTime};
use simnet::types::IpAddr;
use spire::config::SpireConfig;
use spire::deploy::Deployment;
use spire::hardening::HardeningProfile;

fn fast_timing() -> Timing {
    Timing {
        aru_interval: SimDuration::from_millis(10),
        pp_interval: SimDuration::from_millis(10),
        suspect_timeout: SimDuration::from_millis(800),
        checkpoint_interval: 20,
        catchup_timeout: SimDuration::from_millis(300),
    }
}

fn cycling_deployment(seed: u64) -> Deployment {
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(400),
            0,
        );
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.set_timing(fast_timing());
    d
}

#[test]
fn leader_crash_in_full_deployment_triggers_view_change_and_service_continues() {
    let mut d = cycling_deployment(7001);
    d.run_for(SimDuration::from_secs(3));
    let frames_before = d.hmi(0).stats.frames_applied;
    assert!(frames_before > 0);
    // A healthy leader means no view changes so far.
    assert_eq!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::ViewChange { .. })),
        0,
        "no view changes before the fault"
    );

    // Replica 0 leads view 0; kill its whole node (host + daemons).
    d.take_replica_down(0);
    d.run_for(SimDuration::from_secs(6));

    // The remaining replicas suspected the silent leader and moved on.
    for i in 1..4 {
        assert!(
            d.replica(i).replica.view() >= 1,
            "replica {i} still in view 0"
        );
    }
    // Every surviving replica journaled its view installation.
    let view_changes = d
        .obs
        .journal_count(|e| matches!(e, obs::Event::ViewChange { .. }));
    assert!(
        view_changes >= 3,
        "3 surviving replicas journal view changes, got {view_changes}"
    );
    for i in 1..4 {
        assert!(
            d.obs.journal_count(
                |e| matches!(e, obs::Event::ViewChange { replica, .. } if *replica == i)
            ) >= 1,
            "replica {i} journaled its view change"
        );
    }
    // The crash itself was journaled as a recovery start.
    assert_eq!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::RecoveryStart { replica: 0 })),
        1
    );
    let frames_after = d.hmi(0).stats.frames_applied;
    assert!(
        frames_after > frames_before,
        "display updates resumed after the view change"
    );
}

#[test]
fn fault_free_run_journals_no_view_changes() {
    let mut d = cycling_deployment(7005);
    d.run_for(SimDuration::from_secs(8));
    assert!(d.hmi(0).stats.frames_applied > 0, "service live");
    assert_eq!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::ViewChange { .. })),
        0,
        "a stable leader never causes view changes"
    );
    assert_eq!(
        d.obs.journal_count(|e| matches!(
            e,
            obs::Event::RecoveryStart { .. } | obs::Event::RecoveryEnd { .. }
        )),
        0,
        "no recoveries scheduled in a plain run"
    );
    // But the journal is not empty: vote-gated frame emissions are there.
    assert!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::FrameEmit { .. }))
            > 0,
        "frame emissions journaled"
    );
}

#[test]
fn vote_gating_survives_interception_of_one_replica() {
    // Weaken exactly the ARP layer so the attacker can steer ONE replica's
    // external traffic through itself; f+1 voting means the HMI and proxy
    // still act correctly on the remaining replicas' matching messages.
    let profile = HardeningProfile::without("static_arp");
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(400),
            0,
        );
    let mut d = Deployment::build(cfg, profile, 7002);
    d.set_timing(fast_timing());
    d.run_for(SimDuration::from_secs(3));
    let frames_before = d.hmi(0).stats.frames_applied;

    // Poison the HMI's view of replica 0: its frames now go to the
    // attacker (who drops them).
    let t0 = d.now();
    let mut attacker = Attacker::new();
    attacker.schedule(
        t0 + SimDuration::from_millis(100),
        AttackStep::ArpPoison {
            victim: d.cfg.hmi_ip(0),
            claim_ip: d.cfg.replica_external_ip(0),
            count: 30,
        },
    );
    let mut spec = NodeSpec::new(
        "mitm",
        vec![InterfaceSpec::dynamic(IpAddr::new(10, 20, 0, 66))],
        Box::new(attacker),
    );
    spec.promiscuous = true;
    let node = d.attach_external_attacker(spec);
    d.run_for(SimDuration::from_secs(5));

    let obs = &d
        .sim
        .process_ref::<Attacker>(node)
        .expect("attacker")
        .observed;
    assert!(
        obs.intercepted > 0,
        "attacker really did steal replica 0's frames"
    );
    // Display still advances and still shows the truth: 3 of 4 replicas
    // supply matching frames, and f+1 = 2 suffice.
    let frames_after = d.hmi(0).stats.frames_applied;
    assert!(
        frames_after > frames_before,
        "vote gating masked the interception"
    );
}

#[test]
fn prime_converges_over_lossy_links() {
    // 5% frame loss on every link: retransmission-free protocols would
    // stall; Prime's periodic ARU gossip + leader re-proposals + catch-up
    // keep execution converging.
    let mut c = prime::harness::Cluster::with_latency(
        PrimeConfig::red_team(),
        1,
        SimDuration::from_millis(2),
    );
    c.set_timing(fast_timing());
    for i in 0..10 {
        c.submit(0, format!("lossy{i}=1"));
        c.run_for(SimDuration::from_millis(80));
    }
    c.run_for(SimDuration::from_secs(3));
    assert_eq!(c.min_executed(), 10);
    c.assert_consistent();
}

#[test]
fn simnet_link_loss_counted_and_tolerated() {
    struct Pinger {
        peer: IpAddr,
        pongs: u32,
        sent: u32,
    }
    impl simnet::process::Process for Pinger {
        fn on_start(&mut self, ctx: &mut simnet::process::Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_timer(&mut self, ctx: &mut simnet::process::Context<'_>, _t: u64) {
            if self.sent < 200 {
                self.sent += 1;
                let pkt = simnet::packet::Packet {
                    src_ip: ctx.ip(0),
                    dst_ip: self.peer,
                    src_port: simnet::types::Port(1),
                    dst_port: simnet::types::Port(0),
                    kind: simnet::packet::TransportKind::Ping,
                    payload: bytes::Bytes::new(),
                    trace: None,
                };
                ctx.send(0, pkt);
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
        fn on_packet(
            &mut self,
            _ctx: &mut simnet::process::Context<'_>,
            pkt: simnet::packet::Packet,
        ) {
            if pkt.kind == simnet::packet::TransportKind::Pong {
                self.pongs += 1;
            }
        }
    }
    struct Silent;
    impl simnet::process::Process for Silent {}

    let mut sim = Simulation::new(99);
    let a = sim.add_node(NodeSpec::new(
        "a",
        vec![InterfaceSpec::dynamic(IpAddr::new(10, 0, 0, 1))],
        Box::new(Pinger {
            peer: IpAddr::new(10, 0, 0, 2),
            pongs: 0,
            sent: 0,
        }),
    ));
    let b = sim.add_node(NodeSpec::new(
        "b",
        vec![InterfaceSpec::dynamic(IpAddr::new(10, 0, 0, 2))],
        Box::new(Silent),
    ));
    let sw = sim.add_switch(2, SwitchMode::Learning);
    let lossy = LinkSpec {
        loss: 0.2,
        ..LinkSpec::lan()
    };
    sim.connect(a, 0, sw, 0, lossy);
    sim.connect(b, 0, sw, 1, LinkSpec::lan());
    sim.run_for(SimDuration::from_secs(5));

    let p = sim.process_ref::<Pinger>(a).expect("pinger");
    assert_eq!(p.sent, 200);
    // With 20% loss each way some pongs are missing, but most arrive.
    assert!(p.pongs < 200, "some loss observed");
    assert!(p.pongs > 100, "most pings survived, got {}", p.pongs);
    assert!(sim.stats().frames_dropped > 0);
}

#[test]
fn figures_render_expected_content() {
    let f1 = fig1_conventional(61);
    assert!(f1.contains("primary master"));
    assert!(
        f1.contains("true"),
        "commercial HMI shows closed breakers: {f1}"
    );

    let f2 = fig2_spire(62);
    assert!(f2.contains("6 SCADA-master replicas"));
    assert!(f2.contains("internal switch: true"));

    let f4 = fig4_hmi(63);
    assert!(f4.contains("B10-1"));
    assert!(f4.contains("Building 4"));
}

#[test]
fn plant_scale_deployment_all_seventeen_plcs() {
    // The full §V roster: plant subset + 10 distribution + 6 generation
    // PLCs, three HMIs, six replicas — everything polls and orders.
    let cfg = SpireConfig::plant();
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 7003);
    d.set_timing(fast_timing());
    d.run_for(SimDuration::from_secs(4));
    assert_eq!(d.cfg.proxies.len(), 17);
    for p in 0..17 {
        assert!(
            d.proxy(p).stats.updates_sent >= 1,
            "proxy {p} reported status"
        );
    }
    assert!(
        d.min_executed() >= 17,
        "every scenario's status ordered at least once"
    );
    // All three HMI locations display.
    for h in 0..3 {
        assert!(d.hmi(h).stats.frames_applied >= 1, "hmi {h} live");
    }
}

#[test]
fn breach_then_system_reset_repopulates_state_from_field() {
    // E6 continuation (§III-A): three of four replicas crash with state
    // loss — beyond f = 1, so no catch-up quorum exists and the system
    // cannot recover from replicas. The automatic reset restarts ALL
    // replicas in a fresh era; normal field polling repopulates state.
    let mut d = cycling_deployment(7004);
    d.run_for(SimDuration::from_secs(3));
    for i in 0..3 {
        d.take_replica_down(i);
    }
    d.run_for(SimDuration::from_secs(2));
    // No quorum: the survivor cannot execute anything new either.
    let survivor_stalled = d.replica(3).replica.exec_seq();
    d.system_reset();
    d.run_for(SimDuration::from_secs(8));
    let execs: Vec<u64> = (0..4).map(|i| d.replica(i).replica.exec_seq()).collect();
    assert!(
        execs.iter().all(|&e| e > 0),
        "all replicas executing again: {execs:?}"
    );
    // The fresh era's state reflects the field truth (polls repopulated it).
    let plc_positions = d.plc(0).positions();
    let shown = d.hmi(0).hmi.positions("jhu").map(|p| p.to_vec());
    assert_eq!(
        shown,
        Some(plc_positions),
        "display matches physical ground truth"
    );
    let _ = survivor_stalled;
    let _ = SimTime::ZERO;
}
