//! Quickstart: build a minimal Spire deployment (4 SCADA-master replicas,
//! one PLC behind a proxy, one HMI), run the breaker-flip cycle, and watch
//! the HMI — the whole intrusion-tolerant pipeline in ~40 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use plc::topology::{fig4_topology, Scenario};
use prime::types::Config as PrimeConfig;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::Deployment;
use spire::hardening::HardeningProfile;

fn main() {
    // 4 replicas tolerate f = 1 intrusion; the Figure 4 seven-breaker
    // distribution topology; the automatic breaker-flip cycle from the
    // red-team exercise.
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(500),
            6,
        );
    let mut deployment = Deployment::build(cfg, HardeningProfile::deployed(), 42);

    println!("running 10 simulated seconds of SCADA operation...\n");
    deployment.run_for(SimDuration::from_secs(10));

    // The operator's view, rendered from vote-gated display frames.
    let topology = fig4_topology();
    println!("{}", deployment.hmi(0).hmi.render("jhu", &topology));

    // What happened underneath.
    for i in 0..4 {
        let host = deployment.replica(i);
        let transfers = deployment
            .obs
            .journal_count(|e| matches!(e, obs::Event::RecoveryEnd { replica } if *replica == i));
        println!(
            "replica {i}: executed {} ordered updates, view {}, {transfers} state transfers",
            host.replica.exec_seq(),
            host.replica.view(),
        );
    }
    let proxy = deployment.proxy(0);
    println!(
        "proxy: {} polls, {} status updates sent, {} vote-gated commands actuated",
        proxy.stats.polls_completed, proxy.stats.updates_sent, proxy.stats.commands_actuated
    );
    println!(
        "plc: {} loads energized, {} breaker operations logged",
        deployment.plc(0).energized_loads(),
        deployment.plc(0).position_log.len()
    );
}
