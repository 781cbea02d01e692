//! Figures 1, 2, and 4 as constructed, exercised systems.
//! (Figure 3 is the combination of [`redteam::lab::CommercialLab`] and
//! the Spire deployment; E1/E2 exercise it directly.)

use plc::topology::{fig4_topology, Scenario};
use prime::types::Config as PrimeConfig;
use redteam::lab::CommercialLab;
use scada::commercial::CommercialHmi;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;

/// Figure 1 — the conventional architecture, built and exercised: a
/// primary-backup master pair polling a PLC and driving an HMI. Returns a
/// text summary with the live HMI state.
pub fn fig1_conventional(seed: u64) -> String {
    let mut lab = CommercialLab::build(seed, false);
    lab.sim.run_for(SimDuration::from_secs(3));
    let hmi = lab.sim.process_ref::<CommercialHmi>(lab.hmi).expect("hmi");
    let mut out = String::new();
    out.push_str("Figure 1 — conventional SCADA architecture (live)\n");
    out.push_str("  [HMI] <-> [primary master | backup master] <-> [PLC on network]\n");
    out.push_str(&format!(
        "  HMI status seq {}: positions {:?}\n",
        hmi.last_seq, hmi.positions
    ));
    out
}

/// Figure 2 — the Spire architecture with six replicas (f=1, k=1): builds
/// the deployment and reports its structure and liveness.
pub fn fig2_spire(seed: u64) -> String {
    let cfg = SpireConfig::minimal(PrimeConfig::plant(), Scenario::PlantSubset);
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.run_for(SimDuration::from_secs(4));
    let mut out = String::new();
    out.push_str("Figure 2 — Spire architecture (live)\n");
    out.push_str(&format!(
        "  {} SCADA-master replicas (f=1, k=1) on isolated internal Spines network\n",
        d.cfg.n()
    ));
    out.push_str(&format!(
        "  internal switch: {:?}; external switch with {} proxies, {} HMIs\n",
        d.internal_switch.is_some(),
        d.cfg.proxies.len(),
        d.cfg.hmis
    ));
    out.push_str(&format!(
        "  PLC behind proxy on direct cable: {}\n",
        d.hardening.plc_behind_proxy
    ));
    out.push_str(&format!("  min executed after 4 s: {}\n", d.min_executed()));
    out
}

/// Figure 4 — the HMI's power-topology visualization, rendered from live
/// SCADA state after the breaker cycle ran for a while.
pub fn fig4_hmi(seed: u64) -> String {
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(400),
            3,
        );
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.set_timing(fast_timing());
    d.run_for(SimDuration::from_secs(6));
    let topology = fig4_topology();
    d.hmi(0).hmi.render("jhu", &topology)
}
