//! The full §IV red-team exercise: the commercial system falls in hours;
//! Spire withstands the same attacker, including the staged
//! compromised-replica excursion.
//!
//! Run with: `cargo run --release --example red_team_exercise`

use bench::redteam_experiments::{
    e1_commercial_attacks, e2_spire_network_attacks, e3_replica_excursion,
};

fn main() {
    println!("== Phase 1+2: red team vs. the commercial SCADA system ==\n");
    let commercial = e1_commercial_attacks(2017).report;
    println!("{}", commercial.render());
    println!(
        "commercial system held: {}\n",
        commercial.target_held("commercial")
    );

    println!("== Phase 3: the same attacks vs. Spire ==\n");
    let spire = e2_spire_network_attacks(2017);
    println!("{}", spire.report.render());
    println!(
        "breaker cycle frames before/after attacks: {} -> {} (service never stopped)",
        spire.frames_before, spire.frames_after
    );
    println!(
        "static-ARP rejections: {}   spire held: {}\n",
        spire.arp_rejections,
        spire.report.target_held("spire")
    );

    println!("== Day 3 excursion: gradually increasing control of one replica ==\n");
    let excursion = e3_replica_excursion(2017).report;
    for stage in &excursion.stages {
        println!(
            "stage {}: {}\n         disrupted service: {}   {}",
            stage.number, stage.action, stage.disrupted_service, stage.evidence
        );
    }
    println!(
        "\nspire survived the excursion: {} (display frames {} -> {})",
        excursion.spire_survived(),
        excursion.frames_before,
        excursion.frames_after
    );
}
