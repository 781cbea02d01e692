//! The §III-A cyber-physical recovery property: after an assumption
//! breach that no BFT system can survive, Spire rebuilds its state from
//! the field devices.
//!
//! Run with: `cargo run --release --example ground_truth_recovery`

use bench::recovery_experiments::e6_ground_truth;

fn main() {
    println!("== Assumption breach: 5 of 6 replicas crash and lose state ==\n");
    let run = e6_ground_truth(2019);
    println!(
        "replicas with intact state: {} (need {} = f+1 to trust replica recovery)",
        run.intact, run.needed_for_replica_recovery
    );
    println!(
        "replica-based recovery possible: {}  ← a generic BFT system stops here",
        run.replica_recovery_possible
    );
    println!();
    println!("polling the field devices through their proxies instead...");
    println!(
        "rebuilt master state matches physical reality: {}",
        run.field_rebuild_correct
    );
}
