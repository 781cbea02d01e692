//! Multi-site failover contract (E13 tentpole): a severed site in a
//! redundant topology fails over to a degraded epoch and rides through,
//! losing a site AND an intrusion in the survivor site provably trips
//! the invariant checker, and the two Prime liveness fixes the E13
//! scenario exposed stay fixed.

use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker};
use chaos::plan::{ChaosPlan, Fault, ScheduledFault};
use prime::byzantine::ByzMode;
use prime::types::Config as PrimeConfig;
use simnet::time::SimDuration;
use spire::deploy::Deployment;
use spire::latency::measure_flips as measure;
use spire::site::SiteTopology;

use bench::chaos_experiment::chaos_rig;

/// A multi-site E13-style deployment: the chaos rig with its 6 replicas
/// spread over `sites`, at seed 42.
fn multisite_deployment(sites: SiteTopology) -> (Deployment, PrimeConfig) {
    let prime_cfg = PrimeConfig::plant();
    (chaos_rig(42, prime_cfg, Some(sites)), prime_cfg)
}

fn execs(d: &Deployment, replicas: &[u32]) -> Vec<u64> {
    replicas
        .iter()
        .map(|&i| d.replica(i).replica.exec_seq())
        .collect()
}

/// The E13 measure-before stage: three breaker flips with 1 s windows,
/// through the same probe E13 uses. Exists here because the timing
/// alignment these flips produce is what originally wedged Prime (see
/// `severed_site_fails_over_...` below).
fn measure_flips(d: &mut Deployment) {
    let tag = d.proxy(0).scenario().tag();
    measure(d, tag, 0, 1, 0, 3, SimDuration::from_secs(1), |_| {});
}

/// The positive control and the regression pin for the stale
/// pre-prepare fix: in a 3+3 deployment, the E13 measure-before flips
/// followed by a site sever + failover must leave the survivor site
/// ordering new updates during the sever, and healing + failback must
/// reconverge all six replicas with zero invariant violations.
///
/// Before the fix in `prime::replica::on_pre_prepare` /
/// `maybe_propose`, a pre-prepare cut off from its prepare quorum by
/// the sever left a stale old-view entry that blocked that sequence in
/// every later view — this exact scenario wedged permanently.
#[test]
fn severed_site_fails_over_and_reconverges_after_heal() {
    let (mut d, prime_cfg) = multisite_deployment(SiteTopology::three_plus_three());
    measure_flips(&mut d);

    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime_cfg), &d);
    let plan = ChaosPlan::site_failover(
        1,
        SimDuration::from_millis(200),
        SimDuration::from_secs(600),
    );
    let mut driver = ChaosDriver::new(plan);
    let step = SimDuration::from_millis(100);

    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(1), step);
    let survivors = [0u32, 1, 2];
    let at_sever = execs(&d, &survivors);
    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(5), step);
    let during = execs(&d, &survivors);
    assert!(
        during.iter().zip(&at_sever).all(|(now, then)| now > then),
        "survivor site must keep ordering during the sever: {at_sever:?} -> {during:?}"
    );

    driver.heal_all(&mut d, &mut checker);
    driver.run_quiesce(&mut d, &mut checker, SimDuration::from_secs(10), step);

    let all = execs(&d, &[0, 1, 2, 3, 4, 5]);
    let max = *all.iter().max().unwrap();
    assert!(
        all.iter().all(|&e| e == max),
        "all six replicas must reconverge after failback: {all:?}"
    );
    assert!(max > during[0], "ordering must continue after failback");
    for report in checker.reports() {
        assert_eq!(
            report.violations, 0,
            "{} tripped during a survivable site failover",
            report.name
        );
    }
}

/// Negative control (the issue's satellite): a 3+3 deployment that
/// loses one full site AND suffers an intrusion in the survivor site
/// has only 2 of the degraded epoch's 3 members left — below any
/// quorum — so with the checker told to treat the system as within
/// budget, the bounded-delay invariant MUST trip. Mirrors the E12
/// beyond-budget negative controls: a checker that cannot fail
/// verifies nothing.
#[test]
fn site_loss_plus_survivor_intrusion_trips_bounded_delay() {
    let (mut d, prime_cfg) = multisite_deployment(SiteTopology::three_plus_three());
    let horizon = SimDuration::from_secs(12);
    let plan = ChaosPlan {
        faults: vec![
            ScheduledFault {
                at: SimDuration::from_millis(200),
                duration: horizon,
                fault: Fault::SiteSever { site: 1 },
            },
            ScheduledFault {
                at: SimDuration::from_millis(500),
                duration: horizon,
                fault: Fault::ByzFlip {
                    replica: 0,
                    mode: ByzMode::Crashed,
                },
            },
        ],
    };
    let mut cfg = CheckerConfig::for_prime(&prime_cfg);
    cfg.assume_within_budget = true;
    let mut checker = InvariantChecker::new(cfg, &d);
    let mut driver = ChaosDriver::new(plan);
    driver.run_soak(&mut d, &mut checker, horizon, SimDuration::from_millis(100));
    let bounded_delay = &checker.reports()[2];
    assert_eq!(bounded_delay.name, "bounded-delay");
    assert!(
        bounded_delay.violations > 0,
        "losing a site plus an intrusion in the survivor site must stall \
         the degraded epoch past the delay bound"
    );
}

/// Regression pin for the view-change retransmission fix: a 3-3 split
/// with the membership left static (no failover) gives neither side an
/// ordering quorum, so survivors vote for a view change while the
/// links are down. Before the fix in `prime::replica::tick`, those
/// votes were broadcast once into the severed links and never again —
/// after the heal both sides sat `in_view_change` forever and ordering
/// never resumed. With retransmission, every replica must get past its
/// pre-sever execution once the site heals.
#[test]
fn static_membership_split_recovers_ordering_after_heal() {
    let (mut d, _) = multisite_deployment(SiteTopology::three_plus_three());
    measure_flips(&mut d);
    d.run_for(SimDuration::from_millis(200));

    d.sever_site(1);
    d.run_for(SimDuration::from_secs(6));
    let during = execs(&d, &[0, 1, 2, 3, 4, 5]);

    d.heal_site(1);
    d.run_for(SimDuration::from_secs(8));
    let after = execs(&d, &[0, 1, 2, 3, 4, 5]);
    assert!(
        after.iter().zip(&during).all(|(a, b)| a > b),
        "ordering must resume on every replica after the split heals: \
         {during:?} -> {after:?}"
    );
}

/// A sever in the 2+2+1+1 topology keeps 4 of 6 replicas — a native
/// ordering quorum — so ordering must continue with NO membership
/// change at all, and the checker stays green throughout.
#[test]
fn two_two_one_one_sever_keeps_native_quorum() {
    let (mut d, prime_cfg) = multisite_deployment(SiteTopology::two_two_one_one());
    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime_cfg), &d);
    let plan = ChaosPlan::site_failover(
        1,
        SimDuration::from_millis(200),
        SimDuration::from_secs(600),
    );
    let mut driver = ChaosDriver::new(plan);
    let step = SimDuration::from_millis(100);
    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(1), step);
    let survivors = [0u32, 1, 4, 5];
    let at_sever = execs(&d, &survivors);
    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(5), step);
    let during = execs(&d, &survivors);
    assert!(
        during.iter().zip(&at_sever).all(|(now, then)| now > then),
        "a native quorum must keep ordering during the sever: {at_sever:?} -> {during:?}"
    );
    driver.heal_all(&mut d, &mut checker);
    driver.run_quiesce(&mut d, &mut checker, SimDuration::from_secs(10), step);
    for report in checker.reports() {
        assert_eq!(
            report.violations, 0,
            "{} tripped during a native-quorum site sever",
            report.name
        );
    }
}
