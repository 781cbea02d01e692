//! Experiment E7: MANA trained on the deployment's own baseline traffic,
//! then exposed to the red-team attack sequence.

use crate::redteam_experiments::{attacker_spec, spire_target};
use crate::registry::RunMeta;
use mana::features::{FeatureVector, WindowExtractor};
use mana::ids::{AlertKind, ManaInstance};
use mana::kmeans::{roc_curve, KMeansModel, RocPoint};
use mana::model::GaussianModel;
use plc::topology::Scenario;
use prime::types::Config as PrimeConfig;
use redteam::attacker::{AttackStep, Attacker};
use simnet::time::SimDuration;
use spire::config::{SpireConfig, EXTERNAL_SPINES_PORT};
use spire::deploy::Deployment;
use spire::hardening::HardeningProfile;

/// E7 result.
#[derive(Clone, Debug)]
pub struct ManaRun {
    /// Windows used for training (the baseline capture).
    pub training_windows: usize,
    /// Windows scored during the monitored phase.
    pub scored_windows: u64,
    /// False-positive rate on the pre-attack clean segment.
    pub clean_flag_rate: f64,
    /// Whether the port scan raised a PortScan incident.
    pub detected_scan: bool,
    /// Whether ARP poisoning raised an ArpAnomaly incident.
    pub detected_arp: bool,
    /// Whether the DoS burst raised a TrafficFlood incident.
    pub detected_flood: bool,
    /// Total correlated incidents.
    pub incidents: usize,
    /// The rendered situational-awareness board.
    pub board: String,
    /// Determinism capture of the deployment (digest + event count).
    pub meta: RunMeta,
}

/// E7 — train on the operations network baseline, then watch the red
/// team's attacks appear as classified incidents.
pub fn e7_mana_detection(seed: u64) -> ManaRun {
    let mut d = spire_target(HardeningProfile::deployed(), seed);
    let tap = d.sim.add_tap(d.external_switch);
    let mut mana = ManaInstance::new("MANA 2 (spire ops)", SimDuration::from_millis(250));

    // Baseline capture ("24-hour packet capture", compressed to 20 s of
    // steady operation) → train.
    d.run_for(SimDuration::from_secs(20));
    let records = d.sim.drain_tap(tap);
    let training_windows = {
        mana.ingest(records);
        mana.advance_to(d.now());
        mana.finish_training();
        mana.model().expect("trained").trained_windows
    };

    // Clean monitored segment: measure the false-positive rate.
    d.run_for(SimDuration::from_secs(10));
    let records = d.sim.drain_tap(tap);
    mana.ingest(records);
    mana.advance_to(d.now());
    let clean_flag_rate = mana.flag_rate();
    let incidents_before_attack = mana.alerts.len();

    // The red team arrives: scan, poison, flood.
    let t0 = d.now();
    let replica_ext = d.cfg.replica_external_ip(0);
    let mut attacker = Attacker::new();
    attacker.schedule(
        t0 + SimDuration::from_millis(500),
        AttackStep::PortScan {
            target: replica_ext,
            from_port: 8000,
            to_port: 8400,
        },
    );
    attacker.schedule(
        t0 + SimDuration::from_secs(3),
        AttackStep::ArpPoison {
            victim: d.cfg.hmi_ip(0),
            claim_ip: replica_ext,
            count: 60,
        },
    );
    attacker.schedule(
        t0 + SimDuration::from_secs(6),
        AttackStep::DosBurst {
            target: replica_ext,
            port: EXTERNAL_SPINES_PORT,
            pps: 3_000,
            duration: SimDuration::from_secs(2),
            spoof_src: None,
            payload: 700,
        },
    );
    d.attach_external_attacker(attacker_spec(attacker));
    d.run_for(SimDuration::from_secs(10));
    let records = d.sim.drain_tap(tap);
    mana.ingest(records);
    mana.advance_to(d.now());

    let detected = |kind: AlertKind| mana.alerts.iter().any(|a| a.kind == kind);
    let board = mana::board::Board::render(&[&mana], d.now());
    ManaRun {
        training_windows,
        scored_windows: mana.windows_scored,
        clean_flag_rate,
        detected_scan: detected(AlertKind::PortScan),
        detected_arp: detected(AlertKind::ArpAnomaly),
        detected_flood: detected(AlertKind::TrafficFlood),
        incidents: mana.alerts.len() - incidents_before_attack,
        board,
        meta: RunMeta::capture("e7.deployment", &d.obs, &d.sim),
    }
}

/// E7b result: ROC comparison of MANA's two model families.
#[derive(Clone, Debug)]
pub struct RocRun {
    /// Labeled windows evaluated (clean + attack).
    pub windows: usize,
    /// Attack-labeled windows among them.
    pub attack_windows: usize,
    /// Area under the ROC curve for the Gaussian model.
    pub auc_gaussian: f64,
    /// Area under the ROC curve for the k-means model.
    pub auc_kmeans: f64,
    /// The Gaussian model's ROC points (the figure's series).
    pub curve_gaussian: Vec<RocPoint>,
    /// Determinism capture of the deployment (digest + event count).
    pub meta: RunMeta,
}

/// E7b — the detection-quality figure: label every monitored window by
/// whether a known attack was active, score with both model families, and
/// compute ROC curves.
pub fn e7_roc(seed: u64) -> RocRun {
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(500),
            0,
        );
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    let tap = d.sim.add_tap(d.external_switch);
    let window = SimDuration::from_millis(250);
    let mut extractor = WindowExtractor::new(window);

    // Baseline capture → train both models.
    d.run_for(SimDuration::from_secs(20));
    let mut training = extractor.push(d.sim.drain_tap(tap));
    training.extend(extractor.flush_until(d.now()));
    let gaussian = GaussianModel::train(&training);
    let kmeans = KMeansModel::train(&training, 4, 12, seed);

    // Attack phase with precisely known intervals.
    let t0 = d.now();
    let replica_ext = d.cfg.replica_external_ip(0);
    let mut attacker = Attacker::new();
    let scan_at = t0 + SimDuration::from_millis(500);
    attacker.schedule(
        scan_at,
        AttackStep::PortScan {
            target: replica_ext,
            from_port: 8000,
            to_port: 8400,
        },
    );
    let arp_at = t0 + SimDuration::from_secs(3);
    attacker.schedule(
        arp_at,
        AttackStep::ArpPoison {
            victim: d.cfg.hmi_ip(0),
            claim_ip: replica_ext,
            count: 60,
        },
    );
    let dos_at = t0 + SimDuration::from_secs(6);
    let dos_len = SimDuration::from_secs(2);
    attacker.schedule(
        dos_at,
        AttackStep::DosBurst {
            target: replica_ext,
            port: EXTERNAL_SPINES_PORT,
            pps: 3_000,
            duration: dos_len,
            spoof_src: None,
            payload: 700,
        },
    );
    d.attach_external_attacker(attacker_spec(attacker));
    d.run_for(SimDuration::from_secs(10));
    let mut monitored = extractor.push(d.sim.drain_tap(tap));
    monitored.extend(extractor.flush_until(d.now()));

    // Ground-truth labels from the attack schedule.
    let in_interval = |w: &FeatureVector, start: simnet::time::SimTime, len: SimDuration| {
        w.window_start + window > start && w.window_start < start + len
    };
    let labeled: Vec<(&FeatureVector, bool)> = monitored
        .iter()
        .map(|w| {
            let attack = in_interval(w, scan_at, SimDuration::from_millis(250))
                || in_interval(w, arp_at, SimDuration::from_millis(250))
                || in_interval(w, dos_at, dos_len);
            (w, attack)
        })
        .collect();
    let gaussian_samples: Vec<(f64, bool)> = labeled
        .iter()
        .map(|(w, a)| (gaussian.score(w).max_z, *a))
        .collect();
    let kmeans_samples: Vec<(f64, bool)> =
        labeled.iter().map(|(w, a)| (kmeans.score(w), *a)).collect();
    let (curve_gaussian, auc_gaussian) = roc_curve(&gaussian_samples);
    let (_, auc_kmeans) = roc_curve(&kmeans_samples);
    RocRun {
        windows: labeled.len(),
        attack_windows: labeled.iter().filter(|(_, a)| *a).count(),
        auc_gaussian,
        auc_kmeans,
        curve_gaussian,
        meta: RunMeta::capture("e7b.deployment", &d.obs, &d.sim),
    }
}

/// Renders the E7b ROC summary (the figure's data series).
pub fn render_roc(run: &RocRun) -> String {
    let mut out = format!(
        "windows: {} ({} attack-labeled)\nAUC gaussian: {:.3}   AUC k-means: {:.3}\n\nfpr     tpr     (gaussian ROC)\n",
        run.windows, run.attack_windows, run.auc_gaussian, run.auc_kmeans
    );
    for p in run.curve_gaussian.iter().take(20) {
        out.push_str(&format!("{:.3}   {:.3}\n", p.fpr, p.tpr));
    }
    out
}

/// Renders the E7 summary.
pub fn render_mana(run: &ManaRun) -> String {
    format!(
        "training windows: {}\nscored windows:  {}\nclean-segment flag rate: {:.4}\n\
         port scan detected:  {}\narp poisoning detected: {}\ndos flood detected:  {}\n\
         correlated incidents: {}\n\n{}",
        run.training_windows,
        run.scored_windows,
        run.clean_flag_rate,
        run.detected_scan,
        run.detected_arp,
        run.detected_flood,
        run.incidents,
        run.board
    )
}
