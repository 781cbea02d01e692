//! The anomaly model: per-feature Gaussian baselines with a combined
//! Mahalanobis-style score (diagonal covariance).
//!
//! The paper's argument for this class of model (§III-C): it needs no
//! protocol knowledge and no plaintext, and SCADA traffic — "short
//! constant system updates" — is so regular that a 12-hour capture
//! sufficed to train at the plant.

use crate::features::{FeatureVector, FEATURE_COUNT};

/// Minimum standard deviation floor, so constant features (std = 0) do
/// not produce infinite scores on the first tiny fluctuation.
const STD_FLOOR: f64 = 0.5;

/// A trained per-feature Gaussian model.
#[derive(Clone, Debug)]
pub struct GaussianModel {
    mean: [f64; FEATURE_COUNT],
    std: [f64; FEATURE_COUNT],
    /// Number of training windows.
    pub trained_windows: usize,
    /// Alert threshold on the per-feature z-score.
    pub z_threshold: f64,
}

/// The score of one window against the model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Per-feature |z| scores (indexes per [`crate::features::FEATURE_NAMES`]).
    pub z: [f64; FEATURE_COUNT],
    /// Maximum per-feature |z|.
    pub max_z: f64,
    /// Index of the feature with the maximum |z|.
    pub top_feature: usize,
    /// Combined (root-mean-square) z across features.
    pub combined: f64,
}

impl GaussianModel {
    /// Fits the model on baseline windows.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty — training on nothing is a
    /// configuration error (the deployments trained on 24 h / 12 h
    /// captures).
    pub fn train(windows: &[FeatureVector]) -> Self {
        assert!(!windows.is_empty(), "cannot train on an empty baseline");
        let n = windows.len() as f64;
        let mut mean = [0.0; FEATURE_COUNT];
        for w in windows {
            for (m, v) in mean.iter_mut().zip(w.values.iter()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = [0.0; FEATURE_COUNT];
        for w in windows {
            for i in 0..FEATURE_COUNT {
                let d = w.values[i] - mean[i];
                var[i] += d * d;
            }
        }
        let mut std = [0.0; FEATURE_COUNT];
        for i in 0..FEATURE_COUNT {
            std[i] = (var[i] / n).sqrt().max(STD_FLOOR);
        }
        GaussianModel {
            mean,
            std,
            trained_windows: windows.len(),
            z_threshold: 6.0,
        }
    }

    /// Scores one window.
    pub fn score(&self, window: &FeatureVector) -> Score {
        let mut z = [0.0f64; FEATURE_COUNT];
        let mut max_z = 0.0f64;
        let mut top = 0;
        let mut sum_sq = 0.0f64;
        for (i, zi) in z.iter_mut().enumerate() {
            *zi = ((window.values[i] - self.mean[i]) / self.std[i]).abs();
            sum_sq += *zi * *zi;
            if *zi > max_z {
                max_z = *zi;
                top = i;
            }
        }
        Score {
            z,
            max_z,
            top_feature: top,
            combined: (sum_sq / FEATURE_COUNT as f64).sqrt(),
        }
    }

    /// Whether a score crosses the alert threshold.
    pub fn is_anomalous(&self, score: &Score) -> bool {
        score.max_z >= self.z_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;

    fn window(values: [f64; FEATURE_COUNT]) -> FeatureVector {
        FeatureVector {
            window_start: SimTime(0),
            values,
        }
    }

    /// A steady SCADA baseline: ~20 packets, ~2000 bytes, 4 sources.
    fn baseline(jitter: f64) -> Vec<FeatureVector> {
        (0..200)
            .map(|i| {
                let j = ((i % 5) as f64 - 2.0) * jitter;
                window([
                    20.0 + j,
                    2_000.0 + 10.0 * j,
                    4.0,
                    3.0,
                    0.0,
                    1.0,
                    1.0,
                    2.0,
                    100.0,
                    6.0,
                ])
            })
            .collect()
    }

    #[test]
    fn baseline_windows_score_low() {
        let model = GaussianModel::train(&baseline(1.0));
        for w in baseline(1.0) {
            let s = model.score(&w);
            assert!(!model.is_anomalous(&s), "baseline flagged: {s:?}");
        }
    }

    #[test]
    fn port_scan_window_flags_unique_ports() {
        let model = GaussianModel::train(&baseline(1.0));
        // A scan touches 200 distinct ports with many SYNs.
        let scan = window([
            220.0, 9_000.0, 5.0, 200.0, 200.0, 1.0, 1.0, 2.0, 42.0, 205.0,
        ]);
        let s = model.score(&scan);
        assert!(model.is_anomalous(&s));
        // The scan-specific features individually cross the threshold.
        assert!(
            s.z[3] >= model.z_threshold,
            "unique_dst_ports z = {}",
            s.z[3]
        );
        assert!(s.z[4] >= model.z_threshold, "syn_count z = {}", s.z[4]);
    }

    #[test]
    fn arp_storm_flags_arp_features() {
        let model = GaussianModel::train(&baseline(1.0));
        let storm = window([120.0, 5_000.0, 4.0, 3.0, 0.0, 2.0, 100.0, 102.0, 42.0, 6.0]);
        let s = model.score(&storm);
        assert!(model.is_anomalous(&s));
        assert!(
            s.z[6] >= model.z_threshold,
            "arp_reply_count z = {}",
            s.z[6]
        );
    }

    #[test]
    fn dos_burst_flags_volume() {
        let model = GaussianModel::train(&baseline(1.0));
        let burst = window([
            50_000.0,
            60_000_000.0,
            4.0,
            3.0,
            0.0,
            1.0,
            1.0,
            2.0,
            1_200.0,
            6.0,
        ]);
        let s = model.score(&burst);
        assert!(model.is_anomalous(&s));
        assert!(s.z[0] >= model.z_threshold && s.z[1] >= model.z_threshold);
    }

    #[test]
    fn constant_features_do_not_divide_by_zero() {
        // All-identical training data: stds hit the floor, scores finite.
        let model = GaussianModel::train(&baseline(0.0));
        let s = model.score(&window([
            20.0, 2_000.0, 4.0, 3.0, 0.0, 1.0, 1.0, 2.0, 100.0, 6.0,
        ]));
        assert!(s.max_z.is_finite());
        assert!(!model.is_anomalous(&s));
    }

    #[test]
    #[should_panic(expected = "empty baseline")]
    fn empty_training_panics() {
        let _ = GaussianModel::train(&[]);
    }
}
