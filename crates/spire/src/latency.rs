//! The §V end-to-end reaction-time harness.
//!
//! "The device periodically flipped a breaker and used two sensors to
//! detect when the HMI screens of the two systems updated to reflect the
//! change." Here the device physically operates a breaker inside the PLC
//! ([`plc::PlcEmulator::force_breaker`]) and the sensor reads the HMI's
//! black/white box transitions; the reaction time is the difference.

use simnet::time::{SimDuration, SimTime};

use crate::deploy::Deployment;

/// One measured flip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When the breaker was physically operated.
    pub flipped_at: SimTime,
    /// When the HMI box changed, if it did before the next flip.
    pub displayed_at: Option<SimTime>,
}

impl Sample {
    /// Reaction time, if the display updated.
    pub fn reaction(&self) -> Option<SimDuration> {
        self.displayed_at.map(|d| d.since(self.flipped_at))
    }
}

/// Distribution summary of reaction times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Flips measured.
    pub samples: usize,
    /// Flips that never reached the display (missed updates).
    pub missed: usize,
    /// Minimum reaction.
    pub min: SimDuration,
    /// Median reaction.
    pub median: SimDuration,
    /// Maximum reaction.
    pub max: SimDuration,
    /// Mean reaction.
    pub mean: SimDuration,
}

/// Summarizes samples.
///
/// # Panics
///
/// Panics if no sample completed (nothing to summarize).
pub fn summarize(samples: &[Sample]) -> LatencySummary {
    let mut reactions: Vec<SimDuration> = samples.iter().filter_map(|s| s.reaction()).collect();
    assert!(!reactions.is_empty(), "no completed samples to summarize");
    reactions.sort_unstable();
    let sum: u64 = reactions.iter().map(|d| d.as_micros()).sum();
    LatencySummary {
        samples: samples.len(),
        missed: samples.len() - reactions.len(),
        min: reactions[0],
        median: reactions[reactions.len() / 2],
        max: *reactions.last().expect("nonempty"),
        mean: SimDuration::from_micros(sum / reactions.len() as u64),
    }
}

/// The measurement device: flips `breaker` of PLC `plc` `flips` times and
/// watches the sensor box of HMI `hmi`, attached to scenario `sensor_tag`,
/// for `window` after each flip. `after_window` runs once per flip when
/// its window closes (E13 hands the invariant checker the new ground
/// truth there and lets it sample).
#[allow(clippy::too_many_arguments)]
pub fn measure_flips(
    d: &mut Deployment,
    sensor_tag: String,
    plc: u32,
    breaker: u16,
    hmi: u32,
    flips: usize,
    window: SimDuration,
    mut after_window: impl FnMut(&mut Deployment),
) -> Vec<Sample> {
    d.hmi_mut(hmi).hmi.set_sensor_breaker(sensor_tag, breaker);
    let mut samples = Vec::new();
    let mut state = d.plc(plc).positions()[breaker as usize];
    for i in 0..flips {
        // Deterministic phase jitter: without it every flip lands at the
        // same offset inside the proxy's poll cycle and all samples
        // measure the identical path.
        d.run_for(SimDuration::from_micros((i as u64 * 7_919) % 20_000));
        state = !state;
        let flipped_at = d.now();
        let seen_transitions = d.hmi(hmi).hmi.box_transitions.len();
        d.plc_mut(plc).force_breaker(breaker, state, flipped_at);
        d.run_for(window);
        after_window(d);
        let transitions = &d.hmi(hmi).hmi.box_transitions;
        let displayed_at = transitions
            .get(seen_transitions..)
            .and_then(|new| new.iter().find(|&&(_, white)| white == state))
            .map(|&(t, _)| t);
        samples.push(Sample {
            flipped_at,
            displayed_at,
        });
    }
    samples
}

/// Runs the measurement against a Spire deployment: flips `breaker` of
/// proxy `p`'s PLC `flips` times, `period` apart, watching HMI `h`'s
/// sensor box, and records each reaction in `e5.spire.reaction_us`.
pub fn measure_spire(
    d: &mut Deployment,
    proxy: u32,
    breaker: u16,
    hmi: u32,
    flips: usize,
    period: SimDuration,
) -> Vec<Sample> {
    let tag = d.proxy(proxy).scenario().tag();
    let samples = measure_flips(d, tag, proxy, breaker, hmi, flips, period, |_| {});
    for reaction in samples.iter().filter_map(Sample::reaction) {
        d.obs
            .histogram("e5.spire.reaction_us")
            .record(reaction.as_micros());
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_computes_distribution() {
        let samples = vec![
            Sample {
                flipped_at: SimTime(0),
                displayed_at: Some(SimTime(100_000)),
            },
            Sample {
                flipped_at: SimTime(1_000_000),
                displayed_at: Some(SimTime(1_300_000)),
            },
            Sample {
                flipped_at: SimTime(2_000_000),
                displayed_at: Some(SimTime(2_200_000)),
            },
            Sample {
                flipped_at: SimTime(3_000_000),
                displayed_at: None,
            },
        ];
        let s = summarize(&samples);
        assert_eq!(s.samples, 4);
        assert_eq!(s.missed, 1);
        assert_eq!(s.min, SimDuration::from_millis(100));
        assert_eq!(s.median, SimDuration::from_millis(200));
        assert_eq!(s.max, SimDuration::from_millis(300));
        assert_eq!(s.mean, SimDuration::from_millis(200));
    }

    #[test]
    #[should_panic(expected = "no completed samples")]
    fn summarize_empty_panics() {
        let samples = vec![Sample {
            flipped_at: SimTime(0),
            displayed_at: None,
        }];
        let _ = summarize(&samples);
    }
}
