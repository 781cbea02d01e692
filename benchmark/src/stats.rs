//! The benchmark's own arithmetic: which percentile a sample supports,
//! best-of-R with its spread, the capacity search, and the failed share.

/// Percentiles the benchmark reports, ascending.
const LADDER: [f64; 8] = [50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A latency sample in simulated microseconds; `None` is an operation
/// that never completed, which sorts above every completed one so it
/// misses any limit.
pub type Sample = Option<u64>;

/// Nearest-rank index of percentile `p` in `n` ascending samples, in
/// whole basis points so that p90 of 100 is exactly the 90th sample.
fn rank(p: f64, n: usize) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (basis_points * n).div_ceil(10_000).clamp(1, n) - 1
}

/// The highest ladder percentile with at least ten samples beyond it;
/// the median when the sample supports nothing higher (or fewer than
/// ten lie beyond the median itself).
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| n > 0 && n - 1 - rank(p, n) >= 10)
        .fold(50.0, f64::max)
}

/// Percentile `p` of `samples` in milliseconds. A missed sample reads
/// as `missed_ms` (the workload's own waiting limit), never as absent.
pub fn percentile_ms(samples: &[Sample], p: f64, missed_ms: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted: Vec<u64> = samples.iter().map(|s| s.unwrap_or(u64::MAX)).collect();
    sorted.sort_unstable();
    match sorted[rank(p, sorted.len())] {
        u64::MAX => missed_ms,
        us => us as f64 / 1000.0,
    }
}

/// The best of R identical repeats, with how far the typical repeat sat
/// above it. Host noise on a shared machine only ever adds time, so a
/// minimum is the steadiest estimate of the work's own cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Best {
    pub best: f64,
    pub median: f64,
    /// `(median - best) / best`.
    pub spread: f64,
}

/// Best of R, slice by slice. `slices[r][i]` is the wall repeat `r`
/// spent on slice `i`, the same work in every repeat; `walls[r]` is
/// repeat `r`'s whole wall. The noise here comes in bursts of a second
/// or so, shorter than a repeat: a whole repeat is rarely undisturbed,
/// but each of its slices is undisturbed in some repeat, so the sum of
/// the per-slice minima is far steadier than the minimum of the sums
/// (half the quartile spread under a bursty neighbour) and is what an
/// undisturbed repeat would take.
pub fn best_of_slices(slices: &[&[f64]], walls: &[f64]) -> Best {
    assert!(
        !slices.is_empty() && slices.len() == walls.len(),
        "one slice list per repeat"
    );
    let count = slices[0].len();
    assert!(
        slices.iter().all(|s| s.len() == count),
        "repeats of one workload cut their measured section alike"
    );
    let best: f64 = (0..count)
        .map(|i| slices.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .sum();
    let median = median(walls);
    let spread = if best > 0.0 {
        (median - best) / best
    } else {
        0.0
    };
    Best {
        best,
        median,
        spread,
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One step of an open-loop ramp, judged against a latency limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepVerdict {
    pub submitted: u64,
    /// Executed by the end of the drain.
    pub executed: u64,
    /// Tail latency of the step, refused and unfinished updates counted
    /// as over any limit.
    pub tail_ms: f64,
}

impl StepVerdict {
    /// Meets the limit: tail within `limit_ms` and at least 99 % executed.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && self.executed * 100 >= self.submitted * 99
    }
}

/// Runs `step` at ascending `rates` and stops after the first rate that
/// misses the limit. Returns the highest rate that met it (0 when the
/// first rate already misses) and every step run.
pub fn capacity_search(
    rates: &[u64],
    limit_ms: f64,
    mut step: impl FnMut(u64) -> StepVerdict,
) -> (u64, Vec<(u64, StepVerdict)>) {
    let mut capacity = 0;
    let mut steps = Vec::new();
    for &rate in rates {
        let verdict = step(rate);
        steps.push((rate, verdict));
        if !verdict.passes(limit_ms) {
            break;
        }
        capacity = rate;
    }
    (capacity, steps)
}

/// `failed / attempted`; a run that attempted nothing has failed.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // The sizes the workloads use, and the edges around them.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 80.0);
        assert_eq!(tail_percentile(52), 80.0);
        assert_eq!(tail_percentile(3200), 99.0);
        assert_eq!(tail_percentile(6400), 99.0);
        assert_eq!(tail_percentile(20_000), 99.9);
        assert_eq!(tail_percentile(24), 50.0);
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn percentile_uses_nearest_rank_and_missed_sorts_last() {
        let samples: Vec<Sample> = (1..=100).map(|i| Some(i * 1000)).collect();
        assert_eq!(percentile_ms(&samples, 50.0, 999.0), 50.0);
        assert_eq!(percentile_ms(&samples, 90.0, 999.0), 90.0);
        assert_eq!(percentile_ms(&samples, 99.99, 999.0), 100.0);
        let mut with_missed = samples;
        with_missed.extend([None; 25]);
        // 125 samples: p90 is rank 113, inside the 25 missed.
        assert_eq!(percentile_ms(&with_missed, 90.0, 999.0), 999.0);
        assert_eq!(percentile_ms(&with_missed, 50.0, 999.0), 63.0);
    }

    #[test]
    fn best_of_slices_sums_per_slice_minima_and_spreads_to_median() {
        // Three repeats of three slices; a burst hits a different slice
        // of each, so no repeat is clean but every slice is, somewhere.
        let slices: [&[f64]; 3] = [&[1.0, 2.0, 9.0], &[1.0, 8.0, 3.0], &[7.0, 2.0, 3.0]];
        let walls = [12.0, 12.0, 12.0];
        let b = best_of_slices(&slices, &walls);
        assert_eq!(b.best, 6.0, "1 + 2 + 3, though the best repeat took 12");
        assert_eq!(b.median, 12.0);
        assert_eq!(b.spread, 1.0);
        let one = best_of_slices(&[&[3.0]], &[3.0]);
        assert_eq!((one.best, one.spread), (3.0, 0.0));
        assert_eq!(median(&[1.0, 3.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "cut their measured section alike")]
    fn best_of_slices_refuses_repeats_cut_differently() {
        best_of_slices(&[&[1.0, 2.0], &[3.0]], &[3.0, 3.0]);
    }

    #[test]
    fn capacity_search_stops_after_first_miss() {
        let mut asked = Vec::new();
        let (capacity, steps) = capacity_search(&[100, 200, 400, 800, 1600], 100.0, |rate| {
            asked.push(rate);
            StepVerdict {
                submitted: rate,
                executed: rate,
                tail_ms: if rate >= 400 { 250.0 } else { 30.0 },
            }
        });
        assert_eq!(capacity, 200);
        assert_eq!(asked, [100, 200, 400], "nothing runs past the first miss");
        assert_eq!(steps.len(), 3);
    }

    #[test]
    fn unfinished_updates_count_as_over_the_limit() {
        let fast_but_lossy = StepVerdict {
            submitted: 1000,
            executed: 989,
            tail_ms: 20.0,
        };
        assert!(!fast_but_lossy.passes(100.0));
        let complete = StepVerdict {
            executed: 990,
            ..fast_but_lossy
        };
        assert!(complete.passes(100.0));
        let (capacity, _) = capacity_search(&[10, 20], 100.0, |_| fast_but_lossy);
        assert_eq!(capacity, 0, "a first step that misses leaves no capacity");
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 100), 0.0);
        assert_eq!(failed_share(5, 100), 0.05);
        assert_eq!(failed_share(0, 0), 1.0);
    }
}
