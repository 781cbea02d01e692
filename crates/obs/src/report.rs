//! Per-run observability snapshot and its table rendering.

use crate::event::TimedEvent;
use crate::trace::StageBreakdown;

/// Everything a run recorded, snapshotted: counters, critical-path
/// tables, and the journal itself (with its length and digest). This is
/// what experiments return and the CLI prints under `--metrics`.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsReport {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-root-stage latency attribution assembled from the journaled
    /// span trees; empty when the run traced nothing.
    pub critical_paths: Vec<StageBreakdown>,
    /// Number of journal records.
    pub journal_len: usize,
    /// Hex SHA-256 digest of the journal encoding — the run's identity.
    pub journal_digest: String,
    /// The journal records themselves (`--trace-export` renders these
    /// as Chrome trace-event JSON after the run).
    pub journal: Vec<TimedEvent>,
}

impl ObsReport {
    /// Value of a counter in this snapshot (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Renders the snapshot as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("observability report\n");
        out.push_str("--------------------\n");
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v:>12}\n"));
            }
        }
        if !self.critical_paths.is_empty() {
            for b in &self.critical_paths {
                out.push_str(&format!(
                    "critical path from '{}' ({} chains):\n  {:<40} {:>8} {:>10} {:>10}\n",
                    b.root, b.chains, "stage", "count", "p50_us", "p99_us"
                ));
                for row in &b.rows {
                    out.push_str(&format!(
                        "  {:<40} {:>8} {:>10} {:>10}\n",
                        row.stage.name(),
                        row.count,
                        row.p50_us,
                        row.p99_us
                    ));
                }
                out.push_str(&format!(
                    "  {:<40} {:>8} {:>10} {:>10}\n",
                    "total", "", b.p50_total_us, b.p99_total_us
                ));
            }
        }
        out.push_str(&format!(
            "journal: {} records, digest {}\n",
            self.journal_len, self.journal_digest
        ));
        out
    }
}

/// Renders a [`crate::prof::Profile`] as a markdown attribution table:
/// one row per phase stack (simulated time, share, events, bytes, and
/// per-class crypto-operation counts), a telescoped total row, and a
/// telescoping verdict line. When `expected_total_us` is given (the
/// run's independently measured elapsed simulated time) the verdict
/// states whether the rows sum to it exactly; otherwise it just states
/// the sum. This is the single renderer the CLI and EXPERIMENTS.md use,
/// so the telescoping check is not re-implemented ad hoc per call site.
pub fn attribution_markdown(
    profile: &crate::prof::Profile,
    expected_total_us: Option<u64>,
) -> String {
    use std::fmt::Write as _;
    let total = profile.total();
    let mut out = String::new();
    out.push_str("| phase | time_us | share | events | bytes | sign | verify | hmac |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for (stack, cost) in profile.rows() {
        let share = if total.time_us > 0 {
            100.0 * cost.time_us as f64 / total.time_us as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "| {} | {} | {:.1}% | {} | {} | {} | {} | {} |",
            stack, cost.time_us, share, cost.events, cost.bytes, cost.sign, cost.verify, cost.hmac
        );
    }
    let _ = writeln!(
        out,
        "| **total** | **{}** | 100.0% | {} | {} | {} | {} | {} |",
        total.time_us, total.events, total.bytes, total.sign, total.verify, total.hmac
    );
    match expected_total_us {
        Some(expect) if expect == total.time_us => {
            let _ = writeln!(
                out,
                "\ntelescoping: exact ({} us across {} phases == {} us simulated)",
                total.time_us,
                profile.len(),
                expect
            );
        }
        Some(expect) => {
            let _ = writeln!(
                out,
                "\ntelescoping: MISMATCH (rows sum to {} us, simulated total {} us)",
                total.time_us, expect
            );
        }
        None => {
            let _ = writeln!(
                out,
                "\nrows sum to {} us of simulated time across {} phases",
                total.time_us,
                profile.len()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsReport {
        ObsReport {
            counters: vec![("net.delivered".into(), 42)],
            critical_paths: Vec::new(),
            journal_len: 3,
            journal_digest: "abcd".repeat(16),
            journal: Vec::new(),
        }
    }

    #[test]
    fn lookups_find_recorded_entries() {
        let r = sample();
        assert_eq!(r.counter("net.delivered"), 42);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn attribution_markdown_reports_telescoping_verdict() {
        use crate::prof::{PhaseCost, Profile};
        let mut p = Profile::new();
        p.charge(
            "prime;order",
            PhaseCost {
                time_us: 30,
                events: 2,
                sign: 1,
                ..PhaseCost::default()
            },
        );
        p.charge(
            "idle",
            PhaseCost {
                time_us: 70,
                ..PhaseCost::default()
            },
        );
        let exact = attribution_markdown(&p, Some(100));
        assert!(exact.contains("telescoping: exact"), "{exact}");
        assert!(
            exact.contains("| prime;order | 30 | 30.0% | 2 |"),
            "{exact}"
        );
        assert!(exact.contains("| **total** | **100** |"), "{exact}");
        let bad = attribution_markdown(&p, Some(99));
        assert!(bad.contains("telescoping: MISMATCH"), "{bad}");
        let free = attribution_markdown(&p, None);
        assert!(free.contains("rows sum to 100 us"), "{free}");
    }

    #[test]
    fn render_contains_every_section() {
        let text = sample().render();
        for needle in ["counters:", "net.delivered", "3 records"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
