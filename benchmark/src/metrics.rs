//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` must list exactly these (`spire-benchmark manifest`
//! checks it), and later issues refer to them by name.

/// Which clock a metric is read on. Simulated-clock metrics repeat
/// exactly for a seed; host-clock metrics are the best of R repeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Simulated,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    pub clock: Clock,
    /// End-to-end only: the share of the base by which the metric may
    /// worsen before `compare` calls it worse.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: 0.0,
    }
}

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", Clock::Host, 0.25),
    e2e("sim_events_per_s", "1/s", "higher", Clock::Host, 0.25),
    e2e("ordered_per_wall_s", "1/s", "higher", Clock::Host, 0.25),
    e2e("peak_rss_mb", "MiB", "lower", Clock::Host, 0.25),
    e2e("latency_p50_ms", "ms", "lower", Clock::Simulated, 0.05),
    e2e("latency_tail_ms", "ms", "lower", Clock::Simulated, 0.05),
];

/// Printed by every workload with `--trace 1`; 0 where a layer does no
/// work on that workload.
pub const PER_LAYER: [MetricDef; 62] = [
    layer("simnet.events", "count", "lower"),
    layer("simnet.frames_sent", "count", "lower"),
    layer("simnet.frames_delivered", "count", "lower"),
    layer("simnet.frames_dropped", "count", "lower"),
    layer("simnet.delivered_per_sent", "ratio", "higher"),
    layer("simnet.engine_ns_per_event", "ns", "lower"),
    layer("simnet.queue_ns_per_op", "ns", "lower"),
    layer("simnet.engine_share", "ratio", "lower"),
    layer("simnet.slice_wall_ms_p50", "ms", "lower"),
    layer("simnet.slice_wall_ms_max", "ms", "lower"),
    layer("simnet.t2_events_per_s", "1/s", "higher"),
    layer("simnet.t2_speedup", "ratio", "higher"),
    layer("itcrypto.sign_ops", "count", "lower"),
    layer("itcrypto.verify_ops", "count", "lower"),
    layer("itcrypto.hmac_ops", "count", "lower"),
    layer("itcrypto.wire_bytes", "B", "lower"),
    layer("itcrypto.sha256_ns_per_64B", "ns", "lower"),
    layer("itcrypto.sha256_ns_per_KiB", "ns", "lower"),
    layer("itcrypto.hmac_ns_per_op", "ns", "lower"),
    layer("itcrypto.sign_ns_per_op", "ns", "lower"),
    layer("itcrypto.verify_ns_per_op", "ns", "lower"),
    layer("itcrypto.verify_cached_ns_per_op", "ns", "lower"),
    layer("itcrypto.merkle16_ns_per_root", "ns", "lower"),
    layer("itcrypto.share", "ratio", "lower"),
    layer("spines.sealed", "count", "lower"),
    layer("spines.opened", "count", "lower"),
    layer("spines.forwarded", "count", "lower"),
    layer("spines.duplicates", "count", "lower"),
    layer("spines.delivered", "count", "higher"),
    layer("spines.delivered_per_opened", "ratio", "higher"),
    layer("spines.hop_ns_per_op", "ns", "lower"),
    layer("spines.share", "ratio", "lower"),
    layer("prime.executed", "count", "higher"),
    layer("prime.view_changes", "count", "lower"),
    layer("prime.signs_per_update", "ratio", "lower"),
    layer("prime.verifies_per_update", "ratio", "lower"),
    layer("prime.preorder_sim_share", "ratio", "lower"),
    layer("prime.order_sim_share", "ratio", "lower"),
    layer("prime.cluster_ns_per_update", "ns", "lower"),
    layer("prime.share", "ratio", "lower"),
    layer("prime.ordering_capacity_per_s", "1/s", "higher"),
    layer("scada.applies", "count", "lower"),
    layer("scada.apply_ns_per_op", "ns", "lower"),
    layer("scada.share", "ratio", "lower"),
    layer("scada.display_gap_max_ms", "ms", "lower"),
    layer("modbus.polls", "count", "lower"),
    layer("modbus.codec_ns_per_op", "ns", "lower"),
    layer("modbus.share", "ratio", "lower"),
    layer("spire.reports_sent", "count", "lower"),
    layer("spire.aggregation_ratio", "ratio", "higher"),
    layer("spire.build_ms", "ms", "lower"),
    layer("obs.journal_records", "count", "lower"),
    layer("obs.journal_ns_per_record", "ns", "lower"),
    layer("obs.digest_ms", "ms", "lower"),
    layer("obs.share", "ratio", "lower"),
    layer("chaos.faults_injected", "count", "higher"),
    layer("chaos.invariant_checks", "count", "higher"),
    layer("chaos.violations", "count", "lower"),
    layer("chaos.reconverge_mean_steps", "count", "lower"),
    layer("chaos.reconverge_max_steps", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("unattributed_share", "ratio", "lower"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn well_formed(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(NAMES)
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn units_directions_and_bounds_fit_the_manifest_rules() {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}",
                m.name
            );
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }
}
