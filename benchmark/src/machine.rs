//! What the host is, and this process's own clocks and memory, read from
//! `/proc`. Every result carries the descriptor so that two result sets
//! are only ever compared knowing where each was taken.

use crate::json::Json;

/// Linux reports process times in ticks of 1/100 s on every platform the
/// repository supports (`getconf CLK_TCK`).
const TICKS_PER_S: f64 = 100.0;

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .map(|rest| rest.trim().to_string())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis, where field 3 (state) begins.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| fields.get(field - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine descriptor. `run.sh` passes what only a shell can know
/// (compiler version, commit) through the environment.
pub fn descriptor() -> Json {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpus_allowed_list",
            Json::Str(proc_status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())),
        ),
        ("rustc", Json::Str(env("SPIRE_BENCH_RUSTC"))),
        ("commit", Json::Str(env("SPIRE_BENCH_COMMIT"))),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0, "VmHWM readable");
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before, "CPU clock advances under load");
    }
}
