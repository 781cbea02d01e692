//! `spire-sim` CLI contract: output-file failures surface as a nonzero
//! exit code with a clear error, instead of vanishing on stderr while
//! the process reports success.

use std::process::Command;

fn spire_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spire-sim"))
        .args(args)
        .output()
        .expect("spire-sim runs")
}

/// `--days 0` keeps the soak to its warmup + quiescence tail, so these
/// stay fast while still exercising the JSON writer.
#[test]
fn unwritable_json_path_exits_nonzero_with_clear_error() {
    let out = spire_sim(&["e12", "--days", "0", "--json", "/nonexistent-dir/e12.json"]);
    assert!(
        !out.status.success(),
        "unwritable --json must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write /nonexistent-dir/e12.json"),
        "stderr should name the path and the error, got: {stderr}"
    );
}

#[test]
fn e16_unwritable_json_path_exits_nonzero_with_clear_error() {
    let out = spire_sim(&["e16", "--days", "0", "--json", "/nonexistent-dir/e16.json"]);
    assert!(
        !out.status.success(),
        "unwritable e16 --json must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write /nonexistent-dir/e16.json"),
        "stderr should name the path and the error, got: {stderr}"
    );
    // Both campaign tables still print — only the file write failed.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("e16a campaign") && stdout.contains("e16b campaign"),
        "campaign tables should print before the write fails, got: {stdout}"
    );
}

#[test]
fn e14_zero_substations_exits_nonzero_with_clear_error() {
    let out = spire_sim(&["e14", "--substations", "0"]);
    assert!(
        !out.status.success(),
        "--substations 0 must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--substations must be at least 1"),
        "stderr should explain the bad flag, got: {stderr}"
    );
}

#[test]
fn e14_zero_devices_per_exits_nonzero_with_clear_error() {
    let out = spire_sim(&["e14", "--substations", "1", "--devices-per", "0"]);
    assert!(
        !out.status.success(),
        "--devices-per 0 must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--devices-per must be at least 1"),
        "stderr should explain the bad flag, got: {stderr}"
    );
}

/// A region the addressing cannot hold is refused in one line before
/// anything runs, not by an `assert!` three frames inside the builder.
#[test]
fn e14_oversized_region_exits_nonzero_with_one_line_and_no_backtrace() {
    let cases: [(&[&str], &str); 2] = [
        (
            &["e14", "--substations", "150", "--devices-per", "10"],
            "1500 devices",
        ),
        (&["e14", "--substations", "250"], "250 substations"),
    ];
    for (args, why) in cases {
        let out = spire_sim(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "one line, got: {stderr}");
        assert!(stderr.contains(why), "stderr should say why, got: {stderr}");
        assert!(!stderr.contains("panicked"), "no backtrace, got: {stderr}");
    }
}

/// A single tiny sweep point keeps this fast while still exercising the
/// e14 JSON writer's failure path.
#[test]
fn e14_unwritable_json_path_exits_nonzero_with_clear_error() {
    let out = spire_sim(&[
        "e14",
        "--substations",
        "1",
        "--devices-per",
        "2",
        "--json",
        "/nonexistent-dir/e14.json",
    ]);
    assert!(
        !out.status.success(),
        "unwritable e14 --json must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write /nonexistent-dir/e14.json"),
        "stderr should name the path and the error, got: {stderr}"
    );
    // The sweep table still prints — only the file write failed.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("e14 regional scale-out"),
        "sweep table should print before the write fails, got: {stdout}"
    );
}

#[test]
fn unwritable_trace_export_exits_nonzero_with_clear_error() {
    let out = spire_sim(&["e5", "--trace-export", "/nonexistent-dir/trace.json"]);
    assert!(
        !out.status.success(),
        "unwritable --trace-export must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write /nonexistent-dir/trace.json"),
        "stderr should name the path and the error, got: {stderr}"
    );
}

#[test]
fn unwritable_prof_path_exits_nonzero_with_clear_error() {
    let out = spire_sim(&[
        "e11",
        "--steps",
        "1",
        "--prof",
        "/nonexistent-dir/e11.folded",
    ]);
    assert!(
        !out.status.success(),
        "unwritable --prof must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write /nonexistent-dir/e11.folded"),
        "stderr should name the path and the error, got: {stderr}"
    );
    // The attribution report still prints — only the file write failed.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("telescoping: exact"),
        "attribution should print before the write fails, got: {stdout}"
    );
}

#[test]
fn writable_prof_path_exits_zero_and_writes_folded_stacks() {
    let dir = std::env::temp_dir().join("spire-sim-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("e11.folded");
    let path_str = path.to_str().expect("utf-8 path");
    let out = spire_sim(&["e11", "--steps", "1", "--prof", path_str]);
    assert!(out.status.success(), "writable --prof must succeed");
    let folded = std::fs::read_to_string(&path).expect("folded written");
    assert!(
        folded.lines().all(|l| {
            let mut parts = l.rsplitn(2, ' ');
            let value = parts.next().unwrap_or("");
            parts.next().is_some() && value.parse::<u64>().is_ok()
        }) && !folded.is_empty(),
        "every line is `stack value`, got: {folded}"
    );
    assert!(
        folded.contains("prime;order"),
        "protocol phases appear in the folded stacks, got: {folded}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn writable_json_path_exits_zero_and_writes_the_file() {
    let dir = std::env::temp_dir().join("spire-sim-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("e12.json");
    let path_str = path.to_str().expect("utf-8 path");
    let out = spire_sim(&["e12", "--days", "0", "--json", path_str]);
    assert!(out.status.success(), "writable --json must succeed");
    let json = std::fs::read_to_string(&path).expect("json written");
    assert!(json.contains("\"all_green\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_command_exits_nonzero_and_lists_commands() {
    let out = spire_sim(&["e99"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command: e99"));
    assert!(stderr.contains("e12"), "help should list e12");
}

/// There is one engine and one benchmark (`benchmark/`): `--threads` and
/// `bench` are errors, not silent no-ops.
#[test]
fn threads_flag_and_bench_command_are_rejected() {
    let out = spire_sim(&["e4", "--threads", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --threads"), "got: {stderr}");

    let out = spire_sim(&["bench"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command: bench"), "got: {stderr}");
    let listed = stderr
        .lines()
        .find(|l| l.starts_with("available commands:"))
        .expect("the remaining commands are listed");
    assert!(listed.contains("e12") && listed.contains("all"));
    assert!(!listed.contains("bench"), "got: {listed}");
}

/// `all` would hand the one output path to every experiment that writes
/// it, each overwriting the last with a different shape: refused before
/// anything runs.
#[test]
fn all_refuses_a_single_output_file() {
    for flag in ["--json", "--trace-export"] {
        let path = std::env::temp_dir().join("spire-sim-cli-test-all.json");
        let out = spire_sim(&["all", flag, path.to_str().expect("utf-8 path")]);
        assert!(!out.status.success(), "all {flag} must fail the process");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("all takes neither --json nor --trace-export"),
            "got: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing runs before the refusal");
        assert!(!path.exists(), "no file is written");
    }
}

/// A flag the experiment's row does not take is refused in one line that
/// says what it does take, before anything runs or any file is written.
#[test]
fn a_flag_the_experiment_does_not_take_is_refused() {
    let path = std::env::temp_dir().join("spire-sim-cli-test-refused.json");
    let path_str = path.to_str().expect("utf-8 path");
    let cases: [(&[&str], &str); 4] = [
        (&["e1", "--json", path_str], "e1 takes --seed"),
        (&["e12", "--trace"], "e12 takes --days --json"),
        (&["e13", "--days", "3"], "e13 takes --json"),
        (&["e7", "--substations", "2"], "e7 takes --seed"),
    ];
    for (args, takes) in cases {
        let out = spire_sim(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "one line, got: {stderr}");
        assert!(stderr.contains(takes), "got: {stderr}");
        assert!(
            stderr.contains(&format!("not {}", args[1])),
            "got: {stderr}"
        );
    }
    assert!(!path.exists(), "no file is written");
}

/// A numeric flag is parsed as the type it is stored in: one past
/// `u32::MAX` is not a number for the `u32` flags (it used to wrap to 0
/// silently), and still one for `--steps`, a `usize`.
#[test]
fn numeric_flags_do_not_wrap() {
    let big = (u64::from(u32::MAX) + 1).to_string();
    for (id, flag) in [
        ("e11", "--batch"),
        ("e11", "--pipeline"),
        ("e14", "--substations"),
        ("e14", "--devices-per"),
    ] {
        let out = spire_sim(&[id, flag, &big]);
        assert_eq!(out.status.code(), Some(1), "{flag} {big} must exit 1");
        assert!(out.stdout.is_empty(), "{flag} {big} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag}: not a number: {big}")),
            "got: {stderr}"
        );
    }
    if usize::BITS == 64 {
        // Parsed, then refused because e1 takes no `--steps`: nothing runs.
        let out = spire_sim(&["e1", "--steps", &big]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("not --steps"), "got: {stderr}");
    }
}

/// `spire-sim e9 | head -0`: a reader that went away is an exit, not a
/// `failed printing to stdout` panic with a backtrace.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spire-sim"))
        .arg("e9")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spire-sim runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("spire-sim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "got: {stderr}");
    assert!(stderr.is_empty(), "nothing to report, got: {stderr}");
}
