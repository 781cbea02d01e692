//! `spire-sim` — run any of the reproduction's experiments from the
//! command line: `spire-sim <command> [flags]`.
//!
//! Run it with no arguments for the commands and the flags each one takes;
//! both lists are generated from `bench::registry`, where an experiment is
//! one row of `EXPERIMENTS`. This file only parses, looks the row up,
//! refuses a flag the row does not take, runs it, and writes what it
//! produced.

use std::io::{self, Write};
use std::process::ExitCode;

use bench::registry::{self, Experiment, Opts, EXPERIMENTS};

/// Writes `contents` to `path`. Returns false (and explains on stderr)
/// when the path cannot be written, so `main` can exit nonzero.
fn write_file(path: &str, contents: &str, what: &str) -> bool {
    let written = std::fs::write(path, contents);
    match &written {
        Ok(()) => eprintln!("{what} written to {path}"),
        Err(err) => eprintln!("failed to write {path}: {err}"),
    }
    written.is_ok()
}

/// Runs one experiment and emits everything it produced: the table, then
/// what `--metrics`, `--trace-export` and `--json` asked for. `Ok(false)`
/// means an output file could not be written.
fn run(row: &Experiment, opts: &Opts, out: &mut impl Write) -> io::Result<bool> {
    let output = (row.run)(opts);
    writeln!(out, "{}", output.text)?;
    let mut ok = true;
    if let Some(obs) = &output.obs {
        if opts.metrics {
            // One blank line between the table and the report.
            let gap = if output.text.ends_with('\n') {
                ""
            } else {
                "\n"
            };
            writeln!(out, "{gap}{}", obs.render())?;
        }
        if let Some(path) = &opts.trace_export {
            let trace = obs::trace::chrome_trace_json(&obs.journal);
            ok &= write_file(path, &trace, "trace (open in https://ui.perfetto.dev)");
        }
    }
    if let (Some(path), Some(json)) = (&opts.json, &output.json) {
        ok &= write_file(path, &json.render(), "json");
    }
    Ok(ok)
}

/// Picks the rows `command` names and checks `flags` against them: every
/// value parses, and a single experiment takes every flag given. The
/// options returned carry the flags every command takes.
fn select(command: &str, flags: &[String]) -> Result<(&'static [Experiment], Opts), String> {
    if let Some(row) = registry::find(command) {
        return Ok((std::slice::from_ref(row), row.opts(flags)?));
    }
    if command != "all" {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        return Err(format!(
            "unknown command: {command}\navailable commands: {} all",
            ids.join(" ")
        ));
    }
    let (opts, _) = registry::parse_flags(flags, |_| true)?;
    if opts.json.is_some() || opts.trace_export.is_some() {
        return Err("all takes neither --json nor --trace-export: \
                    each experiment would overwrite the one file"
            .to_string());
    }
    Ok((EXPERIMENTS, opts))
}

/// `Ok(false)` is a refusal or an unwritable output file, already
/// explained on stderr; `Err` is stdout going away.
fn spire_sim(args: &[String], out: &mut impl Write) -> io::Result<bool> {
    let Some((command, flags)) = args.split_first() else {
        eprint!("{}", registry::usage());
        return Ok(false);
    };
    // Refusals come before anything runs or any file is written.
    let (rows, global) = match select(command, flags) {
        Ok(selected) => selected,
        Err(why) => {
            eprintln!("{why}");
            return Ok(false);
        }
    };
    // Arm the profiler/flight recorder before any simulation runs; the
    // profiler never perturbs a run digest.
    obs::prof::set_enabled(global.prof.is_some());
    obs::prof::set_health_every(global.health_every);
    let mut ok = true;
    for row in rows {
        if rows.len() > 1 {
            writeln!(out, "\n===== {} =====\n", row.id)?;
        }
        // Each experiment is handed the flags it takes and no others.
        let (opts, _) = registry::parse_flags(flags, |flag| row.takes(flag)).expect("checked");
        ok &= run(row, &opts, out)?;
    }
    if let Some(path) = &global.prof {
        let profile = obs::prof::take();
        obs::prof::set_enabled(false);
        writeln!(out, "{}", obs::report::attribution_markdown(&profile, None))?;
        ok &= write_file(path, &profile.folded(), "folded stacks");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match spire_sim(&args, &mut io::stdout().lock()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        // The reader went away (`spire-sim e12 | head`): nothing to report.
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("failed to write to stdout: {err}");
            ExitCode::FAILURE
        }
    }
}
