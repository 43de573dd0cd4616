//! Command-line entry point: see `README.md` beside `Cargo.toml`.
//!
//! ```text
//! loopbench --workload <mailfarm|tenant-churn|interference> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use loopbench::run::{json_number, run, summary_json, RunConfig, RunResult};
use loopbench::trace::to_json_lines;
use loopbench::workload::Workload;

const USAGE: &str = "usage: loopbench --workload <mailfarm|tenant-churn|interference> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]";

/// How far past `--seconds` a run may go before it counts as stalled.
const STALL_MARGIN: Duration = Duration::from_secs(120);

struct Args {
    config: RunConfig,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut smoke = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                let value = iter.next().ok_or(format!("{flag} needs a value"))?;
                values.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let get = |flag: &str| {
        values
            .get(flag)
            .copied()
            .ok_or(format!("{flag} is required"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a finite, non-negative number".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let out = values.get("--out").map_or_else(
        || PathBuf::from("crates/bench/loopbench/results"),
        PathBuf::from,
    );
    Ok(Args {
        config: RunConfig {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        },
        out,
    })
}

/// The commit when run inside a git checkout, else `none`.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// CPU time the hypervisor stole from this machine so far, summed over
/// CPUs (`/proc/stat`, in the kernel's 100 Hz ticks); 0 where unknown.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Digest of every source and manifest file under `crates/`: names the
/// code that was measured even where the checkout carries no git history.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().to_string();
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "results") {
                    walk(&path, files);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut digest = loopbench::gate::Digest::default();
    for file in &files {
        digest.text(&file.to_string_lossy());
        digest.text(&std::fs::read_to_string(file).unwrap_or_default());
    }
    format!("{:016x}", digest.value())
}

fn stamp(result: &RunResult) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("workload", result.config.workload.name().to_string()),
        ("seed", result.config.seed.to_string()),
        ("trace", u8::from(result.config.trace).to_string()),
        ("smoke", result.config.smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("lanes", result.episodes[0].lanes.to_string()),
        ("mode", format!("{:?}", result.modes.0)),
        ("cross_mode", format!("{:?}", result.modes.1)),
        ("profile", profile.to_string()),
        ("commit", commit()),
        ("source_digest", source_digest()),
        ("machines", result.size.machines.to_string()),
        ("epochs_per_episode", result.size.epochs.to_string()),
        ("episodes", result.episodes.len().to_string()),
        (
            "traced_episodes",
            result
                .episodes
                .iter()
                .filter(|e| e.traced)
                .count()
                .to_string(),
        ),
        ("cross_mode_epochs", result.prefix_epochs.to_string()),
        ("digest", format!("{:016x}", result.episodes[0].digest)),
    ]
}

fn results_json(result: &RunResult, stamp: &[(&str, String)]) -> String {
    let mut out = String::from("{\n  \"stamp\": {");
    for (i, (k, v)) in stamp.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{k}\": \"{v}\"");
    }
    out.push_str("\n  },\n  \"metrics\": {");
    for (i, m) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("\n  },\n  \"counters\": {");
    for (i, (name, value)) in result.episodes[0].counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{name}\": {}", json_number(*value));
    }
    out.push_str("\n  },\n  \"checks\": [");
    for (i, c) in result.checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}",
            c.name,
            c.passed,
            c.detail.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    let _ = write!(out, "\n  ],\n  \"correct\": {}\n}}\n", result.correct());
    out
}

fn write_results(result: &RunResult, stamp: &[(&str, String)], out: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let c = &result.config;
    let base = format!(
        "{}-seed{}-trace{}",
        c.workload.name(),
        c.seed,
        u8::from(c.trace)
    );
    std::fs::write(
        out.join(format!("{base}.json")),
        results_json(result, stamp),
    )?;
    if c.trace {
        std::fs::write(
            out.join(format!("{base}-spans.jsonl")),
            to_json_lines(result.reported_spans()),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loopbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pooled stepping can stall (see README.md); fail the run instead of
    // hanging past the time a run may take.
    let limit = Duration::from_secs_f64(args.config.seconds) + STALL_MARGIN;
    let (finished, watched) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = watched.recv_timeout(limit) {
            eprintln!("loopbench: the run stalled for {limit:?}; aborting");
            std::process::exit(4);
        }
    });
    let steal_before = steal_s();
    let result = run(&args.config);
    let steal = steal_s() - steal_before;
    drop(finished);
    watchdog
        .join()
        .expect("the watchdog only exits the process or returns");
    let mut stamp = stamp(&result);
    // Host time stolen from this machine's CPUs during the run: the usual
    // cause of a run that reads slower than its neighbours.
    stamp.push(("steal_s", format!("{steal:.2}")));
    println!(
        "# loopbench {}",
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (i, e) in result.episodes.iter().enumerate() {
        println!(
            "episode {i} traced={} setup_ms={:.3} loop_s={:.4} epochs={} digest={:016x}",
            e.traced,
            e.setup.total().as_secs_f64() * 1e3,
            e.loop_ns() as f64 / 1e9,
            e.epoch_ns.len(),
            e.digest
        );
    }
    for m in &result.metrics {
        println!(
            "metric {:<34} {:>16} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    for (name, value) in &result.episodes[0].counters {
        println!("counter {name:<33} {:>16}", json_number(*value));
    }
    for c in &result.checks {
        let verdict = if c.passed { "ok" } else { "FAIL" };
        println!("check {:<35} {verdict} ({})", c.name, c.detail);
    }
    if let Err(e) = write_results(&result, &stamp, &args.out) {
        eprintln!(
            "loopbench: could not write results to {}: {e}",
            args.out.display()
        );
        return ExitCode::from(3);
    }
    println!("{}", summary_json(&result));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("loopbench: the correctness gate failed");
        ExitCode::FAILURE
    }
}
