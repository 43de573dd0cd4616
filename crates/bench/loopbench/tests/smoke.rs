//! The benchmark's own tests, at smoke sizes: every metric is printed with
//! its unit, the gate passes on the real program, and it catches a
//! deliberately corrupted digest or counter.

use std::path::{Path, PathBuf};
use std::process::Command;

use cloudsim::ExecutionMode;
use loopbench::gate;
use loopbench::metrics::{END_TO_END, PER_LAYER};
use loopbench::run::{run, RunConfig, RunResult};
use loopbench::trace::Tracer;
use loopbench::workload::{setup, Accounting, Size, Workload};

fn smoke(workload: Workload, trace: bool) -> RunResult {
    run(&RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
    })
}

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn every_metric_is_printed_with_its_unit_and_the_gate_passes() {
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let output = Command::new(env!("CARGO_BIN_EXE_loopbench"))
                .args(["--workload", workload.name()])
                .args("--seed 3 --seconds 0 --smoke --trace".split_whitespace())
                .args([trace, "--out"])
                .arg(out_dir("cli"))
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{} trace={trace}:\n{stdout}",
                workload.name()
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
            let table = if trace == "1" { PER_LAYER } else { END_TO_END };
            for def in table {
                let entry = format!("\"{}\": {{\"value\": ", def.name);
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} missing: {last}", def.name));
                let unit = format!("\"unit\": \"{}\"}}", def.unit);
                assert!(
                    last[at..].contains(&unit),
                    "{} has unit {}",
                    def.name,
                    def.unit
                );
                assert!(stdout.contains(&format!("metric {}", def.name)));
            }
            assert_eq!(
                last.matches("\"value\": ").count(),
                table.len(),
                "no other metrics"
            );
            assert!(!last.contains("null"), "every value is finite: {last}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload mailfarm --seed x --seconds 1 --trace 0",
        "--workload mailfarm --seed 1 --seconds 1 --trace 2",
        "--workload mailfarm --seed 1 --trace 0",
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_loopbench"))
            .args(args.split_whitespace())
            .output()
            .expect("the benchmark runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn the_gate_passes_on_every_workload() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = smoke(workload, trace);
            let failed: Vec<_> = result.checks.iter().filter(|c| !c.passed).collect();
            assert!(failed.is_empty(), "{}: {failed:?}", workload.name());
            assert!(result.episodes.len() >= 2);
            assert_eq!(result.episodes.iter().any(|e| e.traced), trace);
        }
    }
}

#[test]
fn the_gate_catches_a_corrupted_digest() {
    let result = smoke(Workload::Interference, true);
    let failing = |episodes: &[loopbench::run::Episode], cross: &loopbench::run::Episode| {
        gate::evaluate(episodes, cross)
            .into_iter()
            .filter(|c| !c.passed)
            .map(|c| c.name)
            .collect::<Vec<_>>()
    };
    assert!(failing(&result.episodes, &result.cross_mode).is_empty());

    let mut episodes = result.episodes.clone();
    episodes[1].digest ^= 1;
    let names = failing(&episodes, &result.cross_mode);
    assert!(
        names.contains(&"digest_repeats_across_episodes".to_string()),
        "{names:?}"
    );
    assert!(
        names.contains(&"digest_traced_equals_untraced".to_string()),
        "{names:?}"
    );

    let mut cross = result.cross_mode.clone();
    cross.prefix_digest ^= 1 << 63;
    assert_eq!(
        failing(&result.episodes, &cross),
        ["digest_serial_equals_pooled".to_string()]
    );
}

#[test]
fn the_gate_catches_a_corrupted_counter() {
    let result = smoke(Workload::TenantChurn, false);
    let mut episodes = result.episodes.clone();
    *episodes[1]
        .counters
        .get_mut("controller.analyses")
        .expect("counted") += 1.0;
    let failed: Vec<String> = gate::evaluate(&episodes, &result.cross_mode)
        .into_iter()
        .filter(|c| !c.passed)
        .map(|c| c.name)
        .collect();
    assert_eq!(failed, ["counters_repeat_across_episodes".to_string()]);

    // Counters that disagree with the program's own stats fail the
    // end-state reconciliation.
    for workload in Workload::ALL {
        let size = Size::smoke(workload);
        let (mut state, _) = setup(workload, size, 5, ExecutionMode::Serial);
        let mut tracer = Tracer::new(false);
        let mut acc = Accounting::default();
        for _ in 0..size.epochs {
            let (reports, events) = state.step(&mut tracer);
            state.account(&reports, &events, &mut acc);
        }
        let clean = state.finish(&acc);
        assert!(clean.checks.iter().all(|c| c.passed), "{:?}", clean.checks);
        assert!(
            acc.analyzed > 0,
            "{} analyzes at smoke size",
            workload.name()
        );

        let mut tampered = acc.clone();
        tampered.analyzed += 1;
        let names: Vec<String> = state
            .finish(&tampered)
            .checks
            .into_iter()
            .filter(|c| !c.passed)
            .map(|c| c.name)
            .collect();
        assert_eq!(names, ["controller_analyses_match_events".to_string()]);

        let mut tampered = acc.clone();
        tampered.profiling_s *= 1.01;
        assert!(state.finish(&tampered).checks.iter().any(|c| !c.passed));
    }
}

/// Reproduces an open defect: with three pool lanes on a two-core host,
/// `EpochEngine::step` intermittently blocks forever (every thread parked
/// on a futex), typically within a few hundred smoke episodes.  Two lanes,
/// the pool `ExecutionMode::from_env()` builds on such a host and the one
/// the benchmark measures, ran over 200 000 steps without a stall.
#[test]
#[ignore = "fails: reproduces an open deadlock in pooled stepping"]
fn pooled_stepping_with_three_lanes_never_stalls() {
    let workload = Workload::Interference;
    let size = Size::smoke(workload);
    let (done, finished) = std::sync::mpsc::channel();
    // Not joined: when the defect strikes the thread never returns, and
    // the failing test ends the process.
    std::thread::spawn(move || {
        for _ in 0..400 {
            let mode = ExecutionMode::Pooled { threads: 3 };
            loopbench::run::run_episode(workload, size, 11, mode, false, size.epochs, 0);
            done.send(()).expect("the test is waiting");
        }
    });
    for episode in 0..400 {
        finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("episode {episode} stalled for 30 s"));
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_defined_here() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
    }
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\", ", def.name, def.unit);
        assert!(text.contains(&entry), "{entry}");
    }
    assert_eq!(
        text.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json defines no other metrics"
    );
}
