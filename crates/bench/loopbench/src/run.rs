//! One benchmark run: repeated episodes, a cross-mode check, the metrics
//! and the result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cloudsim::ExecutionMode;

use crate::gate::{self, Check};
use crate::metrics::{self, Metric};
use crate::trace::{Span, Tracer, ROOT};
use crate::workload::{setup, Loop, SetupTimes, Size, Workload};

/// Set-ups timed per run, at least.
pub const SETUP_SAMPLES: usize = 15;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds to keep starting episodes for.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, for smoke runs and tests.
    pub smoke: bool,
}

/// One episode: set-up, the timed closed loop, and its end state.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host time of each set-up step.
    pub setup: SetupTimes,
    /// Host time of each closed-loop epoch.
    pub epoch_ns: Vec<u64>,
    /// Recorded spans (traced episodes only).
    pub spans: Vec<Span>,
    /// Per epoch: did the controller analyze?
    pub analysis_epochs: Vec<bool>,
    /// Digest of every report and event.
    pub digest: u64,
    /// Digest after the first `prefix_epochs` epochs.
    pub prefix_digest: u64,
    /// Reports seen.
    pub vm_epochs: u64,
    /// Simulated counters by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub ops: (u64, u64),
    /// End-state checks.
    pub checks: Vec<Check>,
    /// Pool lanes used.
    pub lanes: usize,
}

impl Episode {
    /// Host time of the closed loop.
    pub fn loop_ns(&self) -> u64 {
        self.epoch_ns.iter().sum()
    }
}

/// Runs one episode of `size`, stopping after `epochs` epochs (a
/// cross-mode episode stops early; its inputs are the full episode's).
pub fn run_episode(
    workload: Workload,
    size: Size,
    seed: u64,
    mode: ExecutionMode,
    traced: bool,
    epochs: u64,
    prefix_epochs: u64,
) -> Episode {
    let (mut state, setup_times): (Loop, SetupTimes) = setup(workload, size, seed, mode);
    let mut tracer = Tracer::new(traced);
    let mut acc = crate::workload::Accounting::default();
    let mut epoch_ns = Vec::with_capacity(epochs as usize);
    let mut prefix_digest = acc.digest.value();
    for epoch in 0..epochs {
        tracer.set_epoch(epoch);
        let start = Instant::now();
        tracer.begin(ROOT);
        let (reports, events) = state.step(&mut tracer);
        tracer.end();
        let elapsed = start.elapsed();
        epoch_ns
            .push(u64::try_from(elapsed.as_nanos()).expect("an epoch is shorter than 584 years"));
        state.account(&reports, &events, &mut acc);
        if epoch + 1 == prefix_epochs {
            prefix_digest = acc.digest.value();
        }
    }
    let outcome = state.finish(&acc);
    let lanes = state.lanes();
    drop(state);
    Episode {
        traced,
        setup: setup_times,
        epoch_ns,
        spans: tracer.into_spans(),
        analysis_epochs: acc.analysis_epochs,
        digest: acc.digest.value(),
        prefix_digest,
        vm_epochs: acc.vm_epochs,
        counters: outcome.counters.into_iter().collect(),
        ops: (outcome.ops_attempted, outcome.ops_failed),
        checks: outcome.checks,
        lanes,
    }
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration.
    pub config: RunConfig,
    /// Episode size.
    pub size: Size,
    /// The timed episodes, in run order.
    pub episodes: Vec<Episode>,
    /// The cross-mode episode (same seed, the other execution mode, first
    /// `prefix_epochs` epochs).
    pub cross_mode: Episode,
    /// Execution modes of the timed and the cross-mode episodes.
    pub modes: (ExecutionMode, ExecutionMode),
    /// Epochs the cross-mode episode ran.
    pub prefix_epochs: u64,
    /// The gate's checks.
    pub checks: Vec<Check>,
    /// The metrics this run reports (end-to-end, or per-layer if traced).
    pub metrics: Vec<Metric>,
    /// Closed-loop epochs run, all episodes included.
    pub attempted: u64,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Spans of the traced episode the per-layer metrics were read from.
    pub fn reported_spans(&self) -> &[Span] {
        metrics::median_traced(&self.episodes).map_or(&[], |e| &e.spans)
    }
}

/// Runs episodes for `seconds`, then the cross-mode episode, extra
/// set-ups, and the gate.  A traced run alternates untraced and traced
/// episodes.
pub fn run(config: &RunConfig) -> RunResult {
    let size = if config.smoke {
        Size::smoke(config.workload)
    } else {
        Size::full(config.workload)
    };
    let mode = ExecutionMode::from_env();
    let other = match mode {
        ExecutionMode::Serial => ExecutionMode::Pooled { threads: 2 },
        _ => ExecutionMode::Serial,
    };
    let prefix_epochs = if config.smoke {
        size.epochs
    } else {
        size.epochs / 4
    };
    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    let mut episodes = Vec::new();
    let mut longest = Duration::ZERO;
    // Start another episode only while it should end within the budget.
    // An untraced run needs repeats to read each epoch's time over; a
    // traced run needs one untraced and one traced episode.
    let min_episodes = if config.trace { 2 } else { 3 };
    while episodes.len() < min_episodes || start.elapsed() + longest <= budget {
        let began = Instant::now();
        let traced = config.trace && episodes.len() % 2 == 1;
        episodes.push(run_episode(
            config.workload,
            size,
            config.seed,
            mode,
            traced,
            size.epochs,
            prefix_epochs,
        ));
        longest = longest.max(began.elapsed());
    }
    let cross_mode = run_episode(
        config.workload,
        size,
        config.seed,
        other,
        false,
        prefix_epochs,
        prefix_epochs,
    );

    let checks = gate::evaluate(&episodes, &cross_mode);
    // Set-up takes milliseconds; time it more often than there are
    // episodes so its median is steady.
    let mut setups: Vec<SetupTimes> = episodes.iter().map(|e| e.setup).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup(config.workload, size, config.seed, mode).1);
    }
    let metrics = if config.trace {
        metrics::per_layer(&episodes, &setups)
    } else {
        metrics::end_to_end(&episodes, &setups)
    };
    let attempted = episodes
        .iter()
        .map(|e| e.epoch_ns.len() as u64)
        .sum::<u64>()
        + cross_mode.epoch_ns.len() as u64;
    RunResult {
        config: config.clone(),
        size,
        episodes,
        cross_mode,
        modes: (mode, other),
        prefix_epochs,
        checks,
        metrics,
        attempted,
    }
}

/// The last line of the output: `correct`, `attempted`, `failed` and the
/// metrics, as one JSON object.  A closed-loop epoch is the operation; it
/// fails when a check of its run fails.
pub fn summary_json(result: &RunResult) -> String {
    let failed = if result.correct() {
        0
    } else {
        result.attempted
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct(),
        result.attempted,
        failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite number in its shortest round-tripping form.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}
