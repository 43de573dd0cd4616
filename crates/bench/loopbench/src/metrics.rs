//! Metric definitions and how each is computed from a run's episodes.
//!
//! End-to-end metrics come from untraced episodes; per-layer metrics from
//! traced ones.  Host times are read over the run's repeated episodes, so
//! a host stall in one episode cannot move a result; simulated counters
//! repeat exactly across episodes (the gate checks it) and are read from
//! the first.

use crate::run::Episode;
use crate::trace::{durations_of, LayerTotals, ROOT};
use crate::workload::SetupTimes;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of the untraced run, reported for every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("epochs_per_s", "1/s"),
    def("vm_epochs_per_s", "1/s"),
    def("epoch_ms_p50", "ms"),
    def("epoch_ms_p99", "ms"),
    def("peak_rss_mb", "MB"),
    def("profiling_s_per_kvm_epoch", "s"),
    def("ops_ok_pct", "%"),
];

/// Metrics of the traced run, reported for every workload (0 where a
/// layer does not run).
pub const PER_LAYER: &[MetricDef] = &[
    def("traces.generate_ms", "ms"),
    def("service.new_ms", "ms"),
    def("cluster.new_ms", "ms"),
    def("controller.new_ms", "ms"),
    def("controller.process_ms_p50", "ms"),
    def("controller.process_ms_p99", "ms"),
    def("controller.busy_share", "share"),
    def("controller.sweep_epoch_ms", "ms"),
    def("controller.analysis_epoch_ms", "ms"),
    def("controller.self_ms", "ms"),
    def("controller.peer_pairs", "count"),
    def("controller.apps_reporting", "count"),
    def("controller.analyses", "count"),
    def("controller.confirm_pct", "%"),
    def("controller.migrations", "count"),
    def("controller.migration_skips", "count"),
    def("controller.deferred", "count"),
    def("controller.degraded", "count"),
    def("controller.migration_retries", "count"),
    def("controller.episodes", "count"),
    def("controller.detection_pct", "%"),
    def("controller.false_alarm_pct", "%"),
    def("service.step_ms_p50", "ms"),
    def("service.step_ms_p99", "ms"),
    def("service.busy_share", "share"),
    def("service.self_ms", "ms"),
    def("service.evacuations", "count"),
    def("service.drain_migrations", "count"),
    def("service.retries", "count"),
    def("service.retry_success_pct", "%"),
    def("service.abandonments", "count"),
    def("engine.resolved_machine_epochs", "count"),
    def("engine.quiescent_machine_epochs", "count"),
    def("engine.quiescent_share", "share"),
    def("engine.step_ms_p50", "ms"),
    def("engine.self_ms", "ms"),
    def("cluster.self_ms", "ms"),
    def("loop.traced_ms", "ms"),
    def("loop.other_ms", "ms"),
    def("loop.trace_overhead_pct", "%"),
];

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`; 0 if empty.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn ns_to_ms(ns: impl IntoIterator<Item = u64>) -> Vec<f64> {
    ns.into_iter().map(|ns| ns as f64 / 1e6).collect()
}

/// Median over episodes of a per-episode value.
fn median_of<'a>(episodes: impl Iterator<Item = &'a Episode>, f: impl Fn(&Episode) -> f64) -> f64 {
    let mut values: Vec<f64> = episodes.map(f).collect();
    median(&mut values)
}

/// Per epoch index, the lower quartile (nearest rank) of its host time
/// over `episodes`, in ms.
///
/// Every episode repeats the same computation, and host interference
/// (steal, cache pollution by neighbours) only ever adds time.  A low
/// quantile therefore tracks the epoch's own cost; it is the lower quartile
/// rather than the minimum, so that one lucky episode does not set it.
pub fn epoch_profile_ms<'a>(episodes: impl Iterator<Item = &'a Episode>) -> Vec<f64> {
    let episodes: Vec<&Episode> = episodes.collect();
    let epochs = episodes.iter().map(|e| e.epoch_ns.len()).min().unwrap_or(0);
    (0..epochs)
        .map(|k| {
            let mut ms: Vec<f64> = episodes
                .iter()
                .map(|e| e.epoch_ns[k] as f64 / 1e6)
                .collect();
            percentile(&mut ms, 0.25)
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(table: &[MetricDef], name: &'static str, value: f64) -> Metric {
    let def = table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is a defined metric"));
    Metric {
        name: def.name,
        unit: def.unit,
        value,
    }
}

fn counter(episode: &Episode, name: &str) -> f64 {
    episode.counters.get(name).copied().unwrap_or(0.0)
}

/// The end-to-end metrics, from the untraced episodes and every set-up.
pub fn end_to_end(episodes: &[Episode], setups: &[SetupTimes]) -> Vec<Metric> {
    let untraced = || episodes.iter().filter(|e| !e.traced);
    let first = &episodes[0];
    let (attempted, failed) = first.ops;
    let ok_pct = if attempted == 0 {
        100.0
    } else {
        100.0 * (attempted - failed) as f64 / attempted as f64
    };
    // Every episode repeats the same epochs, so each epoch's time is read
    // over the run's untraced episodes: a host stall in one episode does
    // not move the run's result.
    let mut epoch_ms = epoch_profile_ms(untraced());
    let loop_s = epoch_ms.iter().sum::<f64>() / 1e3;
    let values = [
        (
            "setup_s",
            median(
                &mut setups
                    .iter()
                    .map(|s| s.total().as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
        ),
        ("epochs_per_s", epoch_ms.len() as f64 / loop_s),
        ("vm_epochs_per_s", first.vm_epochs as f64 / loop_s),
        ("epoch_ms_p50", percentile(&mut epoch_ms.clone(), 0.5)),
        ("epoch_ms_p99", percentile(&mut epoch_ms, 0.99)),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "profiling_s_per_kvm_epoch",
            counter(first, "controller.profiling_s") / (first.vm_epochs.max(1) as f64 / 1000.0),
        ),
        ("ops_ok_pct", ok_pct),
    ];
    values
        .into_iter()
        .map(|(name, value)| metric(END_TO_END, name, value))
        .collect()
}

/// The traced episode with the median traced loop time.
pub fn median_traced(episodes: &[Episode]) -> Option<&Episode> {
    let mut traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    traced.sort_by_key(|e| LayerTotals::from_spans(&e.spans).root_ns);
    traced.get(traced.len().saturating_sub(1) / 2).copied()
}

/// The per-layer metrics, from the traced episodes and every set-up.
pub fn per_layer(episodes: &[Episode], setups: &[SetupTimes]) -> Vec<Metric> {
    let traced = || episodes.iter().filter(|e| e.traced);
    let reported = median_traced(episodes).expect("a traced run has a traced episode");
    let totals = LayerTotals::from_spans(&reported.spans);
    let share = |name: &str| {
        totals.total_ns.get(name).copied().unwrap_or(0) as f64 / totals.root_ns.max(1) as f64
    };
    let self_ms = |name: &str| totals.self_of(name) as f64 / 1e6;
    let span_quantile = |name: &'static str, q: f64| {
        median_of(traced(), move |e| {
            percentile(&mut ns_to_ms(durations_of(&e.spans, name)), q)
        })
    };
    // Controller time on epochs with and without an analysis.
    let controller_when = |analysis: bool| {
        median_of(traced(), move |e| {
            let mut ms: Vec<f64> = durations_of(&e.spans, "controller.process_epoch")
                .into_iter()
                .zip(&e.analysis_epochs)
                .filter(|&(_, &a)| a == analysis)
                .map(|(ns, _)| ns as f64 / 1e6)
                .collect();
            median(&mut ms)
        })
    };
    let loop_median = |traced: bool| {
        median_of(episodes.iter().filter(|e| e.traced == traced), |e| {
            e.loop_ns() as f64
        })
    };
    let untraced_loop = loop_median(false);
    let overhead = if untraced_loop > 0.0 {
        100.0 * (loop_median(true) / untraced_loop - 1.0)
    } else {
        0.0
    };
    let setup_ms = |f: fn(&SetupTimes) -> std::time::Duration| {
        median(
            &mut setups
                .iter()
                .map(|s| f(s).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let first = &episodes[0];
    PER_LAYER
        .iter()
        .map(|d| {
            let value = match d.name {
                "traces.generate_ms" => setup_ms(|s| s.generate),
                "service.new_ms" => setup_ms(|s| s.service_new),
                "cluster.new_ms" => setup_ms(|s| s.cluster_new),
                "controller.new_ms" => setup_ms(|s| s.controller_new),
                "controller.process_ms_p50" => span_quantile("controller.process_epoch", 0.5),
                "controller.process_ms_p99" => span_quantile("controller.process_epoch", 0.99),
                "controller.busy_share" => share("controller.process_epoch"),
                "controller.sweep_epoch_ms" => controller_when(false),
                "controller.analysis_epoch_ms" => controller_when(true),
                "controller.self_ms" => self_ms("controller.process_epoch"),
                "service.step_ms_p50" => span_quantile("service.step_epoch", 0.5),
                "service.step_ms_p99" => span_quantile("service.step_epoch", 0.99),
                "service.busy_share" => share("service.step_epoch"),
                "service.self_ms" => self_ms("service.step_epoch"),
                "engine.step_ms_p50" => span_quantile("engine.step", 0.5),
                "engine.self_ms" => self_ms("engine.step"),
                "cluster.self_ms" => self_ms("cluster.churn"),
                "loop.traced_ms" => totals.root_ns as f64 / 1e6,
                "loop.other_ms" => self_ms(ROOT),
                "loop.trace_overhead_pct" => overhead,
                name => counter(first, name),
            };
            Metric {
                name: d.name,
                unit: d.unit,
                value,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut hundred, 0.99), 99.0);
        assert_eq!(percentile(&mut hundred, 0.5), 50.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are used once");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
