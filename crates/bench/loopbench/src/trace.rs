//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around each call
//! into a layer of the system (`service.step_epoch`, `engine.step`,
//! `controller.process_epoch`, the interference workload's
//! `Cluster::{place_on, remove_vm}` churn), under one `loop.epoch` root
//! span per closed-loop epoch.  They are held in memory and written out
//! when the run ends.  A disabled tracer records nothing and reads the
//! clock only once, when it is built.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the per-epoch root span; its self time is `loop.other_ms`.
pub const ROOT: &str = "loop.epoch";

/// One recorded span.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `controller.process_epoch`.
    pub name: &'static str,
    /// Simulated epoch the span belongs to (the trace's request id).
    pub epoch: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    epoch: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            epoch: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the epoch stamped on spans opened from now on.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            epoch: self.epoch,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("end() matches a begin()");
        self.spans[index].end_ns = end_ns;
    }

    /// Takes the recorded spans out of the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Per-layer totals over a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Sum of self time (duration minus direct children) per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Sum of full duration per span name.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Sum of root-span durations: the traced loop time.
    pub root_ns: u64,
}

impl LayerTotals {
    /// Aggregates self time and total time per span name.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.duration_ns();
            }
        }
        let mut totals = Self::default();
        for (span, children) in spans.iter().zip(children_ns) {
            let duration = span.duration_ns();
            *totals.self_ns.entry(span.name).or_default() += duration - children;
            *totals.total_ns.entry(span.name).or_default() += duration;
            if span.parent.is_none() {
                totals.root_ns += duration;
            }
        }
        totals
    }

    /// Self time of one span name, 0 when it was never recorded.
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

/// Per-name durations of every span, in opening order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Serialises spans as JSON lines: `{"name", "epoch", "start_ns",
/// "end_ns", "parent"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"epoch\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            span.name, span.epoch, span.start_ns, span.end_ns, parent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            epoch: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_time() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("service.step_epoch", 10, 50, Some(0)),
            span("controller.process_epoch", 55, 95, Some(0)),
            span(ROOT, 100, 130, None),
            span("service.step_epoch", 100, 120, Some(3)),
        ];
        let totals = LayerTotals::from_spans(&spans);
        assert_eq!(totals.root_ns, 130);
        assert_eq!(totals.self_of(ROOT), 20 + 10);
        assert_eq!(totals.self_of("service.step_epoch"), 60);
        assert_eq!(totals.self_of("controller.process_epoch"), 40);
        assert_eq!(totals.self_ns.values().sum::<u64>(), totals.root_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.begin(ROOT);
        tracer.end();
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tracer = Tracer::new(true);
        tracer.set_epoch(7);
        tracer.begin(ROOT);
        tracer.begin("engine.step");
        tracer.end();
        tracer.end();
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].epoch, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let lines = to_json_lines(&spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":null"));
        assert!(lines.contains("\"name\":\"engine.step\",\"epoch\":7"));
    }
}
