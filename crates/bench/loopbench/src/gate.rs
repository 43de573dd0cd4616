//! The correctness gate: output digests and reconciliation checks.
//!
//! A run passes only when every check passes:
//!
//! * the datacenter audit is clean at the end of every episode;
//! * counters reconcile (sessions or VMs are conserved, the controller's
//!   stats equal the counts of its own events, reported VM-epochs equal
//!   the service's count);
//! * the digest of the simulated outputs is identical across the run's
//!   repeated episodes, traced and untraced alike, and across execution
//!   modes (serial vs pooled).

use cloudsim::VmEpochReport;
use deepdive::controller::EpochEvent;

use crate::run::Episode;
use crate::trace::LayerTotals;

/// One named check and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked, e.g. `sessions_conserved`.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The compared values, for the failure message.
    pub detail: String,
}

impl Check {
    /// Passes when `lhs == rhs` exactly.
    pub fn equal(name: &str, lhs: u64, rhs: u64) -> Self {
        Self {
            name: name.to_string(),
            passed: lhs == rhs,
            detail: format!("{lhs} vs {rhs}"),
        }
    }

    /// Passes when two accumulated floats agree to a relative 1e-9.
    pub fn close(name: &str, lhs: f64, rhs: f64) -> Self {
        let scale = lhs.abs().max(rhs.abs()).max(1e-12);
        Self {
            name: name.to_string(),
            passed: (lhs - rhs).abs() <= 1e-9 * scale,
            detail: format!("{lhs} vs {rhs}"),
        }
    }

    /// Passes when the audit returned no findings.
    pub fn audit(name: &str, findings: &[String]) -> Self {
        Self {
            name: name.to_string(),
            passed: findings.is_empty(),
            detail: findings.first().map_or_else(
                || "clean".to_string(),
                |f| format!("{} findings, first: {f}", findings.len()),
            ),
        }
    }
}

/// Order-sensitive 64-bit digest of the simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        // SplitMix64 finaliser on the word, then an FNV-style multiply, so
        // every input bit reaches every output bit.
        let mut z = w.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.0 = (self.0 ^ z).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a float in by its bits.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds in every simulated field of one epoch's reports.
    pub fn reports(&mut self, reports: &[VmEpochReport]) {
        self.word(reports.len() as u64);
        for r in reports {
            self.word(r.vm_id.0);
            self.word(r.pm_id.0);
            self.word(r.app.0);
            self.word(r.epoch);
            self.float(r.offered_load);
            self.float(r.achieved_fraction);
            let c = &r.counters;
            for x in [
                c.cpu_unhalted,
                c.inst_retired,
                c.l1d_repl,
                c.l2_ifetch,
                c.l2_lines_in,
                c.mem_load,
                c.resource_stalls,
                c.bus_tran_any,
                c.bus_trans_ifetch,
                c.bus_tran_brd,
                c.bus_req_out,
                c.br_miss_pred,
                c.disk_stall_seconds,
                c.net_stall_seconds,
            ] {
                self.float(x);
            }
            self.float(r.observation.throughput_rps);
            self.float(r.observation.latency_ms);
            self.float(r.observation.offered_rps);
        }
    }

    /// Folds in one epoch's controller events (their full debug form).
    pub fn events(&mut self, events: &[EpochEvent]) {
        self.word(events.len() as u64);
        for event in events {
            self.text(&format!("{event:?}"));
        }
    }

    /// Folds in a string, eight bytes at a time.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }
}

/// Checks that every episode of a run produced the same digest.
pub fn digests_agree(name: &str, digests: &[u64]) -> Check {
    let first = digests.first().copied().unwrap_or(0);
    Check {
        name: name.to_string(),
        passed: !digests.is_empty() && digests.iter().all(|&d| d == first),
        detail: digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(","),
    }
}

/// The run's gate: every episode's end-state checks (failures of later
/// episodes are added under their episode number), the digest and
/// counters repeating across episodes, traced equal to untraced, the
/// layer self times summing to the traced loop time, and the serial
/// digest equal to the pooled one over the cross-mode episode's epochs.
pub fn evaluate(episodes: &[Episode], cross_mode: &Episode) -> Vec<Check> {
    let mut checks: Vec<Check> = episodes.first().map_or_else(Vec::new, |e| e.checks.clone());
    for (i, e) in episodes.iter().enumerate().skip(1) {
        checks.extend(e.checks.iter().filter(|c| !c.passed).map(|c| Check {
            name: format!("{} (episode {i})", c.name),
            ..c.clone()
        }));
    }
    let digests: Vec<u64> = episodes.iter().map(|e| e.digest).collect();
    checks.push(digests_agree("digest_repeats_across_episodes", &digests));
    let counters_agree = episodes.iter().all(|e| e.counters == episodes[0].counters);
    checks.push(Check {
        name: "counters_repeat_across_episodes".to_string(),
        passed: counters_agree && !episodes.is_empty(),
        detail: format!("{} episodes", episodes.len()),
    });
    if episodes.iter().any(|e| e.traced) {
        let pick = |traced: bool| {
            episodes
                .iter()
                .find(|e| e.traced == traced)
                .map_or(0, |e| e.digest)
        };
        checks.push(digests_agree(
            "digest_traced_equals_untraced",
            &[pick(false), pick(true)],
        ));
        for e in episodes.iter().filter(|e| e.traced) {
            let totals = LayerTotals::from_spans(&e.spans);
            checks.push(Check::equal(
                "layer_self_times_sum_to_loop",
                totals.self_ns.values().sum(),
                totals.root_ns,
            ));
        }
    }
    let prefix = episodes.first().map_or(0, |e| e.prefix_digest);
    checks.push(digests_agree(
        "digest_serial_equals_pooled",
        &[prefix, cross_mode.prefix_digest],
    ));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_order_sensitive_and_catch_one_flipped_bit() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.float(0.5);
        let mut d = Digest::default();
        d.word(0.5f64.to_bits() ^ 1);
        assert_ne!(c, d);
    }

    #[test]
    fn checks_compare_exactly_or_within_rounding() {
        assert!(Check::equal("x", 3, 3).passed);
        assert!(!Check::equal("x", 3, 4).passed);
        assert!(Check::close("y", 0.1 + 0.2, 0.3).passed);
        assert!(!Check::close("y", 1.0, 1.001).passed);
        assert!(Check::audit("a", &[]).passed);
        assert!(!Check::audit("a", &["pm-1 overcommitted".to_string()]).passed);
        assert!(digests_agree("d", &[5, 5, 5]).passed);
        assert!(!digests_agree("d", &[5, 6]).passed);
        assert!(!digests_agree("d", &[]).passed);
    }
}
