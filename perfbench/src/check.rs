//! The simulated-output check: what each spec run must report, and that
//! it reports the same thing on every repetition.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;

use ntier_core::RunReport;
use ntier_des::prelude::SimDuration;
use ntier_telemetry::LatencyHistogram;

/// The quantiles a run report prints.
const REPORTED_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// What one spec run simulated, reduced to the figures a speed-only
/// change must leave identical, plus the counts the layer metrics read.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Which spec or arm.
    pub label: String,
    /// Requests injected.
    pub injected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// Requests shed.
    pub shed: u64,
    /// Requests cancelled.
    pub cancelled: u64,
    /// Admission drops.
    pub drops: u64,
    /// Very-long-response-time requests.
    pub vlrt: u64,
    /// Events handled.
    pub events: u64,
    /// Hash of the report's full debug rendering.
    pub fingerprint: u64,
    /// Simulated throughput, req/s.
    pub throughput: f64,
    /// Reported quantiles outside `[min, max]` or out of order.
    pub quantile_violations: u64,
    /// Attempt timeouts.
    pub timeouts: u64,
    /// Retries.
    pub retries: u64,
    /// Circuit-breaker transitions.
    pub breaker_transitions: u64,
    /// Highest mean tier utilization.
    pub util_max: f64,
    /// Largest tier queue.
    pub peak_queue: u64,
    /// Process spawns.
    pub spawns: u64,
    /// Retained / evicted traces, when tracing was on.
    pub trace: Option<(u64, u64)>,
    /// Snapshots, peak calendar occupancy and peak slab slots, when the
    /// metrics plane was on.
    pub metrics: Option<(u64, u64, u64)>,
}

impl RunStats {
    /// Reduces `report`, or says why the run does not count.
    ///
    /// # Errors
    ///
    /// A workload fault or a report that does not conserve requests.
    pub fn from_report(label: String, report: &RunReport) -> Result<RunStats, String> {
        if let Some(fault) = &report.workload_fault {
            return Err(format!("{label}: workload fault: {fault}"));
        }
        if !report.is_conserved() {
            return Err(format!("{label}: not conserved: {}", report.summary()));
        }
        let mut violations = quantile_violations(&report.latency).len() as u64;
        if let Some(last) = report.metrics.as_ref().and_then(|m| m.snapshots().last()) {
            violations += sketch_violations(&report.latency, last.p50_us, last.p99_us);
        }
        Ok(RunStats {
            label,
            injected: report.injected,
            completed: report.completed,
            failed: report.failed,
            shed: report.shed,
            cancelled: report.cancelled,
            drops: report.drops_total,
            vlrt: report.vlrt_total,
            events: report.events,
            fingerprint: fingerprint(report),
            throughput: report.throughput,
            quantile_violations: violations,
            timeouts: report.resilience.timeouts,
            retries: report.resilience.retries,
            breaker_transitions: report.resilience.breaker_transitions,
            util_max: report.highest_mean_util(),
            peak_queue: report
                .tiers
                .iter()
                .map(|t| t.peak_queue as u64)
                .max()
                .unwrap_or(0),
            spawns: report.tiers.iter().map(|t| t.spawns).sum(),
            trace: report
                .trace
                .as_ref()
                .map(|l| (l.traces.len() as u64, l.evicted)),
            metrics: report.metrics.as_ref().map(|m| {
                let s = m.snapshots();
                (
                    s.len() as u64,
                    s.iter().map(|x| x.calendar_occupancy).max().unwrap_or(0),
                    s.iter().map(|x| x.slab_slots).max().unwrap_or(0),
                )
            }),
        })
    }

    /// Requests that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.completed + self.failed + self.shed + self.cancelled
    }

    /// The output-check line.
    pub fn line(&self) -> String {
        format!(
            "sim {} injected={} completed={} failed={} shed={} drops={} vlrt={} events={} \
             fingerprint={:016x} quantile_violations={}",
            self.label,
            self.injected,
            self.completed,
            self.failed,
            self.shed,
            self.drops,
            self.vlrt,
            self.events,
            self.fingerprint,
            self.quantile_violations
        )
    }
}

/// Feeds formatted text straight into a hasher, so fingerprinting a large
/// report allocates nothing.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Hash of the report's debug rendering: any change to any simulated
/// figure changes it.
pub fn fingerprint(report: &RunReport) -> u64 {
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{report:?}").expect("hashing cannot fail");
    w.0.finish()
}

/// The reported histogram quantiles that break `lower ≤ q ≤ max` or
/// monotonicity, as `(q, value)` pairs. `lower` is the start of the first
/// non-empty bucket, which no sample lies below.
pub fn quantile_violations(h: &LatencyHistogram) -> Vec<(f64, SimDuration)> {
    let Some(lower) = h.iter().find(|&(_, c)| c > 0).map(|(start, _)| start) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut prev = SimDuration::ZERO;
    for q in REPORTED_QUANTILES {
        let Some(v) = h.quantile(q) else { continue };
        if v > h.max() || v < lower || v < prev {
            out.push((q, v));
        }
        prev = prev.max(v);
    }
    out
}

/// Metrics-plane sketch quantiles (microseconds) that exceed the run's
/// exact maximum latency or come out of order.
fn sketch_violations(h: &LatencyHistogram, p50_us: u64, p99_us: u64) -> u64 {
    if h.total() == 0 {
        return 0;
    }
    let max = h.max().as_micros();
    u64::from(p50_us > max) + u64::from(p99_us > max) + u64::from(p99_us < p50_us)
}

/// First-repetition outputs by run label, against which every later run
/// with the same label is held.
#[derive(Debug, Default)]
pub struct Reference {
    first: BTreeMap<String, RunStats>,
}

impl Reference {
    /// Checks each run: a failed run, or one that differs from the first
    /// run with its label, yields the reason. A label seen for the first
    /// time sets the reference.
    pub fn check(&mut self, runs: &[Result<RunStats, String>]) -> Vec<Option<String>> {
        runs.iter()
            .map(|r| match r {
                Err(e) => Some(e.clone()),
                Ok(s) => match self.first.get(&s.label) {
                    None => {
                        self.first.insert(s.label.clone(), s.clone());
                        None
                    }
                    Some(f) if f == s => None,
                    Some(f) => Some(format!(
                        "{}: differs from the first repetition\n  first: {}\n  now:   {}",
                        s.label,
                        f.line(),
                        s.line()
                    )),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_above_max_is_a_violation() {
        // The trace_replay shape: p999 lands in a bucket whose upper edge
        // (9050 ms) lies above the largest sample (9010.5 ms).
        let mut h = LatencyHistogram::paper_default();
        for _ in 0..998 {
            h.record(SimDuration::from_millis(20));
        }
        h.record(SimDuration::from_millis(9_000));
        h.record(SimDuration::from_micros(9_010_500));
        let v = quantile_violations(&h);
        assert_eq!(v, vec![(0.999, SimDuration::from_millis(9_050))]);
    }

    #[test]
    fn quantiles_inside_range_and_ordered_pass() {
        // Every reported quantile lands in the first bucket (upper edge
        // 50 ms), below the 5 s maximum.
        let mut h = LatencyHistogram::paper_default();
        for _ in 0..2_000 {
            h.record(SimDuration::from_millis(20));
        }
        h.record(SimDuration::from_secs(5));
        assert!(quantile_violations(&h).is_empty());
        assert!(quantile_violations(&LatencyHistogram::paper_default()).is_empty());
    }

    #[test]
    fn sketch_quantiles_above_max_or_out_of_order_count() {
        let mut h = LatencyHistogram::paper_default();
        h.record(SimDuration::from_millis(5));
        assert_eq!(sketch_violations(&h, 4_000, 5_000), 0);
        assert_eq!(sketch_violations(&h, 4_000, 5_001), 1);
        assert_eq!(sketch_violations(&h, 6_000, 5_000), 2);
    }

    fn stats(label: &str, completed: u64) -> RunStats {
        RunStats {
            label: label.to_string(),
            injected: completed,
            completed,
            failed: 0,
            shed: 0,
            cancelled: 0,
            drops: 0,
            vlrt: 0,
            events: 10,
            fingerprint: completed,
            throughput: 1.0,
            quantile_violations: 0,
            timeouts: 0,
            retries: 0,
            breaker_transitions: 0,
            util_max: 0.5,
            peak_queue: 1,
            spawns: 0,
            trace: None,
            metrics: None,
        }
    }

    #[test]
    fn reference_flags_changed_and_failed_runs() {
        let mut r = Reference::default();
        let first = vec![Ok(stats("a", 5)), Ok(stats("b", 6))];
        assert_eq!(r.check(&first), vec![None, None]);
        assert_eq!(r.check(&first), vec![None, None]);
        let later = vec![
            Ok(stats("a", 5)),
            Ok(stats("b", 7)),
            Err("c: boom".into()),
            Ok(stats("d", 1)),
        ];
        let got = r.check(&later);
        assert!(got[0].is_none());
        assert!(got[1].as_deref().unwrap().contains("differs"));
        assert_eq!(got[2].as_deref(), Some("c: boom"));
        assert!(got[3].is_none(), "a new label sets its own reference");
        assert!(r.check(&[Ok(stats("d", 2))])[0].is_some());
    }
}
