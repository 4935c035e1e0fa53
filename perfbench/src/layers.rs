//! Standalone probes of layers whose cost per operation the workload
//! passes cannot isolate: the calendar queue, the two latency stores and
//! the cluster-trace reader and arrival stream.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use ntier_core::experiment::TRACE_REPLAY_FIXTURE;
use ntier_des::prelude::{EventQueue, SimDuration, SimRng, SimTime};
use ntier_telemetry::{LatencyHistogram, QuantileSketch};
use ntier_workload::cluster_trace::{ClusterTraceReader, TraceArrivals, TraceDialect};
use ntier_workload::source::ArrivalSource;

use crate::stats::median;

/// Hold operations (one `pop_run` and one `push`) timed per queue sample.
const QUEUE_HOLDS: u64 = 1_000_000;
/// Mean gap between an event and the one it schedules, µs.
const QUEUE_MEAN_GAP_US: u64 = 5_000;
/// Latency samples recorded per store sample.
const RECORDS: usize = 1_000_000;
/// Samples of each probe; the median is reported.
const SAMPLES: usize = 5;

/// Nanoseconds per hold operation on an `EventQueue` kept at `occupancy`
/// pending events, the gaps uniform on `[0, 2 × 5 ms)` (drawn up front,
/// so the loop times the queue alone).
pub fn queue_ns_per_op(occupancy: u64, seed: u64) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut rng = SimRng::seed_from(seed).fork("perfbench-queue");
            let mut gap = || SimDuration::from_micros(rng.below(2 * QUEUE_MEAN_GAP_US));
            let gaps: Vec<SimDuration> = (0..4_096).map(|_| gap()).collect();
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..occupancy.max(1) {
                q.push(SimTime::ZERO + gap(), i);
            }
            let mut batch = Vec::new();
            let start = Instant::now();
            let mut n = 0;
            while n < QUEUE_HOLDS {
                let (t, ev) = q.pop_run(&mut batch, 64).expect("the queue never drains");
                for ev in std::iter::once(ev).chain(batch.drain(..)) {
                    q.push(t + gaps[(n % 4_096) as usize], black_box(ev));
                    n += 1;
                }
            }
            start.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

fn latencies(seed: u64) -> Vec<SimDuration> {
    // Log-normal around 20 ms with a tail past the 12 s histogram range.
    let mut rng = SimRng::seed_from(seed).fork("perfbench-latencies");
    (0..RECORDS)
        .map(|_| SimDuration::from_secs_f64(0.02 * (1.5 * rng.next_standard_normal()).exp()))
        .collect()
}

/// Nanoseconds per `QuantileSketch::record` and per
/// `LatencyHistogram::record` over the same samples.
pub fn record_ns(seed: u64) -> (f64, f64) {
    let xs = latencies(seed);
    let per = |f: &mut dyn FnMut(&[SimDuration])| {
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                f(&xs);
                start.elapsed().as_nanos() as f64 / xs.len() as f64
            })
            .collect();
        median(&samples)
    };
    let sketch = per(&mut |xs| {
        let mut s = QuantileSketch::new();
        for &x in xs {
            s.record(black_box(x));
        }
        black_box(s.total());
    });
    let histogram = per(&mut |xs| {
        let mut h = LatencyHistogram::paper_default();
        for &x in xs {
            h.record(black_box(x));
        }
        black_box(h.total());
    });
    (sketch, histogram)
}

/// The cluster-trace layer on the bundled fixture.
#[derive(Debug, Clone, Copy)]
pub struct TraceLayer {
    /// Rows parsed per second by `read_all`.
    pub rows_per_s: f64,
    /// MB (10⁶ bytes) parsed per second by `read_all`.
    pub mb_per_s: f64,
    /// Seconds to drain every arrival through `next_arrival`.
    pub pull_s: f64,
    /// Arrivals per second of the drain.
    pub arrivals_per_s: f64,
    /// Most tasks mid-emission at once.
    pub peak_active_tasks: u64,
}

/// Times `ClusterTraceReader::read_all` and a full `next_arrival` drain of
/// `TraceArrivals` over the fixture.
///
/// # Errors
///
/// A parse error in the fixture.
pub fn trace_layer(seed: u64) -> Result<TraceLayer, String> {
    let reader =
        || ClusterTraceReader::new(Cursor::new(TRACE_REPLAY_FIXTURE), TraceDialect::Alibaba);
    let mut rows = 0;
    let mut parse = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        let tasks = reader().read_all().map_err(|e| e.to_string())?;
        parse.push(start.elapsed().as_secs_f64());
        rows = black_box(tasks).len();
    }
    let parse_s = median(&parse);
    let mut drains = Vec::new();
    let mut arrivals = 0u64;
    let mut peak = 0;
    for _ in 0..3 {
        let mut rng = SimRng::seed_from(seed).fork("arrival-source");
        let mut src = TraceArrivals::new(reader());
        let (mut n, mut active) = (0u64, 0usize);
        let start = Instant::now();
        while let Some(a) = src.next_arrival(&mut rng) {
            black_box(a);
            n += 1;
            active = active.max(src.active_tasks());
        }
        drains.push(start.elapsed().as_secs_f64());
        if let Some(fault) = src.fault() {
            return Err(format!("fixture drain faulted: {fault}"));
        }
        (arrivals, peak) = (n, active);
    }
    let pull_s = median(&drains);
    Ok(TraceLayer {
        rows_per_s: rows as f64 / parse_s,
        mb_per_s: TRACE_REPLAY_FIXTURE.len() as f64 / parse_s / 1e6,
        pull_s,
        arrivals_per_s: arrivals as f64 / pull_s,
        peak_active_tasks: peak as u64,
    })
}
