//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A span's name is `<layer>.<call>`; its layer is the name up to the last
//! dot. A layer's self time is the time inside its spans minus the time
//! their child spans cover. Many short calls (one `next_arrival` per
//! simulated request) fold into one aggregated span that carries their
//! call count and summed time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The workload pass this span belongs to.
    pub run: u32,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Calls folded into the span: 1 for an ordinary span.
    pub calls: u64,
    /// Time inside the calls: `end_ns − start_ns` for an ordinary span.
    pub busy_ns: u64,
}

impl Span {
    /// The layer the span's call belongs to.
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// `core.engine.run` → `core.engine`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Collects spans in memory when on; when off, [`Recorder::span`] only
/// times its closure.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    on: bool,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`on`) or only times calls.
    pub fn new(on: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            on,
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with workload-pass id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's length in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let start = Instant::now();
        if !self.on {
            let r = f(self);
            return (r, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            run: self.run,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.stack.push(id);
        let r = f(self);
        let end = Instant::now();
        self.stack.pop();
        let end_ns = self.ns(end);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - start_ns;
        (r, (end - start).as_secs_f64())
    }

    /// Records `calls` short calls that took `busy` in total between
    /// `start` and now, as one child of the open span.
    pub fn aggregate(&mut self, name: &'static str, start: Instant, calls: u64, busy: Duration) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(start);
        let end_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.stack.last().copied(),
            name,
            run: self.run,
            start_ns,
            end_ns,
            calls,
            busy_ns: busy.as_nanos() as u64,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Seconds of self time per layer over the spans of pass `run`.
pub fn self_times(spans: &[Span], run: u32) -> BTreeMap<&'static str, f64> {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_busy[p] += s.busy_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.run == run) {
        let own = s.busy_ns.saturating_sub(child_busy[s.id]);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"run\":{},\
             \"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
            s.id,
            s.name,
            s.layer(),
            s.run,
            s.start_ns,
            s.end_ns,
            s.calls,
            s.busy_ns
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, run: u32, busy_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            run,
            start_ns: 0,
            end_ns: busy_ns,
            calls: 1,
            busy_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_layer() {
        let spans = vec![
            span(0, None, "bench.pass", 1, 1_000),
            span(1, Some(0), "core.engine.try_new", 1, 100),
            span(2, Some(0), "core.engine.run", 1, 700),
            span(3, Some(2), "workload.next_arrival", 1, 250),
            span(4, None, "bench.pass", 2, 5_000),
        ];
        let t = self_times(&spans, 1);
        assert!((t["bench"] - 200e-9).abs() < 1e-15);
        assert!((t["core.engine"] - (100e-9 + 450e-9)).abs() < 1e-15);
        assert!((t["workload"] - 250e-9).abs() < 1e-15);
        assert_eq!(self_times(&spans, 2).len(), 1);
    }

    #[test]
    fn recorder_nests_spans_and_folds_aggregates() {
        let mut rec = Recorder::new(true);
        rec.set_run(3);
        let ((), _) = rec.span("bench.pass", |rec| {
            let start = Instant::now();
            let (x, secs) = rec.span("core.engine.run", |rec| {
                rec.aggregate("workload.next_arrival", start, 10, Duration::from_nanos(40));
                7
            });
            assert_eq!(x, 7);
            assert!(secs >= 0.0);
        });
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(1)));
        assert_eq!((s[2].calls, s[2].busy_ns, s[2].run), (10, 40, 3));
        assert_eq!(s[1].layer(), "core.engine");
        assert!(spans_json(s).contains("\"layer\":\"workload\""));
    }

    #[test]
    fn off_recorder_times_without_keeping_spans() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.span("bench.pass", |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
