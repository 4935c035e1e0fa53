//! Host-time benchmark of the ntier-repro simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig1_observed --seed 7 --seconds 20 --trace 0
//! ```
//!
//! A timed run (`--trace 0`) makes one warm-up pass of the workload, then
//! repeats passes, closed loop, for `--seconds` and prints the median of
//! each end-to-end metric. A traced run (`--trace 1`) alternates untraced
//! and traced passes for `--seconds`, then runs the observer toggles and
//! the standalone layer probes, prints every per-layer metric and writes
//! its spans to `perfbench/out/`. Every spec run's simulated output is
//! checked. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/README.md`
//! documents the workloads and metrics.

mod alloc;
mod check;
mod layers;
mod reference;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use check::{Reference, RunStats};
use ntier_core::experiment::FIG12_CONCURRENCIES;
use spans::Recorder;
use stats::{err_pct, fail_ratio, idle_frac, median};
use workloads::{Kind, Observers, Pass, Plan};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Repetitions of each observer toggle and standalone comparison run.
const TOGGLE_REPS: usize = 5;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: ntier-perfbench --workload <fig1_observed|trace_replay|fig12_sweep> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Cores this process may run on: what `nproc` reports.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checkout's commit, read from `.git` without running git.
fn git_rev() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The simulator workspace's version, from its root manifest.
fn sim_version() -> &'static str {
    let manifest = include_str!("../../Cargo.toml");
    manifest
        .split("[workspace.package]")
        .nth(1)
        .and_then(|s| s.lines().find_map(|l| l.strip_prefix("version = ")))
        .map_or("unknown", |v| v.trim_matches('"'))
}

/// The run manifest stamped on every output: which run made it, where.
fn manifest_json(args: &Args, plan: &Plan) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"mode\":\"{}\",\"run_seconds\":{},\"git_rev\":\"{}\",\
         \"host_cores\":{},\"runner_threads\":{},\"bench_version\":\"{}\",\"sim_version\":\"{}\"}}",
        plan.kind.name(),
        plan.seed,
        if args.trace { "traced" } else { "timed" },
        args.seconds,
        git_rev().unwrap_or_else(|| "unavailable".to_string()),
        host_cores(),
        plan.threads,
        env!("CARGO_PKG_VERSION"),
        sim_version()
    )
}

/// Every spec run's outcome, held against its first repetition.
#[derive(Debug, Default)]
struct Ledger {
    reference: Reference,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn record(&mut self, runs: &[Result<RunStats, String>]) {
        for problem in self.reference.check(runs) {
            self.attempted += 1;
            if let Some(p) = problem {
                self.failed += 1;
                self.errors.push(p);
            }
        }
    }

    /// A check that is not a spec run but still makes the output wrong.
    fn fail_check(&mut self, why: String) {
        self.errors.push(why);
    }

    fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The final line: one JSON object.
fn result_json(ledger: &Ledger, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        ledger.correct(),
        ledger.attempted,
        ledger.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_runs(runs: &[Result<RunStats, String>]) {
    for run in runs {
        match run {
            Ok(s) => println!("{}", s.line()),
            Err(e) => println!("sim FAILED {e}"),
        }
    }
}

/// Simulated-vs-paper throughput error over the first pass, in percent;
/// `None` for `trace_replay`, which has no paper reference.
fn sim_tput_err(kind: Kind, first: &[Result<RunStats, String>]) -> Option<f64> {
    let tput = |i: usize| {
        first
            .get(i)
            .and_then(|r| r.as_ref().ok())
            .map(|s| s.throughput)
    };
    match kind {
        Kind::Fig1Observed => Some(err_pct(tput(0)?, workloads::FIG1_PAPER_TPUT)),
        Kind::TraceReplay => None,
        Kind::Fig12Sweep => {
            // Grid index 2k is the sync arm of FIG12_CONCURRENCIES[k];
            // each seed contributes one grid.
            let grid = 2 * FIG12_CONCURRENCIES.len();
            let mut errs = Vec::new();
            for (c, paper) in workloads::FIG12_PAPER_TPUT {
                let k = FIG12_CONCURRENCIES.iter().position(|&x| x == c)?;
                let seeds = workloads::FIG12_SEEDS as usize;
                let mean = (0..seeds)
                    .map(|s| tput(s * grid + 2 * k))
                    .sum::<Option<f64>>()?
                    / seeds as f64;
                errs.push(err_pct(mean, paper));
            }
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }
}

/// The warm-up pass: it sets the reference outputs and is not timed.
fn warm_up(plan: &Plan, ledger: &mut Ledger) -> Pass {
    let pass = workloads::run_pass(plan, &mut Recorder::new(false));
    ledger.record(&pass.runs);
    print_runs(&pass.runs);
    pass
}

fn timed(plan: &Plan, seconds: u64, ledger: &mut Ledger) -> Vec<Metric> {
    let first = warm_up(plan, ledger);
    let mut rec = Recorder::new(false);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes = Vec::new();
    // One reference run before the first pass and one after every pass.
    let mut refs = vec![reference::seconds(plan.threads)];
    loop {
        let pass = workloads::run_pass(plan, &mut rec);
        ledger.record(&pass.runs);
        passes.push(pass);
        refs.push(reference::seconds(plan.threads));
        if Instant::now() >= deadline {
            break;
        }
    }
    let of = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let n = format!("median of {} passes", passes.len());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rel = reference::relative(&walls, &refs);
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let setup_rel = reference::relative(&setups, &refs);
    let listed = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("passes wall_s {}", listed(&walls));
    println!("passes reference_s {}", listed(&refs));
    // Host seconds for people; they drift with the host, so the gated
    // figures are the ones relative to the reference job.
    println!(
        "metric wall_s {} s ({n}, not gated: host drift)",
        median(&walls)
    );
    println!(
        "metric sim_req_per_s {} 1/s ({n}, not gated: host drift)",
        of(&|p| p.terminal() as f64 / p.wall_s)
    );
    println!(
        "metric setup_host_s {} s ({n}, not gated: host drift)",
        median(&setups)
    );
    println!(
        "metric reference_s {} s (median of {} reference runs on {} thread(s))",
        median(&refs),
        refs.len(),
        plan.threads
    );
    let m = vec![
        metric(
            "wall_ref",
            median(&rel),
            "ref",
            format!("{n}, pass time over the bracketing reference runs"),
        ),
        metric(
            "setup_s",
            median(&setup_rel) * reference::NOMINAL_S,
            "s",
            format!(
                "{n}, at the reference speed: set-up time over the bracketing \
                 reference runs, times {} s",
                reference::NOMINAL_S
            ),
        ),
        metric(
            "sim_req_per_ref",
            median(
                &passes
                    .iter()
                    .zip(&rel)
                    .map(|(p, r)| p.terminal() as f64 / r)
                    .collect::<Vec<_>>(),
            ),
            "1/ref",
            format!("{n}, {} terminal requests per pass", first.terminal()),
        ),
        metric("peak_heap_mib", of(&|p| p.peak_heap_mib), "MiB", n),
    ];
    println!(
        "metric fail_ratio {} ratio ({} of {} spec runs failed)",
        fail_ratio(ledger.failed, ledger.attempted),
        ledger.failed,
        ledger.attempted
    );
    match sim_tput_err(plan.kind, &first.runs) {
        Some(e) => {
            println!("metric sim_tput_err_pct {e:.4} % (simulated; against the paper's figure)")
        }
        None => {
            println!("metric sim_tput_err_pct unvalidated (no paper reference for this workload)")
        }
    }
    m
}

/// Seconds inside spans named `name` during pass `run`.
fn span_secs(rec: &Recorder, run: u32, name: &str) -> f64 {
    rec.spans()
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .fold(0.0, |acc, s| acc + s.busy_ns as f64 * 1e-9)
}

/// Runs each `(observers, shards)` variant of the representative spec
/// `TOGGLE_REPS` times, round-robin so host drift hits every variant alike.
/// Returns each variant's median seconds and last outcome.
fn toggles(
    plan: &Plan,
    variants: &[(Observers, usize)],
    ledger: &mut Ledger,
) -> Vec<(f64, Option<RunStats>)> {
    let mut secs = vec![Vec::new(); variants.len()];
    let mut last = vec![None; variants.len()];
    for _ in 0..TOGGLE_REPS {
        for (i, &(obs, shards)) in variants.iter().enumerate() {
            let (s, run) = workloads::run_representative(plan, obs, shards);
            ledger.record(std::slice::from_ref(&run));
            secs[i].push(s);
            last[i] = run.ok();
        }
    }
    secs.iter().zip(last).map(|(s, l)| (median(s), l)).collect()
}

fn traced(plan: &Plan, args: &Args, manifest: &str, ledger: &mut Ledger) -> Vec<Metric> {
    let kind = plan.kind;
    let first = warm_up(plan, ledger);
    let mut rec = Recorder::new(true);
    let mut untimed = Recorder::new(false);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced_passes) = (Vec::new(), Vec::new());
    let mut run = 0u32;
    loop {
        let pass = workloads::run_pass(plan, &mut untimed);
        ledger.record(&pass.runs);
        plain.push(pass.wall_s);
        run += 1;
        rec.set_run(run);
        let pass = workloads::run_pass(plan, &mut rec);
        ledger.record(&pass.runs);
        traced_passes.push((run, pass));
        if Instant::now() >= deadline {
            break;
        }
    }
    let runs: Vec<u32> = traced_passes.iter().map(|(r, _)| *r).collect();
    let over_runs =
        |f: &dyn Fn(u32) -> f64| median(&runs.iter().map(|&r| f(r)).collect::<Vec<_>>());
    let traced_wall = median(
        &traced_passes
            .iter()
            .map(|(_, p)| p.wall_s)
            .collect::<Vec<_>>(),
    );

    // Observer toggles on the representative spec; the metrics-on run also
    // gives the calendar and slab peaks.
    let trace_on = kind == Kind::Fig1Observed;
    let mut variants = vec![(Observers::Off, 1), (Observers::Metrics, 1)];
    if trace_on {
        variants.push((Observers::Tracing, 1));
    }
    if kind == Kind::TraceReplay {
        variants.push((Observers::Off, 2));
    }
    let t = toggles(plan, &variants, ledger);
    let (off_s, metrics_s) = (t[0].0, t[1].0);
    let (snapshots, calendar_peak, slab_peak) =
        t[1].1.as_ref().and_then(|s| s.metrics).unwrap_or_default();
    let trace_overhead = if trace_on { t[2].0 - off_s } else { 0.0 };
    let shard_speedup = if kind == Kind::TraceReplay {
        off_s / t[t.len() - 1].0
    } else {
        0.0
    };
    let trace_layer = if kind == Kind::TraceReplay {
        match layers::trace_layer(plan.seed) {
            Ok(t) => Some(t),
            Err(e) => {
                ledger.fail_check(e);
                None
            }
        }
    } else {
        None
    };
    let (serial_s, straggler_s, serial_engine_s) = if kind == Kind::Fig12Sweep {
        rec.set_run(0);
        let (serial, per_spec) = workloads::fig12_serial(plan, &mut rec);
        ledger.record(&serial.runs);
        let straggler = per_spec.iter().copied().fold(0.0, f64::max);
        (per_spec.iter().sum::<f64>(), straggler, serial.engine_run_s)
    } else {
        (0.0, 0.0, 0.0)
    };
    let queue_ns = layers::queue_ns_per_op(calendar_peak, plan.seed);
    let (sketch_ns, histogram_ns) = layers::record_ns(plan.seed);

    // Counts come from the warm-up pass; every later pass matched it.
    let ok: Vec<&RunStats> = first.runs.iter().flatten().collect();
    let sum = |f: &dyn Fn(&RunStats) -> u64| ok.iter().map(|s| f(s)).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&RunStats) -> f64| ok.iter().map(|s| f(s)).fold(0.0, f64::max);
    let events = sum(&|s| s.events);
    let engine_run_s = if kind == Kind::Fig12Sweep {
        serial_engine_s
    } else {
        median(
            &traced_passes
                .iter()
                .map(|(_, p)| p.engine_run_s)
                .collect::<Vec<_>>(),
        )
    };
    let (retained, evicted) = ok.iter().find_map(|s| s.trace).unwrap_or_default();
    let runner_wall = over_runs(&|r| span_secs(&rec, r, "runner.run_all"));
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let fig12 = kind == Kind::Fig12Sweep;

    let m = vec![
        metric("engine.run_s", engine_run_s, "s", "Engine::run per pass"),
        metric("engine.events", events, "count", "per pass"),
        metric("engine.events_per_s", events / engine_run_s, "1/s", ""),
        metric(
            "engine.ns_per_req",
            engine_run_s * 1e9 / first.terminal() as f64,
            "ns",
            "",
        ),
        metric(
            "engine.slab_peak",
            slab_peak as f64,
            "count",
            "representative spec",
        ),
        metric(
            "queue.peak_occupancy",
            calendar_peak as f64,
            "count",
            "representative spec",
        ),
        metric(
            "queue.ns_per_op",
            queue_ns,
            "ns",
            "standalone pop_run+push hold",
        ),
        metric(
            "shard.speedup_2",
            shard_speedup,
            "ratio",
            "run() / run_sharded(2)",
        ),
        metric(
            "workload.csv_rows_per_s",
            trace_layer.map_or(0.0, |t| t.rows_per_s),
            "1/s",
            "read_all",
        ),
        metric(
            "workload.csv_mb_per_s",
            trace_layer.map_or(0.0, |t| t.mb_per_s),
            "MB/s",
            "read_all",
        ),
        metric(
            "workload.pull_s",
            trace_layer.map_or(0.0, |t| t.pull_s),
            "s",
            "next_arrival drain",
        ),
        metric(
            "workload.arrivals_per_s",
            trace_layer.map_or(0.0, |t| t.arrivals_per_s),
            "1/s",
            "",
        ),
        metric(
            "workload.peak_active_tasks",
            trace_layer.map_or(0.0, |t| t.peak_active_tasks as f64),
            "count",
            "",
        ),
        metric("net.drops", sum(&|s| s.drops), "count", ""),
        metric("net.vlrt", sum(&|s| s.vlrt), "count", ""),
        metric("resilience.timeouts", sum(&|s| s.timeouts), "count", ""),
        metric("resilience.retries", sum(&|s| s.retries), "count", ""),
        metric(
            "resilience.breaker_transitions",
            sum(&|s| s.breaker_transitions),
            "count",
            "",
        ),
        metric("resilience.shed", sum(&|s| s.shed), "count", ""),
        metric(
            "resilience.goodput_ratio",
            sum(&|s| s.completed) / sum(&|s| s.injected),
            "ratio",
            "completed / injected",
        ),
        metric("server.util_max", max(&|s| s.util_max), "ratio", ""),
        metric(
            "server.peak_queue_max",
            max(&|s| s.peak_queue as f64),
            "count",
            "",
        ),
        metric("server.spawns", sum(&|s| s.spawns), "count", ""),
        metric(
            "telemetry.metrics_overhead_s",
            metrics_s - off_s,
            "s",
            "representative spec",
        ),
        metric(
            "telemetry.snapshots",
            snapshots as f64,
            "count",
            "representative spec",
        ),
        metric("telemetry.sketch_record_ns", sketch_ns, "ns", "standalone"),
        metric(
            "telemetry.histogram_record_ns",
            histogram_ns,
            "ns",
            "standalone",
        ),
        metric(
            "telemetry.quantile_violations",
            sum(&|s| s.quantile_violations),
            "count",
            "known defect when > 0: LatencyHistogram::quantile returns a bucket's upper \
             edge unclamped to the observed max (ROADMAP item 4)",
        ),
        metric(
            "trace.overhead_s",
            trace_overhead,
            "s",
            "representative spec",
        ),
        metric("trace.retained", retained as f64, "count", ""),
        metric("trace.evicted", evicted as f64, "count", ""),
        metric(
            "trace.rootcause_s",
            over_runs(&|r| span_secs(&rec, r, "trace.rootcause")),
            "s",
            "",
        ),
        metric(
            "trace.attribution_ratio",
            first.attribution_ratio.unwrap_or(0.0),
            "ratio",
            "chains / VLRT",
        ),
        metric(
            "trace.export_s",
            over_runs(&|r| span_secs(&rec, r, "trace.export")),
            "s",
            "",
        ),
        metric(
            "csv.render_s",
            over_runs(&|r| span_secs(&rec, r, "core.csv.render")),
            "s",
            "",
        ),
        metric("csv.bytes", first.csv_bytes as f64, "bytes", ""),
        metric(
            "analysis.detect_s",
            over_runs(&|r| span_secs(&rec, r, "core.analysis.detect")),
            "s",
            "",
        ),
        metric("runner.serial_s", serial_s, "s", "specs one at a time"),
        metric("runner.wall_s", runner_wall, "s", "run_all"),
        metric(
            "runner.speedup",
            only(fig12, serial_s / runner_wall),
            "ratio",
            "",
        ),
        metric(
            "runner.idle_frac",
            only(fig12, idle_frac(serial_s, plan.threads, runner_wall)),
            "ratio",
            "",
        ),
        metric("runner.straggler_s", straggler_s, "s", "longest spec"),
        metric(
            "bench.span_overhead",
            traced_wall - median(&plain),
            "s",
            format!("traced - untraced wall_s, median of {} pairs", plain.len()),
        ),
    ];

    // Self time per layer, median over the traced passes.
    let mut self_time: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &r in &runs {
        for (layer, secs) in spans::self_times(rec.spans(), r) {
            self_time.entry(layer).or_default().push(secs);
        }
    }
    let self_time: BTreeMap<&'static str, f64> = self_time
        .into_iter()
        .map(|(l, v)| (l, median(&v)))
        .collect();
    println!(
        "layers in the workload pass: {}",
        self_time.keys().copied().collect::<Vec<_>>().join(" ")
    );
    for (layer, secs) in &self_time {
        println!("self_time {layer} {secs:.6} s");
    }
    write_spans(plan, manifest, &self_time, &rec);
    m
}

fn write_spans(
    plan: &Plan,
    manifest: &str,
    self_time: &BTreeMap<&'static str, f64>,
    rec: &Recorder,
) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", plan.kind.name(), plan.seed));
    let self_json: Vec<String> = self_time
        .iter()
        .map(|(l, s)| format!("\"{l}\":{s:?}"))
        .collect();
    let body = format!(
        "{{\"manifest\":{manifest},\n\"self_time_s\":{{{}}},\n\"spans\":{}}}\n",
        self_json.join(","),
        spans::spans_json(rec.spans())
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!(
            "spans written to {} ({} spans)",
            path.display(),
            rec.spans().len()
        ),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let plan = Plan {
        kind: args.kind,
        seed: args.seed,
        threads: if args.kind == Kind::Fig12Sweep {
            host_cores()
        } else {
            1
        },
        smoke: false,
    };
    let manifest = manifest_json(&args, &plan);
    println!("manifest {manifest}");
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        traced(&plan, &args, &manifest, &mut ledger)
    } else {
        timed(&plan, args.seconds, &mut ledger)
    };
    for m in &metrics {
        println!("metric {} {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    for e in ledger.errors.iter().take(20) {
        println!("check FAILED {e}");
    }
    println!("{}", result_json(&ledger, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The metric names `BENCHMARK.json` declares under `section`.
    fn declared(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn smoke(kind: Kind) -> Plan {
        Plan {
            kind,
            seed: 11,
            threads: if kind == Kind::Fig12Sweep { 2 } else { 1 },
            smoke: true,
        }
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let argv: Vec<String> = "--workload trace_replay --seed 3 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).expect("valid arguments");
        assert_eq!(
            args,
            Args {
                kind: Kind::TraceReplay,
                seed: 3,
                seconds: 20,
                trace: true
            }
        );
        assert!(parse_args(&argv[..6]).is_err());
        let mut bad = argv.clone();
        bad[1] = "fig99".into();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let declared = declared("workloads");
        let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn timed_smoke_runs_check_every_repetition() {
        for kind in Kind::ALL {
            let mut ledger = Ledger::default();
            let metrics = timed(&smoke(kind), 0, &mut ledger);
            assert!(ledger.correct(), "{kind:?}: {:?}", ledger.errors);
            // The warm-up pass and at least one timed pass, every spec run.
            assert!(ledger.attempted >= 2, "{kind:?}");
            assert_eq!(ledger.failed, 0);
            assert_eq!(names(&metrics), declared("end_to_end"), "{kind:?}");
            assert!(metrics.iter().all(|m| m.value > 0.0), "{kind:?}");
        }
    }

    #[test]
    fn traced_smoke_reports_every_layer_metric() {
        for kind in Kind::ALL {
            let plan = smoke(kind);
            let args = Args {
                kind,
                seed: plan.seed,
                seconds: 0,
                trace: true,
            };
            let mut ledger = Ledger::default();
            let metrics = traced(&plan, &args, &manifest_json(&args, &plan), &mut ledger);
            assert!(ledger.correct(), "{kind:?}: {:?}", ledger.errors);
            assert_eq!(names(&metrics), declared("per_layer"), "{kind:?}");
            let value = |n: &str| {
                metrics
                    .iter()
                    .find(|m| m.name == n)
                    .expect("declared")
                    .value
            };
            // The bypass rows: the source layer runs only under the replay,
            // the runner only under the sweep.
            assert_eq!(value("workload.pull_s") > 0.0, kind == Kind::TraceReplay);
            assert_eq!(value("runner.wall_s") > 0.0, kind == Kind::Fig12Sweep);
            assert!(value("engine.events") > 0.0);
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let ledger = Ledger {
            attempted: 4,
            failed: 1,
            errors: vec!["x".into()],
            ..Ledger::default()
        };
        let line = result_json(&ledger, &[metric("wall_ref", 0.5, "ref", "")]);
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":4,\"failed\":1,\
             \"metrics\":{\"wall_ref\":{\"value\":0.5,\"unit\":\"ref\"}}}"
        );
    }
}
