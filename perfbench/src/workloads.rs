//! The three workloads and one pass of each.
//!
//! A pass builds its specs from the seed, calls `Engine::try_new` and
//! `Engine::run` (directly, or through `ntier_runner` for the sweep) and
//! does the post-run work the workload includes. Every call into a crate
//! sits inside a span, so the same code serves the timed passes (spans
//! off) and the traced ones.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntier_core::analysis;
use ntier_core::arrivals::{TraceDemandModel, TracePlans};
use ntier_core::experiment::{self as exp, ExperimentSpec, TraceReplayArm};
use ntier_core::{csv, Engine, RunReport, SystemConfig, Workload};
use ntier_des::prelude::{SimDuration, SimRng, SimTime};
use ntier_telemetry::MetricsConfig;
use ntier_trace::{chrome_trace_json, RootCause, TraceConfig};
use ntier_workload::cluster_trace::{ClusterTraceReader, TraceArrivals, TraceDialect};
use ntier_workload::source::ArrivalSource;

use crate::check::RunStats;
use crate::spans::Recorder;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 1(b): 7000 closed-loop RUBBoS clients with tracing, the
    /// metrics plane and report output on.
    Fig1Observed,
    /// Both arms of the one-hour streamed cluster-trace replay.
    TraceReplay,
    /// The 30-spec Fig. 12 grid through the parallel runner.
    Fig12Sweep,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Fig1Observed, Kind::TraceReplay, Kind::Fig12Sweep];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig1Observed => "fig1_observed",
            Kind::TraceReplay => "trace_replay",
            Kind::Fig12Sweep => "fig12_sweep",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// What to run: the workload, its seed, the runner threads and whether to
/// cut every horizon short (tests only).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Runner threads for the sweep.
    pub threads: usize,
    /// Tiny horizons, for the smoke tests.
    pub smoke: bool,
}

/// Which observers a spec runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    /// Neither request tracing nor the metrics plane.
    Off,
    /// The 1 s metrics plane only.
    Metrics,
    /// Request tracing only.
    Tracing,
    /// Both, as `fig1_observed` runs.
    Both,
}

impl Observers {
    fn apply(self, system: SystemConfig) -> SystemConfig {
        let system = match self {
            Observers::Metrics | Observers::Both => {
                system.with_metrics(MetricsConfig::paper_default())
            }
            _ => system,
        };
        match self {
            Observers::Tracing | Observers::Both => {
                system.with_trace(TraceConfig::sampled(0.01).with_ring_capacity(32_768))
            }
            _ => system,
        }
    }
}

/// Fig. 1(b)'s operating point and horizon.
pub const FIG1_CLIENTS: u32 = 7_000;
const FIG1_HORIZON_S: u64 = 120;
/// Fig. 1(b) throughput, req/s (as `crates/bench/benches/fig01_histogram.rs`).
pub const FIG1_PAPER_TPUT: f64 = 990.0;
/// Fig. 12 sync throughput at c=100 and c=1600, req/s (as
/// `crates/bench/benches/fig12_concurrency.rs`).
pub const FIG12_PAPER_TPUT: [(u32, f64); 2] = [(100, 1_159.0), (1_600, 374.0)];
/// Seeds per sweep: the grid runs for `seed`, `seed + 1`, `seed + 2`.
pub const FIG12_SEEDS: u64 = 3;

impl Plan {
    fn horizon(&self, full: SimDuration, smoke_s: u64) -> SimDuration {
        if self.smoke {
            SimDuration::from_secs(smoke_s)
        } else {
            full
        }
    }

    /// The `fig1_observed` spec with the given observers.
    pub fn fig1_spec(&self, obs: Observers) -> ExperimentSpec {
        let horizon = self.horizon(SimDuration::from_secs(FIG1_HORIZON_S), 20);
        let mut spec = exp::fig1(FIG1_CLIENTS, horizon, self.seed);
        spec.system = obs.apply(spec.system);
        spec
    }

    /// One `trace_replay` arm with the given observers.
    pub fn trace_spec(&self, arm: TraceReplayArm, obs: Observers) -> ExperimentSpec {
        let mut spec = exp::trace_replay(arm, self.seed);
        spec.horizon = self.horizon(spec.horizon, 60);
        spec.system = obs.apply(spec.system);
        spec
    }

    /// The sweep's specs: the Fig. 12 grid for three consecutive seeds.
    pub fn fig12_specs(&self) -> Vec<ExperimentSpec> {
        (0..FIG12_SEEDS)
            .flat_map(|i| exp::fig12_grid(self.seed.wrapping_add(i)))
            .map(|mut spec| {
                spec.horizon = self.horizon(spec.horizon, 2);
                spec
            })
            .collect()
    }

    /// The spec the observer toggles and layer peaks are measured on: the
    /// workload's own spec, the baseline replay arm, or the sweep's
    /// heaviest point (sync, c=1600).
    pub fn representative(&self, obs: Observers) -> ExperimentSpec {
        match self.kind {
            Kind::Fig1Observed => self.fig1_spec(obs),
            Kind::TraceReplay => self.trace_spec(TraceReplayArm::Baseline, obs),
            Kind::Fig12Sweep => {
                let mut spec = exp::fig12_sync(1_600, self.seed);
                spec.horizon = self.horizon(spec.horizon, 2);
                spec.system = obs.apply(spec.system);
                spec
            }
        }
    }
}

fn spec_label(spec: &ExperimentSpec, i: usize) -> String {
    format!("{}#{i}/seed{}", spec.name, spec.seed)
}

/// Runs `f`, turning a panic into its message.
fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Times every `next_arrival` call of the source it wraps.
#[derive(Debug, Clone, Default)]
struct PullTimer {
    calls: Arc<AtomicU64>,
    busy_ns: Arc<AtomicU64>,
}

struct TimedSource<S> {
    inner: S,
    timer: PullTimer,
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    type Payload = S::Payload;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, S::Payload)> {
        let t = Instant::now();
        let next = self.inner.next_arrival(rng);
        self.timer
            .busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.timer.calls.fetch_add(1, Relaxed);
        next
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

impl PullTimer {
    /// The bundled trace's streaming source, as `experiment::trace_replay`
    /// builds it, with every pull timed.
    fn trace_workload(&self) -> Workload {
        let reader = ClusterTraceReader::new(
            std::io::Cursor::new(exp::TRACE_REPLAY_FIXTURE),
            TraceDialect::Alibaba,
        );
        Workload::from_source(TimedSource {
            inner: TracePlans::new(
                TraceArrivals::new(reader),
                TraceDemandModel::paper_default(),
            ),
            timer: self.clone(),
        })
    }

    fn take(&self) -> (u64, Duration) {
        (
            self.calls.swap(0, Relaxed),
            Duration::from_nanos(self.busy_ns.swap(0, Relaxed)),
        )
    }
}

/// One pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds building specs and in `Engine::try_new`.
    pub setup_s: f64,
    /// Host seconds in `Engine::run` (zero for the sweep, whose engines
    /// run inside the runner).
    pub engine_run_s: f64,
    /// Peak live heap, MiB.
    pub peak_heap_mib: f64,
    /// Every spec run, in submission order.
    pub runs: Vec<Result<RunStats, String>>,
    /// Bytes of the rendered CSV bundle.
    pub csv_bytes: u64,
    /// Share of VLRT traces root-cause analysis attributed.
    pub attribution_ratio: Option<f64>,
}

impl Pass {
    /// Requests that reached a terminal state, over every run.
    pub fn terminal(&self) -> u64 {
        self.runs.iter().flatten().map(RunStats::terminal).sum()
    }
}

/// Builds an engine under a `core.engine.try_new` span and runs it under a
/// `core.engine.run` span, folding the pulls `pulls` timed into the run.
fn execute(
    rec: &mut Recorder,
    spec: ExperimentSpec,
    pulls: Option<&PullTimer>,
    pass: &mut Pass,
) -> Result<RunReport, String> {
    let (engine, t) = rec.span("core.engine.try_new", |_| {
        catch(|| Engine::try_new(spec.system, spec.workload, spec.horizon, spec.seed))
    });
    pass.setup_s += t;
    let engine = engine?.map_err(|e| e.to_string())?;
    let (report, t) = rec.span("core.engine.run", |rec| {
        let start = Instant::now();
        let report = catch(|| engine.run());
        if let Some(timer) = pulls {
            let (calls, busy) = timer.take();
            rec.aggregate("workload.next_arrival", start, calls, busy);
        }
        report
    });
    pass.engine_run_s += t;
    report
}

/// Runs one pass of `plan`'s workload.
pub fn run_pass(plan: &Plan, rec: &mut Recorder) -> Pass {
    let mut pass = Pass::default();
    crate::alloc::reset_peak();
    let ((), wall) = rec.span("bench.pass", |rec| match plan.kind {
        Kind::Fig1Observed => fig1_pass(plan, rec, &mut pass),
        Kind::TraceReplay => trace_pass(plan, rec, &mut pass),
        Kind::Fig12Sweep => fig12_pass(plan, rec, &mut pass),
    });
    pass.wall_s = wall;
    pass.peak_heap_mib = crate::alloc::peak_mib();
    pass
}

fn fig1_pass(plan: &Plan, rec: &mut Recorder, pass: &mut Pass) {
    let ((spec, system), t) = rec.span("core.experiment.build", |_| {
        let spec = plan.fig1_spec(Observers::Both);
        let system = spec.system.clone();
        (spec, system)
    });
    pass.setup_s += t;
    let label = format!("fig1/wl{FIG1_CLIENTS}/seed{}", plan.seed);
    let run = execute(rec, spec, None, pass).and_then(|report| {
        let log = report
            .trace
            .as_ref()
            .ok_or("fig1: tracing on but no trace log")?;
        let (analysis, _) = rec.span("trace.rootcause", |_| {
            RootCause::default().analyze(log, &report.trace_tier_data())
        });
        let names: Vec<String> = report.tiers.iter().map(|t| t.name.clone()).collect();
        let (json, _) = rec.span("trace.export", |_| chrome_trace_json(log, &names));
        let (bundle, _) = rec.span("core.csv.render", |_| csv::csv_bundle(&report));
        let (episodes, _) = rec.span("core.analysis.detect", |_| {
            analysis::detect(&report, &system, SimDuration::from_secs(1))
        });
        black_box((json, episodes));
        pass.csv_bytes += bundle
            .iter()
            .map(|(_, body)| body.len() as u64)
            .sum::<u64>();
        pass.attribution_ratio = Some(analysis.attribution_rate());
        RunStats::from_report(label, &report)
    });
    pass.runs.push(run);
}

fn trace_pass(plan: &Plan, rec: &mut Recorder, pass: &mut Pass) {
    for arm in [TraceReplayArm::Baseline, TraceReplayArm::Hardened] {
        let pulls = rec.is_on().then(PullTimer::default);
        let ((spec, system), t) = rec.span("core.experiment.build", |_| {
            let mut spec = plan.trace_spec(arm, Observers::Off);
            if let Some(timer) = &pulls {
                spec.workload = timer.trace_workload();
            }
            let system = spec.system.clone();
            (spec, system)
        });
        pass.setup_s += t;
        let label = format!("trace_replay/{}/seed{}", arm.label(), plan.seed);
        let run = execute(rec, spec, pulls.as_ref(), pass).and_then(|report| {
            let (episodes, _) = rec.span("core.analysis.detect", |_| {
                analysis::detect(&report, &system, SimDuration::from_secs(1))
            });
            black_box(episodes);
            RunStats::from_report(label, &report)
        });
        pass.runs.push(run);
    }
}

fn fig12_pass(plan: &Plan, rec: &mut Recorder, pass: &mut Pass) {
    let (specs, t) = rec.span("core.experiment.build", |_| plan.fig12_specs());
    pass.setup_s += t;
    let labels: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| spec_label(s, i))
        .collect();
    // The runner builds its engines on its worker threads, out of the
    // benchmark's reach, so `Engine::try_new` is timed on a second copy of
    // each spec.
    let mut setup_errors = Vec::with_capacity(specs.len());
    for spec in plan.fig12_specs() {
        let (engine, t) = rec.span("core.engine.try_new", |_| {
            catch(|| Engine::try_new(spec.system, spec.workload, spec.horizon, spec.seed))
        });
        pass.setup_s += t;
        setup_errors.push(match engine {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(e.to_string()),
            Err(e) => Some(e),
        });
    }
    let (reports, _) = rec.span("runner.run_all", |_| {
        catch(|| ntier_runner::try_run_all(specs, plan.threads))
            .and_then(|r| r.map_err(|e| e.to_string()))
    });
    pass.runs = match reports {
        Ok(reports) => reports
            .iter()
            .zip(labels)
            .zip(setup_errors)
            .map(|((r, label), err)| match err {
                Some(e) => Err(format!("{label}: {e}")),
                None => RunStats::from_report(label, r),
            })
            .collect(),
        Err(e) => labels.iter().map(|l| Err(format!("{l}: {e}"))).collect(),
    };
}

/// The sweep's specs run one at a time on this thread: per-spec times for
/// the runner's serial baseline and straggler, and engine spans the runner
/// hides. Returns each spec's `try_new` + `run` seconds with its outcome.
pub fn fig12_serial(plan: &Plan, rec: &mut Recorder) -> (Pass, Vec<f64>) {
    let mut pass = Pass::default();
    let mut per_spec = Vec::new();
    rec.span("bench.serial_rerun", |rec| {
        for (i, spec) in plan.fig12_specs().into_iter().enumerate() {
            let label = spec_label(&spec, i);
            let before = pass.setup_s + pass.engine_run_s;
            let run = execute(rec, spec, None, &mut pass)
                .and_then(|report| RunStats::from_report(label, &report));
            per_spec.push(pass.setup_s + pass.engine_run_s - before);
            pass.runs.push(run);
        }
    });
    (pass, per_spec)
}

/// Runs one spec of the workload with `obs`, untraced: host seconds for
/// `try_new` + `run`, and the outcome.
pub fn run_representative(
    plan: &Plan,
    obs: Observers,
    shards: usize,
) -> (f64, Result<RunStats, String>) {
    let spec = plan.representative(obs);
    let label = format!("{}/{obs:?}", spec.name);
    let start = Instant::now();
    let report = catch(|| {
        Engine::try_new(spec.system, spec.workload, spec.horizon, spec.seed)
            .map(|engine| engine.run_sharded(shards))
    })
    .and_then(|r| r.map_err(|e| e.to_string()));
    let secs = start.elapsed().as_secs_f64();
    let stats = match report {
        Ok(r) => RunStats::from_report(label, &r),
        Err(e) => Err(format!("{label}: {e}")),
    };
    (secs, stats)
}
