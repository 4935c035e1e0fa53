//! Heap allocations per request on the closed-loop mix paths.
//!
//! Every closed-loop request draws a mix sample and compiles it into a
//! plan. That path writes the draw straight into one flat plan buffer, so
//! steady state costs one heap allocation per request (the plan's shared
//! buffer). This binary installs a counting global allocator and counts
//! the allocations made inside `Engine::run` for the Fig. 12 arms at
//! c=1600 (ViewStory) and Fig. 1 at 7000 clients (the RUBBoS browse mix).
//!
//! Each workload runs at two horizons and the test divides the difference
//! in allocations by the difference in injected requests. That cancels
//! what every run pays once whatever its length (slab growth up to the
//! in-flight peak, calendar buckets, the report), leaving the steady-state
//! cost of one more request.
//!
//! The file holds a single `#[test]`, so no other test thread allocates
//! while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ntier_repro::core::experiment::{self as exp, ExperimentSpec};
use ntier_repro::core::Engine;
use ntier_repro::des::time::SimDuration;

/// The system allocator with an allocation counter that only counts while
/// armed. The counter publishes no other data, so `Relaxed` is enough.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts one allocator call if the counter is armed.
fn tally() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter only
// observes calls, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allowed steady-state heap allocations per injected request.
const BOUND: f64 = 1.5;

/// Runs `spec` and returns (allocations inside `Engine::run`, injected).
fn count(spec: ExperimentSpec) -> (u64, u64) {
    let engine = Engine::new(spec.system, spec.workload, spec.horizon, spec.seed);
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let report = engine.run();
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(report.failed, 0, "{}", report.summary());
    (allocs, report.injected)
}

/// Marginal allocations per request between a `short` and a `long` run.
fn per_request(make: impl Fn(SimDuration) -> ExperimentSpec, short: u64, long: u64) -> f64 {
    let (a0, n0) = count(make(SimDuration::from_secs(short)));
    let (a1, n1) = count(make(SimDuration::from_secs(long)));
    assert!(n1 > n0, "the long run must inject more ({n0} vs {n1})");
    (a1 as f64 - a0 as f64) / (n1 - n0) as f64
}

#[test]
fn closed_loop_requests_cost_at_most_one_allocation_each() {
    let sized = |mut spec: ExperimentSpec, horizon| {
        spec.horizon = horizon;
        spec
    };
    let cases: [(&str, f64); 3] = [
        (
            "fig12_sync c=1600",
            per_request(|h| sized(exp::fig12_sync(1_600, 7), h), 2, 4),
        ),
        (
            "fig12_async c=1600",
            per_request(|h| sized(exp::fig12_async(1_600, 7), h), 2, 4),
        ),
        (
            "fig1 7000 clients",
            per_request(|h| exp::fig1(7_000, h, 7), 8, 14),
        ),
    ];
    for (name, per) in cases {
        println!("{name}: {per:.3} allocations per request");
    }
    for (name, per) in cases {
        assert!(
            per <= BOUND,
            "{name}: {per:.3} heap allocations per request (bound {BOUND})"
        );
    }
}
