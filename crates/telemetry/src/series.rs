//! Fixed-window time series: the 50 ms aggregates the paper's figures plot.
//!
//! [`WindowedSeries`] covers counters (VLRT requests per window, drops per
//! window) and gauges (queue depths). [`UtilizationSeries`] accounts busy
//! time per window, producing CPU-utilization timelines.
//!
//! Both record paths run once per simulated event or CPU slice, and
//! consecutive recordings almost always fall in the same window. Each
//! series therefore caches the window it last touched (a `WindowCursor`)
//! and divides only when a recording leaves it.

use std::fmt;

use ntier_des::time::{SimDuration, SimTime};

/// Horizon past which [`WindowedSeries::reserve_through`] and
/// [`UtilizationSeries::paper_default_for`] stop preallocating: 10 minutes
/// of simulated time. Longer runs grow lazily (and long-horizon telemetry
/// should stream through [`crate::RingSeries`] instead) — O(horizon)
/// preallocation is exactly what capped runs at Fig.-1 scale.
pub const PREALLOC_HORIZON_CAP: SimDuration = SimDuration::from_secs(600);

/// Aggregates accumulated within one window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowAgg {
    /// Sum of recorded values (for counters: the windowed total).
    pub sum: f64,
    /// Number of recordings.
    pub count: u64,
    /// Maximum recorded value (0 when the window is empty).
    pub max: f64,
    /// Last recorded value (0 when the window is empty).
    pub last: f64,
}

impl WindowAgg {
    /// Mean of recorded values, or 0 for an empty window.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The window a series last recorded into: its start in microseconds and
/// its index. Maps a time to its window index with one subtract-and-compare
/// while recordings stay in that window; it is a pure function of the
/// window size, so it never goes stale.
#[derive(Clone, Copy, Default)]
struct WindowCursor {
    start_us: u64,
    idx: usize,
}

impl WindowCursor {
    /// The index of the window (of `wsize_us` microseconds) containing
    /// `t_us`, moving the cursor there if needed.
    fn seek(&mut self, t_us: u64, wsize_us: u64) -> usize {
        // Times before the cached start wrap to a huge offset and miss too.
        if t_us.wrapping_sub(self.start_us) >= wsize_us {
            let idx = t_us / wsize_us;
            self.start_us = idx * wsize_us;
            self.idx = idx as usize;
        }
        self.idx
    }
}

/// A time series aggregated into fixed windows (default 50 ms).
///
/// Recordings are indexed by simulated time; the series grows on demand, and
/// unobserved windows read as empty aggregates.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::series::WindowedSeries;
///
/// let mut vlrt = WindowedSeries::with_window(SimDuration::from_millis(50));
/// vlrt.add(SimTime::from_millis(120), 1.0); // one VLRT request in window 2
/// vlrt.add(SimTime::from_millis(130), 1.0);
/// assert_eq!(vlrt.window(2).sum, 2.0);
/// assert_eq!(vlrt.window(0).sum, 0.0);
/// ```
#[derive(Clone)]
pub struct WindowedSeries {
    window: SimDuration,
    windows: Vec<WindowAgg>,
    cursor: WindowCursor,
}

impl fmt::Debug for WindowedSeries {
    /// The recorded state only: the window cursor is a lookup cache.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowedSeries")
            .field("window", &self.window)
            .field("windows", &self.windows)
            .finish()
    }
}

impl WindowedSeries {
    /// Creates a series with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        WindowedSeries {
            window,
            windows: Vec::new(),
            cursor: WindowCursor::default(),
        }
    }

    /// Creates a series with the paper's 50 ms monitoring window.
    pub fn paper_default() -> Self {
        WindowedSeries::with_window(SimDuration::from_millis(crate::MONITOR_WINDOW_MS))
    }

    /// Like [`WindowedSeries::paper_default`], but with backing storage
    /// reserved for a run of length `horizon` so the hot path never
    /// reallocates. Only capacity is reserved: `len()` still reports the
    /// windows actually touched, so reads are unchanged.
    pub fn paper_default_for(horizon: SimDuration) -> Self {
        let mut s = WindowedSeries::paper_default();
        s.reserve_through(horizon);
        s
    }

    /// Reserves capacity for every window up to `horizon` (plus one spill
    /// window for events that land exactly at the horizon), capped at
    /// [`PREALLOC_HORIZON_CAP`]: past the cap only the first 10 minutes'
    /// worth is reserved and later windows grow lazily.
    pub fn reserve_through(&mut self, horizon: SimDuration) {
        let want = (horizon.as_micros() / self.window.as_micros()) as usize + 2;
        let cap = (PREALLOC_HORIZON_CAP.as_micros() / self.window.as_micros()) as usize + 2;
        if want > cap {
            // Pre-cap behavior reserved O(horizon) here — 1.7 GB of windows
            // for a simulated day at 50 ms. Trip in debug builds so the
            // fallback is visible, not silent.
            debug_assert!(
                horizon > PREALLOC_HORIZON_CAP,
                "cap binds only past the preallocation horizon"
            );
        }
        let n = want.min(cap);
        self.windows.reserve(n.saturating_sub(self.windows.len()));
    }

    /// The window size.
    pub fn window_size(&self) -> SimDuration {
        self.window
    }

    /// Adds `value` to the window containing `t` (counter semantics: values
    /// accumulate in `sum`).
    pub fn add(&mut self, t: SimTime, value: f64) {
        let idx = self.cursor.seek(t.as_micros(), self.window.as_micros());
        self.ensure(idx);
        let w = &mut self.windows[idx];
        w.sum += value;
        w.count += 1;
        if value > w.max {
            w.max = value;
        }
        w.last = value;
    }

    /// Records a gauge observation at `t` (use [`WindowAgg::max`] /
    /// [`WindowAgg::mean`] when reading).
    pub fn record(&mut self, t: SimTime, value: f64) {
        self.add(t, value);
    }

    /// The aggregate for window `idx` (empty default if never touched).
    pub fn window(&self, idx: usize) -> WindowAgg {
        self.windows.get(idx).copied().unwrap_or_default()
    }

    /// Number of windows from time zero through the last touched window.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` if no window was ever touched.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Iterates `(window_start_time, aggregate)` over all windows.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, WindowAgg)> + '_ {
        let w = self.window;
        self.windows
            .iter()
            .enumerate()
            .map(move |(i, agg)| (SimTime::from_micros(i as u64 * w.as_micros()), *agg))
    }

    /// The per-window sums as a plain vector (counter reading).
    pub fn sums(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.sum).collect()
    }

    /// The per-window maxima as a plain vector (gauge reading).
    pub fn maxima(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.max).collect()
    }

    /// Total of all window sums.
    pub fn total(&self) -> f64 {
        self.windows.iter().map(|w| w.sum).sum()
    }

    /// The largest window sum together with its window start time.
    pub fn peak(&self) -> Option<(SimTime, f64)> {
        let w = self.window;
        self.windows
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.sum.partial_cmp(&b.1.sum).expect("sums are finite"))
            .map(|(i, agg)| (SimTime::from_micros(i as u64 * w.as_micros()), agg.sum))
    }

    /// Folds `other` into `self` window-by-window: sums and counts add, maxima
    /// take the larger value. Used to pool per-replica series into one
    /// tier-level view; both series must share a window size.
    ///
    /// # Panics
    ///
    /// Panics if the window sizes differ.
    pub fn absorb(&mut self, other: &WindowedSeries) {
        assert_eq!(
            self.window, other.window,
            "cannot absorb series with a different window size"
        );
        if other.windows.is_empty() {
            return;
        }
        self.ensure(other.windows.len() - 1);
        for (w, o) in self.windows.iter_mut().zip(other.windows.iter()) {
            w.sum += o.sum;
            w.count += o.count;
            if o.max > w.max {
                w.max = o.max;
            }
            if o.count > 0 {
                w.last = o.last;
            }
        }
    }

    fn ensure(&mut self, idx: usize) {
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowAgg::default());
        }
    }

    /// Pools partitions of one logical series — per-shard slices of a
    /// sharded run, or per-replica views of a tier — into a single series:
    /// the window-wise [`absorb`](Self::absorb) fold over every partition,
    /// in iteration order (pass shards in shard-id order so the `last`
    /// sample resolves deterministically). Returns `None` for an empty
    /// iterator.
    ///
    /// # Panics
    ///
    /// Panics if the partitions disagree on window size.
    pub fn merged<'a, I>(parts: I) -> Option<WindowedSeries>
    where
        I: IntoIterator<Item = &'a WindowedSeries>,
    {
        let mut it = parts.into_iter();
        let mut acc = it.next()?.clone();
        for p in it {
            acc.absorb(p);
        }
        Some(acc)
    }
}

/// Busy-time accounting per window, yielding utilization timelines.
///
/// Busy intervals may span window boundaries; the busy time is split across
/// the overlapped windows, so utilization is exact rather than sampled.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::series::UtilizationSeries;
///
/// let mut cpu = UtilizationSeries::with_window(SimDuration::from_millis(50), 1);
/// // busy from 25 ms to 75 ms: half of window 0 and half of window 1
/// cpu.record_busy(SimTime::from_millis(25), SimTime::from_millis(75));
/// assert!((cpu.utilization(0) - 0.5).abs() < 1e-9);
/// assert!((cpu.utilization(1) - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone)]
pub struct UtilizationSeries {
    window: SimDuration,
    cores: u32,
    busy_micros: Vec<u64>,
    cursor: WindowCursor,
}

impl fmt::Debug for UtilizationSeries {
    /// The recorded state only: the window cursor is a lookup cache.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UtilizationSeries")
            .field("window", &self.window)
            .field("cores", &self.cores)
            .field("busy_micros", &self.busy_micros)
            .finish()
    }
}

impl UtilizationSeries {
    /// Creates a utilization series for `cores` cores with the given window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `cores` is zero.
    pub fn with_window(window: SimDuration, cores: u32) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        assert!(cores > 0, "cores must be non-zero");
        UtilizationSeries {
            window,
            cores,
            busy_micros: Vec::new(),
            cursor: WindowCursor::default(),
        }
    }

    /// Creates a series with the paper's 50 ms window.
    pub fn paper_default(cores: u32) -> Self {
        UtilizationSeries::with_window(SimDuration::from_millis(crate::MONITOR_WINDOW_MS), cores)
    }

    /// Like [`UtilizationSeries::paper_default`], but with busy-time storage
    /// reserved for a run of length `horizon` (capacity only — observable
    /// state is identical to the on-demand series). Reservation is capped
    /// at [`PREALLOC_HORIZON_CAP`], like
    /// [`WindowedSeries::reserve_through`].
    pub fn paper_default_for(cores: u32, horizon: SimDuration) -> Self {
        let mut s = UtilizationSeries::paper_default(cores);
        let want = (horizon.as_micros() / s.window.as_micros()) as usize + 2;
        let cap = (PREALLOC_HORIZON_CAP.as_micros() / s.window.as_micros()) as usize + 2;
        if want > cap {
            debug_assert!(
                horizon > PREALLOC_HORIZON_CAP,
                "cap binds only past the preallocation horizon"
            );
        }
        s.busy_micros.reserve(want.min(cap));
        s
    }

    /// Total busy time recorded across all windows, in microseconds — the
    /// integer numerator behind the metrics plane's `util_ppm` gauges.
    pub fn total_busy_micros(&self) -> u64 {
        self.busy_micros.iter().sum()
    }

    /// Accounts one core as busy over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn record_busy(&mut self, start: SimTime, end: SimTime) {
        assert!(end >= start, "busy interval must be well-ordered");
        if end == start {
            return;
        }
        let wsize = self.window.as_micros();
        let mut from = start.as_micros();
        let end_us = end.as_micros();
        self.cursor.seek(from, wsize);
        loop {
            let WindowCursor { start_us, idx } = self.cursor;
            let slice_end = (start_us + wsize).min(end_us);
            self.ensure(idx);
            self.busy_micros[idx] += slice_end - from;
            if slice_end == end_us {
                return;
            }
            // The span runs on into the next window: step the cursor there.
            from = slice_end;
            self.cursor = WindowCursor {
                start_us: slice_end,
                idx: idx + 1,
            };
        }
    }

    /// Utilization of window `idx` in `[0, 1]` (0 if never touched).
    pub fn utilization(&self, idx: usize) -> f64 {
        let busy = self.busy_micros.get(idx).copied().unwrap_or(0);
        busy as f64 / (self.window.as_micros() as f64 * f64::from(self.cores))
    }

    /// Utilizations for all windows through the last touched one.
    pub fn utilizations(&self) -> Vec<f64> {
        (0..self.busy_micros.len())
            .map(|i| self.utilization(i))
            .collect()
    }

    /// Mean utilization over windows `[0, through_window]` (inclusive),
    /// counting untouched windows as idle.
    pub fn mean_utilization(&self, through_window: usize) -> f64 {
        if through_window == usize::MAX {
            return 0.0;
        }
        let n = through_window + 1;
        let busy: u64 = (0..n)
            .map(|i| self.busy_micros.get(i).copied().unwrap_or(0))
            .sum();
        busy as f64 / (self.window.as_micros() as f64 * f64::from(self.cores) * n as f64)
    }

    /// Pools `other` into `self`: busy time and core counts add, so the
    /// combined series reads as the utilization of the whole replica set
    /// (total busy over total capacity). Window sizes must match.
    ///
    /// # Panics
    ///
    /// Panics if the window sizes differ.
    pub fn absorb(&mut self, other: &UtilizationSeries) {
        assert_eq!(
            self.window, other.window,
            "cannot absorb series with a different window size"
        );
        self.cores += other.cores;
        if other.busy_micros.len() > self.busy_micros.len() {
            self.busy_micros.resize(other.busy_micros.len(), 0);
        }
        for (b, o) in self.busy_micros.iter_mut().zip(other.busy_micros.iter()) {
            *b += o;
        }
    }

    /// Number of windows touched.
    pub fn len(&self) -> usize {
        self.busy_micros.len()
    }

    /// `true` if no busy time was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.busy_micros.is_empty()
    }

    fn ensure(&mut self, idx: usize) {
        if idx >= self.busy_micros.len() {
            self.busy_micros.resize(idx + 1, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn counter_accumulates_per_window() {
        let mut s = WindowedSeries::paper_default();
        s.add(ms(10), 1.0);
        s.add(ms(40), 1.0);
        s.add(ms(51), 1.0);
        assert_eq!(s.window(0).sum, 2.0);
        assert_eq!(s.window(1).sum, 1.0);
        assert_eq!(s.total(), 3.0);
    }

    #[test]
    fn gauge_tracks_max_and_mean() {
        let mut s = WindowedSeries::paper_default();
        s.record(ms(0), 100.0);
        s.record(ms(10), 300.0);
        s.record(ms(20), 200.0);
        let w = s.window(0);
        assert_eq!(w.max, 300.0);
        assert_eq!(w.mean(), 200.0);
        assert_eq!(w.last, 200.0);
    }

    #[test]
    fn untouched_windows_read_empty() {
        let s = WindowedSeries::paper_default();
        assert_eq!(s.window(17), WindowAgg::default());
        assert!(s.is_empty());
        assert_eq!(s.peak(), None);
    }

    #[test]
    fn peak_finds_largest_window() {
        let mut s = WindowedSeries::paper_default();
        s.add(ms(10), 2.0);
        s.add(ms(260), 5.0);
        s.add(ms(400), 1.0);
        let (t, v) = s.peak().unwrap();
        assert_eq!(t, ms(250));
        assert_eq!(v, 5.0);
    }

    #[test]
    fn iter_yields_window_starts() {
        let mut s = WindowedSeries::with_window(SimDuration::from_millis(100));
        s.add(ms(150), 1.0);
        let points: Vec<_> = s.iter().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].0, ms(0));
        assert_eq!(points[1].0, ms(100));
        assert_eq!(points[1].1.sum, 1.0);
    }

    #[test]
    fn merged_pools_shard_partitions() {
        // Three shards each hold a slice of one logical drop series; the
        // merge must equal the series a single-shard run would have built.
        let mut whole = WindowedSeries::paper_default();
        let mut parts: Vec<WindowedSeries> =
            (0..3).map(|_| WindowedSeries::paper_default()).collect();
        for (i, t) in [5u64, 60, 110, 140, 260, 300].iter().enumerate() {
            whole.add(ms(*t), 1.0);
            parts[i % 3].add(ms(*t), 1.0);
        }
        let merged = WindowedSeries::merged(parts.iter()).expect("non-empty");
        assert_eq!(merged.sums(), whole.sums());
        assert_eq!(merged.total(), whole.total());
        assert!(WindowedSeries::merged(std::iter::empty()).is_none());
    }

    #[test]
    fn preallocation_is_capped_past_ten_minutes() {
        let day = SimDuration::from_secs(24 * 3_600);
        let capped = (PREALLOC_HORIZON_CAP.as_micros()
            / SimDuration::from_millis(crate::MONITOR_WINDOW_MS).as_micros())
            as usize
            + 2;
        let s = WindowedSeries::paper_default_for(day);
        assert!(
            s.windows.capacity() <= 2 * capped,
            "capacity {}",
            s.windows.capacity()
        );
        let u = UtilizationSeries::paper_default_for(2, day);
        assert!(u.busy_micros.capacity() <= 2 * capped);
        // short horizons still get their exact reservation
        let short = WindowedSeries::paper_default_for(SimDuration::from_secs(20));
        assert!(short.windows.capacity() >= 400);
    }

    #[test]
    fn total_busy_micros_sums_windows() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(25), ms(75));
        u.record_busy(ms(100), ms(110));
        assert_eq!(u.total_busy_micros(), 60_000);
    }

    #[test]
    fn utilization_splits_across_windows() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(25), ms(75));
        assert!((u.utilization(0) - 0.5).abs() < 1e-12);
        assert!((u.utilization(1) - 0.5).abs() < 1e-12);
        assert_eq!(u.utilization(2), 0.0);
    }

    #[test]
    fn utilization_with_multiple_cores_scales() {
        let mut u = UtilizationSeries::paper_default(4);
        // one core fully busy for one window => 25% of a 4-core node
        u.record_busy(ms(0), ms(50));
        assert!((u.utilization(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mean_utilization_counts_idle_windows() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(0), ms(50));
        // windows 0..=3: one fully busy, three idle
        assert!((u.mean_utilization(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_busy_interval_is_noop() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(10), ms(10));
        assert!(u.is_empty());
    }

    #[test]
    #[should_panic(expected = "well-ordered")]
    fn reversed_busy_interval_panics() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(20), ms(10));
    }

    /// [`WindowedSeries::add`] as the plain division formula, the reference
    /// for the cached-window path.
    fn reference_add(windows: &mut Vec<WindowAgg>, wsize: SimDuration, t: SimTime, value: f64) {
        let idx = t.window_index(wsize) as usize;
        if idx >= windows.len() {
            windows.resize(idx + 1, WindowAgg::default());
        }
        let w = &mut windows[idx];
        w.sum += value;
        w.count += 1;
        if value > w.max {
            w.max = value;
        }
        w.last = value;
    }

    /// [`UtilizationSeries::record_busy`] as the plain division formula.
    fn reference_busy(busy: &mut Vec<u64>, wsize: u64, start: u64, end: u64) {
        let mut cursor = start;
        while cursor < end {
            let idx = (cursor / wsize) as usize;
            let slice_end = ((idx as u64 + 1) * wsize).min(end);
            if idx >= busy.len() {
                busy.resize(idx + 1, 0);
            }
            busy[idx] += slice_end - cursor;
            cursor = slice_end;
        }
    }

    #[test]
    fn debug_shows_recorded_state_only() {
        let mut s = WindowedSeries::paper_default();
        s.add(ms(60), 2.0);
        assert_eq!(
            format!("{s:?}"),
            format!(
                "WindowedSeries {{ window: {:?}, windows: {:?} }}",
                s.window, s.windows
            )
        );
        let mut u = UtilizationSeries::paper_default(2);
        u.record_busy(ms(30), ms(70));
        assert_eq!(
            format!("{u:?}"),
            format!(
                "UtilizationSeries {{ window: {:?}, cores: 2, busy_micros: {:?} }}",
                u.window, u.busy_micros
            )
        );
    }

    proptest! {
        /// The cached-window `add` writes exactly what the division formula
        /// writes, for times in any order (so the cursor both hits and
        /// misses, forwards and backwards) and odd window sizes.
        #[test]
        fn cached_add_matches_division(
            wsize in 1u64..5_000,
            values in proptest::collection::vec((0u64..200_000, 0.0f64..10.0), 1..200),
        ) {
            let window = SimDuration::from_micros(wsize);
            let mut s = WindowedSeries::with_window(window);
            let mut expect = Vec::new();
            for (t, v) in values {
                s.add(SimTime::from_micros(t), v);
                reference_add(&mut expect, window, SimTime::from_micros(t), v);
                prop_assert_eq!(&s.windows, &expect);
            }
        }

        /// The cached-window `record_busy` splits every interval exactly as
        /// the division formula does, for intervals in any order, empty
        /// ones, and spans covering many windows.
        #[test]
        fn cached_record_busy_matches_division(
            wsize in 1u64..5_000,
            intervals in proptest::collection::vec((0u64..200_000, 0u64..20_000), 1..100),
        ) {
            let mut u = UtilizationSeries::with_window(SimDuration::from_micros(wsize), 1);
            let mut expect = Vec::new();
            for (start, len) in intervals {
                u.record_busy(SimTime::from_micros(start), SimTime::from_micros(start + len));
                reference_busy(&mut expect, wsize, start, start + len);
                prop_assert_eq!(&u.busy_micros, &expect);
            }
        }

        /// Total busy time recorded equals total busy time read back,
        /// regardless of how intervals straddle windows.
        #[test]
        fn busy_time_is_conserved(intervals in proptest::collection::vec((0u64..5_000, 0u64..500), 1..50)) {
            let mut u = UtilizationSeries::paper_default(1);
            let mut expect = 0u64;
            for (start, len) in intervals {
                u.record_busy(SimTime::from_micros(start), SimTime::from_micros(start + len));
                expect += len;
            }
            let w = SimDuration::from_millis(crate::MONITOR_WINDOW_MS).as_micros() as f64;
            let got: f64 = u.utilizations().iter().map(|x| x * w).sum();
            prop_assert!((got - expect as f64).abs() < 1e-6);
        }

        /// Counter totals equal the sum of inserted values.
        #[test]
        fn counter_total_is_conserved(values in proptest::collection::vec((0u64..10_000, 0.0f64..10.0), 1..100)) {
            let mut s = WindowedSeries::paper_default();
            let mut expect = 0.0;
            for (t, v) in &values {
                s.add(SimTime::from_millis(*t), *v);
                expect += v;
            }
            prop_assert!((s.total() - expect).abs() < 1e-9);
        }
    }
}
