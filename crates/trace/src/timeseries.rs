//! Fixed-window time series over a bounded ring of recent windows.
//!
//! A [`TimeSeries`] buckets `u64` samples into consecutive **windows**
//! of `window_len` ticks (the caller chooses the tick unit — the serve
//! layer uses milliseconds since daemon start) and retains the most
//! recent `num_windows` of them in a ring. Each retained window keeps
//! `count`, `sum`, `max` and a full log2 [`Histogram`] of its samples
//! ([`WindowStats`]), so windowed rates *and* windowed percentiles
//! fall out of the same structure.
//!
//! Windows are identified **absolutely** (`window id = tick /
//! window_len`), not by ring position. Samples older than the retained
//! horizon are dropped deterministically, never silently folded into a
//! newer window.

use crate::hist::Histogram;

/// Aggregate statistics for one window (or a merge of windows).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 distribution of the samples.
    pub hist: Histogram,
}

impl WindowStats {
    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.max = self.max.max(v);
        self.hist.record_n(v, n);
    }

    /// Element-wise sum of another window into this one (lossless).
    pub fn merge(&mut self, other: &WindowStats) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.hist.merge(&other.hist);
    }
}

/// A bounded ring of recent fixed-width windows (see the module
/// docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window_len: u64,
    slots: Vec<Option<(u64, WindowStats)>>,
}

impl TimeSeries {
    /// A series of `num_windows` windows, each `window_len` ticks
    /// wide. Both must be at least 1 (clamped).
    pub fn new(window_len: u64, num_windows: usize) -> TimeSeries {
        TimeSeries {
            window_len: window_len.max(1),
            slots: vec![None; num_windows.max(1)],
        }
    }

    /// Windows retained.
    pub fn num_windows(&self) -> usize {
        self.slots.len()
    }

    /// The absolute window id a tick falls into.
    pub fn window_id(&self, tick: u64) -> u64 {
        tick / self.window_len
    }

    /// Records one sample at `tick`.
    pub fn record(&mut self, tick: u64, v: u64) {
        self.record_n(tick, v, 1);
    }

    /// Records `n` samples of the same value at `tick`. A sample whose
    /// window has already been evicted from the ring (older than the
    /// retained horizon) is dropped, deterministically.
    pub fn record_n(&mut self, tick: u64, v: u64, n: u64) {
        let id = tick / self.window_len;
        let slot = (id % self.slots.len() as u64) as usize;
        match &mut self.slots[slot] {
            Some((cur, stats)) if *cur == id => stats.record_n(v, n),
            Some((cur, _)) if *cur > id => {} // beyond the horizon: drop
            other => {
                let mut stats = WindowStats::default();
                stats.record_n(v, n);
                *other = Some((id, stats));
            }
        }
    }

    /// The retained windows as `(window id, stats)`, oldest first.
    pub fn sorted(&self) -> Vec<(u64, &WindowStats)> {
        let mut windows: Vec<(u64, &WindowStats)> = self
            .slots
            .iter()
            .flatten()
            .map(|(id, stats)| (*id, stats))
            .collect();
        windows.sort_by_key(|(id, _)| *id);
        windows
    }

    /// Merged stats over the `n` most recent windows ending at (and
    /// including) the window containing `now_tick`.
    pub fn recent(&self, now_tick: u64, n: usize) -> WindowStats {
        let cur = self.window_id(now_tick);
        let oldest = cur.saturating_sub(n.saturating_sub(1) as u64);
        let mut total = WindowStats::default();
        for (id, stats) in self.sorted() {
            if id >= oldest && id <= cur {
                total.merge(stats);
            }
        }
        total
    }

    /// Merged stats over every retained window.
    pub fn horizon(&self) -> WindowStats {
        let mut total = WindowStats::default();
        for (_, stats) in self.sorted() {
            total.merge(stats);
        }
        total
    }

    /// The last `n` windows ending at `now_tick`, oldest first, with
    /// `None` for windows that saw no samples. The fixed shape (always
    /// exactly `n` entries) is what sparkline rendering wants.
    pub fn series(&self, now_tick: u64, n: usize) -> Vec<(u64, Option<&WindowStats>)> {
        let cur = self.window_id(now_tick);
        let oldest = cur.saturating_sub(n.saturating_sub(1) as u64);
        (oldest..=cur)
            .map(|id| {
                let slot = (id % self.slots.len() as u64) as usize;
                match &self.slots[slot] {
                    Some((cur_id, stats)) if *cur_id == id => (id, Some(stats)),
                    _ => (id, None),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(samples: &[(u64, u64)]) -> TimeSeries {
        let mut t = TimeSeries::new(10, 4);
        for &(tick, v) in samples {
            t.record(tick, v);
        }
        t
    }

    #[test]
    fn samples_land_in_their_window() {
        let t = ts(&[(0, 5), (9, 7), (10, 100), (35, 1)]);
        let windows = t.sorted();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].0, 0);
        assert_eq!(windows[0].1.count, 2);
        assert_eq!(windows[0].1.sum, 12);
        assert_eq!(windows[0].1.max, 7);
        assert_eq!(windows[1], (1, windows[1].1));
        assert_eq!(windows[1].1.sum, 100);
        assert_eq!(windows[2].0, 3);
    }

    #[test]
    fn ring_evicts_oldest_and_drops_stale_samples() {
        let mut t = TimeSeries::new(10, 4);
        t.record(0, 1); // window 0
        t.record(45, 2); // window 4 — same slot as window 0, evicts it
        assert_eq!(
            t.sorted().iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [4]
        );
        // A late sample for the evicted window is dropped, not folded
        // into window 4.
        t.record(5, 99);
        let horizon = t.horizon();
        assert_eq!((horizon.count, horizon.sum), (1, 2));
    }

    #[test]
    fn recent_and_horizon_queries() {
        let t = ts(&[(0, 1), (11, 2), (22, 4), (35, 8)]);
        // Last 2 windows at tick 35: windows 2 and 3.
        let recent = t.recent(35, 2);
        assert_eq!((recent.count, recent.sum), (2, 12));
        // Last 1 window: just window 3.
        assert_eq!(t.recent(35, 1).sum, 8);
        let horizon = t.horizon();
        assert_eq!((horizon.count, horizon.sum, horizon.max), (4, 15, 8));
        assert_eq!(horizon.hist.count(), 4);
    }

    #[test]
    fn series_has_fixed_shape_with_gaps_as_none() {
        let t = ts(&[(0, 1), (25, 4)]);
        let series = t.series(35, 4);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].0, 0);
        assert!(series[0].1.is_some());
        assert!(series[1].1.is_none(), "window 1 empty");
        assert_eq!(series[2].1.unwrap().sum, 4);
        assert!(series[3].1.is_none(), "current window empty");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = TimeSeries::new(10, 4);
        a.record_n(5, 9, 3);
        let mut b = TimeSeries::new(10, 4);
        for _ in 0..3 {
            b.record(5, 9);
        }
        assert_eq!(a, b);
    }
}
