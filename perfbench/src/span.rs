//! Spans the benchmark records around its own calls into each layer's
//! public functions, and the per-layer self-times they add up to.
//!
//! A span is a layer name, its parent span and its start and end.
//! Spans stay in memory until the run ends. A layer's self-time is its spans' durations
//! minus the parts of them that child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. A disabled recorder reads no clock and keeps
/// nothing, so untraced runs pay only a branch per call site.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle to an open span; pass it back to [`Recorder::end`].
#[must_use]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` and returns its duration in nanoseconds (0 when
    /// the recorder is off).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else { return 0 };
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        let span = &mut self.spans[idx as usize];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(layer);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self-time per layer, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        *out.entry(s.layer).or_default() += s.dur_ns().saturating_sub(*child);
    }
    out
}

/// Durations, in nanoseconds, of every span of `layer`.
pub fn durations(spans: &[Span], layer: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(Span::dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            Span {
                layer: "outer",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: "inner",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"], 70);
        assert_eq!(t["inner"], 30);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        let open = r.begin("x");
        assert_eq!(r.end(open), 0);
        assert!(r.spans().is_empty());
    }
}
