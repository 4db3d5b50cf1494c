//! Order statistics, process memory readings and the host's CPU share.

use std::time::Instant;

/// The `q` quantile (0..=1) of `values` by linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Geometric mean of positive values (non-positive ones are skipped).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    mean(&logs).exp()
}

/// Reads a `kB` field of `/proc/self/status` as megabytes.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The process's current resident set size, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Busy and stolen CPU ticks of the whole machine, from the first line
/// of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    busy: u64,
    steal: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        HostCpu {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }
}

/// How a run's times are counted: as wall time, or as wall time scaled
/// by the share of wanted CPU time the host granted. On a virtual
/// machine the host withholds CPU time from the guest ("steal") in
/// bursts; the scaled time is what the run would have taken on an
/// uncontended host. The share is machine-wide busy / (busy + stolen)
/// ticks, and the host's steal counter also advances on idle vCPUs, so
/// it only suits work that keeps every vCPU busy.
#[derive(Debug, Clone, Copy)]
pub enum Share {
    Wall,
    Host(HostCpu),
}

impl Share {
    pub fn wall() -> Share {
        Share::Wall
    }

    pub fn host() -> Share {
        Share::Host(HostCpu::now())
    }

    /// The share granted since `self` was taken, in (0, 1]; 1 for wall
    /// time or when nothing ran.
    pub fn granted_since(&self) -> f64 {
        let Share::Host(then) = self else {
            return 1.0;
        };
        let now = HostCpu::now();
        let busy = now.busy.saturating_sub(then.busy) as f64;
        let steal = now.steal.saturating_sub(then.steal) as f64;
        if busy == 0.0 {
            1.0
        } else {
            busy / (busy + steal)
        }
    }
}

/// A run's time budget, counted as its [`Share`] counts time: with the
/// host's share, a contended host stretches a run instead of shrinking
/// its work, by at most half the budget again in wall time.
#[derive(Debug)]
pub struct Budget {
    seconds: f64,
    start: Instant,
    share: Share,
    checked: Instant,
    granted: f64,
}

impl Budget {
    pub fn new(seconds: f64, share: Share) -> Budget {
        let now = Instant::now();
        Budget {
            seconds,
            start: now,
            share,
            checked: now,
            granted: 1.0,
        }
    }

    /// True once the budget is spent. Re-reads the share at most every
    /// 100 ms.
    pub fn spent(&mut self) -> bool {
        let wall = self.start.elapsed().as_secs_f64();
        if self.checked.elapsed().as_secs_f64() >= 0.1 {
            self.granted = self.share.granted_since();
            self.checked = Instant::now();
        }
        wall * self.granted >= self.seconds || wall >= self.seconds * 1.5
    }

    /// Wall seconds since the start and the share granted over them.
    pub fn finish(&self) -> (f64, f64) {
        (
            self.start.elapsed().as_secs_f64(),
            self.share.granted_since(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
