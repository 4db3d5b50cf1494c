//! The compile service: JSONL request/response plumbing shared by the
//! `marion-serve` daemon, `marion-bench serve`, and the tests.
//!
//! ## Protocol
//!
//! One request per line, a flat JSON object (scalar values only) read
//! by `marion_trace::json::parse_flat`:
//!
//! ```text
//! {"id":1,"cmd":"compile","machine":"r2000","strategy":"IPS","workload":"livermore"}
//! {"id":2,"cmd":"compile","machine":"toyp","strategy":"Postpass","source":"int main(){return 7;}","emit_asm":1}
//! {"id":3,"cmd":"stats"}
//! {"id":4,"cmd":"shutdown"}
//! ```
//!
//! Requests: `cmd` is `compile` (default), `stats`, `metrics`,
//! `machines`, `capabilities`, `dashboard`, or `shutdown`. `compile`
//! takes a `machine` name, a `strategy` name, and either a named
//! `workload` (`livermore` for the combined Livermore suite, or
//! `gen:<count>:<seed>` for the deterministic generator, with `count`
//! at most [`MAX_GEN_COUNT`]) or inline C `source`; `emit_asm:1` adds
//! the rendered assembly to the response.
//! `metrics` answers a service-level snapshot — request counts,
//! queue-wait and service-time log2 histograms with p50/p90/p99,
//! rolling-window rates and percentiles, SLO budget/burn figures, live
//! queue-depth and busy-worker gauges, cache rates — without
//! disturbing in-flight work. `machines` lists the supported machines,
//! strategies, and protocol/cache-format versions. `dashboard` returns
//! a self-contained HTML status page (inline CSS/SVG only) as a
//! JSON-escaped `html` field.
//!
//! Responses stream back in request order, one line each. Every
//! response carries a server-assigned, stable `request_id` (`"r<n>"`)
//! for correlation with the access log:
//!
//! ```text
//! {"id":1,"request_id":"r1","ok":1,"machine":"r2000","strategy":"IPS",
//!  "funcs":15,"insts":…,"spills":…,"estimated_cycles":…,"nops":…,
//!  "cache_hits":0,"cache_misses":15,"wall_us":…}
//! ```
//!
//! Failures respond `{"id":…,"request_id":…,"ok":0,"error":"…"}` — a
//! bad request never kills the stream. `shutdown` answers, stops
//! reading, and drains every request already queued before returning.
//!
//! ## Observability
//!
//! With `ServeConfig::access_log` set, every request served through
//! [`run_stream`] appends exactly one JSONL line to the access log —
//! the line count always equals the requests served — rotating
//! `PATH` → `PATH.1` when `access_log_max_bytes` would be exceeded.
//! Compiles always run untraced. With `exemplars` on (the default), a
//! tail sampler keeps the K slowest compile requests per window, each
//! with its request line and the statistics it was served. The
//! `dashboard` command re-runs every distinct kept request once on a
//! traced compiler with no cache, checks that the replay reproduces
//! each exemplar's served statistics, and renders its flamegraph,
//! titled as a replay. Declarative SLOs ([`parse_slos`]) are
//! evaluated over the rolling windows of [`Metrics`]; see DESIGN.md
//! "Metrics model" for the exact semantics.

use marion_cache::{CacheKey, ShardedCache, StableHasher};
use marion_core::driver::materialize_float_constants;
use marion_core::{
    CompileOptions, CompileStats, CompiledProgram, Compiler, FuncCache, StrategyKind,
};
use marion_trace::json::{parse_flat, ObjWriter};
use marion_trace::{Fields, Histogram, TraceConfig, TraceData, Value};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, Write};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Version of the request/response protocol described in the module
/// docs. Bumped on incompatible changes; reported by `machines`.
pub const PROTOCOL_VERSION: i64 = 1;

/// Version of the `metrics` response schema, reported as
/// `format_version` so archived snapshots are self-describing.
/// 2 added uptime/started/windowed/SLO fields.
pub const METRICS_FORMAT_VERSION: i64 = 2;

/// Rolling windows aggregated for the `win_*` metrics fields and the
/// SLO burn rate ("latency over the last ~10 windows").
pub const SLO_RECENT_WINDOWS: usize = 10;

/// Largest `count` a `gen:<count>:<seed>` workload may ask for. Compile
/// time grows with the count (`gen:300:1` takes most of a second), so
/// larger requests are refused before any program is generated.
pub const MAX_GEN_COUNT: u64 = 64;

/// Parsed modules a [`Service`] keeps, least recently used evicted
/// first. Every distinct `gen:` workload or `source` is a new module,
/// so without a bound the map (and the daemon's memory) grows with
/// every fresh request; an evicted module is parsed again when next
/// asked for, and its functions still hit the compile cache.
pub const MODULE_CAPACITY: usize = 64;

/// How to build a [`Service`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Consult the content-addressed compile cache (on by default).
    pub cache: bool,
    /// Maximum cached functions.
    pub cache_capacity: usize,
    /// Optional JSONL disk store for the cache (write-through;
    /// existing verified entries warm the cache at startup).
    pub cache_disk: Option<PathBuf>,
    /// Per-compile worker threads inside `compile_module`. Defaults to
    /// 1: the service already parallelises across requests, and nested
    /// pools oversubscribe.
    pub jobs: Option<NonZeroUsize>,
    /// Append one JSONL line per served request to this path.
    pub access_log: Option<PathBuf>,
    /// Rotate the access log (`PATH` → `PATH.1`) before exceeding this
    /// many bytes. Default 4 MiB.
    pub access_log_max_bytes: u64,
    /// Keep the slowest compile requests per window as exemplars,
    /// which the `dashboard` command replays on a traced compiler (on
    /// by default). Served compiles run untraced either way.
    pub exemplars: bool,
    /// Slowest requests kept per window by the tail sampler.
    pub tail_k: usize,
    /// Width of one rolling metrics window, in milliseconds.
    pub window_ms: u64,
    /// Rolling windows retained.
    pub windows: usize,
    /// Service-level objectives evaluated over the rolling windows
    /// ([`parse_slos`]).
    pub slos: Vec<Slo>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache: true,
            cache_capacity: 4096,
            cache_disk: None,
            jobs: NonZeroUsize::new(1),
            access_log: None,
            access_log_max_bytes: 4 << 20,
            exemplars: true,
            tail_k: 4,
            window_ms: 1000,
            windows: 60,
            slos: Vec::new(),
        }
    }
}

/// One declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// The spec key, e.g. `p99_ms` or `error_rate` — used for the
    /// `slo_<name>_*` metrics fields.
    pub name: String,
    /// The spec value as written (ms for latency objectives, a
    /// fraction for `error_rate`) — echoed as `slo_<name>_target`.
    pub target: f64,
    /// What to evaluate.
    pub kind: SloKind,
}

/// The objective kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// `p<q>_ms=<t>`: at least `q`% of requests must finish within
    /// `threshold_us`. The error budget is the `1 − q` tail.
    LatencyQuantile {
        /// Quantile as a fraction in (0, 1).
        q: f64,
        /// Latency threshold in microseconds.
        threshold_us: u64,
    },
    /// `error_rate=<r>` (or `<r>%`): at most this fraction of requests
    /// may fail.
    ErrorRate {
        /// Allowed failure fraction in (0, 1].
        max_rate: f64,
    },
}

/// Parses a `--slo` spec: comma-separated `name=value` objectives,
/// e.g. `p99_ms=50,error_rate=0.1%`. Latency objectives are `p<q>_ms`
/// with `0 < q < 100`; `error_rate` takes a fraction or a percentage.
///
/// # Errors
///
/// A human-readable message naming the offending objective.
pub fn parse_slos(spec: &str) -> Result<Vec<Slo>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| format!("SLO `{part}` must be `name=value`"))?;
        let (name, value) = (name.trim(), value.trim());
        let bad = |what: &str| format!("SLO `{name}`: bad {what} `{value}`");
        let (target, kind) = if let Some(q) = name
            .strip_prefix('p')
            .and_then(|rest| rest.strip_suffix("_ms"))
        {
            let q: f64 = q.parse().map_err(|_| bad("quantile"))?;
            if !(0.0..100.0).contains(&q) || q == 0.0 {
                return Err(format!("SLO `{name}`: quantile must be in (0, 100)"));
            }
            let ms: f64 = value.parse().map_err(|_| bad("threshold"))?;
            if !(0.0..=f64::MAX).contains(&ms) {
                return Err(bad("threshold"));
            }
            (
                ms,
                SloKind::LatencyQuantile {
                    q: q / 100.0,
                    threshold_us: (ms * 1000.0) as u64,
                },
            )
        } else if name == "error_rate" {
            let rate = match value.strip_suffix('%') {
                Some(pct) => pct.parse::<f64>().map_err(|_| bad("rate"))? / 100.0,
                None => value.parse::<f64>().map_err(|_| bad("rate"))?,
            };
            if !(rate > 0.0 && rate <= 1.0) {
                return Err(format!("SLO `{name}`: rate must be in (0, 1]"));
            }
            (rate, SloKind::ErrorRate { max_rate: rate })
        } else {
            return Err(format!("unknown SLO `{name}` (have: p<q>_ms, error_rate)"));
        };
        out.push(Slo {
            name: name.to_string(),
            target,
            kind,
        });
    }
    Ok(out)
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed back in the response for correlation.
    pub id: i64,
    /// `compile`, `stats`, `metrics`, `machines`, `capabilities`, or
    /// `shutdown`.
    pub cmd: Cmd,
    /// Target machine name (`marion_machines::EXTENDED`).
    pub machine: String,
    /// Strategy name ([`StrategyKind::parse`]).
    pub strategy: String,
    /// Inline C source to compile.
    pub source: Option<String>,
    /// Named workload (`livermore` or `gen:<count>:<seed>`).
    pub workload: Option<String>,
    /// Include rendered assembly in the response.
    pub emit_asm: bool,
}

/// The request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Compile a module and report statistics.
    Compile,
    /// Report service-level cache statistics.
    Stats,
    /// Report a request-latency and utilization snapshot.
    Metrics,
    /// List machines, strategies, and protocol/format versions.
    Machines,
    /// Per-machine detail: issue width, temporal clocks, and register
    /// classes for every served target.
    Capabilities,
    /// Self-contained HTML status page (sparklines, SLOs, exemplar
    /// flamegraphs) as a JSON-escaped `html` field.
    Dashboard,
    /// Answer, then stop reading and drain the queue.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message for malformed JSON or an unknown `cmd`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_flat(line)?;
    let cmd = match fields.str("cmd").unwrap_or("compile") {
        "compile" => Cmd::Compile,
        "stats" => Cmd::Stats,
        "metrics" => Cmd::Metrics,
        "machines" => Cmd::Machines,
        "capabilities" => Cmd::Capabilities,
        "dashboard" => Cmd::Dashboard,
        "shutdown" => Cmd::Shutdown,
        other => return Err(format!("unknown cmd `{other}`")),
    };
    Ok(Request {
        id: fields.int("id").unwrap_or(0),
        cmd,
        machine: fields.str("machine").unwrap_or("r2000").to_string(),
        strategy: fields.str("strategy").unwrap_or("IPS").to_string(),
        source: fields.str("source").map(str::to_string),
        workload: fields.str("workload").map(str::to_string),
        emit_asm: fields.int("emit_asm").unwrap_or(0) != 0,
    })
}

/// What one handled request contributed: stream accounting plus the
/// request-scoped detail the access log and tail sampler consume.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Server-assigned request id (echoed as `"r<n>"`).
    pub request_id: u64,
    /// The client's `id` field.
    pub client_id: i64,
    /// The request verb as served (`"invalid"` for unparsable lines).
    pub cmd: &'static str,
    /// Target machine (empty for non-compile requests).
    pub machine: String,
    /// Strategy name (empty for non-compile requests).
    pub strategy: String,
    /// Functions in the compiled module.
    pub funcs: u64,
    /// Functions served from the cache.
    pub cache_hits: u64,
    /// Functions compiled cold.
    pub cache_misses: u64,
    /// The request failed.
    pub failed: bool,
    /// The statistics a compile answered with.
    pub served: Served,
    /// The request line of a successful compile with exemplars on,
    /// which the tail sampler keeps for replay.
    pub request_line: Option<String>,
}

/// The statistics a compile response carries (`insts`, `spills`,
/// `estimated_cycles`, `nops`): what a replay must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Served {
    /// Machine instructions generated.
    pub insts: u64,
    /// Virtual registers spilled.
    pub spills: u64,
    /// Estimated cycles.
    pub estimated_cycles: u64,
    /// `nop`s emitted.
    pub nops: u64,
}

impl Served {
    fn of(stats: &CompileStats) -> Served {
        Served {
            insts: stats.insts_generated as u64,
            spills: stats.spills as u64,
            estimated_cycles: stats.estimated_cycles,
            nops: stats.nops_emitted as u64,
        }
    }
}

impl std::fmt::Display for Served {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} insts, {} spills, {} est. cycles, {} nops",
            self.insts, self.spills, self.estimated_cycles, self.nops
        )
    }
}

fn outcome(request_id: u64, client_id: i64, cmd: &'static str) -> Outcome {
    Outcome {
        request_id,
        client_id,
        cmd,
        ..Outcome::default()
    }
}

/// Totals for one [`run_stream`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests answered.
    pub requests: u64,
    /// Requests that answered `ok:0`.
    pub failures: u64,
    /// Cache hits across all compiles.
    pub cache_hits: u64,
    /// Cache misses across all compiles.
    pub cache_misses: u64,
}

/// Service-level metrics: live gauges (lock-free atomics, safe to
/// touch from the stream's hot path) plus the [`Totals`] of completed
/// requests, over the lifetime and per rolling window, under one mutex.
///
/// Requests are the count of the service-time histogram in each
/// [`Totals`], not a second counter, so "Σ service-time bucket counts
/// == requests served" holds in every snapshot by construction.
pub struct Metrics {
    origin: Instant,
    window_ms: u64,
    queue_depth: AtomicI64,
    busy_workers: AtomicI64,
    workers: AtomicI64,
    /// Requests dequeued for service; numbers them (`r<n>`).
    started: AtomicU64,
    inner: Mutex<MetricsInner>,
}

struct MetricsInner {
    lifetime: Totals,
    queue_wait_us: Histogram,
    /// Rolling windows: slot `id % len` holds window `id` (`now_ms /
    /// window_ms`) as `(id, totals)`.
    ring: Vec<Option<(u64, Totals)>>,
}

/// What completed requests add up to, over the lifetime or over
/// rolling windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Requests that answered `ok:0`.
    pub failures: u64,
    /// Function-level cache hits.
    pub cache_hits: u64,
    /// Function-level cache misses.
    pub cache_misses: u64,
    /// Time inside `handle_line`, in microseconds; its count is the
    /// requests ([`Totals::requests`]).
    pub service_us: Histogram,
}

impl Totals {
    /// Requests completed.
    pub fn requests(&self) -> u64 {
        self.service_us.count()
    }

    fn record(&mut self, service_us: u64, outcome: &Outcome) {
        self.failures += outcome.failed as u64;
        self.cache_hits += outcome.cache_hits;
        self.cache_misses += outcome.cache_misses;
        self.service_us.record(service_us);
    }

    fn merge(&mut self, other: &Totals) {
        self.failures += other.failures;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.service_us.merge(&other.service_us);
    }
}

/// A consistent point-in-time copy of [`Metrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests dequeued for service, including in-flight ones
    /// (`started - lifetime.requests()` is the in-flight count).
    pub started: u64,
    /// Microseconds since the service was built.
    pub uptime_us: u64,
    /// Milliseconds since the service was built; the current window
    /// is `now_ms / window_ms`.
    pub now_ms: u64,
    /// Width of one rolling window, in milliseconds.
    pub window_ms: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: i64,
    /// Workers currently inside `handle_line`.
    pub busy_workers: i64,
    /// Worker threads configured for the current stream.
    pub workers: i64,
    /// Time from enqueue to dequeue, in microseconds.
    pub queue_wait_us: Histogram,
    /// Every request completed since the service was built.
    pub lifetime: Totals,
    ring: Vec<Option<(u64, Totals)>>,
}

/// Aggregates over the most recent rolling windows of a
/// [`MetricsSnapshot`] — the `win_*` fields of the `metrics` response.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    /// Windows actually covered (capped by uptime and by the ring).
    pub windows: usize,
    /// Seconds those windows span.
    pub covered_s: f64,
    /// Requests completed in the covered windows.
    pub requests: u64,
    /// Failures in the covered windows.
    pub failures: u64,
    /// Function-level cache hits in the covered windows.
    pub cache_hits: u64,
    /// Function-level cache misses in the covered windows.
    pub cache_misses: u64,
    /// Requests per second over the covered span.
    pub rps: f64,
    /// Cache hit fraction (0 when no cache traffic).
    pub hit_rate: f64,
    /// Failure fraction (0 when no requests).
    pub error_rate: f64,
    /// Windowed service-time p50 (absent when no requests).
    pub p50_us: Option<u64>,
    /// Windowed service-time p99.
    pub p99_us: Option<u64>,
}

/// `num / den`, or 0 when `den` is 0.
fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Metrics {
    fn new(window_ms: u64, windows: usize) -> Metrics {
        Metrics {
            origin: Instant::now(),
            window_ms: window_ms.max(1),
            queue_depth: AtomicI64::new(0),
            busy_workers: AtomicI64::new(0),
            workers: AtomicI64::new(0),
            started: AtomicU64::new(0),
            inner: Mutex::new(MetricsInner {
                lifetime: Totals::default(),
                queue_wait_us: Histogram::new(),
                ring: vec![None; windows.max(1)],
            }),
        }
    }

    /// Microseconds since the service was built (the monotonic offset
    /// used by access-log timestamps).
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Records one completed request, now.
    fn record(&self, queue_wait_us: u64, service_us: u64, outcome: &Outcome) {
        self.record_at(self.now_us() / 1000, queue_wait_us, service_us, outcome);
    }

    /// Records one request completed at `now_ms` into the lifetime
    /// totals and its window, under one lock. A request whose slot
    /// already holds a newer window is left out of the ring, never
    /// folded into the newer window; the lifetime totals still count it.
    fn record_at(&self, now_ms: u64, queue_wait_us: u64, service_us: u64, outcome: &Outcome) {
        let id = now_ms / self.window_ms;
        let mut inner = self.inner.lock().unwrap();
        inner.queue_wait_us.record(queue_wait_us);
        inner.lifetime.record(service_us, outcome);
        let slot = (id % inner.ring.len() as u64) as usize;
        match &mut inner.ring[slot] {
            Some((cur, totals)) if *cur == id => totals.record(service_us, outcome),
            Some((cur, _)) if *cur > id => {}
            other => {
                let mut totals = Totals::default();
                totals.record(service_us, outcome);
                *other = Some((id, totals));
            }
        }
    }

    /// A consistent snapshot; gauges are read alongside the locked
    /// totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let uptime_us = self.now_us();
        MetricsSnapshot {
            started: self
                .started
                .load(Ordering::Relaxed)
                .max(inner.lifetime.requests()),
            uptime_us,
            now_ms: uptime_us / 1000,
            window_ms: self.window_ms,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            busy_workers: self.busy_workers.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            queue_wait_us: inner.queue_wait_us.clone(),
            lifetime: inner.lifetime.clone(),
            ring: inner.ring.clone(),
        }
    }
}

impl MetricsSnapshot {
    /// Rolling windows retained.
    pub fn windows(&self) -> usize {
        self.ring.len()
    }

    /// The last `n` windows ending at the current one, oldest first,
    /// with `None` for a window the ring does not hold (no request
    /// completed in it, or a newer window took its slot).
    pub fn series(&self, n: usize) -> Vec<Option<&Totals>> {
        let cur = self.now_ms / self.window_ms;
        let oldest = cur.saturating_sub(n.saturating_sub(1) as u64);
        (oldest..=cur)
            .map(|id| {
                let slot = &self.ring[(id % self.ring.len() as u64) as usize];
                slot.as_ref()
                    .filter(|(slot_id, _)| *slot_id == id)
                    .map(|(_, totals)| totals)
            })
            .collect()
    }

    /// Totals over the last `n` windows ending at the current one.
    pub fn recent(&self, n: usize) -> Totals {
        let mut sum = Totals::default();
        for totals in self.series(n).into_iter().flatten() {
            sum.merge(totals);
        }
        sum
    }

    /// Aggregates over the last `n` rolling windows, capped by the
    /// windows that have elapsed since startup (so rates are never
    /// diluted by time the daemon has not lived) and by the ring.
    pub fn windowed(&self, n: usize) -> Windowed {
        let elapsed_windows = (self.now_ms / self.window_ms) as usize + 1;
        let covered = n.max(1).min(elapsed_windows).min(self.windows());
        let t = self.recent(covered);
        let covered_s = covered as f64 * self.window_ms as f64 / 1000.0;
        Windowed {
            windows: covered,
            covered_s,
            requests: t.requests(),
            failures: t.failures,
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
            rps: t.requests() as f64 / covered_s,
            hit_rate: frac(t.cache_hits, t.cache_hits + t.cache_misses),
            error_rate: frac(t.failures, t.requests()),
            p50_us: t.service_us.percentile(0.50),
            p99_us: t.service_us.percentile(0.99),
        }
    }
}

/// One evaluated objective.
#[derive(Debug, Clone)]
pub struct SloEval {
    /// The objective.
    pub slo: Slo,
    /// Requests that violated the objective, over the retained
    /// horizon.
    pub bad: u64,
    /// Requests considered.
    pub total: u64,
    /// Fraction of the error budget consumed over the retained
    /// horizon (`bad_rate / allowed_rate`; > 1 means violated).
    pub budget_used: f64,
    /// Same ratio over the last [`SLO_RECENT_WINDOWS`] windows — how
    /// fast the budget is burning *right now* (1.0 = exactly on
    /// budget).
    pub burn_rate: f64,
    /// `budget_used > 1`.
    pub violated: bool,
}

/// Requests in a latency histogram over `threshold_us`: a bucket
/// straddling the threshold counts entirely against the budget
/// (conservative — see DESIGN.md).
fn slow_requests(hist: &Histogram, threshold_us: u64) -> u64 {
    hist.counts()
        .iter()
        .enumerate()
        .filter(|&(i, _)| marion_trace::hist::bucket_max(i) > threshold_us)
        .map(|(_, &c)| c)
        .sum()
}

/// Evaluates objectives against a snapshot's rolling windows: the
/// budget over the last `windows` windows (the ring's span, ending
/// now), the burn rate over the last [`SLO_RECENT_WINDOWS`]. A slot
/// older than that span counts for neither, though the ring may still
/// hold it. An empty horizon evaluates to a clean slate (nothing
/// violated).
pub fn evaluate_slos(snap: &MetricsSnapshot, slos: &[Slo]) -> Vec<SloEval> {
    let horizon = snap.recent(snap.windows());
    let recent = snap.recent(SLO_RECENT_WINDOWS);
    slos.iter()
        .map(|slo| {
            let bad_in = |t: &Totals| match slo.kind {
                SloKind::LatencyQuantile { threshold_us, .. } => {
                    slow_requests(&t.service_us, threshold_us)
                }
                SloKind::ErrorRate { .. } => t.failures,
            };
            let allowed = match slo.kind {
                SloKind::LatencyQuantile { q, .. } => 1.0 - q,
                SloKind::ErrorRate { max_rate } => max_rate,
            };
            let bad = bad_in(&horizon);
            let budget_used = frac(bad, horizon.requests()) / allowed;
            SloEval {
                slo: slo.clone(),
                bad,
                total: horizon.requests(),
                budget_used,
                burn_rate: frac(bad_in(&recent), recent.requests()) / allowed,
                violated: budget_used > 1.0,
            }
        })
        .collect()
}

/// Scans a flat-parsed `metrics` response for SLO verdicts, returning
/// the violated objective names. Used by `marion-report --check-slo`.
///
/// # Errors
///
/// When the line carries no SLO fields at all (the server was not
/// started with `--slo`, or the line is not a metrics response).
pub fn check_slo_fields(fields: &[(String, Value)]) -> Result<Vec<String>, String> {
    if fields.field("slo_count").is_none() {
        return Err(
            "no SLO fields in metrics line (was marion-serve started with --slo?)".to_string(),
        );
    }
    Ok(fields
        .iter()
        .filter_map(|(k, v)| {
            let name = k.strip_prefix("slo_")?.strip_suffix("_violated")?;
            (v.as_int() == Some(1)).then(|| name.to_string())
        })
        .collect())
}

/// A bounded JSONL access log: one line per served request, rotated
/// `PATH` → `PATH.1` (one rotated generation kept) before the active
/// file would exceed `max_bytes`. Writes are whole lines, so a reader
/// can `wc -l` mid-run and always see complete records.
struct AccessLog {
    path: PathBuf,
    file: std::fs::File,
    bytes: u64,
    max_bytes: u64,
    rotations: u64,
}

impl AccessLog {
    fn create(path: &Path, max_bytes: u64) -> io::Result<AccessLog> {
        Ok(AccessLog {
            path: path.to_path_buf(),
            file: std::fs::File::create(path)?,
            bytes: 0,
            max_bytes: max_bytes.max(1),
            rotations: 0,
        })
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        let len = line.len() as u64 + 1;
        if self.bytes > 0 && self.bytes + len > self.max_bytes {
            let rotated = PathBuf::from(format!("{}.1", self.path.display()));
            std::fs::rename(&self.path, &rotated)?;
            self.file = std::fs::File::create(&self.path)?;
            self.bytes = 0;
            self.rotations += 1;
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.bytes += len;
        Ok(())
    }
}

/// One tail-sampled slow compile: how it was served plus what a
/// replay needs, so a latency outlier links to its flamegraph.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The request's outcome, its `request_line` taken out into the
    /// field below.
    pub outcome: Outcome,
    /// The request line as received.
    pub request_line: String,
    /// Queue wait, microseconds.
    pub queue_wait_us: u64,
    /// Service time, microseconds.
    pub service_us: u64,
    /// Absolute rolling-window id the request completed in.
    pub window: u64,
}

/// What re-running an exemplar's request on a traced compiler with no
/// cache found ([`Service::dashboard_data`]).
#[derive(Debug, Clone)]
pub enum Replay {
    /// The replay reproduced the served statistics; its trace.
    Reproduced(TraceData),
    /// The replay compiled to other statistics than were served.
    Diverged(Served),
    /// The replay did not compile.
    Failed(String),
}

/// What a replay compiles: machine, strategy, `workload`, `source`.
type ReplayKey = (String, String, Option<String>, Option<String>);

/// Rolling windows retained by the tail sampler beyond the current
/// one, so an outlier survives long enough to be inspected.
const TAIL_KEEP_WINDOWS: usize = 4;

/// Keeps the `k` slowest traced requests per rolling window, plus the
/// last [`TAIL_KEEP_WINDOWS`] windows' survivors.
struct TailSampler {
    k: usize,
    window_ms: u64,
    cur_window: u64,
    cur: Vec<Exemplar>,
    recent: VecDeque<Vec<Exemplar>>,
}

impl TailSampler {
    fn new(k: usize, window_ms: u64) -> TailSampler {
        TailSampler {
            k,
            window_ms: window_ms.max(1),
            cur_window: 0,
            cur: Vec::new(),
            recent: VecDeque::new(),
        }
    }

    fn offer(&mut self, now_ms: u64, mut ex: Exemplar) {
        if self.k == 0 {
            return;
        }
        let window = now_ms / self.window_ms;
        ex.window = window;
        if window > self.cur_window {
            if !self.cur.is_empty() {
                self.recent.push_front(std::mem::take(&mut self.cur));
                while self.recent.len() > TAIL_KEEP_WINDOWS {
                    self.recent.pop_back();
                }
            }
            self.cur_window = window;
        }
        // Keep `cur` sorted slowest-first and bounded at k.
        let pos = self
            .cur
            .iter()
            .position(|e| e.service_us < ex.service_us)
            .unwrap_or(self.cur.len());
        if pos < self.k {
            self.cur.insert(pos, ex);
            self.cur.truncate(self.k);
        }
    }

    /// All retained exemplars, slowest first.
    fn exemplars(&self) -> Vec<Exemplar> {
        let mut all: Vec<Exemplar> = self
            .cur
            .iter()
            .chain(self.recent.iter().flatten())
            .cloned()
            .collect();
        all.sort_by_key(|e| std::cmp::Reverse(e.service_us));
        all
    }
}

/// One sparkline: a fixed-shape array of per-window values, oldest
/// first (empty windows are zero).
#[derive(Debug, Clone)]
pub struct SeriesView {
    /// Display title, unit included.
    pub title: String,
    /// Per-window values, oldest first.
    pub points: Vec<f64>,
}

/// Everything `html::render_dashboard` needs, assembled by
/// [`Service::dashboard_data`].
#[derive(Debug, Clone)]
pub struct DashboardData {
    /// The metrics snapshot the page was built from.
    pub snap: MetricsSnapshot,
    /// Aggregates over the last [`SLO_RECENT_WINDOWS`] windows.
    pub windowed: Windowed,
    /// Sparkline series (requests/s, p99, p50, hit rate, error rate).
    pub series: Vec<SeriesView>,
    /// Evaluated objectives.
    pub slos: Vec<SloEval>,
    /// Tail-sampled slow requests, slowest first, each with its replay.
    pub exemplars: Vec<(Exemplar, Replay)>,
    /// Lifetime cache hit rate, when the cache is enabled.
    pub cache_hit_rate: Option<f64>,
}

/// The dashboard's sparklines, one point per rolling window the ring
/// spans, oldest first (windows it does not hold are zero).
fn sparklines(snap: &MetricsSnapshot) -> Vec<SeriesView> {
    let windows = snap.series(snap.windows());
    let per_window_s = snap.window_ms as f64 / 1000.0;
    let line = |title: &str, point: &dyn Fn(&Totals) -> f64| SeriesView {
        title: title.to_string(),
        points: windows.iter().map(|w| w.map_or(0.0, point)).collect(),
    };
    vec![
        line("requests / s", &|t| t.requests() as f64 / per_window_s),
        line("service p99 (us)", &|t| {
            t.service_us.percentile(0.99).unwrap_or(0) as f64
        }),
        line("service p50 (us)", &|t| {
            t.service_us.percentile(0.50).unwrap_or(0) as f64
        }),
        line("cache hit rate (%)", &|t| {
            frac(t.cache_hits, t.cache_hits + t.cache_misses) * 100.0
        }),
        line("error rate (%)", &|t| {
            frac(t.failures, t.requests()) * 100.0
        }),
    ]
}

/// The compile service: compilers are built once and shared, parsed
/// modules are kept (float constants already materialised) for the
/// [`MODULE_CAPACITY`] most recently used workloads and sources, and
/// compiled functions come from the content-addressed cache when
/// enabled. `Service` is `Sync` — share one instance across however
/// many worker threads or connections you like.
pub struct Service {
    cache: Option<Arc<FuncCache>>,
    jobs: Option<NonZeroUsize>,
    compilers: Mutex<HashMap<(String, String), Arc<Compiler>>>,
    /// Keyed by [`module_key`]; one shard, so eviction is exact LRU.
    modules: ShardedCache<Arc<marion_ir::Module>>,
    metrics: Metrics,
    exemplars_on: bool,
    slos: Vec<Slo>,
    access: Option<Mutex<AccessLog>>,
    tail: Mutex<TailSampler>,
}

impl Service {
    /// Builds a service (opening the disk store and access log when
    /// configured).
    ///
    /// # Errors
    ///
    /// I/O failures opening the disk store or creating the access log.
    pub fn new(config: &ServeConfig) -> io::Result<Service> {
        let cache = if config.cache {
            Some(match &config.cache_disk {
                Some(path) => {
                    let (cache, _load) = FuncCache::with_disk(config.cache_capacity, path)?;
                    Arc::new(cache)
                }
                None => Arc::new(FuncCache::in_memory(config.cache_capacity)),
            })
        } else {
            None
        };
        let access = match &config.access_log {
            Some(path) => Some(Mutex::new(AccessLog::create(
                path,
                config.access_log_max_bytes,
            )?)),
            None => None,
        };
        Ok(Service {
            cache,
            jobs: config.jobs,
            compilers: Mutex::new(HashMap::new()),
            modules: ShardedCache::with_shards(MODULE_CAPACITY, 1),
            metrics: Metrics::new(config.window_ms, config.windows),
            exemplars_on: config.exemplars,
            slos: config.slos.clone(),
            access,
            tail: Mutex::new(TailSampler::new(config.tail_k, config.window_ms)),
        })
    }

    /// The shared compile cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<FuncCache>> {
        self.cache.as_ref()
    }

    /// The service-level metrics (cumulative across streams).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The configured objectives.
    pub fn slos(&self) -> &[Slo] {
        &self.slos
    }

    /// Records a completed request everywhere at once: metrics (its
    /// lifetime and window totals), one access-log line, and — when the outcome
    /// carries a request line — the tail sampler. [`run_stream`] calls this
    /// exactly once per request, which is what makes "access-log lines
    /// == requests served" exact.
    pub fn observe_request(&self, queue_wait_us: u64, service_us: u64, outcome: &mut Outcome) {
        self.metrics.record(queue_wait_us, service_us, outcome);
        let now_us = self.metrics.now_us();
        if let Some(access) = &self.access {
            let mut obj = ObjWriter::new();
            obj.str("request_id", &format!("r{}", outcome.request_id));
            obj.int("id", outcome.client_id);
            obj.int("ts_us", i64::try_from(now_us).unwrap_or(i64::MAX));
            obj.str("cmd", outcome.cmd);
            obj.str("machine", &outcome.machine);
            obj.str("strategy", &outcome.strategy);
            obj.int("funcs", outcome.funcs as i64);
            obj.int(
                "queue_wait_us",
                i64::try_from(queue_wait_us).unwrap_or(i64::MAX),
            );
            obj.int("service_us", i64::try_from(service_us).unwrap_or(i64::MAX));
            obj.int("cache_hits", outcome.cache_hits as i64);
            obj.int("cache_misses", outcome.cache_misses as i64);
            obj.int("ok", (!outcome.failed) as i64);
            let line = obj.finish();
            let mut log = access.lock().unwrap();
            if let Err(e) = log.write_line(&line) {
                eprintln!("marion-serve: access log write failed: {e}");
            }
        }
        if let Some(request_line) = outcome.request_line.take() {
            if !outcome.failed {
                self.tail.lock().unwrap().offer(
                    now_us / 1000,
                    Exemplar {
                        outcome: outcome.clone(),
                        request_line,
                        queue_wait_us,
                        service_us,
                        window: 0, // set by offer
                    },
                );
            }
        }
    }

    /// Everything the dashboard page shows, gathered consistently;
    /// every retained exemplar is judged against a replay of its
    /// request, and exemplars of the same compile share one.
    pub fn dashboard_data(&self) -> DashboardData {
        let snap = self.metrics.snapshot();
        let windowed = snap.windowed(SLO_RECENT_WINDOWS);
        let slos = evaluate_slos(&snap, &self.slos);
        // Release the sampler's lock before replaying: replays take
        // milliseconds, and every served request offers to the sampler.
        let exemplars = self.tail.lock().unwrap().exemplars();
        let mut replays = HashMap::new();
        let exemplars = exemplars
            .into_iter()
            .map(|ex| {
                let replay = self.replay(&ex, &mut replays);
                (ex, replay)
            })
            .collect();
        let cache_hit_rate = self.cache.as_ref().map(|c| c.stats().hit_rate());
        let series = sparklines(&snap);
        DashboardData {
            snap,
            windowed,
            series,
            slos,
            exemplars,
            cache_hit_rate,
        }
    }

    /// Re-runs an exemplar's request on a traced compiler with no
    /// cache (same machine and strategy), so its profile describes a
    /// cold compile of what was served. The replay must reproduce the
    /// served statistics; otherwise it reports how it diverged. Each
    /// distinct request compiles once: exemplars with the same
    /// machine, strategy, `workload` and `source` (whatever their `id`
    /// and `emit_asm`) are judged against the one replay kept in
    /// `replays`.
    fn replay(
        &self,
        ex: &Exemplar,
        replays: &mut HashMap<ReplayKey, Result<CompiledProgram, String>>,
    ) -> Replay {
        let req = match parse_request(&ex.request_line) {
            Ok(req) => req,
            Err(e) => return Replay::Failed(e),
        };
        let key = (
            req.machine.clone(),
            req.strategy.clone(),
            req.workload.clone(),
            req.source.clone(),
        );
        let compiled = replays.entry(key).or_insert_with(|| {
            let module = self.module_for(&req)?;
            let options = CompileOptions {
                jobs: self.jobs,
                trace: Some(TraceConfig::default()),
                ..CompileOptions::default()
            };
            let compiler = build_compiler(&req.machine, &req.strategy, options)?;
            compiler
                .compile_module(&module)
                .map_err(|e| format!("compile: {e}"))
        });
        match compiled {
            Err(e) => Replay::Failed(e.clone()),
            Ok(program) if Served::of(&program.stats) != ex.outcome.served => {
                Replay::Diverged(Served::of(&program.stats))
            }
            Ok(program) => Replay::Reproduced(program.trace.clone().unwrap_or_default()),
        }
    }

    fn compiler(&self, machine: &str, strategy: &str) -> Result<Arc<Compiler>, String> {
        let key = (machine.to_string(), strategy.to_string());
        if let Some(c) = self.compilers.lock().unwrap().get(&key) {
            return Ok(c.clone());
        }
        let options = CompileOptions {
            jobs: self.jobs,
            cache: self.cache.clone(),
            ..CompileOptions::default()
        };
        let compiler = Arc::new(build_compiler(machine, strategy, options)?);
        self.compilers
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(compiler.clone());
        Ok(compiler)
    }

    fn module_for(&self, req: &Request) -> Result<Arc<marion_ir::Module>, String> {
        let key = module_key(req)?;
        if let Some(m) = self.modules.get(key) {
            return Ok(m);
        }
        let mut module = match (&req.workload, &req.source) {
            (Some(w), _) if w == "livermore" => marion_workloads::multi::combined_livermore(),
            (Some(w), _) => match w.strip_prefix("gen:").and_then(|rest| {
                let (count, seed) = rest.split_once(':')?;
                Some((count.parse::<u64>().ok()?, seed.parse::<u64>().ok()?))
            }) {
                Some((count, _)) if count > MAX_GEN_COUNT => {
                    return Err(format!(
                        "workload `{w}`: count {count} is over the limit of {MAX_GEN_COUNT}"
                    ))
                }
                Some((count, seed)) => marion_workloads::multi::combined_generated(count, seed),
                None => {
                    return Err(format!(
                        "unknown workload `{w}` (have: livermore, gen:<count>:<seed>)"
                    ))
                }
            },
            (None, Some(source)) => {
                marion_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?
            }
            (None, None) => unreachable!(),
        };
        // Compiles then borrow the module instead of materialising a
        // copy per request.
        materialize_float_constants(&mut module);
        let module = Arc::new(module);
        self.modules.insert(key, module.clone());
        Ok(module)
    }

    /// Handles one raw request line, returning the response line and
    /// its accounting. Assigns the stable `request_id` echoed in every
    /// response.
    pub fn handle_line(&self, line: &str) -> (String, Outcome) {
        let rid = self.metrics.started.fetch_add(1, Ordering::Relaxed) + 1;
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                let mut out = outcome(rid, 0, "invalid");
                out.failed = true;
                return (error_response(0, rid, &e), out);
            }
        };
        match req.cmd {
            Cmd::Compile => self.handle_compile(&req, line, rid),
            Cmd::Stats => (
                self.stats_response(req.id, rid),
                outcome(rid, req.id, "stats"),
            ),
            Cmd::Metrics => (
                self.metrics_response(req.id, rid),
                outcome(rid, req.id, "metrics"),
            ),
            Cmd::Machines => (
                machines_response(req.id, rid),
                outcome(rid, req.id, "machines"),
            ),
            Cmd::Capabilities => (
                capabilities_response(req.id, rid),
                outcome(rid, req.id, "capabilities"),
            ),
            Cmd::Dashboard => (
                self.dashboard_response(req.id, rid),
                outcome(rid, req.id, "dashboard"),
            ),
            Cmd::Shutdown => {
                let mut obj = ObjWriter::new();
                obj.int("id", req.id);
                write_request_id(&mut obj, rid);
                obj.int("ok", 1);
                obj.str("cmd", "shutdown");
                (obj.finish(), outcome(rid, req.id, "shutdown"))
            }
        }
    }

    fn handle_compile(&self, req: &Request, line: &str, rid: u64) -> (String, Outcome) {
        let fail = |e: String| {
            let mut out = outcome(rid, req.id, "compile");
            out.failed = true;
            out.machine = req.machine.clone();
            out.strategy = req.strategy.clone();
            (error_response(req.id, rid, &e), out)
        };
        let compiler = match self.compiler(&req.machine, &req.strategy) {
            Ok(c) => c,
            Err(e) => return fail(e),
        };
        let module = match self.module_for(req) {
            Ok(m) => m,
            Err(e) => return fail(e),
        };
        let start = Instant::now();
        let program = match compiler.compile_module(&module) {
            Ok(p) => p,
            Err(e) => return fail(format!("compile: {e}")),
        };
        let wall_us = start.elapsed().as_micros() as i64;
        let summary = program.cache.unwrap_or_default();
        let served = Served::of(&program.stats);
        let mut obj = ObjWriter::new();
        obj.int("id", req.id);
        write_request_id(&mut obj, rid);
        obj.int("ok", 1);
        obj.str("machine", &program.machine_name);
        obj.str("strategy", program.strategy.name());
        obj.int("funcs", program.stats.per_func.len() as i64);
        obj.int("insts", served.insts as i64);
        obj.int("spills", served.spills as i64);
        obj.int("estimated_cycles", served.estimated_cycles as i64);
        obj.int("nops", served.nops as i64);
        obj.int("cache_hits", summary.hits as i64);
        obj.int("cache_misses", summary.misses as i64);
        obj.int("wall_us", wall_us);
        if req.emit_asm {
            obj.str("asm", &program.render(compiler.machine()));
        }
        (
            obj.finish(),
            Outcome {
                request_id: rid,
                client_id: req.id,
                cmd: "compile",
                machine: program.machine_name.clone(),
                strategy: program.strategy.name().to_string(),
                funcs: program.stats.per_func.len() as u64,
                cache_hits: summary.hits,
                cache_misses: summary.misses,
                failed: false,
                served,
                request_line: self.exemplars_on.then(|| line.to_string()),
            },
        )
    }

    fn stats_response(&self, id: i64, rid: u64) -> String {
        let mut obj = ObjWriter::new();
        obj.int("id", id);
        write_request_id(&mut obj, rid);
        obj.int("ok", 1);
        match &self.cache {
            Some(cache) => {
                let stats = cache.stats();
                obj.int("cache_enabled", 1);
                obj.int("entries", cache.len() as i64);
                obj.int("hits", stats.hits as i64);
                obj.int("misses", stats.misses as i64);
                obj.int("insertions", stats.insertions as i64);
                obj.int("evictions", stats.evictions as i64);
                obj.float("hit_rate", stats.hit_rate());
                if let Some(load) = cache.disk_load() {
                    obj.int("disk_loaded", load.loaded as i64);
                    obj.int("disk_corrupt", load.corrupt as i64);
                }
            }
            None => obj.int("cache_enabled", 0),
        }
        obj.finish()
    }

    fn metrics_response(&self, id: i64, rid: u64) -> String {
        let snap = self.metrics.snapshot();
        let win = snap.windowed(SLO_RECENT_WINDOWS);
        let mut obj = ObjWriter::new();
        obj.int("id", id);
        write_request_id(&mut obj, rid);
        obj.int("ok", 1);
        obj.int("format_version", METRICS_FORMAT_VERSION);
        obj.float("uptime_s", snap.uptime_us as f64 / 1e6);
        let requests = snap.lifetime.requests();
        obj.int("requests", requests as i64);
        obj.int("failures", snap.lifetime.failures as i64);
        obj.int("started_requests", snap.started as i64);
        obj.int("in_flight", snap.started.saturating_sub(requests) as i64);
        obj.int("queue_depth", snap.queue_depth);
        obj.int("busy_workers", snap.busy_workers);
        obj.int("workers", snap.workers);
        obj.int("window_ms", snap.window_ms as i64);
        obj.int("windows", snap.windows() as i64);
        obj.int("win_windows", win.windows as i64);
        obj.float("win_covered_s", win.covered_s);
        obj.int("win_requests", win.requests as i64);
        obj.float("win_rps", win.rps);
        obj.float("win_hit_rate", win.hit_rate);
        obj.float("win_error_rate", win.error_rate);
        if let Some(p) = win.p50_us {
            obj.int("win_p50_us", i64::try_from(p).unwrap_or(i64::MAX));
        }
        if let Some(p) = win.p99_us {
            obj.int("win_p99_us", i64::try_from(p).unwrap_or(i64::MAX));
        }
        write_hist(&mut obj, "service", &snap.lifetime.service_us);
        write_hist(&mut obj, "queue_wait", &snap.queue_wait_us);
        if let Some(cache) = &self.cache {
            let stats = cache.stats();
            obj.int("cache_hits", stats.hits as i64);
            obj.int("cache_misses", stats.misses as i64);
            obj.int("cache_evictions", stats.evictions as i64);
            obj.float("cache_hit_rate", stats.hit_rate());
        }
        let evals = evaluate_slos(&snap, &self.slos);
        obj.int("slo_count", evals.len() as i64);
        let mut violations = 0i64;
        for eval in &evals {
            let name = &eval.slo.name;
            obj.float(&format!("slo_{name}_target"), eval.slo.target);
            obj.float(&format!("slo_{name}_budget_used"), eval.budget_used);
            obj.float(&format!("slo_{name}_burn_rate"), eval.burn_rate);
            obj.int(&format!("slo_{name}_violated"), eval.violated as i64);
            violations += eval.violated as i64;
        }
        obj.int("slo_violations", violations);
        obj.finish()
    }

    fn dashboard_response(&self, id: i64, rid: u64) -> String {
        let html = crate::html::render_dashboard(&self.dashboard_data());
        let mut obj = ObjWriter::new();
        obj.int("id", id);
        write_request_id(&mut obj, rid);
        obj.int("ok", 1);
        obj.str("cmd", "dashboard");
        obj.int("bytes", html.len() as i64);
        obj.str("html", &html);
        obj.finish()
    }
}

/// The module map's key: a stable hash of the request's `workload`
/// name or inline `source` text.
fn module_key(req: &Request) -> Result<CacheKey, String> {
    let mut h = StableHasher::new();
    match (&req.workload, &req.source) {
        (Some(w), _) => {
            h.write_str("workload");
            h.write_str(w);
        }
        (None, Some(s)) => {
            h.write_str("source");
            h.write_str(s);
        }
        (None, None) => return Err("request needs `workload` or `source`".to_string()),
    }
    Ok(h.finish())
}

/// Builds a compiler for a served machine and a strategy name.
fn build_compiler(
    machine: &str,
    strategy: &str,
    options: CompileOptions,
) -> Result<Compiler, String> {
    if !marion_machines::EXTENDED.contains(&machine) {
        return Err(format!(
            "unknown machine `{machine}` (have: {})",
            marion_machines::EXTENDED.join(", ")
        ));
    }
    let kind =
        StrategyKind::parse(strategy).ok_or_else(|| format!("unknown strategy `{strategy}`"))?;
    let spec = marion_machines::load(machine);
    Ok(Compiler::with_options(
        spec.machine,
        spec.escapes,
        kind,
        options,
    ))
}

fn write_request_id(obj: &mut ObjWriter, rid: u64) {
    obj.str("request_id", &format!("r{rid}"));
}

/// Writes one histogram into a flat response as `<prefix>_count`,
/// `<prefix>_sum_us`, `<prefix>_p50_us`/`p90`/`p99` (percentiles
/// omitted when empty), and the sparse `<prefix>_buckets` string
/// ([`Histogram::encode_counts`]).
fn write_hist(obj: &mut ObjWriter, prefix: &str, hist: &Histogram) {
    obj.int(&format!("{prefix}_count"), hist.count() as i64);
    obj.int(
        &format!("{prefix}_sum_us"),
        i64::try_from(hist.sum()).unwrap_or(i64::MAX),
    );
    for (label, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        if let Some(v) = hist.percentile(p) {
            obj.int(
                &format!("{prefix}_{label}_us"),
                i64::try_from(v).unwrap_or(i64::MAX),
            );
        }
    }
    obj.str(&format!("{prefix}_buckets"), &hist.encode_counts());
}

/// The `machines` response: everything a client needs to discover
/// before issuing compile requests.
fn machines_response(id: i64, rid: u64) -> String {
    let strategies: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.name()).collect();
    let mut obj = ObjWriter::new();
    obj.int("id", id);
    write_request_id(&mut obj, rid);
    obj.int("ok", 1);
    obj.str("machines", &marion_machines::EXTENDED.join(","));
    obj.str("strategies", &strategies.join(","));
    obj.int("protocol_version", PROTOCOL_VERSION);
    obj.int("cache_format_version", marion_core::fcache::FORMAT_VERSION);
    obj.finish()
}

/// The `capabilities` response: per-machine scheduling detail so a
/// client can pick a target without consulting the Maril sources.
///
/// For each served machine: `<name>_issue_width` (long-word elements,
/// min 1 for single-issue targets), `<name>_clocks` (declared temporal
/// clocks), `<name>_reg_classes` (`class:count` pairs), and
/// `<name>_temporals` (`latch@clock` pairs).
fn capabilities_response(id: i64, rid: u64) -> String {
    let mut obj = ObjWriter::new();
    obj.int("id", id);
    write_request_id(&mut obj, rid);
    obj.int("ok", 1);
    obj.int("protocol_version", PROTOCOL_VERSION);
    obj.str("machines", &marion_machines::EXTENDED.join(","));
    for name in marion_machines::EXTENDED {
        let machine = marion_machines::load(name).machine;
        let issue_width = machine.elements().len().max(1);
        obj.int(
            &format!("{name}_issue_width"),
            i64::try_from(issue_width).unwrap_or(i64::MAX),
        );
        obj.str(&format!("{name}_clocks"), &machine.clocks().join(","));
        let classes: Vec<String> = machine
            .reg_classes()
            .iter()
            .map(|c| format!("{}:{}", c.name, c.count))
            .collect();
        obj.str(&format!("{name}_reg_classes"), &classes.join(","));
        let temporals: Vec<String> = machine
            .temporals()
            .iter()
            .map(|t| format!("{}@{}", t.name, machine.clocks()[t.clock.0 as usize]))
            .collect();
        obj.str(&format!("{name}_temporals"), &temporals.join(","));
    }
    obj.finish()
}

fn error_response(id: i64, rid: u64, error: &str) -> String {
    let mut obj = ObjWriter::new();
    obj.int("id", id);
    write_request_id(&mut obj, rid);
    obj.int("ok", 0);
    obj.str("error", error);
    obj.finish()
}

fn is_shutdown(line: &str) -> bool {
    matches!(parse_request(line), Ok(req) if req.cmd == Cmd::Shutdown)
}

/// Serves `input` to `output`: requests dispatch to `workers` threads
/// through a bounded queue of `queue` entries (backpressure — the
/// reader blocks when the pool is saturated), and responses stream
/// back **in request order**. Returns after end-of-input or a
/// `shutdown` request, with every queued request answered.
///
/// # Errors
///
/// I/O failures reading `input` or writing `output`.
///
/// # Panics
///
/// Panics if a worker thread panics (poisoned internal channels).
pub fn run_stream<R: BufRead, W: Write + Send>(
    service: &Service,
    input: R,
    output: W,
    workers: usize,
    queue: usize,
) -> io::Result<ServeStats> {
    let workers = workers.max(1);
    let queue = queue.max(1);
    let metrics = service.metrics();
    metrics.workers.store(workers as i64, Ordering::Relaxed);
    let (work_tx, work_rx) = mpsc::sync_channel::<(u64, String, Instant)>(queue);
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<(u64, String)>();
    let requests = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);

    let (read_result, write_result) = std::thread::scope(|s| {
        let writer = s.spawn(move || -> io::Result<()> {
            let mut out = output;
            let mut pending: BTreeMap<u64, String> = BTreeMap::new();
            let mut next = 0u64;
            for (seq, line) in done_rx {
                pending.insert(seq, line);
                while let Some(line) = pending.remove(&next) {
                    out.write_all(line.as_bytes())?;
                    out.write_all(b"\n")?;
                    out.flush()?;
                    next += 1;
                }
            }
            Ok(())
        });
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let work_rx = &work_rx;
            let requests = &requests;
            let failures = &failures;
            let hits = &hits;
            let misses = &misses;
            s.spawn(move || loop {
                let msg = work_rx.lock().unwrap().recv();
                let Ok((seq, line, enqueued)) = msg else {
                    break;
                };
                let queue_wait_us = enqueued.elapsed().as_micros() as u64;
                metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                metrics.busy_workers.fetch_add(1, Ordering::Relaxed);
                let served = Instant::now();
                let (response, mut outcome) = service.handle_line(&line);
                metrics.busy_workers.fetch_sub(1, Ordering::Relaxed);
                requests.fetch_add(1, Ordering::Relaxed);
                failures.fetch_add(outcome.failed as u64, Ordering::Relaxed);
                hits.fetch_add(outcome.cache_hits, Ordering::Relaxed);
                misses.fetch_add(outcome.cache_misses, Ordering::Relaxed);
                // Observed *after* handle_line, so a `metrics` request
                // snapshots only requests completed before it — and
                // the bucket-count/request/access-log-line equalities
                // stay exact.
                service.observe_request(
                    queue_wait_us,
                    served.elapsed().as_micros() as u64,
                    &mut outcome,
                );
                if done_tx.send((seq, response)).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);

        // Read on the calling thread; `send` blocks when the queue is
        // full, which is the backpressure.
        let read = (|| -> io::Result<()> {
            let mut seq = 0u64;
            for line in input.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let stop = is_shutdown(&line);
                metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                if work_tx.send((seq, line, Instant::now())).is_err() {
                    metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    break;
                }
                seq += 1;
                if stop {
                    break;
                }
            }
            Ok(())
        })();
        drop(work_tx);
        (read, writer.join().expect("writer thread panicked"))
    });
    read_result?;
    write_result?;
    Ok(ServeStats {
        requests: requests.into_inner(),
        failures: failures.into_inner(),
        cache_hits: hits.into_inner(),
        cache_misses: misses.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_trace::Value;

    fn respond(service: &Service, requests: &str, workers: usize) -> (Vec<String>, ServeStats) {
        let mut out: Vec<u8> = Vec::new();
        let stats = run_stream(service, requests.as_bytes(), &mut out, workers, 4).expect("stream");
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        (lines, stats)
    }

    fn field(line: &str, name: &str) -> Option<Value> {
        parse_flat(line).unwrap().field(name).cloned()
    }

    #[test]
    fn compile_request_round_trips_and_second_hits_cache() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let req = r#"{"id":1,"cmd":"compile","machine":"toyp","strategy":"Postpass","source":"int main() { return 41 + 1; }","emit_asm":1}"#;
        let requests = format!("{req}\n{}\n", req.replace("\"id\":1", "\"id\":2"));
        let (lines, stats) = respond(&service, &requests, 1);
        assert_eq!(lines.len(), 2);
        assert_eq!(field(&lines[0], "ok"), Some(Value::Int(1)));
        assert_eq!(field(&lines[0], "cache_hits"), Some(Value::Int(0)));
        assert_eq!(field(&lines[0], "cache_misses"), Some(Value::Int(1)));
        assert_eq!(field(&lines[1], "cache_hits"), Some(Value::Int(1)));
        assert_eq!(field(&lines[1], "cache_misses"), Some(Value::Int(0)));
        // Identical output either way.
        assert_eq!(field(&lines[0], "asm"), field(&lines[1], "asm"));
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn module_map_stays_bounded_and_evicted_sources_answer_the_same() {
        let service = Service::new(&ServeConfig {
            exemplars: false,
            ..ServeConfig::default()
        })
        .unwrap();
        let line = |id: usize, body: &str| {
            format!(r#"{{"id":{id},"machine":"toyp","strategy":"IPS",{body}}}"#)
        };
        let compile = |id: usize, body: &str| {
            let (response, out) = service.handle_line(&line(id, body));
            assert!(!out.failed, "{response}");
            response
        };
        let answer = |response: &str| {
            ["insts", "spills", "estimated_cycles"].map(|name| field(response, name))
        };
        let source =
            |i: usize| format!(r#""source":"int main() {{ int x = {i}; return x * 3 + x / 2; }}""#);
        let hot = r#""workload":"gen:2:5""#;

        let first = compile(0, &source(0));
        let hot_cold = compile(1, hot);
        assert_eq!(field(&hot_cold, "cache_hits"), Some(Value::Int(0)));
        for i in 1..=MODULE_CAPACITY + 8 {
            compile(i + 1, &source(i));
            assert!(service.modules.len() <= MODULE_CAPACITY);
            if i % 16 == 0 {
                let warm = compile(0, hot);
                assert_eq!(field(&warm, "cache_misses"), Some(Value::Int(0)));
                assert_eq!(field(&warm, "cache_hits"), field(&warm, "funcs"));
                assert_eq!(answer(&warm), answer(&hot_cold));
            }
        }
        assert_eq!(service.modules.len(), MODULE_CAPACITY);
        let evicted = module_key(&parse_request(&line(0, &source(0))).unwrap()).unwrap();
        assert!(
            service.modules.get(evicted).is_none(),
            "the least recently used source is evicted"
        );
        let again = compile(0, &source(0));
        assert_eq!(answer(&again), answer(&first));
        assert_eq!(field(&again, "cache_misses"), Some(Value::Int(0)));
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        // Mix heavy (livermore) and trivial requests so out-of-order
        // completion is likely, then check ordering by id.
        let mut requests = String::new();
        for id in 0..6 {
            if id % 2 == 0 {
                requests.push_str(&format!(
                    "{{\"id\":{id},\"machine\":\"r2000\",\"strategy\":\"Postpass\",\"workload\":\"gen:2:7\"}}\n"
                ));
            } else {
                requests.push_str(&format!(
                    "{{\"id\":{id},\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() {{ return {id}; }}\"}}\n"
                ));
            }
        }
        let (lines, stats) = respond(&service, &requests, 4);
        assert_eq!(lines.len(), 6);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(field(line, "id"), Some(Value::Int(i as i64)), "line {i}");
            assert_eq!(field(line, "ok"), Some(Value::Int(1)), "line {i}");
        }
        assert_eq!(stats.requests, 6);
    }

    #[test]
    fn bad_requests_fail_without_killing_the_stream() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let requests = concat!(
            "{\"id\":1,\"machine\":\"vax\",\"strategy\":\"IPS\",\"workload\":\"livermore\"}\n",
            "not json at all\n",
            "{\"id\":3,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 0; }\"}\n",
        );
        let (lines, stats) = respond(&service, requests, 2);
        assert_eq!(lines.len(), 3);
        assert_eq!(field(&lines[0], "ok"), Some(Value::Int(0)));
        assert!(field(&lines[0], "error")
            .and_then(|v| v.as_str().map(|s| s.contains("unknown machine")))
            .unwrap_or(false));
        assert_eq!(field(&lines[1], "ok"), Some(Value::Int(0)));
        assert_eq!(field(&lines[2], "ok"), Some(Value::Int(1)));
        assert_eq!(stats.failures, 2);
    }

    #[test]
    fn deeply_nested_requests_fail_without_killing_the_stream() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let nest = "[".repeat(200_000) + &"]".repeat(200_000);
        let requests =
            format!("{{\"id\":1,\"source\":{nest}}}\n{nest}\n{{\"id\":3,\"cmd\":\"stats\"}}\n");
        let (lines, stats) = respond(&service, &requests, 1);
        assert_eq!(lines.len(), 3);
        assert_eq!(field(&lines[0], "ok"), Some(Value::Int(0)));
        assert_eq!(field(&lines[1], "ok"), Some(Value::Int(0)));
        assert_eq!(field(&lines[2], "ok"), Some(Value::Int(1)));
        assert_eq!(stats.failures, 2);
    }

    #[test]
    fn shutdown_answers_and_stops_reading() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let requests = concat!(
            "{\"id\":1,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 1; }\"}\n",
            "{\"id\":2,\"cmd\":\"shutdown\"}\n",
            "{\"id\":3,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 3; }\"}\n",
        );
        let (lines, stats) = respond(&service, requests, 2);
        assert_eq!(lines.len(), 2, "request after shutdown must not run");
        assert_eq!(field(&lines[1], "cmd"), Some(Value::Str("shutdown".into())));
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn stats_reports_cache_counters() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let requests = concat!(
            "{\"id\":1,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 1; }\"}\n",
            "{\"id\":2,\"cmd\":\"stats\"}\n",
        );
        let (lines, _) = respond(&service, requests, 1);
        assert_eq!(field(&lines[1], "cache_enabled"), Some(Value::Int(1)));
        assert_eq!(field(&lines[1], "entries"), Some(Value::Int(1)));
        assert_eq!(field(&lines[1], "misses"), Some(Value::Int(1)));
    }

    #[test]
    fn metrics_bucket_counts_exactly_equal_requests_served() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let mut requests = String::new();
        for id in 1..=5 {
            requests.push_str(&format!(
                "{{\"id\":{id},\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() {{ return {id}; }}\"}}\n"
            ));
        }
        requests.push_str("{\"id\":6,\"cmd\":\"metrics\"}\n");
        let (lines, stream_stats) = respond(&service, &requests, 1);
        assert_eq!(lines.len(), 6);
        let metrics = &lines[5];
        assert_eq!(field(metrics, "ok"), Some(Value::Int(1)));
        // Acceptance invariant: with one worker, the snapshot covers
        // exactly the five compiles served before it, and the
        // histogram bucket counts sum to that same number.
        assert_eq!(field(metrics, "requests"), Some(Value::Int(5)));
        assert_eq!(field(metrics, "service_count"), Some(Value::Int(5)));
        let buckets = field(metrics, "service_buckets").unwrap();
        let hist = Histogram::from_parts(buckets.as_str().unwrap(), 0).unwrap();
        assert_eq!(hist.count(), 5, "sum of bucket counts == requests");
        assert_eq!(field(metrics, "queue_wait_count"), Some(Value::Int(5)));
        assert_eq!(field(metrics, "workers"), Some(Value::Int(1)));
        assert_eq!(field(metrics, "failures"), Some(Value::Int(0)));
        // Percentiles exist once there is data.
        assert!(field(metrics, "service_p50_us").is_some());
        assert!(field(metrics, "service_p99_us").is_some());
        // The stream total counts the metrics request itself too.
        assert_eq!(stream_stats.requests, 6);
        // After the stream drains, the cumulative snapshot agrees with
        // the stream accounting and the invariant still holds.
        let snap = service.metrics().snapshot();
        assert_eq!(snap.lifetime.requests(), 6);
        assert_eq!(snap.queue_wait_us.count(), 6);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.busy_workers, 0);
    }

    #[test]
    fn metrics_snapshot_stays_consistent_under_concurrent_requests() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        // Many workers, interleaved compiles and metrics probes: every
        // snapshot must satisfy count(service_us) == requests, however
        // the threads interleave.
        let mut requests = String::new();
        for id in 0..24 {
            if id % 3 == 2 {
                requests.push_str(&format!("{{\"id\":{id},\"cmd\":\"metrics\"}}\n"));
            } else {
                requests.push_str(&format!(
                    "{{\"id\":{id},\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() {{ return {id}; }}\"}}\n"
                ));
            }
        }
        let (lines, stats) = respond(&service, &requests, 4);
        assert_eq!(lines.len(), 24);
        let mut probes = 0;
        for line in &lines {
            let Some(requests_seen) = field(line, "requests").and_then(|v| v.as_int()) else {
                continue;
            };
            probes += 1;
            assert_eq!(
                field(line, "service_count"),
                Some(Value::Int(requests_seen)),
                "snapshot torn: {line}"
            );
            let buckets = field(line, "service_buckets").unwrap();
            let hist = Histogram::from_parts(buckets.as_str().unwrap(), 0).unwrap();
            assert_eq!(hist.count(), requests_seen as u64, "buckets vs requests");
            // Gauges stay within configuration bounds.
            let busy = field(line, "busy_workers")
                .and_then(|v| v.as_int())
                .unwrap();
            assert!((0..=4).contains(&busy), "busy_workers {busy}");
        }
        assert_eq!(probes, 8);
        assert_eq!(stats.requests, 24);
        let snap = service.metrics().snapshot();
        assert_eq!(snap.lifetime.requests(), 24);
    }

    #[test]
    fn machines_lists_targets_strategies_and_versions() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let (lines, _) = respond(&service, "{\"id\":7,\"cmd\":\"machines\"}\n", 1);
        let line = &lines[0];
        assert_eq!(field(line, "ok"), Some(Value::Int(1)));
        let machines = field(line, "machines").unwrap();
        let machines = machines.as_str().unwrap();
        for m in marion_machines::EXTENDED {
            assert!(machines.split(',').any(|x| x == m), "missing {m}");
        }
        assert_eq!(
            field(line, "strategies"),
            Some(Value::Str("Postpass,IPS,RASE".into()))
        );
        assert_eq!(
            field(line, "protocol_version"),
            Some(Value::Int(PROTOCOL_VERSION))
        );
        assert_eq!(
            field(line, "cache_format_version"),
            Some(Value::Int(marion_core::fcache::FORMAT_VERSION))
        );
    }

    #[test]
    fn capabilities_reports_per_machine_detail() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let (lines, _) = respond(&service, "{\"id\":8,\"cmd\":\"capabilities\"}\n", 1);
        let line = &lines[0];
        assert_eq!(field(line, "ok"), Some(Value::Int(1)));
        assert_eq!(
            field(line, "protocol_version"),
            Some(Value::Int(PROTOCOL_VERSION))
        );
        for m in marion_machines::EXTENDED {
            let width = field(line, &format!("{m}_issue_width")).unwrap();
            let width = width.as_int().unwrap();
            assert!(width >= 1, "{m}: issue width {width}");
            assert!(field(line, &format!("{m}_clocks")).is_some(), "{m} clocks");
            let classes = field(line, &format!("{m}_reg_classes")).unwrap();
            let classes = classes.as_str().unwrap().to_string();
            // Every target declares at least one class, `name:count`.
            assert!(
                classes.split(',').all(|c| {
                    let (name, count) = c.split_once(':').unwrap_or(("", ""));
                    !name.is_empty() && count.parse::<u32>().is_ok()
                }),
                "{m}: bad reg_classes `{classes}`"
            );
        }
        // The i860 is the paper's LIW target: multiple long-word
        // elements, plus temporal latches on its adder/multiplier
        // clocks. Scalar machines report width 1.
        let width = field(line, "i860_issue_width").unwrap();
        assert!(width.as_int().unwrap() > 1, "i860 must be multi-issue");
        assert_eq!(
            field(line, "r2000_issue_width").and_then(|v| v.as_int()),
            Some(1)
        );
        let temporals = field(line, "i860_temporals").unwrap();
        assert!(
            temporals.as_str().unwrap().contains('@'),
            "i860 temporals should be latch@clock pairs"
        );
    }

    #[test]
    fn stats_reports_disk_load_and_corrupt_lines() {
        let dir = std::env::temp_dir().join(format!("marion-serve-stats-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("store.jsonl");
        // First service populates the disk store.
        {
            let service = Service::new(&ServeConfig {
                cache_disk: Some(store.clone()),
                ..ServeConfig::default()
            })
            .unwrap();
            let (lines, _) = respond(
                &service,
                "{\"id\":1,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 1; }\"}\n",
                1,
            );
            assert_eq!(field(&lines[0], "ok"), Some(Value::Int(1)));
        }
        // Corrupt the store with a garbage line, then reopen: `stats`
        // must report both what loaded and what was rejected.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&store)
            .unwrap();
        writeln!(f, "this is not a cache entry").unwrap();
        drop(f);
        let service = Service::new(&ServeConfig {
            cache_disk: Some(store.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let (lines, _) = respond(&service, "{\"id\":2,\"cmd\":\"stats\"}\n", 1);
        let line = &lines[0];
        assert_eq!(field(line, "cache_enabled"), Some(Value::Int(1)));
        assert_eq!(field(line, "disk_loaded"), Some(Value::Int(1)));
        assert_eq!(field(line, "disk_corrupt"), Some(Value::Int(1)));
        assert!(field(line, "insertions").is_some());
        assert!(field(line, "evictions").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_response_echoes_a_stable_request_id() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let requests = concat!(
            "{\"id\":10,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 1; }\"}\n",
            "{\"id\":11,\"cmd\":\"metrics\"}\n",
            "{\"id\":12,\"cmd\":\"machines\"}\n",
            "not json at all\n",
            "{\"id\":14,\"cmd\":\"shutdown\"}\n",
        );
        // One worker: request ids assign in stream order, 1-based.
        let (lines, stats) = respond(&service, requests, 1);
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(
                field(line, "request_id"),
                Some(Value::Str(format!("r{}", i + 1))),
                "line {i}"
            );
        }
        assert_eq!(stats.requests, 5);
    }

    #[test]
    fn access_log_lines_equal_requests_served_exactly() {
        let dir = std::env::temp_dir().join(format!("marion-access-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("access.jsonl");
        let service = Service::new(&ServeConfig {
            access_log: Some(log_path.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut requests = String::new();
        for id in 0..5 {
            requests.push_str(&format!(
                "{{\"id\":{id},\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() {{ return {id}; }}\"}}\n"
            ));
        }
        requests.push_str("bad line\n");
        requests.push_str("{\"id\":6,\"cmd\":\"metrics\"}\n");
        let (lines, stats) = respond(&service, &requests, 4);
        assert_eq!(stats.requests, 7);
        let log = std::fs::read_to_string(&log_path).unwrap();
        let log_lines: Vec<&str> = log.lines().collect();
        // The acceptance invariant: exactly one log line per request
        // served, even under concurrency, even for invalid requests.
        assert_eq!(log_lines.len(), 7, "log lines == requests served");
        let mut log_ids = Vec::new();
        for line in &log_lines {
            let fields = parse_flat(line).expect("log line parses");
            for key in [
                "request_id",
                "id",
                "ts_us",
                "cmd",
                "machine",
                "strategy",
                "funcs",
                "queue_wait_us",
                "service_us",
                "cache_hits",
                "cache_misses",
                "ok",
            ] {
                assert!(
                    fields.field(key).is_some(),
                    "log line missing `{key}`: {line}"
                );
            }
            log_ids.push(fields.str("request_id").unwrap().to_string());
        }
        log_ids.sort();
        log_ids.dedup();
        assert_eq!(log_ids.len(), 7, "request ids unique");
        // Every response's request_id has a matching log line.
        for line in &lines {
            let rid = field(line, "request_id").unwrap();
            let rid = rid.as_str().unwrap();
            assert!(
                log_lines
                    .iter()
                    .any(|l| parse_flat(l).unwrap().str("request_id") == Some(rid)),
                "response {rid} not in access log"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn access_log_rotates_and_stays_bounded() {
        let dir = std::env::temp_dir().join(format!("marion-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("access.jsonl");
        // Tiny cap: every line forces a rotation, so only the active
        // file plus one rotated generation survive.
        let service = Service::new(&ServeConfig {
            access_log: Some(log_path.clone()),
            access_log_max_bytes: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut requests = String::new();
        for id in 0..6 {
            requests.push_str(&format!("{{\"id\":{id},\"cmd\":\"stats\"}}\n"));
        }
        let (_, stats) = respond(&service, &requests, 1);
        assert_eq!(stats.requests, 6);
        let active = std::fs::read_to_string(&log_path).unwrap();
        let rotated = std::fs::read_to_string(format!("{}.1", log_path.display())).unwrap();
        assert_eq!(active.lines().count(), 1, "active file holds last line");
        assert_eq!(rotated.lines().count(), 1, "one rotated generation");
        // The newest record is in the active file.
        assert!(active.contains("\"request_id\":\"r6\""), "{active}");
        assert!(rotated.contains("\"request_id\":\"r5\""), "{rotated}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_sampler_keeps_k_slowest_per_window() {
        let ex = |rid: u64, service_us: u64| Exemplar {
            outcome: outcome(rid, rid as i64, "compile"),
            request_line: String::new(),
            queue_wait_us: 0,
            service_us,
            window: 0,
        };
        let mut sampler = TailSampler::new(2, 1000);
        for (rid, us) in [(1, 5), (2, 50), (3, 20), (4, 40)] {
            sampler.offer(100, ex(rid, us));
        }
        let kept: Vec<u64> = sampler
            .exemplars()
            .iter()
            .map(|e| e.outcome.request_id)
            .collect();
        assert_eq!(kept, [2, 4], "k slowest, slowest first");
        // A new window keeps the previous survivors around.
        sampler.offer(1500, ex(5, 7));
        let kept: Vec<u64> = sampler
            .exemplars()
            .iter()
            .map(|e| e.outcome.request_id)
            .collect();
        assert_eq!(kept, [2, 4, 5]);
        assert_eq!(sampler.exemplars()[2].window, 1);
        // Retention counts non-empty windows, so survivors outlive idle
        // gaps; only the oldest groups fall off the back.
        sampler.offer(1000 * (2 + TAIL_KEEP_WINDOWS as u64 + 2), ex(6, 1));
        let kept: Vec<u64> = sampler
            .exemplars()
            .iter()
            .map(|e| e.outcome.request_id)
            .collect();
        assert!(kept.contains(&6));
        assert_eq!(kept.len(), 4, "both earlier windows still retained");
        for _ in 0..TAIL_KEEP_WINDOWS as u64 {
            let w = sampler.cur_window + 1;
            sampler.offer(1000 * w, ex(100 + w, 1));
        }
        let kept: Vec<u64> = sampler
            .exemplars()
            .iter()
            .map(|e| e.outcome.request_id)
            .collect();
        assert!(
            !kept.contains(&2) && !kept.contains(&4),
            "window 0 aged out after {TAIL_KEEP_WINDOWS} newer non-empty windows: {kept:?}"
        );
    }

    #[test]
    fn dashboard_returns_self_contained_html_with_exemplar_flamegraph() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let requests = concat!(
            "{\"id\":1,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 6; }\"}\n",
            "{\"id\":2,\"cmd\":\"dashboard\"}\n",
        );
        let (lines, _) = respond(&service, requests, 1);
        let line = &lines[1];
        assert_eq!(field(line, "ok"), Some(Value::Int(1)));
        assert_eq!(field(line, "cmd"), Some(Value::Str("dashboard".into())));
        let html = field(line, "html").unwrap();
        let html = html.as_str().unwrap().to_string();
        assert_eq!(
            field(line, "bytes"),
            Some(Value::Int(html.len() as i64)),
            "bytes matches decoded html"
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("marion-serve dashboard"));
        // The compile was tail-sampled, replayed traced, and rendered
        // as a flamegraph titled as a replay.
        assert!(html.contains("Slowest requests"));
        assert!(html.contains("r1 \u{2014} toyp/Postpass"));
        assert!(html.contains("<svg"), "sparkline + flamegraph SVGs");
        assert!(
            html.contains("r1 replay: wall-clock attribution"),
            "flamegraph present"
        );
        // Same self-containment contract as report.html.
        assert!(!html.contains("http:") && !html.contains("https:"));
        assert!(!html.contains("src=") && !html.contains("href="));
        assert!(html.contains("<style>"));
    }

    #[test]
    fn warm_hit_exemplar_gets_a_replay_flame() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let req = r#"{"id":1,"machine":"r2000","strategy":"IPS","source":"int main() { int a; a = 3; return a * 7; }"}"#;
        let requests = format!("{req}\n{req}\n{{\"id\":3,\"cmd\":\"dashboard\"}}\n");
        let (lines, _) = respond(&service, &requests, 1);
        assert_eq!(field(&lines[1], "cache_misses"), Some(Value::Int(0)));
        let html = field(&lines[2], "html").unwrap();
        let html = html.as_str().unwrap();
        // Both the cold request and the fully warm one replay to a flame.
        assert!(html.contains("r1 replay: wall-clock attribution"), "{html}");
        assert!(html.contains("r2 replay: wall-clock attribution"), "{html}");
        assert!(!html.contains("diverged") && !html.contains("replay failed"));
        // The replay compiled cold, traced, and left the cache alone.
        let stats = service.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn identical_compiles_share_one_replay() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let compile = |id: u32, asm: bool| {
            format!(
                "{{\"id\":{id},\"machine\":\"toyp\",\"strategy\":\"IPS\",\"emit_asm\":{asm},\"source\":\"int main() {{ return 4; }}\"}}\n"
            )
        };
        let other = "{\"id\":4,\"machine\":\"toyp\",\"strategy\":\"RASE\",\"source\":\"int main() { return 4; }\"}\n";
        let requests = compile(1, false) + &compile(2, false) + &compile(3, true) + other;
        respond(&service, &requests, 1);
        let exemplars = service.tail.lock().unwrap().exemplars();
        assert_eq!(exemplars.len(), 4);
        let mut replays = HashMap::new();
        for ex in &exemplars {
            let replay = service.replay(ex, &mut replays);
            assert!(
                matches!(replay, Replay::Reproduced(_)),
                "r{}",
                ex.outcome.request_id
            );
        }
        assert_eq!(replays.len(), 2, "one replay per distinct compile");
        // The dashboard judges all three IPS exemplars against one
        // replay: they carry the very same trace, timings included.
        let data = service.dashboard_data();
        let trace_of = |rid: u64| {
            data.exemplars
                .iter()
                .find_map(|(ex, replay)| match replay {
                    Replay::Reproduced(trace) if ex.outcome.request_id == rid => Some(trace),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("r{rid} reproduced"))
        };
        assert_eq!(trace_of(1), trace_of(2));
        assert_eq!(trace_of(1), trace_of(3));
    }

    #[test]
    fn doctored_exemplars_are_shown_as_diverged_or_failed() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let req = r#"{"id":1,"machine":"toyp","strategy":"Postpass","source":"int main() { return 5; }"}"#;
        respond(&service, &format!("{req}\n"), 1);
        let ex = service.tail.lock().unwrap().cur[0].clone();
        assert!(matches!(
            service.replay(&ex, &mut HashMap::new()),
            Replay::Reproduced(_)
        ));
        // Record one instruction more than was really served.
        service.tail.lock().unwrap().cur[0].outcome.served.insts += 1;
        let (lines, _) = respond(&service, "{\"id\":2,\"cmd\":\"dashboard\"}\n", 1);
        let html = field(&lines[0], "html").unwrap();
        let html = html.as_str().unwrap();
        assert!(html.contains("r1 replay diverged"), "{html}");
        assert!(
            !html.contains("r1 replay: wall-clock attribution"),
            "{html}"
        );
        let doctored = service.tail.lock().unwrap().cur[0].clone();
        assert!(
            matches!(service.replay(&doctored, &mut HashMap::new()), Replay::Diverged(s) if s == ex.outcome.served)
        );
        // A request that no longer compiles is shown as failed.
        let broken = Exemplar {
            request_line: "not json".to_string(),
            ..ex
        };
        assert!(matches!(
            service.replay(&broken, &mut HashMap::new()),
            Replay::Failed(_)
        ));
    }

    #[test]
    fn gen_counts_are_bounded_and_seeds_wrap() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let over = MAX_GEN_COUNT + 1;
        let requests = format!(
            "{{\"id\":1,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"workload\":\"gen:{over}:1\"}}\n\
             {{\"id\":2,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"workload\":\"gen:2:{}\"}}\n\
             {{\"id\":3,\"cmd\":\"stats\"}}\n",
            u64::MAX
        );
        let (lines, stats) = respond(&service, &requests, 1);
        assert_eq!(lines.len(), 3);
        assert_eq!(field(&lines[0], "ok"), Some(Value::Int(0)));
        assert!(field(&lines[0], "error")
            .and_then(|v| v.as_str().map(|s| s.contains("over the limit")))
            .unwrap_or(false));
        assert_eq!(field(&lines[1], "ok"), Some(Value::Int(1)));
        assert_eq!(field(&lines[2], "ok"), Some(Value::Int(1)));
        assert_eq!(stats.failures, 1);
    }

    #[test]
    fn slo_specs_parse_and_reject_garbage() {
        let slos = parse_slos("p99_ms=50, error_rate=0.1%").unwrap();
        assert_eq!(slos.len(), 2);
        assert_eq!(slos[0].name, "p99_ms");
        assert_eq!(
            slos[0].kind,
            SloKind::LatencyQuantile {
                q: 0.99,
                threshold_us: 50_000
            }
        );
        assert_eq!(slos[1].name, "error_rate");
        assert_eq!(slos[1].kind, SloKind::ErrorRate { max_rate: 0.001 });
        let half = parse_slos("p50_ms=1.5").unwrap();
        assert_eq!(
            half[0].kind,
            SloKind::LatencyQuantile {
                q: 0.5,
                threshold_us: 1500
            }
        );
        assert_eq!(parse_slos("error_rate=0.25").unwrap()[0].target, 0.25);
        assert!(parse_slos("").unwrap().is_empty());
        for bad in [
            "nonsense",
            "latency=5",
            "p0_ms=5",
            "p100_ms=5",
            "p99_ms=abc",
            "error_rate=0",
            "error_rate=150%",
        ] {
            assert!(parse_slos(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn slo_evaluation_flags_violations_and_check_slo_agrees() {
        // p99_ms=0 is unsatisfiable (every real request is slower);
        // error_rate=50% is satisfied by an all-ok run.
        let service = Service::new(&ServeConfig {
            slos: parse_slos("p99_ms=0,error_rate=50%").unwrap(),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut requests = String::new();
        for id in 1..=3 {
            requests.push_str(&format!(
                "{{\"id\":{id},\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() {{ return {id}; }}\"}}\n"
            ));
        }
        requests.push_str("{\"id\":4,\"cmd\":\"metrics\"}\n");
        let (lines, _) = respond(&service, &requests, 1);
        let metrics = &lines[3];
        assert_eq!(field(metrics, "slo_count"), Some(Value::Int(2)));
        assert_eq!(field(metrics, "slo_p99_ms_violated"), Some(Value::Int(1)));
        assert_eq!(
            field(metrics, "slo_error_rate_violated"),
            Some(Value::Int(0))
        );
        assert_eq!(field(metrics, "slo_violations"), Some(Value::Int(1)));
        assert!(field(metrics, "slo_p99_ms_budget_used").is_some());
        assert!(field(metrics, "slo_p99_ms_burn_rate").is_some());
        // The CI helper agrees with the server's verdicts.
        let fields = parse_flat(metrics).unwrap();
        assert_eq!(check_slo_fields(&fields).unwrap(), vec!["p99_ms"]);
        // And errors out on a line with no SLO fields at all.
        let plain = parse_flat(&lines[0]).unwrap();
        assert!(check_slo_fields(&plain).is_err());
    }

    #[test]
    fn metrics_reports_uptime_version_started_and_windowed_fields() {
        let service = Service::new(&ServeConfig::default()).unwrap();
        let requests = concat!(
            "{\"id\":1,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 1; }\"}\n",
            "{\"id\":2,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 2; }\"}\n",
            "{\"id\":3,\"cmd\":\"metrics\"}\n",
        );
        let (lines, _) = respond(&service, requests, 1);
        let m = &lines[2];
        assert_eq!(
            field(m, "format_version"),
            Some(Value::Int(METRICS_FORMAT_VERSION))
        );
        assert!(
            matches!(field(m, "uptime_s"), Some(Value::Float(s)) if s >= 0.0),
            "uptime_s: {m}"
        );
        // The metrics request itself has started but not completed.
        assert_eq!(field(m, "requests"), Some(Value::Int(2)));
        assert_eq!(field(m, "started_requests"), Some(Value::Int(3)));
        assert_eq!(field(m, "in_flight"), Some(Value::Int(1)));
        assert_eq!(field(m, "window_ms"), Some(Value::Int(1000)));
        assert_eq!(field(m, "windows"), Some(Value::Int(60)));
        // Both compiles finished within the recent windows.
        assert_eq!(field(m, "win_requests"), Some(Value::Int(2)));
        assert!(field(m, "win_rps").is_some());
        assert!(field(m, "win_hit_rate").is_some());
        assert!(field(m, "win_error_rate").is_some());
        assert!(field(m, "win_p50_us").is_some());
        assert!(field(m, "win_p99_us").is_some());
        // No --slo: the fields exist with count 0 so --check-slo can
        // still give a definitive "nothing configured" answer.
        assert_eq!(field(m, "slo_count"), Some(Value::Int(0)));
        assert_eq!(field(m, "slo_violations"), Some(Value::Int(0)));
    }

    #[test]
    fn windowed_p99_stays_within_2x_of_true_sample() {
        // Feed known latencies straight into Metrics and compare the
        // windowed p99 against the true rank statistic.
        let metrics = Metrics::new(1000, 60);
        let mut samples = Vec::new();
        for i in 0..200u64 {
            let v = 100 + i * 37 % 5000;
            samples.push(v);
            metrics.record(0, v, &outcome(i + 1, i as i64, "compile"));
        }
        let snap = metrics.snapshot();
        let win = snap.windowed(SLO_RECENT_WINDOWS);
        assert_eq!(win.requests, 200);
        samples.sort_unstable();
        let rank = ((0.99 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let true_p99 = samples[rank - 1];
        let est = win.p99_us.unwrap();
        assert!(est >= true_p99, "estimate below true sample");
        assert!(
            est < 2 * true_p99,
            "estimate {est} not within 2x of {true_p99}"
        );
    }

    /// A snapshot of `metrics` as of `now_ms`.
    fn snapshot_at(metrics: &Metrics, now_ms: u64) -> MetricsSnapshot {
        let mut snap = metrics.snapshot();
        snap.now_ms = now_ms;
        snap
    }

    /// A ring of 4 windows of 10 ms, with one request of `service_us`
    /// recorded at each `(now_ms, service_us)`.
    fn ring(samples: &[(u64, u64)]) -> Metrics {
        let metrics = Metrics::new(10, 4);
        for &(now_ms, service_us) in samples {
            metrics.record_at(now_ms, 0, service_us, &outcome(0, 0, "compile"));
        }
        metrics
    }

    /// `(requests, Σ service_us)` of each window.
    fn shape(windows: &[Option<&Totals>]) -> Vec<Option<(u64, u64)>> {
        windows
            .iter()
            .map(|w| w.map(|t| (t.requests(), t.service_us.sum())))
            .collect()
    }

    #[test]
    fn requests_land_in_their_window() {
        let snap = snapshot_at(&ring(&[(0, 5), (9, 7), (10, 100), (35, 1)]), 35);
        assert_eq!(
            shape(&snap.series(4)),
            [Some((2, 12)), Some((1, 100)), None, Some((1, 1))]
        );
    }

    #[test]
    fn a_reused_slot_drops_late_requests_which_the_lifetime_still_counts() {
        // Window 4 takes window 0's slot; a late request for window 0
        // is then dropped from the ring, not folded into window 4.
        let metrics = ring(&[(0, 1), (45, 2)]);
        metrics.record_at(5, 0, 99, &outcome(0, 0, "compile"));
        let snap = snapshot_at(&metrics, 45);
        assert_eq!(
            shape(&snap.series(5)),
            [None, None, None, None, Some((1, 2))]
        );
        assert_eq!(shape(&[Some(&snap.recent(snap.windows()))]), [Some((1, 2))]);
        assert_eq!(shape(&[Some(&snap.lifetime)]), [Some((3, 102))]);
    }

    #[test]
    fn recent_sums_its_windows() {
        let snap = snapshot_at(&ring(&[(0, 1), (11, 2), (22, 4), (35, 8)]), 35);
        assert_eq!(shape(&[Some(&snap.recent(2))]), [Some((2, 12))]);
        assert_eq!(shape(&[Some(&snap.recent(1))]), [Some((1, 8))]);
        // Nothing fell out of the ring, so it holds the lifetime.
        assert_eq!(snap.recent(snap.windows()), snap.lifetime);
        assert_eq!(snap.lifetime.requests(), 4);
    }

    #[test]
    fn series_has_a_fixed_shape_with_gaps_as_none() {
        let snap = snapshot_at(&ring(&[(0, 1), (25, 4)]), 35);
        assert_eq!(
            shape(&snap.series(4)),
            [Some((1, 1)), None, Some((1, 4)), None]
        );
        assert_eq!(snap.series(1), [None], "current window empty");
    }

    #[test]
    fn slo_budgets_forget_windows_older_than_the_ring() {
        // Five failures at 0-4 s, then one good request at 600 s: the
        // failures' slots are still in the 60 x 1 s ring (nothing newer
        // took them), but 10 minutes out of its span.
        let metrics = Metrics::new(1000, 60);
        for t in 0..5u64 {
            let mut bad = outcome(t + 1, 0, "compile");
            bad.failed = true;
            metrics.record_at(t * 1000, 0, 100, &bad);
        }
        metrics.record_at(600_000, 0, 100, &outcome(6, 0, "compile"));
        let snap = snapshot_at(&metrics, 600_000);
        let win = snap.windowed(snap.windows());
        assert_eq!((win.requests, win.failures), (1, 0));
        let slos = parse_slos("error_rate=5%").unwrap();
        let eval = &evaluate_slos(&snap, &slos)[0];
        assert_eq!((eval.bad, eval.total), (0, 1));
        assert_eq!(eval.budget_used, 0.0);
        assert!(!eval.violated);
    }

    #[test]
    fn windowed_span_never_exceeds_the_ring() {
        // One request with 5 hits at 0 s, one with none at 4 s.
        let record = |metrics: &Metrics| {
            let mut hit = outcome(1, 1, "compile");
            hit.cache_hits = 5;
            metrics.record_at(0, 0, 100, &hit);
            metrics.record_at(4000, 0, 100, &outcome(2, 2, "compile"));
        };
        let short = Metrics::new(1000, 4);
        record(&short);
        let win = snapshot_at(&short, 4000).windowed(SLO_RECENT_WINDOWS);
        assert_eq!((win.windows, win.covered_s, win.rps), (4, 4.0, 0.25));
        assert_eq!((win.requests, win.cache_hits, win.hit_rate), (1, 0, 0.0));
        // The default ring holds both windows and covers all 5 s.
        let long = Metrics::new(1000, 60);
        record(&long);
        let win = snapshot_at(&long, 4000).windowed(SLO_RECENT_WINDOWS);
        assert_eq!((win.windows, win.covered_s, win.rps), (5, 5.0, 0.4));
        assert_eq!((win.requests, win.cache_hits, win.hit_rate), (2, 5, 1.0));
    }

    #[test]
    fn windowed_hits_belong_to_the_requests_it_counts() {
        // A ring shorter than SLO_RECENT_WINDOWS; every other run of
        // three windows has no cache traffic.
        let metrics = Metrics::new(1000, 4);
        let mut served: Vec<(u64, u64)> = Vec::new(); // (window, hits)
        for w in 0..16u64 {
            let mut out = outcome(w + 1, 0, "compile");
            out.cache_hits = if (w / 3) % 2 == 0 { 5 } else { 0 };
            metrics.record_at(w * 1000, 0, 100, &out);
            served.push((w, out.cache_hits));
            let win = snapshot_at(&metrics, w * 1000).windowed(SLO_RECENT_WINDOWS);
            let counted: Vec<u64> = served
                .iter()
                .filter(|(sw, _)| sw + win.windows as u64 > w)
                .map(|&(_, hits)| hits)
                .collect();
            assert_eq!(win.requests, counted.len() as u64, "window {w}");
            assert_eq!(win.cache_hits, counted.iter().sum::<u64>(), "window {w}");
        }
    }

    #[test]
    fn no_cache_service_still_serves() {
        let service = Service::new(&ServeConfig {
            cache: false,
            ..ServeConfig::default()
        })
        .unwrap();
        let req =
            "{\"id\":1,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main() { return 9; }\"}\n";
        let (lines, stats) = respond(&service, &format!("{req}{req}"), 1);
        assert_eq!(field(&lines[0], "ok"), Some(Value::Int(1)));
        assert_eq!(field(&lines[1], "cache_hits"), Some(Value::Int(0)));
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
    }
}
