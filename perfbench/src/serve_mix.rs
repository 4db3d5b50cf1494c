//! `serve_mix`: a closed loop with 2 outstanding requests through
//! `run_stream` with 2 workers and a queue of 64. The `Service` has the
//! daemon's defaults (cache on, exemplars on) plus an access log in a
//! scratch directory under the working directory.
//!
//! The seeded mix: about 90 % repeats of a hot set (`livermore` and
//! three fixed `gen:4:<seed>` modules × 5 machines × 3 strategies),
//! warmed during set-up, so they are cache reads; about 10 % fresh
//! `gen:1:<seed>` and inline-`source` requests, which run the front
//! end, a cold compile and a cache insert; about 1 % `metrics` and
//! `stats` requests.

use crate::inputs::{self, Target};
use crate::report::Report;
use crate::span::{durations, self_times, Recorder};
use crate::stats;
use crate::Args;
use marion_bench::serve::{parse_request, run_stream, ServeConfig, Service};
use marion_core::driver::materialize_float_constants;
use marion_core::fcache::{base_fingerprint, func_key};
use marion_core::{CompileOptions, StrategyKind};
use marion_rng::SplitMix64;
use marion_trace::json::{escape, parse_flat};
use marion_trace::{TraceConfig, Value};
use marion_workloads::gen::{random_program, GenConfig};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

const WORKERS: usize = 2;
const QUEUE: usize = 64;
/// Requests in flight at once: the closed loop's client count.
const OUTSTANDING: usize = 2;
const HOT_MODULES: [&str; 4] = ["livermore", "gen:4:11", "gen:4:22", "gen:4:33"];

/// One hot-set request: module, machine, strategy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct HotKey {
    module: usize,
    machine: usize,
    strategy: usize,
}

/// What a cold compile of a hot-set request answered; every warm
/// answer must repeat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answer {
    insts: i64,
    spills: i64,
    estimated_cycles: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot(usize),
    Fresh,
    Admin,
}

/// A request line and what its response must satisfy.
#[derive(Debug, Clone)]
struct Request {
    id: i64,
    kind: Kind,
    line: String,
}

/// The seeded request stream. Fresh requests walk the 15 (machine,
/// strategy) pairs round-robin in a seeded order, reshuffled every
/// round, so each seed sends the same share of them to every pair.
struct Mix {
    rng: SplitMix64,
    hot: Vec<HotKey>,
    pairs: Vec<(usize, usize)>,
    next_id: i64,
    fresh_keys: usize,
}

impl Mix {
    fn new(seed: u64, hot: Vec<HotKey>) -> Mix {
        let pairs = (0..marion_machines::EXTENDED.len())
            .flat_map(|m| (0..StrategyKind::ALL.len()).map(move |s| (m, s)))
            .collect();
        Mix {
            rng: SplitMix64::new(seed),
            hot,
            pairs,
            next_id: 1,
            fresh_keys: 0,
        }
    }

    fn next(&mut self) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        let pick = self.rng.below(1000);
        let (kind, line) = if pick < 10 {
            let cmd = if pick.is_multiple_of(2) {
                "metrics"
            } else {
                "stats"
            };
            (Kind::Admin, format!("{{\"id\":{id},\"cmd\":\"{cmd}\"}}"))
        } else if pick < 110 {
            if self.fresh_keys.is_multiple_of(self.pairs.len()) {
                inputs::shuffle(&mut self.rng, &mut self.pairs);
            }
            let (m, s) = self.pairs[self.fresh_keys % self.pairs.len()];
            self.fresh_keys += 1;
            let machine = marion_machines::EXTENDED[m];
            let strategy = StrategyKind::ALL[s].name();
            let seed = 1_000_000 + (self.rng.next_u64() >> 24);
            let body = if pick.is_multiple_of(2) {
                format!("\"workload\":\"gen:1:{seed}\"")
            } else {
                let src = random_program(seed, &GenConfig::default());
                format!("\"source\":\"{}\"", escape(&src))
            };
            (
                Kind::Fresh,
                format!(
                    "{{\"id\":{id},\"machine\":\"{machine}\",\"strategy\":\"{strategy}\",{body}}}"
                ),
            )
        } else {
            let h = self.rng.index(self.hot.len());
            (Kind::Hot(h), hot_line(id, &self.hot[h]))
        };
        Request { id, kind, line }
    }
}

fn hot_line(id: i64, key: &HotKey) -> String {
    format!(
        "{{\"id\":{id},\"machine\":\"{}\",\"strategy\":\"{}\",\"workload\":\"{}\"}}",
        marion_machines::EXTENDED[key.machine],
        StrategyKind::ALL[key.strategy].name(),
        HOT_MODULES[key.module]
    )
}

fn field(fields: &[(String, Value)], name: &str) -> Option<i64> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.as_int())
}

fn answer_of(fields: &[(String, Value)]) -> Option<Answer> {
    Some(Answer {
        insts: field(fields, "insts")?,
        spills: field(fields, "spills")?,
        estimated_cycles: field(fields, "estimated_cycles")?,
    })
}

/// Checks one response: `ok:1`, the request's id echoed, and for a
/// hot-set request the cold answer repeated.
fn check(req: &Request, response: &str, cold: &[Answer]) -> bool {
    let Ok(fields) = parse_flat(response) else {
        return false;
    };
    if field(&fields, "ok") != Some(1) || field(&fields, "id") != Some(req.id) {
        return false;
    }
    match req.kind {
        Kind::Hot(h) => answer_of(&fields) == Some(cold[h]),
        Kind::Fresh | Kind::Admin => true,
    }
}

/// A scratch directory for access logs, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Scratch> {
        let dir = Path::new(".bench_tmp").join(format!("serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn config(&self, name: &str) -> ServeConfig {
        ServeConfig {
            access_log: Some(self.0.join(name)),
            ..ServeConfig::default()
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

struct Setup {
    service: Service,
    hot: Vec<HotKey>,
    cold: Vec<Answer>,
}

/// Builds a service and warms every hot-set request on it, two
/// requests at a time.
fn warm_service(config: &ServeConfig, rec: &mut Recorder) -> Result<Setup, String> {
    let open = rec.begin("warmup");
    let service = Service::new(config).map_err(|e| format!("service: {e}"))?;
    let hot: Vec<HotKey> = (0..HOT_MODULES.len())
        .flat_map(|module| {
            (0..marion_machines::EXTENDED.len()).flat_map(move |machine| {
                (0..StrategyKind::ALL.len()).map(move |strategy| HotKey {
                    module,
                    machine,
                    strategy,
                })
            })
        })
        .collect();
    let answers: Vec<Option<Answer>> = std::thread::scope(|s| {
        let half = hot.len().div_ceil(2);
        let service = &service;
        let handles: Vec<_> = hot
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|key| {
                            let (response, _) = service.handle_line(&hot_line(0, key));
                            let fields = parse_flat(&response).ok()?;
                            (field(&fields, "ok") == Some(1)).then_some(())?;
                            answer_of(&fields)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    rec.end(open);
    let cold = answers
        .into_iter()
        .zip(&hot)
        .map(|(a, key)| a.ok_or_else(|| format!("warm-up of {key:?} failed")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup { service, hot, cold })
}

/// Per-request outcome of the closed loop.
#[derive(Debug, Default)]
struct Loop {
    requests: Vec<Request>,
    latency_ms: Vec<f64>,
    failed: u64,
    wall_s: f64,
    /// Share of wanted CPU time the host granted during the loop.
    granted: f64,
}

struct Shared {
    state: Mutex<LoopState>,
    freed: Condvar,
}

#[derive(Default)]
struct LoopState {
    in_flight: VecDeque<(Request, Instant)>,
    done: Loop,
    partial: Vec<u8>,
}

/// The client side of `run_stream`'s input: hands over the next
/// request line once fewer than `OUTSTANDING` are in flight, and ends
/// the stream when the budget is spent.
struct Client<'a> {
    shared: &'a Shared,
    mix: &'a mut Mix,
    budget: stats::Budget,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for Client<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Client<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.buf.len() {
            return Ok(&self.buf[self.pos..]);
        }
        let mut state = self.shared.state.lock().expect("client state poisoned");
        while state.in_flight.len() >= OUTSTANDING {
            state = self
                .shared
                .freed
                .wait(state)
                .expect("client state poisoned");
        }
        if self.budget.spent() {
            return Ok(&[]);
        }
        let req = self.mix.next();
        self.buf.clear();
        self.buf.extend_from_slice(req.line.as_bytes());
        self.buf.push(b'\n');
        self.pos = 0;
        state.in_flight.push_back((req, Instant::now()));
        Ok(&self.buf)
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The client side of `run_stream`'s output: times and checks each
/// response line as it is written.
struct Sink<'a> {
    shared: &'a Shared,
    cold: &'a [Answer],
}

impl Write for Sink<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut state = self.shared.state.lock().expect("client state poisoned");
        state.partial.extend_from_slice(bytes);
        while let Some(end) = state.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = state.partial.drain(..=end).collect();
            let at = Instant::now();
            let (req, sent) = state
                .in_flight
                .pop_front()
                .ok_or_else(|| io::Error::other("response without a request"))?;
            let ok = check(
                &req,
                String::from_utf8_lossy(&line[..end]).as_ref(),
                self.cold,
            );
            let done = &mut state.done;
            done.latency_ms.push(if ok {
                (at - sent).as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            });
            done.failed += u64::from(!ok);
            done.requests.push(req);
            self.shared.freed.notify_all();
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs the closed loop through `run_stream` until `seconds` of
/// granted CPU time are spent (see [`stats::Budget`]).
fn closed_loop(setup: &Setup, seconds: f64, mix: &mut Mix) -> Result<Loop, String> {
    let shared = Shared {
        state: Mutex::new(LoopState::default()),
        freed: Condvar::new(),
    };
    let start = Instant::now();
    let host = stats::Share::host();
    let client = Client {
        shared: &shared,
        mix,
        budget: stats::Budget::new(seconds, stats::Share::host()),
        buf: Vec::new(),
        pos: 0,
    };
    let sink = Sink {
        shared: &shared,
        cold: &setup.cold,
    };
    run_stream(&setup.service, client, sink, WORKERS, QUEUE)
        .map_err(|e| format!("run_stream: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let state = shared.state.into_inner().expect("client state poisoned");
    let mut done = state.done;
    done.wall_s = wall_s;
    done.granted = host.granted_since();
    Ok(done)
}

/// Geometric means of static instructions and estimated cycles per IR
/// node over the hot set, from its cold answers.
fn hot_quality(setup: &Setup, nodes: &[usize]) -> (f64, f64, u64, u64) {
    let mut insts = Vec::new();
    let mut cycles = Vec::new();
    for (key, a) in setup.hot.iter().zip(&setup.cold) {
        let n = nodes[key.module].max(1) as f64;
        insts.push(a.insts as f64 / n);
        cycles.push(a.estimated_cycles as f64 / n);
    }
    let total_insts = setup.cold.iter().map(|a| a.insts as u64).sum();
    let total_cycles = setup.cold.iter().map(|a| a.estimated_cycles as u64).sum();
    (
        stats::geomean(&insts),
        stats::geomean(&cycles),
        total_insts,
        total_cycles,
    )
}

/// The hot modules as the service builds them, and their IR sizes.
fn hot_modules(rec: &mut Recorder) -> (Vec<marion_ir::Module>, Vec<usize>) {
    let modules: Vec<marion_ir::Module> = rec.time("workloads", || {
        HOT_MODULES
            .iter()
            .map(|name| match name.strip_prefix("gen:4:") {
                Some(seed) => marion_workloads::multi::combined_generated(
                    4,
                    seed.parse().expect("fixed hot-set seed"),
                ),
                None => marion_workloads::multi::combined_livermore(),
            })
            .collect()
    });
    let nodes = modules
        .iter()
        .map(|m| m.funcs.iter().map(|f| f.nodes.len()).sum())
        .collect();
    (modules, nodes)
}

fn split_latencies(done: &Loop) -> HashMap<&'static str, Vec<f64>> {
    let mut by: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (req, ms) in done.requests.iter().zip(&done.latency_ms) {
        let kind = match req.kind {
            Kind::Hot(_) => "hit",
            Kind::Fresh => "miss",
            Kind::Admin => "admin",
        };
        by.entry(kind).or_default().push(*ms);
    }
    by
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    if args.trace {
        return run_traced(args, &scratch);
    }
    let mut report = Report::default();
    let mut round = 0;
    let ((setup, nodes), setup_s) = crate::repeat_setup(stats::Share::host, |rec| {
        round += 1;
        let (_, nodes) = hot_modules(rec);
        let setup = warm_service(&scratch.config(&format!("access-{round}.log")), rec)?;
        Ok((setup, nodes))
    })?;
    let rss_before = stats::rss_mb();
    let mut mix = Mix::new(args.seed, setup.hot.clone());
    let mut done = closed_loop(&setup, args.seconds as f64, &mut mix)?;
    let granted = done.granted;
    done.wall_s *= granted;
    done.latency_ms.iter_mut().for_each(|ms| *ms *= granted);
    report.attempted = done.requests.len() as u64;
    report.failed = done.failed;
    let peak = stats::peak_rss_mb();
    let (insts_per_node, cycles_per_node, insts, cycles) = hot_quality(&setup, &nodes);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak);
    report.set("ops_per_s", done.requests.len() as f64 / done.wall_s);
    report.set("op_ms_p50", stats::quantile(&done.latency_ms, 0.5));
    report.set("op_ms_p90", stats::quantile(&done.latency_ms, 0.9));
    report.set("code_insts_per_node", insts_per_node);
    report.set("est_cycles_per_node", cycles_per_node);
    report.det("code_insts", insts);
    report.det("est_cycles", cycles);

    report.row(
        "serve_rps",
        done.requests.len() as f64 / done.wall_s,
        "req/s",
    );
    report.row("serve_ms_p50", stats::quantile(&done.latency_ms, 0.5), "ms");
    report.row(
        "serve_ms_p99",
        stats::quantile(&done.latency_ms, 0.99),
        "ms",
    );
    let by = split_latencies(&done);
    if let Some(hit) = by.get("hit") {
        report.row("hit_ms_p50", stats::quantile(hit, 0.5), "ms");
    }
    if let Some(miss) = by.get("miss") {
        report.row("miss_ms_p50", stats::quantile(miss, 0.5), "ms");
        report.row("miss_ms_p90", stats::quantile(miss, 0.9), "ms");
    }
    report.row("requests", done.requests.len() as f64, "count");
    report.row("fresh_modules", mix.fresh_keys as f64, "count");
    report.row("rss_growth_mb", peak - rss_before, "MB");
    report.row("host_cpu_granted", granted, "ratio");
    Ok(report)
}

/// Client threads calling the service directly: each takes the next
/// request line, then `parse_request`, `Service::handle_line` and
/// `Service::observe_request` run inside spans, and the response check
/// inside a `check` span.
fn direct_loop(
    setup: &Setup,
    requests: &[Request],
    traced: bool,
    epoch: Instant,
) -> (Recorder, f64, u64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (rec, failed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..OUTSTANDING)
            .map(|_| {
                s.spawn(|| {
                    let mut rec = Recorder::new(traced, epoch);
                    let mut failed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        let parsed = rec.time("serve.parse", || parse_request(&req.line).is_ok());
                        let began = Instant::now();
                        let (response, mut outcome) =
                            rec.time("serve.handle", || setup.service.handle_line(&req.line));
                        let service_us = began.elapsed().as_micros() as u64;
                        rec.time("serve.observe", || {
                            setup.service.observe_request(0, service_us, &mut outcome)
                        });
                        let ok = rec.time("check", || check(req, &response, &setup.cold));
                        failed += u64::from(!(parsed && ok));
                    }
                    (rec, failed)
                })
            })
            .collect();
        let mut all = Recorder::new(true, epoch);
        let mut failed = 0;
        for h in handles {
            let (rec, f) = h.join().expect("client thread panicked");
            all.absorb(rec);
            failed += f;
        }
        (all, failed)
    });
    (rec, start.elapsed().as_secs_f64(), failed)
}

fn run_traced(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut setup_rec = Recorder::new(true, epoch);
    let targets: Vec<Target> = inputs::bundled_targets(&mut setup_rec);
    let (modules, nodes) = hot_modules(&mut setup_rec);
    let streamed = warm_service(&scratch.config("streamed.log"), &mut setup_rec)?;
    crate::report_setup_layers(&mut report, &setup_rec);
    report.set("frontend.ir_nodes", nodes.iter().sum::<usize>() as f64);

    // Untraced: part of the budget through run_stream, as measured.
    let rss_before = stats::rss_mb();
    let mut mix = Mix::new(args.seed, streamed.hot.clone());
    let done = closed_loop(&streamed, args.seconds as f64 * 0.3, &mut mix)?;
    report.set("serve.rss_growth_mb", stats::rss_mb() - rss_before);
    report.set(
        "serve.access_log_bytes",
        std::fs::metadata(scratch.0.join("streamed.log")).map_or(0, |m| m.len()) as f64,
    );
    report.set(
        "serve.distinct_modules",
        (HOT_MODULES.len() + mix.fresh_keys) as f64,
    );
    report.attempted += done.requests.len() as u64;
    report.failed += done.failed;
    drop(streamed);

    // The same requests through direct calls, first untraced and then
    // traced, each on its own identically warmed service.
    let mut warm_rec = Recorder::new(true, epoch);
    let mut walls = [0f64; 2];
    let mut traced = None;
    for (i, on) in [false, true].into_iter().enumerate() {
        let direct = warm_service(&scratch.config(&format!("direct-{i}.log")), &mut warm_rec)?;
        let host = stats::Share::host();
        let (rec, wall_s, failed) = direct_loop(&direct, &done.requests, on, epoch);
        walls[i] = wall_s * host.granted_since();
        report.attempted += done.requests.len() as u64;
        report.failed += failed;
        traced = Some((direct, rec, wall_s));
    }
    let (direct, rec, traced_wall_s) = traced.expect("the loop ran the traced pass");
    let times = self_times(rec.spans());
    let total_ms = |layer: &str| times.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    let n = done.requests.len().max(1) as f64;
    let handle_ms: Vec<f64> = durations(rec.spans(), "serve.handle")
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    report.set("serve.parse_us", total_ms("serve.parse") * 1e3 / n);
    report.set("serve.observe_us", total_ms("serve.observe") * 1e3 / n);
    report.set("serve.handle_ms_p50", stats::quantile(&handle_ms, 0.5));
    report.set("serve.handle_ms_p99", stats::quantile(&handle_ms, 0.99));
    report.set(
        "serve.stream_ms",
        stats::mean(&done.latency_ms) - (total_ms("serve.handle") + total_ms("serve.observe")) / n,
    );
    report.set("check.ms", total_ms("check"));
    let covered: f64 = ["serve.parse", "serve.handle", "serve.observe", "check"]
        .iter()
        .map(|l| total_ms(l))
        .sum();
    report.set(
        "trace.coverage",
        covered / (traced_wall_s * 1e3 * OUTSTANDING as f64),
    );
    report.set("trace.overhead_pct", (walls[1] / walls[0] - 1.0) * 100.0);

    let cache = direct
        .service
        .cache()
        .ok_or("the default service has a cache")?;
    let cs = cache.stats();
    report.set("fcache.hits", cs.hits as f64);
    report.set("fcache.misses", cs.misses as f64);
    report.set("fcache.hit_ratio", cs.hit_rate());
    report.set("fcache.evictions", cs.evictions as f64);
    report.set("fcache.entries", cache.len() as f64);

    // Cache key derivation and lookup, replayed on the hot modules.
    let options = CompileOptions {
        trace: Some(TraceConfig::default()),
        ..CompileOptions::default()
    };
    let mut rec = Recorder::new(true, epoch);
    let mut lookups = 0u64;
    let mut lost = 0u64;
    for _ in 0..5 {
        for m in &modules {
            let mut m = m.clone();
            materialize_float_constants(&mut m);
            for target in &targets {
                for kind in StrategyKind::ALL {
                    let keys = rec.time("fcache.key", || {
                        let base = base_fingerprint(&target.machine, kind, &options);
                        m.funcs
                            .iter()
                            .map(|f| func_key(&base, &m, f))
                            .collect::<Vec<_>>()
                    });
                    for key in keys {
                        lookups += 1;
                        lost += u64::from(rec.time("fcache.get", || cache.get(key)).is_none());
                    }
                }
            }
        }
    }
    let times = self_times(rec.spans());
    let us = |layer: &str| times.get(layer).copied().unwrap_or(0) as f64 / 1e3;
    report.set("fcache.key_us", us("fcache.key") / lookups.max(1) as f64);
    report.set("fcache.get_us", us("fcache.get") / lookups.max(1) as f64);
    report.attempted += lookups;
    report.failed += lost;

    // Observability cost: the same hot-set hits through the default
    // service and through one with exemplars off and no access log.
    let lean_config = ServeConfig {
        exemplars: false,
        ..ServeConfig::default()
    };
    let lean = warm_service(&lean_config, &mut warm_rec)?;
    let mut rng = SplitMix64::new(args.seed ^ 0x5eed);
    let mut spent = [0f64; 2];
    for i in 0..200 {
        let key = &direct.hot[rng.index(direct.hot.len())];
        let line = hot_line(i, key);
        for (side, setup) in [&direct, &lean].into_iter().enumerate() {
            let began = Instant::now();
            let (_, mut outcome) = setup.service.handle_line(&line);
            let service_us = began.elapsed().as_micros() as u64;
            setup.service.observe_request(0, service_us, &mut outcome);
            spent[side] += began.elapsed().as_secs_f64();
            report.attempted += 1;
            report.failed += u64::from(outcome.failed);
        }
    }
    report.set(
        "serve.observability_pct",
        (spent[0] / spent[1] - 1.0) * 100.0,
    );
    report.set("host.cpu_granted", done.granted);
    report.set("check.mismatches", report.failed as f64);
    report.set("failed_ratio", report.failed_ratio());
    Ok(report)
}
