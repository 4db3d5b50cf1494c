//! `marion-serve` — the compile-service daemon.
//!
//! Accepts JSONL compile requests (see `marion_bench::serve` for the
//! protocol) on stdin, or on a TCP listener with `--listen`, and
//! streams JSONL responses back in request order. All modes share one
//! content-addressed compile cache, so repeated requests for the same
//! function are served without recompiling.
//!
//! ```text
//! echo '{"id":1,"machine":"r2000","strategy":"IPS","workload":"livermore"}' | marion-serve
//! marion-serve --listen 127.0.0.1:7777 --cache-disk /tmp/marion-cache.jsonl
//! ```

use marion_bench::serve::{parse_slos, run_stream, ServeConfig, Service};
use std::io::{BufReader, Write as _};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
marion-serve — compile-service daemon (JSONL on stdin, or TCP with --listen)

USAGE:
    marion-serve [OPTIONS]

OPTIONS:
    --listen ADDR         serve TCP connections on ADDR instead of stdin
    --workers N           request worker threads        [default: available cores]
    --queue N             bounded request queue depth   [default: 64]
    --jobs N              per-compile worker threads    [default: 1]
    --cache-capacity N    max cached functions          [default: 4096]
    --cache-disk PATH     write-through JSONL cache store
    --no-cache            disable the compile cache

OBSERVABILITY:
    --access-log PATH     structured JSONL access log, one line per request
    --access-log-max-bytes N
                          rotate the access log to PATH.1 past N bytes
                                                        [default: 4194304]
    --slo SPEC            comma-separated objectives over the rolling
                          windows, e.g. p99_ms=50,error_rate=0.1%
    --tail N              keep the N slowest requests per window as
                          exemplars                      [default: 4]
    --window-ms N         rolling time-series window width [default: 1000]
    --windows N           rolling windows retained         [default: 60]
    --no-exemplars        disable tail sampling (compiles always run
                          untraced; the dashboard replays exemplars)
    -h, --help            print this help

Request lines look like:
    {\"id\":1,\"machine\":\"r2000\",\"strategy\":\"IPS\",\"workload\":\"livermore\"}
    {\"id\":2,\"machine\":\"toyp\",\"strategy\":\"Postpass\",\"source\":\"int main(){return 7;}\",\"emit_asm\":1}
    {\"id\":3,\"cmd\":\"stats\"}      cache counters (hits/misses/evictions/disk load)
    {\"id\":4,\"cmd\":\"metrics\"}    latency histograms, windowed rates, SLO burn
    {\"id\":5,\"cmd\":\"machines\"}   machines, strategies, protocol/format versions
    {\"id\":6,\"cmd\":\"dashboard\"}  self-contained HTML dashboard in the response
    {\"id\":7,\"cmd\":\"shutdown\"}

Every response echoes a stable request_id (\"r1\", \"r2\", ...) that also
keys the access-log line for the same request.
";

struct Args {
    listen: Option<String>,
    workers: usize,
    queue: usize,
    config: ServeConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        workers: std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(4),
        queue: 64,
        config: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--listen" => args.listen = Some(value("--listen")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--jobs" => {
                let n: usize = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                args.config.jobs = NonZeroUsize::new(n.max(1));
            }
            "--cache-capacity" => {
                args.config.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?
            }
            "--cache-disk" => args.config.cache_disk = Some(value("--cache-disk")?.into()),
            "--no-cache" => args.config.cache = false,
            "--access-log" => args.config.access_log = Some(value("--access-log")?.into()),
            "--access-log-max-bytes" => {
                args.config.access_log_max_bytes = value("--access-log-max-bytes")?
                    .parse()
                    .map_err(|e| format!("--access-log-max-bytes: {e}"))?
            }
            "--slo" => {
                args.config.slos =
                    parse_slos(&value("--slo")?).map_err(|e| format!("--slo: {e}"))?
            }
            "--tail" => {
                args.config.tail_k = value("--tail")?
                    .parse()
                    .map_err(|e| format!("--tail: {e}"))?
            }
            "--window-ms" => {
                args.config.window_ms = value("--window-ms")?
                    .parse()
                    .map_err(|e| format!("--window-ms: {e}"))?
            }
            "--windows" => {
                args.config.windows = value("--windows")?
                    .parse()
                    .map_err(|e| format!("--windows: {e}"))?
            }
            "--no-exemplars" => args.config.exemplars = false,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("marion-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = match Service::new(&args.config) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("marion-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.listen {
        None => {
            // Stdin mode: serve until EOF or a shutdown request,
            // draining everything queued before exiting.
            let stdin = std::io::stdin();
            match run_stream(
                &service,
                stdin.lock(),
                std::io::stdout(),
                args.workers,
                args.queue,
            ) {
                Ok(stats) => {
                    eprintln!(
                        "marion-serve: {} request(s), {} failure(s), cache {} hit(s) / {} miss(es)",
                        stats.requests, stats.failures, stats.cache_hits, stats.cache_misses
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("marion-serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("marion-serve: bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("marion-serve: listening on {addr}");
            // One thread per connection; each connection gets the full
            // worker pool semantics over the shared service (and thus
            // the shared cache). A `shutdown` request ends only its
            // own connection.
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("marion-serve: accept: {e}");
                        continue;
                    }
                };
                let service = service.clone();
                let workers = args.workers;
                let queue = args.queue;
                std::thread::spawn(move || {
                    let peer = stream
                        .peer_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_else(|_| "?".to_string());
                    let reader = match stream.try_clone() {
                        Ok(r) => BufReader::new(r),
                        Err(e) => {
                            eprintln!("marion-serve: {peer}: {e}");
                            return;
                        }
                    };
                    let mut writer = stream;
                    match run_stream(&service, reader, &mut writer, workers, queue) {
                        Ok(stats) => eprintln!(
                            "marion-serve: {peer}: {} request(s), cache {} hit(s) / {} miss(es)",
                            stats.requests, stats.cache_hits, stats.cache_misses
                        ),
                        Err(e) => eprintln!("marion-serve: {peer}: {e}"),
                    }
                    let _ = writer.flush();
                });
            }
            ExitCode::SUCCESS
        }
    }
}
