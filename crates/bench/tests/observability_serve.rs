//! End-to-end acceptance test for the marion-serve observability
//! layer: a service under concurrent load must produce exactly one
//! access-log line per request with matching request ids, windowed
//! percentiles within the documented 2x bound of the per-request log,
//! a tail-sampled exemplar whose flamegraph renders in the dashboard,
//! working SLO verdicts — and byte-identical warm output throughout.

use marion_bench::serve::{
    check_slo_fields, parse_slos, run_stream, ServeConfig, Service, SLO_RECENT_WINDOWS,
};
use marion_trace::json::parse_flat;
use marion_trace::{Fields, Value};

#[test]
fn observability_end_to_end_under_concurrent_load() {
    let dir = std::env::temp_dir().join(format!("marion-e2e-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");
    let service = Service::new(&ServeConfig {
        access_log: Some(log_path.clone()),
        // p99_ms=0 cannot be met by any real request; error_rate=50%
        // is met by an all-ok run — so exactly one SLO must trip.
        slos: parse_slos("p99_ms=0,error_rate=50%").unwrap(),
        // Wide windows so the whole (debug-build) run fits inside the
        // recent horizon the metrics response reports over.
        window_ms: 10_000,
        ..ServeConfig::default()
    })
    .unwrap();

    // Stream 1: concurrent compile load (4 workers), with a repeated
    // emit_asm pair so the warm response can be compared byte-wise
    // against the cold one.
    let mut requests = String::new();
    let machines = ["toyp", "r2000", "i860", "toyp", "r2000", "i860"];
    for (i, machine) in machines.iter().enumerate() {
        requests.push_str(&format!(
            "{{\"id\":{i},\"machine\":\"{machine}\",\"strategy\":\"Postpass\",\"source\":\"int main() {{ int a; int b; a = {i}; b = a + 2; return a * b; }}\"}}\n"
        ));
    }
    let asm_req = |id: usize| {
        format!(
            "{{\"id\":{id},\"machine\":\"r2000\",\"strategy\":\"IPS\",\"source\":\"int main() {{ return 40 + 2; }}\",\"emit_asm\":1}}\n"
        )
    };
    requests.push_str(&asm_req(6)); // cold; repeated warm in stream 2
    requests.push_str(&asm_req(7)); // concurrent duplicate
    for i in 8..12 {
        requests.push_str(&format!(
            "{{\"id\":{i},\"machine\":\"toyp\",\"strategy\":\"Rase\",\"workload\":\"livermore\"}}\n"
        ));
    }
    let mut out1: Vec<u8> = Vec::new();
    let stats1 = run_stream(&service, requests.as_bytes(), &mut out1, 4, 8).unwrap();
    assert_eq!(stats1.requests, 12);
    assert_eq!(stats1.failures, 0);
    let lines1: Vec<Vec<(String, Value)>> = String::from_utf8(out1)
        .unwrap()
        .lines()
        .map(|l| parse_flat(l).unwrap())
        .collect();

    // The concurrent duplicates (6 and 7 may race to compile the same
    // function on different workers) still agree byte-for-byte.
    let cold = lines1.iter().find(|f| f.int("id") == Some(6)).unwrap();
    let dup = lines1.iter().find(|f| f.int("id") == Some(7)).unwrap();
    let asm_cold = cold.str("asm").expect("cold asm");
    assert_eq!(Some(asm_cold), dup.str("asm"));

    // Stream 2 on the same service, one worker: a guaranteed-warm
    // repeat of the asm request, then metrics, dashboard, shutdown.
    // All 12 stream-1 requests completed before the stream started.
    let admin = format!(
        "{}{{\"id\":100,\"cmd\":\"metrics\"}}\n{{\"id\":101,\"cmd\":\"dashboard\"}}\n{{\"id\":102,\"cmd\":\"shutdown\"}}\n",
        asm_req(99)
    );
    let mut out2: Vec<u8> = Vec::new();
    let stats2 = run_stream(&service, admin.as_bytes(), &mut out2, 1, 8).unwrap();
    assert_eq!(stats2.requests, 4);
    let out2 = String::from_utf8(out2).unwrap();
    let lines2: Vec<Vec<(String, Value)>> = out2.lines().map(|l| parse_flat(l).unwrap()).collect();
    let warm = &lines2[0];
    let metrics = &lines2[1];
    let dashboard = &lines2[2];

    // Warm output is byte-identical to cold: same asm, same structural
    // counters, with observability on.
    assert_eq!(Some(asm_cold), warm.str("asm"), "warm == cold asm");
    for key in ["insts", "spills", "estimated_cycles", "nops", "funcs", "ok"] {
        assert_eq!(
            cold.field(key),
            warm.field(key),
            "field `{key}` warm == cold"
        );
    }
    assert!(warm.int("cache_hits").unwrap() > 0, "warm repeat hit");

    // ---- access-log exactness ----
    // One line per request served: 12 stream-1 compiles + 4 stream-2
    // requests, read after both streams drained.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let log_fields: Vec<Vec<(String, Value)>> =
        log.lines().map(|l| parse_flat(l).unwrap()).collect();
    assert_eq!(log_fields.len(), 16, "access-log lines == requests served");
    // Every response's request_id appears in exactly one log line.
    for fields in lines1.iter().chain(lines2.iter()) {
        let rid = fields.str("request_id").expect("response request_id");
        let matches = log_fields
            .iter()
            .filter(|lf| lf.str("request_id") == Some(rid))
            .count();
        assert_eq!(matches, 1, "request {rid} logged exactly once");
    }

    // ---- windowed p99 vs the per-request log ----
    // The true p99 over compile service times, from the access log;
    // the serve estimate, from the rolling windows. The histogram
    // bucket bound guarantees true <= estimate < 2 * true.
    let mut compile_us: Vec<i64> = log_fields
        .iter()
        .filter(|lf| lf.str("cmd") == Some("compile"))
        .map(|lf| lf.int("service_us").unwrap())
        .collect();
    assert_eq!(compile_us.len(), 13);
    // The metrics snapshot saw the first 13 requests (12 compiles +
    // the warm repeat); admin requests after it are excluded. The
    // true p99 over those 13 compile service times comes from the
    // access log; the estimate from the rolling windows.
    compile_us.sort_unstable();
    let rank = ((0.99 * compile_us.len() as f64).ceil() as usize).clamp(1, compile_us.len());
    let true_p99 = compile_us[rank - 1] as u64;
    let win_requests = metrics.int("win_requests").unwrap();
    assert_eq!(win_requests, 13, "rolling windows cover the full run");
    let est = metrics.int("win_p99_us").expect("windowed p99") as u64;
    assert!(est >= true_p99, "estimate {est} below true p99 {true_p99}");
    assert!(
        est - true_p99 < true_p99.max(1),
        "estimate {est} not within 2x of true p99 {true_p99}"
    );
    let _ = SLO_RECENT_WINDOWS; // burn-rate window constant is public API

    // ---- metrics invariants ----
    assert_eq!(metrics.int("requests"), Some(13));
    assert_eq!(metrics.int("started_requests"), Some(14));
    assert_eq!(metrics.int("in_flight"), Some(1));
    assert_eq!(metrics.int("format_version"), Some(2));
    assert_eq!(metrics.int("service_count"), Some(13));

    // ---- SLO verdicts, server-side and CI-side ----
    assert_eq!(metrics.int("slo_count"), Some(2));
    assert_eq!(metrics.int("slo_p99_ms_violated"), Some(1));
    assert_eq!(metrics.int("slo_error_rate_violated"), Some(0));
    assert_eq!(metrics.int("slo_violations"), Some(1));
    assert_eq!(check_slo_fields(metrics).unwrap(), vec!["p99_ms"]);

    // ---- dashboard: self-contained, with an exemplar flamegraph ----
    let html = dashboard.str("html").expect("dashboard html");
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(!html.contains("http:") && !html.contains("https:"));
    assert!(!html.contains("src=") && !html.contains("href="));
    assert!(html.contains("<style>") && html.contains("<svg"));
    assert!(html.contains("Slowest requests"), "tail exemplars section");
    assert!(
        html.contains("wall-clock attribution"),
        "at least one tail-sampled exemplar renders a flamegraph"
    );

    std::fs::remove_dir_all(&dir).ok();
}
