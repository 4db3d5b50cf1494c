#!/bin/sh
# Offline CI gate: formatting, lints, release build, tests.
# The workspace has zero external dependencies, so every step runs
# without network access (--offline keeps cargo honest about that).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (deny warnings: a doc link to a missing or private item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test --workspace -q --offline

echo "==> marion-explain --demo smoke (narrative + audit + DOT well-formedness)"
cargo run --release --offline -q -p marion-bench --bin marion-explain -- --demo --check > /dev/null

echo "==> selection cross-check (indexed == brute-force reference machine on every machine x workload x strategy)"
cargo run --release --offline -q -p marion-bench --bin marion-bench -- crosscheck

# Medians of 5 iterations, like the committed baseline: a single
# iteration of a sub-millisecond phase reads one preemption as a 5-60x
# slowdown and trips the 300 % gate below.
echo "==> compile bench (median of 5 iterations, writes BENCH_compile_smoke.json)"
cargo run --release --offline -q -p marion-bench --bin marion-bench -- compile --iters 5 --out BENCH_compile_smoke.json

echo "==> quality bench smoke (writes BENCH_quality_smoke.json)"
cargo run --release --offline -q -p marion-bench --bin marion-bench -- quality --smoke --out BENCH_quality_smoke.json
grep -q '"bench": "quality"' BENCH_quality_smoke.json
grep -q '"sim_cycles":' BENCH_quality_smoke.json

echo "==> retargeting fuzz smoke (marion-fuzz --smoke: generated machines through the full differential audit)"
cargo run --release --offline -q -p marion-bench --bin marion-fuzz -- --smoke --out BENCH_retarget_smoke.json
grep -q '"bench": "retarget"' BENCH_retarget_smoke.json
grep -q '"failing_machines": 0' BENCH_retarget_smoke.json
# The block audit replays every schedule for its provenance; a smoke
# run that audited no block proves nothing.
if grep -Eq '"blocks_audited": 0([^0-9]|$)' BENCH_retarget_smoke.json; then
  echo "fuzz smoke audited no blocks" >&2
  exit 1
fi
# Cross-strategy quality differentials on every generated machine:
# zero unexplained anomalies on the committed smoke seed range.
grep -q '"quality_anomalies": 0' BENCH_retarget_smoke.json

echo "==> paper-table binaries (each reproduces one table/figure of §5)"
./target/release/table1 | grep -q 'Table 1: Maril machine description statistics'
./target/release/table2 | grep -q 'Table 2: Marion system source size'
./target/release/table3 | grep -q 'Table 3: back-end compile time'
./target/release/table4 toyp | grep -q 'Table 4: Livermore loops on toyp'
./target/release/fig7 | grep -q 'Figure 7: Marion i860 Postpass code'
./target/release/speedup --from BENCH_quality.json | grep -q 'Strategy speedups over Postpass'
./target/release/ablation | grep -q 'Ablation 1: what does list scheduling buy?'

echo "==> marion-serve round-trip (cache warm-up, metrics, dashboard, access log, SLOs)"
rm -f access.log access.log.1
serve_out="$(printf '%s\n' \
  '{"id":1,"machine":"r2000","strategy":"IPS","workload":"livermore"}' \
  '{"id":2,"machine":"r2000","strategy":"IPS","workload":"livermore"}' \
  '{"id":3,"cmd":"metrics"}' \
  '{"id":4,"cmd":"machines"}' \
  '{"id":5,"cmd":"capabilities"}' \
  '{"id":6,"cmd":"dashboard"}' \
  '{"id":7,"cmd":"shutdown"}' \
  | ./target/release/marion-serve --workers 1 \
      --access-log access.log --slo p99_ms=60000,error_rate=50%)"
printf '%s\n' "$serve_out" | sed -n '1,4p'
printf '%s\n' "$serve_out" | sed -n 1p | grep -q '"ok":1'
printf '%s\n' "$serve_out" | sed -n 1p | grep -q '"cache_hits":0,'
printf '%s\n' "$serve_out" | sed -n 2p | grep -q '"cache_misses":0,'
printf '%s\n' "$serve_out" | sed -n 2p | grep -Eq '"cache_hits":[1-9]'
# Every response echoes its stable request id.
for n in 1 2 3 4 5 6 7; do
  printf '%s\n' "$serve_out" | sed -n "${n}p" | grep -q "\"request_id\":\"r${n}\""
done
# The metrics snapshot covers exactly the two compiles served before it.
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"requests":2,'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"service_count":2,'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"service_p50_us":'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"format_version":2'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"uptime_s":'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"started_requests":3,'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"win_p99_us":'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"slo_count":2,'
printf '%s\n' "$serve_out" | sed -n 3p | grep -q '"slo_violations":0'
printf '%s\n' "$serve_out" | sed -n 4p | grep -q '"machines":"toyp,'
printf '%s\n' "$serve_out" | sed -n 4p | grep -q '"strategies":"Postpass,IPS,RASE"'
printf '%s\n' "$serve_out" | sed -n 4p | grep -q '"protocol_version":1'
# Capabilities: per-machine issue width, clocks, and register classes.
printf '%s\n' "$serve_out" | sed -n 5p | grep -q '"ok":1'
printf '%s\n' "$serve_out" | sed -n 5p | grep -q '"i860_issue_width":'
printf '%s\n' "$serve_out" | sed -n 5p | grep -q '"r2000_issue_width":1'
printf '%s\n' "$serve_out" | sed -n 5p | grep -q '"i860_clocks":'
printf '%s\n' "$serve_out" | sed -n 5p | grep -q '"toyp_reg_classes":'
printf '%s\n' "$serve_out" | sed -n 3p > metrics_snapshot.json
printf '%s\n' "$serve_out" | sed -n 6p > dashboard_response.jsonl

echo "==> access log: exactly one line per request served"
test "$(wc -l < access.log)" = 7
grep -q '"request_id":"r1"' access.log
grep -q '"request_id":"r7"' access.log
test "$(grep -c '"cmd":"compile"' access.log)" = 2

echo "==> disk cache store: a restarted service serves what the last one compiled"
rm -f cache_store.jsonl
disk_request='{"machine":"i860","strategy":"RASE","workload":"livermore"}'
first="$(printf '%s\n' "$disk_request" \
  | ./target/release/marion-serve --workers 1 --cache-disk cache_store.jsonl)"
printf '%s\n' "$first" | sed -n 1p | grep -q '"cache_hits":0,'
# A line the next start rejects; that start compacts it away.
echo 'not json' >> cache_store.jsonl
# Keys are recomputed by a new process, so they must not depend on it.
second="$(printf '%s\n' "$disk_request" '{"cmd":"stats"}' \
  | ./target/release/marion-serve --workers 1 --cache-disk cache_store.jsonl)"
printf '%s\n' "$second" | sed -n 1p | grep -q '"cache_misses":0,'
printf '%s\n' "$second" | sed -n 1p | grep -q '"cache_hits":15,'
printf '%s\n' "$second" | sed -n 2p | grep -q '"disk_loaded":15,'
printf '%s\n' "$second" | sed -n 2p | grep -Eq '"disk_corrupt":1[,}]'
third="$(printf '%s\n' '{"cmd":"stats"}' \
  | ./target/release/marion-serve --workers 1 --cache-disk cache_store.jsonl)"
printf '%s\n' "$third" | grep -q '"disk_loaded":15,'
printf '%s\n' "$third" | grep -Eq '"disk_corrupt":0[,}]'
test "$(wc -l < cache_store.jsonl)" -eq 15
rm -f cache_store.jsonl

echo "==> SLO gate: generous objectives pass (exit 0)"
./target/release/marion-report --check-slo metrics_snapshot.json

echo "==> SLO gate: an unsatisfiable objective is flagged (exit 1)"
slo_out="$(printf '%s\n' \
  '{"id":1,"machine":"toyp","strategy":"Postpass","source":"int main() { return 3; }"}' \
  '{"id":2,"cmd":"metrics"}' \
  '{"id":3,"cmd":"shutdown"}' \
  | ./target/release/marion-serve --workers 1 --slo p99_ms=0)"
printf '%s\n' "$slo_out" | sed -n 2p > metrics_violated.json
if ./target/release/marion-report --check-slo metrics_violated.json; then
  echo "check-slo failed to flag a violated objective" >&2
  exit 1
fi
rm -f metrics_violated.json

echo "==> dashboard HTML (extracted via marion-report, must be fully self-contained)"
./target/release/marion-report --dashboard dashboard_response.jsonl --out dashboard.html
test -s dashboard.html
# `! cmd` never trips `set -e`, so each negated check exits by hand.
if grep -Eq 'http://|https://' dashboard.html; then
  echo "dashboard.html references the network" >&2
  exit 1
fi
if grep -Eq 'src=|href=' dashboard.html; then
  echo "dashboard.html links or embeds an external resource" >&2
  exit 1
fi
grep -q '<style>' dashboard.html
grep -q 'marion-serve dashboard' dashboard.html
grep -q '<svg' dashboard.html
# Both compiles were tail-sampled and replayed to a flamegraph: the
# cold one and the fully warm one.
grep -q 'Slowest requests' dashboard.html
grep -q 'r1 replay: wall-clock attribution' dashboard.html
grep -q 'r2 replay: wall-clock attribution' dashboard.html
rm -f dashboard_response.jsonl

echo "==> HTML report from demo trace (flamegraph + DAG SVG + subphase diff, must be fully self-contained)"
cargo run --release --offline -q -p marion-bench --bin marion-report -- \
  --demo --html --serve metrics_snapshot.json \
  --bench-diff BENCH_compile.json BENCH_compile_smoke.json \
  --retarget BENCH_retarget_smoke.json \
  --quality BENCH_quality.json --out report.html
test -s report.html
# Self-containment contract: no network references, no external assets.
if grep -Eq 'http://|https://' report.html; then
  echo "report.html references the network" >&2
  exit 1
fi
if grep -Eq 'src=|href=' report.html; then
  echo "report.html links or embeds an external resource" >&2
  exit 1
fi
grep -q '<style>' report.html
grep -q 'Compile service' report.html
# The self-profile flamegraph and dependence-DAG SVGs are embedded.
grep -q 'self-profile flamegraph' report.html
grep -q '<svg ' report.html
grep -q 'Dependence DAG' report.html
# The before/after subphase self-time table is embedded.
grep -q 'subphase self-time' report.html
grep -q 'dag_build' report.html
# The retargeting fuzz audit section is embedded.
grep -q 'Retargeting fuzz audit' report.html
grep -q 'blocks audited' report.html
# The quality observatory section is embedded.
grep -q 'Quality observatory' report.html
grep -q 'stall-cycle composition' report.html
grep -q 'speedups over Postpass' report.html
# Per-function stall attribution, and the demo blocks' replayed
# reservation tables (`cycle |` is a table's header).
grep -q 'Stall attribution' report.html
grep -q 'cycle |' report.html

echo "==> trace JSONL round trip (demo trace written, read back; profile lines, no per-call span or per-block event lines)"
./target/release/marion-report --demo --jsonl demo_trace.jsonl > /dev/null
./target/release/marion-report demo_trace.jsonl | grep -q 'phase timing'
grep -q '"t":"prof"' demo_trace.jsonl
if grep -q '"t":"span"' demo_trace.jsonl; then
  echo "demo_trace.jsonl carries per-call span lines" >&2
  exit 1
fi
if grep -q '"t":"event"' demo_trace.jsonl; then
  echo "demo_trace.jsonl carries event lines" >&2
  exit 1
fi
rm -f demo_trace.jsonl

echo "==> perf-regression gate self-test (identical -> 0, 2x strategy time -> 1)"
./target/release/marion-bench diff BENCH_compile.json BENCH_compile.json --tolerance 5 > /dev/null
sed 's/"strategy": [0-9][0-9.]*/"strategy": 99999.0/' BENCH_compile.json > BENCH_regressed_tmp.json
if ./target/release/marion-bench diff BENCH_compile.json BENCH_regressed_tmp.json --tolerance 25 > /dev/null; then
  echo "diff gate failed to flag a synthetic regression" >&2
  rm -f BENCH_regressed_tmp.json
  exit 1
fi
rm -f BENCH_regressed_tmp.json

# Enforcing perf-regression gate. The committed BENCH_compile.json was
# produced on the reference runner; other machines differ in absolute
# speed, so the tolerance is wide (percent slowdown allowed per phase).
# Set MARION_PERF_GATE=off to skip on hosts whose speed falls outside
# even that band, or override MARION_PERF_GATE_TOLERANCE to retune.
if [ "${MARION_PERF_GATE:-on}" = "off" ]; then
  echo "==> perf-regression gate vs committed baseline (SKIPPED: MARION_PERF_GATE=off)"
else
  echo "==> perf-regression gate vs committed baseline (enforcing, tolerance ${MARION_PERF_GATE_TOLERANCE:-300}%)"
  ./target/release/marion-bench diff BENCH_compile.json BENCH_compile_smoke.json \
    --tolerance "${MARION_PERF_GATE_TOLERANCE:-300}"
fi

echo "==> quality-regression gate self-test (identical -> 0, +1 sim cycle -> 1)"
./target/release/marion-bench diff BENCH_quality.json BENCH_quality.json --tolerance 0 > /dev/null
sed 's/"sim_cycles": \([0-9][0-9]*\)/"sim_cycles": 1\1/' BENCH_quality.json > BENCH_quality_regressed_tmp.json
if ./target/release/marion-bench diff BENCH_quality.json BENCH_quality_regressed_tmp.json --tolerance 0 > /dev/null; then
  echo "quality gate failed to flag a synthetic cycle regression" >&2
  rm -f BENCH_quality_regressed_tmp.json
  exit 1
fi
rm -f BENCH_quality_regressed_tmp.json

# Enforcing quality-regression gate: the simulator is deterministic, so
# a fresh full sweep must reproduce the committed matrix cycle-for-cycle
# (tolerance 0). Any kernel whose sim or estimated cycles regress fails
# here; an intentional scheduler change regenerates the baseline with
# `marion-bench quality` and commits it alongside the change.
echo "==> quality-regression gate vs committed baseline (enforcing, tolerance 0)"
cargo run --release --offline -q -p marion-bench --bin marion-bench -- quality --out BENCH_quality_fresh.json > /dev/null
./target/release/marion-bench diff BENCH_quality.json BENCH_quality_fresh.json --tolerance 0
rm -f BENCH_quality_fresh.json

echo "==> serve bench smoke (cold vs warm over the shared cache, writes BENCH_serve_smoke.json)"
cargo run --release --offline -q -p marion-bench --bin marion-bench -- serve --smoke --out BENCH_serve_smoke.json
# No other step reads this file: a tolerance-0 self-diff proves it parses.
./target/release/marion-bench diff BENCH_serve_smoke.json BENCH_serve_smoke.json --tolerance 0 > /dev/null
# It records the warm set's size: cached instructions and code bytes.
grep -q '"cached_insts": [1-9]' BENCH_serve_smoke.json
grep -q '"cached_code_bytes": [1-9]' BENCH_serve_smoke.json

# Benchmark self-test: every workload twice at one seed, untraced and
# traced; fails unless the deterministic metrics (sim_cycles among
# them) repeat exactly and no output check fails.
echo "==> perfbench self-test (deterministic metrics repeat, every check passes)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test

echo "CI OK"
