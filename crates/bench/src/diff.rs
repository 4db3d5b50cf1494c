//! `marion-bench diff` — the perf-regression comparator.
//!
//! Compares two `BENCH_*.json` files (the baseline committed to the
//! repo and a freshly measured one) metric by metric and decides
//! whether the new numbers regress past a tolerance. The bench files
//! nest (`runs[]` arrays of per-machine objects with a `phase_ms`
//! map); they are read with the workspace's JSON codec
//! (`marion_trace::json`).
//!
//! Direction is inferred from the metric name: `*_ms` / `*_us` are
//! wall-clock times and `*_cycles` are simulated schedule lengths
//! (bigger is worse); names containing `per_sec` or `speedup` are
//! rates (smaller is worse). Everything else
//! (`functions`, `iterations`, hit counts…) is context, compared for
//! identity-matching only, never gated. Array elements are matched by
//! their string-valued identity fields (`machine`, `workload`,
//! `strategy`…), so reordering runs between files is not a diff.

use marion_trace::json::Json;
use std::fmt::Write as _;

/// Concatenated string-valued fields: the identity of one `runs[]`
/// element (machine/workload/strategy and the like).
fn identity(run: &Json) -> String {
    let Some(fields) = run.as_obj() else {
        return String::new();
    };
    let mut parts: Vec<&str> = fields.iter().filter_map(|(_, v)| v.as_str()).collect();
    if parts.is_empty() {
        parts.push("");
    }
    parts.join("/")
}

/// Which way a metric regresses, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Wall-clock time: new > old is worse.
    HigherWorse,
    /// Throughput/speedup rate: new < old is worse.
    LowerWorse,
    /// Context only — never gated.
    Info,
}

fn direction(key: &str) -> Direction {
    if key.contains("per_sec") || key.contains("speedup") {
        Direction::LowerWorse
    } else if key.ends_with("_ms") || key.ends_with("_us") || key.ends_with("_cycles") {
        Direction::HigherWorse
    } else {
        Direction::Info
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Slash-joined location (`runs/r2000/livermore_combined/phase_ms/strategy`).
    pub path: String,
    pub old: f64,
    pub new: f64,
    /// Signed percent change, `(new − old) / old × 100`.
    pub pct: f64,
    /// Past tolerance in the metric's worse direction.
    pub regressed: bool,
}

/// The full comparison result.
#[derive(Debug, Default)]
pub struct Report {
    pub deltas: Vec<Delta>,
    /// Structural mismatches: keys or runs present on one side only.
    pub warnings: Vec<String>,
}

impl Report {
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Human-readable rendering: every gated metric with its delta,
    /// regressions flagged, warnings at the end.
    pub fn render(&self, tolerance_pct: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} metric(s) compared, tolerance {tolerance_pct}%",
            self.deltas.len()
        );
        for d in &self.deltas {
            let flag = if d.regressed {
                "REGRESSED"
            } else if d.pct.abs() < f64::EPSILON {
                "="
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:9} {}: {} -> {} ({:+.1}%)",
                flag, d.path, d.old, d.new, d.pct
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  warning: {w}");
        }
        let n = self.regressions().len();
        if n > 0 {
            let _ = writeln!(out, "{n} regression(s) past tolerance");
        } else {
            let _ = writeln!(out, "no regressions past tolerance");
        }
        out
    }
}

/// Compares two parsed bench documents.
pub fn compare(old: &Json, new: &Json, tolerance_pct: f64) -> Report {
    let mut report = Report::default();
    walk(old, new, "", tolerance_pct, &mut report);
    report
}

fn walk(old: &Json, new: &Json, path: &str, tol: f64, report: &mut Report) {
    match (old, new) {
        (Json::Obj(of), Json::Obj(nf)) => {
            for (key, ov) in of {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}/{key}")
                };
                match new.get(key) {
                    Some(nv) => walk(ov, nv, &sub, tol, report),
                    None => report.warnings.push(format!("{sub}: missing in NEW")),
                }
            }
            for (key, _) in nf {
                if old.get(key).is_none() {
                    report
                        .warnings
                        .push(format!("{path}/{key}: missing in OLD"));
                }
            }
        }
        (Json::Arr(oa), Json::Arr(na)) => {
            for ov in oa {
                let id = identity(ov);
                let sub = if id.is_empty() {
                    path.to_string()
                } else {
                    format!("{path}/{id}")
                };
                match na.iter().find(|nv| identity(nv) == id) {
                    Some(nv) => walk(ov, nv, &sub, tol, report),
                    None => report.warnings.push(format!("{sub}: run missing in NEW")),
                }
            }
            for nv in na {
                let id = identity(nv);
                if !oa.iter().any(|ov| identity(ov) == id) {
                    report
                        .warnings
                        .push(format!("{path}/{id}: run missing in OLD"));
                }
            }
        }
        _ => match (old.as_f64(), new.as_f64()) {
            (Some(o), Some(n)) => compare_numbers(o, n, path, tol, report),
            // Strings/bools/nulls are identity context; a changed
            // machine list or strategy label is a warning, not a perf
            // delta.
            _ if old != new => report
                .warnings
                .push(format!("{path}: value changed between files")),
            _ => {}
        },
    }
}

fn compare_numbers(o: f64, n: f64, path: &str, tol: f64, report: &mut Report) {
    let mut segs = path.rsplit('/');
    let key = segs.next().unwrap_or(path);
    let mut dir = direction(key);
    // Phase maps name their unit on the *map* key
    // (`phase_ms: {strategy: …}`): inherit the parent's
    // direction for plain-named leaves.
    if dir == Direction::Info {
        if let Some(parent) = segs.next() {
            if parent.ends_with("_ms") || parent.ends_with("_us") {
                dir = Direction::HigherWorse;
            }
        }
    }
    if dir == Direction::Info {
        return;
    }
    let pct = if o != 0.0 {
        (n - o) / o * 100.0
    } else if n == 0.0 {
        0.0
    } else {
        100.0
    };
    let regressed = match dir {
        Direction::HigherWorse => pct > tol,
        Direction::LowerWorse => pct < -tol,
        Direction::Info => false,
    };
    report.deltas.push(Delta {
        path: path.to_string(),
        old: o,
        new: n,
        pct,
        regressed,
    });
}

/// Parses and compares two bench documents; the string is the printed
/// report. Exit-code contract: `Ok((report, 0))` within tolerance,
/// `Ok((report, 1))` when any metric regressed.
///
/// # Errors
///
/// Unparseable input (the caller exits 2).
pub fn run_diff(
    old_text: &str,
    new_text: &str,
    tolerance_pct: f64,
) -> Result<(String, i32), String> {
    let old = Json::parse(old_text).map_err(|e| format!("OLD: {e}"))?;
    let new = Json::parse(new_text).map_err(|e| format!("NEW: {e}"))?;
    let report = compare(&old, &new, tolerance_pct);
    let code = if report.regressions().is_empty() {
        0
    } else {
        1
    };
    Ok((report.render(tolerance_pct), code))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "bench": "compile",
      "runs": [
        {"machine": "r2000", "workload": "ll", "functions": 15,
         "functions_per_sec": 200.0,
         "phase_ms": {"select": 1.0, "strategy": 60.0}},
        {"machine": "i860", "workload": "ll", "functions": 15,
         "functions_per_sec": 100.0,
         "phase_ms": {"select": 2.0, "strategy": 90.0}}
      ]
    }"#;

    #[test]
    fn identical_files_exit_zero() {
        let (report, code) = run_diff(BASE, BASE, 5.0).unwrap();
        assert_eq!(code, 0);
        assert!(report.contains("no regressions"));
    }

    #[test]
    fn a_2x_time_regression_exits_nonzero() {
        let worse = BASE.replace("\"strategy\": 60.0", "\"strategy\": 120.0");
        let (report, code) = run_diff(BASE, &worse, 25.0).unwrap();
        assert_eq!(code, 1);
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("r2000/ll/phase_ms/strategy"));
    }

    #[test]
    fn improvements_and_within_tolerance_changes_pass() {
        // Faster time and a small rate wobble inside tolerance.
        let better = BASE
            .replace("\"strategy\": 60.0", "\"strategy\": 30.0")
            .replace(
                "\"functions_per_sec\": 100.0",
                "\"functions_per_sec\": 98.0",
            );
        let (report, code) = run_diff(BASE, &better, 5.0).unwrap();
        assert_eq!(code, 0, "{report}");
    }

    #[test]
    fn a_rate_drop_past_tolerance_regresses() {
        let slower = BASE.replace(
            "\"functions_per_sec\": 200.0",
            "\"functions_per_sec\": 150.0",
        );
        let (_, code) = run_diff(BASE, &slower, 10.0).unwrap();
        assert_eq!(code, 1);
    }

    #[test]
    fn cycle_counts_gate_higher_is_worse() {
        // Quality-matrix keys: sim/est cycles gate exactly, while the
        // diagnostic columns (stalls, drift, utilization) stay Info.
        let base = r#"{
          "bench": "quality",
          "runs": [
            {"machine": "r2000", "strategy": "rase", "workload": "LL3",
             "sim_cycles": 1000, "est_cycles": 900, "critical_path": 700,
             "stall_total": 40, "drift_pct": 11.11}
          ]
        }"#;
        let worse = base.replace("\"sim_cycles\": 1000", "\"sim_cycles\": 1001");
        let (report, code) = run_diff(base, &worse, 0.0).unwrap();
        assert_eq!(code, 1, "{report}");
        assert!(report.contains("r2000/rase/LL3/sim_cycles"));
        // Non-cycle quality columns never gate, even at tolerance 0.
        let noisy = base
            .replace("\"stall_total\": 40", "\"stall_total\": 90")
            .replace("\"drift_pct\": 11.11", "\"drift_pct\": 44.44")
            .replace("\"critical_path\": 700", "\"critical_path\": 800");
        let (report, code) = run_diff(base, &noisy, 0.0).unwrap();
        assert_eq!(code, 0, "{report}");
        // A cycle improvement passes.
        let better = base.replace("\"est_cycles\": 900", "\"est_cycles\": 850");
        let (_, code) = run_diff(base, &better, 0.0).unwrap();
        assert_eq!(code, 0);
    }

    #[test]
    fn runs_match_by_identity_not_order() {
        let old = Json::parse(BASE).unwrap();
        let swapped = r#"{
          "bench": "compile",
          "runs": [
            {"machine": "i860", "workload": "ll", "functions": 15,
             "functions_per_sec": 100.0,
             "phase_ms": {"select": 2.0, "strategy": 90.0}},
            {"machine": "r2000", "workload": "ll", "functions": 15,
             "functions_per_sec": 200.0,
             "phase_ms": {"select": 1.0, "strategy": 60.0}}
          ]
        }"#;
        let new = Json::parse(swapped).unwrap();
        let report = compare(&old, &new, 5.0);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn missing_runs_and_keys_warn() {
        let old = Json::parse(BASE).unwrap();
        let trimmed = r#"{
          "bench": "compile",
          "runs": [
            {"machine": "r2000", "workload": "ll", "functions": 15,
             "functions_per_sec": 200.0,
             "phase_ms": {"select": 1.0}}
          ]
        }"#;
        let new = Json::parse(trimmed).unwrap();
        let report = compare(&old, &new, 5.0);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("i860/ll") && w.contains("missing in NEW")));
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("strategy") && w.contains("missing in NEW")));
    }

    #[test]
    fn unparseable_files_are_errors() {
        assert!(run_diff("{", BASE, 5.0).unwrap_err().starts_with("OLD: "));
        assert!(run_diff(BASE, "[1,", 5.0).unwrap_err().starts_with("NEW: "));
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = run_diff(&deep, &deep, 5.0).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}
