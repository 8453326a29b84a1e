//! Result files: the machine fingerprint every `--out` carries, the
//! table people read, and `compare`.

use crate::json::Value;
use crate::metrics::{Better, Bound, EndToEnd, END_TO_END, WORKLOADS};
use std::process::Command;

pub const SCHEMA: &str = "oriole-benchmark v1";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Where and how these numbers were taken. Every field falls back to
/// `unknown`: the driver's checkout is not a git repository, and
/// `/proc` is Linux.
pub fn fingerprint() -> Value {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ram_mib = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| (kb / 1024.0).round());
    Value::obj()
        .with("nproc", Value::Num(nproc as f64))
        .with(
            "cpu_model",
            Value::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        )
        .with("ram_mib", Value::Num(ram_mib))
        .with(
            "rustc",
            Value::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        )
        .with(
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        )
        .with(
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        )
}

/// The document an `--out` file holds.
pub fn document(seed: u64, seconds: f64, quick: bool, workloads: Value) -> Value {
    Value::obj()
        .with("schema", Value::Str(SCHEMA.to_string()))
        .with("fingerprint", fingerprint())
        .with("seed", Value::Num(seed as f64))
        .with(
            "units",
            Value::obj()
                .with("seconds_per_workload", Value::Num(seconds))
                .with("quick", Value::Bool(quick))
                .with(
                    "search_budget",
                    Value::Num(crate::workloads::SEARCH_BUDGET as f64),
                )
                .with(
                    "rpcs_per_unit",
                    Value::Num(crate::workloads::RPCS_PER_UNIT as f64),
                )
                .with(
                    "disk_reopens",
                    Value::Num(crate::workloads::DISK_REOPENS as f64),
                )
                .with(
                    "fleet_chunk",
                    Value::Num(crate::workloads::FLEET_CHUNK as f64),
                ),
        )
        .with("workloads", workloads)
}

fn metric(doc: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Every metric of every workload in `doc`, one per line.
pub fn table(doc: &Value) -> String {
    let mut out = String::new();
    for (workload, entry) in doc.get("workloads").map(Value::fields).unwrap_or_default() {
        let flag = |key: &str| entry.get(key).and_then(Value::as_bool).unwrap_or(false);
        out.push_str(&format!(
            "{workload}: {} (golden: {})\n",
            if flag("correct") { "correct" } else { "WRONG" },
            entry.get("golden").and_then(Value::as_str).unwrap_or("?"),
        ));
        for group in ["end_to_end", "per_layer"] {
            for (name, m) in entry.get(group).map(Value::fields).unwrap_or_default() {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                out.push_str(&format!("  {name:<34} {value:>16.6} {unit}\n"));
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies a metric's direction and bound. `base_iqr_pct` is the base
/// run's unit-time spread (0 for metrics that are not times): a bound
/// narrower than the noise it was measured in cannot call a difference
/// either way.
pub fn judge(def: &EndToEnd, base: f64, new: f64, base_iqr_pct: f64) -> Verdict {
    let toward_worse = match def.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    match def.bound {
        Bound::Relative(share) if base_iqr_pct > share * 100.0 => Verdict::Unresolved,
        Bound::Relative(share) => {
            let moved = toward_worse / base.abs();
            if moved > share {
                Verdict::Worse
            } else if moved < -share {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
        Bound::Exact => {
            if new.to_bits() == base.to_bits() || toward_worse == 0.0 {
                Verdict::Same
            } else if toward_worse > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Better
            }
        }
    }
}

/// One row per (metric, workload); `Err` when the two files cannot be
/// compared at all.
pub fn compare(base: &Value, new: &Value) -> Result<Vec<(String, Verdict)>, String> {
    for doc in [base, new] {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not an `{SCHEMA}` file"));
        }
    }
    let quick = |doc: &Value| {
        doc.get("units")
            .and_then(|u| u.get("quick"))
            .and_then(Value::as_bool)
    };
    if quick(base) != Some(false) || quick(new) != Some(false) {
        return Err("quick runs are never compared".to_string());
    }
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        let iqr = metric(base, workload, "per_layer", "run.unit_iqr_pct").unwrap_or(0.0);
        for def in &END_TO_END {
            let (Some(b), Some(n)) = (
                metric(base, workload, "end_to_end", def.name),
                metric(new, workload, "end_to_end", def.name),
            ) else {
                continue;
            };
            let timed = matches!(def.unit, "s" | "us");
            let verdict = judge(def, b, n, if timed { iqr } else { 0.0 });
            rows.push((
                format!(
                    "{:<16} {:<16} {:>14.6} -> {:>14.6} {:<6} {}",
                    workload,
                    def.name,
                    b,
                    n,
                    def.unit,
                    verdict.as_str()
                ),
                verdict,
            ));
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn relative_bounds_follow_direction() {
        let lower = EndToEnd {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: Bound::Relative(0.10),
            driver: true,
        };
        assert_eq!(judge(&lower, 100.0, 105.0, 2.0), Verdict::Same);
        assert_eq!(judge(&lower, 100.0, 111.0, 2.0), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 85.0, 2.0), Verdict::Better);
        // Noise wider than the bound: no call either way.
        assert_eq!(judge(&lower, 100.0, 150.0, 12.0), Verdict::Unresolved);
        let higher = EndToEnd {
            better: Better::Higher,
            ..lower
        };
        assert_eq!(judge(&higher, 100.0, 85.0, 2.0), Verdict::Worse);
        assert_eq!(judge(&higher, 100.0, 111.0, 2.0), Verdict::Better);
    }

    #[test]
    fn exact_metrics_allow_no_difference() {
        let quality = def("suggest_quality"); // higher is better
        assert_eq!(judge(quality, 0.9, 0.9, 50.0), Verdict::Same);
        assert_eq!(judge(quality, 0.9, 0.899_999, 0.0), Verdict::Worse);
        assert_eq!(judge(quality, 0.9, 0.91, 0.0), Verdict::Better);
        let failed = def("failed_share");
        assert_eq!(judge(failed, 0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(judge(failed, 0.0, 1e-6, 0.0), Verdict::Worse);
    }

    fn doc(quick: bool, rss_mb: f64, iqr: f64) -> Value {
        let leaf = |v: f64| {
            Value::obj()
                .with("value", Value::Num(v))
                .with("unit", Value::Str("x".into()))
        };
        let entry = Value::obj()
            .with(
                "end_to_end",
                Value::obj()
                    .with("peak_rss_mb", leaf(rss_mb))
                    .with("failed_share", leaf(0.0)),
            )
            .with(
                "per_layer",
                Value::obj().with("run.unit_iqr_pct", leaf(iqr)),
            );
        let mut d = document(1, 8.0, quick, Value::obj().with("cold_sweep", entry));
        d.set("fingerprint", Value::Null);
        d
    }

    #[test]
    fn compare_reports_one_row_per_metric_and_workload() {
        let rows = compare(&doc(false, 1.0, 1.0), &doc(false, 1.5, 1.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, Verdict::Worse);
        assert_eq!(rows[1].1, Verdict::Same);
        // Memory is not a time: unit-time noise does not unresolve it.
        let rows = compare(&doc(false, 1.0, 15.0), &doc(false, 1.5, 1.0)).unwrap();
        assert_eq!(rows[0].1, Verdict::Worse);
    }

    #[test]
    fn quick_runs_are_refused() {
        assert!(compare(&doc(true, 1.0, 1.0), &doc(false, 1.0, 1.0)).is_err());
        assert!(compare(&doc(false, 1.0, 1.0), &Value::obj()).is_err());
    }
}
