//! The Oriole benchmark: six workloads over the full paper space,
//! end-to-end metrics checked bit for bit, and an outside-in layer
//! trace. See `README.md` beside this package.

mod gen;
mod json;
mod metrics;
mod probes;
mod product;
mod report;
mod run;
mod speed;
mod stats;
mod trace;
mod verify;
mod workloads;

use json::Value;
use metrics::{Bound, END_TO_END, EXACT_AS_SHARE, PER_LAYER, WORKLOADS};
use report::Verdict;
use run::RunConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Timed seconds per workload; `BENCHMARK.json` states the same.
const RUN_SECONDS: u32 = 15;

const USAGE: &str = "\
usage:
  oriole-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file.json>]
  oriole-benchmark run --all --seed <u64> [--seconds <s>] [--trace] [--quick] [--out <file.json>]
  oriole-benchmark compare <base.json> <new.json>
  oriole-benchmark selfcheck [--seed <u64>] [--seconds <s>]
  oriole-benchmark golden      rewrite golden/*.digest from this build
  oriole-benchmark manifest    print BENCHMARK.json";

struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--all" => parsed.all = true,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (&parsed.workload, parsed.all) {
        (Some(_), true) => Err("--workload and --all exclude each other".to_string()),
        (None, false) => Err("name a workload with --workload, or pass --all".to_string()),
        (Some(w), false) if !WORKLOADS.iter().any(|(name, _)| name == w) => {
            Err(format!("unknown workload `{w}`"))
        }
        _ => Ok(parsed),
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_doc(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. The result line is the last thing on
/// standard output.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let result = run::run_workload(RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    })?;
    if !result.correct() {
        eprintln!(
            "{workload}: {} of {} points failed; golden: {}",
            result.tally.failed, result.tally.attempted, result.golden
        );
    }
    if let Some(out) = &args.out {
        let doc = report::document(
            args.seed,
            args.seconds,
            args.quick,
            Value::obj().with(workload, result.to_json()),
        );
        write_file(out, &doc.pretty())?;
    }
    println!("{}", result.result_line());
    Ok(result.correct())
}

/// Every workload, each in a fresh child process, so peak memory and
/// the product's process-wide state are per workload. With `--trace`
/// each runs twice: end-to-end metrics come from the untraced run.
fn run_all(args: &RunArgs) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let parts = workloads::out_dir().join(format!("parts-{}", std::process::id()));
    let mut merged = Value::obj();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let mut entry: Option<Value> = None;
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let part = parts.join(format!("{workload}-{}.json", u8::from(traced)));
            eprintln!("== {workload}{}", if traced { " (traced)" } else { "" });
            let mut child = Command::new(&exe);
            child
                .args([
                    "run",
                    "--workload",
                    workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(&part)
                .stdout(Stdio::null());
            if args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            if !status.success() {
                all_correct = false;
                if !part.exists() {
                    return Err(format!(
                        "{workload}: run failed before reporting ({status})"
                    ));
                }
            }
            let doc = read_doc(&part)?;
            let fresh = doc
                .get("workloads")
                .and_then(|w| w.get(workload))
                .cloned()
                .ok_or(format!("{}: no `{workload}` entry", part.display()))?;
            entry = Some(match entry {
                None => fresh,
                // Keep the untraced end-to-end numbers; take the traced
                // run's layers and its verdict on correctness.
                Some(mut untraced) => {
                    for key in ["per_layer", "traced"] {
                        untraced.set(key, fresh.get(key).cloned().unwrap_or(Value::Null));
                    }
                    let both = |key: &str| {
                        untraced.get(key).and_then(Value::as_bool) == Some(true)
                            && fresh.get(key).and_then(Value::as_bool) == Some(true)
                    };
                    let correct = both("correct");
                    untraced.set("correct", Value::Bool(correct));
                    untraced
                }
            });
        }
        merged.set(workload, entry.expect("the untraced run always happens"));
    }
    let _ = std::fs::remove_dir_all(&parts);
    let doc = report::document(args.seed, args.seconds, args.quick, merged);
    Ok((doc, all_correct))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    if let Some(workload) = args.workload.clone() {
        return run_one(&args, &workload);
    }
    let (doc, correct) = run_all(&args)?;
    print!("{}", report::table(&doc));
    if let Some(out) = &args.out {
        write_file(out, &doc.pretty())?;
    }
    Ok(correct)
}

fn print_comparison(base: &Value, new: &Value) -> Result<bool, String> {
    let rows = report::compare(base, new)?;
    for (line, _) in &rows {
        println!("{line}");
    }
    let count = |v: Verdict| rows.iter().filter(|(_, got)| *got == v).count();
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::Same),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("compare takes two result files".to_string());
    };
    print_comparison(&read_doc(Path::new(base))?, &read_doc(Path::new(new))?)
}

/// The run-to-run acceptance gate: the full set twice on one seed must
/// agree within the benchmark's own bounds.
fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let mut args = args.to_vec();
    args.push("--all".to_string());
    let args = parse_run_args(&args)?;
    if args.quick {
        return Err("selfcheck compares full runs; --quick runs are never compared".to_string());
    }
    let mut docs = Vec::new();
    for name in ["selfcheck-a.json", "selfcheck-b.json"] {
        let (doc, correct) = run_all(&args)?;
        write_file(&workloads::out_dir().join(name), &doc.pretty())?;
        if !correct {
            print!("{}", report::table(&doc));
            return Err(format!("{name}: a workload answered wrongly"));
        }
        docs.push(doc);
    }
    print_comparison(&docs[0], &docs[1])
}

/// `BENCHMARK.json`, generated from the tables in `metrics.rs`.
fn manifest() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Value::obj().with("name", text(name)).with("why", text(why)));
    let end_to_end = END_TO_END.iter().filter(|m| m.driver).map(|m| {
        let bound = match m.bound {
            Bound::Relative(share) => share,
            Bound::Exact => EXACT_AS_SHARE,
        };
        Value::obj()
            .with("name", text(m.name))
            .with("unit", text(m.unit))
            .with("better", text(m.better.as_str()))
            .with("bound", Value::Num(bound))
    });
    let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
        Value::obj()
            .with("name", text(name))
            .with("unit", text(unit))
            .with("better", text(better.as_str()))
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Value::obj()
        .with(
            "command",
            Value::Arr(command.iter().map(|s| text(s)).collect()),
        )
        .with("paths", Value::Arr(vec![text("benchmark")]))
        .with("run_seconds", Value::Num(f64::from(RUN_SECONDS)))
        .with("workloads", Value::Arr(workloads.collect()))
        .with("end_to_end", Value::Arr(end_to_end.collect()))
        .with("per_layer", Value::Arr(per_layer.collect()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "compare" => cmd_compare(rest),
            "selfcheck" => cmd_selfcheck(rest),
            "golden" => run::write_golden().map(|()| true),
            "manifest" => {
                print!("{}", manifest().pretty());
                Ok(true)
            }
            other => Err(format!("unknown command `{other}`\n{USAGE}")),
        },
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_run_args(&args(&[
            "--workload",
            "cold_sweep",
            "--seed",
            "42",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("cold_sweep"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 8.0, true));
        let a = parse_run_args(&args(&[
            "--workload",
            "cold_sweep",
            "--trace",
            "0",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.trace), (3, false));
    }

    #[test]
    fn the_issue_command_line_parses() {
        let a = parse_run_args(&args(&[
            "--all", "--seed", "7", "--trace", "--quick", "--out", "x.json",
        ]))
        .unwrap();
        assert!(a.all && a.trace && a.quick);
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_run_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--all", "--workload", "cold_sweep"])).is_err());
        assert!(parse_run_args(&args(&["--all", "--seconds", "0"])).is_err());
        assert!(parse_run_args(&args(&["--all", "--frobnicate"])).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; `manifest` is what
    /// the tables in this package say. They must be the same document.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(on_disk, manifest());
    }

    #[test]
    fn the_manifest_stays_inside_the_contract() {
        let m = manifest();
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(m.to_string().len() < 64 * 1024);
        for (name, unit, _) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
        }
    }
}
