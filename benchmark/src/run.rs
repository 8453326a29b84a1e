//! One workload, one process: set-up, the discarded warm-up unit, the
//! timed units, the checks, and (traced) the layer probes.

use crate::json::Value;
use crate::metrics::{MetricSet, FAILED_SHARE};
use crate::probes;
use crate::product::SearchSpace;
use crate::speed::SpeedMeter;
use crate::stats::{iqr_pct, median};
use crate::trace::Tracer;
use crate::verify::{Golden, Tally};
use crate::workloads::{self, out_dir, work_dir, Prepared, Workload};
use std::time::{Duration, Instant};

/// Times the whole set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 3;
/// A run times at least this many units, however slow the machine.
const MIN_UNITS: usize = 3;
/// `--quick` times exactly this many.
const QUICK_UNITS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Wall-clock budget of the timed units.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// What one workload run found.
pub struct RunResult {
    pub config: RunConfig,
    pub tally: Tally,
    /// `match`, `skipped (quick)`, or what differs from the golden file.
    pub golden: String,
    pub end_to_end: MetricSet,
    /// `run.*` always; every layer metric as well when traced.
    pub per_layer: MetricSet,
    /// Order-sensitive digest of the first timed unit's answers, and
    /// the same fold over the reference: equal when every bit agrees.
    pub result_digest: u64,
    pub expected_digest: u64,
    pub reference_digest: u64,
    pub inputs_digest: u64,
    /// Wall time of each untraced timed unit, in run order, as the
    /// clock read it...
    pub unit_walls_s: Vec<f64>,
    /// ...and how much slower than nominal the machine ran around each
    /// (`speed.rs`); `unit_p50_s` is the median of their quotients.
    pub unit_slowdowns: Vec<f64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && (self.golden == "match" || self.config.quick)
    }

    fn verdict(&self) -> Value {
        Value::obj()
            .with("correct", Value::Bool(self.correct()))
            .with("attempted", Value::Num(self.tally.attempted as f64))
            .with("failed", Value::Num(self.tally.failed as f64))
    }

    /// The line the driver reads: end-to-end metrics untraced,
    /// per-layer metrics traced.
    pub fn result_line(&self) -> Value {
        let metrics = if self.config.trace {
            self.per_layer.to_json(false)
        } else {
            self.end_to_end.to_json(true)
        };
        self.verdict().with("metrics", metrics)
    }

    /// This workload's entry in an `--out` file.
    pub fn to_json(&self) -> Value {
        let hex = |digest: u64| Value::Str(format!("{digest:016x}"));
        let numbers = |values: &[f64]| Value::Arr(values.iter().map(|&v| Value::Num(v)).collect());
        self.verdict()
            .with("golden", Value::Str(self.golden.clone()))
            .with("traced", Value::Bool(self.config.trace))
            .with("result_digest", hex(self.result_digest))
            .with("expected_digest", hex(self.expected_digest))
            .with("reference_digest", hex(self.reference_digest))
            .with("inputs_digest", hex(self.inputs_digest))
            .with("unit_walls_s", numbers(&self.unit_walls_s))
            .with("unit_slowdowns", numbers(&self.unit_slowdowns))
            .with("end_to_end", self.end_to_end.to_json(false))
            .with("per_layer", self.per_layer.to_json(false))
    }
}

/// `VmHWM` of this process, in MiB.
fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The timed units of one phase (untraced or traced) of a run.
struct Phase {
    /// Wall time of each unit, in seconds.
    walls: Vec<f64>,
    /// The machine's slowdown around each unit.
    slowdowns: Vec<f64>,
    /// Every single-point round trip the units made (`remote_warm`).
    rpc_us: Vec<f64>,
    /// Every answer of the phase.
    tally: Tally,
    /// The first unit's own tally: its digests are the ones reported.
    first: Tally,
}

impl Phase {
    /// Each unit's wall time at the machine's nominal speed.
    fn normalised(&self) -> Vec<f64> {
        self.walls
            .iter()
            .zip(&self.slowdowns)
            .map(|(wall, slowdown)| wall / slowdown)
            .collect()
    }
}

/// Times units until `budget` of wall clock is spent (verification and
/// reference work included, so a run's length is known in advance), at
/// least [`MIN_UNITS`]; `--quick` times [`QUICK_UNITS`] regardless. A
/// unit that answers another number of points than `points_per_unit`
/// is wrong whatever its answers are.
fn time_units(
    workload: &mut dyn Workload,
    pre: &Prepared,
    tr: &Tracer,
    budget: Duration,
    first_unit: usize,
    points_per_unit: u64,
) -> Phase {
    let start = Instant::now();
    let mut meter = SpeedMeter::start();
    let mut phase = Phase {
        walls: Vec::new(),
        slowdowns: Vec::new(),
        rpc_us: Vec::new(),
        tally: Tally::new(),
        first: Tally::new(),
    };
    loop {
        let done = if pre.inputs.quick {
            phase.walls.len() >= QUICK_UNITS
        } else {
            phase.walls.len() >= MIN_UNITS && start.elapsed() >= budget
        };
        if done {
            return phase;
        }
        tr.set_unit((first_unit + phase.walls.len()) as i32);
        let mut unit = tr.in_span("unit", || workload.unit(pre, tr));
        phase.slowdowns.push(meter.slowdown());
        if unit.tally.attempted != points_per_unit {
            unit.tally.fail_unit();
        }
        if phase.walls.is_empty() {
            phase.first = unit.tally;
        }
        phase.tally.absorb(&unit.tally);
        phase.walls.push(unit.wall.as_secs_f64());
        phase.rpc_us.extend(unit.rpc_us);
    }
}

/// Set-up plus the workload's own preparation, timed (normalised
/// seconds, like the units).
fn set_up(config: &RunConfig, tr: &Tracer) -> Result<(f64, Prepared, Box<dyn Workload>), String> {
    let mut meter = SpeedMeter::start();
    let start = Instant::now();
    let pre = Prepared::build(config.seed, SearchSpace::paper_default(), config.quick, tr)?;
    let workload = workloads::build(&config.workload, &pre)?;
    let wall = start.elapsed().as_secs_f64();
    Ok((wall / meter.slowdown(), pre, workload))
}

pub fn run_workload(config: RunConfig) -> Result<RunResult, String> {
    let tr = Tracer::new(false);
    let (first_setup_s, pre, mut workload) = set_up(&config, &tr)?;

    // The first unit is slower than the rest (allocator, page cache,
    // lazily built tables): run it, check it, discard its time.
    let warmup = workload.unit(&pre, &tr);
    let points_per_unit = warmup.tally.attempted;
    // Memory is read here: one set-up and one unit, which is what one
    // sweep costs its user. Later units only add allocator luck (fresh
    // stores land in whichever arena their worker threads are handed,
    // and the high-water mark creeps up by a random 5-30 % over a run).
    let peak_rss_mb = vm_hwm_mb()?;

    let observed = pre.observed_golden(&config.workload, points_per_unit);
    let golden = if config.quick {
        "skipped (quick)".to_string()
    } else {
        match Golden::load(&config.workload) {
            Ok(pinned) => match observed.differences(&pinned) {
                d if d.is_empty() => "match".to_string(),
                d => d.join("; "),
            },
            Err(e) => e,
        }
    };

    // Traced runs time untraced units first: that prices the spans.
    let budget = Duration::from_secs_f64(if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    });
    let plain = time_units(workload.as_mut(), &pre, &tr, budget, 0, points_per_unit);
    let traced = config.trace.then(|| {
        tr.set_enabled(true);
        let first_unit = plain.walls.len();
        let phase = time_units(
            workload.as_mut(),
            &pre,
            &tr,
            budget,
            first_unit,
            points_per_unit,
        );
        tr.set_unit(-1);
        phase
    });

    // The creep itself, before the probes and the set-up repetitions.
    let rss_growth_mb = vm_hwm_mb()? - peak_rss_mb;

    let mut tally = warmup.tally;
    let mut rpc_us = Vec::new();
    for phase in std::iter::once(&plain).chain(&traced) {
        tally.absorb(&phase.tally);
        rpc_us.extend(&phase.rpc_us);
    }
    let units_s = plain.normalised();
    let unit_p50_s = median(&units_s);

    let mut per_layer = MetricSet::new();
    if config.trace {
        per_layer.extend(probes::run(&pre, &tr)?);
    }
    per_layer.layer("run.points_per_s", points_per_unit as f64 / unit_p50_s);
    per_layer.layer("run.points_per_unit", points_per_unit as f64);
    per_layer.layer("run.units", plain.walls.len() as f64);
    per_layer.layer("run.unit_iqr_pct", iqr_pct(&units_s));
    per_layer.layer("run.unit_raw_p50_s", median(&plain.walls));
    per_layer.layer("run.slowdown", median(&plain.slowdowns));
    per_layer.layer("run.warmup_unit_s", warmup.wall.as_secs_f64());
    per_layer.layer("run.rss_growth_mb", rss_growth_mb);
    if let Some(phase) = &traced {
        let overhead = median(&phase.normalised()) / unit_p50_s - 1.0;
        per_layer.layer("run.trace_overhead_pct", overhead * 100.0);
    }
    per_layer.layer(
        "run.generator_threads",
        f64::from(workload.generator_threads()),
    );

    let inputs_digest = pre.inputs.order_digest();
    let (suggest_quality, space_kept_pct) = (pre.suggest_quality, pre.space_kept_pct);
    workload.finish();
    drop(pre);
    if config.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.jsonl", config.workload));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Set-up again, for a median: it is one short measurement otherwise.
    tr.set_enabled(false);
    let mut setup_s = vec![first_setup_s];
    for _ in 1..if config.quick { 1 } else { SETUP_REPS } {
        let (seconds, _pre, workload) = set_up(&config, &tr)?;
        setup_s.push(seconds);
        workload.finish();
    }
    let _ = std::fs::remove_dir_all(work_dir());

    let mut end_to_end = MetricSet::new();
    end_to_end.end_to_end("setup_s", median(&setup_s));
    end_to_end.end_to_end("unit_p50_s", unit_p50_s);
    end_to_end.end_to_end("peak_rss_mb", peak_rss_mb);
    if !rpc_us.is_empty() {
        end_to_end.end_to_end("rpc_p50_us", median(&rpc_us));
    }
    end_to_end.end_to_end("suggest_quality", suggest_quality);
    end_to_end.end_to_end("space_kept_pct", space_kept_pct);
    end_to_end.end_to_end(FAILED_SHARE, tally.failed_share());

    Ok(RunResult {
        tally,
        golden,
        end_to_end,
        per_layer,
        result_digest: plain.first.got,
        expected_digest: plain.first.want,
        reference_digest: observed.reference_digest,
        inputs_digest,
        unit_walls_s: plain.walls,
        unit_slowdowns: plain.slowdowns,
        config,
    })
}

/// Writes `golden/<workload>.digest` for every workload from what this
/// build computes. Only a `benchmark` issue that means to move model
/// values runs this.
pub fn write_golden() -> Result<(), String> {
    let tr = Tracer::new(false);
    let pre = Prepared::build(1, SearchSpace::paper_default(), false, &tr)?;
    for (name, _) in crate::metrics::WORKLOADS {
        let mut workload = workloads::build(name, &pre)?;
        let unit = workload.unit(&pre, &tr);
        workload.finish();
        if unit.tally.failed != 0 {
            return Err(format!(
                "{name}: {} wrong answers; not pinning that",
                unit.tally.failed
            ));
        }
        let path = Golden::path(name);
        std::fs::write(
            &path,
            pre.observed_golden(name, unit.tally.attempted).emit(),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let _ = std::fs::remove_dir_all(work_dir());
    Ok(())
}
