//! Execution-time prediction from static instruction mixes — Eq. 6.
//!
//! > `f(N) = c_f·O_fl + c_m·O_mem + c_b·O_ctrl + c_r·O_reg`
//! > where `c_f, c_m, c_b, c_r` are coefficients that represent the
//! > reciprocal of the number of instructions that can execute in a
//! > cycle, or CPI. Equation 6 represents how a program will perform for
//! > input size N *without running the application*.
//!
//! The coefficients come straight from Table II (class CPIs for the
//! target compute capability); they are **not** fitted against the
//! simulator, keeping the prediction honestly static. Output is in
//! arbitrary model units — Fig. 5 normalizes both predictions and
//! measurements before comparing, and so do we ([`PredictedSeries`]).
//!
//! Eq. 6 is also available as a timing backend: `oriole_sim::model`'s
//! static backend calls [`predict_time_indexed`] when a context's
//! `ModelId` is `Static`, so the CLI's
//! `--model static` (on `tune`/`simulate`/`analyze`) and the
//! `model_agreement` experiment bin run this predictor through the same
//! evaluation stack — the store's front-end and measurement tiers — as
//! the simulator.
//!
//! [`predict_time_indexed`] is Eq. 6's one public form. It takes the
//! Table II column explicitly (`GpuSpec::throughput`; the injection
//! point for measured or synthetic columns later) and the compiled
//! kernel's `index`, whose per-block mix tapes it replays instead of
//! walking the program.

use oriole_arch::{InstrClass, ThroughputTable};
use oriole_ir::{LaunchGeometry, Program, ProgramIndex};

/// Eq. 6: predicted execution cost of one kernel launch at geometry
/// `geom`, from the *static* (trip-count-weighted) per-thread mix under
/// the Table II column `table`. The mix is replayed from the prebuilt
/// index's per-block tapes, which keep the program walk's record order
/// and weights (`oriole_ir::count::expected_mix` is that walk, kept as
/// the reference the index is tested against), so the result is
/// bit-identical to walking.
pub fn predict_time_indexed(
    table: &ThroughputTable,
    index: &ProgramIndex,
    program: &Program,
    geom: LaunchGeometry,
) -> f64 {
    let classes = index.expected_mix(program, geom).classes();
    let cf = table.class_cpi(InstrClass::Flops);
    let cm = table.class_cpi(InstrClass::Mem);
    let cb = table.class_cpi(InstrClass::Ctrl);
    let cr = table.class_cpi(InstrClass::Reg);
    cf * classes.flops + cm * classes.mem + cb * classes.ctrl + cr * classes.reg
}

/// A (prediction, measurement) series over a set of code variants,
/// prepared for Fig. 5-style comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedSeries {
    /// Normalized predictions, sorted by ascending *measured* time.
    pub predicted: Vec<f64>,
    /// Normalized measurements, ascending.
    pub measured: Vec<f64>,
}

impl PredictedSeries {
    /// Builds the Fig. 5 series: sorts variants by measured time,
    /// normalizes both signals to `[0, 1]`.
    pub fn build(pairs: &[(f64, f64)]) -> PredictedSeries {
        let mut sorted: Vec<(f64, f64)> = pairs.to_vec();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
        let predicted = normalize(&sorted.iter().map(|p| p.0).collect::<Vec<_>>());
        let measured = normalize(&sorted.iter().map(|p| p.1).collect::<Vec<_>>());
        PredictedSeries { predicted, measured }
    }

    /// Mean absolute error between the normalized series (the Fig. 5
    /// y-axis quantity).
    pub fn mae(&self) -> f64 {
        mae(&self.predicted, &self.measured)
    }

    /// Spearman-style rank agreement: fraction of variant pairs ordered
    /// identically by prediction and measurement. 1.0 = the static model
    /// ranks exactly like the machine; 0.5 = no information.
    pub fn rank_agreement(&self) -> f64 {
        let n = self.predicted.len();
        if n < 2 {
            return 1.0;
        }
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let dp = self.predicted[i] - self.predicted[j];
                let dm = self.measured[i] - self.measured[j];
                if dp == 0.0 || dm == 0.0 {
                    continue;
                }
                total += 1;
                if (dp > 0.0) == (dm > 0.0) {
                    agree += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            agree as f64 / total as f64
        }
    }
}

/// Min–max normalization to `[0, 1]` (constant series map to zeros).
fn normalize(values: &[f64]) -> Vec<f64> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() || hi == lo {
        return vec![0.0; values.len()];
    }
    values.iter().map(|&v| (v - lo) / (hi - lo)).collect()
}

/// Mean absolute error between two equal-length series.
fn mae(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_kernels::KernelId;

    fn predict(kid: KernelId, n: u64, tc: u32) -> f64 {
        let gpu = Gpu::K20.spec();
        let kernel = compile(&kid.ast(n), gpu, TuningParams::with_geometry(tc, 48)).unwrap();
        let geom = LaunchGeometry::new(n, tc, 48);
        predict_time_indexed(gpu.throughput(), &kernel.index, &kernel.program, geom)
    }

    #[test]
    fn prediction_grows_with_n() {
        // Eq. 6's premise: execution cost is proportional to problem
        // size.
        let small = predict(KernelId::Atax, 64, 128);
        let large = predict(KernelId::Atax, 256, 128);
        assert!(large > small * 3.0, "{large} vs {small}");
    }

    #[test]
    fn prediction_is_static_only() {
        // The predictor touches no simulator state: two calls agree
        // bit-for-bit.
        assert_eq!(predict(KernelId::Bicg, 128, 256), predict(KernelId::Bicg, 128, 256));
    }

    #[test]
    fn normalize_bounds() {
        let v = normalize(&[5.0, 10.0, 7.5]);
        assert_eq!(v, vec![0.0, 1.0, 0.5]);
        assert_eq!(normalize(&[3.0, 3.0]), vec![0.0, 0.0]);
        assert_eq!(normalize(&[]), Vec::<f64>::new());
    }

    #[test]
    fn mae_basics() {
        assert_eq!(mae(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mae(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
        assert_eq!(mae(&[], &[]), 0.0);
    }

    #[test]
    fn series_sorted_by_measurement() {
        let pairs = vec![(3.0, 30.0), (1.0, 10.0), (2.0, 20.0)];
        let s = PredictedSeries::build(&pairs);
        assert_eq!(s.measured, vec![0.0, 0.5, 1.0]);
        assert_eq!(s.predicted, vec![0.0, 0.5, 1.0]);
        assert_eq!(s.mae(), 0.0);
        assert_eq!(s.rank_agreement(), 1.0);
    }

    #[test]
    fn rank_agreement_detects_anticorrelation() {
        let pairs = vec![(3.0, 10.0), (2.0, 20.0), (1.0, 30.0)];
        let s = PredictedSeries::build(&pairs);
        assert_eq!(s.rank_agreement(), 0.0);
        assert!(s.mae() > 0.3);
    }

    #[test]
    fn prediction_tracks_simulator_ranking_for_unroll_sweep() {
        // Within one kernel/geometry, sweeping UIF changes the mix; the
        // static prediction should rank variants consistently with the
        // simulator more often than not (Fig. 5's claim).
        let gpu = Gpu::K20.spec();
        let mut pairs = Vec::new();
        for uif in 1..=5u32 {
            let mut params = TuningParams::with_geometry(128, 48);
            params.uif = uif;
            let kernel = compile(&KernelId::Atax.ast(256), gpu, params).unwrap();
            let geom = kernel.geometry(256);
            let pred = predict_time_indexed(gpu.throughput(), &kernel.index, &kernel.program, geom);
            let meas = oriole_sim::simulate(&kernel, 256).unwrap().time_ms;
            pairs.push((pred, meas));
        }
        let s = PredictedSeries::build(&pairs);
        assert!(s.rank_agreement() >= 0.5, "agreement {}", s.rank_agreement());
    }
}
