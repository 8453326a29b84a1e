//! Measurement noise and the paper's trial protocol.
//!
//! §IV-A: "For each code variant, the experiment was repeated ten times,
//! and the fifth overall trial time was selected." This module supplies
//! seeded multiplicative noise around the model time and the
//! trial-selection protocol, so experiments exercise the same
//! noise-robustness machinery real autotuners need — while remaining
//! reproducible run-to-run.

use crate::config::SimConfig;
use crate::machine::{simulate_with, SimError, SimReport};
use oriole_codegen::CompiledKernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The most trials one measurement may ask for (the paper runs ten),
/// checked where a count enters from outside — a wire frame, `--trials`
/// — so no request sizes a trial vector (34 GB at `u32::MAX`).
pub const MAX_TRIALS: u32 = 10_000;

/// How a single representative time is chosen from repeated trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrialProtocol {
    /// The paper's protocol: the fifth trial of ten (index 4).
    #[default]
    FifthOfTen,
    /// Median of all trials.
    Median,
    /// Minimum of all trials.
    Min,
}

/// A set of repeated measurements of one variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Trials {
    /// Trial times in milliseconds, in execution order.
    pub times_ms: Vec<f64>,
    /// The noise-free model report (identical across trials).
    pub report: SimReport,
}

impl TrialProtocol {
    /// The representative of `times`, given in execution order. Runs
    /// shorter than five trials fall back from the fifth to the median.
    pub(crate) fn select(self, mut times: impl ExactSizeIterator<Item = f64>) -> f64 {
        match self {
            TrialProtocol::FifthOfTen if times.len() >= 5 => times.nth(4).expect("five trials"),
            TrialProtocol::Min => times.fold(f64::INFINITY, f64::min),
            TrialProtocol::FifthOfTen | TrialProtocol::Median => {
                let mut sorted: Vec<f64> = times.collect();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
                sorted[sorted.len() / 2]
            }
        }
    }
}

impl Trials {
    /// The representative time under `protocol`.
    pub fn selected(&self, protocol: TrialProtocol) -> f64 {
        protocol.select(self.times_ms.iter().copied())
    }
}

/// Standard-normal sample via Box–Muller (avoids a rand_distr
/// dependency).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Runs `trials` noisy measurements of `kernel` at problem size `n`.
///
/// The seed makes the noise sequence reproducible; different variants
/// should pass different seeds (the evaluation layer derives them from
/// the tuning-point hash).
pub fn measure(
    kernel: &CompiledKernel,
    n: u64,
    trials: u32,
    seed: u64,
) -> Result<Trials, SimError> {
    let cfg = SimConfig::for_family(kernel.gpu.family);
    let report = simulate_with(kernel, n, &cfg)?;
    let times_ms = noisy_trials(report.time_ms, trials, seed, &cfg).collect();
    Ok(Trials { times_ms, report })
}

/// The seeded noise sequence around one noise-free time, in execution
/// order — shared by the free-function path above and the
/// [`ModelContext`](crate::ModelContext) paths, which must reproduce
/// the exact same trials. Lazy: a protocol that reads the fifth trial
/// draws five.
pub(crate) fn noisy_trials(
    time_ms: f64,
    trials: u32,
    seed: u64,
    cfg: &SimConfig,
) -> impl ExactSizeIterator<Item = f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = cfg.noise_sigma;
    (0..trials.max(1)).map(move |_| {
        let eps = standard_normal(&mut rng) * sigma;
        // Multiplicative noise, clamped to stay positive and bounded.
        time_ms * (1.0 + eps.clamp(-0.3, 0.3))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_kernels::KernelId;

    fn kernel() -> CompiledKernel {
        compile(
            &KernelId::Atax.ast(128),
            Gpu::K20.spec(),
            TuningParams::with_geometry(128, 48),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_given_seed() {
        let k = kernel();
        let a = measure(&k, 128, 10, 7).unwrap();
        let b = measure(&k, 128, 10, 7).unwrap();
        assert_eq!(a.times_ms, b.times_ms);
        let c = measure(&k, 128, 10, 8).unwrap();
        assert_ne!(a.times_ms, c.times_ms);
    }

    #[test]
    fn noise_is_bounded_and_centered() {
        let k = kernel();
        let t = measure(&k, 128, 200, 3).unwrap();
        let base = t.report.time_ms;
        let mean: f64 = t.times_ms.iter().sum::<f64>() / t.times_ms.len() as f64;
        assert!((mean / base - 1.0).abs() < 0.01, "mean drifted: {mean} vs {base}");
        for &x in &t.times_ms {
            assert!(x > 0.0 && (x / base - 1.0).abs() <= 0.3);
        }
    }

    #[test]
    fn protocols_select_sensibly() {
        let k = kernel();
        let t = measure(&k, 128, 10, 11).unwrap();
        assert_eq!(t.selected(TrialProtocol::FifthOfTen), t.times_ms[4]);
        let min = t.selected(TrialProtocol::Min);
        assert!(t.times_ms.iter().all(|&x| x >= min));
        let med = t.selected(TrialProtocol::Median);
        let below = t.times_ms.iter().filter(|&&x| x <= med).count();
        assert!(below >= t.times_ms.len() / 2);
    }

    #[test]
    fn fifth_of_ten_falls_back_for_short_runs() {
        let k = kernel();
        let t = measure(&k, 128, 3, 1).unwrap();
        let sel = t.selected(TrialProtocol::FifthOfTen);
        assert!(t.times_ms.contains(&sel));
    }

    #[test]
    fn noise_does_not_change_large_rankings() {
        // The noise floor (σ=1%) must not flip a 30% performance gap.
        let fast = compile(
            &KernelId::Atax.ast(512),
            Gpu::K20.spec(),
            TuningParams::with_geometry(128, 48),
        )
        .unwrap();
        let slow = compile(
            &KernelId::Atax.ast(512),
            Gpu::K20.spec(),
            TuningParams::with_geometry(1024, 48),
        )
        .unwrap();
        for seed in 0..20 {
            let tf = measure(&fast, 512, 10, seed).unwrap().selected(TrialProtocol::FifthOfTen);
            let ts = measure(&slow, 512, 10, seed + 1000)
                .unwrap()
                .selected(TrialProtocol::FifthOfTen);
            assert!(tf < ts, "seed {seed}: {tf} !< {ts}");
        }
    }
}
