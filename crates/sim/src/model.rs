//! Timing-model backends: three cost functions, one [`ModelId`] to
//! pick among them.
//!
//! The paper evaluates two predictors against each other — the abstract
//! machine of [`machine`](crate::machine) ("empirical" measurements)
//! and the static Eq. 6 CPI model — and related work adds more
//! (hardware-counter models, wave/roofline analytics). Each backend
//! estimates a [`SimReport`]-shaped cost from a [`CompiledKernel`] + its
//! launch point + the problem size `n`, takes whatever geometry-only
//! work it shares with the previous launch from the caller's
//! [`LaunchScratch`], and is named by a stable [`ModelId`] that
//! participates in every cache key above it (the tuner's measurement
//! tiers, the process-level artifact store's scopes), so cached
//! artifacts can never alias across backends.
//! [`ModelContext`](crate::ModelContext) holds the id and calls the
//! backend it names through one `match`.
//!
//! Three backends ship:
//!
//! * [`ModelId::Simulator`] — the default: the full abstract machine
//!   (issue/latency/bandwidth rooflines, work concentration,
//!   divergence, barriers). The crate's free functions
//!   ([`simulate`](crate::simulate), [`measure`](crate::measure)) run
//!   exactly this backend, property-tested bit-identical.
//! * [`ModelId::Static`] — Eq. 6 via
//!   [`oriole_core::predict::predict_time_indexed`]: a purely static CPI ×
//!   expected-mix dot product, no dynamic profiling. Output is in model
//!   units, not milliseconds — rankings and Fig. 5-style normalized
//!   series are the meaningful quantities.
//! * [`ModelId::Roofline`] — a classic throughput/bandwidth roofline
//!   from the [`oriole_arch`] Table II issue rates and the DRAM bandwidth
//!   constants, derated by achieved occupancy. Unlike the simulator it
//!   models no latency bound, work concentration, or divergence/barrier
//!   surcharges.
//!
//! All backends share one launch-feasibility gate
//! (`launch_occupancy`): a configuration with zero active blocks is
//! [`SimError::Infeasible`] under every model, so backends disagree
//! about *cost*, never about *launchability*.
//!
//! Select a backend with `ModelContext::for_model`, the tuner's
//! `EvalProtocol::model` field, or the CLI's
//! `--model {sim,static,roofline}`; `oriole-cli models` lists them.

use crate::config::SimConfig;
use crate::machine::{effective_shmem_per_mp, BoundKind, LaunchScratch, SimError, SimReport};
use crate::profile::WarpProfile;
use oriole_arch::{occupancy, warps_per_block, GpuSpec, Occupancy, OccupancyInput};
use oriole_codegen::CompiledKernel;
use std::fmt;

/// Stable identity of a timing-model backend.
///
/// Part of every cache key above the model layer (measurement tiers,
/// artifact-store scopes), so two backends can
/// never serve each other's cached estimates. The `Default` is the
/// full simulator — the backend the free functions wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum ModelId {
    /// The abstract-machine simulator (default; the paper's "empirical"
    /// side).
    #[default]
    Simulator,
    /// The static Eq. 6 CPI predictor (no dynamic profiling).
    Static,
    /// The analytic throughput/bandwidth roofline.
    Roofline,
}

impl ModelId {
    /// Every backend, in listing order (the simulator first).
    pub const ALL: [ModelId; 3] = [ModelId::Simulator, ModelId::Static, ModelId::Roofline];

    /// The canonical CLI name (`--model <name>`).
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Simulator => "sim",
            ModelId::Static => "static",
            ModelId::Roofline => "roofline",
        }
    }

    /// One-line description for the `models` listing.
    pub fn describe(self) -> &'static str {
        match self {
            ModelId::Simulator => {
                "abstract-machine simulator: issue/latency/bandwidth rooflines, \
                 work concentration, divergence (default)"
            }
            ModelId::Static => {
                "Eq. 6 static CPI model over the expected instruction mix; \
                 model units, no dynamic profiling"
            }
            ModelId::Roofline => {
                "throughput/bandwidth roofline derated by achieved occupancy; \
                 no latency or divergence modelling"
            }
        }
    }

    /// Parses a CLI spelling (case-insensitive; accepts the canonical
    /// names plus a few aliases).
    pub fn parse(name: &str) -> Option<ModelId> {
        match name.trim().to_ascii_lowercase().as_str() {
            "sim" | "simulator" | "machine" => Some(ModelId::Simulator),
            "static" | "eq6" | "predict" => Some(ModelId::Static),
            "roofline" | "roof" => Some(ModelId::Roofline),
            _ => None,
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The launch-feasibility gate shared by every backend: the kernel's
/// occupancy point on `spec`, or [`SimError::Infeasible`] when zero
/// blocks fit. The simulator goes through it too, so feasibility never
/// depends on the selected backend.
pub(crate) fn launch_occupancy(
    spec: &GpuSpec,
    kernel: &CompiledKernel,
) -> Result<Occupancy, SimError> {
    let input = OccupancyInput {
        tc: kernel.params.tc,
        regs_per_thread: kernel.regs_per_thread(),
        smem_per_block: kernel.smem_per_block,
        shmem_per_mp: Some(effective_shmem_per_mp(
            spec.family,
            kernel.params.pl,
            spec.shmem_per_mp,
        )),
    };
    let occ = occupancy(spec, input);
    if occ.active_blocks == 0 {
        return Err(SimError::Infeasible { limiter: occ.limiter });
    }
    Ok(occ)
}

/// The Eq. 6 backend: [`oriole_core::predict::predict_time_indexed`] —
/// the paper's purely static CPI × expected-mix predictor, replayed from
/// the kernel's shared program index.
///
/// The report's `time_ms` carries the Eq. 6 cost in *model units* (the
/// same quantity Fig. 5 normalizes), taken through the scratch's
/// `(TC, BC)` slot — the walk reads the index, the blocks and the launch
/// geometry, so `PL` / `SC` siblings share it. The occupancy fields come
/// from the shared feasibility gate and the warp profile is empty: the
/// *estimate* computes nothing dynamic. What is not static is outside
/// it: [`ModelContext::launch`](crate::ModelContext::launch) replays the
/// index's register tapes for `reg_instructions` (the register class of
/// the dynamic mix, bit for bit) and draws the trial noise under every
/// backend, this one included.
pub(crate) fn static_predict(
    spec: &GpuSpec,
    kernel: &CompiledKernel,
    n: u64,
    scratch: &mut LaunchScratch,
) -> Result<SimReport, SimError> {
    let occ = launch_occupancy(spec, kernel)?;
    let cost = scratch.eq6(kernel, n, || {
        oriole_core::predict::predict_time_indexed(
            kernel.gpu.throughput(),
            &kernel.index,
            &kernel.program,
            kernel.geometry(n),
        )
    });
    Ok(SimReport {
        time_ms: cost,
        bound: BoundKind::Issue,
        occupancy: occ,
        busy_blocks: kernel.params.bc,
        busy_sms: kernel.params.bc.min(spec.multiprocessors),
        resident_warps: occ.active_warps,
        waves: 1,
        cycles: cost,
        profile: WarpProfile::default(),
    })
}

/// The analytic roofline backend: completion time is the larger of the
/// device-wide issue-throughput roof and the DRAM bandwidth roof.
///
/// * **Issue roof** — every warp's issue work (Table II rates,
///   including LSU replays) spread evenly over all SMs, derated by the
///   achieved occupancy: an SM running at 25% occupancy sustains a
///   quarter of its peak issue rate.
/// * **Bandwidth roof** — total 32-byte DRAM transactions at the
///   family's cycles-per-transaction constant, as in the simulator.
///
/// Deliberately simpler than the simulator: no latency bound, no
/// work-concentration accounting (all `BC` blocks are assumed busy),
/// and no divergence/barrier surcharges — the `model_agreement` bin
/// quantifies how much ranking signal that costs.
pub(crate) fn roofline(
    spec: &GpuSpec,
    cfg: &SimConfig,
    kernel: &CompiledKernel,
    n: u64,
    scratch: &mut LaunchScratch,
) -> Result<SimReport, SimError> {
    let occ = launch_occupancy(spec, kernel)?;
    let params = kernel.params;
    let geom = kernel.geometry(n);
    let warps_total = f64::from(params.bc) * f64::from(warps_per_block(params.tc));
    let profile = scratch.profile(kernel, cfg, geom).clone();

    let mp = spec.multiprocessors;
    let t_issue =
        profile.issue_cycles * warps_total / f64::from(mp) / occ.occupancy.max(f64::EPSILON);
    let t_bw = profile.dram_transactions * warps_total * cfg.dram_cycles_per_transaction;
    let (cycles, bound) = if t_bw > t_issue {
        (t_bw, BoundKind::Bandwidth)
    } else {
        (t_issue, BoundKind::Issue)
    };

    let clock_hz = f64::from(spec.gpu_clock_mhz) * 1e6;
    let launch_us =
        cfg.launch_overhead_us + cfg.stream_overhead_us * f64::from(params.sc.saturating_sub(1));
    let slots = (occ.active_blocks * mp).max(1);
    Ok(SimReport {
        time_ms: cycles / clock_hz * 1e3 + launch_us / 1e3,
        bound,
        occupancy: occ,
        busy_blocks: params.bc,
        busy_sms: params.bc.min(mp),
        resident_warps: occ.active_warps,
        waves: params.bc.div_ceil(slots).max(1),
        cycles,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::simulate_via;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_kernels::KernelId;

    fn kernel(tc: u32, bc: u32) -> CompiledKernel {
        compile(
            &KernelId::Atax.ast(256),
            Gpu::K20.spec(),
            TuningParams::with_geometry(tc, bc),
        )
        .unwrap()
    }

    #[test]
    fn ids_are_stable_and_parse_round_trips() {
        for id in ModelId::ALL {
            assert_eq!(ModelId::parse(id.name()), Some(id));
            assert!(!id.describe().is_empty());
        }
        assert_eq!(ModelId::parse("SIMULATOR"), Some(ModelId::Simulator));
        assert_eq!(ModelId::parse("eq6"), Some(ModelId::Static));
        assert_eq!(ModelId::parse("warp-vote"), None);
        assert_eq!(ModelId::default(), ModelId::Simulator);
    }

    #[test]
    fn simulator_backend_matches_free_function() {
        let gpu = Gpu::K20.spec();
        let cfg = SimConfig::for_family(gpu.family);
        let k = kernel(128, 48);
        assert_eq!(
            simulate_via(gpu, &cfg, &k, 256, &mut LaunchScratch::default()).unwrap(),
            crate::simulate(&k, 256).unwrap()
        );
    }

    #[test]
    fn static_backend_reports_eq6_cost() {
        let gpu = Gpu::K20.spec();
        let k = kernel(128, 48);
        let r = static_predict(gpu, &k, 256, &mut LaunchScratch::default()).unwrap();
        let expected = oriole_core::predict::predict_time_indexed(
            gpu.throughput(),
            &k.index,
            &k.program,
            k.geometry(256),
        );
        assert_eq!(r.time_ms, expected);
        assert_eq!(r.cycles, expected);
        assert_eq!(r.profile, WarpProfile::default());
        assert!(r.occupancy.active_blocks > 0);
    }

    #[test]
    fn roofline_is_bounded_and_distinct_from_simulator() {
        let gpu = Gpu::K20.spec();
        let cfg = SimConfig::for_family(gpu.family);
        let k = kernel(128, 48);
        let roof = roofline(gpu, &cfg, &k, 256, &mut LaunchScratch::default()).unwrap();
        let sim = simulate_via(gpu, &cfg, &k, 256, &mut LaunchScratch::default()).unwrap();
        assert!(roof.time_ms.is_finite() && roof.time_ms > 0.0);
        assert!(matches!(roof.bound, BoundKind::Issue | BoundKind::Bandwidth));
        // The roofline drops the latency bound and the concentration /
        // divergence surcharges — it must not reproduce the simulator.
        assert_ne!(roof.time_ms, sim.time_ms);
    }

    #[test]
    fn roofline_grows_with_problem_size() {
        let gpu = Gpu::K20.spec();
        let cfg = SimConfig::for_family(gpu.family);
        let at = |n| roofline(gpu, &cfg, &kernel(128, 48), n, &mut LaunchScratch::default());
        let (small, large) = (at(64).unwrap(), at(512).unwrap());
        assert!(large.time_ms > small.time_ms);
    }

    #[test]
    fn feasibility_gate_is_backend_independent() {
        // 40 KiB fixed shared memory with PreferL1 (16 KiB shared) on
        // Kepler: zero blocks fit — every backend must refuse with the
        // same limiter.
        let mut ast = KernelId::MatVec2D.ast(64);
        ast.shared[0].scales_with_block = false;
        ast.shared[0].elems = 40 * 1024 / 4;
        let mut params = TuningParams::with_geometry(128, 48);
        params.pl = oriole_codegen::PreferredL1::Kb48;
        let k = compile(&ast, Gpu::K20.spec(), params).unwrap();
        let gpu = Gpu::K20.spec();
        let cfg = SimConfig::for_family(gpu.family);
        let errs = [
            simulate_via(gpu, &cfg, &k, 64, &mut LaunchScratch::default()),
            static_predict(gpu, &k, 64, &mut LaunchScratch::default()),
            roofline(gpu, &cfg, &k, 64, &mut LaunchScratch::default()),
        ]
        .map(Result::unwrap_err);
        assert_eq!(errs[0], errs[1]);
        assert_eq!(errs[1], errs[2]);
    }
}
