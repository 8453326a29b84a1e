//! The whole-GPU timing model.
//!
//! [`simulate`] assembles the per-warp profile, the occupancy result and
//! the work-distribution geometry into a roofline-style completion time:
//!
//! ```text
//! T_exec = max( issue-throughput bound over the busy SMs,
//!               dependent-chain latency bound of the busiest warps )
//! T      = max( T_exec, device DRAM bandwidth bound )
//!          + block dispatch + kernel launch overhead
//! ```
//!
//! The busy-SM accounting is what reproduces the paper's Fig. 4 shape:
//! grid-stride kernels with fewer work items than threads keep only the
//! leading `⌈items/TC⌉` blocks busy ([`LaunchWork`](oriole_ir::LaunchWork)),
//! so at small `N` a 1024-thread block puts the entire kernel on a
//! single SM while a 64-thread block spreads it over sixteen.
//!
//! Only the arithmetic above depends on the whole variant (`PL` through
//! occupancy, `SC` through launch overhead); the walks over the program
//! depend on the launch shape alone and go through a [`LaunchScratch`].

use crate::config::SimConfig;
use crate::counters;
use crate::model::launch_occupancy;
use crate::profile::WarpProfile;
use oriole_arch::{warps_per_block, Family, GpuSpec, Limiter, Occupancy};
use oriole_codegen::{CompiledKernel, PreferredL1};
use oriole_ir::{LaunchGeometry, ProgramIndex, ProgramMeta};
use std::fmt;
use std::sync::Arc;

/// Which roofline bound determined the execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// SM issue throughput (including LSU replays).
    Issue,
    /// Dependent-chain latency exposure.
    Latency,
    /// Device DRAM bandwidth.
    Bandwidth,
}

impl fmt::Display for BoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BoundKind::Issue => "issue",
            BoundKind::Latency => "latency",
            BoundKind::Bandwidth => "bandwidth",
        };
        f.write_str(s)
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration cannot launch: occupancy is zero.
    Infeasible {
        /// The binding resource that zeroed occupancy.
        limiter: Limiter,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Infeasible { limiter } => {
                write!(f, "launch infeasible: zero active blocks (limiter {limiter:?})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of one simulated kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Modelled wall-clock time in milliseconds (noise-free).
    pub time_ms: f64,
    /// The dominating roofline bound.
    pub bound: BoundKind,
    /// Occupancy details used for the run.
    pub occupancy: Occupancy,
    /// Blocks that actually carry work items.
    pub busy_blocks: u32,
    /// SMs hosting busy blocks.
    pub busy_sms: u32,
    /// Resident warps per busy SM.
    pub resident_warps: u32,
    /// Execution waves (block batches per SM slot).
    pub waves: u32,
    /// Total execution cycles (before launch overhead).
    pub cycles: f64,
    /// Per-warp profile used by the model.
    pub profile: WarpProfile,
}

/// The results of the last launch estimated through it, five slots:
/// the per-warp profile under `(TC, blocks)` (filled by the simulator
/// and roofline backends), the Eq. 6 cost under `(TC, BC)` (the static
/// backend), and, for [`ModelContext::launch`](crate::ModelContext::launch)
/// under every backend, the blocks' busy weights under the `(TC, busy
/// blocks)` of its [`LaunchWork`](oriole_ir::LaunchWork), the register
/// count replayed from them under `(TC, BC)` and the estimate's time and
/// occupancy under `(TC, BC, PL, SC)` and the program's metadata and
/// shared memory — for one program (its index), problem size and spill
/// budget: a kernel that differs in any of the three empties it. A
/// plain caller-owned value: a fresh one
/// ([`Default`]) computes everything, one carried across the variants
/// of a program repeats a walk only when the launch shape moves — `PL`
/// and `SC` enter none of the walks, a `BC` step that keeps the busy
/// blocks only replays the register tapes, and a `UIF` / `CFLAGS` twin
/// of the last launch (another artifact of the same index) estimates
/// nothing — and either way the answer is the walk's own, bit for bit.
/// One scratch serves one [`ModelContext`](crate::ModelContext).
#[derive(Debug, Default)]
pub struct LaunchScratch {
    bound: Option<(Arc<ProgramIndex>, u64, u32)>,
    profile: Option<((u32, u32), WarpProfile)>,
    eq6: Option<((u32, u32), f64)>,
    busy: Option<((u32, u32), Vec<f64>)>,
    regs: Option<((u32, u32), f64)>,
    last: Option<(LaunchKey, Estimate)>,
}

/// What an estimate reads of a variant beyond its program, size and
/// spill budget: `TC`, `BC`, `PL`, `SC`, the metadata and shared memory.
type LaunchKey = ((u32, u32, PreferredL1, u32), ProgramMeta, u32);

/// A launch's noise-free time and occupancy, or why it cannot run.
type Estimate = Result<(f64, f64), SimError>;

impl LaunchScratch {
    fn bind(&mut self, kernel: &CompiledKernel, n: u64) {
        let spill = kernel.program.meta.spill_bytes;
        let bound = matches!(&self.bound, Some((index, at, spilled))
            if Arc::ptr_eq(index, &kernel.index) && (*at, *spilled) == (n, spill));
        if !bound {
            self.bound = Some((Arc::clone(&kernel.index), n, spill));
            (self.profile, self.eq6, self.busy, self.regs, self.last) = (None, None, None, None, None);
        }
    }

    /// The noise-free time and the occupancy `estimate(self)` gives
    /// `kernel` at `n`, estimated unless the last call asked for the
    /// same launch.
    pub(crate) fn estimate(
        &mut self,
        kernel: &CompiledKernel,
        n: u64,
        estimate: impl FnOnce(&mut LaunchScratch) -> Estimate,
    ) -> Estimate {
        self.bind(kernel, n);
        let p = kernel.params;
        let key = ((p.tc, p.bc, p.pl, p.sc), kernel.program.meta.clone(), kernel.smem_per_block);
        if !matches!(&self.last, Some((held, _)) if *held == key) {
            self.last = Some((key, estimate(self)));
            counted(Pass::Estimated);
        }
        self.last.as_ref().expect("filled above").1.clone()
    }

    /// [`WarpProfile::extract`] for `kernel` at `geom`, walked unless
    /// the last call asked for the same `(TC, BC)`.
    pub(crate) fn profile(
        &mut self,
        kernel: &CompiledKernel,
        cfg: &SimConfig,
        geom: LaunchGeometry,
    ) -> &WarpProfile {
        self.bind(kernel, geom.n);
        last(&mut self.profile, (geom.tc, geom.bc), || {
            WarpProfile::extract(&kernel.index, &kernel.program, cfg, geom)
        })
    }

    /// The Eq. 6 cost of `kernel` at `n` — `walk()`, which reads the
    /// index, the blocks and [`CompiledKernel::geometry`] only — walked
    /// unless the last call asked for the same `(TC, BC)`.
    pub(crate) fn eq6(&mut self, kernel: &CompiledKernel, n: u64, walk: impl FnOnce() -> f64) -> f64 {
        self.bind(kernel, n);
        *last(&mut self.eq6, (kernel.params.tc, kernel.params.bc), walk)
    }

    /// The register class of [`dynamic_mix`](crate::dynamic_mix) for
    /// `kernel` at `n`: kept under `(TC, BC)` (`PL` and `SC` do not
    /// enter the counters), else replayed from the busy weights, which
    /// are kept under `(TC, busy blocks)` and weighed again only when
    /// those move.
    pub(crate) fn reg_instructions(&mut self, kernel: &CompiledKernel, n: u64) -> f64 {
        self.bind(kernel, n);
        let (busy_slot, tc) = (&mut self.busy, kernel.params.tc);
        *last(&mut self.regs, (tc, kernel.params.bc), || {
            let work = kernel.index.launch_work(kernel.geometry(n));
            let key = (tc, work.busy_blocks());
            if !matches!(busy_slot, Some((held, _)) if *held == key) {
                // Refill the buffer the last geometry left, if any.
                let mut weights = busy_slot.take().map(|(_, w)| w).unwrap_or_default();
                weights.clear();
                weights.extend(counters::busy_weights(kernel, work));
                *busy_slot = Some((key, weights));
                counted(Pass::Weighed);
            }
            counted(Pass::Replayed);
            let (_, weights) = busy_slot.as_ref().expect("filled above");
            counters::reg_instructions(kernel, work, weights)
        })
    }
}

/// The slot's value if it was stored under `key`, else `compute()`
/// stored in its place.
fn last<K: PartialEq, V>(slot: &mut Option<(K, V)>, key: K, compute: impl FnOnce() -> V) -> &V {
    if !matches!(slot, Some((held, _)) if *held == key) {
        *slot = Some((key, compute()));
    }
    &slot.as_ref().expect("filled above").1
}

/// Effective shared memory per SM under the `PL` split.
///
/// Fermi and Kepler carve a 64 KiB array into L1 + shared
/// (`PreferL1` = 48 K L1 leaves 16 K shared); Maxwell and Pascal have
/// dedicated shared memory, so `PL` only sizes the L1.
pub(crate) fn effective_shmem_per_mp(family: Family, pl: PreferredL1, default_shmem: u32) -> u32 {
    match family {
        Family::Fermi | Family::Kepler => 64 * 1024 - pl.l1_bytes(),
        Family::Maxwell | Family::Pascal => default_shmem,
    }
}

/// Simulates one execution with the family-default [`SimConfig`].
///
/// Thin wrapper over the single model implementation also backing
/// [`ModelContext::simulate`](crate::ModelContext::simulate); the
/// context-backed path is bit-identical (property-tested).
pub fn simulate(kernel: &CompiledKernel, n: u64) -> Result<SimReport, SimError> {
    simulate_with(kernel, n, &SimConfig::for_family(kernel.gpu.family))
}

/// Simulates one execution with an explicit configuration (used by
/// ablation benches).
pub fn simulate_with(
    kernel: &CompiledKernel,
    n: u64,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_via(&kernel.gpu, cfg, kernel, n, &mut LaunchScratch::default())
}

/// The whole timing model — the simulator backend; the per-warp profile
/// comes through `scratch`.
pub(crate) fn simulate_via(
    spec: &GpuSpec,
    cfg: &SimConfig,
    kernel: &CompiledKernel,
    n: u64,
    scratch: &mut LaunchScratch,
) -> Result<SimReport, SimError> {
    let params = kernel.params;

    let occ = launch_occupancy(spec, kernel)?;

    let work = kernel.index.launch_work(kernel.geometry(n));
    let busy_blocks = work.busy_blocks();
    let wb = warps_per_block(params.tc);
    // The per-warp profile below is the average over exactly these.
    let resident_warps_total = work.busy_warps();

    let mp = spec.multiprocessors;
    let busy_sms = busy_blocks.min(mp);
    let slots = occ.active_blocks * mp;
    let waves = busy_blocks.div_ceil(slots).max(1);
    // Saturating: the last wave can carry the product past `u32::MAX`
    // (`BC` is any `u32`), and any divisor that large gives one block.
    let blocks_per_sm =
        busy_blocks.div_ceil(waves.saturating_mul(busy_sms)).min(occ.active_blocks);
    let resident_warps = (blocks_per_sm * wb).min(spec.warps_per_mp);

    // Per-busy-warp profile: weights evaluated at the busy geometry,
    // replayed from the kernel's shared index.
    let profile = scratch.profile(kernel, cfg, work.busy_geometry()).clone();

    // Synchronization / divergence surcharges (per warp).
    let barrier_cost =
        profile.barriers * (cfg.barrier_base_cycles + cfg.barrier_per_warp_cycles * f64::from(wb));
    let reconv_cost = profile.divergent_branches * cfg.reconvergence_cycles;
    let warp_issue = profile.issue_cycles + barrier_cost + reconv_cost;

    // Issue-throughput bound: every resident warp's issue work, spread
    // over the busy SMs. An SM only approaches peak issue rate with
    // enough resident warps to cover dependency stalls; below that the
    // schedulers starve (the low-occupancy penalty).
    let issue_efficiency = {
        let w = f64::from(resident_warps).max(1.0);
        w / (w + cfg.issue_warmup.max(0.0))
    };
    let t_issue = warp_issue * resident_warps_total / f64::from(busy_sms) / issue_efficiency;

    // Latency bound: the dependent chain of one warp, with memory stalls
    // hidden by the other resident warps (×) the warp's own memory-level
    // parallelism; waves serialize.
    let mlp = f64::from(resident_warps).max(1.0) * cfg.warp_mlp.max(1.0);
    let exposed_per_op = profile.avg_latency() / mlp;
    let rounds = (resident_warps_total / (f64::from(resident_warps) * f64::from(busy_sms)))
        .ceil()
        .max(1.0);
    let t_lat = rounds * (warp_issue + profile.mem_ops * exposed_per_op);

    // Device bandwidth bound.
    let t_bw =
        profile.dram_transactions * resident_warps_total * cfg.dram_cycles_per_transaction;

    let t_exec = t_issue.max(t_lat);
    let (mut cycles, bound) = if t_bw > t_exec {
        (t_bw, BoundKind::Bandwidth)
    } else if t_lat > t_issue {
        (t_lat, BoundKind::Latency)
    } else {
        (t_issue, BoundKind::Issue)
    };

    // Every block of the grid — busy or idle — costs dispatch work on
    // the GigaThread engine; idle blocks at least run their range guard.
    cycles += f64::from(params.bc.div_ceil(mp)) * cfg.block_dispatch_cycles;

    let clock_hz = f64::from(spec.gpu_clock_mhz) * 1e6;
    let launch_us =
        cfg.launch_overhead_us + cfg.stream_overhead_us * f64::from(params.sc.saturating_sub(1));
    let time_ms = cycles / clock_hz * 1e3 + launch_us / 1e3;

    Ok(SimReport {
        time_ms,
        bound,
        occupancy: occ,
        busy_blocks,
        busy_sms,
        resident_warps,
        waves,
        cycles,
        profile,
    })
}

/// The walks of a [`LaunchScratch`] that tests count.
#[derive(Clone, Copy)]
enum Pass {
    Weighed,
    Replayed,
    Estimated,
}

/// Counts one `pass` in this thread's tally (`tests::passes`); nothing
/// outside tests.
#[cfg_attr(not(test), allow(unused_variables))]
fn counted(pass: Pass) {
    #[cfg(test)]
    tests::PASSES.with(|tally| tally.update(|mut n| { n[pass as usize] += 1; n }));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_kernels::KernelId;
    use std::cell::Cell;

    thread_local! {
        /// Busy-weight passes, register replays and estimates run by
        /// this thread's scratches.
        pub(super) static PASSES: Cell<[u32; 3]> = const { Cell::new([0; 3]) };
    }

    /// `f()`, and the busy-weight passes, register replays and
    /// estimates this thread's scratches ran in it.
    pub(crate) fn passes<T>(f: impl FnOnce() -> T) -> (T, [u32; 3]) {
        let before = PASSES.with(Cell::get);
        let out = f();
        let after = PASSES.with(Cell::get);
        (out, std::array::from_fn(|i| after[i] - before[i]))
    }

    fn run(kid: KernelId, gpu: Gpu, n: u64, tc: u32, bc: u32) -> SimReport {
        let ast = kid.ast(n);
        let kernel = compile(&ast, gpu.spec(), TuningParams::with_geometry(tc, bc)).unwrap();
        simulate(&kernel, n).unwrap()
    }

    #[test]
    fn eq6_is_walked_once_per_launch_shape_under_the_static_backend() {
        use crate::model::static_predict;
        let gpu = Gpu::K20.spec();
        let fe = oriole_codegen::front_end(&KernelId::Atax.ast(128), gpu, 1, Default::default())
            .expect("valid unroll factor");
        let at = |tc, bc, pl, sc| {
            fe.specialize(TuningParams { pl, sc, ..TuningParams::with_geometry(tc, bc) }).unwrap()
        };
        let mut scratch = LaunchScratch::default();
        let first = static_predict(gpu, &at(128, 48, PreferredL1::Kb16, 1), 128, &mut scratch);
        let first = first.unwrap().time_ms;

        // A `PL`- or `SC`-only step finds the backend's own walk in the
        // slot: no closure runs, asked directly or through the backend.
        let walks = std::cell::Cell::new(0u32);
        let counted = |cost: f64| {
            walks.set(walks.get() + 1);
            cost
        };
        for (pl, sc) in [(PreferredL1::Kb48, 1), (PreferredL1::Kb16, 3)] {
            let sibling = at(128, 48, pl, sc);
            let held = scratch.eq6(&sibling, 128, || counted(f64::NAN));
            assert_eq!(held.to_bits(), first.to_bits());
            let through = static_predict(gpu, &sibling, 128, &mut scratch).unwrap();
            assert_eq!(through.time_ms.to_bits(), first.to_bits());
        }
        assert_eq!(walks.get(), 0, "a PL/SC-only step repeated the Eq. 6 walk");

        // A `TC` step, a `BC` step and another size: one walk each, and
        // the value is the walk's.
        for (tc, bc, n) in [(256, 48, 128), (256, 72, 128), (256, 72, 256)] {
            let before = walks.get();
            let k = at(tc, bc, PreferredL1::Kb16, 1);
            assert_eq!(scratch.eq6(&k, n, || counted(f64::from(tc + bc))), f64::from(tc + bc));
            assert_eq!(scratch.eq6(&k, n, || counted(0.0)), f64::from(tc + bc));
            assert_eq!(walks.get(), before + 1, "({tc}, {bc}) at n={n}");
        }
    }

    #[test]
    fn all_kernels_simulate_on_all_gpus() {
        for kid in oriole_kernels::ALL_KERNELS {
            for gpu in oriole_arch::ALL_GPUS {
                let n = kid.input_sizes()[2];
                let r = run(kid, gpu, n, 128, 48);
                assert!(r.time_ms.is_finite() && r.time_ms > 0.0, "{kid} {gpu}");
                assert!(r.occupancy.active_blocks > 0);
            }
        }
    }

    #[test]
    fn atax_prefers_small_blocks() {
        // The paper's headline Fig. 4 behaviour: at N≤512 ATAX's work
        // fits in few blocks, so small TC spreads it over more SMs.
        for gpu in [Gpu::K20, Gpu::M2050] {
            let small = run(KernelId::Atax, gpu, 512, 128, 48);
            let large = run(KernelId::Atax, gpu, 512, 896, 48);
            assert!(
                small.time_ms * 1.3 < large.time_ms,
                "{gpu}: TC=128 {:.3}ms !< TC=896 {:.3}ms",
                small.time_ms,
                large.time_ms
            );
        }
    }

    #[test]
    fn matvec2d_prefers_large_blocks() {
        for gpu in [Gpu::K20, Gpu::M2050] {
            let small = run(KernelId::MatVec2D, gpu, 512, 32, 48);
            let large = run(KernelId::MatVec2D, gpu, 512, 672, 48);
            assert!(
                large.time_ms < small.time_ms,
                "{gpu}: TC=672 {:.3}ms !< TC=32 {:.3}ms",
                large.time_ms,
                small.time_ms
            );
        }
    }

    #[test]
    fn bicg_tracks_atax_preference() {
        let small = run(KernelId::Bicg, Gpu::K20, 512, 128, 48);
        let large = run(KernelId::Bicg, Gpu::K20, 512, 896, 48);
        assert!(small.time_ms < large.time_ms);
    }

    #[test]
    fn ex14fj_not_hurt_by_large_blocks() {
        // N³ cells saturate the device; large blocks amortize dispatch.
        let r_small = run(KernelId::Ex14Fj, Gpu::K20, 64, 64, 96);
        let r_large = run(KernelId::Ex14Fj, Gpu::K20, 64, 512, 96);
        assert!(r_large.time_ms <= r_small.time_ms * 1.1);
    }

    #[test]
    fn time_scales_with_problem_size() {
        for kid in oriole_kernels::ALL_KERNELS {
            let sizes = kid.input_sizes();
            let t_small = run(kid, Gpu::M40, sizes[0], 128, 48).time_ms;
            let t_large = run(kid, Gpu::M40, sizes[4], 128, 48).time_ms;
            assert!(t_large > t_small, "{kid}: {t_large} !> {t_small}");
        }
    }

    #[test]
    fn work_concentration_reported() {
        // ATAX at N=128 with TC=1024: a single busy block on one SM.
        let r = run(KernelId::Atax, Gpu::K20, 128, 1024, 48);
        assert_eq!(r.busy_blocks, 1);
        assert_eq!(r.busy_sms, 1);
        // With TC=32: four busy blocks.
        let r = run(KernelId::Atax, Gpu::K20, 128, 32, 48);
        assert_eq!(r.busy_blocks, 4);
        assert_eq!(r.busy_sms, 4);
    }

    #[test]
    fn strided_kernel_is_issue_or_bandwidth_bound() {
        let r = run(KernelId::Atax, Gpu::K20, 512, 128, 48);
        assert!(matches!(r.bound, BoundKind::Issue | BoundKind::Bandwidth), "{:?}", r.bound);
    }

    #[test]
    fn infeasible_configuration_errors() {
        // 40 KiB shared per block with PreferL1 (16 K shared) on Kepler:
        // zero blocks fit.
        let mut ast = KernelId::MatVec2D.ast(64);
        ast.shared[0].elems = 10 * 1024 / 4; // 10 KiB per thread would overflow; use fixed
        ast.shared[0].scales_with_block = false;
        ast.shared[0].elems = 40 * 1024 / 4;
        let mut params = TuningParams::with_geometry(128, 48);
        params.pl = oriole_codegen::PreferredL1::Kb48;
        let kernel = compile(&ast, Gpu::K20.spec(), params).unwrap();
        let err = simulate(&kernel, 64).unwrap_err();
        assert!(matches!(err, SimError::Infeasible { limiter: Limiter::SharedMem }));
    }

    #[test]
    fn pl_split_changes_occupancy_on_kepler_not_maxwell() {
        // 12 KiB/block kernel: Kepler PreferL1 leaves 16 K shared → 1
        // block; PreferShared leaves 48 K → 4 blocks. Maxwell's dedicated
        // 96 K is indifferent.
        let mut ast = KernelId::MatVec2D.ast(64);
        ast.shared.truncate(1);
        ast.shared[0].scales_with_block = false;
        ast.shared[0].elems = 12 * 1024 / 4;
        let mk = |gpu: Gpu, pl| {
            let mut p = TuningParams::with_geometry(256, 48);
            p.pl = pl;
            let k = compile(&ast, gpu.spec(), p).unwrap();
            simulate(&k, 64).unwrap().occupancy.active_blocks
        };
        assert_eq!(mk(Gpu::K20, PreferredL1::Kb16), 4);
        assert_eq!(mk(Gpu::K20, PreferredL1::Kb48), 1);
        assert_eq!(mk(Gpu::M40, PreferredL1::Kb16), mk(Gpu::M40, PreferredL1::Kb48));
    }

    #[test]
    fn divergence_costs_time() {
        // Same kernel, higher boundary fraction (smaller N normalized per
        // cell) → worse per-cell time.
        let per_cell = |n: u64| {
            let r = run(KernelId::Ex14Fj, Gpu::M40, n, 256, 96);
            r.time_ms / (n * n * n) as f64
        };
        // N=8 (58% boundary, heavy divergence) vs N=64 (9%).
        assert!(per_cell(8) > per_cell(64));
    }

    #[test]
    fn stream_count_adds_overhead() {
        let ast = KernelId::Atax.ast(128);
        let mut p1 = TuningParams::with_geometry(128, 48);
        let mut p5 = p1;
        p1.sc = 1;
        p5.sc = 5;
        let k1 = compile(&ast, Gpu::K20.spec(), p1).unwrap();
        let k5 = compile(&ast, Gpu::K20.spec(), p5).unwrap();
        let t1 = simulate(&k1, 128).unwrap().time_ms;
        let t5 = simulate(&k5, 128).unwrap().time_ms;
        assert!(t5 > t1);
    }

    #[test]
    fn effective_shmem_rules() {
        assert_eq!(
            effective_shmem_per_mp(Family::Kepler, PreferredL1::Kb48, 49_152),
            16 * 1024
        );
        assert_eq!(
            effective_shmem_per_mp(Family::Kepler, PreferredL1::Kb16, 49_152),
            48 * 1024
        );
        assert_eq!(
            effective_shmem_per_mp(Family::Maxwell, PreferredL1::Kb48, 98_304),
            98_304
        );
    }
}
