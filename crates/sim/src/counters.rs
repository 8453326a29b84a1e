//! Dynamic instruction counters.
//!
//! The "dynamic analysis" side of the paper: what a profiler counts when
//! the kernel actually runs. Counts integrate *warp-level* execution
//! weights — divergent branch sides execute whenever any lane takes them,
//! and every issued warp instruction occupies 32 thread slots regardless
//! of the active mask. The static analyzer's estimate
//! ([`oriole_ir::expected_mix`]) integrates thread-level weights instead;
//! the gap between the two is exactly what the paper's Table VI reports
//! as estimation error.

use oriole_codegen::CompiledKernel;
use oriole_ir::{MixCounts, ProgramIndex};

/// The leading blocks of a `(tc, bc)` launch that carry work items at
/// problem size `n` (at least one when `bc > 0`): the kernel's
/// grid-stride items (precomputed by the index at front-end time) over
/// `tc` threads a block. The rest of the grid only runs its range guard.
pub(crate) fn busy_blocks(index: &ProgramIndex, n: u64, tc: u32, bc: u32) -> u32 {
    let threads = f64::from(tc) * f64::from(bc);
    let items = index.grid_stride_items(n).unwrap_or(threads);
    let busy_threads = threads.min(items.max(1.0));
    ((busy_threads / f64::from(tc)).ceil().max(1.0) as u32).min(bc)
}

/// Whole-grid dynamic instruction mix for one execution at problem size
/// `n` (thread-slot granularity: warp executions × 32).
///
/// Unlike the static estimator's fractional thread-level expectation,
/// this integrates what actually issues:
///
/// * only the *busy* leading blocks execute loop bodies; their warps run
///   whole (ceil-quantized) grid-stride iterations — the boundary warp
///   does a full extra round even when only one lane needs it;
/// * idle surplus blocks still issue their prologue and range guard;
/// * divergent branch sides execute whenever any lane takes them.
///
/// The gap between this and [`oriole_ir::expected_mix`] is the paper's
/// Table VI estimation error.
pub fn dynamic_mix(kernel: &CompiledKernel, n: u64) -> MixCounts {
    let index = &kernel.index;
    let (tc, bc) = (kernel.params.tc, kernel.params.bc);
    let busy = busy_blocks(index, n, tc, bc);
    let idle_warps = f64::from(bc - busy) * f64::from(tc.div_ceil(32));
    let mut mix = MixCounts::new();
    let blocks = kernel.program.blocks.iter().zip(index.summaries());
    for ((block, s), w_busy) in blocks.zip(busy_weights(kernel, n, busy)) {
        // Idle warps: prologue/guard work only — evaluate with the
        // problem size zeroed so every data loop contributes nothing.
        let w_idle = block.freq.eval_expected(0, tc, bc);
        let slots = (w_busy + w_idle * idle_warps) * 32.0;
        if slots <= 0.0 {
            continue;
        }
        index.replay_mix(s, slots, &mut mix);
    }
    mix
}

/// Each block's busy-warp weight in [`dynamic_mix`] at `n` with `busy`
/// busy blocks: the block's frequency at the busy geometry, saturated
/// for divergence, times the busy warps. It is the part of a block's
/// slot count that `BC` moves only through `busy`.
pub(crate) fn busy_weights(
    kernel: &CompiledKernel,
    n: u64,
    busy: u32,
) -> impl Iterator<Item = f64> + '_ {
    let tc = kernel.params.tc;
    let busy_warps = f64::from(busy) * f64::from(tc.div_ceil(32));
    // Divergence-free programs have warp saturation exactly 1.0 in every
    // block; skipping it is bit-identical (`x * 1.0 == x` bitwise).
    let saturated = kernel.index.has_divergence();
    kernel.program.blocks.iter().map(move |block| {
        let mut w_busy = block.freq.eval(n, tc, busy.max(1));
        if saturated {
            w_busy *= warp_saturation(block, w_busy, n, tc, busy.max(1));
        }
        w_busy * busy_warps
    })
}

/// `dynamic_mix(kernel, n).get(OpClass::Regs)` from the blocks' busy
/// weights ([`busy_weights`] under `busy`) and the index's register
/// tapes, in the mix's own accumulation order, so the bits are the
/// same. A block's idle weight is the index's zero-size weight, a
/// constant of the artifact, unless a power-0 geometry trip makes it
/// read `(tc, bc)`.
pub(crate) fn reg_instructions(kernel: &CompiledKernel, busy: u32, busy_weights: &[f64]) -> f64 {
    let (tc, bc) = (kernel.params.tc, kernel.params.bc);
    let idle_warps = f64::from(bc - busy) * f64::from(tc.div_ceil(32));
    let mut regs = 0.0;
    let index = &kernel.index;
    let blocks = kernel.program.blocks.iter().zip(index.summaries());
    for ((block, s), &w_busy) in blocks.zip(busy_weights) {
        let w_idle = s.zero_size_weight.unwrap_or_else(|| block.freq.eval_expected(0, tc, bc));
        let slots = (w_busy + w_idle * idle_warps) * 32.0;
        if slots <= 0.0 {
            continue;
        }
        for &m in index.reg_tape(s) {
            regs += slots * m;
        }
    }
    regs
}

/// The pre-index walk-based implementation, retained as the oracle the
/// property tests compare against.
#[cfg(test)]
pub(crate) fn dynamic_mix_walk(kernel: &CompiledKernel, n: u64) -> MixCounts {
    use oriole_arch::OpClass;
    use oriole_ir::{Terminator, TripCount};
    let params = kernel.params;
    let (tc, bc) = (params.tc, params.bc);
    let threads = f64::from(tc) * f64::from(bc);
    let items = kernel
        .program
        .blocks
        .iter()
        .filter_map(|b| match &b.term {
            Terminator::LoopBack { trip: TripCount::GridStride(s), .. } => Some(s.eval(n)),
            _ => None,
        })
        .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
        .unwrap_or(threads);
    let busy_threads = threads.min(items.max(1.0));
    let busy_blocks = ((busy_threads / f64::from(tc)).ceil().max(1.0) as u32).min(bc);
    let idle_blocks = bc - busy_blocks;
    let wb = f64::from(tc.div_ceil(32));
    let busy_warps = f64::from(busy_blocks) * wb;
    let idle_warps = f64::from(idle_blocks) * wb;

    let mut mix = MixCounts::new();
    for block in &kernel.program.blocks {
        let thread = block.freq.eval(n, tc, busy_blocks.max(1));
        let w_busy = thread * warp_saturation(block, thread, n, tc, busy_blocks.max(1));
        let w_idle = block.freq.eval_expected(0, tc, bc);
        let slots = (w_busy * busy_warps + w_idle * idle_warps) * 32.0;
        if slots <= 0.0 {
            continue;
        }
        for instr in &block.instrs {
            mix.record(instr.opcode.op_class(), slots);
            mix.record(OpClass::Regs, slots * f64::from(instr.regfile_accesses()));
        }
        match &block.term {
            Terminator::Jump(_) | Terminator::CondBranch { .. } | Terminator::LoopBack { .. } => {
                mix.record(OpClass::CtrlIns, slots);
            }
            Terminator::Ret => {}
        }
    }
    mix
}

/// Ratio of warp-level to thread-level branch weights for a block
/// (≥ 1; captures divergence saturation independently of trip counts),
/// given its thread-level weight `thread`, `block.freq.eval(n, tc, bc)`,
/// which every caller has already evaluated.
fn warp_saturation(block: &oriole_ir::BasicBlock, thread: f64, n: u64, tc: u32, bc: u32) -> f64 {
    let thread_frac = block.freq.eval_expected(n, tc, bc);
    if thread <= 0.0 || thread_frac <= 0.0 {
        return 1.0;
    }
    let warp = block.freq.eval_warp(n, tc, bc);
    // eval_warp uses fractional trips; isolate the fraction-saturation
    // component by comparing against eval_expected (same trip semantics).
    (warp / thread_frac).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_ir::{expected_mix, LaunchGeometry};
    use oriole_kernels::KernelId;

    fn kernel(kid: KernelId, n: u64, tc: u32, bc: u32) -> CompiledKernel {
        compile(&kid.ast(n), Gpu::K20.spec(), TuningParams::with_geometry(tc, bc)).unwrap()
    }

    #[test]
    fn dynamic_counts_scale_with_n() {
        let k_small = kernel(KernelId::Atax, 64, 128, 48);
        let k_large = kernel(KernelId::Atax, 512, 128, 48);
        let small = dynamic_mix(&k_small, 64).total();
        let large = dynamic_mix(&k_large, 512).total();
        // O(N²) work: 64× more at 8× the size. The observed ratio sits
        // well below 64 because dynamic counts include idle-block guards
        // and boundary-warp quantization, which loom large at N=64.
        assert!(large > small * 15.0, "{large} vs {small}");
    }

    #[test]
    fn static_estimate_tracks_dynamic_for_straight_kernels() {
        // ATAX has no divergence: thread-level and warp-level weights
        // agree, so the per-class fractions must match closely.
        let k = kernel(KernelId::Atax, 128, 128, 48);
        let geom = LaunchGeometry::new(128, 128, 48);
        let dynamic = dynamic_mix(&k, 128).classes();
        let threads = geom.total_threads() as f64;
        let stat = expected_mix(&k.program, geom).scaled(threads).classes();
        let (df, dm, _, _) = dynamic.fractions();
        let (sf, sm, _, _) = stat.fractions();
        assert!((df - sf).abs() < 0.02, "flops {df} vs {sf}");
        assert!((dm - sm).abs() < 0.02, "mem {dm} vs {sm}");
    }

    #[test]
    fn divergence_inflates_dynamic_counts() {
        // ex14FJ at small N diverges heavily: warps execute both the
        // boundary and interior paths, so dynamic FLOPS exceed the
        // thread-level static estimate.
        let k = kernel(KernelId::Ex14Fj, 8, 128, 48);
        let geom = LaunchGeometry::new(8, 128, 48);
        let dynamic = dynamic_mix(&k, 8).classes();
        let stat = expected_mix(&k.program, geom)
            .scaled(geom.total_threads() as f64)
            .classes();
        assert!(
            dynamic.flops > stat.flops * 1.3,
            "dynamic {} !>> static {}",
            dynamic.flops,
            stat.flops
        );
    }

    #[test]
    fn register_class_dominates_totals() {
        // Every instruction touches the register file several times, so
        // O_reg is the largest class (paper Table V's large register
        // instruction counts).
        let k = kernel(KernelId::MatVec2D, 128, 256, 48);
        let classes = dynamic_mix(&k, 128).classes();
        assert!(classes.reg > classes.flops);
        assert!(classes.reg > classes.mem);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use oriole_arch::OpClass;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_ir::testgen::{check, kernel};

    #[test]
    fn indexed_dynamic_mix_bit_identical() {
        check("indexed_dynamic_mix_bit_identical", 48, |rng| {
            let ast = kernel(rng, "sim_prop");
            // A valid point on the paper space's axes that move the mix:
            // `TC`, `BC`, `UIF` and `CFLAGS`.
            let tc = rng.pick(&[32u32, 128, 512, 1024]);
            let mut params = TuningParams::with_geometry(tc, rng.range_u64(1, 8) as u32 * 24);
            params.uif = rng.range_u64(1, 5) as u32;
            params.cflags.fast_math = rng.coin();
            let n = rng.range_u64(1, 255);
            let compiled = compile(&ast, Gpu::K20.spec(), params).expect("valid point");
            assert_eq!(dynamic_mix(&compiled, n), dynamic_mix_walk(&compiled, n));
        });
    }

    #[test]
    fn replayed_register_count_bit_identical() {
        check("replayed_register_count_bit_identical", 48, |rng| {
            let ast = kernel(rng, "sim_prop");
            let fe = oriole_codegen::front_end(&ast, Gpu::K20.spec(), 1, Default::default());
            let fe = fe.expect("valid unroll factor");
            let n = rng.range_u64(1, 255);
            // One scratch over a walk of launch shapes, as a sweep
            // worker carries it: every count is the mix's own.
            let mut scratch = crate::LaunchScratch::default();
            for _ in 0..12 {
                let tc = rng.pick(&[32u32, 128, 512, 1024]);
                let params = TuningParams::with_geometry(tc, rng.range_u64(1, 8) as u32 * 24);
                let k = fe.specialize(params).expect("valid point");
                let replayed = scratch.reg_instructions(&k, n);
                assert_eq!(replayed.to_bits(), dynamic_mix(&k, n).get(OpClass::Regs).to_bits());
            }
        });
    }
}
