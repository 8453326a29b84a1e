//! Dynamic instruction counters.
//!
//! The "dynamic analysis" side of the paper: what a profiler counts when
//! the kernel actually runs, warp by warp over a launch's
//! [`LaunchWork`]. The paper's Table VI reports the gap to the static
//! analyzer's thread-level [`oriole_ir::expected_mix`] as estimation
//! error; it has three parts: idle blocks, ceil'd grid-stride trips and
//! partial warps, and divergence saturation. Ruling all three out, the
//! two mixes agree to rounding (`proptests::static_and_dynamic_mixes_agree_without_idle_or_partial_work`).

use oriole_codegen::CompiledKernel;
use oriole_ir::{BlockSummary, LaunchGeometry, LaunchWork, MixCounts};

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
/// Those are the three parts of the paper's Table VI estimation error,
/// counted over [`LaunchWork`]; the module docs name the property that
/// holds the two mixes equal without them.
pub fn dynamic_mix(kernel: &CompiledKernel, n: u64) -> MixCounts {
    let work = kernel.index.launch_work(kernel.geometry(n));
    let mut mix = MixCounts::new();
    for (s, slots) in block_slots(kernel, work, busy_weights(kernel, work)) {
        kernel.index.replay_mix(s, slots, &mut mix);
    }
    mix
}

/// Each block's busy-warp weight in [`dynamic_mix`] under `work`: the
/// block's frequency at the busy geometry, saturated for divergence,
/// times the busy warps. It is the part of a block's slot count that
/// `BC` moves only through the busy blocks.
pub(crate) fn busy_weights(
    kernel: &CompiledKernel,
    work: LaunchWork,
) -> impl Iterator<Item = f64> + '_ {
    let geom = work.busy_geometry();
    let busy_warps = work.busy_warps();
    // Divergence-free programs have warp saturation exactly 1.0 in every
    // block; skipping it is bit-identical (`x * 1.0 == x` bitwise).
    let saturated = kernel.index.has_divergence();
    kernel.program.blocks.iter().map(move |block| {
        let mut w_busy = block.freq.eval(geom.n, geom.tc, geom.bc);
        if saturated {
            w_busy *= warp_saturation(block, w_busy, geom);
        }
        w_busy * busy_warps
    })
}

/// `dynamic_mix(kernel, n).get(OpClass::Regs)` from the blocks' busy
/// weights ([`busy_weights`] under `work`) and the index's register
/// tapes, in the mix's own accumulation order, so the bits are the same.
pub(crate) fn reg_instructions(kernel: &CompiledKernel, work: LaunchWork, weights: &[f64]) -> f64 {
    let mut regs = 0.0;
    for (s, slots) in block_slots(kernel, work, weights.iter().copied()) {
        for &m in kernel.index.reg_tape(s) {
            regs += slots * m;
        }
    }
    regs
}

/// Every block that issues under `work`, in order, with its thread slots.
fn block_slots<'k>(
    kernel: &'k CompiledKernel,
    work: LaunchWork,
    busy_weights: impl Iterator<Item = f64> + 'k,
) -> impl Iterator<Item = (&'k BlockSummary, f64)> + 'k {
    let blocks = kernel.program.blocks.iter().zip(kernel.index.summaries());
    blocks.zip(busy_weights).filter_map(move |((block, s), w_busy)| {
        let slots = work.slots(block, s, w_busy);
        // A NaN weight is replayed, as the walk oracle records it.
        (slots > 0.0 || slots.is_nan()).then_some((s, slots))
    })
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
        let busy_geom = LaunchGeometry::new(n, tc, busy_blocks.max(1));
        let w_busy = thread * warp_saturation(block, thread, busy_geom);
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
/// given its thread-level weight `thread`, `block.freq.eval` at `geom`,
/// which every caller has already evaluated.
fn warp_saturation(block: &oriole_ir::BasicBlock, thread: f64, geom: LaunchGeometry) -> f64 {
    let LaunchGeometry { n, tc, bc } = geom;
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

    /// The gap between the two mixes has three parts: idle blocks,
    /// ceil'd trips and partial warps, and divergence saturation. With
    /// all three ruled out — no divergence, `TC % 32 == 0`, and `TC × BC`
    /// dividing every grid-stride item count at `n` (so every block is
    /// busy and no trip rounds) — the dynamic mix is the static one over
    /// the whole grid, class by class, to rounding.
    #[test]
    fn static_and_dynamic_mixes_agree_without_idle_or_partial_work() {
        use oriole_ir::{expected_mix, Terminator, TripCount};
        check("static_and_dynamic_mixes_agree_without_idle_or_partial_work", 48, |rng| {
            let tc = rng.pick(&[32u32, 64, 128, 256]);
            let bc = rng.range_u64(1, 8) as u32;
            let threads = f64::from(tc) * f64::from(bc);
            // The generator's grid-stride items are `N` or `N²`.
            let n = u64::from(tc * bc) * rng.range_u64(1, 3);
            let params = TuningParams::with_geometry(tc, bc);
            let compiled = loop {
                let ast = kernel(rng, "sim_prop");
                let compiled = compile(&ast, Gpu::K20.spec(), params).expect("valid point");
                if !compiled.index.has_divergence() {
                    break compiled;
                }
            };
            for block in &compiled.program.blocks {
                if let Terminator::LoopBack { trip: TripCount::GridStride(s), .. } = &block.term {
                    let items = s.eval(n);
                    assert_eq!(items % threads, 0.0, "{items} items over {threads} threads");
                }
            }
            let dynamic = dynamic_mix(&compiled, n);
            let stat = expected_mix(&compiled.program, compiled.geometry(n)).scaled(threads);
            for class in oriole_arch::ALL_OP_CLASSES {
                let (d, s) = (dynamic.get(class), stat.get(class));
                let gap = (d - s).abs();
                assert!(gap <= 1e-12 * d.abs().max(s.abs()), "{class:?}: dynamic {d} vs static {s}");
            }
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
