//! Property-based tests over the public API: random kernel ASTs must
//! round-trip through the disassembler, keep the index's divergent
//! regions well-formed, and keep the analyzers total.

use oriole::arch::{Family, Gpu};
use oriole::codegen::{compile, regalloc, transform, TuningParams};
use oriole::ir::{
    lower::{lower, lower_indexed, LowerOptions},
    text, KernelAst, LaunchGeometry, Terminator,
};
use proptest::prelude::*;

mod common;
use common::arb_kernel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disassembly_round_trips(ast in arb_kernel(), fast in any::<bool>()) {
        for family in [Family::Kepler, Family::Pascal] {
            let program = lower(&ast, family, LowerOptions { fast_math: fast });
            prop_assert!(program.validate().is_empty());
            let listing = text::emit(&program);
            let parsed = text::parse(&listing)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{listing}")))?;
            prop_assert_eq!(parsed, program);
        }
    }

    #[test]
    fn cfg_is_well_formed(ast in arb_kernel()) {
        let (program, index) = lower_indexed(&ast, Family::Maxwell, LowerOptions::default());
        prop_assert_eq!(index.len(), program.blocks.len());
        for region in index.divergent_regions() {
            // Each region opens at a divergent conditional branch ...
            let branch = &program.blocks[region.branch_block.0 as usize].term;
            prop_assert!(
                matches!(branch, Terminator::CondBranch { divergent: true, .. }),
                "region at {} opens on {:?}", region.branch_block, branch
            );
            // ... and its body is sorted, in range, and holds neither the
            // branch nor the block where the lanes reconverge.
            prop_assert!(region.body.windows(2).all(|w| w[0] < w[1]), "{:?}", region.body);
            for &b in &region.body {
                prop_assert!((b.0 as usize) < program.blocks.len());
                prop_assert!(b != region.branch_block && Some(b) != region.reconvergence);
            }
        }
    }

    #[test]
    fn expected_counts_bounded_by_warp_counts(ast in arb_kernel()) {
        // eval_expected ≤ eval_warp per block × small slack: divergence
        // saturation and ceil trips only ever increase warp-level counts.
        let program = lower(&ast, Family::Kepler, LowerOptions::default());
        for block in &program.blocks {
            let e = block.freq.eval_expected(64, 128, 8);
            let w = block.freq.eval_warp(64, 128, 8);
            prop_assert!(e <= w * (1.0 + 1e-9), "expected {} > warp {}", e, w);
        }
    }

    #[test]
    fn unroll_never_loses_floating_point_work(ast in arb_kernel(), u in 2u32..=6) {
        // Unrolling replicates bodies and ceil-divides trip counts, so
        // expected *floating-point* work can only stay equal or grow
        // (remainder iterations are modeled as full copies) — never
        // shrink. The FLOPS *class* total can legitimately fall because
        // loop-latch integer adds are IntAdd32 (Table II groups them
        // under FLOPS) and unrolling removes latch executions.
        use oriole::arch::OpClass;
        let unrolled = transform::unroll(&ast, u);
        let geom = LaunchGeometry::new(64, 128, 8);
        let fp = |k: &KernelAst| {
            let m = oriole::ir::expected_mix_of(k, Family::Kepler, geom);
            m.get(OpClass::FpIns32) + m.get(OpClass::FpIns64) + m.get(OpClass::LogSinCos)
        };
        let b = fp(&ast);
        let a = fp(&unrolled);
        prop_assert!(a >= b * 0.99, "base {} after {}", b, a);
    }

    #[test]
    fn compilation_and_analysis_total(ast in arb_kernel(), tc_i in 1u32..=8, uif in 1u32..=5) {
        // Whatever the kernel, the pipeline never panics: it compiles (or
        // cleanly refuses) and the analyzer/simulator stay total.
        let gpu = Gpu::M40.spec();
        let mut params = TuningParams::with_geometry(tc_i * 64, 48);
        params.uif = uif;
        match compile(&ast, gpu, params) {
            Err(_) => {} // clean refusal is fine
            Ok(kernel) => {
                let analysis = oriole::core::analyze(&kernel, 64);
                prop_assert!(analysis.predicted_time >= 0.0);
                match oriole::sim::simulate(&kernel, 64) {
                    Err(_) => {} // infeasible occupancy is a clean outcome
                    Ok(report) => {
                        prop_assert!(report.time_ms.is_finite());
                        prop_assert!(report.time_ms > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn split_pipeline_matches_monolithic_compile(
        ast in arb_kernel(),
        tc_i in 1u32..=16,
        bc_i in 1u32..=8,
        uif in 1u32..=5,
        pl_kb in prop_oneof![Just(16u32), Just(48u32)],
        fast in any::<bool>(),
    ) {
        // The cached front-end + cheap back-end must reproduce the
        // monolithic compile() bit-for-bit on every tuning point — the
        // invariant that makes the evaluator's compilation cache safe.
        use oriole::codegen::{front_end, CompilerFlags, PreferredL1};
        let gpu = Gpu::K20.spec();
        let params = TuningParams {
            tc: tc_i * 64,
            bc: bc_i * 24,
            uif,
            pl: PreferredL1::from_kb(pl_kb).expect("16 or 48"),
            sc: 1,
            cflags: CompilerFlags { fast_math: fast },
        };
        let split = front_end(&ast, gpu, params.uif, params.cflags)
            .and_then(|fe| fe.specialize(params));
        let monolithic = compile(&ast, gpu, params);
        prop_assert_eq!(split, monolithic);
        // And one artifact serves every (TC, BC, PL) sibling point.
        if let Ok(fe) = front_end(&ast, gpu, params.uif, params.cflags) {
            for (tc, bc) in [(64u32, 24u32), (512, 96), (1024, 192)] {
                let sibling = TuningParams { tc, bc, ..params };
                prop_assert_eq!(fe.specialize(sibling), compile(&ast, gpu, sibling));
            }
        }
    }

    #[test]
    fn regalloc_monotone_under_unroll(u in 1u32..=6) {
        // More unrolling never reduces estimated register demand for the
        // benchmark kernels.
        let ast = oriole::kernels::KernelId::Atax.ast(64);
        let base = lower(&transform::unroll(&ast, 1), Family::Kepler, LowerOptions::default());
        let more = lower(&transform::unroll(&ast, u), Family::Kepler, LowerOptions::default());
        let a = regalloc::allocate(&base, 255);
        let b = regalloc::allocate(&more, 255);
        prop_assert!(b.demand >= a.demand);
    }

    #[test]
    fn occupancy_bounds_hold(tc in 1u32..=1024, regs in 0u32..=255, smem in 0u32..=49_152) {
        for gpu in oriole::arch::ALL_GPUS {
            let o = oriole::arch::occupancy(
                gpu.spec(),
                oriole::arch::OccupancyInput {
                    tc,
                    regs_per_thread: regs,
                    smem_per_block: smem,
                    shmem_per_mp: None,
                },
            );
            prop_assert!((0.0..=1.0).contains(&o.occupancy));
            prop_assert!(o.active_warps <= gpu.spec().warps_per_mp);
            prop_assert!(o.active_blocks <= gpu.spec().blocks_per_mp);
        }
    }

    #[test]
    fn model_context_matches_free_functions(
        ast in arb_kernel(),
        tc_i in 1u32..=16,
        uif in 1u32..=5,
        fast in any::<bool>(),
        n in prop_oneof![Just(8u64), Just(64), Just(512)],
        seed in any::<u64>(),
    ) {
        // The ISSUE's compatibility invariant: `simulate`, `measure` and
        // `dynamic_mix` stay thin wrappers producing bit-identical
        // results to the memoized, context-backed paths — cold AND warm
        // (a cached report must replay exactly).
        use oriole::codegen::CompilerFlags;
        use oriole::sim::ModelContext;
        let gpu = Gpu::K20.spec();
        let params = TuningParams {
            tc: tc_i * 64,
            bc: 48,
            uif,
            pl: oriole::codegen::PreferredL1::Kb16,
            sc: 1,
            cflags: CompilerFlags { fast_math: fast },
        };
        if let Ok(kernel) = compile(&ast, gpu, params) {
            let ctx = ModelContext::new(gpu);
            // The default context runs the simulator backend; an
            // explicitly selected simulator context must be the very
            // same thing.
            prop_assert_eq!(ctx.model_id(), oriole::sim::ModelId::Simulator);
            let explicit = ModelContext::for_model(gpu, oriole::sim::ModelId::Simulator);
            for _round in 0..2 {
                prop_assert_eq!(ctx.simulate(&kernel, n), oriole::sim::simulate(&kernel, n));
                prop_assert_eq!(explicit.simulate(&kernel, n), oriole::sim::simulate(&kernel, n));
                let free = oriole::sim::measure(&kernel, n, 10, seed);
                prop_assert_eq!(ctx.measure(&kernel, n, 10, seed), free);
                prop_assert_eq!(ctx.dynamic_mix(&kernel, n), oriole::sim::dynamic_mix(&kernel, n));
            }
        }
    }

    #[test]
    fn static_backend_matches_predict_time(
        ast in arb_kernel(),
        tc_i in 1u32..=16,
        uif in 1u32..=5,
        n in prop_oneof![Just(8u64), Just(64), Just(512)],
    ) {
        // The static backend is Eq. 6 behind a `ModelId`: for
        // every launchable kernel its report carries exactly the free
        // `predict_time_indexed` value, and it refuses exactly the
        // configurations the simulator refuses (shared feasibility
        // gate).
        use oriole::sim::{ModelContext, ModelId};
        let gpu = Gpu::K20.spec();
        let mut params = TuningParams::with_geometry(tc_i * 64, 48);
        params.uif = uif;
        if let Ok(kernel) = compile(&ast, gpu, params) {
            let ctx = ModelContext::for_model(gpu, ModelId::Static);
            match ctx.simulate(&kernel, n) {
                Ok(r) => {
                    let expected = oriole::core::predict_time_indexed(
                        gpu.throughput(),
                        &kernel.index,
                        &kernel.program,
                        kernel.geometry(n),
                    );
                    prop_assert_eq!(r.time_ms, expected);
                }
                Err(e) => {
                    prop_assert_eq!(Err(e), oriole::sim::simulate(&kernel, n));
                }
            }
        }
    }
}
