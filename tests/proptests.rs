//! Property-based tests over the public API: random kernel ASTs must
//! round-trip through the disassembler, keep the index's divergent
//! regions well-formed, and keep the analyzers total. Each property runs
//! 64 seeded cases and draws its inputs in the order it names them.

use oriole::arch::{occupancy, Family, Gpu, Limiter, OccupancyInput, ALL_GPUS};
use oriole::codegen::{compile, regalloc, transform, CompileError, CompiledKernel, TuningParams};
use oriole::ir::testgen::{self, check};
use oriole::ir::{
    lower::{lower, lower_indexed, LowerOptions},
    text, KernelAst, LaunchGeometry, Terminator,
};

const CASES: u32 = 64;

#[test]
fn disassembly_round_trips() {
    check("disassembly_round_trips", CASES, |rng| {
        let (ast, fast) = (testgen::kernel(rng, "prop_kernel"), rng.coin());
        for family in [Family::Kepler, Family::Pascal] {
            let program = lower(&ast, family, LowerOptions { fast_math: fast });
            assert!(program.validate().is_empty());
            let listing = text::emit(&program);
            let parsed = text::parse(&listing).unwrap_or_else(|e| panic!("{e}\n{listing}"));
            assert_eq!(parsed, program);
        }
    });
}

#[test]
fn cfg_is_well_formed() {
    check("cfg_is_well_formed", CASES, |rng| {
        let ast = testgen::kernel(rng, "prop_kernel");
        let (program, index) = lower_indexed(&ast, Family::Maxwell, LowerOptions::default());
        assert_eq!(index.len(), program.blocks.len());
        for region in index.divergent_regions() {
            // Each region opens at a divergent conditional branch ...
            let branch = &program.blocks[region.branch_block.0 as usize].term;
            assert!(
                matches!(branch, Terminator::CondBranch { divergent: true, .. }),
                "region at {} opens on {:?}", region.branch_block, branch
            );
            // ... and its body is sorted, in range, and holds neither the
            // branch nor the block where the lanes reconverge.
            assert!(region.body.windows(2).all(|w| w[0] < w[1]), "{:?}", region.body);
            for &b in &region.body {
                assert!((b.0 as usize) < program.blocks.len());
                assert!(b != region.branch_block && Some(b) != region.reconvergence);
            }
        }
    });
}

#[test]
fn expected_counts_bounded_by_warp_counts() {
    check("expected_counts_bounded_by_warp_counts", CASES, |rng| {
        // eval_expected ≤ eval_warp per block × small slack: divergence
        // saturation and ceil trips only ever increase warp-level counts.
        let ast = testgen::kernel(rng, "prop_kernel");
        let program = lower(&ast, Family::Kepler, LowerOptions::default());
        for block in &program.blocks {
            let e = block.freq.eval_expected(64, 128, 8);
            let w = block.freq.eval_warp(64, 128, 8);
            assert!(e <= w * (1.0 + 1e-9), "expected {} > warp {}", e, w);
        }
    });
}

#[test]
fn unroll_never_loses_floating_point_work() {
    check("unroll_never_loses_floating_point_work", CASES, |rng| {
        // Unrolling replicates bodies and ceil-divides trip counts, so
        // expected *floating-point* work can only stay equal or grow
        // (remainder iterations are modeled as full copies) — never
        // shrink. The FLOPS *class* total can legitimately fall because
        // loop-latch integer adds are IntAdd32 (Table II groups them
        // under FLOPS) and unrolling removes latch executions.
        use oriole::arch::OpClass;
        let (ast, u) = (testgen::kernel(rng, "prop_kernel"), rng.range_u64(2, 6) as u32);
        let unrolled = transform::unroll(&ast, u);
        let geom = LaunchGeometry::new(64, 128, 8);
        let fp = |k: &KernelAst| {
            let m = oriole::ir::expected_mix_of(k, Family::Kepler, geom);
            m.get(OpClass::FpIns32) + m.get(OpClass::FpIns64) + m.get(OpClass::LogSinCos)
        };
        let b = fp(&ast);
        let a = fp(&unrolled);
        assert!(a >= b * 0.99, "base {} after {}", b, a);
    });
}

#[test]
fn compilation_and_analysis_total() {
    check("compilation_and_analysis_total", CASES, |rng| {
        // Whatever the kernel, the pipeline never panics: it compiles (or
        // cleanly refuses) and the analyzer/simulator stay total.
        let ast = testgen::kernel(rng, "prop_kernel");
        let (tc_i, uif) = (rng.range_u64(1, 8) as u32, rng.range_u64(1, 5) as u32);
        let gpu = Gpu::M40.spec();
        let mut params = TuningParams::with_geometry(tc_i * 64, 48);
        params.uif = uif;
        match compile(&ast, gpu, params) {
            Err(_) => {} // clean refusal is fine
            Ok(kernel) => {
                let analysis = oriole::core::analyze(&kernel, 64);
                assert!(analysis.predicted_time >= 0.0);
                match oriole::sim::simulate(&kernel, 64) {
                    Err(_) => {} // infeasible occupancy is a clean outcome
                    Ok(report) => {
                        assert!(report.time_ms.is_finite());
                        assert!(report.time_ms > 0.0);
                    }
                }
            }
        }
    });
}

#[test]
fn split_pipeline_matches_monolithic_compile() {
    check("split_pipeline_matches_monolithic_compile", CASES, |rng| {
        // The cached front-end + cheap back-end must reproduce the
        // monolithic compile() bit-for-bit on every tuning point — the
        // invariant that makes the evaluator's compilation cache safe.
        use oriole::codegen::{front_end, CompilerFlags, PreferredL1};
        let ast = testgen::kernel(rng, "prop_kernel");
        let (tc_i, bc_i) = (rng.range_u64(1, 16) as u32, rng.range_u64(1, 8) as u32);
        let (uif, pl_kb, fast) = (rng.range_u64(1, 5) as u32, rng.pick(&[16, 48]), rng.coin());
        // Every family: Fermi's 63-register cap binds where Kepler's 255
        // does not.
        let gpu = rng.pick(&ALL_GPUS).spec();
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
        assert_eq!(split, monolithic);
        // And one artifact serves every (TC, BC, PL) sibling point.
        if let Ok(fe) = front_end(&ast, gpu, params.uif, params.cflags) {
            for (tc, bc) in [(64u32, 24u32), (512, 96), (1024, 192)] {
                let sibling = TuningParams { tc, bc, ..params };
                let kernel = fe.specialize(sibling);
                assert_eq!(kernel, compile(&ast, gpu, sibling));
                launch_is_legal(&kernel);
            }
        }
        launch_is_legal(&split);
    });
}

/// A kernel `specialize` hands back asks its device for nothing past its
/// limits, so the occupancy calculator never calls its launch illegal.
fn launch_is_legal(kernel: &Result<CompiledKernel, CompileError>) {
    let Ok(k) = kernel else { return };
    let (regs, smem) = (k.regs_per_thread(), k.smem_per_block);
    let of_block = OccupancyInput::of_block(k.params.tc);
    let input = OccupancyInput { regs_per_thread: regs, smem_per_block: smem, ..of_block };
    assert_ne!(occupancy(&k.gpu, input).limiter, Limiter::Illegal, "{:?}", k.params);
    assert!(k.params.bc > 0 && regs <= k.gpu.regs_per_thread_max, "{:?}", k.params);
    assert!(smem <= k.gpu.shmem_per_block, "{:?}", k.params);
}

#[test]
fn regalloc_monotone_under_unroll() {
    check("regalloc_monotone_under_unroll", CASES, |rng| {
        // More unrolling never reduces estimated register demand for the
        // benchmark kernels.
        let u = rng.range_u64(1, 6) as u32;
        let ast = oriole::kernels::KernelId::Atax.ast(64);
        let base = lower(&transform::unroll(&ast, 1), Family::Kepler, LowerOptions::default());
        let more = lower(&transform::unroll(&ast, u), Family::Kepler, LowerOptions::default());
        let a = regalloc::allocate(&base, 255);
        let b = regalloc::allocate(&more, 255);
        assert!(b.demand >= a.demand);
    });
}

#[test]
fn occupancy_bounds_hold() {
    check("occupancy_bounds_hold", CASES, |rng| {
        let tc = rng.range_u64(1, 1024) as u32;
        let (regs, smem) = (rng.range_u64(0, 255) as u32, rng.range_u64(0, 49_152) as u32);
        for gpu in ALL_GPUS {
            let o = oriole::arch::occupancy(
                gpu.spec(),
                oriole::arch::OccupancyInput {
                    tc,
                    regs_per_thread: regs,
                    smem_per_block: smem,
                    shmem_per_mp: None,
                },
            );
            assert!((0.0..=1.0).contains(&o.occupancy));
            assert!(o.active_warps <= gpu.spec().warps_per_mp);
            assert!(o.active_blocks <= gpu.spec().blocks_per_mp);
        }
    });
}

#[test]
fn model_context_matches_free_functions() {
    check("model_context_matches_free_functions", CASES, |rng| {
        // `simulate` and `measure` on the default context,
        // and `simulate` on an explicitly selected simulator context,
        // equal the free functions bit for bit.
        use oriole::codegen::CompilerFlags;
        use oriole::sim::ModelContext;
        let ast = testgen::kernel(rng, "prop_kernel");
        let (tc_i, uif) = (rng.range_u64(1, 16) as u32, rng.range_u64(1, 5) as u32);
        let (fast, n, seed) = (rng.coin(), rng.pick(&[8u64, 64, 512]), rng.next_u64());
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
            // The default context runs the simulator backend.
            assert_eq!(ctx.model_id(), oriole::sim::ModelId::Simulator);
            let explicit = ModelContext::for_model(gpu, oriole::sim::ModelId::Simulator);
            assert_eq!(ctx.simulate(&kernel, n), oriole::sim::simulate(&kernel, n));
            assert_eq!(explicit.simulate(&kernel, n), oriole::sim::simulate(&kernel, n));
            let free = oriole::sim::measure(&kernel, n, 10, seed);
            assert_eq!(ctx.measure(&kernel, n, 10, seed), free);
        }
    });
}

#[test]
fn static_backend_matches_predict_time() {
    check("static_backend_matches_predict_time", CASES, |rng| {
        // The static backend is Eq. 6 behind a `ModelId`: for
        // every launchable kernel its report carries exactly the free
        // `predict_time_indexed` value, and it refuses exactly the
        // configurations the simulator refuses (shared feasibility
        // gate).
        use oriole::sim::{ModelContext, ModelId};
        let ast = testgen::kernel(rng, "prop_kernel");
        let (tc_i, uif) = (rng.range_u64(1, 16) as u32, rng.range_u64(1, 5) as u32);
        let n = rng.pick(&[8u64, 64, 512]);
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
                    assert_eq!(r.time_ms, expected);
                }
                Err(e) => {
                    assert_eq!(Err(e), oriole::sim::simulate(&kernel, n));
                }
            }
        }
    });
}
