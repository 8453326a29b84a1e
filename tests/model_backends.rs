//! Backend-isolation suite for the timing backends a `ModelId` selects.
//!
//! Two invariants make the multi-model refactor safe:
//!
//! 1. **Behavior preservation** — a default-backend (simulator) context
//!    is bit-identical to the free functions, so every pre-refactor
//!    caller sees unchanged numbers.
//! 2. **Backend isolation** — contexts and measurement tiers for
//!    different `ModelId`s on the *same* device never share memo
//!    entries: a cached artifact produced under one cost model can
//!    never be replayed under another.
//!
//! Beside them, the one caller of the compatibility names
//! `benchmark/API.md` pins, checked equal to the plain forms.

use oriole::arch::{Gpu, GpuSpec};
use oriole::codegen::{compile, TuningParams};
use oriole::core::predict_time_indexed;
use oriole::ir::KernelAst;
use oriole::kernels::KernelId;
use oriole::sim::{dynamic_mix, measure, simulate, ModelContext, ModelId};
use oriole::tuner::{ArtifactStore, EvalProtocol};

fn builder(n: u64) -> KernelAst {
    KernelId::Atax.ast(n)
}

fn kernel(gpu: &GpuSpec, tc: u32, bc: u32, n: u64) -> oriole::codegen::CompiledKernel {
    compile(&KernelId::Atax.ast(n), gpu, TuningParams::with_geometry(tc, bc)).unwrap()
}

#[test]
fn default_backend_context_is_bit_identical_to_free_functions() {
    // Invariant (1), across kernels, devices and repeated (warm) calls.
    for kid in oriole::kernels::ALL_KERNELS {
        for gpu in [Gpu::K20, Gpu::P100] {
            let n = kid.input_sizes()[1];
            let k = compile(&kid.ast(n), gpu.spec(), TuningParams::with_geometry(128, 48))
                .unwrap();
            let ctx = ModelContext::for_model(gpu.spec(), ModelId::Simulator);
            for _round in 0..2 {
                assert_eq!(ctx.simulate(&k, n), simulate(&k, n), "{kid} {gpu}");
                assert_eq!(
                    ctx.measure(&k, n, 10, 0xF00D),
                    measure(&k, n, 10, 0xF00D),
                    "{kid} {gpu}"
                );
            }
        }
    }
}

#[test]
fn static_backend_is_eq6_behind_the_seam() {
    // The static backend's report carries exactly the free
    // `predict_time_indexed` value, so `--model static` is the paper's
    // Eq. 6, memoized.
    let gpu = Gpu::M40.spec();
    let ctx = ModelContext::for_model(gpu, ModelId::Static);
    for tc in [64u32, 256, 1024] {
        let k = kernel(gpu, tc, 48, 256);
        let r = ctx.simulate(&k, 256).unwrap();
        let geom = k.geometry(256);
        assert_eq!(r.time_ms, predict_time_indexed(gpu.throughput(), &k.index, &k.program, geom));
    }
}

#[test]
fn same_spec_different_models_share_no_memo_entries() {
    // Invariant (2) at the store level: one GpuSpec, three ModelIds —
    // three distinct measurement tiers, and every backend computes its
    // own estimate under its own scope (no cross-model hits).
    let store = ArtifactStore::new();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let p = TuningParams::with_geometry(128, 48);

    let mut times = Vec::new();
    for &model in &ModelId::ALL {
        let ev = store.evaluator_with(
            "atax",
            &builder,
            gpu,
            &sizes,
            EvalProtocol { model, ..EvalProtocol::default() },
        );
        let m = ev.evaluate(p);
        assert!(m.feasible);
        times.push(m.time_ms);
    }
    assert_ne!(times[0], times[1]);
    assert_ne!(times[0], times[2]);
    assert_ne!(times[1], times[2]);

    let stats = store.stats();
    assert_eq!(stats.contexts, 3);
    assert_eq!(stats.measurement_tiers, 3, "one tier per (protocol incl. model)");
    assert_eq!(stats.unique_evaluations, 3, "no tier answered for another");
    // Compilation artifacts are model-independent: one front-end tier,
    // one lowering, shared by all three backends.
    assert_eq!(stats.front_end_tiers, 1);
    assert_eq!(stats.front_end_lowerings, 1);
}

#[test]
#[allow(deprecated)]
fn compatibility_names_forward_to_the_plain_forms() {
    // The names `benchmark/API.md` pins until its re-base are one-line
    // forwards: each answers exactly what the plain form answers. This
    // is their only caller in the workspace (clippy `-D warnings`
    // refuses another).
    use oriole::arch::{occupancy, OccupancyInput, OccupancyTable, ALL_GPUS};
    use oriole::codegen::{front_end, CompilerFlags};
    use oriole::core::suggest::{suggest_from, suggest_from_in};
    use oriole::core::{analyze, analyze_in};
    use oriole::sim::ProgramKey;

    for gpu in ALL_GPUS {
        let spec = gpu.spec();
        let ctx = ModelContext::new(spec);
        let table = OccupancyTable::new(spec);
        assert_eq!(ctx.occupancy_table().spec(), spec);
        for kid in oriole::kernels::ALL_KERNELS {
            let n = kid.input_sizes()[1];
            let fe = front_end(&kid.ast(n), spec, 2, CompilerFlags::default()).unwrap();
            for tc in [64u32, 256, 1024] {
                let p = TuningParams { uif: 2, ..TuningParams::with_geometry(tc, 48) };
                let k = fe.specialize(p).unwrap();
                for split in [None, Some(16 * 1024)] {
                    let input = OccupancyInput {
                        tc,
                        regs_per_thread: k.regs_per_thread(),
                        smem_per_block: k.smem_per_block,
                        shmem_per_mp: split,
                    };
                    assert_eq!(table.lookup(input), occupancy(spec, input));
                    assert_eq!(ctx.occupancy(input), occupancy(spec, input));
                }
                let (regs, smem) = (k.regs_per_thread(), k.smem_per_block);
                assert_eq!(suggest_from_in(&table, regs, smem), suggest_from(spec, regs, smem));

                let (via, plain) = (analyze_in(ctx.occupancy_table(), &k, n), analyze(&k, n));
                assert_eq!(via.kernel_name, plain.kernel_name);
                assert_eq!((&via.gpu, via.geometry), (&plain.gpu, plain.geometry));
                assert_eq!(via.mix, plain.mix);
                assert_eq!(via.occupancy, plain.occupancy);
                assert_eq!(via.pipeline, plain.pipeline);
                assert_eq!(via.divergence, plain.divergence);
                assert_eq!(via.suggestion, plain.suggestion);
                assert_eq!(via.rule_threads, plain.rule_threads);
                assert_eq!(via.predicted_time.to_bits(), plain.predicted_time.to_bits());

                let key = ProgramKey::of_front_end(&fe);
                assert_eq!(ctx.measure_keyed(&key, &k, n, 10, 7), ctx.measure(&k, n, 10, 7));
                assert_eq!(ctx.dynamic_mix_keyed(&key, &k, n), dynamic_mix(&k, n));
            }
        }
    }
}

#[test]
fn a_power_0_geometry_trip_keeps_the_register_count_per_launch() {
    // A grid-stride or block-share trip over a power-0 size is a
    // constant item count divided over `TC × BC` (or `TC`): at problem
    // size zero, where idle blocks are weighed, it still reads the launch
    // geometry. `oriole::ir::testgen` draws neither, so these ASTs are
    // built by hand, under a uniform and a divergent branch, beside a
    // size-scaled loop whose idle weight is a constant of the artifact.
    use oriole::codegen::{front_end, CompilerFlags};
    use oriole::ir::{
        AccessPattern, AluOp, Branch, DivergenceKind, Loop, MemSpace, SizeExpr, Stmt, TripCount,
    };
    use oriole::sim::{LaunchScratch, TrialProtocol};
    let looped = |trip, body| Stmt::Loop(Loop { trip, unrollable: false, body });
    let kernel = |divergence| {
        let mut k = KernelAst::new("power_0");
        let branch = Stmt::If(Branch {
            divergence,
            taken_fraction: 0.3,
            then_body: vec![looped(
                TripCount::BlockShare(SizeExpr::new(40.0, 0)),
                vec![Stmt::ops(AluOp::FmaF32, 3)],
            )],
            else_body: vec![Stmt::ops(AluOp::MulF32, 2)],
        });
        k.body = vec![
            looped(
                TripCount::GridStride(SizeExpr::new(3000.0, 0)),
                vec![Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1), branch],
            ),
            looped(
                TripCount::BlockShare(SizeExpr::new(100.0, 0)),
                vec![Stmt::ops(AluOp::AddF32, 2)],
            ),
            looped(TripCount::Size(SizeExpr::N), vec![Stmt::ops(AluOp::FmaF32, 1)]),
        ];
        k
    };
    let gpu = Gpu::K20.spec();
    let ctx = ModelContext::new(gpu);
    let mut scratch = LaunchScratch::default();
    let mut idle = 0u32;
    for divergence in [DivergenceKind::Uniform, DivergenceKind::ThreadDependent] {
        let fe = front_end(&kernel(divergence), gpu, 1, CompilerFlags::default()).unwrap();
        for n in [64u64, 512] {
            for tc in (1..=32).map(|i| 32 * i) {
                for bc in (1..=8).map(|i| 24 * i) {
                    let k = fe.specialize(TuningParams::with_geometry(tc, bc)).unwrap();
                    let sample = ctx.launch(&k, n, 10, 7, TrialProtocol::FifthOfTen, &mut scratch);
                    assert_eq!(
                        sample.unwrap().reg_instructions.to_bits(),
                        dynamic_mix(&k, n).get(oriole::arch::OpClass::Regs).to_bits(),
                        "{divergence:?} n={n} ({tc}, {bc})"
                    );
                    idle += u32::from(ctx.simulate(&k, n).unwrap().busy_blocks < bc);
                }
            }
        }
    }
    // The idle weight only counts where blocks idle: most of the 1,024
    // launches here.
    assert!(idle > 512, "{idle} launches with idle blocks");
}

#[test]
fn feasibility_is_backend_independent_through_the_evaluator() {
    // A variant that cannot launch is infeasible under every backend —
    // the shared occupancy gate, observed through the full evaluation
    // stack.
    let bad_builder = |n: u64| {
        let mut ast = KernelId::MatVec2D.ast(n);
        ast.shared[0].elems = 8; // 32 B/thread -> 32 KiB at TC=1024
        ast
    };
    let store = ArtifactStore::new();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let mut p = TuningParams::with_geometry(1024, 48);
    p.pl = oriole::codegen::PreferredL1::Kb48; // 16 KiB shared per SM
    for &model in &ModelId::ALL {
        let ev = store.evaluator_with(
            "matvec2d-fat",
            &bad_builder,
            gpu,
            &sizes,
            EvalProtocol { model, ..EvalProtocol::default() },
        );
        let m = ev.evaluate(p);
        assert!(!m.feasible, "{model} accepted an unlaunchable variant");
        assert_eq!(m.time_ms, f64::INFINITY);
    }
}

#[test]
fn devices_without_problems_never_panic_a_backend() {
    // `GpuSpec::problems` is what stands between a wire device and the
    // arithmetic below it: a spec it passes must compile, estimate and
    // measure under every backend without a division by zero or (these
    // are debug builds) a wrapped product — at the extremes of the
    // launch too: `BC = u32::MAX`, `TC` at the device's own limit, and
    // problem sizes from 1 to 2^40.
    use oriole::ir::testgen::TestRng;
    let extreme = |rng: &mut TestRng| match rng.next_u64() % 5 {
        0 => 0,
        1 => 1,
        2 => u32::MAX,
        3 => 1 << (rng.next_u64() % 32),
        _ => rng.next_u64() as u32,
    };
    let launch_all = |spec: &GpuSpec, kid: KernelId, n: u64| {
        let warp = spec.warp_size.max(1);
        for tc in [128, warp, spec.threads_per_block / warp * warp] {
            for bc in [1, 48, u32::MAX] {
                let Ok(k) = compile(&kid.ast(n), spec, TuningParams::with_geometry(tc, bc)) else {
                    continue;
                };
                for model in ModelId::ALL {
                    let _ = ModelContext::for_model(spec, model).measure(&k, n, 10, 7);
                }
            }
        }
    };
    // One shape the draw below rarely finds: blocks so large that a tile
    // sized per thread overflows its byte count.
    let giant_blocks =
        GpuSpec { threads_per_block: u32::MAX, regs_per_thread_max: 0, ..Gpu::K20.spec().clone() };
    assert_eq!(giant_blocks.problems(), Vec::<String>::new());
    launch_all(&giant_blocks, KernelId::MatVec2D, 64);

    let (mut usable, mut refused) = (0u32, 0u32);
    for case in 0..1_500 {
        let mut rng = TestRng::for_case("device_fuzz", case);
        let mut spec = Gpu::K20.spec().clone();
        for _ in 0..=rng.next_u64() % 3 {
            let value = extreme(&mut rng);
            let field = [
                &mut spec.multiprocessors,
                &mut spec.gpu_clock_mhz,
                &mut spec.warp_size,
                &mut spec.threads_per_warp,
                &mut spec.warps_per_mp,
                &mut spec.regs_per_thread_max,
                &mut spec.threads_per_block,
                &mut spec.reg_alloc_unit,
                &mut spec.shmem_per_block,
                &mut spec.shmem_per_mp,
                &mut spec.blocks_per_mp,
                &mut spec.regfile_per_mp,
            ];
            *field[rng.range_usize(0, field.len())] = value;
        }
        if !spec.problems().is_empty() {
            refused += 1;
            continue;
        }
        usable += 1;
        let kid = oriole::kernels::ALL_KERNELS[rng.range_usize(0, 4)];
        launch_all(&spec, kid, [1u64, 64, 1 << 40][rng.range_usize(0, 3)]);
    }
    assert!(usable > 300 && refused > 300, "{usable} usable, {refused} refused");
}
