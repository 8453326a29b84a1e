//! A front-end artifact is keyed by what `front_end` reads — the kernel
//! AST, `UIF`, `CFLAGS` — not by the input size a point happened to be
//! evaluated at: sizes whose ASTs are equal share one lowering, sizes
//! whose ASTs differ never do, and sharing changes no bit of any answer.
//! An artifact holds one index, which every consumer of every variant
//! it stamps out shares. Twins — keys whose `UIF` or `CFLAGS` changed no
//! instruction — are still lowered once each but hold one program and
//! one index between them, and measure exactly as a tier-free reference
//! (`compile` and a fresh scratch per launch) does.

use oriole::arch::Gpu;
use oriole::codegen::{compile, front_end, CompilerFlags, TuningParams};
use oriole::core::analyze;
use oriole::ir::KernelAst;
use oriole::kernels::KernelId;
use oriole::sim::{dynamic_mix, simulate, LaunchScratch, ModelContext};
use oriole::tuner::{ArtifactStore, EvalProtocol, Evaluator, Measurement, SearchSpace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Sweeps the paper space over `sizes` at once and checks every
/// `per_size_ms` entry, bit for bit, against an evaluator that only ever
/// saw that one size (and so shared nothing across sizes). Returns the
/// multi-size evaluator's lowering count, after checking that its store
/// ran unroll, lower (the one index build) and register allocation
/// exactly once for each.
fn lowerings_of_a_checked_sweep(builder: &(dyn Fn(u64) -> KernelAst + Sync), sizes: &[u64]) -> usize {
    let gpu = Gpu::K20.spec();
    let space = SearchSpace::paper_default();
    let keys = space.uif.len() * space.cflags.len();
    let all = Evaluator::new(builder, gpu, sizes);
    let together = all.evaluate_space(&space);
    assert_eq!(together.len(), 5120);
    for (at, n) in sizes.iter().enumerate() {
        let alone = Evaluator::new(builder, gpu, std::slice::from_ref(n));
        let apart = alone.evaluate_space(&space);
        assert_eq!(alone.front_end_lowerings(), keys, "one size, one program per key");
        for (m, single) in together.iter().zip(&apart) {
            // The sweep ends a point at its first infeasible size; the
            // paper kernels are feasible or not at every size alike.
            assert_eq!(m.feasible, single.feasible, "{:?}", m.params);
            if m.feasible {
                let ((n_m, t_m), (n_s, t_s)) = (m.per_size_ms[at], single.per_size_ms[0]);
                assert_eq!((n_m, t_m.to_bits()), (n_s, t_s.to_bits()), "{:?} at n={n}", m.params);
            }
        }
    }
    let stats = all.stats();
    let (n, p) = (stats.front_end_lowerings as u64, stats.phases);
    assert_eq!((p.unroll_calls, p.lower_calls, p.regalloc_calls), (n, n, n));
    all.front_end_lowerings()
}

#[test]
fn a_program_is_lowered_once_for_every_size_that_builds_it() {
    // ATAX's builder ignores `n`: ten lowerings (5 UIF × 2 CFLAGS) serve
    // all five sizes. Ex14FJ's AST carries `boundary_fraction(n)`, a
    // different AST per size: ten lowerings each. (How many distinct
    // programs those lowerings make is the census below.)
    let atax = |n: u64| KernelId::Atax.ast(n);
    assert_eq!(lowerings_of_a_checked_sweep(&atax, &KernelId::Atax.input_sizes()), 10);
    let ex14fj = |n: u64| KernelId::Ex14Fj.ast(n);
    assert_eq!(lowerings_of_a_checked_sweep(&ex14fj, &KernelId::Ex14Fj.input_sizes()), 50);
}

#[test]
fn a_builder_that_changes_at_one_size_lowers_two_programs_per_key() {
    // Ex14FJ pinned to one boundary fraction everywhere but at the third
    // size: two distinct ASTs over five sizes, so two lowerings per
    // `(UIF, CFLAGS)` — and the odd size gets its own program's numbers,
    // not its neighbours' (the bit check inside).
    let sizes = KernelId::Ex14Fj.input_sizes();
    let odd = sizes[2];
    let builder = move |n: u64| KernelId::Ex14Fj.ast(if n == odd { odd } else { sizes[0] });
    assert_ne!(builder(odd), builder(sizes[1]));
    assert_eq!(lowerings_of_a_checked_sweep(&builder, &sizes), 20);
}

#[test]
fn eight_threads_on_eight_sizes_of_one_key_lower_it_once() {
    // Eight evaluators of one store scope, each at its own size, each
    // missing on a point of the same `(UIF, CFLAGS)` at the same moment:
    // the builder holds every thread at a barrier, so all eight are
    // inside their front-end miss before anyone has looked the program
    // up. Eight ASTs built, one lowering — the rest wait on its cell.
    let sizes: [u64; 8] = std::array::from_fn(|i| 32 << i);
    let store = ArtifactStore::new();
    let (asts_built, inside) = (AtomicUsize::new(0), Barrier::new(sizes.len()));
    let builder = |n: u64| {
        asts_built.fetch_add(1, Ordering::Relaxed);
        inside.wait();
        KernelId::Atax.ast(n)
    };
    let feasible: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let (store, builder) = (&store, &builder);
                scope.spawn(move || {
                    let ev = store.evaluator("atax", builder, Gpu::K20.spec(), std::slice::from_ref(n));
                    ev.evaluate(TuningParams::with_geometry(32 * (i as u32 + 1), 48)).feasible
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    assert_eq!(feasible, [true; 8]);
    assert_eq!(asts_built.load(Ordering::Relaxed), sizes.len());
    let stats = store.stats();
    assert_eq!((stats.front_end_tiers, stats.front_end_lowerings), (1, 1));
}

#[test]
fn front_end_builds_index_exactly_once() {
    let (n, sizes) = (256, [256]);
    let gpu = Gpu::K20.spec();
    let cflags = CompilerFlags::default();
    let fe = front_end(&KernelId::MatVec2D.ast(n), gpu, 1, cflags).expect("front end runs");

    // Every specialization and every index consumer runs on the
    // artifact's one index: the very same allocation, never a rebuild.
    let mut variants = Vec::new();
    for tc in [32u32, 128, 256, 1024] {
        for bc in [24u32, 96, 192] {
            let Ok(kernel) = fe.specialize(TuningParams::with_geometry(tc, bc)) else {
                continue;
            };
            assert!(analyze(&kernel, n).predicted_time > 0.0);
            assert!(simulate(&kernel, n).expect("simulates").time_ms > 0.0);
            assert!(dynamic_mix(&kernel, n).total() > 0.0);
            variants.push(kernel);
        }
    }
    assert!(variants.len() > 1);
    assert!(variants.iter().all(|k| Arc::ptr_eq(&k.index, &variants[0].index)));
    let p = fe.phases();
    assert_eq!((p.unroll_calls, p.lower_calls, p.regalloc_calls), (1, 1, 1));

    // One artifact per program: a sweep over three kernels' front-end
    // keys lowers — and so indexes — each program once, then never
    // again on the warm sweep.
    let store = ArtifactStore::new();
    let space = SearchSpace { uif: vec![1, 2, 4], ..SearchSpace::tiny() };
    for kernel in [KernelId::Atax, KernelId::Bicg, KernelId::Ex14Fj] {
        let builder = move |n: u64| kernel.ast(n);
        let ev = store.evaluator(kernel.name(), &builder, gpu, &sizes);
        ev.evaluate_space(&space);
        let cold = ev.stats();
        ev.evaluate_space(&space);
        assert_eq!(ev.stats(), cold, "a warm sweep lowers nothing");
        let keys = space.uif.len() * space.cflags.len();
        assert_eq!(cold.front_end_lowerings, keys, "{kernel}");
        assert_eq!(cold.phases.lower_calls, keys as u64, "{kernel}");
    }
    let stats = store.stats();
    assert_eq!(stats.phases.lower_calls, stats.front_end_lowerings as u64);
}

/// The evaluator's per-point seed under `protocol`, spelled out so the
/// reference below draws its trials without asking a tier.
fn seed_of(protocol: &EvalProtocol, p: &TuningParams) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ protocol.base_seed;
    let fields = [p.tc, p.bc, p.uif, p.pl.kb(), p.sc, u32::from(p.cflags.fast_math)];
    for v in fields.map(u64::from) {
        h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Every bit of a measurement: floats raw.
fn measurement_bits(m: &Measurement) -> (bool, u64, Vec<(u64, u64)>, u64, u32, u64) {
    let per_size = m.per_size_ms.iter().map(|&(n, t)| (n, t.to_bits())).collect();
    let (time, occupancy, regs) = (m.time_ms.to_bits(), m.occupancy.to_bits(), m.reg_instructions.to_bits());
    (m.feasible, time, per_size, occupancy, m.regs_allocated, regs)
}

/// `p` measured without a tier: `compile` per size, each launch on a
/// fresh scratch, the evaluator's seeds and total-time objective.
fn tier_free(kernel: KernelId, ctx: &ModelContext, sizes: &[u64], p: TuningParams) -> Measurement {
    let protocol = EvalProtocol::default();
    let infeasible = Measurement {
        params: p,
        time_ms: f64::INFINITY,
        per_size_ms: Vec::new(),
        feasible: false,
        occupancy: 0.0,
        regs_allocated: 0,
        reg_instructions: 0.0,
    };
    let mut m = Measurement { feasible: true, ..infeasible.clone() };
    for &n in sizes {
        let Ok(k) = compile(&kernel.ast(n), Gpu::K20.spec(), p) else { return infeasible };
        let seed = seed_of(&protocol, &p) ^ n;
        let fresh = &mut LaunchScratch::default();
        let Ok(launch) = ctx.launch(&k, n, protocol.trials, seed, protocol.protocol, fresh) else {
            return infeasible;
        };
        m.per_size_ms.push((n, launch.time_ms));
        (m.occupancy, m.regs_allocated) = (launch.occupancy, k.regs_per_thread());
        m.reg_instructions += launch.reg_instructions;
    }
    m.time_ms = m.per_size_ms.iter().map(|(_, t)| t).sum();
    m
}

#[test]
fn twins_share_one_index_and_measure_as_a_tier_free_reference_does() {
    // The census of the paper space on K20: `-use_fast_math` changes no
    // instruction of atax, bicg and matvec2d (five programs of ten
    // lowerings), and `UIF` none of ex14fj (two of ten per size).
    let gpu = Gpu::K20.spec();
    let ctx = ModelContext::new(gpu);
    let space = SearchSpace::paper_default();
    for (kernel, census) in [
        (KernelId::Atax, (10, 5)),
        (KernelId::Bicg, (10, 5)),
        (KernelId::MatVec2D, (10, 5)),
        (KernelId::Ex14Fj, (50, 10)),
    ] {
        let builder = move |n: u64| kernel.ast(n);
        let sizes = kernel.input_sizes();
        let ev = Evaluator::new(&builder, gpu, &sizes);
        let swept = ev.evaluate_space(&space);
        let stats = ev.stats();
        assert_eq!((stats.front_end_lowerings, stats.front_end_programs), census, "{kernel}");
        let p = stats.phases;
        let n = census.0 as u64;
        assert_eq!((p.unroll_calls, p.lower_calls, p.regalloc_calls), (n, n, n), "{kernel}");
        for m in &swept {
            let reference = tier_free(kernel, &ctx, &sizes, m.params);
            assert_eq!(measurement_bits(m), measurement_bits(&reference), "{kernel} {:?}", m.params);
        }
    }
}
