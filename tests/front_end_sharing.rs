//! A lowering is keyed by what it reads — the unrolled AST, and
//! `CFLAGS` only where an op of that AST reads it — not by the input
//! size a point happened to be evaluated at, nor by a `UIF` or `CFLAGS`
//! that changes nothing it reads: sizes whose ASTs are equal share one
//! lowering, sizes whose ASTs differ never do, and sharing changes no
//! bit of any answer. An artifact holds one index, which every consumer
//! of every variant it stamps out shares. Twins — names of one key —
//! are proven before lowering: one lowering, one program and one index
//! between them, exactly as many lowerings as `compile` makes distinct
//! programs, and every point measures as a tier-free reference
//! (`compile` and a fresh scratch per launch) does. The key itself is
//! property-checked: equal keys lower to equal programs and indexes.

use oriole::arch::{Family, Gpu};
use oriole::codegen::{compile, front_end, unroll, CompilerFlags, TuningParams, Unrolled};
use oriole::core::analyze;
use oriole::ir::lower::{lower_indexed, reads_fast_math, LowerOptions};
use oriole::ir::testgen::{self, check};
use oriole::ir::{KernelAst, Program};
use oriole::kernels::KernelId;
use oriole::sim::{dynamic_mix, simulate, LaunchScratch, ModelContext};
use oriole::tuner::{ArtifactStore, EvalProtocol, Evaluator, Measurement, SearchSpace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Sweeps the paper space over `sizes` at once and checks every
/// `per_size_ms` entry, bit for bit, against an evaluator that only ever
/// saw that one size (and so shared nothing across sizes). Returns the
/// multi-size evaluator's lowering count, after checking that its store
/// ran lower (the one index build) and register allocation exactly once
/// for each, and unroll once per distinct `(AST, UIF, CFLAGS)` name.
fn lowerings_of_a_checked_sweep(builder: &(dyn Fn(u64) -> KernelAst + Sync), sizes: &[u64]) -> usize {
    let gpu = Gpu::K20.spec();
    let space = SearchSpace::paper_default();
    let names = space.uif.len() * space.cflags.len();
    let all = Evaluator::new(builder, gpu, sizes);
    let together = all.evaluate_space(&space);
    assert_eq!(together.len(), 5120);
    for (at, n) in sizes.iter().enumerate() {
        let alone = Evaluator::new(builder, gpu, std::slice::from_ref(n));
        let apart = alone.evaluate_space(&space);
        assert_eq!(alone.stats().phases.unroll_calls as usize, names, "one size, one unroll per name");
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
    assert_eq!((p.lower_calls, p.regalloc_calls), (n, n));
    all.front_end_lowerings()
}

#[test]
fn a_program_is_lowered_once_for_every_size_that_builds_it() {
    // ATAX's builder ignores `n`: five lowerings (5 UIF; no op of ATAX
    // reads CFLAGS) serve all five sizes. Ex14FJ's AST carries
    // `boundary_fraction(n)`, a different AST per size: two lowerings
    // each (2 CFLAGS; it has no loop for UIF to unroll).
    let atax = |n: u64| KernelId::Atax.ast(n);
    assert_eq!(lowerings_of_a_checked_sweep(&atax, &KernelId::Atax.input_sizes()), 5);
    let ex14fj = |n: u64| KernelId::Ex14Fj.ast(n);
    assert_eq!(lowerings_of_a_checked_sweep(&ex14fj, &KernelId::Ex14Fj.input_sizes()), 10);
}

#[test]
fn a_builder_that_changes_at_one_size_lowers_two_programs_per_key() {
    // Ex14FJ pinned to one boundary fraction everywhere but at the third
    // size: two distinct ASTs over five sizes, so two lowerings per key
    // — and the odd size gets its own program's numbers, not its
    // neighbours' (the bit check inside).
    let sizes = KernelId::Ex14Fj.input_sizes();
    let odd = sizes[2];
    let builder = move |n: u64| KernelId::Ex14Fj.ast(if n == odd { odd } else { sizes[0] });
    assert_ne!(builder(odd), builder(sizes[1]));
    assert_eq!(lowerings_of_a_checked_sweep(&builder, &sizes), 4);
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

    // One lowering per key: a sweep over three kernels' front-end
    // names lowers — and so indexes — each key once (ex14fj's three
    // `UIF`s are one key: it has no loop to unroll), then never again
    // on the warm sweep.
    let store = ArtifactStore::new();
    let space = SearchSpace { uif: vec![1, 2, 4], ..SearchSpace::tiny() };
    for (kernel, keys) in [(KernelId::Atax, 3), (KernelId::Bicg, 3), (KernelId::Ex14Fj, 1)] {
        let builder = move |n: u64| kernel.ast(n);
        let ev = store.evaluator(kernel.name(), &builder, gpu, &sizes);
        ev.evaluate_space(&space);
        let cold = ev.stats();
        ev.evaluate_space(&space);
        assert_eq!(ev.stats(), cold, "a warm sweep lowers nothing");
        assert_eq!(cold.front_end_lowerings, keys, "{kernel}");
        let p = cold.phases;
        assert_eq!((p.unroll_calls, p.lower_calls), (space.uif.len() as u64, keys as u64), "{kernel}");
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

/// Distinct programs `compile` makes of `kernel`'s `(size, UIF,
/// CFLAGS)` names in `space` on K20, no tier asked.
fn distinct_programs(kernel: KernelId, space: &SearchSpace) -> usize {
    let mut programs: Vec<Program> = Vec::new();
    for n in kernel.input_sizes() {
        for (&uif, &cflags) in space.uif.iter().flat_map(|u| space.cflags.iter().map(move |c| (u, c))) {
            let p = TuningParams { uif, cflags, ..TuningParams::with_geometry(128, 48) };
            let k = compile(&kernel.ast(n), Gpu::K20.spec(), p).expect("128 x 48 compiles");
            if !programs.contains(&k.program) {
                programs.push(k.program);
            }
        }
    }
    programs.len()
}

#[test]
fn twins_share_one_index_and_measure_as_a_tier_free_reference_does() {
    // The census of the paper space on K20: no op of atax, bicg or
    // matvec2d reads `-use_fast_math` (five programs, five lowerings,
    // of ten names), and ex14fj has no loop for `UIF` to unroll (two of
    // ten per size). The lowerings are counted by the tier, the
    // programs by `compile` alone.
    let gpu = Gpu::K20.spec();
    let ctx = ModelContext::new(gpu);
    let space = SearchSpace::paper_default();
    for (kernel, census, names) in [
        (KernelId::Atax, (5, 5), 10),
        (KernelId::Bicg, (5, 5), 10),
        (KernelId::MatVec2D, (5, 5), 10),
        (KernelId::Ex14Fj, (10, 10), 50),
    ] {
        let builder = move |n: u64| kernel.ast(n);
        let sizes = kernel.input_sizes();
        let ev = Evaluator::new(&builder, gpu, &sizes);
        let swept = ev.evaluate_space(&space);
        let stats = ev.stats();
        assert_eq!((stats.front_end_lowerings, distinct_programs(kernel, &space)), census, "{kernel}");
        let p = stats.phases;
        let n = census.0 as u64;
        assert_eq!((p.unroll_calls, p.lower_calls, p.regalloc_calls), (names, n, n), "{kernel}");
        for m in &swept {
            let reference = tier_free(kernel, &ctx, &sizes, m.params);
            assert_eq!(measurement_bits(m), measurement_bits(&reference), "{kernel} {:?}", m.params);
        }
    }
}

#[test]
fn equal_keys_lower_to_equal_programs_and_indexes() {
    // Random ASTs × `UIF` 1–5 × `CFLAGS`: every pair of names whose keys
    // are equal lowers to one program and one index, and an unrolled AST
    // with no op that reads `-use_fast_math` lowers alike with it on and
    // off. The names' own `CFLAGS` are lowered, not the key's.
    check("equal_keys_lower_to_equal_programs_and_indexes", 192, |rng| {
        let ast = testgen::kernel(rng, "key_kernel");
        let family = rng.pick(&[Family::Fermi, Family::Kepler, Family::Maxwell, Family::Pascal]);
        let mut lowered = Vec::new();
        for uif in 1..=5 {
            let unrolled = unroll(&ast, uif);
            for fast_math in [false, true] {
                let name = Unrolled::new(&ast, uif, CompilerFlags { fast_math }).expect("valid unroll factor");
                let program = lower_indexed(&unrolled, family, LowerOptions { fast_math });
                lowered.push(((uif, fast_math), name, program));
            }
            if !reads_fast_math(&unrolled) {
                let pair = &lowered[lowered.len() - 2..];
                assert_eq!(pair[0].2, pair[1].2, "UIF {uif}: no fast-math op, yet the flag changed the lowering");
            }
        }
        for (at, (label, name, program)) in lowered.iter().enumerate() {
            for (other_label, other_name, other) in &lowered[at + 1..] {
                if name.key() == other_name.key() {
                    assert_eq!(program, other, "{label:?} and {other_label:?}: equal keys, different lowerings");
                }
            }
        }
    });
}
