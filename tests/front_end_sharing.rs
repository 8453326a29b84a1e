//! A front-end artifact is keyed by what `front_end` reads — the kernel
//! AST, `UIF`, `CFLAGS` — not by the input size a point happened to be
//! evaluated at: sizes whose ASTs are equal share one lowering, sizes
//! whose ASTs differ never do, and sharing changes no bit of any answer.

use oriole::arch::Gpu;
use oriole::codegen::TuningParams;
use oriole::ir::KernelAst;
use oriole::kernels::KernelId;
use oriole::tuner::{ArtifactStore, Evaluator, SearchSpace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Sweeps the paper space over `sizes` at once and checks every
/// `per_size_ms` entry, bit for bit, against an evaluator that only ever
/// saw that one size (and so shared nothing across sizes). Returns the
/// multi-size evaluator's lowering count.
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
    all.front_end_lowerings()
}

#[test]
fn a_program_is_lowered_once_for_every_size_that_builds_it() {
    // ATAX's builder ignores `n`: ten programs (5 UIF × 2 CFLAGS) serve
    // all five sizes. Ex14FJ's AST carries `boundary_fraction(n)`, a
    // different program per size: ten each.
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
