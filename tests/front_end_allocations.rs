//! A front end allocates per program, not per instruction: `front_end`
//! holds each instruction's sources inline and every block's tapes in
//! index-wide buffers. This binary counts heap allocations (fresh or
//! grown, per thread) with its own global allocator and pins each paper
//! kernel's count under a ceiling one allocation an instruction breaks.

use oriole::arch::Gpu;
use oriole::codegen::{front_end, CompilerFlags};
use oriole::kernels::KernelId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged (a grown buffer goes
// through `alloc`, by the default `realloc`); the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Each paper kernel's `front_end` allocations at its middle size on
/// K20, at `UIF` 1 and 5, in a debug build (whose lowering also
/// validates the program; a release build makes fewer). With a `Vec` of
/// sources per instruction and three tape `Vec`s per block they were
/// 152, 223, 100, 157, 231, 237, 171 and 231.
const PINNED: [(KernelId, [usize; 2]); 4] = [
    (KernelId::Atax, [73, 86]),
    (KernelId::Bicg, [50, 61]),
    (KernelId::Ex14Fj, [86, 92]),
    (KernelId::MatVec2D, [78, 92]),
];

/// Room above a pinned count for an incidental allocation; every
/// program here has more instructions than this.
const SLACK: usize = 8;

#[test]
fn a_front_end_allocates_per_program_not_per_instruction() {
    for (kid, pins) in PINNED {
        let ast = kid.ast(kid.input_sizes()[2]);
        for (uif, pinned) in [1, 5].into_iter().zip(pins) {
            let before = ALLOCATIONS.with(Cell::get);
            let fe = front_end(&ast, Gpu::K20.spec(), uif, CompilerFlags::default());
            let allocs = ALLOCATIONS.with(Cell::get) - before;
            let index = fe.expect("a paper UIF").index().clone();
            let instrs: usize = index.summaries().iter().map(|s| s.instr_count).sum();
            assert!(SLACK < instrs, "{kid} UIF {uif}: slack hides an allocation an instruction");
            assert!(
                allocs <= pinned + SLACK,
                "{kid} UIF {uif}: {allocs} allocations for {instrs} instructions in {} blocks, \
                 pinned at {pinned}",
                index.len()
            );
        }
    }
}
