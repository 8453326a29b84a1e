//! Seeded test cases for the workspace's property tests and digests:
//! one case RNG, one random-AST generator and one case loop.
//!
//! Compiled under `cfg(test)` or the `testgen` feature, which only
//! `[dev-dependencies]` turn on, so no product build carries it. The
//! generator is itself pinned: `tests/index_golden.rs` lowers 64 of its
//! ASTs, and `LISTING_DIGEST` moves with any change to what it draws.

use crate::ast::{
    AccessPattern, AluOp, Branch, DivergenceKind, KernelAst, Loop, MemSpace, SizeExpr, Stmt,
    TripCount,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic per-case RNG (SplitMix64 keyed by test name and case
/// index), so any failing case replays bit-identically.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The RNG for case `case` of the property named `name`.
    pub fn for_case(name: &str, case: u32) -> TestRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            return self.next_u64();
        }
        lo + self.next_u64() % span
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        self.range_u64(lo as u64, hi as u64 - 1) as usize
    }

    /// A fair coin: the low bit of one draw.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// One of `from`, uniformly.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.range_usize(0, from.len())]
    }
}

/// Runs `property` on cases `0..cases`, case `c` drawing from
/// `TestRng::for_case(name, c)`. A failing case panics again with the
/// property's name, the case and its seed, so it can be replayed alone.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut TestRng)) {
    for case in 0..cases {
        let mut rng = TestRng::for_case(name, case);
        let seed = rng.state;
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let why = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            panic!("property {name} failed at case {case}/{cases} (seed {seed:#018x}): {why}");
        }
    }
}

/// A kernel named `name` of one to four statements, each at most two
/// loops or branches deep.
pub fn kernel(rng: &mut TestRng, name: &str) -> KernelAst {
    let mut k = KernelAst::new(name);
    k.body = stmts(rng, 2, 1, 4);
    k
}

/// `lo..=hi` statements drawn by [`stmt`]; the length is drawn first.
fn stmts(rng: &mut TestRng, depth: u32, lo: u64, hi: u64) -> Vec<Stmt> {
    let len = rng.range_u64(lo, hi);
    (0..len).map(|_| stmt(rng, depth)).collect()
}

/// A statement tree at most `depth` loops or branches deep, over every
/// ALU op, memory space and access pattern, every trip kind and both
/// branch kinds. Above depth 0 one draw in `0..=6` picks a leaf
/// (`0..=3`), a loop (`4..=5`) or a branch (`6`).
pub fn stmt(rng: &mut TestRng, depth: u32) -> Stmt {
    let arm = if depth == 0 { 0 } else { rng.range_u64(0, 6) };
    match arm {
        0..=3 => leaf(rng),
        4..=5 => {
            let trip = match rng.range_u64(0, 2) {
                0 => TripCount::Const(rng.range_u64(1, 64)),
                1 => TripCount::Size(SizeExpr::new(1.0, rng.range_u64(0, 2) as u8)),
                _ => TripCount::GridStride(SizeExpr::new(1.0, rng.range_u64(1, 2) as u8)),
            };
            let body = stmts(rng, depth - 1, 1, 3);
            Stmt::Loop(Loop { trip, body, unrollable: rng.coin() })
        }
        _ => Stmt::If(Branch {
            divergence: rng.pick(&[DivergenceKind::Uniform, DivergenceKind::ThreadDependent]),
            taken_fraction: rng.unit_f64(),
            then_body: stmts(rng, depth - 1, 1, 2),
            else_body: stmts(rng, depth - 1, 0, 2),
        }),
    }
}

/// One draw in `0..=3` picks ALU ops, a load, a store or a barrier.
fn leaf(rng: &mut TestRng) -> Stmt {
    use AluOp::*;
    match rng.range_u64(0, 3) {
        0 => {
            let ops = [
                AddF32, MulF32, FmaF32, DivF32, SqrtF32, ExpF32, SinCosF32, AddI32, MulI32,
                BitI32, CvtI32F32, Cvt64, MinMaxF32,
            ];
            Stmt::ops(rng.pick(&ops), rng.range_u64(1, 3) as u32)
        }
        3 => Stmt::SyncThreads,
        arm => {
            let space = rng.pick(&[MemSpace::Global, MemSpace::Shared, MemSpace::Constant]);
            let pattern = match rng.range_u64(0, 3) {
                0 => AccessPattern::Coalesced,
                1 => AccessPattern::Broadcast,
                2 => AccessPattern::Random,
                _ => AccessPattern::Strided(rng.range_u64(1, 64) as u32),
            };
            let count = rng.range_u64(1, 2) as u32;
            if arm == 1 {
                Stmt::load(space, pattern, count)
            } else {
                Stmt::store(space, pattern, count)
            }
        }
    }
}
