//! Pins everything a `ProgramIndex` answers as one digest.
//!
//! The index is the build-once analysis artifact that every static and
//! simulated query replays. This test spells every accessor a consumer
//! can read — block count, divergent regions, block summaries, the
//! divergence flag, grid-stride items at each input size, and the
//! static and expected mixes (floats as bits) — over the paper space
//! (`ALL_KERNELS` × `Family::ALL` × UIF 1–5 × CFLAGS × input sizes)
//! and over a fixed-seed list of random ASTs, and digests the text with
//! `persist::checksum`. The digest was taken before the CFG code was
//! cut down to what the index reads; it changes only with a behaviour
//! change, and such a change is its own piece of work.

use oriole::arch::Family;
use oriole::codegen::unroll;
use oriole::ir::lower::{lower_indexed, LowerOptions};
use oriole::ir::{
    AccessPattern, AluOp, Branch, DivergenceKind, KernelAst, LaunchGeometry, Loop, MemSpace,
    MemStmt, MixCounts, Program, ProgramIndex, SizeExpr, Stmt, TripCount,
};
use oriole::kernels::ALL_KERNELS;
use oriole::tuner::persist;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::fmt::Write as _;

/// `persist::checksum` over the corpus below (11,688,555 bytes).
const INDEX_DIGEST: u64 = 0xf02a_7ba9_07cd_4b96;

/// Random ASTs in the corpus, each lowered for every family and CFLAGS.
const RANDOM_ASTS: u32 = 64;

/// Input sizes the random ASTs are queried at.
const RANDOM_SIZES: [u64; 3] = [8, 64, 512];

/// The generator shape of `tests/common`, copied rather than shared so
/// the pinned corpus cannot move with the property suites' generator.
fn arb_stmt(depth: u32) -> BoxedStrategy<Stmt> {
    let alu = prop_oneof![
        Just(AluOp::AddF32),
        Just(AluOp::MulF32),
        Just(AluOp::FmaF32),
        Just(AluOp::DivF32),
        Just(AluOp::SqrtF32),
        Just(AluOp::ExpF32),
        Just(AluOp::SinCosF32),
        Just(AluOp::AddI32),
        Just(AluOp::MulI32),
        Just(AluOp::BitI32),
        Just(AluOp::CvtI32F32),
        Just(AluOp::Cvt64),
        Just(AluOp::MinMaxF32),
    ];
    let space = prop_oneof![
        Just(MemSpace::Global),
        Just(MemSpace::Shared),
        Just(MemSpace::Constant),
    ];
    let pattern = prop_oneof![
        Just(AccessPattern::Coalesced),
        Just(AccessPattern::Broadcast),
        Just(AccessPattern::Random),
        (1u32..=64).prop_map(AccessPattern::Strided),
    ];
    let leaf = prop_oneof![
        (alu, 1u32..4).prop_map(|(op, count)| Stmt::ops(op, count)),
        (space.clone(), pattern.clone(), 1u32..3).prop_map(|(s, p, c)| Stmt::load(s, p, c)),
        (space, pattern, 1u32..3).prop_map(|(s, p, c)| {
            Stmt::Store(MemStmt { space: s, pattern: p, elem_bytes: 4, count: c })
        }),
        Just(Stmt::SyncThreads),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let trip = prop_oneof![
        (1u64..=64).prop_map(TripCount::Const),
        (0u8..=2).prop_map(|p| TripCount::Size(SizeExpr::new(1.0, p))),
        (1u8..=2).prop_map(|p| TripCount::GridStride(SizeExpr::new(1.0, p))),
    ];
    let inner = arb_stmt(depth - 1);
    prop_oneof![
        4 => leaf,
        2 => (trip, prop::collection::vec(inner.clone(), 1..4), any::<bool>()).prop_map(
            |(trip, body, unrollable)| Stmt::Loop(Loop { trip, body, unrollable })
        ),
        1 => (
            prop_oneof![Just(DivergenceKind::Uniform), Just(DivergenceKind::ThreadDependent)],
            0.0f64..=1.0,
            prop::collection::vec(inner.clone(), 1..3),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(divergence, taken_fraction, then_body, else_body)| {
                Stmt::If(Branch { divergence, taken_fraction, then_body, else_body })
            }),
    ]
    .boxed()
}

fn spell_mix(out: &mut String, mix: &MixCounts) {
    for (_, count) in mix.iter() {
        let _ = write!(out, " {:016x}", count.to_bits());
    }
    out.push('\n');
}

/// One program's index, every accessor, floats as bits.
fn spell(out: &mut String, index: &ProgramIndex, program: &Program, sizes: &[u64]) {
    let _ = writeln!(out, "len {} div {}", index.len(), index.has_divergence());
    for r in index.divergent_regions() {
        let reconverge = r.reconvergence.map_or("-".to_string(), |b| b.0.to_string());
        let _ = write!(out, "region {} {reconverge}:", r.branch_block.0);
        for b in &r.body {
            let _ = write!(out, " {}", b.0);
        }
        out.push('\n');
    }
    for s in index.summaries() {
        let _ = write!(out, "block {} {:?} ctrl={} mix", s.instr_count, s.term, s.has_ctrl());
        for (class, m) in &s.mix_tape {
            let _ = write!(out, " {class}:{:016x}", m.to_bits());
        }
        let _ = writeln!(out, " profile {:?}", s.profile_tape);
    }
    for &n in sizes {
        let items = index.grid_stride_items(n).map(f64::to_bits);
        let _ = writeln!(out, "grid {n} {items:x?}");
        for (tc, bc) in [(128u32, 48u32), (1024, 24), (32, 192)] {
            let _ = write!(out, "expected {n} {tc} {bc}");
            spell_mix(out, &index.expected_mix(program, LaunchGeometry::new(n, tc, bc)));
        }
    }
    out.push_str("static");
    spell_mix(out, &index.static_mix());
}

fn spell_lowered(out: &mut String, ast: &KernelAst, sizes: &[u64]) {
    for family in Family::ALL {
        for fast_math in [false, true] {
            let (program, index) = lower_indexed(ast, family, LowerOptions { fast_math });
            let _ = writeln!(out, "{} {family} fast={fast_math}", ast.name);
            spell(out, &index, &program, sizes);
        }
    }
}

#[test]
fn every_index_accessor_answers_as_pinned() {
    let mut corpus = String::new();
    for kernel in ALL_KERNELS {
        let sizes = kernel.input_sizes();
        for n in sizes {
            for uif in 1..=5 {
                let _ = writeln!(corpus, "== {kernel} n={n} uif={uif}");
                spell_lowered(&mut corpus, &unroll(&kernel.ast(n), uif), &sizes);
            }
        }
    }
    let body = prop::collection::vec(arb_stmt(2), 1..5);
    for case in 0..RANDOM_ASTS {
        let mut ast = KernelAst::new("index_golden");
        ast.body = body.gen(&mut TestRng::for_case("index_golden", case));
        let _ = writeln!(corpus, "== random {case}");
        spell_lowered(&mut corpus, &ast, &RANDOM_SIZES);
    }
    let (digest, bytes) = (persist::checksum(corpus.as_bytes()), corpus.len());
    assert_eq!(digest, INDEX_DIGEST, "corpus of {bytes} bytes digests to {digest:#018x}");
}
