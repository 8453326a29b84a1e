//! What the root suites share: the random-kernel generator of the
//! property suites — bounded-depth statement trees over every ALU op,
//! memory space and access pattern, loops of every trip kind, and
//! uniform or thread-dependent branches — and a frame reader for tests
//! that talk to a daemon over a raw socket. Each suite that includes
//! this module uses one of the two.
#![allow(dead_code)]

use oriole::ir::{
    AccessPattern, AluOp, Branch, DivergenceKind, KernelAst, Loop, MemSpace, MemStmt, SizeExpr,
    Stmt, TripCount,
};
use oriole::tuner::persist::decode_frame;
use proptest::prelude::*;
use std::io::{self, Read};

/// Strategy for arbitrary (bounded-depth) statement trees.
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
        (space.clone(), pattern.clone(), 1u32..3)
            .prop_map(|(s, p, c)| Stmt::load(s, p, c)),
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

/// Strategy for kernels of one to four top-level statements.
pub(crate) fn arb_kernel() -> impl Strategy<Value = KernelAst> {
    prop::collection::vec(arb_stmt(2), 1..5).prop_map(|body| {
        let mut k = KernelAst::new("prop_kernel");
        k.body = body;
        k
    })
}

/// Reads one frame off `src` the way both ends of the wire do: bytes
/// are buffered in `unread` as they arrive and `decode_frame` takes the
/// frame in front; what arrived past it stays in `unread` for the next
/// call. A close before a whole frame is `UnexpectedEof`, a frame
/// `decode_frame` refuses is `InvalidData`.
pub(crate) fn read_frame(src: &mut impl Read, unread: &mut Vec<u8>) -> io::Result<(u64, String)> {
    loop {
        match decode_frame(unread) {
            Ok(Some((corr, payload, used))) => {
                unread.drain(..used);
                return Ok((corr, payload));
            }
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let mut chunk = [0u8; 4096];
        match src.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => unread.extend_from_slice(&chunk[..n]),
        }
    }
}
