//! `ProgramIndex` — the per-lowered-program analysis artifact.
//!
//! The paper's static analyzer "builds a CFG to help understand flow
//! divergence" (§V). This module is the only CFG code in the workspace,
//! and it computes only what a consumer reads: successors,
//! postdominators and the divergent regions derived from them.
//! [`ProgramIndex::build`] is one scan of a lowered program, run
//! **exactly once** when a front-end artifact is created
//! (`oriole_codegen::front_end`); the index is shared by `Arc` with
//! every specialized kernel the artifact stamps out. It owns
//!
//! * the divergent regions (bodies stored as *sorted* block-id vectors,
//!   so any cost summed over a region is deterministic across processes
//!   and paths) — the graph they are derived from is built Vec-indexed
//!   and dropped: no consumer reads raw graph facts;
//! * per-block instruction summaries: an op-class **mix tape** (the
//!   `(class, multiplier)` pairs mix counting replays instead of
//!   touching `Instr` vectors), a **profile tape** (memory / barrier /
//!   issue events with their service parameters), the instruction count,
//!   and the terminator class;
//! * the grid-stride trip expressions (for busy-thread math) and the
//!   [`has_divergence`](ProgramIndex::has_divergence) flag.
//!
//! # The linear fast path
//!
//! Most paper kernels (atax, bicg, matvec bodies) lower to **branch-free
//! block graphs**: straight-line code plus loop back-edges, no
//! conditional branch anywhere. For those programs the index builds no
//! graph at all: no successor lists, no postdominator pass, no region
//! discovery. Consumers skip the divergence machinery at
//! query time whenever [`has_divergence`](ProgramIndex::has_divergence)
//! is false: warp saturation is exactly 1, and the divergence report is
//! trivially empty with unit overhead — both facts hold *bitwise*
//! because warp-level and thread-level frequency evaluation coincide
//! when no `DivFraction` factor is present.
//!
//! The fast path is **not** taken when the program contains a divergent
//! conditional branch *or* any block frequency carries a `DivFraction`
//! factor (a divergent branch side's probability): then warp-level
//! weights genuinely exceed thread-level ones and the full region-based
//! machinery runs. A program with only *uniform* conditional branches is
//! not linear (the postdominator pass runs at build time so regions can
//! be ruled out structurally), but it still qualifies for the
//! divergence-free query fast path.
//!
//! Every replayed mix is bit-identical to the walk in [`crate::count`]
//! (property-tested against it): tapes store multiplier 1.0 where the
//! walk recorded a bare weight, and IEEE-754 guarantees `w * 1.0 == w`.
//! Everything else the index answers is pinned by the digest in
//! `tests/index_golden.rs`.

use crate::ast::{AccessPattern, MemSpace, SizeExpr, TripCount};
use crate::block::{BlockId, FreqExpr, Program, Terminator};
use crate::count::{LaunchGeometry, MixCounts};
use crate::isa::OpKind;
use oriole_arch::OpClass;

/// Terminator classification carried by a [`BlockSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermClass {
    /// Unconditional control transfer (`Jump` or `LoopBack`): issues one
    /// control instruction.
    Ctrl,
    /// Two-way conditional branch; `divergent` records whether lanes of
    /// one warp can disagree.
    CondBranch {
        /// Whether the branch can split a warp.
        divergent: bool,
    },
    /// Kernel exit: contributes no control instruction (the `exit`
    /// instruction is already in the block body).
    Ret,
}

/// One entry of a block's profile tape: everything the warp-profile
/// extractor needs to know about an instruction, with the service
/// parameters resolved at build time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileEvent {
    /// A memory operation: loads/stores with their space and access
    /// pattern, and texture/surface operations (space `Texture`,
    /// coalesced).
    Mem {
        /// Op class of the instruction (drives the issue rate).
        class: OpClass,
        /// Address space accessed.
        space: MemSpace,
        /// Warp-level access pattern.
        pattern: AccessPattern,
    },
    /// A barrier (`bar.sync`).
    Bar {
        /// Op class of the instruction.
        class: OpClass,
    },
    /// Any other instruction: pure issue cost.
    Issue {
        /// Op class of the instruction.
        class: OpClass,
    },
}

/// Per-block instruction summary: the precomputed tapes analysis phases
/// replay instead of iterating `Instr` vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Number of straight-line instructions in the block.
    pub instr_count: usize,
    /// Mix tape: `(op_class, multiplier)` pairs. Replaying
    /// `record(class, weight * multiplier)` over the tape reproduces the
    /// walk-based mix bit-exactly (instruction entries carry multiplier
    /// 1.0; register-file entries carry the access count).
    pub mix_tape: Vec<(OpClass, f64)>,
    /// Profile tape: one event per instruction, in program order.
    pub profile_tape: Vec<ProfileEvent>,
    /// Terminator classification.
    pub term: TermClass,
}

impl BlockSummary {
    /// Whether the terminator issues a control instruction (everything
    /// but `Ret`).
    pub fn has_ctrl(&self) -> bool {
        !matches!(self.term, TermClass::Ret)
    }
}

/// A region of blocks a warp executes serially when a divergent branch
/// splits its lanes (paper Fig. 1), with its body stored as a **sorted**
/// vector of block ids so every sum over it is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivRegion {
    /// The block whose terminator diverges.
    pub branch_block: BlockId,
    /// The immediate postdominator where lanes reconverge (`None` when
    /// control reaches exit before reconverging).
    pub reconvergence: Option<BlockId>,
    /// Blocks strictly between branch and reconvergence point, in
    /// ascending id order.
    pub body: Vec<BlockId>,
}

/// The per-lowered-program analysis artifact. See the [module
/// docs](self) for what it owns and when the linear fast path applies.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramIndex {
    /// Discovered only for non-linear programs; empty otherwise (a
    /// linear program has no conditional branch, hence no divergent
    /// region to reconverge).
    regions: Vec<DivRegion>,
    summaries: Vec<BlockSummary>,
    grid_strides: Vec<SizeExpr>,
    has_divergence: bool,
}

/// Whether a frequency expression carries a divergent-branch factor.
fn freq_has_div(f: &FreqExpr) -> bool {
    match f {
        FreqExpr::DivFraction(_) => true,
        FreqExpr::Mul(fs) => fs.iter().any(freq_has_div),
        _ => false,
    }
}

impl ProgramIndex {
    /// Builds the index for a lowered program in one scan of its blocks.
    /// Called once per front-end artifact, through
    /// [`lower_indexed`](crate::lower_indexed): the workspace's
    /// `clippy.toml` refuses any other caller outside tests and the
    /// disassembly analyzer.
    pub fn build(program: &Program) -> ProgramIndex {
        let mut summaries = Vec::with_capacity(program.blocks.len());
        let mut grid_strides = Vec::new();
        let (mut is_linear, mut has_divergence) = (true, false);
        for block in &program.blocks {
            match block.term {
                Terminator::CondBranch { divergent, .. } => {
                    is_linear = false;
                    has_divergence |= divergent;
                }
                Terminator::LoopBack { trip: TripCount::GridStride(s), .. } => grid_strides.push(s),
                _ => {}
            }
            has_divergence |= freq_has_div(&block.freq);
            summaries.push(summarize(block));
        }
        // A linear program has no conditional branch, hence nothing to
        // reconverge: it skips the graph, the postdominator pass and
        // region discovery entirely.
        let regions = if is_linear {
            Vec::new()
        } else {
            let succs: Vec<Vec<BlockId>> =
                program.blocks.iter().map(|b| b.term.successors()).collect();
            divergent_regions(program, &succs, &postdominators(program, &succs))
        };
        ProgramIndex { regions, summaries, grid_strides, has_divergence }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// True when the program has no blocks.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// Precomputed divergent regions in branch-block order, bodies
    /// sorted ascending. Empty for linear and divergence-free programs.
    pub fn divergent_regions(&self) -> &[DivRegion] {
        &self.regions
    }

    /// Per-block instruction summaries, indexed by `BlockId.0`.
    pub fn summaries(&self) -> &[BlockSummary] {
        &self.summaries
    }

    /// Summary of one block, O(1).
    pub fn summary(&self, b: BlockId) -> &BlockSummary {
        &self.summaries[b.0 as usize]
    }

    /// Whether any divergence is present: a divergent conditional branch
    /// or a `DivFraction` factor in some block frequency. When false,
    /// warp-level and thread-level frequency evaluation coincide bitwise
    /// for every block.
    pub fn has_divergence(&self) -> bool {
        self.has_divergence
    }

    /// Work items exposed by the program's grid-stride loops at problem
    /// size `n`: the maximum over all grid-stride trip expressions, or
    /// `None` when the program has no grid-stride loop.
    pub fn grid_stride_items(&self, n: u64) -> Option<f64> {
        self.grid_strides
            .iter()
            .map(|s| s.eval(n))
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
    }

    /// Replays the mix tapes at thread-level expected weights —
    /// bit-identical to [`crate::count::expected_mix`] without touching
    /// an `Instr` vector.
    pub fn expected_mix(&self, program: &Program, geom: LaunchGeometry) -> MixCounts {
        let mut mix = MixCounts::new();
        for (block, s) in program.blocks.iter().zip(&self.summaries) {
            let weight = block.freq.eval_expected(geom.n, geom.tc, geom.bc);
            if weight == 0.0 {
                continue;
            }
            for &(class, m) in &s.mix_tape {
                mix.record(class, weight * m);
            }
            if s.has_ctrl() {
                mix.record(OpClass::CtrlIns, weight);
            }
        }
        mix
    }

    /// Replays the mix tapes unweighted — bit-identical to
    /// [`crate::count::static_mix`].
    pub fn static_mix(&self) -> MixCounts {
        let mut mix = MixCounts::new();
        for s in &self.summaries {
            for &(class, m) in &s.mix_tape {
                mix.record(class, m);
            }
            if s.has_ctrl() {
                mix.record(OpClass::CtrlIns, 1.0);
            }
        }
        mix
    }
}

/// Builds one block's summary tapes.
fn summarize(block: &crate::block::BasicBlock) -> BlockSummary {
    let mut mix_tape = Vec::with_capacity(block.instrs.len() * 2);
    let mut profile_tape = Vec::with_capacity(block.instrs.len());
    for instr in &block.instrs {
        let class = instr.opcode.op_class();
        mix_tape.push((class, 1.0));
        mix_tape.push((OpClass::Regs, f64::from(instr.regfile_accesses())));
        profile_tape.push(match instr.opcode.kind {
            OpKind::Ld(space) | OpKind::St(space) => ProfileEvent::Mem {
                class,
                space,
                pattern: instr.mem.map(|m| m.pattern).unwrap_or(AccessPattern::Coalesced),
            },
            OpKind::Tex | OpKind::Surf => ProfileEvent::Mem {
                class,
                space: MemSpace::Texture,
                pattern: AccessPattern::Coalesced,
            },
            OpKind::Bar => ProfileEvent::Bar { class },
            _ => ProfileEvent::Issue { class },
        });
    }
    let term = term_class(&block.term);
    BlockSummary { instr_count: block.instrs.len(), mix_tape, profile_tape, term }
}

/// Classifies a terminator for the per-block summary.
fn term_class(term: &Terminator) -> TermClass {
    match term {
        Terminator::Jump(_) | Terminator::LoopBack { .. } => TermClass::Ctrl,
        Terminator::CondBranch { divergent, .. } => TermClass::CondBranch { divergent: *divergent },
        Terminator::Ret => TermClass::Ret,
    }
}

/// Immediate postdominators: Cooper–Harvey–Kennedy iterative dominators
/// of the reversed graph, rooted at a virtual exit (index `n`) that
/// every `Ret` block feeds. `None` for a block that cannot reach an
/// exit, and for one whose nearest postdominator is the exit itself.
fn postdominators(program: &Program, succs: &[Vec<BlockId>]) -> Vec<Option<BlockId>> {
    let n = succs.len();
    let exit = n;
    let is_ret = |b: usize| matches!(program.blocks[b].term, Terminator::Ret);
    // Reversed edges: `s → b` for every `b → s`, and the exit to every
    // `Ret` block.
    let mut rsuccs: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (b, ss) in succs.iter().enumerate() {
        if is_ret(b) {
            rsuccs[exit].push(b);
        }
        for s in ss {
            rsuccs[s.0 as usize].push(b);
        }
    }
    // Reverse postorder of the reversed graph from the exit.
    let mut rpo = Vec::with_capacity(n + 1);
    let mut visited = vec![false; n + 1];
    visited[exit] = true;
    let mut stack = vec![(exit, 0usize)];
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        if let Some(&s) = rsuccs[b].get(*next) {
            *next += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            rpo.push(b);
            stack.pop();
        }
    }
    rpo.reverse();
    // Each node's position in `rpo`; `usize::MAX` for a block that
    // cannot reach an exit.
    let mut order = vec![usize::MAX; n + 1];
    for (i, &b) in rpo.iter().enumerate() {
        order[b] = i;
    }
    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| {
        while a != b {
            while order[a] > order[b] {
                a = idom[a].expect("processed");
            }
            while order[b] > order[a] {
                b = idom[b].expect("processed");
            }
        }
        a
    };
    let mut idom: Vec<Option<usize>> = vec![None; n + 1];
    idom[exit] = Some(exit);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo[1..] {
            // `b`'s predecessors in the reversed graph are its successors,
            // plus the exit when it returns.
            let preds = succs[b].iter().map(|s| s.0 as usize).chain(is_ret(b).then_some(exit));
            let mut new_idom = None;
            for p in preds.filter(|&p| idom[p].is_some()) {
                new_idom = Some(new_idom.map_or(p, |cur| intersect(&idom, p, cur)));
            }
            if new_idom.is_some() && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom.truncate(n);
    idom.into_iter()
        .map(|d| d.filter(|&d| d != exit).map(|d| BlockId(d as u32)))
        .collect()
}

/// Divergent regions: for every divergent conditional branch, the blocks
/// reachable from its successors without passing its immediate
/// postdominator (where lanes reconverge) or the branch itself — every
/// reachable block when it has none. Bodies are sorted, so any cost
/// summed over a region is deterministic.
fn divergent_regions(
    program: &Program,
    succs: &[Vec<BlockId>],
    ipostdom: &[Option<BlockId>],
) -> Vec<DivRegion> {
    let mut seen = vec![false; succs.len()];
    let mut regions = Vec::new();
    for (i, block) in program.blocks.iter().enumerate() {
        let Terminator::CondBranch { divergent: true, .. } = block.term else {
            continue;
        };
        let (branch_block, reconvergence) = (BlockId(i as u32), ipostdom[i]);
        seen.fill(false);
        let mut body = Vec::new();
        let mut stack = succs[i].clone();
        while let Some(cur) = stack.pop() {
            if Some(cur) == reconvergence || cur == branch_block || seen[cur.0 as usize] {
                continue;
            }
            seen[cur.0 as usize] = true;
            body.push(cur);
            stack.extend_from_slice(&succs[cur.0 as usize]);
        }
        body.sort_unstable();
        regions.push(DivRegion { branch_block, reconvergence, body });
    }
    regions
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::ast::{AluOp, Branch, DivergenceKind, KernelAst, Loop, Stmt};
    use crate::count::{expected_mix, static_mix};
    use crate::lower::{lower, LowerOptions};
    use oriole_arch::Family;

    fn lowered(body: Vec<Stmt>) -> Program {
        let mut k = KernelAst::new("index_test");
        k.body = body;
        lower(&k, Family::Kepler, LowerOptions::default())
    }

    #[test]
    fn linear_program_skips_postdominators() {
        let p = lowered(vec![Stmt::Loop(Loop {
            trip: TripCount::Size(SizeExpr::N),
            unrollable: false,
            body: vec![Stmt::ops(AluOp::FmaF32, 1)],
        })]);
        let idx = ProgramIndex::build(&p);
        assert!(!idx.has_divergence());
        assert!(idx.divergent_regions().is_empty());
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn diamond_region_holds_both_sides_and_reconverges_at_the_merge() {
        // entry=0, then=1, else=2, merge=3.
        let p = lowered(vec![
            Stmt::If(Branch {
                divergence: DivergenceKind::ThreadDependent,
                taken_fraction: 0.5,
                then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
                else_body: vec![Stmt::ops(AluOp::MulF32, 1)],
            }),
            Stmt::ops(AluOp::AddF32, 1),
        ]);
        let idx = ProgramIndex::build(&p);
        assert!(idx.has_divergence());
        assert_eq!(
            idx.divergent_regions(),
            [DivRegion {
                branch_block: BlockId(0),
                reconvergence: Some(BlockId(3)),
                body: vec![BlockId(1), BlockId(2)],
            }]
        );
    }

    #[test]
    fn uniform_branch_is_divergence_free_but_not_linear() {
        let p = lowered(vec![Stmt::If(Branch {
            divergence: DivergenceKind::Uniform,
            taken_fraction: 0.5,
            then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
            else_body: vec![Stmt::ops(AluOp::MulF32, 1)],
        })]);
        let idx = ProgramIndex::build(&p);
        assert!(!idx.has_divergence());
        assert!(idx.divergent_regions().is_empty());
    }

    #[test]
    fn divergence_inside_a_loop_reconverges_before_the_back_edge() {
        // entry=0, loop header with the branch=1, then=2, merge and
        // latch=3, after=4.
        let p = lowered(vec![Stmt::Loop(Loop {
            trip: TripCount::Size(SizeExpr::N),
            unrollable: false,
            body: vec![
                Stmt::If(Branch {
                    divergence: DivergenceKind::ThreadDependent,
                    taken_fraction: 0.1,
                    then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
                    else_body: vec![],
                }),
                Stmt::ops(AluOp::FmaF32, 1),
            ],
        })]);
        assert!(matches!(p.blocks[3].term, Terminator::LoopBack { .. }));
        let idx = ProgramIndex::build(&p);
        assert_eq!(
            idx.divergent_regions(),
            [DivRegion {
                branch_block: BlockId(1),
                reconvergence: Some(BlockId(3)),
                body: vec![BlockId(2)],
            }]
        );
    }

    #[test]
    fn mix_replay_is_bit_identical() {
        let p = lowered(vec![
            Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 2),
            Stmt::Loop(Loop {
                trip: TripCount::Size(SizeExpr::N),
                unrollable: true,
                body: vec![Stmt::ops(AluOp::FmaF32, 3)],
            }),
        ]);
        let idx = ProgramIndex::build(&p);
        assert_eq!(idx.static_mix(), static_mix(&p));
        for (n, tc, bc) in [(64, 128, 8), (1, 32, 1), (4096, 1024, 13)] {
            let geom = LaunchGeometry::new(n, tc, bc);
            assert_eq!(idx.expected_mix(&p, geom), expected_mix(&p, geom));
        }
    }

    #[test]
    fn grid_stride_items_match_block_scan() {
        let p = lowered(vec![Stmt::Loop(Loop {
            trip: TripCount::GridStride(SizeExpr::N2),
            unrollable: false,
            body: vec![Stmt::ops(AluOp::FmaF32, 1)],
        })]);
        let idx = ProgramIndex::build(&p);
        assert_eq!(idx.grid_stride_items(64), Some(4096.0));
        let straight = lowered(vec![Stmt::ops(AluOp::AddF32, 1)]);
        assert_eq!(ProgramIndex::build(&straight).grid_stride_items(64), None);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod proptests {
    use super::*;
    use crate::ast::{AluOp, Branch, DivergenceKind, KernelAst, Loop, MemStmt, Stmt};
    use crate::count::{expected_mix, static_mix};
    use crate::lower::{lower, LowerOptions};
    use oriole_arch::Family;
    use proptest::prelude::*;

    fn arb_stmt(depth: u32) -> BoxedStrategy<Stmt> {
        let alu = prop_oneof![
            Just(AluOp::AddF32),
            Just(AluOp::MulF32),
            Just(AluOp::FmaF32),
            Just(AluOp::DivF32),
            Just(AluOp::SqrtF32),
            Just(AluOp::AddI32),
            Just(AluOp::CvtI32F32),
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

    fn arb_kernel() -> impl Strategy<Value = KernelAst> {
        prop::collection::vec(arb_stmt(2), 1..5).prop_map(|body| {
            let mut k = KernelAst::new("index_prop");
            k.body = body;
            k
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn replayed_mixes_bit_identical(
            ast in arb_kernel(),
            fast in any::<bool>(),
            n in 1u64..256,
            tc_i in 0usize..4,
            bc in 1u32..64,
        ) {
            let tc = [32u32, 128, 512, 1024][tc_i];
            let p = lower(&ast, Family::Kepler, LowerOptions { fast_math: fast });
            let idx = ProgramIndex::build(&p);
            prop_assert_eq!(idx.static_mix(), static_mix(&p));
            let geom = LaunchGeometry::new(n, tc, bc);
            prop_assert_eq!(idx.expected_mix(&p, geom), expected_mix(&p, geom));
        }

        #[test]
        fn summaries_match_instruction_walk(ast in arb_kernel(), fast in any::<bool>()) {
            let p = lower(&ast, Family::Pascal, LowerOptions { fast_math: fast });
            let idx = ProgramIndex::build(&p);
            for (block, s) in p.blocks.iter().zip(idx.summaries()) {
                prop_assert_eq!(s.instr_count, block.instrs.len());
                prop_assert_eq!(s.profile_tape.len(), block.instrs.len());
                prop_assert_eq!(s.mix_tape.len(), block.instrs.len() * 2);
                prop_assert_eq!(
                    s.has_ctrl(),
                    !matches!(block.term, Terminator::Ret)
                );
            }
        }
    }
}
