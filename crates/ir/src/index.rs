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
//!   issue events with their service parameters), a **register tape**
//!   (the mix tape's register-file multipliers alone), the instruction
//!   count, the terminator class, and the block's weight at problem
//!   size zero when no launch geometry moves it. The three tapes of
//!   every block sit end to end in three index-wide buffers, in block
//!   order; a summary addresses its stretch by instruction range
//!   ([`ProgramIndex::mix_tape`], [`ProgramIndex::profile_tape`],
//!   [`ProgramIndex::reg_tape`]), so an index makes a handful of
//!   allocations whatever its block count;
//! * the grid-stride trip expressions (for [`LaunchWork`]'s busy
//!   blocks) and the [`has_divergence`](ProgramIndex::has_divergence) flag.
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
use crate::block::{BasicBlock, BlockId, FreqExpr, Program, Terminator};
use crate::count::{LaunchGeometry, MixCounts};
use crate::isa::OpKind;
use oriole_arch::{warps_per_block, OpClass, WARP_SIZE};
use std::ops::Range;

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

/// Per-block instruction summary: the block's place in the index's
/// tapes, which analysis phases replay instead of iterating `Instr`
/// vectors, and the facts about it they read per block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Number of straight-line instructions in the block.
    pub instr_count: usize,
    /// Index of the block's first instruction among the program's, in
    /// block order: where its stretch of every tape begins.
    first_instr: usize,
    /// The block's thread-level frequency with the problem size zeroed,
    /// `freq.eval_expected(0, tc, bc)`, when it is the same at every
    /// launch geometry; `None` when a grid-stride or block-share trip
    /// over a power-0 size (a constant item count) divides it by `TC`
    /// or `TC × BC`.
    pub zero_size_weight: Option<f64>,
    /// Terminator classification.
    pub term: TermClass,
}

impl BlockSummary {
    /// Whether the terminator issues a control instruction (everything
    /// but `Ret`).
    pub fn has_ctrl(&self) -> bool {
        !matches!(self.term, TermClass::Ret)
    }

    /// The block's instructions as positions in the index-wide tapes.
    fn instrs(&self) -> Range<usize> {
        self.first_instr..self.first_instr + self.instr_count
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
    /// Every block's mix tape, end to end: two entries per instruction.
    mix_tape: Vec<(OpClass, f64)>,
    /// Every block's profile tape, end to end: one event per instruction.
    profile_tape: Vec<ProfileEvent>,
    /// Every block's register tape, end to end: one multiplier per
    /// instruction.
    reg_tape: Vec<f64>,
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
        let instrs = program.blocks.iter().map(|b| b.instrs.len()).sum();
        let mut index = ProgramIndex {
            regions: Vec::new(),
            summaries: Vec::with_capacity(program.blocks.len()),
            mix_tape: Vec::with_capacity(instrs * 2),
            profile_tape: Vec::with_capacity(instrs),
            reg_tape: Vec::with_capacity(instrs),
            grid_strides: Vec::new(),
            has_divergence: false,
        };
        let mut is_linear = true;
        for block in &program.blocks {
            match block.term {
                Terminator::CondBranch { divergent, .. } => {
                    is_linear = false;
                    index.has_divergence |= divergent;
                }
                Terminator::LoopBack { trip: TripCount::GridStride(s), .. } => {
                    index.grid_strides.push(s);
                }
                _ => {}
            }
            index.has_divergence |= freq_has_div(&block.freq);
            let summary = index.summarize(block);
            index.summaries.push(summary);
        }
        // A linear program has no conditional branch, hence nothing to
        // reconverge: it skips the graph, the postdominator pass and
        // region discovery entirely.
        if !is_linear {
            let succs: Vec<Vec<BlockId>> =
                program.blocks.iter().map(|b| b.term.successors()).collect();
            index.regions = divergent_regions(program, &succs, &postdominators(program, &succs));
        }
        index
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

    /// A block's mix tape: `(op_class, multiplier)` pairs, two per
    /// instruction. Replaying `record(class, weight * multiplier)` over
    /// it reproduces the walk-based mix bit-exactly (instruction entries
    /// carry multiplier 1.0; register-file entries carry the access
    /// count).
    pub fn mix_tape(&self, s: &BlockSummary) -> &[(OpClass, f64)] {
        let instrs = s.instrs();
        &self.mix_tape[2 * instrs.start..2 * instrs.end]
    }

    /// A block's profile tape: one event per instruction, in program
    /// order.
    pub fn profile_tape(&self, s: &BlockSummary) -> &[ProfileEvent] {
        &self.profile_tape[s.instrs()]
    }

    /// A block's register tape: the multipliers of its mix tape's `Regs`
    /// entries, in its order. Replaying `regs += weight * m` over it
    /// gives the register class of a mix replay bit-exactly, without the
    /// other fourteen.
    pub fn reg_tape(&self, s: &BlockSummary) -> &[f64] {
        &self.reg_tape[s.instrs()]
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

    /// What `geom` executes: its busy blocks are the leading ones its
    /// grid-stride items fill (one or more if `BC > 0`; all without such
    /// a loop).
    // Busy blocks are computed here and nowhere else (`clippy.toml`).
    #[allow(clippy::disallowed_methods)]
    pub fn launch_work(&self, geom: LaunchGeometry) -> LaunchWork {
        let LaunchGeometry { n, tc, bc } = geom;
        let threads = f64::from(tc) * f64::from(bc);
        let items = self.grid_stride_items(n).unwrap_or(threads).max(1.0);
        let busy_blocks = ((threads.min(items) / f64::from(tc)).ceil().max(1.0) as u32).min(bc);
        LaunchWork { geom, busy_blocks }
    }

    /// Replays the mix tapes at thread-level expected weights —
    /// bit-identical to [`crate::count::expected_mix`] without touching
    /// an `Instr` vector.
    pub fn expected_mix(&self, program: &Program, geom: LaunchGeometry) -> MixCounts {
        let mut mix = MixCounts::new();
        for (block, s) in program.blocks.iter().zip(&self.summaries) {
            let weight = block.freq.eval_expected(geom.n, geom.tc, geom.bc);
            if weight != 0.0 {
                self.replay_mix(s, weight, &mut mix);
            }
        }
        mix
    }

    /// Replays the mix tapes unweighted — bit-identical to
    /// [`crate::count::static_mix`] (`1.0 * m == m`).
    pub fn static_mix(&self) -> MixCounts {
        let mut mix = MixCounts::new();
        for s in &self.summaries {
            self.replay_mix(s, 1.0, &mut mix);
        }
        mix
    }

    /// Records one block's mix tape, and its control instruction, at
    /// `weight` into `mix`.
    pub fn replay_mix(&self, s: &BlockSummary, weight: f64, mix: &mut MixCounts) {
        for &(class, m) in self.mix_tape(s) {
            mix.record(class, weight * m);
        }
        if s.has_ctrl() {
            mix.record(OpClass::CtrlIns, weight);
        }
    }
}

/// What one launch `(n, TC, BC)` executes, as the simulator's timing
/// model, dynamic counters and register replay all count it: the leading
/// busy blocks run whole grid-stride trips, and the other blocks' warps
/// only their prologue and range guard. Its gap to the thread-level
/// [`expected_mix`](crate::expected_mix) has three parts: idle blocks,
/// ceil'd trips and partial warps, and the simulator's divergence
/// saturation of busy weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchWork {
    geom: LaunchGeometry,
    busy_blocks: u32,
}

impl LaunchWork {
    /// Blocks that carry work items.
    pub fn busy_blocks(&self) -> u32 {
        self.busy_blocks
    }

    /// Busy blocks' warps, all resident, even if every lane fails the guard.
    pub fn busy_warps(&self) -> f64 {
        f64::from(self.busy_blocks) * f64::from(warps_per_block(self.geom.tc))
    }

    /// `(n, TC, max(busy, 1))`, where busy warps' weights are evaluated.
    pub fn busy_geometry(&self) -> LaunchGeometry {
        LaunchGeometry { bc: self.busy_blocks.max(1), ..self.geom }
    }

    /// Thread slots (warp executions × `WARP_SIZE`) `block` (summary `s`) issues:
    /// `busy_weight`, its weight over the busy warps, plus its zero-size
    /// weight (else `eval_expected(0, TC, BC)`) times the idle warps.
    pub fn slots(&self, block: &BasicBlock, s: &BlockSummary, busy_weight: f64) -> f64 {
        let LaunchGeometry { tc, bc, .. } = self.geom;
        let idle_warps = f64::from(bc - self.busy_blocks) * f64::from(warps_per_block(tc));
        let idle_weight = s.zero_size_weight.unwrap_or_else(|| block.freq.eval_expected(0, tc, bc));
        (busy_weight + idle_weight * idle_warps) * f64::from(WARP_SIZE)
    }
}

/// Whether a frequency holds a grid-stride or block-share trip over a
/// power-0 size: the one factor that still reads `TC` or `BC` when the
/// problem size is zero (a power-`p > 0` size is zero there, whatever
/// the geometry divides it by).
fn zero_size_reads_geometry(f: &FreqExpr) -> bool {
    match f {
        FreqExpr::Trip(TripCount::GridStride(s) | TripCount::BlockShare(s)) => s.power == 0,
        FreqExpr::Mul(fs) => fs.iter().any(zero_size_reads_geometry),
        _ => false,
    }
}

impl ProgramIndex {
    /// Appends one block's tapes and returns the summary addressing them.
    fn summarize(&mut self, block: &BasicBlock) -> BlockSummary {
        let first_instr = self.profile_tape.len();
        for instr in &block.instrs {
            let class = instr.opcode.op_class();
            let regs = f64::from(instr.regfile_accesses());
            self.mix_tape.extend([(class, 1.0), (OpClass::Regs, regs)]);
            self.reg_tape.push(regs);
            self.profile_tape.push(match instr.opcode.kind {
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
        let zero_size_weight =
            (!zero_size_reads_geometry(&block.freq)).then(|| block.freq.eval_expected(0, 1, 1));
        BlockSummary {
            instr_count: block.instrs.len(),
            first_instr,
            zero_size_weight,
            term: term_class(&block.term),
        }
    }
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
// Tests build their own indexes, and `grid_stride_items_match_block_scan`
// pins the item counts only `ProgramIndex::launch_work` reads.
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
    use crate::count::{expected_mix, static_mix};
    use crate::lower::{lower, LowerOptions};
    use crate::testgen::{check, kernel};
    use oriole_arch::Family;

    #[test]
    fn replayed_mixes_bit_identical() {
        check("replayed_mixes_bit_identical", 48, |rng| {
            let ast = kernel(rng, "index_prop");
            let fast = rng.coin();
            let n = rng.range_u64(1, 255);
            let tc = rng.pick(&[32u32, 128, 512, 1024]);
            let bc = rng.range_u64(1, 63) as u32;
            let p = lower(&ast, Family::Kepler, LowerOptions { fast_math: fast });
            let idx = ProgramIndex::build(&p);
            assert_eq!(idx.static_mix(), static_mix(&p));
            let geom = LaunchGeometry::new(n, tc, bc);
            assert_eq!(idx.expected_mix(&p, geom), expected_mix(&p, geom));
        });
    }

    #[test]
    fn summaries_match_instruction_walk() {
        check("summaries_match_instruction_walk", 48, |rng| {
            let ast = kernel(rng, "index_prop");
            let p = lower(&ast, Family::Pascal, LowerOptions { fast_math: rng.coin() });
            let idx = ProgramIndex::build(&p);
            for (block, s) in p.blocks.iter().zip(idx.summaries()) {
                assert_eq!(s.instr_count, block.instrs.len());
                assert_eq!(idx.profile_tape(s).len(), block.instrs.len());
                assert_eq!(idx.mix_tape(s).len(), block.instrs.len() * 2);
                assert_eq!(s.has_ctrl(), !matches!(block.term, Terminator::Ret));
                let regs: Vec<f64> =
                    block.instrs.iter().map(|i| f64::from(i.regfile_accesses())).collect();
                assert_eq!(idx.reg_tape(s), regs);
                // The generator draws no power-0 geometry trip, so every
                // block's zero-size weight is a constant of the program.
                let w = s.zero_size_weight.expect("no power-0 grid-stride or block-share trip");
                for (tc, bc) in [(32u32, 24u32), (1024, 192), (96, 1)] {
                    assert_eq!(w.to_bits(), block.freq.eval_expected(0, tc, bc).to_bits());
                }
            }
        });
    }
}
