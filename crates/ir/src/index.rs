//! `ProgramIndex` — the per-lowered-program analysis artifact.
//!
//! The paper's static analyzer "builds a CFG to help understand flow
//! divergence" (§V); historically this reproduction rebuilt that graph —
//! and re-walked every `Instr` vector — once per analysis phase and per
//! `(point, n)` query. [`ProgramIndex`] is the fix: one Vec-indexed
//! artifact, built **exactly once** when a front-end artifact is created
//! (`oriole_codegen::front_end`) and shared by `Arc` with every
//! specialized kernel the artifact stamps out. It owns
//!
//! * precomputed natural loops and divergent regions (region bodies
//!   stored as *sorted* block-id vectors, so any cost summed over a
//!   region is deterministic across processes and paths) — the graph
//!   they are derived from (successors, predecessors, reverse postorder,
//!   dominators, postdominators) is built once, Vec-indexed, and
//!   dropped: no consumer reads raw graph facts;
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
//! conditional branch anywhere. For those programs the index skips the
//! postdominator pass and divergent-region discovery entirely at build
//! time, and consumers skip the divergence machinery at
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
//! Every replayed query is bit-identical to the original walk-based
//! implementation (property-tested against the retained oracles): tapes
//! store multiplier 1.0 where the walk recorded a bare weight, and
//! IEEE-754 guarantees `w * 1.0 == w`.

use crate::ast::{AccessPattern, MemSpace, SizeExpr, TripCount};
use crate::block::{BlockId, FreqExpr, Program, Terminator};
use crate::cfg::{self, NaturalLoop};
use crate::count::{LaunchGeometry, MixCounts};
use crate::isa::OpKind;
use oriole_arch::OpClass;
use std::sync::atomic::{AtomicU64, Ordering};

static INDEX_BUILDS: AtomicU64 = AtomicU64::new(0);
static FAST_PATH_HITS: AtomicU64 = AtomicU64::new(0);
static SLOW_PATH_HITS: AtomicU64 = AtomicU64::new(0);

/// Process-wide index telemetry counters (monotonic since process
/// start). Surfaced through the tuner's `EvalStats` and `tune --stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexTelemetry {
    /// Number of [`ProgramIndex::build`] calls — one per front-end
    /// artifact when the compilation pipeline behaves.
    pub index_builds: u64,
    /// Divergence-free fast-path decisions taken at query sites.
    pub fast_path_hits: u64,
    /// Full (region-walking) divergence path decisions.
    pub slow_path_hits: u64,
}

/// Snapshot of the process-wide index telemetry.
pub fn telemetry() -> IndexTelemetry {
    IndexTelemetry {
        index_builds: INDEX_BUILDS.load(Ordering::Relaxed),
        fast_path_hits: FAST_PATH_HITS.load(Ordering::Relaxed),
        slow_path_hits: SLOW_PATH_HITS.load(Ordering::Relaxed),
    }
}

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

/// A divergent region with its body stored as a **sorted** vector of
/// block ids — the deterministic counterpart of
/// [`cfg::DivergentRegion`](crate::cfg::DivergentRegion), whose
/// `HashSet` body iterates in per-instance random order.
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
    n: usize,
    loops: Vec<NaturalLoop>,
    /// Discovered only for non-linear programs; empty otherwise (a
    /// linear program has no conditional branch, hence no divergent
    /// region to reconverge).
    regions: Vec<DivRegion>,
    summaries: Vec<BlockSummary>,
    grid_strides: Vec<SizeExpr>,
    has_divergence: bool,
}

/// The half of index construction both discovery paths share: ordering,
/// dominators and loops over the finished edge lists, then — for
/// programs with a conditional branch only — postdominators and the
/// divergent regions, bodies sorted. How `succs`, `preds`, the
/// summaries, strides and flags were found is the callers' business
/// ([`ProgramIndex::build`] scans the program, [`IndexBuilder::finish`]
/// accumulated them during lowering).
fn assemble(
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    summaries: Vec<BlockSummary>,
    grid_strides: Vec<SizeExpr>,
    is_linear: bool,
    has_divergence: bool,
    program: &Program,
) -> ProgramIndex {
    INDEX_BUILDS.fetch_add(1, Ordering::Relaxed);
    let n = succs.len();
    let rpo = cfg::reverse_postorder(n, &succs);
    let idom = cfg::dominators(n, &preds, &rpo);
    let loops = cfg::natural_loops_in(program, &preds, &idom);
    // Linear programs skip the postdominator pass and region discovery
    // entirely — there is no conditional branch, so there is nothing to
    // reconverge.
    let regions = if is_linear {
        Vec::new()
    } else {
        let ipostdom = cfg::postdominators(n, &succs, program);
        cfg::divergent_regions_in(program, &succs, &ipostdom)
            .into_iter()
            .map(|r| {
                let mut body: Vec<BlockId> = r.body.into_iter().collect();
                body.sort_unstable();
                DivRegion {
                    branch_block: r.branch_block,
                    reconvergence: r.reconvergence,
                    body,
                }
            })
            .collect()
    };
    ProgramIndex { n, loops, regions, summaries, grid_strides, has_divergence }
}

/// Whether a frequency expression carries a divergent-branch factor.
fn freq_has_div(f: &FreqExpr) -> bool {
    match f {
        FreqExpr::DivFraction(_) => true,
        FreqExpr::Mul(fs) => fs.iter().any(freq_has_div),
        _ => false,
    }
}

/// Incremental [`ProgramIndex`] construction, fused into the lowering
/// walk (`oriole_ir::lower::lower_indexed`): edges, per-block summary
/// tapes, divergence flags and grid-stride trips are accumulated as
/// each block is sealed, so creating the index costs no second pass
/// over the finished program's instruction vectors.
///
/// The lowering contract this builder relies on:
///
/// * blocks are sealed in final id order (`seal` call *k* describes
///   `BlockId(k)`);
/// * a sealed terminator may later be *patched* (if/else chains seal
///   with a placeholder `Ret` and link the branch targets once the
///   chains are lowered) — the placeholder contributes no edges, so a
///   patch only ever **adds** edges;
/// * block instruction vectors and frequencies are immutable once
///   sealed (patches replace terminators only).
///
/// [`IndexBuilder::finish`] then ends in the same ordering/dominator
/// passes as [`ProgramIndex::build`]; equality of the two paths is
/// property-tested (see `lower::proptests`).
#[derive(Debug, Default)]
pub(crate) struct IndexBuilder {
    /// CFG edges in (source-block, seal/patch) order.
    edges: Vec<(BlockId, BlockId)>,
    summaries: Vec<BlockSummary>,
    grid_strides: Vec<SizeExpr>,
    any_cond: bool,
    any_div: bool,
}

impl IndexBuilder {
    pub(crate) fn new() -> IndexBuilder {
        IndexBuilder::default()
    }

    /// Accounts a just-sealed block (the `k`-th call describes
    /// `BlockId(k)`).
    pub(crate) fn seal(&mut self, block: &crate::block::BasicBlock) {
        let from = BlockId(self.summaries.len() as u32);
        self.summaries.push(summarize(block));
        if freq_has_div(&block.freq) {
            self.any_div = true;
        }
        self.record_term(from, &block.term);
    }

    /// Accounts a terminator patch on an already-sealed block. The
    /// sealed placeholder must have been `Ret` (no edges), so the patch
    /// strictly adds the new terminator's edges.
    pub(crate) fn patch(&mut self, at: BlockId, term: &Terminator) {
        let summary = &mut self.summaries[at.0 as usize];
        debug_assert!(
            matches!(summary.term, TermClass::Ret),
            "patched block was sealed with a non-placeholder terminator"
        );
        summary.term = term_class(term);
        self.record_term(at, term);
    }

    fn record_term(&mut self, from: BlockId, term: &Terminator) {
        match term {
            Terminator::CondBranch { divergent, .. } => {
                self.any_cond = true;
                if *divergent {
                    self.any_div = true;
                }
            }
            Terminator::LoopBack { trip: TripCount::GridStride(s), .. } => {
                self.grid_strides.push(*s);
            }
            _ => {}
        }
        for s in term.successors() {
            self.edges.push((from, s));
        }
    }

    /// Finalizes the index: distributes the accumulated edges into
    /// successor/predecessor vectors and hands them to the same
    /// ordering, dominator and region passes [`ProgramIndex::build`]
    /// ends in. That bumps the process-wide build counter once — the
    /// fused path *is* the one index build of a front-end run.
    pub(crate) fn finish(self, program: &Program) -> ProgramIndex {
        let n = program.blocks.len();
        debug_assert_eq!(n, self.summaries.len(), "every block must be sealed exactly once");
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (from, to) in &self.edges {
            succs[from.0 as usize].push(*to);
            preds[to.0 as usize].push(*from);
        }
        // `build` discovers predecessors by scanning blocks in id order,
        // so its pred lists are ascending in the source block; the fused
        // walk discovers them in seal/patch order. No block reaches the
        // same successor through two terminator slots, so sorting
        // reproduces `build`'s lists exactly.
        for p in &mut preds {
            p.sort_unstable();
        }
        assemble(
            succs,
            preds,
            self.summaries,
            self.grid_strides,
            !self.any_cond,
            self.any_div,
            program,
        )
    }
}

impl ProgramIndex {
    /// Builds the index for a lowered program. Called once per front-end
    /// artifact; every call bumps the process-wide build counter so
    /// tests (and `tune --stats`) can assert the once-per-artifact
    /// discipline.
    pub fn build(program: &Program) -> ProgramIndex {
        let n = program.blocks.len();
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (i, b) in program.blocks.iter().enumerate() {
            let from = BlockId(i as u32);
            for s in b.term.successors() {
                succs[i].push(s);
                preds[s.0 as usize].push(from);
            }
        }
        let is_linear = !program
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::CondBranch { .. }));
        let has_divergence = program.blocks.iter().any(|b| {
            matches!(b.term, Terminator::CondBranch { divergent: true, .. })
                || freq_has_div(&b.freq)
        });
        let summaries = program.blocks.iter().map(summarize).collect();
        let grid_strides = program
            .blocks
            .iter()
            .filter_map(|b| match &b.term {
                Terminator::LoopBack { trip: TripCount::GridStride(s), .. } => Some(*s),
                _ => None,
            })
            .collect();
        assemble(succs, preds, summaries, grid_strides, is_linear, has_divergence, program)
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the program has no blocks.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Precomputed natural loops, sorted by `(header, latch)`.
    pub fn natural_loops(&self) -> &[NaturalLoop] {
        &self.loops
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

    /// Fast-path decision for divergence-sensitive queries, recorded in
    /// the process-wide telemetry: returns true (and counts a fast-path
    /// hit) when the program is divergence-free.
    pub fn divergence_fast_path(&self) -> bool {
        if self.has_divergence {
            SLOW_PATH_HITS.fetch_add(1, Ordering::Relaxed);
            false
        } else {
            FAST_PATH_HITS.fetch_add(1, Ordering::Relaxed);
            true
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AluOp, Branch, DivergenceKind, KernelAst, Loop, Stmt};
    use crate::cfg::Cfg;
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
        assert!(!idx.natural_loops().is_empty());
        assert!(!idx.is_empty());
    }

    #[test]
    fn divergent_branch_disables_fast_path() {
        let p = lowered(vec![Stmt::If(Branch {
            divergence: DivergenceKind::ThreadDependent,
            taken_fraction: 0.5,
            then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
            else_body: vec![Stmt::ops(AluOp::MulF32, 1)],
        })]);
        let idx = ProgramIndex::build(&p);
        assert!(idx.has_divergence());
        assert!(!idx.divergence_fast_path());
        assert_eq!(idx.divergent_regions().len(), 1);
        // Region bodies are sorted.
        let body = &idx.divergent_regions()[0].body;
        assert!(body.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn uniform_branch_is_divergence_free_but_not_linear() {
        let p = lowered(vec![Stmt::If(Branch {
            divergence: DivergenceKind::Uniform,
            taken_fraction: 0.5,
            then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
            else_body: vec![],
        })]);
        let idx = ProgramIndex::build(&p);
        assert!(!idx.has_divergence());
        assert!(idx.divergence_fast_path());
        assert!(idx.divergent_regions().is_empty());
    }

    #[test]
    fn index_cfg_matches_cfg_build() {
        let p = lowered(vec![
            Stmt::If(Branch {
                divergence: DivergenceKind::ThreadDependent,
                taken_fraction: 0.3,
                then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
                else_body: vec![Stmt::ops(AluOp::MulF32, 1)],
            }),
            Stmt::Loop(Loop {
                trip: TripCount::Size(SizeExpr::N),
                unrollable: false,
                body: vec![Stmt::ops(AluOp::FmaF32, 1)],
            }),
        ]);
        let idx = ProgramIndex::build(&p);
        let cfg = Cfg::build(&p);
        assert_eq!(idx.len(), cfg.len());
        assert_eq!(idx.natural_loops(), cfg.natural_loops(&p).as_slice());
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
    fn build_counter_increments() {
        let p = lowered(vec![Stmt::ops(AluOp::AddF32, 1)]);
        let before = telemetry().index_builds;
        let _ = ProgramIndex::build(&p);
        let _ = ProgramIndex::build(&p);
        assert!(telemetry().index_builds >= before + 2);
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
mod proptests {
    use super::*;
    use crate::ast::{AluOp, Branch, DivergenceKind, KernelAst, Loop, MemStmt, Stmt};
    use crate::cfg::Cfg;
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
        fn index_cfg_matches_walk(ast in arb_kernel()) {
            let p = lower(&ast, Family::Maxwell, LowerOptions::default());
            let idx = ProgramIndex::build(&p);
            let cfg = Cfg::build(&p);
            prop_assert_eq!(idx.len(), cfg.len());
            let loops = cfg.natural_loops(&p);
            prop_assert_eq!(idx.natural_loops(), loops.as_slice());
            // Regions agree modulo the index's sorted body representation.
            let walk = cfg.divergent_regions(&p);
            prop_assert_eq!(idx.divergent_regions().len(), walk.len());
            for (a, b) in idx.divergent_regions().iter().zip(&walk) {
                prop_assert_eq!(a.branch_block, b.branch_block);
                prop_assert_eq!(a.reconvergence, b.reconvergence);
                let mut body: Vec<BlockId> = b.body.iter().copied().collect();
                body.sort_unstable();
                prop_assert_eq!(&a.body, &body);
            }
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
