//! Basic blocks, symbolic execution frequencies, and whole programs.

use crate::ast::TripCount;
use crate::instr::{Instr, Pred};
use oriole_arch::{Family, WARP_SIZE};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Index of a basic block within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Symbolic per-thread execution frequency of a basic block.
///
/// Lowering records, for each block, the product of the enclosing loop
/// trip counts and branch probabilities. The static analyzer evaluates
/// this at a concrete problem size / launch geometry to obtain expected
/// dynamic instruction counts *without executing anything* — the essence
/// of the paper's "predictive modeling based on static data".
#[derive(Debug, Clone, PartialEq)]
pub enum FreqExpr {
    /// Executes exactly once per thread.
    Once,
    /// A constant multiplier.
    Const(f64),
    /// A loop trip count.
    Trip(TripCount),
    /// A branch-probability factor in `[0, 1]` for a *uniform* branch:
    /// whole warps agree, so thread-level and warp-level probabilities
    /// coincide.
    Fraction(f64),
    /// A branch-probability factor for a *divergent* branch side: each
    /// thread takes it with probability `p` independently, so a warp
    /// executes the side whenever any of its `WARP_SIZE` lanes does —
    /// `1 − (1−p)³²` at warp level.
    DivFraction(f64),
    /// Product of factors.
    Mul(Vec<FreqExpr>),
}

/// Warp-level probability that at least one of `WARP_SIZE` lanes takes a branch
/// side each lane takes independently with probability `p`.
fn warp_any(p: f64) -> f64 {
    1.0 - (1.0 - p.clamp(0.0, 1.0)).powi(WARP_SIZE as i32)
}

impl FreqExpr {
    /// Evaluates the critical-path per-thread execution count (grid-stride
    /// trips round up; see [`TripCount::eval`]).
    pub fn eval(&self, n: u64, tc: u32, bc: u32) -> f64 {
        match self {
            FreqExpr::Once => 1.0,
            FreqExpr::Const(c) => *c,
            FreqExpr::Trip(t) => t.eval(n, tc, bc),
            FreqExpr::Fraction(p) | FreqExpr::DivFraction(p) => *p,
            FreqExpr::Mul(fs) => fs.iter().map(|f| f.eval(n, tc, bc)).product(),
        }
    }

    /// Evaluates the thread-averaged execution count (surplus grid-stride
    /// threads contribute fractionally; see `TripCount::eval_expected`).
    pub fn eval_expected(&self, n: u64, tc: u32, bc: u32) -> f64 {
        match self {
            FreqExpr::Once => 1.0,
            FreqExpr::Const(c) => *c,
            FreqExpr::Trip(t) => t.eval_expected(n, tc, bc),
            FreqExpr::Fraction(p) | FreqExpr::DivFraction(p) => *p,
            FreqExpr::Mul(fs) => fs.iter().map(|f| f.eval_expected(n, tc, bc)).product(),
        }
    }

    /// Evaluates the *warp-level* execution count: what an issued-
    /// instruction profiler observes, averaged over the grid's warps.
    /// Divergent branch sides execute whenever any lane takes them
    /// (`1−(1−p)³²`). Grid-stride trips stay fractional: work items pack
    /// into warps, so the total warp-level work (`eval_warp × #warps`) is
    /// geometry-invariant regardless of oversubscription; inactive warps
    /// fail the range guard and contribute nothing. The simulator's
    /// per-warp profile integrates it. Its excess over the static
    /// [`FreqExpr::eval_expected`], divergence saturation, is one of the
    /// static/dynamic gap's three parts, beside idle blocks and ceil'd
    /// trips with partial warps ([`LaunchWork`](crate::LaunchWork)); the
    /// simulator's counters property-test that the two mixes agree once
    /// all three are ruled out.
    pub fn eval_warp(&self, n: u64, tc: u32, bc: u32) -> f64 {
        match self {
            FreqExpr::Once => 1.0,
            FreqExpr::Const(c) => *c,
            FreqExpr::Trip(t) => t.eval_expected(n, tc, bc),
            FreqExpr::Fraction(p) => *p,
            FreqExpr::DivFraction(p) => warp_any(*p),
            FreqExpr::Mul(fs) => fs.iter().map(|f| f.eval_warp(n, tc, bc)).product(),
        }
    }

    /// Multiplies this frequency by another factor, flattening products.
    pub(crate) fn times(self, other: FreqExpr) -> FreqExpr {
        match (self, other) {
            (FreqExpr::Once, o) => o,
            (s, FreqExpr::Once) => s,
            (FreqExpr::Mul(mut a), FreqExpr::Mul(b)) => {
                a.extend(b);
                FreqExpr::Mul(a)
            }
            (FreqExpr::Mul(mut a), o) => {
                a.push(o);
                FreqExpr::Mul(a)
            }
            (s, FreqExpr::Mul(mut b)) => {
                b.insert(0, s);
                FreqExpr::Mul(b)
            }
            (s, o) => FreqExpr::Mul(vec![s, o]),
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch.
    CondBranch {
        /// Predicate register guarding the branch.
        pred: Pred,
        /// Target when the predicate holds.
        taken: BlockId,
        /// Target otherwise.
        fallthrough: BlockId,
        /// Whether lanes of one warp can disagree on the predicate.
        divergent: bool,
        /// Per-thread probability of taking the branch.
        taken_fraction: f64,
    },
    /// Loop back-edge: jump to `target` while the (symbolic) trip count
    /// lasts, then fall through to `exit`. Lowering uses this instead of a
    /// plain `CondBranch` so the trip information survives into the CFG.
    LoopBack {
        /// Loop-header block.
        target: BlockId,
        /// Block executed after the loop finishes.
        exit: BlockId,
        /// Symbolic trip count of the loop.
        trip: TripCount,
    },
    /// Kernel exit.
    Ret,
}

impl Terminator {
    /// Successor block ids, in (taken, fallthrough) order.
    pub(crate) fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::CondBranch { taken, fallthrough, .. } => vec![*taken, *fallthrough],
            Terminator::LoopBack { target, exit, .. } => vec![*target, *exit],
            Terminator::Ret => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus a terminator, annotated
/// with its symbolic execution frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Human-readable label (unique within the program).
    pub label: String,
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// Terminator.
    pub term: Terminator,
    /// Symbolic per-thread execution frequency.
    pub freq: FreqExpr,
}

/// Program-level metadata: what `--ptxas-options=-v` would have printed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramMeta {
    /// Target architecture family.
    pub family: Family,
    /// Registers per thread after allocation (ptxas "registers" line).
    pub regs_per_thread: u32,
    /// Static shared memory per block, bytes.
    pub smem_static: u32,
    /// Spilled bytes per thread (0 when the kernel fits in registers).
    pub spill_bytes: u32,
}

/// Shared block storage of a [`Program`].
///
/// The block vector is by far the heaviest part of a lowered program
/// (every [`Instr`] owns an operand vector), and the compilation
/// back-end stamps out one program *per tuning point* from one lowered
/// artifact — differing only in [`ProgramMeta`]. Wrapping the arena in
/// an `Arc` makes that per-point clone a reference-count bump instead
/// of a deep copy, while [`BlockArena::make_mut`] preserves
/// copy-on-write value semantics for the rare passes (peephole
/// optimization) that actually rewrite blocks.
///
/// Dereferences to `[BasicBlock]`, so all read access — indexing,
/// iteration, `len()` — looks exactly like the plain `Vec` it replaced.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockArena(Arc<Vec<BasicBlock>>);

impl BlockArena {
    /// Wraps a freshly built block vector.
    pub(crate) fn new(blocks: Vec<BasicBlock>) -> BlockArena {
        BlockArena(Arc::new(blocks))
    }

    /// Mutable access with copy-on-write semantics: clones the blocks
    /// if (and only if) the arena is currently shared.
    pub fn make_mut(&mut self) -> &mut Vec<BasicBlock> {
        Arc::make_mut(&mut self.0)
    }
}

impl Deref for BlockArena {
    type Target = [BasicBlock];

    fn deref(&self) -> &[BasicBlock] {
        &self.0
    }
}

impl From<Vec<BasicBlock>> for BlockArena {
    fn from(blocks: Vec<BasicBlock>) -> BlockArena {
        BlockArena::new(blocks)
    }
}

impl<'a> IntoIterator for &'a BlockArena {
    type Item = &'a BasicBlock;
    type IntoIter = std::slice::Iter<'a, BasicBlock>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A lowered kernel: the unit the static analyzer and simulator consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Kernel name (shared: a program is cloned once per tuning point).
    pub name: Arc<str>,
    /// Compilation metadata.
    pub meta: ProgramMeta,
    /// Basic blocks; block 0 is the unique entry. Stored in a shared
    /// [`BlockArena`], so cloning a program (the back-end does it once
    /// per tuning point) shares the blocks instead of copying them.
    pub blocks: BlockArena,
}

impl Program {
    /// Total number of static instructions (terminators excluded).
    pub fn static_len(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Checks structural invariants: entry exists, all terminator targets
    /// are in range, labels are unique. Returns a list of violations
    /// (empty = well-formed). Used by tests and the disassembly parser.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.blocks.is_empty() {
            problems.push("program has no blocks".to_string());
            return problems;
        }
        let n = self.blocks.len() as u32;
        let mut seen = std::collections::HashSet::new();
        for (i, b) in self.blocks.iter().enumerate() {
            if !seen.insert(b.label.as_str()) {
                problems.push(format!("duplicate label `{}`", b.label));
            }
            for succ in b.term.successors() {
                if succ.0 >= n {
                    problems.push(format!(
                        "block bb{i} ({}) targets out-of-range {succ}",
                        b.label
                    ));
                }
            }
            if let Terminator::CondBranch { taken_fraction, .. } = &b.term {
                if !(0.0..=1.0).contains(taken_fraction) {
                    problems.push(format!(
                        "block bb{i} taken_fraction {taken_fraction} outside [0,1]"
                    ));
                }
            }
        }
        let reachable = self.reachable();
        if !reachable[0] {
            problems.push("entry unreachable (internal error)".to_string());
        }
        problems
    }

    /// Reachability from entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return seen;
        }
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            let idx = b.0 as usize;
            if idx >= seen.len() || seen[idx] {
                continue;
            }
            seen[idx] = true;
            stack.extend(self.blocks[idx].term.successors());
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SizeExpr;

    fn block(label: &str, term: Terminator) -> BasicBlock {
        BasicBlock { label: label.into(), instrs: vec![], term, freq: FreqExpr::Once }
    }

    fn meta() -> ProgramMeta {
        ProgramMeta { family: Family::Kepler, regs_per_thread: 16, smem_static: 0, spill_bytes: 0 }
    }

    #[test]
    fn freq_expr_products() {
        let f = FreqExpr::Trip(TripCount::Size(SizeExpr::N))
            .times(FreqExpr::Fraction(0.5))
            .times(FreqExpr::Const(2.0));
        assert_eq!(f.eval(100, 1, 1), 100.0);
        // Once is an identity.
        let g = FreqExpr::Once.times(FreqExpr::Const(3.0));
        assert_eq!(g.eval(1, 1, 1), 3.0);
        let h = FreqExpr::Const(3.0).times(FreqExpr::Once);
        assert_eq!(h.eval(1, 1, 1), 3.0);
    }

    #[test]
    fn freq_grid_stride_depends_on_geometry() {
        let f = FreqExpr::Trip(TripCount::GridStride(SizeExpr::N2));
        // N=64 → 4096 items; 128 threads → 32 iters; 4096 threads → 1.
        assert_eq!(f.eval(64, 128, 1), 32.0);
        assert_eq!(f.eval(64, 64, 64), 1.0);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let p = Program {
            name: "t".into(),
            meta: meta(),
            blocks: vec![
                block("entry", Terminator::Jump(BlockId(1))),
                block("exit", Terminator::Ret),
            ]
            .into(),
        };
        assert!(p.validate().is_empty());
    }

    #[test]
    fn validate_catches_out_of_range_and_duplicates() {
        let p = Program {
            name: "t".into(),
            meta: meta(),
            blocks: vec![
                block("a", Terminator::Jump(BlockId(9))),
                block("a", Terminator::Ret),
            ]
            .into(),
        };
        let problems = p.validate();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn validate_catches_bad_fraction() {
        let p = Program {
            name: "t".into(),
            meta: meta(),
            blocks: vec![
                block(
                    "entry",
                    Terminator::CondBranch {
                        pred: Pred(0),
                        taken: BlockId(1),
                        fallthrough: BlockId(1),
                        divergent: false,
                        taken_fraction: 1.5,
                    },
                ),
                block("exit", Terminator::Ret),
            ]
            .into(),
        };
        assert_eq!(p.validate().len(), 1);
    }

    #[test]
    fn reachability() {
        let p = Program {
            name: "t".into(),
            meta: meta(),
            blocks: vec![
                block("entry", Terminator::Jump(BlockId(2))),
                block("orphan", Terminator::Ret),
                block("exit", Terminator::Ret),
            ]
            .into(),
        };
        assert_eq!(p.reachable(), vec![true, false, true]);
    }

    #[test]
    fn loopback_successors() {
        let t = Terminator::LoopBack {
            target: BlockId(1),
            exit: BlockId(2),
            trip: TripCount::Const(4),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
    }
}
