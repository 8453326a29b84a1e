//! Instruction-mix counting.
//!
//! Two flavours, matching the paper's distinction:
//!
//! * [`static_mix`] — every static instruction counted once, the raw
//!   "instruction operations executed" a disassembler listing yields.
//! * [`expected_mix`] — instructions weighted by their block's symbolic
//!   execution frequency evaluated at a concrete [`LaunchGeometry`]. This
//!   is the paper's *predictive* static estimate of the dynamic mix: no
//!   execution happens, but loop structure and problem size are honoured.
//!
//! Counts are kept per [`OpClass`] (Table II row) and rolled up to the
//! four coarse classes `O_fl`, `O_mem`, `O_ctrl`, `O_reg` used by Eq. 6.

use crate::block::{Program, Terminator};
use oriole_arch::{InstrClass, OpClass, ALL_OP_CLASSES};
use std::fmt;
use std::ops::{Add, AddAssign};

/// Problem size and launch geometry: everything symbolic frequencies need
/// to become concrete numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchGeometry {
    /// Problem size `N`.
    pub n: u64,
    /// Threads per block (`TC`).
    pub tc: u32,
    /// Blocks in the grid (`BC`).
    pub bc: u32,
}

impl LaunchGeometry {
    /// Creates a geometry.
    pub const fn new(n: u64, tc: u32, bc: u32) -> Self {
        Self { n, tc, bc }
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        u64::from(self.tc) * u64::from(self.bc)
    }
}

impl fmt::Display for LaunchGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={} TC={} BC={}", self.n, self.tc, self.bc)
    }
}

/// Per-[`OpClass`] instruction counts (fractional: expected counts can be
/// non-integral once branch probabilities weigh in).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MixCounts {
    counts: [f64; 15],
}

impl MixCounts {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `weight` occurrences of `op`.
    pub fn record(&mut self, op: OpClass, weight: f64) {
        self.counts[Self::index(op)] += weight;
    }

    /// Count for one operation class.
    pub fn get(&self, op: OpClass) -> f64 {
        self.counts[Self::index(op)]
    }

    /// `ALL_OP_CLASSES` is in declaration order (pinned by a test in
    /// `oriole_arch`), so a class's discriminant is its slot.
    fn index(op: OpClass) -> usize {
        op as usize
    }

    /// Iterates `(op_class, count)` pairs, including zeros.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, f64)> + '_ {
        ALL_OP_CLASSES.iter().map(move |&op| (op, self.get(op)))
    }

    /// Total operations across all classes.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Rolls fine-grained counts up to the four coarse classes.
    pub fn classes(&self) -> ClassMix {
        let mut m = ClassMix::default();
        for (op, c) in self.iter() {
            match op.class() {
                InstrClass::Flops => m.flops += c,
                InstrClass::Mem => m.mem += c,
                InstrClass::Ctrl => m.ctrl += c,
                InstrClass::Reg => m.reg += c,
            }
        }
        m
    }

    /// Scales every count by `k` (e.g. per-thread → whole-grid).
    pub fn scaled(&self, k: f64) -> MixCounts {
        let mut out = self.clone();
        for c in &mut out.counts {
            *c *= k;
        }
        out
    }
}

impl Add for MixCounts {
    type Output = MixCounts;
    fn add(mut self, rhs: MixCounts) -> MixCounts {
        self += rhs;
        self
    }
}

impl AddAssign for MixCounts {
    fn add_assign(&mut self, rhs: MixCounts) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += b;
        }
    }
}

/// The four coarse instruction-mix totals of §III-B:
/// `O_fl`, `O_mem`, `O_ctrl`, `O_reg`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassMix {
    /// Arithmetic operations (`O_fl`).
    pub flops: f64,
    /// Memory operations (`O_mem`).
    pub mem: f64,
    /// Control operations (`O_ctrl`).
    pub ctrl: f64,
    /// Register-file accesses (`O_reg`).
    pub reg: f64,
}

impl ClassMix {
    /// Total across the four classes.
    pub(crate) fn total(&self) -> f64 {
        self.flops + self.mem + self.ctrl + self.reg
    }

    /// Computational intensity: the ratio of floating-point to memory
    /// operations (Table VI's "Itns" column). Returns `f64::INFINITY`
    /// for kernels with no memory operations.
    pub fn intensity(&self) -> f64 {
        if self.mem == 0.0 {
            if self.flops == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flops / self.mem
        }
    }

    /// Fractions of the total per class `(fl, mem, ctrl, reg)`; all zeros
    /// for an empty mix.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t == 0.0 {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            (self.flops / t, self.mem / t, self.ctrl / t, self.reg / t)
        }
    }
}

impl fmt::Display for ClassMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FLOPS={:.1} MEM={:.1} CTRL={:.1} REG={:.1} (intensity {:.2})",
            self.flops,
            self.mem,
            self.ctrl,
            self.reg,
            self.intensity()
        )
    }
}

/// Weight contributed by a terminator: branches and loop-backs issue one
/// control instruction; plain returns are folded into the `exit`
/// instruction lowering already emits.
fn terminator_ctrl_weight(term: &Terminator) -> f64 {
    match term {
        Terminator::Jump(_) | Terminator::CondBranch { .. } | Terminator::LoopBack { .. } => 1.0,
        Terminator::Ret => 0.0,
    }
}

/// Static instruction mix: each instruction counted once, regardless of
/// control flow — what a disassembly listing shows.
pub fn static_mix(program: &Program) -> MixCounts {
    let mut mix = MixCounts::new();
    for block in &program.blocks {
        for instr in &block.instrs {
            mix.record(instr.opcode.op_class(), 1.0);
            mix.record(OpClass::Regs, f64::from(instr.regfile_accesses()));
        }
        let ctrl = terminator_ctrl_weight(&block.term);
        if ctrl > 0.0 {
            mix.record(OpClass::CtrlIns, ctrl);
        }
    }
    mix
}

/// Expected per-thread dynamic mix, predicted statically: instructions
/// weighted by their block's symbolic frequency at `geom`, averaged over
/// threads (surplus grid-stride threads count fractionally).
pub fn expected_mix(program: &Program, geom: LaunchGeometry) -> MixCounts {
    let mut mix = MixCounts::new();
    for block in &program.blocks {
        let weight = block.freq.eval_expected(geom.n, geom.tc, geom.bc);
        if weight == 0.0 {
            continue;
        }
        for instr in &block.instrs {
            mix.record(instr.opcode.op_class(), weight);
            mix.record(OpClass::Regs, weight * f64::from(instr.regfile_accesses()));
        }
        let ctrl = terminator_ctrl_weight(&block.term);
        if ctrl > 0.0 {
            mix.record(OpClass::CtrlIns, ctrl * weight);
        }
    }
    mix
}

/// Convenience: lowers `ast` for `family` with default options and
/// returns its expected per-thread mix at `geom`. Equivalent to
/// `expected_mix(&lower(ast, family, default), geom)`.
pub fn expected_mix_of(
    ast: &crate::ast::KernelAst,
    family: oriole_arch::Family,
    geom: LaunchGeometry,
) -> MixCounts {
    let program = crate::lower::lower(ast, family, crate::lower::LowerOptions::default());
    expected_mix(&program, geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AluOp, KernelAst, Loop, SizeExpr, Stmt, TripCount};
    use crate::lower::{lower, LowerOptions};
    use oriole_arch::Family;

    fn fma_loop_kernel() -> Program {
        let mut k = KernelAst::new("mixes");
        k.body = vec![Stmt::Loop(Loop {
            trip: TripCount::Size(SizeExpr::N),
            unrollable: true,
            body: vec![
                Stmt::load(crate::ast::MemSpace::Global, crate::ast::AccessPattern::Coalesced, 1),
                Stmt::ops(AluOp::FmaF32, 1),
            ],
        })];
        lower(&k, Family::Kepler, LowerOptions::default())
    }

    #[test]
    fn static_mix_counts_each_instruction_once() {
        let p = fma_loop_kernel();
        let mix = static_mix(&p);
        // Exactly one FMA and one load in the whole listing.
        assert_eq!(mix.get(OpClass::FpIns32), 1.0);
        assert_eq!(mix.get(OpClass::LdStIns), 1.0);
        // Register accesses accumulate across all instructions.
        assert!(mix.get(OpClass::Regs) > 5.0);
        // Terminators contribute control ops.
        assert!(mix.get(OpClass::CtrlIns) >= 2.0);
    }

    #[test]
    fn expected_mix_scales_with_n() {
        let p = fma_loop_kernel();
        let small = expected_mix(&p, LaunchGeometry::new(32, 128, 8));
        let large = expected_mix(&p, LaunchGeometry::new(64, 128, 8));
        // FMA executes once per loop iteration = N times per thread.
        assert_eq!(small.get(OpClass::FpIns32), 32.0);
        assert_eq!(large.get(OpClass::FpIns32), 64.0);
        // Total grows with N.
        assert!(large.total() > small.total());
    }

    #[test]
    fn class_rollup_and_intensity() {
        let p = fma_loop_kernel();
        let mix = expected_mix(&p, LaunchGeometry::new(128, 128, 8));
        let classes = mix.classes();
        assert!(classes.flops > 0.0);
        assert!(classes.mem > 0.0);
        assert!(classes.ctrl > 0.0);
        assert!(classes.reg > 0.0);
        // One FMA per load, plus integer address arithmetic in FLOPS;
        // intensity must be positive and finite here.
        let i = classes.intensity();
        assert!(i.is_finite() && i > 0.0);
        let (ffl, fmem, fctrl, freg) = classes.fractions();
        assert!((ffl + fmem + fctrl + freg - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_edge_cases() {
        let zero = ClassMix::default();
        assert_eq!(zero.intensity(), 0.0);
        assert_eq!(zero.fractions(), (0.0, 0.0, 0.0, 0.0));
        let pure_compute = ClassMix { flops: 10.0, mem: 0.0, ctrl: 0.0, reg: 0.0 };
        assert!(pure_compute.intensity().is_infinite());
    }

    #[test]
    fn mix_arithmetic() {
        let mut a = MixCounts::new();
        a.record(OpClass::FpIns32, 2.0);
        let mut b = MixCounts::new();
        b.record(OpClass::FpIns32, 3.0);
        b.record(OpClass::LdStIns, 1.0);
        let c = a.clone() + b;
        assert_eq!(c.get(OpClass::FpIns32), 5.0);
        assert_eq!(c.get(OpClass::LdStIns), 1.0);
        let d = c.scaled(2.0);
        assert_eq!(d.get(OpClass::FpIns32), 10.0);
        assert_eq!(d.total(), 12.0);
    }

    #[test]
    fn geometry_helpers() {
        let g = LaunchGeometry::new(256, 128, 24);
        assert_eq!(g.total_threads(), 3072);
        assert!(g.to_string().contains("N=256"));
    }

    #[test]
    fn expected_mix_depends_on_geometry_for_grid_stride() {
        let mut k = KernelAst::new("gs");
        k.body = vec![Stmt::Loop(Loop {
            trip: TripCount::GridStride(SizeExpr::N2),
            unrollable: false,
            body: vec![Stmt::ops(AluOp::FmaF32, 1)],
        })];
        let p = lower(&k, Family::Maxwell, LowerOptions::default());
        // 64² = 4096 items. With 4096 threads → 1 iteration; with 1024
        // threads → 4 iterations.
        let wide = expected_mix(&p, LaunchGeometry::new(64, 512, 8));
        let narrow = expected_mix(&p, LaunchGeometry::new(64, 128, 8));
        assert_eq!(wide.get(OpClass::FpIns32), 1.0);
        assert_eq!(narrow.get(OpClass::FpIns32), 4.0);
    }
}
