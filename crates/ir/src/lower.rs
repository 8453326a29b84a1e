//! Lowering from the structured AST to the PTX-like linear IR.
//!
//! This pass plays the role `nvcc`'s code generator plays in the paper's
//! pipeline: it turns structured loops and branches into basic blocks with
//! explicit address arithmetic, loop bookkeeping (induction increments,
//! exit tests) and barriers, assigns virtual registers, and records the
//! symbolic execution frequency of every block.
//!
//! Two properties matter downstream:
//!
//! 1. **Loop overhead is explicit.** Every loop iteration pays an
//!    induction-variable add, an exit-test `setp`, and a branch. The
//!    unrolling transformation (in `oriole-codegen`) reduces the number of
//!    latch executions — exactly the effect loop unrolling has on real
//!    SASS, and the reason the `UIF` tuning parameter changes instruction
//!    mixes.
//! 2. **Fast-math changes instruction selection.** With
//!    [`LowerOptions::fast_math`], divides, square roots, exponentials and
//!    trigonometric operations lower to short approximation sequences
//!    instead of refined full-precision expansions, mirroring
//!    `-use_fast_math`.
//!
//! # Arena lowering
//!
//! Blocks are born Vec-indexed: every control-flow edge is expressed as a
//! dense [`BlockId`] the moment it is created (`upcoming_id` arithmetic on
//! the arena length), never as a label string to be resolved later. Labels
//! exist purely for human-readable disassembly. [`lower_indexed`] is this
//! walk followed by [`ProgramIndex::build`], the one place an index is
//! built.

use crate::ast::{AccessPattern, AluOp, KernelAst, MemSpace, MemStmt, Stmt, TripCount};
use crate::block::{BasicBlock, BlockId, FreqExpr, Program, ProgramMeta, Terminator};
use crate::index::ProgramIndex;
// `R(r)` is a register source (`Operand::Reg`), the lowerer's commonest.
use crate::instr::Operand::{self, FImm, Imm, Param, Reg as R, Special};
use crate::instr::{Instr, Pred, Reg, SpecialReg};
use crate::isa::{CmpOp, OpKind, Opcode, Ty};
use oriole_arch::Family;

/// Options affecting instruction selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LowerOptions {
    /// Select fast approximate sequences for div/sqrt/exp/log/sin
    /// (the `-use_fast_math` compiler flag).
    pub fast_math: bool,
}

/// Whether `ast` holds an op whose lowering reads [`LowerOptions::fast_math`].
pub fn reads_fast_math(ast: &KernelAst) -> bool {
    let mut reads = false;
    ast.visit(&mut |s| reads |= matches!(s, Stmt::Op(o) if fast_math_op(o.op)));
    reads
}

/// The ops `-use_fast_math` swaps for approximation sequences: the one
/// list, consulted by every `lower_alu` branch that reads the flag.
fn fast_math_op(op: AluOp) -> bool {
    matches!(op, AluOp::DivF32 | AluOp::SqrtF32 | AluOp::ExpF32 | AluOp::LogF32 | AluOp::SinCosF32)
}

/// Lowers a kernel AST to a linear-IR [`Program`] targeting `family`.
///
/// The produced program's `meta.regs_per_thread` is left at zero — the
/// register allocator in `oriole-codegen` fills it in, exactly as `ptxas`
/// (not the PTX generator) decides register usage in the real toolchain.
pub fn lower(ast: &KernelAst, family: Family, opts: LowerOptions) -> Program {
    LowerCtx::new(family, opts).run(ast)
}

/// Lowers a kernel AST and builds its [`ProgramIndex`]: [`lower`], then
/// one [`ProgramIndex::build`]. The one product caller of `build` the
/// workspace's `clippy.toml` allows besides the disassembly analyzer, so
/// a front-end artifact holds exactly one index.
#[allow(clippy::disallowed_methods)]
pub fn lower_indexed(
    ast: &KernelAst,
    family: Family,
    opts: LowerOptions,
) -> (Program, ProgramIndex) {
    let program = lower(ast, family, opts);
    let index = ProgramIndex::build(&program);
    (program, index)
}

struct LowerCtx {
    family: Family,
    opts: LowerOptions,
    blocks: Vec<BasicBlock>,
    /// Instructions accumulating for the block currently being built.
    cur: Vec<Instr>,
    cur_label: String,
    cur_freq: FreqExpr,
    next_reg: u32,
    next_pred: u32,
    next_label: u32,
    /// Rolling window of recently defined value registers, used as
    /// operand sources so live ranges look realistic.
    window: Vec<Reg>,
    /// Round-robin cursor into `window`.
    cursor: usize,
}

impl LowerCtx {
    fn new(family: Family, opts: LowerOptions) -> Self {
        Self {
            family,
            opts,
            blocks: Vec::new(),
            cur: Vec::new(),
            cur_label: "entry".to_string(),
            cur_freq: FreqExpr::Once,
            next_reg: 0,
            next_pred: 0,
            next_label: 0,
            window: Vec::new(),
            cursor: 0,
        }
    }

    fn run(&mut self, ast: &KernelAst) -> Program {
        self.emit_prologue();
        let body_freq = FreqExpr::Once;
        self.lower_stmts(&ast.body, &body_freq);
        // Final block: exit.
        self.cur.push(Instr::new(Opcode::new(OpKind::Exit, Ty::U32), None, []));
        self.seal_block(Terminator::Ret);
        let program = Program {
            name: ast.name.as_str().into(),
            meta: ProgramMeta {
                family: self.family,
                regs_per_thread: 0,
                smem_static: 0,
                spill_bytes: 0,
            },
            blocks: std::mem::take(&mut self.blocks).into(),
        };
        debug_assert!(program.validate().is_empty(), "{:?}", program.validate());
        program
    }

    /// Global-thread-id computation every data-parallel kernel performs.
    fn emit_prologue(&mut self) {
        let tid = self.def(OpKind::Mov, Ty::U32, [Special(SpecialReg::TidX)]);
        let ctaid = self.def(OpKind::Mov, Ty::U32, [Special(SpecialReg::CtaIdX)]);
        let ntid = self.def(OpKind::Mov, Ty::U32, [Special(SpecialReg::NTidX)]);
        let base = self.def(OpKind::Mul, Ty::S32, [R(ctaid), R(ntid)]);
        let gtid = self.def(OpKind::Add, Ty::S32, [R(base), R(tid)]);
        self.window = vec![tid, gtid];
        self.cursor = 0;
    }

    // ------------------------------------------------------------------
    // Register plumbing

    fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn fresh_pred(&mut self) -> Pred {
        let p = Pred(self.next_pred);
        self.next_pred += 1;
        p
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        let l = format!("{stem}{}", self.next_label);
        self.next_label += 1;
        l
    }

    /// Picks a source register from the rolling window.
    fn pick(&mut self) -> Reg {
        if self.window.is_empty() {
            // Should not happen after the prologue, but stay total.
            let r = self.def(OpKind::Mov, Ty::F32, [FImm(0.0)]);
            return r;
        }
        let r = self.window[self.cursor % self.window.len()];
        self.cursor += 1;
        r
    }

    /// Emits an instruction defining a fresh register and pushes it into
    /// the source window.
    fn def<const N: usize>(&mut self, kind: OpKind, ty: Ty, srcs: [Operand; N]) -> Reg {
        let dst = self.fresh_reg();
        self.cur.push(Instr::new(Opcode::new(kind, ty), Some(dst), srcs));
        self.push_window(dst);
        dst
    }

    /// Emits a `setp.lt` of `srcs` into a fresh predicate.
    fn setp(&mut self, ty: Ty, srcs: [Operand; 2]) -> Pred {
        let p = self.fresh_pred();
        let mut setp = Instr::new(Opcode::new(OpKind::Setp(CmpOp::Lt), ty), None, srcs);
        setp.dst_pred = Some(p);
        self.cur.push(setp);
        p
    }

    fn push_window(&mut self, r: Reg) {
        const WINDOW: usize = 12;
        self.window.push(r);
        if self.window.len() > WINDOW {
            self.window.remove(0);
        }
    }

    // ------------------------------------------------------------------
    // Block plumbing

    /// Finishes the current block with `term` and starts a new empty one
    /// labelled `next_label` at frequency `next_freq`.
    fn seal_and_start(&mut self, term: Terminator, next_label: String, next_freq: FreqExpr) {
        self.seal_block(term);
        self.cur_label = next_label;
        self.cur_freq = next_freq;
    }

    fn seal_block(&mut self, term: Terminator) {
        self.blocks.push(BasicBlock {
            label: std::mem::take(&mut self.cur_label),
            // One exact allocation a block; `cur` keeps its capacity.
            instrs: self.cur.drain(..).collect(),
            term,
            freq: std::mem::replace(&mut self.cur_freq, FreqExpr::Once),
        });
    }

    /// Id the *next* sealed block will get.
    fn upcoming_id(&self, offset: u32) -> BlockId {
        BlockId(self.blocks.len() as u32 + offset)
    }

    // ------------------------------------------------------------------
    // Statement lowering

    fn lower_stmts(&mut self, stmts: &[Stmt], freq: &FreqExpr) {
        for stmt in stmts {
            self.lower_stmt(stmt, freq);
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt, freq: &FreqExpr) {
        match stmt {
            Stmt::Op(op) => {
                for _ in 0..op.count {
                    self.lower_alu(op.op);
                }
            }
            Stmt::Load(m) => {
                for _ in 0..m.count {
                    let addr = self.lower_address(m);
                    self.load(m.space, Self::addr_ty(m.elem_bytes), addr, m.pattern);
                }
            }
            Stmt::Store(m) => {
                for _ in 0..m.count {
                    let addr = self.lower_address(m);
                    let val = self.pick();
                    self.store(m.space, Self::addr_ty(m.elem_bytes), [R(addr), R(val)], m.pattern);
                }
            }
            Stmt::SyncThreads => {
                self.cur
                    .push(Instr::new(Opcode::new(OpKind::Bar, Ty::U32), None, []));
            }
            Stmt::Loop(l) => self.lower_loop(l, freq),
            Stmt::If(b) => self.lower_if(b, freq),
        }
    }

    /// Whether `op` takes its fast-math sequence. Only an op
    /// [`fast_math_op`] lists may ask: a key drops the flag otherwise.
    fn fast(&self, op: AluOp) -> bool {
        debug_assert!(fast_math_op(op), "{op:?} reads fast_math but is not listed");
        self.opts.fast_math
    }

    fn lower_alu(&mut self, op: AluOp) {
        match op {
            AluOp::AddF32 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Add, Ty::F32, [R(a), R(b)]);
            }
            AluOp::MulF32 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Mul, Ty::F32, [R(a), R(b)]);
            }
            AluOp::FmaF32 => {
                let (a, b, c) = (self.pick(), self.pick(), self.pick());
                self.def(OpKind::Fma, Ty::F32, [R(a), R(b), R(c)]);
            }
            AluOp::AddF64 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Add, Ty::F64, [R(a), R(b)]);
            }
            AluOp::MulF64 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Mul, Ty::F64, [R(a), R(b)]);
            }
            AluOp::FmaF64 => {
                let (a, b, c) = (self.pick(), self.pick(), self.pick());
                self.def(OpKind::Fma, Ty::F64, [R(a), R(b), R(c)]);
            }
            AluOp::DivF32 => {
                // Full precision: reciprocal + multiply + two Newton
                // refinement FMAs. Fast math: reciprocal + multiply.
                let d = self.pick();
                let r = self.def(OpKind::Rcp, Ty::F32, [R(d)]);
                let n = self.pick();
                let q = self.def(OpKind::Mul, Ty::F32, [R(n), R(r)]);
                if !self.fast(op) {
                    let e = self.def(OpKind::Fma, Ty::F32, [R(q), R(d), R(n)]);
                    self.def(OpKind::Fma, Ty::F32, [R(e), R(r), R(q)]);
                }
            }
            AluOp::SqrtF32 => {
                let a = self.pick();
                let s = self.def(OpKind::Sqrt, Ty::F32, [R(a)]);
                if !self.fast(op) {
                    let h = self.def(OpKind::Mul, Ty::F32, [R(s), FImm(0.5)]);
                    self.def(OpKind::Fma, Ty::F32, [R(h), R(s), R(a)]);
                }
            }
            AluOp::ExpF32 => {
                let a = self.pick();
                let scaled = self.def(OpKind::Mul, Ty::F32, [R(a), FImm(std::f64::consts::LOG2_E)]);
                let e = self.def(OpKind::Ex2, Ty::F32, [R(scaled)]);
                if !self.fast(op) {
                    let f = self.def(OpKind::Fma, Ty::F32, [R(e), R(scaled), R(a)]);
                    self.def(OpKind::Fma, Ty::F32, [R(f), R(e), R(a)]);
                }
            }
            AluOp::LogF32 => {
                let a = self.pick();
                let l = self.def(OpKind::Lg2, Ty::F32, [R(a)]);
                self.def(OpKind::Mul, Ty::F32, [R(l), FImm(std::f64::consts::LN_2)]);
                if !self.fast(op) {
                    let p = self.pick();
                    self.def(OpKind::Fma, Ty::F32, [R(l), R(p), R(a)]);
                }
            }
            AluOp::SinCosF32 => {
                let a = self.pick();
                if !self.fast(op) {
                    // Payne–Hanek-style range reduction before the SFU op.
                    let k = self.def(OpKind::Fma, Ty::F32, [
                        R(a),
                        FImm(std::f64::consts::FRAC_1_PI),
                        FImm(0.5),
                    ]);
                    let r = self.def(OpKind::Fma, Ty::F32, [
                        R(k),
                        FImm(-std::f64::consts::PI),
                        R(a),
                    ]);
                    self.def(OpKind::Sin, Ty::F32, [R(r)]);
                } else {
                    self.def(OpKind::Sin, Ty::F32, [R(a)]);
                }
            }
            AluOp::CmpF32 => {
                let (a, b) = (self.pick(), self.pick());
                self.setp(Ty::F32, [R(a), R(b)]);
            }
            AluOp::MinMaxF32 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Min, Ty::F32, [R(a), R(b)]);
            }
            AluOp::AddI32 => {
                let a = self.pick();
                self.def(OpKind::Add, Ty::S32, [R(a), Imm(1)]);
            }
            AluOp::MulI32 => {
                let (a, b) = (self.pick(), self.pick());
                if self.family >= Family::Maxwell {
                    // Maxwell/Pascal have no 32-bit IMUL datapath: the
                    // compiler emits an XMAD sequence (two 16-bit
                    // multiply-adds plus a shift).
                    let lo = self.def(OpKind::Mul, Ty::S32, [R(a), R(b)]);
                    let sh = self.def(OpKind::Shift, Ty::U32, [R(lo), Imm(16)]);
                    self.def(OpKind::Add, Ty::S32, [R(sh), R(lo)]);
                } else {
                    self.def(OpKind::Mul, Ty::S32, [R(a), R(b)]);
                }
            }
            AluOp::CmpI32 => {
                let (a, b) = (self.pick(), self.pick());
                self.setp(Ty::S32, [R(a), R(b)]);
            }
            AluOp::BitI32 => {
                let a = self.pick();
                self.def(OpKind::Logic, Ty::U32, [R(a), Imm(0xff)]);
            }
            AluOp::ShuffleF32 => {
                let a = self.pick();
                if self.family == Family::Fermi {
                    // Fermi (cc 2.x) has no warp-shuffle datapath: the
                    // lane-exchange idiom round-trips through shared
                    // memory instead.
                    let addr = self.def(OpKind::Add, Ty::S32, [R(a), Imm(4)]);
                    let coalesced = AccessPattern::Coalesced;
                    self.store(MemSpace::Shared, Ty::F32, [R(addr), R(a)], coalesced);
                    self.load(MemSpace::Shared, Ty::F32, addr, coalesced);
                } else {
                    self.def(OpKind::Logic, Ty::U32, [R(a), Imm(0xff)]);
                }
            }
            AluOp::CvtI32F32 => {
                let a = self.pick();
                self.def(OpKind::Cvt(Ty::S32), Ty::F32, [R(a)]);
            }
            AluOp::Cvt64 => {
                let a = self.pick();
                self.def(OpKind::Cvt(Ty::F32), Ty::F64, [R(a)]);
            }
        }
    }

    fn addr_ty(elem_bytes: u8) -> Ty {
        if elem_bytes == 8 {
            Ty::F64
        } else {
            Ty::F32
        }
    }

    /// Address computation for one access; the pattern decides how much
    /// integer arithmetic is needed.
    fn lower_address(&mut self, m: &MemStmt) -> Reg {
        match m.pattern {
            AccessPattern::Coalesced => {
                let base = self.pick();
                self.def(OpKind::Add, Ty::S32, [R(base), Imm(i64::from(m.elem_bytes))])
            }
            AccessPattern::Strided(stride) => {
                let idx = self.pick();
                let scaled = self.def(OpKind::Mul, Ty::S32, [R(idx), Imm(i64::from(stride))]);
                self.def(OpKind::Add, Ty::S32, [R(scaled), Imm(i64::from(m.elem_bytes))])
            }
            AccessPattern::Random => {
                let idx = self.pick();
                let hashed = self.def(OpKind::Logic, Ty::U32, [R(idx), Imm(0x9e37)]);
                self.def(OpKind::Add, Ty::S32, [R(hashed), Imm(i64::from(m.elem_bytes))])
            }
            AccessPattern::Broadcast => {
                // Uniform address: one mov from a parameter.
                self.def(OpKind::Mov, Ty::S32, [Param(0)])
            }
        }
    }

    /// Emits a load from `addr` into a fresh register in the window.
    fn load(&mut self, space: MemSpace, ty: Ty, addr: Reg, pattern: AccessPattern) {
        let dst = self.fresh_reg();
        let ld = Instr::new(Opcode::new(OpKind::Ld(space), ty), Some(dst), [R(addr)]);
        self.cur.push(ld.with_mem(pattern));
        self.push_window(dst);
    }

    /// Emits a store of `[address, value]`.
    fn store(&mut self, space: MemSpace, ty: Ty, srcs: [Operand; 2], pattern: AccessPattern) {
        let st = Instr::new(Opcode::new(OpKind::St(space), ty), None, srcs);
        self.cur.push(st.with_mem(pattern));
    }

    fn lower_loop(&mut self, l: &crate::ast::Loop, freq: &FreqExpr) {
        // Preheader: induction init + (for grid-stride) bound arithmetic.
        let induction = self.def(OpKind::Mov, Ty::S32, [Imm(0)]);
        if matches!(l.trip, TripCount::GridStride(_) | TripCount::BlockShare(_)) {
            // bound = ceil(items / (ntid*nctaid)) — division by the grid
            // size, two extra integer ops.
            let ntid = self.def(OpKind::Mov, Ty::U32, [Special(SpecialReg::NTidX)]);
            let ncta = self.def(OpKind::Mov, Ty::U32, [Special(SpecialReg::NCtaIdX)]);
            self.def(OpKind::Mul, Ty::S32, [R(ntid), R(ncta)]);
        }

        let body_label = self.fresh_label("loop");
        let body_freq = freq.clone().times(FreqExpr::Trip(l.trip));
        // Current block jumps into the loop body.
        let body_id = self.upcoming_id(1);
        self.seal_and_start(Terminator::Jump(body_id), body_label, body_freq.clone());

        self.lower_stmts(&l.body, &body_freq);

        // Latch: induction increment + exit test + loop-back.
        let next = self.def(OpKind::Add, Ty::S32, [R(induction), Imm(1)]);
        self.setp(Ty::S32, [R(next), Imm(1 << 20)]);

        let exit_label = self.fresh_label("after");
        // The body chain may have created inner blocks; the loop target is
        // the first body block (body_id), the exit is the block we are
        // about to open.
        let exit_id = self.upcoming_id(1);
        self.seal_and_start(
            Terminator::LoopBack { target: body_id, exit: exit_id, trip: l.trip },
            exit_label,
            freq.clone(),
        );
    }

    fn lower_if(&mut self, b: &crate::ast::Branch, freq: &FreqExpr) {
        use crate::ast::DivergenceKind;
        // Condition: compare something thread-dependent (or uniform).
        let lhs = if b.divergence == DivergenceKind::ThreadDependent {
            self.def(OpKind::Mov, Ty::U32, [Special(SpecialReg::TidX)])
        } else {
            self.def(OpKind::Mov, Ty::U32, [Special(SpecialReg::CtaIdX)])
        };
        let p = self.setp(Ty::S32, [R(lhs), Param(1)]);

        let divergent = b.divergence == DivergenceKind::ThreadDependent;
        let then_label = self.fresh_label("then");
        let frac = |p: f64| {
            if divergent {
                FreqExpr::DivFraction(p)
            } else {
                FreqExpr::Fraction(p)
            }
        };
        let then_freq = freq.clone().times(frac(b.taken_fraction));
        let else_freq = freq.clone().times(frac(1.0 - b.taken_fraction));
        let has_else = !b.else_body.is_empty();

        // We don't know the block ids of the else/merge chains until the
        // then-chain is lowered, so lower into a scratch program and
        // re-link. Simpler: reserve the pattern — seal current with a
        // placeholder and patch afterwards.
        let cond_block_index = self.blocks.len();
        self.seal_and_start(
            Terminator::Ret, // placeholder, patched below
            then_label,
            then_freq,
        );
        let then_id = BlockId(cond_block_index as u32 + 1);
        let active_freq = self.cur_freq.clone();
        self.lower_stmts(&b.then_body, &active_freq);
        let then_end_index = self.blocks.len();
        let next_label = self.fresh_label(if has_else { "else" } else { "merge" });
        self.seal_and_start(
            Terminator::Ret, // placeholder, patched below
            next_label,
            if has_else { else_freq.clone() } else { freq.clone() },
        );

        if has_else {
            let else_id = BlockId(then_end_index as u32 + 1);
            let active_freq = self.cur_freq.clone();
            self.lower_stmts(&b.else_body, &active_freq);
            let else_end_index = self.blocks.len();
            let merge_label = self.fresh_label("merge");
            self.seal_and_start(
                Terminator::Ret, // placeholder, patched below
                merge_label,
                freq.clone(),
            );
            let merge_id = BlockId(else_end_index as u32 + 1);
            self.blocks[cond_block_index].term = Terminator::CondBranch {
                pred: p,
                taken: then_id,
                fallthrough: else_id,
                divergent,
                taken_fraction: b.taken_fraction,
            };
            self.blocks[then_end_index].term = Terminator::Jump(merge_id);
            self.blocks[else_end_index].term = Terminator::Jump(merge_id);
        } else {
            let merge_id = BlockId(then_end_index as u32 + 1);
            self.blocks[cond_block_index].term = Terminator::CondBranch {
                pred: p,
                taken: then_id,
                fallthrough: merge_id,
                divergent,
                taken_fraction: b.taken_fraction,
            };
            self.blocks[then_end_index].term = Terminator::Jump(merge_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Branch, DivergenceKind, Loop, MemSpace, SizeExpr};
    use oriole_arch::OpClass;

    fn count_class(p: &Program, class: OpClass) -> usize {
        p.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.opcode.op_class() == class)
            .count()
    }

    #[test]
    fn straight_line_kernel_single_block_plus_exit() {
        let mut k = KernelAst::new("flat");
        k.body = vec![Stmt::ops(AluOp::FmaF32, 3)];
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        assert!(p.validate().is_empty());
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(count_class(&p, OpClass::FpIns32), 3);
    }

    #[test]
    fn loop_produces_three_blocks_with_trip_frequency() {
        let mut k = KernelAst::new("looped");
        k.body = vec![Stmt::Loop(Loop {
            trip: TripCount::Size(SizeExpr::N),
            unrollable: true,
            body: vec![Stmt::ops(AluOp::FmaF32, 1)],
        })];
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        assert!(p.validate().is_empty());
        // entry, loop body, after.
        assert_eq!(p.blocks.len(), 3);
        let body = &p.blocks[1];
        assert!(matches!(body.term, Terminator::LoopBack { .. }));
        // Body executes N times per thread.
        assert_eq!(body.freq.eval(128, 1, 1), 128.0);
        // After-block back to once.
        assert_eq!(p.blocks[2].freq.eval(128, 1, 1), 1.0);
        // The latch carries loop overhead: at least add + setp.
        assert!(count_class(&p, OpClass::PredIns) >= 1);
    }

    #[test]
    fn if_without_else_shapes_cfg() {
        let mut k = KernelAst::new("guarded");
        k.body = vec![Stmt::If(Branch {
            divergence: DivergenceKind::ThreadDependent,
            taken_fraction: 0.25,
            then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
            else_body: vec![],
        })];
        let p = lower(&k, Family::Maxwell, LowerOptions::default());
        assert!(p.validate().is_empty());
        // entry(cond), then, merge.
        assert_eq!(p.blocks.len(), 3);
        match &p.blocks[0].term {
            Terminator::CondBranch { divergent, taken_fraction, taken, fallthrough, .. } => {
                assert!(*divergent);
                assert_eq!(*taken_fraction, 0.25);
                assert_eq!(*taken, BlockId(1));
                assert_eq!(*fallthrough, BlockId(2));
            }
            other => panic!("expected CondBranch, got {other:?}"),
        }
        // Then-block frequency respects the fraction.
        assert!((p.blocks[1].freq.eval(1, 1, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn if_with_else_emits_both_sides() {
        let mut k = KernelAst::new("two_sided");
        k.body = vec![Stmt::If(Branch {
            divergence: DivergenceKind::Uniform,
            taken_fraction: 0.5,
            then_body: vec![Stmt::ops(AluOp::AddF32, 2)],
            else_body: vec![Stmt::ops(AluOp::MulF32, 3)],
        })];
        let p = lower(&k, Family::Fermi, LowerOptions::default());
        assert!(p.validate().is_empty());
        // entry, then, else, merge.
        assert_eq!(p.blocks.len(), 4);
        match &p.blocks[0].term {
            Terminator::CondBranch { divergent, .. } => assert!(!*divergent),
            other => panic!("expected CondBranch, got {other:?}"),
        }
        // Both arms rejoin at the merge block.
        assert_eq!(p.blocks[1].term, Terminator::Jump(BlockId(3)));
        assert_eq!(p.blocks[2].term, Terminator::Jump(BlockId(3)));
    }

    #[test]
    fn fast_math_shortens_divide() {
        let mut k = KernelAst::new("div");
        k.body = vec![Stmt::ops(AluOp::DivF32, 1)];
        let full = lower(&k, Family::Kepler, LowerOptions { fast_math: false });
        let fast = lower(&k, Family::Kepler, LowerOptions { fast_math: true });
        assert!(
            full.static_len() > fast.static_len(),
            "full {} vs fast {}",
            full.static_len(),
            fast.static_len()
        );
        // Both contain exactly one reciprocal (the SFU op).
        assert_eq!(count_class(&full, OpClass::LogSinCos), 1);
        assert_eq!(count_class(&fast, OpClass::LogSinCos), 1);
    }

    #[test]
    fn fast_math_shortens_sin_and_exp() {
        let mut k = KernelAst::new("sfu");
        k.body = vec![Stmt::ops(AluOp::SinCosF32, 1), Stmt::ops(AluOp::ExpF32, 1)];
        let full = lower(&k, Family::Pascal, LowerOptions { fast_math: false });
        let fast = lower(&k, Family::Pascal, LowerOptions { fast_math: true });
        assert!(full.static_len() > fast.static_len());
    }

    #[test]
    fn loads_carry_pattern_annotations() {
        let mut k = KernelAst::new("mem");
        k.body = vec![
            Stmt::load(MemSpace::Global, AccessPattern::Strided(64), 1),
            Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
        ];
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        let loads: Vec<_> = p
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i.opcode.kind, OpKind::Ld(_) | OpKind::St(_)))
            .collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].mem.unwrap().pattern, AccessPattern::Strided(64));
        assert_eq!(loads[1].mem.unwrap().pattern, AccessPattern::Coalesced);
        // Strided access costs extra address arithmetic (mul + add).
        assert!(count_class(&p, OpClass::IntAdd32) >= 3);
    }

    #[test]
    fn barrier_lowers_to_bar_sync() {
        let mut k = KernelAst::new("sync");
        k.body = vec![Stmt::SyncThreads];
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        let bars = p
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.opcode.kind == OpKind::Bar)
            .count();
        assert_eq!(bars, 1);
    }

    #[test]
    fn nested_loops_multiply_frequencies() {
        let mut k = KernelAst::new("nest");
        k.body = vec![Stmt::Loop(Loop {
            trip: TripCount::GridStride(SizeExpr::N2),
            unrollable: false,
            body: vec![Stmt::Loop(Loop {
                trip: TripCount::Size(SizeExpr::N),
                unrollable: true,
                body: vec![Stmt::ops(AluOp::FmaF32, 1)],
            })],
        })];
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        assert!(p.validate().is_empty());
        // Find the innermost body: the block with the FMA.
        let inner = p
            .blocks
            .iter()
            .find(|b| b.instrs.iter().any(|i| i.opcode.kind == OpKind::Fma))
            .unwrap();
        // N=64, 64·64=4096 grid threads → outer trip 1, inner 64.
        assert_eq!(inner.freq.eval(64, 64, 64), 64.0);
        // N=64, 128 threads → outer 32, inner 64 → 2048.
        assert_eq!(inner.freq.eval(64, 128, 1), 2048.0);
    }

    #[test]
    fn deterministic_lowering() {
        let mut k = KernelAst::new("det");
        k.body = vec![
            Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 2),
            Stmt::ops(AluOp::FmaF32, 4),
            Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
        ];
        let a = lower(&k, Family::Kepler, LowerOptions::default());
        let b = lower(&k, Family::Kepler, LowerOptions::default());
        assert_eq!(a, b);
    }
}
