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
//! # Arena-interned lowering
//!
//! Blocks are born Vec-indexed: every control-flow edge is expressed as a
//! dense [`BlockId`] the moment it is created (`upcoming_id` arithmetic on
//! the arena length), never as a label string to be resolved later. Labels
//! exist purely for human-readable disassembly, so during lowering the
//! current label is a two-word [`PendingLabel`] (stem + sequence number)
//! that is materialized to its `String` form only when the block seals.
//! The original string-label implementation is retained verbatim as the
//! `oracle` test module and property tests pin the two bit-identical.
//! [`lower_indexed`] is this walk followed by [`ProgramIndex::build`],
//! the one place an index is built.

use crate::ast::{AccessPattern, AluOp, KernelAst, MemSpace, MemStmt, Stmt, TripCount};
use crate::block::{BasicBlock, BlockId, FreqExpr, Program, ProgramMeta, Terminator};
use crate::index::ProgramIndex;
use crate::instr::{Instr, Operand, Pred, Reg, SpecialReg};
use crate::isa::{CmpOp, OpKind, Opcode, Ty};
use oriole_arch::Family;

/// Options affecting instruction selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LowerOptions {
    /// Select fast approximate sequences for div/sqrt/exp/log/sin
    /// (the `-use_fast_math` compiler flag).
    pub fast_math: bool,
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
/// one [`ProgramIndex::build`], which bumps the process-wide
/// index-build counter once.
pub fn lower_indexed(
    ast: &KernelAst,
    family: Family,
    opts: LowerOptions,
) -> (Program, ProgramIndex) {
    let program = lower(ast, family, opts);
    let index = ProgramIndex::build(&program);
    (program, index)
}

/// Label stems the lowerer can open blocks under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelStem {
    Entry,
    Loop,
    After,
    Then,
    Else,
    Merge,
}

impl LabelStem {
    fn as_str(self) -> &'static str {
        match self {
            LabelStem::Entry => "entry",
            LabelStem::Loop => "loop",
            LabelStem::After => "after",
            LabelStem::Then => "then",
            LabelStem::Else => "else",
            LabelStem::Merge => "merge",
        }
    }
}

/// An interned block label: stem plus sequence number, `Copy`, no heap.
///
/// Lowering never consults label contents — all control flow is dense
/// [`BlockId`] arithmetic — so the `String` form is produced exactly once,
/// at seal time. `materialize` must stay byte-identical to the eager
/// `format!("{stem}{seq}")` the string oracle uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingLabel {
    stem: LabelStem,
    seq: u32,
}

impl PendingLabel {
    /// The unnumbered label of the first block.
    const ENTRY: PendingLabel = PendingLabel { stem: LabelStem::Entry, seq: 0 };

    fn materialize(self) -> String {
        match self.stem {
            LabelStem::Entry => self.stem.as_str().to_string(),
            stem => format!("{}{}", stem.as_str(), self.seq),
        }
    }
}

struct LowerCtx {
    family: Family,
    opts: LowerOptions,
    blocks: Vec<BasicBlock>,
    /// Instructions accumulating for the block currently being built.
    cur: Vec<Instr>,
    cur_label: PendingLabel,
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
            cur_label: PendingLabel::ENTRY,
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
        self.cur.push(Instr::new(Opcode::new(OpKind::Exit, Ty::U32), None, vec![]));
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
        let tid = self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::TidX)]);
        let ctaid = self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::CtaIdX)]);
        let ntid = self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::NTidX)]);
        let base = self.def(
            OpKind::Mul,
            Ty::S32,
            vec![Operand::Reg(ctaid), Operand::Reg(ntid)],
        );
        let gtid = self.def(OpKind::Add, Ty::S32, vec![Operand::Reg(base), Operand::Reg(tid)]);
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

    fn fresh_label(&mut self, stem: LabelStem) -> PendingLabel {
        let l = PendingLabel { stem, seq: self.next_label };
        self.next_label += 1;
        l
    }

    /// Picks a source register from the rolling window.
    fn pick(&mut self) -> Reg {
        if self.window.is_empty() {
            // Should not happen after the prologue, but stay total.
            let r = self.def(OpKind::Mov, Ty::F32, vec![Operand::FImm(0.0)]);
            return r;
        }
        let r = self.window[self.cursor % self.window.len()];
        self.cursor += 1;
        r
    }

    /// Emits an instruction defining a fresh register and pushes it into
    /// the source window.
    fn def(&mut self, kind: OpKind, ty: Ty, srcs: Vec<Operand>) -> Reg {
        let dst = self.fresh_reg();
        self.cur.push(Instr::new(Opcode::new(kind, ty), Some(dst), srcs));
        self.push_window(dst);
        dst
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
    fn seal_and_start(&mut self, term: Terminator, next_label: PendingLabel, next_freq: FreqExpr) {
        self.seal_block(term);
        self.cur_label = next_label;
        self.cur_freq = next_freq;
    }

    fn seal_block(&mut self, term: Terminator) {
        self.blocks.push(BasicBlock {
            label: self.cur_label.materialize(),
            instrs: std::mem::take(&mut self.cur),
            term,
            freq: self.cur_freq.clone(),
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
                    self.lower_load(m);
                }
            }
            Stmt::Store(m) => {
                for _ in 0..m.count {
                    self.lower_store(m);
                }
            }
            Stmt::SyncThreads => {
                self.cur
                    .push(Instr::new(Opcode::new(OpKind::Bar, Ty::U32), None, vec![]));
            }
            Stmt::Loop(l) => self.lower_loop(l, freq),
            Stmt::If(b) => self.lower_if(b, freq),
        }
    }

    fn lower_alu(&mut self, op: AluOp) {
        let fast = self.opts.fast_math;
        match op {
            AluOp::AddF32 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Add, Ty::F32, vec![Operand::Reg(a), Operand::Reg(b)]);
            }
            AluOp::MulF32 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Mul, Ty::F32, vec![Operand::Reg(a), Operand::Reg(b)]);
            }
            AluOp::FmaF32 => {
                let (a, b, c) = (self.pick(), self.pick(), self.pick());
                self.def(
                    OpKind::Fma,
                    Ty::F32,
                    vec![Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)],
                );
            }
            AluOp::AddF64 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Add, Ty::F64, vec![Operand::Reg(a), Operand::Reg(b)]);
            }
            AluOp::MulF64 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Mul, Ty::F64, vec![Operand::Reg(a), Operand::Reg(b)]);
            }
            AluOp::FmaF64 => {
                let (a, b, c) = (self.pick(), self.pick(), self.pick());
                self.def(
                    OpKind::Fma,
                    Ty::F64,
                    vec![Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)],
                );
            }
            AluOp::DivF32 => {
                // Full precision: reciprocal + multiply + two Newton
                // refinement FMAs. Fast math: reciprocal + multiply.
                let d = self.pick();
                let r = self.def(OpKind::Rcp, Ty::F32, vec![Operand::Reg(d)]);
                let n = self.pick();
                let q = self.def(OpKind::Mul, Ty::F32, vec![Operand::Reg(n), Operand::Reg(r)]);
                if !fast {
                    let e =
                        self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(q),
                            Operand::Reg(d),
                            Operand::Reg(n),
                        ]);
                    self.def(OpKind::Fma, Ty::F32, vec![
                        Operand::Reg(e),
                        Operand::Reg(r),
                        Operand::Reg(q),
                    ]);
                }
            }
            AluOp::SqrtF32 => {
                let a = self.pick();
                let s = self.def(OpKind::Sqrt, Ty::F32, vec![Operand::Reg(a)]);
                if !fast {
                    let h = self.def(OpKind::Mul, Ty::F32, vec![
                        Operand::Reg(s),
                        Operand::FImm(0.5),
                    ]);
                    self.def(OpKind::Fma, Ty::F32, vec![
                        Operand::Reg(h),
                        Operand::Reg(s),
                        Operand::Reg(a),
                    ]);
                }
            }
            AluOp::ExpF32 => {
                let a = self.pick();
                let scaled = self.def(OpKind::Mul, Ty::F32, vec![
                    Operand::Reg(a),
                    Operand::FImm(std::f64::consts::LOG2_E),
                ]);
                let e = self.def(OpKind::Ex2, Ty::F32, vec![Operand::Reg(scaled)]);
                if !fast {
                    let f = self.def(OpKind::Fma, Ty::F32, vec![
                        Operand::Reg(e),
                        Operand::Reg(scaled),
                        Operand::Reg(a),
                    ]);
                    self.def(OpKind::Fma, Ty::F32, vec![
                        Operand::Reg(f),
                        Operand::Reg(e),
                        Operand::Reg(a),
                    ]);
                }
            }
            AluOp::LogF32 => {
                let a = self.pick();
                let l = self.def(OpKind::Lg2, Ty::F32, vec![Operand::Reg(a)]);
                self.def(OpKind::Mul, Ty::F32, vec![
                    Operand::Reg(l),
                    Operand::FImm(std::f64::consts::LN_2),
                ]);
                if !fast {
                    let p = self.pick();
                    self.def(OpKind::Fma, Ty::F32, vec![
                        Operand::Reg(l),
                        Operand::Reg(p),
                        Operand::Reg(a),
                    ]);
                }
            }
            AluOp::SinCosF32 => {
                let a = self.pick();
                if !fast {
                    // Payne–Hanek-style range reduction before the SFU op.
                    let k = self.def(OpKind::Fma, Ty::F32, vec![
                        Operand::Reg(a),
                        Operand::FImm(std::f64::consts::FRAC_1_PI),
                        Operand::FImm(0.5),
                    ]);
                    let r = self.def(OpKind::Fma, Ty::F32, vec![
                        Operand::Reg(k),
                        Operand::FImm(-std::f64::consts::PI),
                        Operand::Reg(a),
                    ]);
                    self.def(OpKind::Sin, Ty::F32, vec![Operand::Reg(r)]);
                } else {
                    self.def(OpKind::Sin, Ty::F32, vec![Operand::Reg(a)]);
                }
            }
            AluOp::CmpF32 => {
                let (a, b) = (self.pick(), self.pick());
                let p = self.fresh_pred();
                let mut i = Instr::new(
                    Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::F32),
                    None,
                    vec![Operand::Reg(a), Operand::Reg(b)],
                );
                i.dst_pred = Some(p);
                self.cur.push(i);
            }
            AluOp::MinMaxF32 => {
                let (a, b) = (self.pick(), self.pick());
                self.def(OpKind::Min, Ty::F32, vec![Operand::Reg(a), Operand::Reg(b)]);
            }
            AluOp::AddI32 => {
                let a = self.pick();
                self.def(OpKind::Add, Ty::S32, vec![Operand::Reg(a), Operand::Imm(1)]);
            }
            AluOp::MulI32 => {
                let (a, b) = (self.pick(), self.pick());
                if self.family >= Family::Maxwell {
                    // Maxwell/Pascal have no 32-bit IMUL datapath: the
                    // compiler emits an XMAD sequence (two 16-bit
                    // multiply-adds plus a shift).
                    let lo =
                        self.def(OpKind::Mul, Ty::S32, vec![Operand::Reg(a), Operand::Reg(b)]);
                    let sh = self.def(OpKind::Shift, Ty::U32, vec![
                        Operand::Reg(lo),
                        Operand::Imm(16),
                    ]);
                    self.def(OpKind::Add, Ty::S32, vec![Operand::Reg(sh), Operand::Reg(lo)]);
                } else {
                    self.def(OpKind::Mul, Ty::S32, vec![Operand::Reg(a), Operand::Reg(b)]);
                }
            }
            AluOp::CmpI32 => {
                let (a, b) = (self.pick(), self.pick());
                let p = self.fresh_pred();
                let mut i = Instr::new(
                    Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32),
                    None,
                    vec![Operand::Reg(a), Operand::Reg(b)],
                );
                i.dst_pred = Some(p);
                self.cur.push(i);
            }
            AluOp::BitI32 => {
                let a = self.pick();
                self.def(OpKind::Logic, Ty::U32, vec![Operand::Reg(a), Operand::Imm(0xff)]);
            }
            AluOp::ShuffleF32 => {
                let a = self.pick();
                if self.family == Family::Fermi {
                    // Fermi (cc 2.x) has no warp-shuffle datapath: the
                    // lane-exchange idiom round-trips through shared
                    // memory instead.
                    let addr = self.def(OpKind::Add, Ty::S32, vec![
                        Operand::Reg(a),
                        Operand::Imm(4),
                    ]);
                    let st = Instr::new(
                        Opcode::new(OpKind::St(MemSpace::Shared), Ty::F32),
                        None,
                        vec![Operand::Reg(addr), Operand::Reg(a)],
                    )
                    .with_mem(AccessPattern::Coalesced);
                    self.cur.push(st);
                    let dst = self.fresh_reg();
                    let ld = Instr::new(
                        Opcode::new(OpKind::Ld(MemSpace::Shared), Ty::F32),
                        Some(dst),
                        vec![Operand::Reg(addr)],
                    )
                    .with_mem(AccessPattern::Coalesced);
                    self.cur.push(ld);
                    self.push_window(dst);
                } else {
                    self.def(OpKind::Logic, Ty::U32, vec![Operand::Reg(a), Operand::Imm(0xff)]);
                }
            }
            AluOp::CvtI32F32 => {
                let a = self.pick();
                self.def(OpKind::Cvt(Ty::S32), Ty::F32, vec![Operand::Reg(a)]);
            }
            AluOp::Cvt64 => {
                let a = self.pick();
                self.def(OpKind::Cvt(Ty::F32), Ty::F64, vec![Operand::Reg(a)]);
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
                self.def(OpKind::Add, Ty::S32, vec![
                    Operand::Reg(base),
                    Operand::Imm(i64::from(m.elem_bytes)),
                ])
            }
            AccessPattern::Strided(stride) => {
                let idx = self.pick();
                let scaled = self.def(OpKind::Mul, Ty::S32, vec![
                    Operand::Reg(idx),
                    Operand::Imm(i64::from(stride)),
                ]);
                self.def(OpKind::Add, Ty::S32, vec![
                    Operand::Reg(scaled),
                    Operand::Imm(i64::from(m.elem_bytes)),
                ])
            }
            AccessPattern::Random => {
                let idx = self.pick();
                let hashed = self.def(OpKind::Logic, Ty::U32, vec![
                    Operand::Reg(idx),
                    Operand::Imm(0x9e37),
                ]);
                self.def(OpKind::Add, Ty::S32, vec![
                    Operand::Reg(hashed),
                    Operand::Imm(i64::from(m.elem_bytes)),
                ])
            }
            AccessPattern::Broadcast => {
                // Uniform address: one mov from a parameter.
                self.def(OpKind::Mov, Ty::S32, vec![Operand::Param(0)])
            }
        }
    }

    fn lower_load(&mut self, m: &MemStmt) {
        let addr = self.lower_address(m);
        let ty = Self::addr_ty(m.elem_bytes);
        let dst = self.fresh_reg();
        let instr = Instr::new(
            Opcode::new(OpKind::Ld(m.space), ty),
            Some(dst),
            vec![Operand::Reg(addr)],
        )
        .with_mem(m.pattern);
        self.cur.push(instr);
        self.push_window(dst);
    }

    fn lower_store(&mut self, m: &MemStmt) {
        let addr = self.lower_address(m);
        let val = self.pick();
        let ty = Self::addr_ty(m.elem_bytes);
        let instr = Instr::new(
            Opcode::new(OpKind::St(m.space), ty),
            None,
            vec![Operand::Reg(addr), Operand::Reg(val)],
        )
        .with_mem(m.pattern);
        self.cur.push(instr);
    }

    fn lower_loop(&mut self, l: &crate::ast::Loop, freq: &FreqExpr) {
        // Preheader: induction init + (for grid-stride) bound arithmetic.
        let induction = self.def(OpKind::Mov, Ty::S32, vec![Operand::Imm(0)]);
        if matches!(l.trip, TripCount::GridStride(_) | TripCount::BlockShare(_)) {
            // bound = ceil(items / (ntid*nctaid)) — division by the grid
            // size, two extra integer ops.
            let ntid = self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::NTidX)]);
            let ncta =
                self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::NCtaIdX)]);
            self.def(OpKind::Mul, Ty::S32, vec![Operand::Reg(ntid), Operand::Reg(ncta)]);
        }

        let body_label = self.fresh_label(LabelStem::Loop);
        let body_freq = freq.clone().times(FreqExpr::Trip(l.trip));
        // Current block jumps into the loop body.
        let body_id = self.upcoming_id(1);
        self.seal_and_start(Terminator::Jump(body_id), body_label, body_freq.clone());

        self.lower_stmts(&l.body, &body_freq);

        // Latch: induction increment + exit test + loop-back.
        let next = self.def(OpKind::Add, Ty::S32, vec![Operand::Reg(induction), Operand::Imm(1)]);
        let p = self.fresh_pred();
        let mut setp = Instr::new(
            Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32),
            None,
            vec![Operand::Reg(next), Operand::Imm(1 << 20)],
        );
        setp.dst_pred = Some(p);
        self.cur.push(setp);

        let exit_label = self.fresh_label(LabelStem::After);
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
            self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::TidX)])
        } else {
            self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::CtaIdX)])
        };
        let p = self.fresh_pred();
        let mut setp = Instr::new(
            Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32),
            None,
            vec![Operand::Reg(lhs), Operand::Param(1)],
        );
        setp.dst_pred = Some(p);
        self.cur.push(setp);

        let divergent = b.divergence == DivergenceKind::ThreadDependent;
        let then_label = self.fresh_label(LabelStem::Then);
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
        let next_label =
            self.fresh_label(if has_else { LabelStem::Else } else { LabelStem::Merge });
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
            let merge_label = self.fresh_label(LabelStem::Merge);
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

/// The pre-arena string-label lowerer, retained verbatim as the oracle
/// for the interned-label implementation: labels are formatted eagerly
/// with `format!`. Property tests pin [`lower`](super::lower)
/// bit-identical to [`oracle::lower`](lower).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn lower(ast: &KernelAst, family: Family, opts: LowerOptions) -> Program {
        let mut lowerer = Lowerer::new(family, opts);
        lowerer.run(ast)
    }

    struct Lowerer {
        family: Family,
        opts: LowerOptions,
        blocks: Vec<BasicBlock>,
        cur: Vec<Instr>,
        cur_label: String,
        cur_freq: FreqExpr,
        next_reg: u32,
        next_pred: u32,
        next_label: u32,
        window: Vec<Reg>,
        cursor: usize,
    }

    impl Lowerer {
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
            self.cur.push(Instr::new(Opcode::new(OpKind::Exit, Ty::U32), None, vec![]));
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

        fn emit_prologue(&mut self) {
            let tid = self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::TidX)]);
            let ctaid =
                self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::CtaIdX)]);
            let ntid = self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::NTidX)]);
            let base = self.def(
                OpKind::Mul,
                Ty::S32,
                vec![Operand::Reg(ctaid), Operand::Reg(ntid)],
            );
            let gtid =
                self.def(OpKind::Add, Ty::S32, vec![Operand::Reg(base), Operand::Reg(tid)]);
            self.window = vec![tid, gtid];
            self.cursor = 0;
        }

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

        fn pick(&mut self) -> Reg {
            if self.window.is_empty() {
                let r = self.def(OpKind::Mov, Ty::F32, vec![Operand::FImm(0.0)]);
                return r;
            }
            let r = self.window[self.cursor % self.window.len()];
            self.cursor += 1;
            r
        }

        fn def(&mut self, kind: OpKind, ty: Ty, srcs: Vec<Operand>) -> Reg {
            let dst = self.fresh_reg();
            self.cur.push(Instr::new(Opcode::new(kind, ty), Some(dst), srcs));
            self.push_window(dst);
            dst
        }

        fn push_window(&mut self, r: Reg) {
            const WINDOW: usize = 12;
            self.window.push(r);
            if self.window.len() > WINDOW {
                self.window.remove(0);
            }
        }

        fn seal_and_start(&mut self, term: Terminator, next_label: String, next_freq: FreqExpr) {
            self.seal_block(term);
            self.cur_label = next_label;
            self.cur_freq = next_freq;
        }

        fn seal_block(&mut self, term: Terminator) {
            let block = BasicBlock {
                label: std::mem::take(&mut self.cur_label),
                instrs: std::mem::take(&mut self.cur),
                term,
                freq: self.cur_freq.clone(),
            };
            self.blocks.push(block);
        }

        fn upcoming_id(&self, offset: u32) -> BlockId {
            BlockId(self.blocks.len() as u32 + offset)
        }

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
                        self.lower_load(m);
                    }
                }
                Stmt::Store(m) => {
                    for _ in 0..m.count {
                        self.lower_store(m);
                    }
                }
                Stmt::SyncThreads => {
                    self.cur
                        .push(Instr::new(Opcode::new(OpKind::Bar, Ty::U32), None, vec![]));
                }
                Stmt::Loop(l) => self.lower_loop(l, freq),
                Stmt::If(b) => self.lower_if(b, freq),
            }
        }

        fn lower_alu(&mut self, op: AluOp) {
            let fast = self.opts.fast_math;
            match op {
                AluOp::AddF32 => {
                    let (a, b) = (self.pick(), self.pick());
                    self.def(OpKind::Add, Ty::F32, vec![Operand::Reg(a), Operand::Reg(b)]);
                }
                AluOp::MulF32 => {
                    let (a, b) = (self.pick(), self.pick());
                    self.def(OpKind::Mul, Ty::F32, vec![Operand::Reg(a), Operand::Reg(b)]);
                }
                AluOp::FmaF32 => {
                    let (a, b, c) = (self.pick(), self.pick(), self.pick());
                    self.def(
                        OpKind::Fma,
                        Ty::F32,
                        vec![Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)],
                    );
                }
                AluOp::AddF64 => {
                    let (a, b) = (self.pick(), self.pick());
                    self.def(OpKind::Add, Ty::F64, vec![Operand::Reg(a), Operand::Reg(b)]);
                }
                AluOp::MulF64 => {
                    let (a, b) = (self.pick(), self.pick());
                    self.def(OpKind::Mul, Ty::F64, vec![Operand::Reg(a), Operand::Reg(b)]);
                }
                AluOp::FmaF64 => {
                    let (a, b, c) = (self.pick(), self.pick(), self.pick());
                    self.def(
                        OpKind::Fma,
                        Ty::F64,
                        vec![Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)],
                    );
                }
                AluOp::DivF32 => {
                    let d = self.pick();
                    let r = self.def(OpKind::Rcp, Ty::F32, vec![Operand::Reg(d)]);
                    let n = self.pick();
                    let q =
                        self.def(OpKind::Mul, Ty::F32, vec![Operand::Reg(n), Operand::Reg(r)]);
                    if !fast {
                        let e = self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(q),
                            Operand::Reg(d),
                            Operand::Reg(n),
                        ]);
                        self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(e),
                            Operand::Reg(r),
                            Operand::Reg(q),
                        ]);
                    }
                }
                AluOp::SqrtF32 => {
                    let a = self.pick();
                    let s = self.def(OpKind::Sqrt, Ty::F32, vec![Operand::Reg(a)]);
                    if !fast {
                        let h = self.def(OpKind::Mul, Ty::F32, vec![
                            Operand::Reg(s),
                            Operand::FImm(0.5),
                        ]);
                        self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(h),
                            Operand::Reg(s),
                            Operand::Reg(a),
                        ]);
                    }
                }
                AluOp::ExpF32 => {
                    let a = self.pick();
                    let scaled = self.def(OpKind::Mul, Ty::F32, vec![
                        Operand::Reg(a),
                        Operand::FImm(std::f64::consts::LOG2_E),
                    ]);
                    let e = self.def(OpKind::Ex2, Ty::F32, vec![Operand::Reg(scaled)]);
                    if !fast {
                        let f = self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(e),
                            Operand::Reg(scaled),
                            Operand::Reg(a),
                        ]);
                        self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(f),
                            Operand::Reg(e),
                            Operand::Reg(a),
                        ]);
                    }
                }
                AluOp::LogF32 => {
                    let a = self.pick();
                    let l = self.def(OpKind::Lg2, Ty::F32, vec![Operand::Reg(a)]);
                    self.def(OpKind::Mul, Ty::F32, vec![
                        Operand::Reg(l),
                        Operand::FImm(std::f64::consts::LN_2),
                    ]);
                    if !fast {
                        let p = self.pick();
                        self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(l),
                            Operand::Reg(p),
                            Operand::Reg(a),
                        ]);
                    }
                }
                AluOp::SinCosF32 => {
                    let a = self.pick();
                    if !fast {
                        let k = self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(a),
                            Operand::FImm(std::f64::consts::FRAC_1_PI),
                            Operand::FImm(0.5),
                        ]);
                        let r = self.def(OpKind::Fma, Ty::F32, vec![
                            Operand::Reg(k),
                            Operand::FImm(-std::f64::consts::PI),
                            Operand::Reg(a),
                        ]);
                        self.def(OpKind::Sin, Ty::F32, vec![Operand::Reg(r)]);
                    } else {
                        self.def(OpKind::Sin, Ty::F32, vec![Operand::Reg(a)]);
                    }
                }
                AluOp::CmpF32 => {
                    let (a, b) = (self.pick(), self.pick());
                    let p = self.fresh_pred();
                    let mut i = Instr::new(
                        Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::F32),
                        None,
                        vec![Operand::Reg(a), Operand::Reg(b)],
                    );
                    i.dst_pred = Some(p);
                    self.cur.push(i);
                }
                AluOp::MinMaxF32 => {
                    let (a, b) = (self.pick(), self.pick());
                    self.def(OpKind::Min, Ty::F32, vec![Operand::Reg(a), Operand::Reg(b)]);
                }
                AluOp::AddI32 => {
                    let a = self.pick();
                    self.def(OpKind::Add, Ty::S32, vec![Operand::Reg(a), Operand::Imm(1)]);
                }
                AluOp::MulI32 => {
                    let (a, b) = (self.pick(), self.pick());
                    if self.family >= Family::Maxwell {
                        let lo =
                            self.def(OpKind::Mul, Ty::S32, vec![Operand::Reg(a), Operand::Reg(b)]);
                        let sh = self.def(OpKind::Shift, Ty::U32, vec![
                            Operand::Reg(lo),
                            Operand::Imm(16),
                        ]);
                        self.def(OpKind::Add, Ty::S32, vec![
                            Operand::Reg(sh),
                            Operand::Reg(lo),
                        ]);
                    } else {
                        self.def(OpKind::Mul, Ty::S32, vec![Operand::Reg(a), Operand::Reg(b)]);
                    }
                }
                AluOp::CmpI32 => {
                    let (a, b) = (self.pick(), self.pick());
                    let p = self.fresh_pred();
                    let mut i = Instr::new(
                        Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32),
                        None,
                        vec![Operand::Reg(a), Operand::Reg(b)],
                    );
                    i.dst_pred = Some(p);
                    self.cur.push(i);
                }
                AluOp::BitI32 => {
                    let a = self.pick();
                    self.def(OpKind::Logic, Ty::U32, vec![Operand::Reg(a), Operand::Imm(0xff)]);
                }
                AluOp::ShuffleF32 => {
                    let a = self.pick();
                    if self.family == Family::Fermi {
                        let addr = self.def(OpKind::Add, Ty::S32, vec![
                            Operand::Reg(a),
                            Operand::Imm(4),
                        ]);
                        let st = Instr::new(
                            Opcode::new(OpKind::St(MemSpace::Shared), Ty::F32),
                            None,
                            vec![Operand::Reg(addr), Operand::Reg(a)],
                        )
                        .with_mem(AccessPattern::Coalesced);
                        self.cur.push(st);
                        let dst = self.fresh_reg();
                        let ld = Instr::new(
                            Opcode::new(OpKind::Ld(MemSpace::Shared), Ty::F32),
                            Some(dst),
                            vec![Operand::Reg(addr)],
                        )
                        .with_mem(AccessPattern::Coalesced);
                        self.cur.push(ld);
                        self.push_window(dst);
                    } else {
                        self.def(OpKind::Logic, Ty::U32, vec![
                            Operand::Reg(a),
                            Operand::Imm(0xff),
                        ]);
                    }
                }
                AluOp::CvtI32F32 => {
                    let a = self.pick();
                    self.def(OpKind::Cvt(Ty::S32), Ty::F32, vec![Operand::Reg(a)]);
                }
                AluOp::Cvt64 => {
                    let a = self.pick();
                    self.def(OpKind::Cvt(Ty::F32), Ty::F64, vec![Operand::Reg(a)]);
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

        fn lower_address(&mut self, m: &MemStmt) -> Reg {
            match m.pattern {
                AccessPattern::Coalesced => {
                    let base = self.pick();
                    self.def(OpKind::Add, Ty::S32, vec![
                        Operand::Reg(base),
                        Operand::Imm(i64::from(m.elem_bytes)),
                    ])
                }
                AccessPattern::Strided(stride) => {
                    let idx = self.pick();
                    let scaled = self.def(OpKind::Mul, Ty::S32, vec![
                        Operand::Reg(idx),
                        Operand::Imm(i64::from(stride)),
                    ]);
                    self.def(OpKind::Add, Ty::S32, vec![
                        Operand::Reg(scaled),
                        Operand::Imm(i64::from(m.elem_bytes)),
                    ])
                }
                AccessPattern::Random => {
                    let idx = self.pick();
                    let hashed = self.def(OpKind::Logic, Ty::U32, vec![
                        Operand::Reg(idx),
                        Operand::Imm(0x9e37),
                    ]);
                    self.def(OpKind::Add, Ty::S32, vec![
                        Operand::Reg(hashed),
                        Operand::Imm(i64::from(m.elem_bytes)),
                    ])
                }
                AccessPattern::Broadcast => {
                    self.def(OpKind::Mov, Ty::S32, vec![Operand::Param(0)])
                }
            }
        }

        fn lower_load(&mut self, m: &MemStmt) {
            let addr = self.lower_address(m);
            let ty = Self::addr_ty(m.elem_bytes);
            let dst = self.fresh_reg();
            let instr = Instr::new(
                Opcode::new(OpKind::Ld(m.space), ty),
                Some(dst),
                vec![Operand::Reg(addr)],
            )
            .with_mem(m.pattern);
            self.cur.push(instr);
            self.push_window(dst);
        }

        fn lower_store(&mut self, m: &MemStmt) {
            let addr = self.lower_address(m);
            let val = self.pick();
            let ty = Self::addr_ty(m.elem_bytes);
            let instr = Instr::new(
                Opcode::new(OpKind::St(m.space), ty),
                None,
                vec![Operand::Reg(addr), Operand::Reg(val)],
            )
            .with_mem(m.pattern);
            self.cur.push(instr);
        }

        fn lower_loop(&mut self, l: &crate::ast::Loop, freq: &FreqExpr) {
            let induction = self.def(OpKind::Mov, Ty::S32, vec![Operand::Imm(0)]);
            if matches!(l.trip, TripCount::GridStride(_) | TripCount::BlockShare(_)) {
                let ntid =
                    self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::NTidX)]);
                let ncta =
                    self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::NCtaIdX)]);
                self.def(OpKind::Mul, Ty::S32, vec![Operand::Reg(ntid), Operand::Reg(ncta)]);
            }

            let body_label = self.fresh_label("loop");
            let body_freq = freq.clone().times(FreqExpr::Trip(l.trip));
            let body_id = self.upcoming_id(1);
            self.seal_and_start(Terminator::Jump(body_id), body_label, body_freq.clone());

            self.lower_stmts(&l.body, &body_freq);

            let next =
                self.def(OpKind::Add, Ty::S32, vec![Operand::Reg(induction), Operand::Imm(1)]);
            let p = self.fresh_pred();
            let mut setp = Instr::new(
                Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32),
                None,
                vec![Operand::Reg(next), Operand::Imm(1 << 20)],
            );
            setp.dst_pred = Some(p);
            self.cur.push(setp);

            let exit_label = self.fresh_label("after");
            let exit_id = self.upcoming_id(1);
            self.seal_and_start(
                Terminator::LoopBack { target: body_id, exit: exit_id, trip: l.trip },
                exit_label,
                freq.clone(),
            );
        }

        fn lower_if(&mut self, b: &crate::ast::Branch, freq: &FreqExpr) {
            use crate::ast::DivergenceKind;
            let lhs = if b.divergence == DivergenceKind::ThreadDependent {
                self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::TidX)])
            } else {
                self.def(OpKind::Mov, Ty::U32, vec![Operand::Special(SpecialReg::CtaIdX)])
            };
            let p = self.fresh_pred();
            let mut setp = Instr::new(
                Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32),
                None,
                vec![Operand::Reg(lhs), Operand::Param(1)],
            );
            setp.dst_pred = Some(p);
            self.cur.push(setp);

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

            let cond_block_index = self.blocks.len();
            self.seal_and_start(Terminator::Ret, then_label, then_freq);
            let then_id = BlockId(cond_block_index as u32 + 1);
            let active_freq = self.cur_freq.clone();
            self.lower_stmts(&b.then_body, &active_freq);
            let then_end_index = self.blocks.len();
            let next_label = self.fresh_label(if has_else { "else" } else { "merge" });
            self.seal_and_start(
                Terminator::Ret,
                next_label,
                if has_else { else_freq.clone() } else { freq.clone() },
            );

            if has_else {
                let else_id = BlockId(then_end_index as u32 + 1);
                let active_freq = self.cur_freq.clone();
                self.lower_stmts(&b.else_body, &active_freq);
                let else_end_index = self.blocks.len();
                let merge_label = self.fresh_label("merge");
                self.seal_and_start(Terminator::Ret, merge_label, freq.clone());
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

    #[test]
    fn pending_label_materialization_matches_eager_format() {
        for (stem, eager) in [
            (LabelStem::Loop, "loop"),
            (LabelStem::After, "after"),
            (LabelStem::Then, "then"),
            (LabelStem::Else, "else"),
            (LabelStem::Merge, "merge"),
        ] {
            for seq in [0u32, 1, 9, 10, 123, u32::MAX] {
                assert_eq!(
                    PendingLabel { stem, seq }.materialize(),
                    format!("{eager}{seq}"),
                );
            }
        }
        assert_eq!(PendingLabel::ENTRY.materialize(), "entry");
    }

    #[test]
    fn interned_labels_match_string_oracle() {
        // Cover every block shape in one kernel: loops (plain and
        // grid-stride), one-armed and two-armed ifs, nesting.
        let mut k = KernelAst::new("oracle");
        k.body = vec![
            Stmt::ops(AluOp::FmaF32, 2),
            Stmt::Loop(Loop {
                trip: TripCount::GridStride(SizeExpr::N2),
                unrollable: false,
                body: vec![Stmt::If(Branch {
                    divergence: DivergenceKind::ThreadDependent,
                    taken_fraction: 0.25,
                    then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
                    else_body: vec![Stmt::ops(AluOp::MulF32, 2)],
                })],
            }),
            Stmt::If(Branch {
                divergence: DivergenceKind::Uniform,
                taken_fraction: 0.5,
                then_body: vec![Stmt::ops(AluOp::DivF32, 1)],
                else_body: vec![],
            }),
        ];
        for fast_math in [false, true] {
            let opts = LowerOptions { fast_math };
            for family in [Family::Fermi, Family::Kepler, Family::Maxwell, Family::Pascal] {
                assert_eq!(lower(&k, family, opts), oracle::lower(&k, family, opts));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ast::{Branch, DivergenceKind, Loop, SizeExpr};
    use proptest::prelude::*;

    fn arb_stmt(depth: u32) -> BoxedStrategy<Stmt> {
        let alu = prop_oneof![
            Just(AluOp::AddF32),
            Just(AluOp::MulF32),
            Just(AluOp::FmaF32),
            Just(AluOp::DivF32),
            Just(AluOp::SqrtF32),
            Just(AluOp::SinCosF32),
            Just(AluOp::MulI32),
            Just(AluOp::ShuffleF32),
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
            let mut k = KernelAst::new("lower_prop");
            k.body = body;
            k
        })
    }

    fn arb_family() -> impl Strategy<Value = Family> {
        prop_oneof![
            Just(Family::Fermi),
            Just(Family::Kepler),
            Just(Family::Maxwell),
            Just(Family::Pascal),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The interned-label arena lowerer is bit-identical to the
        /// retained string-label oracle across random ASTs × family ×
        /// fast-math.
        #[test]
        fn interned_lowering_bit_identical_to_oracle(
            ast in arb_kernel(),
            family in arb_family(),
            fast_math in any::<bool>(),
        ) {
            let opts = LowerOptions { fast_math };
            prop_assert_eq!(lower(&ast, family, opts), oracle::lower(&ast, family, opts));
        }
    }
}
