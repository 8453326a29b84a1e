//! Instructions, registers and operands.
//!
//! An [`Instr`] owns no heap buffer: its sources are an inline
//! [`Operands`] of at most three, the most any lowered instruction reads
//! (`fma`'s three), so a lowered program allocates per block, not per
//! instruction. The text parser refuses a listing line with a fourth.

use crate::ast::AccessPattern;
use crate::isa::Opcode;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A virtual register. Lowering assigns them SSA-style (one definition per
/// register in straight-line runs); the codegen register allocator later
/// folds them onto a physical budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// A predicate register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pred(pub u32);

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%p{}", self.0)
    }
}

/// Built-in thread-geometry registers (a subset of PTX's special
/// registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// `%tid.x` — thread index within the block.
    TidX,
    /// `%ntid.x` — block size.
    NTidX,
    /// `%ctaid.x` — block index within the grid.
    CtaIdX,
    /// `%nctaid.x` — grid size in blocks.
    NCtaIdX,
}

impl SpecialReg {
    /// PTX spelling.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::NTidX => "%ntid.x",
            SpecialReg::CtaIdX => "%ctaid.x",
            SpecialReg::NCtaIdX => "%nctaid.x",
        }
    }

    /// Parses a PTX special-register spelling.
    pub(crate) fn parse(s: &str) -> Option<SpecialReg> {
        Some(match s {
            "%tid.x" => SpecialReg::TidX,
            "%ntid.x" => SpecialReg::NTidX,
            "%ctaid.x" => SpecialReg::CtaIdX,
            "%nctaid.x" => SpecialReg::NCtaIdX,
            _ => return None,
        })
    }
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Virtual register.
    Reg(Reg),
    /// Predicate register (as a value, e.g. for `selp`).
    Pred(Pred),
    /// Integer immediate.
    Imm(i64),
    /// Floating immediate.
    FImm(f64),
    /// Kernel parameter slot (pointer or scalar argument `%paramN`).
    Param(u16),
    /// Special register.
    Special(SpecialReg),
}

impl Operand {
    /// The register read by this operand, if it is one.
    fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Whether evaluating this operand touches the register file (used by
    /// the `O_reg` register-instruction counter).
    fn touches_regfile(self) -> bool {
        matches!(self, Operand::Reg(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Pred(p) => write!(f, "{p}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::FImm(v) => {
                // Keep a distinguishing suffix so the parser can tell
                // float immediates from integers; {:?} preserves all
                // significant digits.
                write!(f, "{:?}f", v)
            }
            Operand::Param(i) => write!(f, "%param{i}"),
            Operand::Special(s) => write!(f, "{s}"),
        }
    }
}

/// An instruction's source operands, held inline: at most
/// [`Operands::CAPACITY`], dereferencing to `[Operand]`. Slots past the
/// length always hold the same filler, so equality compares operands.
#[derive(Clone, Copy, PartialEq)]
pub struct Operands {
    len: u8,
    slots: [Operand; Operands::CAPACITY],
}

impl Operands {
    /// The most source operands an instruction carries.
    pub const CAPACITY: usize = 3;

    /// Appends `op`, or hands it back when every slot is taken.
    pub(crate) fn push(&mut self, op: Operand) -> Result<(), Operand> {
        let slot = self.slots.get_mut(usize::from(self.len)).ok_or(op)?;
        *slot = op;
        self.len += 1;
        Ok(())
    }
}

impl<const N: usize> From<[Operand; N]> for Operands {
    fn from(ops: [Operand; N]) -> Self {
        const { assert!(N <= Operands::CAPACITY, "an instruction reads at most three operands") };
        let mut slots = [Operand::Imm(0); Operands::CAPACITY];
        slots[..N].copy_from_slice(&ops);
        Operands { len: N as u8, slots }
    }
}

impl Deref for Operands {
    type Target = [Operand];
    fn deref(&self) -> &[Operand] {
        &self.slots[..usize::from(self.len)]
    }
}

impl DerefMut for Operands {
    fn deref_mut(&mut self) -> &mut [Operand] {
        &mut self.slots[..usize::from(self.len)]
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Memory-behaviour annotation carried by load/store instructions.
///
/// `nvdisasm` output does not carry this, but the paper's dynamic analysis
/// recovers access patterns from the CFG and addressing expressions; we
/// keep the information explicit instead of re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAnnot {
    /// Warp-level access pattern.
    pub pattern: AccessPattern,
}

/// One instruction: optional guard predicate, opcode, optional destination
/// and source operands.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Guard: execute only in lanes where the predicate holds
    /// (`@%p0 ...`). `Some((pred, false))` means a negated guard
    /// (`@!%p0`).
    pub guard: Option<(Pred, bool)>,
    /// The typed opcode.
    pub opcode: Opcode,
    /// Destination register (None for stores, barriers, ...).
    pub dst: Option<Reg>,
    /// Destination predicate (for `setp`).
    pub dst_pred: Option<Pred>,
    /// Source operands.
    pub srcs: Operands,
    /// Memory annotation for loads/stores.
    pub mem: Option<MemAnnot>,
}

impl Instr {
    /// Creates a plain unguarded instruction.
    pub fn new<const N: usize>(opcode: Opcode, dst: Option<Reg>, srcs: [Operand; N]) -> Self {
        Self { guard: None, opcode, dst, dst_pred: None, srcs: srcs.into(), mem: None }
    }

    /// Attaches a memory annotation (builder style).
    pub(crate) fn with_mem(mut self, pattern: AccessPattern) -> Self {
        self.mem = Some(MemAnnot { pattern });
        self
    }

    /// Number of register-file accesses this instruction performs:
    /// destination write plus register source reads. This feeds the
    /// paper's `O_reg` ("Regs") counter.
    pub fn regfile_accesses(&self) -> u32 {
        let dst = u32::from(self.dst.is_some());
        let srcs = self.srcs.iter().filter(|o| o.touches_regfile()).count() as u32;
        dst + srcs
    }

    /// All registers read by this instruction.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|o| o.as_reg())
    }

    /// The register written, if any.
    pub fn def(&self) -> Option<Reg> {
        self.dst
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((p, neg)) = self.guard {
            write!(f, "@{}{} ", if neg { "!" } else { "" }, p)?;
        }
        write!(f, "{}", self.opcode)?;
        let dst_pred = self.dst_pred.iter().map(|p| p as &dyn fmt::Display);
        let dst = self.dst.iter().map(|d| d as &dyn fmt::Display);
        let srcs = self.srcs.iter().map(|s| s as &dyn fmt::Display);
        for (i, o) in dst_pred.chain(dst).chain(srcs).enumerate() {
            write!(f, "{}{o}", if i == 0 { " " } else { ", " })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CmpOp, OpKind, Ty};

    #[test]
    fn regfile_access_counting() {
        // fma %r2, %r0, %r1, %r2 → 1 write + 3 reads = 4 accesses.
        let i = Instr::new(
            Opcode::new(OpKind::Fma, Ty::F32),
            Some(Reg(2)),
            [Operand::Reg(Reg(0)), Operand::Reg(Reg(1)), Operand::Reg(Reg(2))],
        );
        assert_eq!(i.regfile_accesses(), 4);
        // mov %r0, 7 → 1 write, immediate source.
        let i = Instr::new(Opcode::new(OpKind::Mov, Ty::S32), Some(Reg(0)), [Operand::Imm(7)]);
        assert_eq!(i.regfile_accesses(), 1);
        // st.global has no dst: only source reads count.
        let i = Instr::new(
            Opcode::new(OpKind::St(crate::ast::MemSpace::Global), Ty::F32),
            None,
            [Operand::Reg(Reg(3)), Operand::Reg(Reg(4))],
        );
        assert_eq!(i.regfile_accesses(), 2);
    }

    #[test]
    fn display_formats() {
        let i = Instr::new(
            Opcode::new(OpKind::Add, Ty::F32),
            Some(Reg(5)),
            [Operand::Reg(Reg(1)), Operand::FImm(1.5)],
        );
        assert_eq!(i.to_string(), "add.f32 %r5, %r1, 1.5f");

        let mut setp = Instr::new(
            Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32),
            None,
            [Operand::Reg(Reg(0)), Operand::Special(SpecialReg::NTidX)],
        );
        setp.dst_pred = Some(Pred(0));
        assert_eq!(setp.to_string(), "setp.lt.s32 %p0, %r0, %ntid.x");

        let mut guarded = Instr::new(
            Opcode::new(OpKind::Mov, Ty::F32),
            Some(Reg(9)),
            [Operand::FImm(0.0)],
        );
        guarded.guard = Some((Pred(1), true));
        assert_eq!(guarded.to_string(), "@!%p1 mov.f32 %r9, 0.0f");
    }

    #[test]
    fn uses_and_def() {
        let i = Instr::new(
            Opcode::new(OpKind::Mul, Ty::F32),
            Some(Reg(7)),
            [Operand::Reg(Reg(3)), Operand::Imm(2)],
        );
        assert_eq!(i.def(), Some(Reg(7)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(3)]);
    }

    #[test]
    fn special_register_parsing() {
        for s in [SpecialReg::TidX, SpecialReg::NTidX, SpecialReg::CtaIdX, SpecialReg::NCtaIdX] {
            assert_eq!(SpecialReg::parse(s.name()), Some(s));
        }
        assert_eq!(SpecialReg::parse("%tid.y"), None);
    }
}
