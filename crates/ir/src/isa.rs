//! The PTX-like instruction set.
//!
//! Opcodes are `(kind, type)` pairs, mirroring PTX mnemonics such as
//! `add.f32` or `ld.global.f32`. Every opcode maps to one of the paper's
//! Table II operation classes via [`Opcode::op_class`]; that mapping is
//! what connects disassembled programs to the throughput model.

use crate::ast::MemSpace;
use oriole_arch::OpClass;
use std::fmt;

/// Scalar value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// Signed 32-bit integer.
    S32,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 64-bit integer.
    S64,
    /// Unsigned 64-bit integer.
    U64,
    /// Predicate (1-bit).
    Pred,
}

impl Ty {
    /// Whether this is a 64-bit type (drives Conv64 classification).
    fn is_64(self) -> bool {
        matches!(self, Ty::F64 | Ty::S64 | Ty::U64)
    }

    /// Whether this is a floating-point type.
    fn is_float(self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }

    /// PTX type suffix.
    pub(crate) fn suffix(self) -> &'static str {
        match self {
            Ty::F32 => "f32",
            Ty::F64 => "f64",
            Ty::S32 => "s32",
            Ty::U32 => "u32",
            Ty::S64 => "s64",
            Ty::U64 => "u64",
            Ty::Pred => "pred",
        }
    }

    /// Parses a PTX type suffix.
    fn from_suffix(s: &str) -> Option<Ty> {
        Some(match s {
            "f32" => Ty::F32,
            "f64" => Ty::F64,
            "s32" => Ty::S32,
            "u32" => Ty::U32,
            "s64" => Ty::S64,
            "u64" => Ty::U64,
            "pred" => Ty::Pred,
            _ => return None,
        })
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// PTX mnemonic fragment.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Parses a PTX comparison fragment.
    pub(crate) fn from_mnemonic(s: &str) -> Option<CmpOp> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// Instruction kind (the mnemonic family, without the type suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Addition / subtraction.
    Add,
    /// Multiplication.
    Mul,
    /// Fused multiply-add.
    Fma,
    /// Division (full-precision).
    Div,
    /// Minimum / maximum.
    Min,
    /// Reciprocal approximation.
    Rcp,
    /// Square root.
    Sqrt,
    /// Base-2 exponential.
    Ex2,
    /// Base-2 logarithm.
    Lg2,
    /// Sine (special function unit).
    Sin,
    /// Bitwise and/or/xor.
    Logic,
    /// Shift left/right.
    Shift,
    /// Type conversion; the source type rides along.
    Cvt(Ty),
    /// Register move.
    Mov,
    /// Predicate-setting comparison.
    Setp(CmpOp),
    /// Predicated select.
    Selp,
    /// Load from a memory space.
    Ld(MemSpace),
    /// Store to a memory space.
    St(MemSpace),
    /// Texture fetch.
    Tex,
    /// Surface load/store.
    Surf,
    /// Block-wide barrier (`bar.sync`).
    Bar,
    /// Unconditional branch (only as terminator).
    Bra,
    /// Kernel exit.
    Exit,
}

/// A typed opcode: `(kind, type)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Opcode {
    /// Mnemonic family.
    pub kind: OpKind,
    /// Operand type.
    pub ty: Ty,
}

impl Opcode {
    /// Creates an opcode.
    pub const fn new(kind: OpKind, ty: Ty) -> Self {
        Self { kind, ty }
    }

    /// The Table II operation class this opcode is accounted under.
    ///
    /// The mapping follows the Table II row descriptions:
    /// * float add/mul/fma → `FPIns32`/`FPIns64` by width;
    /// * min/max/compare/select → `CompMinMax`;
    /// * logic/shift → the shift/extract/shuffle row;
    /// * conversions → `Conv64` when either side is 64-bit, else `Conv32`;
    /// * special functions (rcp/sqrt/ex2/lg2/sin, and full-precision
    ///   divide, which expands to them) → `LogSinCos`;
    /// * integer add (and integer `mad`-free mul, which the SASS-level
    ///   XMAD sequence issues through the ALU) → `IntAdd32`;
    /// * tex/ld/st/surf → the memory rows; predicates → `PredIns`;
    ///   branches/barriers/exit → `CtrlIns`; moves → `MoveIns`.
    pub fn op_class(self) -> OpClass {
        match self.kind {
            OpKind::Add | OpKind::Mul | OpKind::Fma => {
                if self.ty.is_float() {
                    if self.ty.is_64() {
                        OpClass::FpIns64
                    } else {
                        OpClass::FpIns32
                    }
                } else {
                    OpClass::IntAdd32
                }
            }
            OpKind::Div | OpKind::Rcp | OpKind::Sqrt | OpKind::Ex2 | OpKind::Lg2 | OpKind::Sin => {
                OpClass::LogSinCos
            }
            OpKind::Min | OpKind::Selp => OpClass::CompMinMax,
            OpKind::Logic | OpKind::Shift => OpClass::ShiftShuffle,
            OpKind::Cvt(from) => {
                if self.ty.is_64() || from.is_64() {
                    OpClass::Conv64
                } else {
                    OpClass::Conv32
                }
            }
            OpKind::Mov => OpClass::MoveIns,
            OpKind::Setp(_) => OpClass::PredIns,
            OpKind::Ld(_) | OpKind::St(_) => OpClass::LdStIns,
            OpKind::Tex => OpClass::TexIns,
            OpKind::Surf => OpClass::SurfIns,
            OpKind::Bar | OpKind::Bra | OpKind::Exit => OpClass::CtrlIns,
        }
    }

    /// The PTX-style mnemonic, e.g. `add.f32`, `ld.global.f32`,
    /// `setp.lt.s32`, `cvt.f32.s32`.
    pub(crate) fn mnemonic(self) -> String {
        match self.kind {
            OpKind::Add => format!("add.{}", self.ty),
            OpKind::Mul => format!("mul.{}", self.ty),
            OpKind::Fma => format!("fma.{}", self.ty),
            OpKind::Div => format!("div.{}", self.ty),
            OpKind::Min => format!("min.{}", self.ty),
            OpKind::Rcp => format!("rcp.{}", self.ty),
            OpKind::Sqrt => format!("sqrt.{}", self.ty),
            OpKind::Ex2 => format!("ex2.{}", self.ty),
            OpKind::Lg2 => format!("lg2.{}", self.ty),
            OpKind::Sin => format!("sin.{}", self.ty),
            OpKind::Logic => format!("and.{}", self.ty),
            OpKind::Shift => format!("shl.{}", self.ty),
            OpKind::Cvt(from) => format!("cvt.{}.{}", self.ty, from),
            OpKind::Mov => format!("mov.{}", self.ty),
            OpKind::Setp(cmp) => format!("setp.{}.{}", cmp.mnemonic(), self.ty),
            OpKind::Selp => format!("selp.{}", self.ty),
            OpKind::Ld(space) => format!("ld.{}.{}", space, self.ty),
            OpKind::St(space) => format!("st.{}.{}", space, self.ty),
            OpKind::Tex => format!("tex.{}", self.ty),
            OpKind::Surf => format!("surf.{}", self.ty),
            OpKind::Bar => "bar.sync".to_string(),
            OpKind::Bra => "bra".to_string(),
            OpKind::Exit => "exit".to_string(),
        }
    }

    /// Parses a mnemonic produced by [`Opcode::mnemonic`].
    pub(crate) fn from_mnemonic(s: &str) -> Option<Opcode> {
        if s == "bar.sync" {
            return Some(Opcode::new(OpKind::Bar, Ty::U32));
        }
        if s == "bra" {
            return Some(Opcode::new(OpKind::Bra, Ty::U32));
        }
        if s == "exit" {
            return Some(Opcode::new(OpKind::Exit, Ty::U32));
        }
        let parts: Vec<&str> = s.split('.').collect();
        let kind_str = parts.first()?;
        match *kind_str {
            "setp" => {
                // setp.<cmp>.<ty>
                if parts.len() != 3 {
                    return None;
                }
                let cmp = CmpOp::from_mnemonic(parts[1])?;
                let ty = Ty::from_suffix(parts[2])?;
                Some(Opcode::new(OpKind::Setp(cmp), ty))
            }
            "cvt" => {
                // cvt.<to>.<from>
                if parts.len() != 3 {
                    return None;
                }
                let to = Ty::from_suffix(parts[1])?;
                let from = Ty::from_suffix(parts[2])?;
                Some(Opcode::new(OpKind::Cvt(from), to))
            }
            "ld" | "st" => {
                // ld.<space>.<ty>
                if parts.len() != 3 {
                    return None;
                }
                let space = parse_space(parts[1])?;
                let ty = Ty::from_suffix(parts[2])?;
                let kind = if *kind_str == "ld" { OpKind::Ld(space) } else { OpKind::St(space) };
                Some(Opcode::new(kind, ty))
            }
            _ => {
                if parts.len() != 2 {
                    return None;
                }
                let ty = Ty::from_suffix(parts[1])?;
                let kind = match *kind_str {
                    "add" => OpKind::Add,
                    "mul" => OpKind::Mul,
                    "fma" => OpKind::Fma,
                    "div" => OpKind::Div,
                    "min" => OpKind::Min,
                    "rcp" => OpKind::Rcp,
                    "sqrt" => OpKind::Sqrt,
                    "ex2" => OpKind::Ex2,
                    "lg2" => OpKind::Lg2,
                    "sin" => OpKind::Sin,
                    "and" => OpKind::Logic,
                    "shl" => OpKind::Shift,
                    "mov" => OpKind::Mov,
                    "selp" => OpKind::Selp,
                    "tex" => OpKind::Tex,
                    "surf" => OpKind::Surf,
                    _ => return None,
                };
                Some(Opcode::new(kind, ty))
            }
        }
    }
}

fn parse_space(s: &str) -> Option<MemSpace> {
    Some(match s {
        "global" => MemSpace::Global,
        "shared" => MemSpace::Shared,
        "local" => MemSpace::Local,
        "const" => MemSpace::Constant,
        "tex" => MemSpace::Texture,
        _ => return None,
    })
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::InstrClass;

    #[test]
    fn op_class_mapping_follows_table_ii() {
        assert_eq!(Opcode::new(OpKind::Fma, Ty::F32).op_class(), OpClass::FpIns32);
        assert_eq!(Opcode::new(OpKind::Add, Ty::F64).op_class(), OpClass::FpIns64);
        assert_eq!(Opcode::new(OpKind::Add, Ty::S32).op_class(), OpClass::IntAdd32);
        assert_eq!(Opcode::new(OpKind::Min, Ty::F32).op_class(), OpClass::CompMinMax);
        assert_eq!(Opcode::new(OpKind::Shift, Ty::U32).op_class(), OpClass::ShiftShuffle);
        assert_eq!(Opcode::new(OpKind::Sqrt, Ty::F32).op_class(), OpClass::LogSinCos);
        assert_eq!(Opcode::new(OpKind::Div, Ty::F32).op_class(), OpClass::LogSinCos);
        assert_eq!(
            Opcode::new(OpKind::Cvt(Ty::S32), Ty::F32).op_class(),
            OpClass::Conv32
        );
        assert_eq!(
            Opcode::new(OpKind::Cvt(Ty::S32), Ty::F64).op_class(),
            OpClass::Conv64
        );
        assert_eq!(
            Opcode::new(OpKind::Ld(MemSpace::Global), Ty::F32).op_class(),
            OpClass::LdStIns
        );
        assert_eq!(Opcode::new(OpKind::Tex, Ty::F32).op_class(), OpClass::TexIns);
        assert_eq!(
            Opcode::new(OpKind::Setp(CmpOp::Lt), Ty::S32).op_class(),
            OpClass::PredIns
        );
        assert_eq!(Opcode::new(OpKind::Bra, Ty::U32).op_class(), OpClass::CtrlIns);
        assert_eq!(Opcode::new(OpKind::Bar, Ty::U32).op_class(), OpClass::CtrlIns);
        assert_eq!(Opcode::new(OpKind::Mov, Ty::F32).op_class(), OpClass::MoveIns);
    }

    #[test]
    fn coarse_classes() {
        assert_eq!(Opcode::new(OpKind::Fma, Ty::F32).op_class().class(), InstrClass::Flops);
        assert_eq!(
            Opcode::new(OpKind::St(MemSpace::Shared), Ty::F32).op_class().class(),
            InstrClass::Mem
        );
        assert_eq!(Opcode::new(OpKind::Bra, Ty::U32).op_class().class(), InstrClass::Ctrl);
    }

    #[test]
    fn mnemonic_round_trip() {
        let samples = [
            Opcode::new(OpKind::Add, Ty::F32),
            Opcode::new(OpKind::Fma, Ty::F64),
            Opcode::new(OpKind::Setp(CmpOp::Ge), Ty::S32),
            Opcode::new(OpKind::Cvt(Ty::S32), Ty::F32),
            Opcode::new(OpKind::Ld(MemSpace::Global), Ty::F32),
            Opcode::new(OpKind::St(MemSpace::Shared), Ty::F64),
            Opcode::new(OpKind::Ld(MemSpace::Local), Ty::F32),
            Opcode::new(OpKind::Bar, Ty::U32),
            Opcode::new(OpKind::Bra, Ty::U32),
            Opcode::new(OpKind::Exit, Ty::U32),
            Opcode::new(OpKind::Sin, Ty::F32),
            Opcode::new(OpKind::Selp, Ty::F32),
            Opcode::new(OpKind::Mov, Ty::U64),
        ];
        for op in samples {
            let text = op.mnemonic();
            let parsed = Opcode::from_mnemonic(&text)
                .unwrap_or_else(|| panic!("failed to parse {text}"));
            assert_eq!(parsed, op, "{text}");
        }
    }

    #[test]
    fn bad_mnemonics_rejected() {
        assert_eq!(Opcode::from_mnemonic(""), None);
        assert_eq!(Opcode::from_mnemonic("frobnicate.f32"), None);
        assert_eq!(Opcode::from_mnemonic("add"), None);
        assert_eq!(Opcode::from_mnemonic("add.q17"), None);
        assert_eq!(Opcode::from_mnemonic("setp.zz.s32"), None);
        assert_eq!(Opcode::from_mnemonic("ld.nowhere.f32"), None);
    }

    #[test]
    fn type_properties() {
        assert!(Ty::U64.is_64());
        assert!(!Ty::F32.is_64());
        assert!(Ty::F64.is_float());
        assert!(!Ty::S32.is_float());
    }
}
