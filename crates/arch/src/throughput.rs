//! The Table II instruction-throughput model.
//!
//! Table II of the paper lists, for each of twelve operation categories
//! and each compute capability (SM20/SM35/SM52/SM60), the number of
//! operations a streaming multiprocessor can process per cycle (IPC). The
//! paper weights instruction mixes by the *reciprocal* of IPC — cycles per
//! instruction (CPI) — so a low-throughput operation contributes more to
//! predicted execution time (Eq. 6).

use crate::family::Family;
use std::fmt;

/// Coarse instruction class: the "Category" column of Table II collapsed
/// to the four buckets used by the instruction-mix metrics
/// (`O_fl`, `O_mem`, `O_ctrl`, `O_reg` in the paper's §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstrClass {
    /// Floating-point / arithmetic operations (`O_fl`).
    Flops,
    /// Memory operations: texture, load/store, surface (`O_mem`).
    Mem,
    /// Control operations: predicates, branches, moves (`O_ctrl`).
    Ctrl,
    /// Register-file operations (`O_reg`).
    Reg,
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Flops => "FLOPS",
            InstrClass::Mem => "MEM",
            InstrClass::Ctrl => "CTRL",
            InstrClass::Reg => "REG",
        };
        f.write_str(s)
    }
}

/// Operation category — one row of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// 32-bit floating point (add/mul/fma).
    FpIns32,
    /// 64-bit floating point.
    FpIns64,
    /// Integer/float compare, min, max.
    CompMinMax,
    /// Shift, bit extract, shuffle, sum-of-absolute-difference.
    ShiftShuffle,
    /// Conversions involving 64-bit types.
    Conv64,
    /// Conversions among 32-bit types.
    Conv32,
    /// Special functions: log, sin, cos, reciprocal, sqrt.
    LogSinCos,
    /// 32-bit integer add/sub.
    IntAdd32,
    /// Texture fetch instructions.
    TexIns,
    /// Global/local/shared load & store.
    LdStIns,
    /// Surface load/store.
    SurfIns,
    /// Predicate-setting instructions.
    PredIns,
    /// Control flow: branch, call, return, barrier.
    CtrlIns,
    /// Register-to-register moves.
    MoveIns,
    /// Register-file accesses.
    Regs,
}

/// Every [`OpClass`] in Table II row order.
pub const ALL_OP_CLASSES: [OpClass; 15] = [
    OpClass::FpIns32,
    OpClass::FpIns64,
    OpClass::CompMinMax,
    OpClass::ShiftShuffle,
    OpClass::Conv64,
    OpClass::Conv32,
    OpClass::LogSinCos,
    OpClass::IntAdd32,
    OpClass::TexIns,
    OpClass::LdStIns,
    OpClass::SurfIns,
    OpClass::PredIns,
    OpClass::CtrlIns,
    OpClass::MoveIns,
    OpClass::Regs,
];

impl OpClass {
    /// The coarse class ("Category" column of Table II).
    pub fn class(self) -> InstrClass {
        match self {
            OpClass::FpIns32
            | OpClass::FpIns64
            | OpClass::CompMinMax
            | OpClass::ShiftShuffle
            | OpClass::Conv64
            | OpClass::Conv32
            | OpClass::LogSinCos
            | OpClass::IntAdd32 => InstrClass::Flops,
            OpClass::TexIns | OpClass::LdStIns | OpClass::SurfIns => InstrClass::Mem,
            OpClass::PredIns | OpClass::CtrlIns | OpClass::MoveIns => InstrClass::Ctrl,
            OpClass::Regs => InstrClass::Reg,
        }
    }

    /// Table II row label.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::FpIns32 => "FPIns32",
            OpClass::FpIns64 => "FPIns64",
            OpClass::CompMinMax => "CompMinMax",
            OpClass::ShiftShuffle => "Shift/Extract/Shuffle/SAD",
            OpClass::Conv64 => "Conv64",
            OpClass::Conv32 => "Conv32",
            OpClass::LogSinCos => "LogSinCos",
            OpClass::IntAdd32 => "IntAdd32",
            OpClass::TexIns => "TexIns",
            OpClass::LdStIns => "LdStIns",
            OpClass::SurfIns => "SurfIns",
            OpClass::PredIns => "PredIns",
            OpClass::CtrlIns => "CtrlIns",
            OpClass::MoveIns => "MoveIns",
            OpClass::Regs => "Regs",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Instruction throughput for one compute capability — one column of
/// Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputTable {
    /// Operations per cycle per SM, indexed in [`ALL_OP_CLASSES`] order.
    ipc: [u32; 15],
}

impl ThroughputTable {
    /// The throughput column for a family's compute capability.
    pub fn for_family(family: Family) -> &'static ThroughputTable {
        match family {
            Family::Fermi => &SM20,
            Family::Kepler => &SM35,
            Family::Maxwell => &SM52,
            Family::Pascal => &SM60,
        }
    }

    /// Instructions per cycle for an operation class (Table II cell).
    pub fn ipc(&self, op: OpClass) -> u32 {
        self.ipc[index_of(op)]
    }

    /// Cycles per instruction: the Eq. 6 weight, `1 / ipc`.
    pub fn cpi(&self, op: OpClass) -> f64 {
        1.0 / f64::from(self.ipc(op))
    }

    /// The representative CPI for a coarse class, used when only class
    /// totals are known (Eq. 6 with class-granularity mixes). We take the
    /// *throughput-weighted* convention of the paper's coefficients: the
    /// canonical member of each class (FP32 for FLOPS, load/store for MEM,
    /// control for CTRL, register file for REG).
    pub fn class_cpi(&self, class: InstrClass) -> f64 {
        let canonical = match class {
            InstrClass::Flops => OpClass::FpIns32,
            InstrClass::Mem => OpClass::LdStIns,
            InstrClass::Ctrl => OpClass::CtrlIns,
            InstrClass::Reg => OpClass::Regs,
        };
        self.cpi(canonical)
    }
}

/// `ALL_OP_CLASSES` is in declaration order (pinned by a test below),
/// so a class's discriminant is its column.
fn index_of(op: OpClass) -> usize {
    op as usize
}

/// Table II, SM20 column (Fermi).
static SM20: ThroughputTable = ThroughputTable {
    ipc: [32, 16, 32, 16, 16, 16, 4, 32, 16, 16, 16, 16, 16, 32, 16],
};

/// Table II, SM35 column (Kepler).
static SM35: ThroughputTable = ThroughputTable {
    ipc: [192, 64, 160, 32, 8, 128, 32, 160, 32, 32, 32, 32, 32, 32, 32],
};

/// Table II, SM52 column (Maxwell).
static SM52: ThroughputTable = ThroughputTable {
    ipc: [128, 4, 64, 64, 4, 32, 32, 64, 64, 64, 64, 64, 64, 32, 32],
};

/// Table II, SM60 column (Pascal).
static SM60: ThroughputTable = ThroughputTable {
    ipc: [64, 32, 32, 32, 16, 16, 16, 32, 16, 16, 16, 16, 16, 32, 16],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classes_are_listed_in_declaration_order() {
        // `ThroughputTable` columns and `oriole_ir::MixCounts` slots are
        // indexed by discriminant.
        for (i, op) in ALL_OP_CLASSES.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?}");
        }
    }

    #[test]
    fn table_ii_spot_checks() {
        // Row FPIns32: 32 / 192 / 128 / 64.
        assert_eq!(SM20.ipc(OpClass::FpIns32), 32);
        assert_eq!(SM35.ipc(OpClass::FpIns32), 192);
        assert_eq!(SM52.ipc(OpClass::FpIns32), 128);
        assert_eq!(SM60.ipc(OpClass::FpIns32), 64);
        // Row FPIns64: 16 / 64 / 4 / 32.
        assert_eq!(SM20.ipc(OpClass::FpIns64), 16);
        assert_eq!(SM35.ipc(OpClass::FpIns64), 64);
        assert_eq!(SM52.ipc(OpClass::FpIns64), 4);
        assert_eq!(SM60.ipc(OpClass::FpIns64), 32);
        // Row LogSinCos: 4 / 32 / 32 / 16.
        assert_eq!(SM20.ipc(OpClass::LogSinCos), 4);
        assert_eq!(SM35.ipc(OpClass::LogSinCos), 32);
        // Row LdStIns (Tex/LdSt/Surf share): 16 / 32 / 64 / 16.
        assert_eq!(SM20.ipc(OpClass::LdStIns), 16);
        assert_eq!(SM52.ipc(OpClass::SurfIns), 64);
        // Row MoveIns: 32 everywhere.
        for f in Family::ALL {
            assert_eq!(ThroughputTable::for_family(f).ipc(OpClass::MoveIns), 32);
        }
        // Row Regs: 16 / 32 / 32 / 16.
        assert_eq!(SM20.ipc(OpClass::Regs), 16);
        assert_eq!(SM35.ipc(OpClass::Regs), 32);
        assert_eq!(SM52.ipc(OpClass::Regs), 32);
        assert_eq!(SM60.ipc(OpClass::Regs), 16);
    }

    #[test]
    fn cpi_is_reciprocal_of_ipc() {
        for family in Family::ALL {
            let t = ThroughputTable::for_family(family);
            for &op in &ALL_OP_CLASSES {
                let ipc = t.ipc(op);
                assert!(ipc > 0, "{family} {op}");
                let product = t.cpi(op) * f64::from(ipc);
                assert!((product - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn class_assignment_matches_table_ii_category_column() {
        assert_eq!(OpClass::FpIns32.class(), InstrClass::Flops);
        assert_eq!(OpClass::IntAdd32.class(), InstrClass::Flops);
        assert_eq!(OpClass::LogSinCos.class(), InstrClass::Flops);
        assert_eq!(OpClass::TexIns.class(), InstrClass::Mem);
        assert_eq!(OpClass::LdStIns.class(), InstrClass::Mem);
        assert_eq!(OpClass::SurfIns.class(), InstrClass::Mem);
        assert_eq!(OpClass::PredIns.class(), InstrClass::Ctrl);
        assert_eq!(OpClass::CtrlIns.class(), InstrClass::Ctrl);
        assert_eq!(OpClass::MoveIns.class(), InstrClass::Ctrl);
        assert_eq!(OpClass::Regs.class(), InstrClass::Reg);
    }

    #[test]
    fn class_cpi_uses_canonical_member() {
        // On Kepler: FLOPS class CPI = 1/192, MEM = 1/32.
        assert!((SM35.class_cpi(InstrClass::Flops) - 1.0 / 192.0).abs() < 1e-12);
        assert!((SM35.class_cpi(InstrClass::Mem) - 1.0 / 32.0).abs() < 1e-12);
        assert!((SM35.class_cpi(InstrClass::Ctrl) - 1.0 / 32.0).abs() < 1e-12);
        assert!((SM35.class_cpi(InstrClass::Reg) - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn memory_ops_cost_at_least_as_much_as_fp32() {
        // The paper's premise: memory ops have lower or equal throughput
        // than FP32 arithmetic on every generation.
        for family in Family::ALL {
            let t = ThroughputTable::for_family(family);
            assert!(t.ipc(OpClass::LdStIns) <= t.ipc(OpClass::FpIns32), "{family}");
        }
    }
}
