//! Structured kernel AST.
//!
//! The AST is the representation Orio-style source transformations operate
//! on (unrolling, fast-math substitution) *before* lowering to the linear
//! ISA. It is resource-faithful: statements record which operation classes
//! execute how many times, which address spaces are touched with which
//! access patterns, and how control flow depends on thread identity — but
//! no data values.
//!
//! Trip counts are symbolic ([`TripCount`]) so one AST describes the
//! kernel for *every* problem size and launch geometry; concrete counts
//! are produced only when a [`LaunchGeometry`](crate::count::LaunchGeometry)
//! is supplied.

use oriole_arch::WARP_SIZE;
use std::fmt;

/// Polynomial-in-`N` work amount: `coeff * N^power` items.
///
/// Example: a dense matrix–vector product touches `N²` matrix elements,
/// expressed as `SizeExpr::new(1.0, 2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeExpr {
    /// Multiplicative coefficient.
    pub coeff: f64,
    /// Exponent of the problem size `N`.
    pub power: u8,
}

impl SizeExpr {
    /// Creates `coeff * N^power`.
    pub const fn new(coeff: f64, power: u8) -> Self {
        Self { coeff, power }
    }

    /// `N` itself.
    pub const N: SizeExpr = SizeExpr::new(1.0, 1);
    /// `N²`.
    pub const N2: SizeExpr = SizeExpr::new(1.0, 2);
    /// `N³`.
    pub const N3: SizeExpr = SizeExpr::new(1.0, 3);

    /// Evaluates at a concrete problem size.
    pub fn eval(self, n: u64) -> f64 {
        self.coeff * (n as f64).powi(i32::from(self.power))
    }
}

impl fmt::Display for SizeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}*N^{}", self.coeff, self.power)
    }
}

/// Symbolic loop trip count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TripCount {
    /// A fixed number of iterations.
    Const(u64),
    /// `size(N)` iterations per thread (e.g. the inner dot-product loop of
    /// a matvec row runs `N` times regardless of launch geometry).
    Size(SizeExpr),
    /// Grid-stride loop: `ceil(items(N) / (TC * BC))` iterations per
    /// thread. This is how Orio-generated CUDA loops distribute `items`
    /// work items over `TC*BC` threads.
    GridStride(SizeExpr),
    /// Block-cooperative loop: `ceil(items(N) / TC)` iterations per
    /// thread — every block processes all `items` with its `TC` threads
    /// (the shared-memory tile-fill idiom). Per-thread work falls with
    /// block size; whole-grid work is `items × BC`.
    BlockShare(SizeExpr),
}

impl TripCount {
    /// Concrete per-thread iteration count for a launch geometry, on the
    /// *critical path*: the busiest thread's count. Grid-stride loops
    /// round up — some thread always executes `ceil(items/threads)`
    /// iterations, and a warp is only as fast as its slowest lane. Timing
    /// models use this.
    pub fn eval(self, n: u64, tc: u32, bc: u32) -> f64 {
        match self {
            TripCount::Const(c) => c as f64,
            TripCount::Size(s) => s.eval(n),
            TripCount::GridStride(s) => {
                let threads = f64::from(tc) * f64::from(bc);
                (s.eval(n) / threads).ceil().max(0.0)
            }
            TripCount::BlockShare(s) => (s.eval(n) / f64::from(tc)).ceil().max(0.0),
        }
    }

    /// Expected per-thread iteration count, *averaged over all threads*.
    /// When the grid has more threads than work items, surplus threads
    /// fail the range guard immediately and execute the body zero times;
    /// the average is exactly `items / threads`. Instruction-count
    /// estimators use this so total predicted work is geometry-invariant.
    pub(crate) fn eval_expected(self, n: u64, tc: u32, bc: u32) -> f64 {
        match self {
            TripCount::Const(c) => c as f64,
            TripCount::Size(s) => s.eval(n),
            TripCount::GridStride(s) => {
                let threads = f64::from(tc) * f64::from(bc);
                (s.eval(n) / threads).max(0.0)
            }
            TripCount::BlockShare(s) => (s.eval(n) / f64::from(tc)).max(0.0),
        }
    }
}

/// Memory address space of a [`MemStmt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory.
    Global,
    /// Per-block shared memory.
    Shared,
    /// Per-thread local memory (register spills live here).
    Local,
    /// Constant memory.
    Constant,
    /// Texture memory.
    Texture,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
            MemSpace::Constant => "const",
            MemSpace::Texture => "tex",
        };
        f.write_str(s)
    }
}

/// How consecutive threads of a warp address memory — the property that
/// determines coalescing, and with it the effective bandwidth the
/// simulator grants the access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Thread `i` touches element `base + i`: one transaction per warp.
    Coalesced,
    /// Thread `i` touches `base + i*stride` (in elements). A column walk
    /// through a row-major matrix — the ATAX/BiCG transpose access — is
    /// `Strided(N)`, requiring up to 32 transactions per warp.
    Strided(u32),
    /// Effectively random addressing; worst-case transactions.
    Random,
    /// All threads read the same address (broadcast — e.g. the `x[j]`
    /// vector element in a row-per-thread matvec).
    Broadcast,
}

impl AccessPattern {
    /// Memory transactions per warp-wide access, out of a worst case of
    /// `WARP_SIZE` (one per lane). The simulator converts this into effective
    /// bandwidth; the analyzer reports it as a coalescing diagnostic.
    pub fn transactions_per_warp(self) -> u32 {
        match self {
            AccessPattern::Coalesced => 1,
            AccessPattern::Broadcast => 1,
            AccessPattern::Strided(stride) => {
                if stride == 0 {
                    1
                } else {
                    // Each 128-byte segment serves 32/stride lanes for
                    // 4-byte elements; saturates at one transaction/lane.
                    stride.min(WARP_SIZE)
                }
            }
            AccessPattern::Random => WARP_SIZE,
        }
    }
}

/// Arithmetic operation kinds available to AST statements.
///
/// These are deliberately at CUDA-source granularity; lowering maps them
/// to one or more ISA instructions (e.g. [`AluOp::DivF32`] becomes a
/// reciprocal plus a multiply when fast-math is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// 32-bit float add/subtract.
    AddF32,
    /// 32-bit float multiply.
    MulF32,
    /// Fused multiply-add, 32-bit.
    FmaF32,
    /// 32-bit float divide.
    DivF32,
    /// 64-bit float add/subtract.
    AddF64,
    /// 64-bit float multiply.
    MulF64,
    /// Fused multiply-add, 64-bit.
    FmaF64,
    /// 32-bit float square root.
    SqrtF32,
    /// 32-bit float exponential.
    ExpF32,
    /// 32-bit float logarithm.
    LogF32,
    /// 32-bit float sine/cosine.
    SinCosF32,
    /// Float compare.
    CmpF32,
    /// Float min/max.
    MinMaxF32,
    /// 32-bit integer add/subtract.
    AddI32,
    /// 32-bit integer multiply.
    MulI32,
    /// Integer compare.
    CmpI32,
    /// Bitwise / shift operations.
    BitI32,
    /// Warp lane exchange (`__shfl_down`-style). Kepler and newer have a
    /// shuffle datapath; Fermi lowers it to a shared-memory round-trip.
    ShuffleF32,
    /// int ↔ float conversion (32-bit).
    CvtI32F32,
    /// 32 ↔ 64-bit conversions.
    Cvt64,
}

/// A run of `count` arithmetic operations of the same kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpStmt {
    /// Operation kind.
    pub op: AluOp,
    /// How many back-to-back operations this statement represents.
    pub count: u32,
}

/// A run of `count` memory accesses with a common space and pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemStmt {
    /// Address space accessed.
    pub space: MemSpace,
    /// Warp-level access pattern.
    pub pattern: AccessPattern,
    /// Element size in bytes (4 for f32, 8 for f64).
    pub elem_bytes: u8,
    /// Number of accesses.
    pub count: u32,
}

/// Whether a branch condition can disagree within a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// All threads of a warp take the same side (e.g. condition on
    /// `blockIdx` or a kernel parameter).
    Uniform,
    /// The condition depends on `threadIdx` / data: lanes may split and
    /// the warp serializes both sides (the paper's Fig. 1 problem).
    ThreadDependent,
}

/// A structured conditional.
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    /// Uniform or thread-dependent condition.
    pub divergence: DivergenceKind,
    /// Fraction of threads (probability per thread) taking the
    /// then-branch.
    pub taken_fraction: f64,
    /// Statements executed when taken.
    pub then_body: Vec<Stmt>,
    /// Statements executed otherwise (possibly empty).
    pub else_body: Vec<Stmt>,
}

/// A structured counted loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Symbolic iteration count.
    pub trip: TripCount,
    /// Loop body.
    pub body: Vec<Stmt>,
    /// Whether the unrolling transformation may legally unroll this loop
    /// (innermost loops without barriers, in our kernels).
    pub unrollable: bool,
}

/// A kernel-body statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Arithmetic operations.
    Op(OpStmt),
    /// Memory loads.
    Load(MemStmt),
    /// Memory stores.
    Store(MemStmt),
    /// A counted loop.
    Loop(Loop),
    /// A conditional.
    If(Branch),
    /// `__syncthreads()` — block-wide barrier.
    SyncThreads,
}

impl Stmt {
    /// Convenience constructor for `count` ALU operations.
    pub fn ops(op: AluOp, count: u32) -> Stmt {
        Stmt::Op(OpStmt { op, count })
    }

    /// Convenience constructor for `count` 4-byte loads.
    pub fn load(space: MemSpace, pattern: AccessPattern, count: u32) -> Stmt {
        Stmt::Load(MemStmt { space, pattern, elem_bytes: 4, count })
    }

    /// Convenience constructor for `count` 4-byte stores.
    pub fn store(space: MemSpace, pattern: AccessPattern, count: u32) -> Stmt {
        Stmt::Store(MemStmt { space, pattern, elem_bytes: 4, count })
    }
}

/// A `__shared__` array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedDecl {
    /// Variable name (for reports).
    pub name: String,
    /// Element size in bytes.
    pub elem_bytes: u8,
    /// Number of elements **per thread of the block** when
    /// `scales_with_block` is true, otherwise total elements.
    pub elems: u32,
    /// Whether the allocation is sized proportionally to the block
    /// (`TC * elems` elements), the common tile idiom.
    pub scales_with_block: bool,
}

impl SharedDecl {
    /// Total bytes this declaration occupies for a block of `tc` threads
    /// (saturating: past `u32::MAX` it exceeds every device's limit).
    fn bytes_for_block(&self, tc: u32) -> u32 {
        let per_thread = if self.scales_with_block { tc } else { 1 };
        self.elems.saturating_mul(per_thread).saturating_mul(u32::from(self.elem_bytes))
    }
}

/// Static shared-memory bytes a set of declarations occupies for a
/// block of `tc` threads — the single accounting rule shared by
/// [`KernelAst::shared_bytes`] and the compile back-end (which carries
/// the declarations without the rest of the AST).
pub fn shared_bytes_for_block(shared: &[SharedDecl], tc: u32) -> u32 {
    shared.iter().fold(0, |bytes, d| bytes.saturating_add(d.bytes_for_block(tc)))
}

/// A complete kernel in structured form.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAst {
    /// Kernel name (becomes the `.kernel` label in disassembly).
    pub name: String,
    /// Shared-memory declarations.
    pub shared: Vec<SharedDecl>,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

impl KernelAst {
    /// Creates an empty kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), shared: Vec::new(), body: Vec::new() }
    }

    /// Static shared-memory bytes for a block of `tc` threads.
    pub fn shared_bytes(&self, tc: u32) -> u32 {
        shared_bytes_for_block(&self.shared, tc)
    }

    /// Walks every statement depth-first, calling `f` on each.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                f(s);
                match s {
                    Stmt::Loop(l) => walk(&l.body, f),
                    Stmt::If(b) => {
                        walk(&b.then_body, f);
                        walk(&b.else_body, f);
                    }
                    _ => {}
                }
            }
        }
        walk(&self.body, f);
    }

    /// Maximum loop-nest depth of the kernel body.
    pub fn loop_depth(&self) -> usize {
        fn depth(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Loop(l) => 1 + depth(&l.body),
                    Stmt::If(b) => depth(&b.then_body).max(depth(&b.else_body)),
                    _ => 0,
                })
                .max()
                .unwrap_or(0)
        }
        depth(&self.body)
    }

    /// True if any statement under a thread-dependent branch exists —
    /// i.e. the kernel can diverge.
    pub fn has_divergence(&self) -> bool {
        let mut found = false;
        self.visit(&mut |s| {
            if let Stmt::If(b) = s {
                if b.divergence == DivergenceKind::ThreadDependent {
                    found = true;
                }
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_expr_eval() {
        assert_eq!(SizeExpr::N.eval(128), 128.0);
        assert_eq!(SizeExpr::N2.eval(10), 100.0);
        assert_eq!(SizeExpr::new(2.0, 1).eval(8), 16.0);
        assert_eq!(SizeExpr::new(0.5, 3).eval(4), 32.0);
    }

    #[test]
    fn trip_count_grid_stride_rounds_up() {
        // 100 items over 32 threads → 4 iterations (ceil(100/32)).
        let t = TripCount::GridStride(SizeExpr::new(100.0, 0));
        assert_eq!(t.eval(1, 32, 1), 4.0);
        // Exactly divisible.
        let t = TripCount::GridStride(SizeExpr::N2);
        assert_eq!(t.eval(64, 64, 64), 1.0);
        // More threads than work still costs one iteration (guarded body).
        assert_eq!(t.eval(8, 512, 128), 1.0);
    }

    #[test]
    fn trip_count_const_and_size() {
        assert_eq!(TripCount::Const(7).eval(999, 1, 1), 7.0);
        assert_eq!(TripCount::Size(SizeExpr::N).eval(256, 32, 4), 256.0);
    }

    #[test]
    fn access_pattern_transactions() {
        assert_eq!(AccessPattern::Coalesced.transactions_per_warp(), 1);
        assert_eq!(AccessPattern::Broadcast.transactions_per_warp(), 1);
        assert_eq!(AccessPattern::Strided(8).transactions_per_warp(), 8);
        assert_eq!(AccessPattern::Strided(512).transactions_per_warp(), 32);
        assert_eq!(AccessPattern::Strided(0).transactions_per_warp(), 1);
        assert_eq!(AccessPattern::Random.transactions_per_warp(), 32);
    }

    #[test]
    fn shared_decl_scaling() {
        let per_thread = SharedDecl {
            name: "tile".into(),
            elem_bytes: 4,
            elems: 2,
            scales_with_block: true,
        };
        assert_eq!(per_thread.bytes_for_block(256), 2048);
        let fixed = SharedDecl {
            name: "lut".into(),
            elem_bytes: 8,
            elems: 128,
            scales_with_block: false,
        };
        assert_eq!(fixed.bytes_for_block(256), 1024);
        assert_eq!(fixed.bytes_for_block(32), 1024);
    }

    fn sample_kernel() -> KernelAst {
        let mut k = KernelAst::new("sample");
        k.body = vec![
            Stmt::ops(AluOp::AddI32, 2),
            Stmt::Loop(Loop {
                trip: TripCount::GridStride(SizeExpr::N),
                unrollable: false,
                body: vec![
                    Stmt::Loop(Loop {
                        trip: TripCount::Size(SizeExpr::N),
                        unrollable: true,
                        body: vec![
                            Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
                            Stmt::ops(AluOp::FmaF32, 1),
                        ],
                    }),
                    Stmt::If(Branch {
                        divergence: DivergenceKind::ThreadDependent,
                        taken_fraction: 0.5,
                        then_body: vec![Stmt::store(
                            MemSpace::Global,
                            AccessPattern::Coalesced,
                            1,
                        )],
                        else_body: vec![],
                    }),
                ],
            }),
        ];
        k
    }

    #[test]
    fn visit_reaches_nested_statements() {
        let k = sample_kernel();
        let mut n = 0;
        k.visit(&mut |_| n += 1);
        // 2 top-level + inner loop + 2 loop-body + branch + store = 7.
        assert_eq!(n, 7);
    }

    #[test]
    fn loop_depth_and_divergence() {
        let k = sample_kernel();
        assert_eq!(k.loop_depth(), 2);
        assert!(k.has_divergence());
        let flat = KernelAst::new("flat");
        assert_eq!(flat.loop_depth(), 0);
        assert!(!flat.has_divergence());
    }

    #[test]
    fn shared_bytes_sums_declarations() {
        let mut k = KernelAst::new("s");
        k.shared.push(SharedDecl {
            name: "a".into(),
            elem_bytes: 4,
            elems: 1,
            scales_with_block: true,
        });
        k.shared.push(SharedDecl {
            name: "b".into(),
            elem_bytes: 4,
            elems: 64,
            scales_with_block: false,
        });
        assert_eq!(k.shared_bytes(128), 128 * 4 + 256);
    }
}
