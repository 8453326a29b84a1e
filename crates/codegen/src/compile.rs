//! The compilation driver: AST + tuning point + target GPU →
//! [`CompiledKernel`].
//!
//! Compilation is **split-phase** so the autotuner can amortize the
//! expensive work across a search space:
//!
//! * The **front-end** ([`FrontEnd`], built by [`front_end`]) performs
//!   everything that depends only on the kernel AST, the unroll factor
//!   `UIF` and the compiler flags `CFLAGS`: source transformation
//!   (unrolling) and lowering to the linear IR. The remaining tuning
//!   axes (`TC`, `BC`, `PL`, `SC`) do not affect lowering, so one
//!   front-end artifact is shared by every point that agrees on
//!   `(UIF, CFLAGS)` — in the paper's Fig. 3 space that is
//!   5,120 / (5 × 2) = 512 points per artifact — and the problem size
//!   is no input at all: it reaches an artifact only through an AST
//!   that was built differently for it, so the tuner shares one
//!   artifact over every size whose AST is equal (all of them for
//!   `atax`, `bicg` and `matvec2d`; none for `ex14fj`, whose branch
//!   carries `boundary_fraction(n)`). What lowering reads is known
//!   before it runs ([`LowerKey`]), so a twin — a `UIF` or `CFLAGS`
//!   that changes none of it — is proven before lowering and built on
//!   the held program, index and register allocation, computed once per
//!   lowering on first use ([`Unrolled::twin`]). An artifact keeps the
//!   wall time of each phase it ran ([`FrontEnd::phases`]), so whoever
//!   holds artifacts can add up what they cost.
//! * The **back-end** ([`FrontEnd::specialize`]) is cheap and
//!   param-dependent: parameter validation, the shared-memory footprint
//!   (which scales with `TC` for block-scaled tiles), metadata fill-in,
//!   and launch validation.
//!
//! The monolithic [`compile`] remains as a thin wrapper running both
//! phases; it produces bit-identical [`CompiledKernel`]s to the split
//! pipeline (a property-tested invariant, see `tests/proptests.rs`).

use crate::params::{CompilerFlags, TuningParams};
use crate::regalloc::{self, RegAllocation};
use crate::transform;
use oriole_arch::GpuSpec;
use oriole_ir::lower::{lower_indexed, reads_fast_math, LowerOptions};
use oriole_ir::{KernelAst, LaunchGeometry, Program, ProgramIndex};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The tuning parameters are invalid for the target device.
    InvalidParams(Vec<String>),
    /// The kernel's shared-memory requirement exceeds the per-block limit
    /// (Eq. 5 case 1).
    SharedMemExceeded {
        /// Bytes the kernel needs for this block size.
        needed: u32,
        /// Device per-block limit.
        limit: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidParams(problems) => {
                write!(f, "invalid tuning parameters: {}", problems.join("; "))
            }
            CompileError::SharedMemExceeded { needed, limit } => {
                write!(f, "kernel needs {needed} B shared memory, device allows {limit}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled kernel variant: the lowered program with `ptxas`-style
/// resource metadata, plus everything the simulator and analyzer need to
/// reason about the launch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// The tuning point this variant was compiled for.
    pub params: TuningParams,
    /// Target device (owned, so variants for synthetic or custom
    /// `GpuSpec`s — tests, future backends — need no static registry).
    pub gpu: GpuSpec,
    /// Lowered program; `meta` carries regs/thread, static shared memory
    /// and spill bytes.
    pub program: Program,
    /// Shared memory per block (depends on `TC` for block-scaled tiles).
    pub smem_per_block: u32,
    /// Uncapped register demand (diagnostics).
    pub reg_demand: u32,
    /// The per-lowered-program analysis index, built once by
    /// [`front_end`] and shared (`Arc`) by every variant of the same
    /// artifact. The blocks it summarizes are identical across
    /// specializations (only `program.meta` differs), so analysis
    /// phases combine it with this variant's `program` freely.
    pub index: Arc<ProgramIndex>,
}

impl CompiledKernel {
    /// The launch geometry for problem size `n`.
    pub fn geometry(&self, n: u64) -> LaunchGeometry {
        LaunchGeometry::new(n, self.params.tc, self.params.bc)
    }

    /// Registers per thread (`R_u` in the occupancy equations).
    pub fn regs_per_thread(&self) -> u32 {
        self.program.meta.regs_per_thread
    }

    /// The textual disassembly of this variant — the artifact the static
    /// analyzer consumes, as `nvdisasm` output is consumed in the paper.
    pub fn disassembly(&self) -> String {
        oriole_ir::text::emit(&self.program)
    }
}

/// The param-independent half of compilation: the unrolled, lowered
/// program for one `(AST, GPU, UIF, CFLAGS)` combination.
///
/// Build once with [`front_end`], then stamp out variants for any `TC`
/// / `BC` / `PL` / `SC` with [`FrontEnd::specialize`]. The register
/// allocation — a function of the lowered program and the device cap
/// only — is computed lazily on the first specialization and reused by
/// every subsequent one, and by every twin ([`Unrolled::twin`]).
#[derive(Debug)]
pub struct FrontEnd {
    uif: u32,
    cflags: CompilerFlags,
    /// Nanoseconds spent unrolling, and lowering (the index build
    /// included): `None` for a twin, which lowered nothing.
    unroll_ns: u64,
    lower_ns: Option<u64>,
    /// The lowering, shared by every twin.
    lowered: Arc<Lowered>,
}

/// One lowering: what it read, and what it made of it.
#[derive(Debug)]
struct Lowered {
    key: LowerKey,
    gpu: GpuSpec,
    /// Lowered program with zeroed metadata (the back-end fills it).
    program: Program,
    /// The analysis index of `program`, built exactly once here and
    /// cloned (by `Arc`) into every specialization.
    index: Arc<ProgramIndex>,
    /// Lazily computed, shared by all specializations, beside the
    /// nanoseconds it took.
    alloc: OnceLock<(RegAllocation, u64)>,
}

/// What lowering reads of one `(AST, UIF, CFLAGS)`: the unrolled AST
/// (shared by clones), and `-use_fast_math` only when that AST holds an
/// op whose lowering reads it ([`reads_fast_math`]). Equal keys lower
/// to equal programs.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerKey {
    ast: Arc<KernelAst>,
    fast_math: bool,
}

/// One `(AST, UIF, CFLAGS)` up to lowering: `UIF` validated, the AST
/// unrolled and keyed. [`Unrolled::lower`] finishes the front end;
/// [`Unrolled::twin`] finishes it on a held lowering of an equal key.
#[derive(Debug)]
pub struct Unrolled {
    uif: u32,
    cflags: CompilerFlags,
    key: LowerKey,
    unroll_ns: u64,
}

/// What building front-end artifacts cost, per phase: wall time and
/// calls of unroll, lower (the index build included) and register
/// allocation. One artifact's ([`FrontEnd::phases`]) reads one call of
/// each phase it has run; a tier of artifacts adds those up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTelemetry {
    /// Nanoseconds spent unrolling.
    pub unroll_ns: u64,
    /// Unroll invocations.
    pub unroll_calls: u64,
    /// Nanoseconds spent lowering (including the index build).
    pub lower_ns: u64,
    /// Lower invocations.
    pub lower_calls: u64,
    /// Nanoseconds spent in register allocation.
    pub regalloc_ns: u64,
    /// Register-allocation invocations.
    pub regalloc_calls: u64,
}

impl PhaseTelemetry {
    /// `f` applied field by field.
    fn zip(self, other: PhaseTelemetry, f: impl Fn(u64, u64) -> u64) -> PhaseTelemetry {
        PhaseTelemetry {
            unroll_ns: f(self.unroll_ns, other.unroll_ns),
            unroll_calls: f(self.unroll_calls, other.unroll_calls),
            lower_ns: f(self.lower_ns, other.lower_ns),
            lower_calls: f(self.lower_calls, other.lower_calls),
            regalloc_ns: f(self.regalloc_ns, other.regalloc_ns),
            regalloc_calls: f(self.regalloc_calls, other.regalloc_calls),
        }
    }

    /// Counter-wise difference against an earlier reading (saturating,
    /// so a stale `before` cannot underflow).
    #[must_use]
    pub fn since(&self, before: &PhaseTelemetry) -> PhaseTelemetry {
        self.zip(*before, u64::saturating_sub)
    }
}

impl std::iter::Sum for PhaseTelemetry {
    fn sum<I: Iterator<Item = PhaseTelemetry>>(iter: I) -> PhaseTelemetry {
        iter.fold(PhaseTelemetry::default(), |a, b| a.zip(b, u64::saturating_add))
    }
}

/// Nanoseconds since `start`.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs the param-independent front-end: validates `uif`, unrolls, and
/// lowers `ast` for `gpu` ([`Unrolled::new`], then [`Unrolled::lower`]).
///
/// Fails only when `uif` itself is out of range; all other parameter
/// problems are back-end concerns ([`FrontEnd::specialize`]).
pub fn front_end(
    ast: &KernelAst,
    gpu: &GpuSpec,
    uif: u32,
    cflags: CompilerFlags,
) -> Result<FrontEnd, CompileError> {
    Ok(Unrolled::new(ast, uif, cflags)?.lower(gpu))
}

impl Unrolled {
    /// Validates `uif` and unrolls `ast` by it.
    pub fn new(ast: &KernelAst, uif: u32, cflags: CompilerFlags) -> Result<Unrolled, CompileError> {
        if let Some(problem) = TuningParams::uif_problem(uif) {
            return Err(CompileError::InvalidParams(vec![problem]));
        }
        let start = Instant::now();
        let ast = transform::unroll(ast, uif);
        let unroll_ns = ns_since(start);
        let fast_math = cflags.fast_math && reads_fast_math(&ast);
        Ok(Unrolled { uif, cflags, key: LowerKey { ast: Arc::new(ast), fast_math }, unroll_ns })
    }

    /// What lowering reads of this name.
    pub fn key(&self) -> &LowerKey {
        &self.key
    }

    /// Lowers the unrolled AST for `gpu`.
    pub fn lower(&self, gpu: &GpuSpec) -> FrontEnd {
        let start = Instant::now();
        let opts = LowerOptions { fast_math: self.cflags.fast_math };
        let (program, index) = lower_indexed(&self.key.ast, gpu.family, opts);
        let lower_ns = Some(ns_since(start));
        let index = Arc::new(index);
        let key = self.key.clone();
        let lowered = Arc::new(Lowered { key, gpu: gpu.clone(), program, index, alloc: OnceLock::new() });
        FrontEnd { uif: self.uif, cflags: self.cflags, unroll_ns: self.unroll_ns, lower_ns, lowered }
    }

    /// This name's front end on `held`'s device, program arena, index
    /// and register allocation, lowering nothing — a *twin* — when
    /// `held` was lowered from an equal key; `None` otherwise.
    pub fn twin(&self, held: &FrontEnd) -> Option<FrontEnd> {
        let (uif, cflags, unroll_ns, lowered) = (self.uif, self.cflags, self.unroll_ns, &held.lowered);
        (self.key == lowered.key).then(|| FrontEnd { uif, cflags, unroll_ns, lower_ns: None, lowered: Arc::clone(lowered) })
    }
}

impl FrontEnd {
    /// The cached register allocation for this lowered program at the
    /// device cap (computed on first use, by this artifact or a twin).
    pub(crate) fn allocation(&self) -> RegAllocation {
        let Lowered { program, gpu, alloc, .. } = &*self.lowered;
        alloc
            .get_or_init(|| {
                let start = Instant::now();
                let alloc = regalloc::allocate(program, gpu.regs_per_thread_max);
                (alloc, ns_since(start))
            })
            .0
    }

    /// What building this artifact has cost so far: its unroll, and,
    /// unless it is a twin, its lower and — once a specialization has
    /// asked for it — its register allocation.
    pub fn phases(&self) -> PhaseTelemetry {
        let unrolled = PhaseTelemetry { unroll_ns: self.unroll_ns, unroll_calls: 1, ..PhaseTelemetry::default() };
        let Some(lower_ns) = self.lower_ns else { return unrolled };
        let (regalloc_ns, regalloc_calls) = self.lowered.alloc.get().map_or((0, 0), |&(_, ns)| (ns, 1));
        PhaseTelemetry { lower_ns, lower_calls: 1, regalloc_ns, regalloc_calls, ..unrolled }
    }

    /// The analysis index every specialization, and every twin, shares.
    pub fn index(&self) -> &Arc<ProgramIndex> {
        &self.lowered.index
    }

    /// The cheap param-dependent back-end: validation, shared-memory
    /// sizing, metadata fill-in, and launch checking.
    ///
    /// `params` must agree with this artifact on `uif` and `cflags`
    /// (debug-asserted): those axes are baked into the lowered program.
    pub fn specialize(&self, params: TuningParams) -> Result<CompiledKernel, CompileError> {
        debug_assert_eq!(params.uif, self.uif, "front-end artifact built for a different UIF");
        debug_assert_eq!(
            params.cflags, self.cflags,
            "front-end artifact built for different CFLAGS"
        );
        let Lowered { gpu, program, index, key, .. } = &*self.lowered;
        let problems = params.problems(gpu);
        if !problems.is_empty() {
            return Err(CompileError::InvalidParams(problems));
        }

        let smem = oriole_ir::shared_bytes_for_block(&key.ast.shared, params.tc);
        if smem > gpu.shmem_per_block {
            return Err(CompileError::SharedMemExceeded {
                needed: smem,
                limit: gpu.shmem_per_block,
            });
        }

        let alloc = self.allocation();
        let mut program = program.clone();
        program.meta.regs_per_thread = alloc.regs_per_thread;
        program.meta.smem_static = smem;
        program.meta.spill_bytes = alloc.spill_bytes;

        Ok(CompiledKernel {
            params,
            gpu: gpu.clone(),
            program,
            smem_per_block: smem,
            reg_demand: alloc.demand,
            index: Arc::clone(index),
        })
    }
}

/// Compiles `ast` for `gpu` at tuning point `params`.
///
/// Pipeline: validate → unroll (`UIF`) → lower (with `CFLAGS`) →
/// register-allocate → fill metadata. Deterministic: identical inputs
/// produce identical [`CompiledKernel`]s. Equivalent to
/// [`front_end`] + [`FrontEnd::specialize`] — use the split form when
/// compiling many points that share `(UIF, CFLAGS)`.
pub fn compile(
    ast: &KernelAst,
    gpu: &GpuSpec,
    params: TuningParams,
) -> Result<CompiledKernel, CompileError> {
    // Full validation first, so callers see every problem at once (the
    // front-end alone would only report UIF trouble).
    let problems = params.problems(gpu);
    if !problems.is_empty() {
        return Err(CompileError::InvalidParams(problems));
    }
    front_end(ast, gpu, params.uif, params.cflags)?.specialize(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CompilerFlags, PreferredL1};
    use oriole_arch::Gpu;
    use oriole_kernels::KernelId;

    fn params(tc: u32, bc: u32, uif: u32, fast: bool) -> TuningParams {
        TuningParams {
            tc,
            bc,
            uif,
            pl: PreferredL1::Kb16,
            sc: 1,
            cflags: CompilerFlags { fast_math: fast },
        }
    }

    #[test]
    fn compiles_all_kernels_on_all_gpus() {
        for kid in oriole_kernels::ALL_KERNELS {
            let ast = kid.ast(128);
            for gpu in oriole_arch::ALL_GPUS {
                let c = compile(&ast, gpu.spec(), params(128, 48, 1, false))
                    .unwrap_or_else(|e| panic!("{kid} on {gpu}: {e}"));
                assert!(c.regs_per_thread() > 0);
                assert!(c.program.validate().is_empty());
            }
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let ast = KernelId::Atax.ast(64);
        let e = compile(&ast, Gpu::K20.spec(), params(100, 48, 1, false)).unwrap_err();
        assert!(matches!(e, CompileError::InvalidParams(_)));
        assert!(e.to_string().contains("warp"));
    }

    #[test]
    fn shared_memory_overflow_rejected() {
        // A kernel demanding 64 B of shared memory per thread overflows
        // the 48 KiB block limit at TC=1024.
        let mut ast = KernelId::MatVec2D.ast(64);
        ast.shared[0].elems = 16; // 64 B/thread
        let e = compile(&ast, Gpu::K20.spec(), params(1024, 24, 1, false)).unwrap_err();
        assert!(matches!(e, CompileError::SharedMemExceeded { .. }));
        // Small blocks still fit.
        assert!(compile(&ast, Gpu::K20.spec(), params(128, 24, 1, false)).is_ok());
    }

    #[test]
    fn unroll_factor_changes_program_and_registers() {
        let ast = KernelId::Atax.ast(128);
        let gpu = Gpu::K20.spec();
        let u1 = compile(&ast, gpu, params(128, 48, 1, false)).unwrap();
        let u4 = compile(&ast, gpu, params(128, 48, 4, false)).unwrap();
        assert!(u4.regs_per_thread() >= u1.regs_per_thread());
        assert!(u4.program.static_len() > u1.program.static_len());
    }

    #[test]
    fn fast_math_shrinks_ex14fj() {
        let ast = KernelId::Ex14Fj.ast(32);
        let gpu = Gpu::M40.spec();
        let full = compile(&ast, gpu, params(256, 48, 1, false)).unwrap();
        let fast = compile(&ast, gpu, params(256, 48, 1, true)).unwrap();
        assert!(fast.program.static_len() < full.program.static_len());
    }

    #[test]
    fn smem_scales_with_tc_for_matvec() {
        let ast = KernelId::MatVec2D.ast(128);
        let gpu = Gpu::P100.spec();
        let small = compile(&ast, gpu, params(64, 48, 1, false)).unwrap();
        let large = compile(&ast, gpu, params(1024, 48, 1, false)).unwrap();
        // Block-scaled reduction slots (4 B/thread) plus the fixed
        // 1 KiB x-tile.
        assert_eq!(small.smem_per_block, 64 * 4 + 1024);
        assert_eq!(large.smem_per_block, 1024 * 4 + 1024);
        assert_eq!(small.program.meta.smem_static, small.smem_per_block);
    }

    #[test]
    fn deterministic_compilation() {
        let ast = KernelId::Bicg.ast(64);
        let a = compile(&ast, Gpu::M2050.spec(), params(192, 96, 3, true)).unwrap();
        let b = compile(&ast, Gpu::M2050.spec(), params(192, 96, 3, true)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn disassembly_parses_back() {
        let ast = KernelId::MatVec2D.ast(64);
        let c = compile(&ast, Gpu::K20.spec(), params(256, 48, 2, false)).unwrap();
        let text = c.disassembly();
        let parsed = oriole_ir::text::parse(&text).expect("disassembly parses");
        assert_eq!(parsed, c.program);
    }

    #[test]
    fn fermi_register_cap_respected() {
        // Heavy unrolling on Fermi must never report more than 63 regs.
        let ast = KernelId::Ex14Fj.ast(64);
        let c = compile(&ast, Gpu::M2050.spec(), params(512, 96, 5, false)).unwrap();
        assert!(c.regs_per_thread() <= 63);
    }

    #[test]
    fn geometry_accessor() {
        let ast = KernelId::Atax.ast(256);
        let c = compile(&ast, Gpu::K20.spec(), params(128, 24, 1, false)).unwrap();
        let g = c.geometry(256);
        assert_eq!((g.n, g.tc, g.bc), (256, 128, 24));
    }

    #[test]
    fn split_pipeline_matches_monolithic() {
        // One front-end artifact serves every (TC, BC, PL) point and
        // reproduces compile() bit-for-bit.
        let ast = KernelId::MatVec2D.ast(128);
        let gpu = Gpu::K20.spec();
        let fe = front_end(&ast, gpu, 3, CompilerFlags { fast_math: true }).unwrap();
        for tc in [64u32, 256, 1024] {
            for bc in [24u32, 96] {
                for pl in [PreferredL1::Kb16, PreferredL1::Kb48] {
                    let mut p = params(tc, bc, 3, true);
                    p.pl = pl;
                    assert_eq!(fe.specialize(p), compile(&ast, gpu, p), "{p}");
                }
            }
        }
    }

    #[test]
    fn front_end_rejects_bad_uif_only() {
        let ast = KernelId::Atax.ast(64);
        let gpu = Gpu::K20.spec();
        assert!(front_end(&ast, gpu, 0, CompilerFlags::default()).is_err());
        assert!(front_end(&ast, gpu, 9, CompilerFlags::default()).is_err());
        // TC trouble is a back-end concern.
        let fe = front_end(&ast, gpu, 1, CompilerFlags::default()).unwrap();
        let err = fe.specialize(params(100, 48, 1, false)).unwrap_err();
        assert!(matches!(err, CompileError::InvalidParams(_)));
    }

    #[test]
    fn index_is_shared_across_specializations() {
        let ast = KernelId::MatVec2D.ast(64);
        let gpu = Gpu::K20.spec();
        let fe = front_end(&ast, gpu, 1, CompilerFlags::default()).unwrap();
        let a = fe.specialize(params(128, 48, 1, false)).unwrap();
        let b = fe.specialize(params(512, 24, 1, false)).unwrap();
        // One index per front-end artifact: the very same allocation.
        assert!(Arc::ptr_eq(fe.index(), &a.index));
        assert!(Arc::ptr_eq(&a.index, &b.index));
        assert_eq!(a.index.len(), a.program.blocks.len());
    }

    #[test]
    fn a_twin_shares_the_lowering_and_lowers_nothing() {
        // No op of ATAX reads `-use_fast_math`: both flags are one key.
        let (ast, gpu) = (KernelId::Atax.ast(64), Gpu::K20.spec());
        let name = |uif, fast_math| Unrolled::new(&ast, uif, CompilerFlags { fast_math }).unwrap();
        let held = name(2, false).lower(gpu);
        let twin = name(2, true).twin(&held).expect("CFLAGS reaches no op of atax");
        assert!(Arc::ptr_eq(held.index(), twin.index()));
        assert!(name(3, false).twin(&held).is_none(), "UIF unrolls atax's loops");
        let p = params(128, 48, 2, true);
        assert_eq!(twin.specialize(p), compile(&ast, gpu, p));
        let (t, h) = (twin.phases(), held.phases());
        assert_eq!((t.unroll_calls, t.lower_calls, t.regalloc_calls), (1, 0, 0));
        assert_eq!((h.lower_calls, h.regalloc_calls), (1, 1), "the twin allocated the lowering's registers");
        // Ex14FJ's divides read the flag: two keys.
        let ex14fj = KernelId::Ex14Fj.ast(32);
        let fast = Unrolled::new(&ex14fj, 1, CompilerFlags { fast_math: true }).unwrap();
        assert!(fast.twin(&front_end(&ex14fj, gpu, 1, CompilerFlags::default()).unwrap()).is_none());
    }

    #[test]
    fn allocation_is_computed_once_and_reused() {
        let ast = KernelId::Bicg.ast(64);
        let gpu = Gpu::K20.spec();
        let fe = front_end(&ast, gpu, 2, CompilerFlags::default()).unwrap();
        let built = fe.phases();
        assert_eq!((built.unroll_calls, built.lower_calls, built.regalloc_calls), (1, 1, 0));
        let a = fe.allocation();
        let k = fe.specialize(params(128, 48, 2, false)).unwrap();
        assert_eq!(k.regs_per_thread(), a.regs_per_thread);
        assert_eq!(k.reg_demand, a.demand);
        fe.specialize(params(256, 24, 2, false)).unwrap();
        let allocated = fe.phases();
        assert_eq!(allocated.regalloc_calls, 1, "one allocation, however many variants");
        let regalloc_ns = allocated.regalloc_ns;
        let delta = PhaseTelemetry { regalloc_ns, regalloc_calls: 1, ..PhaseTelemetry::default() };
        assert_eq!(allocated.since(&built), delta);
    }

    #[test]
    fn phases_add_up_and_subtract_without_underflow() {
        let one =
            PhaseTelemetry { unroll_ns: 5, unroll_calls: 1, lower_calls: 1, ..Default::default() };
        let two: PhaseTelemetry = [one, one].into_iter().sum();
        let counts = (two.unroll_ns, two.unroll_calls, two.lower_calls, two.regalloc_calls);
        assert_eq!(counts, (10, 2, 2, 0));
        assert_eq!(two.since(&one), one);
        assert_eq!(PhaseTelemetry::default().since(&two), PhaseTelemetry::default());
    }
}
