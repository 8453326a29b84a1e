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
//!   carries `boundary_fraction(n)`). The register-allocation result,
//!   which depends only on the lowered program and the device register
//!   cap, is computed once per artifact on first use and cached.
//! * The **back-end** ([`FrontEnd::specialize`]) is cheap and
//!   param-dependent: parameter validation, the shared-memory footprint
//!   (which scales with `TC` for block-scaled tiles), metadata fill-in,
//!   and launch validation.
//!
//! The monolithic [`compile`] remains as a thin wrapper running both
//! phases; it produces bit-identical [`CompiledKernel`]s to the split
//! pipeline (a property-tested invariant, see `tests/proptests.rs`).

use crate::params::{CompilerFlags, TuningParams};
use crate::profile::{self, Phase};
use crate::regalloc::{self, RegAllocation};
use crate::transform;
use oriole_arch::{validate_launch, GpuSpec, LaunchCheck};
use oriole_ir::lower::{lower_indexed, LowerOptions};
use oriole_ir::{KernelAst, LaunchGeometry, Program, ProgramIndex, SharedDecl};
use std::fmt;
use std::sync::{Arc, OnceLock};

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
/// every subsequent one.
#[derive(Debug)]
pub struct FrontEnd {
    gpu: GpuSpec,
    uif: u32,
    cflags: CompilerFlags,
    /// Lowered program with zeroed metadata (the back-end fills it).
    program: Program,
    /// Shared-memory declarations of the source kernel (unrolling never
    /// changes them); the back-end sizes them for each `TC`.
    shared: Vec<SharedDecl>,
    /// The analysis index of `program`, built exactly once here and
    /// cloned (by `Arc`) into every specialization.
    index: Arc<ProgramIndex>,
    /// Lazily computed, shared by all specializations.
    alloc: OnceLock<RegAllocation>,
}

/// Runs the param-independent front-end: validates `uif`, unrolls, and
/// lowers `ast` for `gpu`.
///
/// Fails only when `uif` itself is out of range; all other parameter
/// problems are back-end concerns ([`FrontEnd::specialize`]).
pub fn front_end(
    ast: &KernelAst,
    gpu: &GpuSpec,
    uif: u32,
    cflags: CompilerFlags,
) -> Result<FrontEnd, CompileError> {
    if let Some(problem) = TuningParams::uif_problem(uif) {
        return Err(CompileError::InvalidParams(vec![problem]));
    }
    let transformed = profile::time(Phase::Unroll, || transform::unroll(ast, uif));
    let (program, index) = profile::time(Phase::Lower, || {
        lower_indexed(&transformed, gpu.family, LowerOptions { fast_math: cflags.fast_math })
    });
    let index = Arc::new(index);
    Ok(FrontEnd {
        gpu: gpu.clone(),
        uif,
        cflags,
        program,
        shared: ast.shared.clone(),
        index,
        alloc: OnceLock::new(),
    })
}

impl FrontEnd {
    /// The cached register allocation for this lowered program at the
    /// device cap (computed on first use).
    pub(crate) fn allocation(&self) -> RegAllocation {
        *self
            .alloc
            .get_or_init(|| regalloc::allocate(&self.program, self.gpu.regs_per_thread_max))
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
        let problems = params.problems(&self.gpu);
        if !problems.is_empty() {
            return Err(CompileError::InvalidParams(problems));
        }

        let smem = oriole_ir::shared_bytes_for_block(&self.shared, params.tc);
        if smem > self.gpu.shmem_per_block {
            return Err(CompileError::SharedMemExceeded {
                needed: smem,
                limit: self.gpu.shmem_per_block,
            });
        }

        let alloc = self.allocation();
        let mut program = self.program.clone();
        program.meta.regs_per_thread = alloc.regs_per_thread;
        program.meta.smem_static = smem;
        program.meta.spill_bytes = alloc.spill_bytes;

        // Defensive: the launch itself must be legal now that resources
        // are known (registers were capped by the allocator, so only
        // pathological inputs can fail here).
        debug_assert!(
            validate_launch(
                &self.gpu,
                LaunchCheck {
                    threads_per_block: params.tc,
                    blocks: params.bc,
                    regs_per_thread: alloc.regs_per_thread,
                    shmem_per_block: smem,
                }
            )
            .is_ok()
        );

        Ok(CompiledKernel {
            params,
            gpu: self.gpu.clone(),
            program,
            smem_per_block: smem,
            reg_demand: alloc.demand,
            index: Arc::clone(&self.index),
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
        assert!(Arc::ptr_eq(&fe.index, &a.index));
        assert!(Arc::ptr_eq(&a.index, &b.index));
        assert_eq!(a.index.len(), a.program.blocks.len());
    }

    #[test]
    fn allocation_is_computed_once_and_reused() {
        let ast = KernelId::Bicg.ast(64);
        let gpu = Gpu::K20.spec();
        let fe = front_end(&ast, gpu, 2, CompilerFlags::default()).unwrap();
        let a = fe.allocation();
        let k = fe.specialize(params(128, 48, 2, false)).unwrap();
        assert_eq!(k.regs_per_thread(), a.regs_per_thread);
        assert_eq!(k.reg_demand, a.demand);
    }
}
