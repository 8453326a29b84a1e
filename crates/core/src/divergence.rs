//! CFG-based divergence diagnosis.
//!
//! The paper distinguishes its analyzer from STATuner partly by building
//! "a CFG to help understand flow divergence" (§V). This module walks the
//! divergent regions the CFG analysis finds and quantifies the Fig. 1
//! effect: how much instruction issue a warp wastes executing both sides
//! of thread-dependent branches.

use oriole_ir::{LaunchGeometry, Program, ProgramIndex};

/// One divergent branch and its estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceFinding {
    /// Label of the block whose terminator diverges.
    pub branch_label: String,
    /// Label of the reconvergence block, if any.
    pub reconverges_at: Option<String>,
    /// Warp-level executions of the branch per thread (how often the
    /// split happens).
    pub executions: f64,
    /// Issue weight (instruction executions) in the region at
    /// *warp level* — both sides execute.
    pub warp_cost: f64,
    /// Issue weight at *thread level* — what a mask-aware machine would
    /// pay.
    pub thread_cost: f64,
}

impl DivergenceFinding {
    /// Serialization overhead ratio: warp-level over thread-level cost
    /// (1.0 = no waste; 2.0 = warps execute twice the useful work).
    pub(crate) fn overhead(&self) -> f64 {
        if self.thread_cost > 0.0 {
            self.warp_cost / self.thread_cost
        } else if self.warp_cost > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Divergence analysis of a whole kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DivergenceReport {
    /// Per-branch findings, in block order.
    pub findings: Vec<DivergenceFinding>,
    /// Kernel-wide issue overhead factor from divergence
    /// (warp-level total / thread-level total over the whole program).
    pub overall_overhead: f64,
}

impl DivergenceReport {
    /// Whether the kernel diverges at all.
    pub(crate) fn is_divergent(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// Analyzes divergence of `program` at `geom` with its index (a
/// kernel's shared artifact): precomputed regions, no per-call CFG
/// construction, and a branch-free fast path for divergence-free
/// programs.
pub fn analyze_divergence(
    index: &ProgramIndex,
    program: &Program,
    geom: LaunchGeometry,
) -> DivergenceReport {
    let (n, tc, bc) = (geom.n, geom.tc, geom.bc);

    if !index.has_divergence() {
        // No divergent branch and no DivFraction factor anywhere: warp-
        // and thread-level weights coincide bitwise for every block, so
        // the totals are equal and the overhead is exactly their ratio
        // (reproducing the walk's inf/inf → NaN edge case included).
        let mut total_thread = 0.0;
        for (block, s) in program.blocks.iter().zip(index.summaries()) {
            total_thread += block.freq.eval_expected(n, tc, bc) * (s.instr_count as f64 + 1.0);
        }
        // t/t rather than a literal 1.0: a +inf total must yield NaN
        // here, exactly as the walk's warp/thread division does.
        #[allow(clippy::eq_op)]
        let overall_overhead =
            if total_thread > 0.0 { total_thread / total_thread } else { 1.0 };
        return DivergenceReport { findings: Vec::new(), overall_overhead };
    }

    let block_cost = |weights_warp: bool, id: oriole_ir::BlockId| -> f64 {
        let b = &program.blocks[id.0 as usize];
        let w = if weights_warp {
            b.freq.eval_warp(n, tc, bc)
        } else {
            b.freq.eval_expected(n, tc, bc)
        };
        w * (index.summary(id).instr_count as f64 + 1.0)
    };

    let mut findings = Vec::new();
    for region in index.divergent_regions() {
        let branch = &program.blocks[region.branch_block.0 as usize];
        let mut warp_cost = 0.0;
        let mut thread_cost = 0.0;
        // Region bodies are sorted block-id vectors: the summation order
        // is deterministic across processes and analysis paths.
        for &b in &region.body {
            warp_cost += block_cost(true, b);
            thread_cost += block_cost(false, b);
        }
        findings.push(DivergenceFinding {
            branch_label: branch.label.clone(),
            reconverges_at: region
                .reconvergence
                .map(|r| program.blocks[r.0 as usize].label.clone()),
            executions: branch.freq.eval_warp(n, tc, bc),
            warp_cost,
            thread_cost,
        });
    }

    let mut total_warp = 0.0;
    let mut total_thread = 0.0;
    for i in 0..program.blocks.len() {
        let id = oriole_ir::BlockId(i as u32);
        total_warp += block_cost(true, id);
        total_thread += block_cost(false, id);
    }
    let overall_overhead = if total_thread > 0.0 { total_warp / total_thread } else { 1.0 };

    DivergenceReport { findings, overall_overhead }
}

/// The pre-index walk-based implementation, retained as the oracle the
/// proptests compare against: regions come from the index, but block
/// weights are read from the `Instr` vectors and no fast path is taken.
#[cfg(test)]
pub(crate) fn analyze_divergence_walk(
    index: &ProgramIndex,
    program: &Program,
    geom: LaunchGeometry,
) -> DivergenceReport {
    let (n, tc, bc) = (geom.n, geom.tc, geom.bc);

    let block_cost = |weights_warp: bool, id: oriole_ir::BlockId| -> f64 {
        let b = &program.blocks[id.0 as usize];
        let w = if weights_warp {
            b.freq.eval_warp(n, tc, bc)
        } else {
            b.freq.eval_expected(n, tc, bc)
        };
        w * (b.instrs.len() as f64 + 1.0)
    };

    let mut findings = Vec::new();
    for region in index.divergent_regions() {
        let branch = &program.blocks[region.branch_block.0 as usize];
        let mut warp_cost = 0.0;
        let mut thread_cost = 0.0;
        for &b in &region.body {
            warp_cost += block_cost(true, b);
            thread_cost += block_cost(false, b);
        }
        findings.push(DivergenceFinding {
            branch_label: branch.label.clone(),
            reconverges_at: region
                .reconvergence
                .map(|r| program.blocks[r.0 as usize].label.clone()),
            executions: branch.freq.eval_warp(n, tc, bc),
            warp_cost,
            thread_cost,
        });
    }

    let mut total_warp = 0.0;
    let mut total_thread = 0.0;
    for i in 0..program.blocks.len() {
        let id = oriole_ir::BlockId(i as u32);
        total_warp += block_cost(true, id);
        total_thread += block_cost(false, id);
    }
    let overall_overhead = if total_thread > 0.0 { total_warp / total_thread } else { 1.0 };

    DivergenceReport { findings, overall_overhead }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Family;
    use oriole_ir::lower::{lower_indexed, LowerOptions};
    use oriole_ir::{AluOp, Branch, DivergenceKind, KernelAst, Stmt};

    fn analyze_body(body: Vec<Stmt>) -> DivergenceReport {
        let mut k = KernelAst::new("d");
        k.body = body;
        let (p, index) = lower_indexed(&k, Family::Kepler, LowerOptions::default());
        analyze_divergence(&index, &p, LaunchGeometry::new(64, 128, 8))
    }

    #[test]
    fn straight_line_kernel_clean() {
        let r = analyze_body(vec![Stmt::ops(AluOp::FmaF32, 8)]);
        assert!(!r.is_divergent());
        assert!((r.overall_overhead - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_branch_not_flagged() {
        let r = analyze_body(vec![Stmt::If(Branch {
            divergence: DivergenceKind::Uniform,
            taken_fraction: 0.5,
            then_body: vec![Stmt::ops(AluOp::AddF32, 4)],
            else_body: vec![Stmt::ops(AluOp::MulF32, 4)],
        })]);
        assert!(!r.is_divergent());
    }

    #[test]
    fn divergent_branch_quantified() {
        let r = analyze_body(vec![Stmt::If(Branch {
            divergence: DivergenceKind::ThreadDependent,
            taken_fraction: 0.1,
            then_body: vec![Stmt::ops(AluOp::AddF32, 20)],
            else_body: vec![Stmt::ops(AluOp::MulF32, 20)],
        })]);
        assert!(r.is_divergent());
        assert_eq!(r.findings.len(), 1);
        let f = &r.findings[0];
        // Warp executes both sides (≈ 2× the thread-level expectation of
        // 0.1·cost + 0.9·cost = 1× side cost).
        assert!(f.overhead() > 1.5, "overhead {}", f.overhead());
        assert!(f.reconverges_at.is_some());
        assert!(r.overall_overhead > 1.2);
    }

    #[test]
    fn fifty_fifty_divergence_costs_double() {
        // With p = 0.5 the thread-level cost is half of executing both
        // sides; warps pay everything → overhead ≈ 2.
        let r = analyze_body(vec![Stmt::If(Branch {
            divergence: DivergenceKind::ThreadDependent,
            taken_fraction: 0.5,
            then_body: vec![Stmt::ops(AluOp::AddF32, 30)],
            else_body: vec![Stmt::ops(AluOp::MulF32, 30)],
        })]);
        let f = &r.findings[0];
        assert!((f.overhead() - 2.0).abs() < 0.15, "overhead {}", f.overhead());
    }

    #[test]
    fn ex14fj_divergence_shrinks_with_n() {
        // Boundary fraction falls with N, so the overall overhead factor
        // falls too.
        let overhead = |n: u64| {
            let ast = oriole_kernels::ex14fj::ast(n);
            let (p, index) = lower_indexed(&ast, Family::Maxwell, LowerOptions::default());
            analyze_divergence(&index, &p, LaunchGeometry::new(n, 128, 48)).overall_overhead
        };
        assert!(overhead(8) > overhead(64), "{} !> {}", overhead(8), overhead(64));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use oriole_arch::Family;
    use oriole_ir::lower::{lower_indexed, LowerOptions};
    use oriole_ir::{
        AccessPattern, AluOp, Branch, DivergenceKind, KernelAst, Loop, MemSpace, MemStmt,
        SizeExpr, Stmt, TripCount,
    };
    use proptest::prelude::*;

    fn arb_stmt(depth: u32) -> BoxedStrategy<Stmt> {
        let alu = prop_oneof![
            Just(AluOp::AddF32),
            Just(AluOp::MulF32),
            Just(AluOp::FmaF32),
            Just(AluOp::DivF32),
            Just(AluOp::SqrtF32),
            Just(AluOp::AddI32),
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
            let mut k = KernelAst::new("div_prop");
            k.body = body;
            k
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn indexed_divergence_bit_identical(
            ast in arb_kernel(),
            fast in any::<bool>(),
            n in 1u64..256,
            tc_i in 0usize..4,
            bc in 1u32..49,
        ) {
            let tc = [32u32, 128, 512, 1024][tc_i];
            let (p, index) = lower_indexed(&ast, Family::Kepler, LowerOptions { fast_math: fast });
            let geom = LaunchGeometry::new(n, tc, bc);
            prop_assert_eq!(
                &analyze_divergence(&index, &p, geom),
                &analyze_divergence_walk(&index, &p, geom)
            );
        }
    }
}
