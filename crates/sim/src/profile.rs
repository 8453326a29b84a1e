//! Per-warp cost extraction from a lowered program.
//!
//! The profile integrates warp-level execution weights
//! ([`FreqExpr::eval_warp`](oriole_ir::FreqExpr::eval_warp)) over every
//! instruction, producing the handful of totals the timing model needs:
//! issue cycles (with load/store-unit replays for uncoalesced access),
//! memory-operation counts and average latency, DRAM transactions,
//! barrier and divergent-branch executions, and spill traffic.

use crate::config::SimConfig;
use oriole_ir::{AccessPattern, MemSpace, ProfileEvent, Program, ProgramIndex, TermClass};
use oriole_arch::{OpClass, ThroughputTable};

/// Aggregated per-warp costs (averaged over the busy warps of a launch).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpProfile {
    /// SM issue cycles per warp, including LSU transaction replays and
    /// shared-memory bank-conflict replays.
    pub issue_cycles: f64,
    /// Warp-level memory operations (dependent-chain stall points).
    pub mem_ops: f64,
    /// Σ (service latency × weight) over memory ops — divide by
    /// [`WarpProfile::mem_ops`] for the average exposed latency.
    pub latency_weighted: f64,
    /// 32-byte DRAM transactions per warp.
    pub dram_transactions: f64,
    /// Barrier executions per warp.
    pub barriers: f64,
    /// Divergent-branch executions per warp (reconvergence events).
    pub divergent_branches: f64,
}

impl WarpProfile {
    /// Average memory service latency per operation (0 when no memory
    /// ops execute).
    pub(crate) fn avg_latency(&self) -> f64 {
        if self.mem_ops > 0.0 {
            self.latency_weighted / self.mem_ops
        } else {
            0.0
        }
    }

    /// Extracts the profile of `program` at warp-level weights for
    /// geometry `(n, tc, bc)` by replaying the prebuilt index's
    /// per-block profile tapes instead of matching `Instr` vectors.
    /// Latencies and replay counts stay resolved here at query time
    /// (the tape records *what* accesses happen, [`SimConfig`] says what
    /// they cost), so one index serves every device configuration.
    ///
    /// Pass the *busy* block count as `bc` to obtain per-busy-warp costs
    /// (idle blocks fail their range guards immediately and are handled
    /// by the machine model's dispatch term instead).
    pub(crate) fn extract(
        index: &ProgramIndex,
        program: &Program,
        cfg: &SimConfig,
        n: u64,
        tc: u32,
        bc: u32,
    ) -> WarpProfile {
        let table = ThroughputTable::for_family(program.meta.family);
        let issue_of = |class: OpClass| 32.0 / f64::from(table.ipc(class));
        let mut p = WarpProfile::default();

        let mut hottest_weight: f64 = 0.0;
        for (block, s) in program.blocks.iter().zip(index.summaries()) {
            let w = block.freq.eval_warp(n, tc, bc);
            if w <= 0.0 {
                continue;
            }
            hottest_weight = hottest_weight.max(w);
            for ev in &s.profile_tape {
                match *ev {
                    ProfileEvent::Mem { class, space, pattern } => {
                        let (replays, latency, dram) = service(cfg, space, pattern);
                        p.issue_cycles += issue_of(class) * replays * w;
                        p.mem_ops += w;
                        p.latency_weighted += latency * w;
                        p.dram_transactions += dram * w;
                    }
                    ProfileEvent::Bar { class } => {
                        p.barriers += w;
                        p.issue_cycles += issue_of(class) * w;
                    }
                    ProfileEvent::Issue { class } => {
                        p.issue_cycles += issue_of(class) * w;
                    }
                }
            }
            match s.term {
                TermClass::Ctrl => {
                    p.issue_cycles += issue_of(OpClass::CtrlIns) * w;
                }
                TermClass::CondBranch { divergent } => {
                    p.issue_cycles += issue_of(OpClass::CtrlIns) * w;
                    if divergent {
                        p.divergent_branches += w;
                    }
                }
                TermClass::Ret => {}
            }
        }

        // Register spills: each spilled value is stored and reloaded in
        // the hottest region (the allocator spills what's live across the
        // busiest loop). Spilled traffic is local memory: per-thread
        // addresses interleave, so accesses coalesce (1 transaction) but
        // pay L2-class latency. Spill bytes live in `program.meta`, not
        // the index: specialization fills them in after the shared index
        // is built.
        let spilled_regs = f64::from(program.meta.spill_bytes) / 4.0;
        if spilled_regs > 0.0 && hottest_weight > 0.0 {
            let ops = 2.0 * spilled_regs * hottest_weight;
            let (replays, latency, dram) = service(cfg, MemSpace::Local, AccessPattern::Coalesced);
            p.issue_cycles += issue_of(OpClass::LdStIns) * replays * ops;
            p.mem_ops += ops;
            p.latency_weighted += latency * ops;
            p.dram_transactions += dram * ops;
        }
        p
    }

    /// The pre-index walk-based implementation, retained as the oracle
    /// the proptests compare against.
    #[cfg(test)]
    pub(crate) fn extract_walk(
        program: &Program,
        cfg: &SimConfig,
        n: u64,
        tc: u32,
        bc: u32,
    ) -> WarpProfile {
        use oriole_ir::{OpKind, Terminator};
        let table = ThroughputTable::for_family(program.meta.family);
        let issue_of = |class: OpClass| 32.0 / f64::from(table.ipc(class));
        let mut p = WarpProfile::default();

        let mut hottest_weight: f64 = 0.0;
        for block in &program.blocks {
            let w = block.freq.eval_warp(n, tc, bc);
            if w <= 0.0 {
                continue;
            }
            hottest_weight = hottest_weight.max(w);
            for instr in &block.instrs {
                let class = instr.opcode.op_class();
                match instr.opcode.kind {
                    OpKind::Ld(space) | OpKind::St(space) => {
                        let pattern = instr
                            .mem
                            .map(|m| m.pattern)
                            .unwrap_or(AccessPattern::Coalesced);
                        let (replays, latency, dram) = service(cfg, space, pattern);
                        p.issue_cycles += issue_of(class) * replays * w;
                        p.mem_ops += w;
                        p.latency_weighted += latency * w;
                        p.dram_transactions += dram * w;
                    }
                    OpKind::Tex | OpKind::Surf => {
                        let (replays, latency, dram) =
                            service(cfg, MemSpace::Texture, AccessPattern::Coalesced);
                        p.issue_cycles += issue_of(class) * replays * w;
                        p.mem_ops += w;
                        p.latency_weighted += latency * w;
                        p.dram_transactions += dram * w;
                    }
                    OpKind::Bar => {
                        p.barriers += w;
                        p.issue_cycles += issue_of(class) * w;
                    }
                    _ => {
                        p.issue_cycles += issue_of(class) * w;
                    }
                }
            }
            match &block.term {
                Terminator::Jump(_) | Terminator::LoopBack { .. } => {
                    p.issue_cycles += issue_of(OpClass::CtrlIns) * w;
                }
                Terminator::CondBranch { divergent, .. } => {
                    p.issue_cycles += issue_of(OpClass::CtrlIns) * w;
                    if *divergent {
                        p.divergent_branches += w;
                    }
                }
                Terminator::Ret => {}
            }
        }

        let spilled_regs = f64::from(program.meta.spill_bytes) / 4.0;
        if spilled_regs > 0.0 && hottest_weight > 0.0 {
            let ops = 2.0 * spilled_regs * hottest_weight;
            let (replays, latency, dram) = service(cfg, MemSpace::Local, AccessPattern::Coalesced);
            p.issue_cycles += issue_of(OpClass::LdStIns) * replays * ops;
            p.mem_ops += ops;
            p.latency_weighted += latency * ops;
            p.dram_transactions += dram * ops;
        }
        p
    }
}

/// Service model for one warp-level access:
/// `(LSU replays, exposed latency, DRAM transactions)`.
fn service(cfg: &SimConfig, space: MemSpace, pattern: AccessPattern) -> (f64, f64, f64) {
    let trans = f64::from(pattern.transactions_per_warp());
    match space {
        MemSpace::Shared => {
            // Bank conflicts replay in the LSU; no DRAM traffic.
            (trans, cfg.shared_latency, 0.0)
        }
        MemSpace::Constant => (1.0, cfg.cache_latency, 0.0),
        MemSpace::Local => {
            // Spill traffic: L2-resident in the common case.
            (1.0, cfg.dram_latency * 0.5, 1.0)
        }
        MemSpace::Global | MemSpace::Texture => match pattern {
            // Broadcast/cached reads are served by L1/texture cache.
            AccessPattern::Broadcast => (1.0, cfg.cache_latency, 0.0),
            _ => (trans, cfg.dram_latency, trans),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Family;
    use oriole_ir::lower::{lower_indexed, LowerOptions};
    use oriole_ir::{
        AluOp, Branch, DivergenceKind, KernelAst, Loop, SizeExpr, Stmt, TripCount,
    };

    fn profile_of(body: Vec<Stmt>, n: u64, tc: u32, bc: u32) -> WarpProfile {
        let mut k = KernelAst::new("p");
        k.body = body;
        let (p, idx) = lower_indexed(&k, Family::Kepler, LowerOptions::default());
        let cfg = SimConfig::for_family(Family::Kepler);
        WarpProfile::extract(&idx, &p, &cfg, n, tc, bc)
    }

    #[test]
    fn strided_loads_replay_in_lsu() {
        let coalesced = profile_of(
            vec![Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1)],
            64,
            32,
            1,
        );
        let strided = profile_of(
            vec![Stmt::Load(oriole_ir::MemStmt {
                space: MemSpace::Global,
                pattern: AccessPattern::Strided(32),
                elem_bytes: 4,
                count: 1,
            })],
            64,
            32,
            1,
        );
        // 32 replays vs 1 → strided issue must dominate.
        assert!(strided.issue_cycles > coalesced.issue_cycles + 25.0);
        assert!(strided.dram_transactions >= 32.0 * 0.99);
        assert!((coalesced.dram_transactions - 1.0).abs() < 0.01);
        // Same number of dependent-chain stall points.
        assert!((strided.mem_ops - coalesced.mem_ops).abs() < 1e-9);
    }

    #[test]
    fn broadcast_hits_cache() {
        let p = profile_of(
            vec![Stmt::load(MemSpace::Global, AccessPattern::Broadcast, 1)],
            64,
            32,
            1,
        );
        assert_eq!(p.dram_transactions, 0.0);
        let cfg = SimConfig::for_family(Family::Kepler);
        assert!((p.avg_latency() - cfg.cache_latency).abs() < 1e-9);
    }

    #[test]
    fn shared_access_no_dram() {
        let p = profile_of(
            vec![
                Stmt::store(MemSpace::Shared, AccessPattern::Coalesced, 1),
                Stmt::load(MemSpace::Shared, AccessPattern::Coalesced, 1),
            ],
            64,
            32,
            1,
        );
        assert_eq!(p.dram_transactions, 0.0);
        assert_eq!(p.mem_ops, 2.0);
    }

    #[test]
    fn loop_weights_scale_costs() {
        let body = |trips| {
            vec![Stmt::Loop(Loop {
                trip: TripCount::Const(trips),
                unrollable: false,
                body: vec![Stmt::ops(AluOp::FmaF32, 1)],
            })]
        };
        let short = profile_of(body(10), 64, 32, 1);
        let long = profile_of(body(100), 64, 32, 1);
        assert!(long.issue_cycles > short.issue_cycles * 5.0);
    }

    #[test]
    fn divergent_branches_counted() {
        let p = profile_of(
            vec![Stmt::If(Branch {
                divergence: DivergenceKind::ThreadDependent,
                taken_fraction: 0.1,
                then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
                else_body: vec![Stmt::ops(AluOp::MulF32, 1)],
            })],
            64,
            32,
            1,
        );
        assert!((p.divergent_branches - 1.0).abs() < 1e-9);
        let uniform = profile_of(
            vec![Stmt::If(Branch {
                divergence: DivergenceKind::Uniform,
                taken_fraction: 0.1,
                then_body: vec![Stmt::ops(AluOp::AddF32, 1)],
                else_body: vec![Stmt::ops(AluOp::MulF32, 1)],
            })],
            64,
            32,
            1,
        );
        assert_eq!(uniform.divergent_branches, 0.0);
    }

    #[test]
    fn divergence_saturates_both_sides() {
        // With a 10% divergent branch, warp-level weights run both sides
        // nearly always → issue exceeds the uniform case, where only the
        // expected fraction executes.
        let mk = |kind| {
            profile_of(
                vec![Stmt::If(Branch {
                    divergence: kind,
                    taken_fraction: 0.1,
                    then_body: vec![Stmt::ops(AluOp::FmaF32, 50)],
                    else_body: vec![Stmt::ops(AluOp::FmaF32, 50)],
                })],
                64,
                32,
                1,
            )
        };
        let div = mk(DivergenceKind::ThreadDependent);
        let uni = mk(DivergenceKind::Uniform);
        assert!(
            div.issue_cycles > uni.issue_cycles * 1.5,
            "divergent {} vs uniform {}",
            div.issue_cycles,
            uni.issue_cycles
        );
    }

    #[test]
    fn barrier_counted() {
        let p = profile_of(vec![Stmt::SyncThreads], 64, 32, 1);
        assert_eq!(p.barriers, 1.0);
    }

    #[test]
    fn grid_stride_work_is_packing_invariant() {
        // Total issue over the grid (profile × warps) must not depend on
        // geometry for grid-stride dominated kernels.
        let body = vec![Stmt::Loop(Loop {
            trip: TripCount::GridStride(SizeExpr::N2),
            unrollable: false,
            body: vec![Stmt::ops(AluOp::FmaF32, 16)],
        })];
        // Compare geometries where every thread carries work (t ≥ 1) so
        // per-warp prologue overhead stays second-order.
        let p1 = profile_of(body.clone(), 128, 64, 8);
        let p2 = profile_of(body, 128, 128, 16);
        let total1 = p1.issue_cycles * (64.0 * 8.0 / 32.0);
        let total2 = p2.issue_cycles * (128.0 * 16.0 / 32.0);
        let rel = (total1 - total2).abs() / total1;
        assert!(rel < 0.25, "{total1} vs {total2}");
    }

    #[test]
    fn spills_add_traffic() {
        let mut k = KernelAst::new("spilled");
        k.body = vec![Stmt::Loop(Loop {
            trip: TripCount::Const(64),
            unrollable: false,
            body: vec![Stmt::ops(AluOp::FmaF32, 1)],
        })];
        let (mut p, idx) = lower_indexed(&k, Family::Fermi, LowerOptions::default());
        let cfg = SimConfig::for_family(Family::Fermi);
        let clean = WarpProfile::extract(&idx, &p, &cfg, 64, 32, 1);
        p.meta.spill_bytes = 16; // 4 spilled registers
        let spilled = WarpProfile::extract(&idx, &p, &cfg, 64, 32, 1);
        assert!(spilled.dram_transactions > clean.dram_transactions);
        assert!(spilled.mem_ops > clean.mem_ops);
        assert!(spilled.issue_cycles > clean.issue_cycles);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testgen::arb_kernel;
    use oriole_arch::Family;
    use oriole_ir::lower::{lower_indexed, LowerOptions};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn indexed_profile_bit_identical(
            ast in arb_kernel(),
            fast in any::<bool>(),
            n in 1u64..256,
            tc_i in 0usize..4,
            bc in 1u32..49,
            spilled_regs in 0u32..8,
        ) {
            let tc = [32u32, 128, 512, 1024][tc_i];
            // The index is meta-independent: built before the spill
            // bytes land, as the front end does.
            let (mut p, idx) =
                lower_indexed(&ast, Family::Kepler, LowerOptions { fast_math: fast });
            p.meta.spill_bytes = spilled_regs * 4;
            let cfg = SimConfig::for_family(Family::Kepler);
            let indexed = WarpProfile::extract(&idx, &p, &cfg, n, tc, bc);
            let walk = WarpProfile::extract_walk(&p, &cfg, n, tc, bc);
            prop_assert_eq!(&indexed, &walk);
        }
    }
}
