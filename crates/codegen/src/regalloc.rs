//! Register-pressure estimation: the `ptxas` allocator stand-in.
//!
//! The occupancy model (Eq. 4) and the paper's Table VII suggestions key
//! off a single number — registers per thread — that in the real
//! toolchain only `ptxas` knows. We estimate it with a linear-scan
//! live-interval analysis over the lowered program:
//!
//! * virtual registers get intervals `[def, last use]` in linear
//!   instruction order;
//! * values live across a loop's body (used after a back edge region)
//!   are extended to the loop end, as a rotating allocator would keep
//!   them resident;
//! * peak overlap plus a fixed system reserve (thread-index registers,
//!   parameter pointers, ABI scratch) is the reported figure. The peak
//!   is one prefix sum over a per-position delta array (+1 at a def,
//!   −1 after a last use): linear in the program's positions, with no
//!   event list to sort;
//! * demand beyond the per-thread architectural cap spills: each
//!   overflowed register becomes 4 bytes of local memory, which the
//!   simulator charges as extra global-latency traffic.

use oriole_ir::{Program, Terminator};

/// Registers the ABI reserves outside allocatable program values
/// (thread/block indices, parameter base pointers, stack pointer).
const SYSTEM_RESERVED_REGS: u32 = 8;

/// Result of register allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegAllocation {
    /// Registers per thread reported to occupancy (`R_u`), capped at the
    /// architectural maximum.
    pub regs_per_thread: u32,
    /// Uncapped demand (diagnostics; equals `regs_per_thread` when no
    /// spilling occurred).
    pub demand: u32,
    /// Bytes of local memory per thread holding spilled values.
    pub spill_bytes: u32,
}

/// Runs the estimator against `program` for a device allowing
/// `max_regs_per_thread` registers (Table I `R^cc_T`).
pub fn allocate(program: &Program, max_regs_per_thread: u32) -> RegAllocation {
    let demand = SYSTEM_RESERVED_REGS + peak_pressure(program);
    if demand <= max_regs_per_thread {
        RegAllocation { regs_per_thread: demand, demand, spill_bytes: 0 }
    } else {
        let spilled = demand - max_regs_per_thread;
        RegAllocation {
            regs_per_thread: max_regs_per_thread,
            demand,
            spill_bytes: spilled * 4,
        }
    }
}

/// Sentinel for registers never seen in the program.
const UNSEEN: usize = usize::MAX;

/// Peak number of simultaneously live virtual registers in linear order:
/// +1 at each range's def and −1 after its last use, summed in one
/// prefix sweep over the dense positions. The live count after a
/// position's last change is the most it reaches there (an end and a
/// start at one position cancel), so this is the peak of a sorted event
/// sweep without the events or the sort.
fn peak_pressure(program: &Program) -> u32 {
    let (ranges, positions) = live_ranges(program);
    let mut delta = vec![0i32; positions + 1];
    for (def, last_use) in ranges {
        delta[def] += 1;
        delta[last_use + 1] -= 1;
    }
    let mut live = 0i32;
    let mut peak = 0i32;
    for d in delta {
        live += d;
        peak = peak.max(live);
    }
    peak as u32
}

/// Every register's live range `(def, last use)` in linear positions —
/// one per instruction and one per block terminator — with the
/// loop-carried extension applied, and the number of positions.
fn live_ranges(program: &Program) -> (impl Iterator<Item = (usize, usize)>, usize) {
    // Dense def/last-use position maps indexed by register number —
    // lowering assigns small dense ids, so a flat Vec beats hashing.
    let nregs = program
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .flat_map(|i| i.def().into_iter().chain(i.uses()))
        .map(|r| r.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut def_pos = vec![UNSEEN; nregs];
    let mut last_use = vec![UNSEEN; nregs];
    // Linear positions of every instruction; block boundaries are
    // positions too, so empty blocks don't collapse intervals.
    let mut block_span: Vec<(usize, usize)> = Vec::with_capacity(program.blocks.len());
    let mut pos = 0usize;
    for block in &program.blocks {
        let start = pos;
        for instr in &block.instrs {
            // A register lives from where it is first seen — defined,
            // or used without a def (parser input) — to its last use.
            for r in instr.def().into_iter().chain(instr.uses()) {
                let r = r.0 as usize;
                if def_pos[r] == UNSEEN {
                    (def_pos[r], last_use[r]) = (pos, pos);
                }
            }
            for u in instr.uses() {
                last_use[u.0 as usize] = pos;
            }
            pos += 1;
        }
        pos += 1; // terminator slot
        block_span.push((start, pos - 1));
    }

    // Loop-carried extension: a value defined before a loop and used
    // inside it stays live through the whole loop body (the back edge
    // re-enters). Extend last_use to the latch position.
    let extend = |last_use: &mut [usize], body_start: usize, latch_end: usize| {
        for (def, lu) in def_pos.iter().zip(last_use.iter_mut()) {
            // Live range touches the loop body → extend to latch.
            if *def != UNSEEN && *def < body_start && *lu >= body_start && *lu < latch_end {
                *lu = latch_end;
            }
        }
    };
    for (i, block) in program.blocks.iter().enumerate() {
        // A loop's back edge, or one expressed as a plain conditional
        // branch (e.g. parsed listings) to this block or one before it.
        let back_edges = match block.term {
            Terminator::LoopBack { target, .. } => [Some(target), None],
            Terminator::CondBranch { taken, fallthrough, .. } => {
                [taken, fallthrough].map(|t| (t.0 as usize <= i).then_some(t))
            }
            _ => [None, None],
        };
        for target in back_edges.into_iter().flatten() {
            extend(&mut last_use, block_span[target.0 as usize].0, block_span[i].1);
        }
    }

    let ranges = def_pos.into_iter().zip(last_use).filter(|&(def, _)| def != UNSEEN);
    (ranges, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Family;
    use oriole_ir::lower::{lower, LowerOptions};
    use oriole_ir::{AccessPattern, AluOp, KernelAst, Loop, MemSpace, SizeExpr, Stmt, TripCount};

    fn alloc_for(body: Vec<Stmt>, cap: u32) -> RegAllocation {
        let mut k = KernelAst::new("ra");
        k.body = body;
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        allocate(&p, cap)
    }

    #[test]
    fn small_kernel_uses_few_registers() {
        let a = alloc_for(vec![Stmt::ops(AluOp::AddF32, 1)], 255);
        assert!(a.regs_per_thread >= SYSTEM_RESERVED_REGS);
        assert!(a.regs_per_thread < 24, "{a:?}");
        assert_eq!(a.spill_bytes, 0);
    }

    #[test]
    fn unrolling_increases_pressure() {
        let base = Loop {
            trip: TripCount::Size(SizeExpr::N),
            unrollable: true,
            body: vec![
                Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
                Stmt::load(MemSpace::Global, AccessPattern::Broadcast, 1),
                Stmt::ops(AluOp::FmaF32, 1),
            ],
        };
        let mut k = KernelAst::new("u");
        k.body = vec![Stmt::Loop(base)];
        let mut prev = 0;
        for u in [1u32, 2, 4, 8] {
            let unrolled = crate::transform::unroll(&k, u);
            let p = lower(&unrolled, Family::Kepler, LowerOptions::default());
            let a = allocate(&p, 255);
            assert!(
                a.regs_per_thread >= prev,
                "u={u}: {} < {prev}",
                a.regs_per_thread
            );
            prev = a.regs_per_thread;
        }
        // Monotone and actually grew overall.
        let p1 = lower(&crate::transform::unroll(&k, 1), Family::Kepler, LowerOptions::default());
        let p8 = lower(&crate::transform::unroll(&k, 8), Family::Kepler, LowerOptions::default());
        assert!(allocate(&p8, 255).regs_per_thread > allocate(&p1, 255).regs_per_thread);
    }

    #[test]
    fn cap_produces_spills() {
        // Force demand above a tiny cap.
        let body = vec![Stmt::ops(AluOp::FmaF32, 40)];
        let a = alloc_for(body, 10);
        assert_eq!(a.regs_per_thread, 10);
        assert!(a.demand > 10);
        assert_eq!(a.spill_bytes, (a.demand - 10) * 4);
    }

    #[test]
    fn fermi_cap_spills_before_kepler() {
        // A register-hungry unrolled kernel can exceed Fermi's 63-reg cap
        // while fitting in Kepler's 255.
        let inner = Loop {
            trip: TripCount::Size(SizeExpr::N),
            unrollable: true,
            body: vec![
                Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 4),
                Stmt::ops(AluOp::FmaF32, 4),
            ],
        };
        let mut k = KernelAst::new("hungry");
        k.body = vec![Stmt::Loop(inner)];
        let unrolled = crate::transform::unroll(&k, 8);
        let p = lower(&unrolled, Family::Fermi, LowerOptions::default());
        let fermi = allocate(&p, 63);
        let kepler = allocate(&p, 255);
        assert!(fermi.demand == kepler.demand);
        assert!(fermi.spill_bytes >= kepler.spill_bytes);
    }

    #[test]
    fn kernels_land_in_realistic_register_band() {
        // Paper Table V "Allocated" column: 13–32 registers across the
        // four kernels at UIF=1.
        for kid in oriole_kernels::ALL_KERNELS {
            let ast = kid.ast(128);
            let p = lower(&ast, Family::Kepler, LowerOptions::default());
            let a = allocate(&p, 255);
            assert!(
                (10..=48).contains(&a.regs_per_thread),
                "{kid}: {} regs",
                a.regs_per_thread
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_ir::lower::{lower, LowerOptions};
    use oriole_ir::testgen::{check, kernel};

    /// `allocate` against a brute-force count of the registers live at
    /// every position of the same live ranges, with the reserve and the
    /// device cap applied by hand.
    #[test]
    fn prefix_sweep_matches_a_per_position_live_count() {
        check("prefix_sweep_matches_a_per_position_live_count", 64, |rng| {
            let ast = kernel(rng, "regalloc_prop");
            let ast = crate::transform::unroll(&ast, rng.range_u64(1, 5) as u32);
            let gpu = rng.pick(&[Gpu::M2050, Gpu::K20]).spec();
            let program = lower(&ast, gpu.family, LowerOptions { fast_math: rng.coin() });
            let (ranges, positions) = live_ranges(&program);
            let ranges: Vec<(usize, usize)> = ranges.collect();
            let live_at = |p: usize| ranges.iter().filter(|&&(d, l)| d <= p && p <= l).count();
            let peak = (0..positions).map(live_at).max().unwrap_or(0);
            let demand = SYSTEM_RESERVED_REGS + peak as u32;
            let regs_per_thread = demand.min(gpu.regs_per_thread_max);
            let spill_bytes = (demand - regs_per_thread) * 4;
            let expected = RegAllocation { regs_per_thread, demand, spill_bytes };
            assert_eq!(allocate(&program, gpu.regs_per_thread_max), expected);
        });
    }
}
