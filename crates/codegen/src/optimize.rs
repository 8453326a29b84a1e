//! Post-lowering peephole optimizations.
//!
//! Infrastructure for the paper's §VII direction ("we will investigate
//! several avenues for enhancing our static models, including
//! algorithm-specific optimizations"): cleanup passes over the linear IR
//! that a production `ptxas` would perform. The passes are *not* part of
//! the default [`crate::compile()`] pipeline — the evaluation reproduces
//! the paper against unoptimized lowering — but the analyzer accepts
//! optimized programs transparently. No `tune` or `serve` path runs
//! them; the benchmark's `codegen.peephole_us` probe times them.
//!
//! Passes:
//! * **move forwarding** — `mov %b, %a` followed by uses of `%b` becomes
//!   direct uses of `%a` (register-to-register moves only);
//! * **dead-code elimination** — instructions whose destination register
//!   is never read and that have no side effects (stores, barriers,
//!   predicate definitions, control flow) are removed, iterating to a
//!   fixed point.
//!
//! `tests/index_golden.rs` pins what they emit over the paper space and
//! a fixed-seed list of straight-line programs.

use oriole_ir::{OpKind, Operand, Program, Reg};
use std::collections::{HashMap, HashSet};

/// What the optimizer did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Moves whose uses were forwarded to the source.
    pub moves_forwarded: usize,
    /// Instructions removed as dead.
    pub dead_removed: usize,
}

/// Runs move forwarding followed by iterated dead-code elimination.
/// Returns the optimized program and statistics. Control flow, stores,
/// barriers and predicates are always preserved, so block structure and
/// execution frequencies are untouched.
pub fn peephole(program: &Program) -> (Program, OptStats) {
    let mut out = program.clone();
    let mut stats = OptStats { moves_forwarded: forward_moves(&mut out), ..OptStats::default() };
    loop {
        let removed = eliminate_dead(&mut out);
        if removed == 0 {
            break;
        }
        stats.dead_removed += removed;
    }
    (out, stats)
}

/// Forwards register-to-register moves within each block (conservative:
/// the mapping resets at block boundaries, so no dataflow is needed).
fn forward_moves(program: &mut Program) -> usize {
    let mut forwarded = 0;
    for block in program.blocks.make_mut() {
        let mut alias: HashMap<Reg, Reg> = HashMap::new();
        for instr in &mut block.instrs {
            // Rewrite sources through the alias map (resolving chains).
            for src in instr.srcs.iter_mut() {
                if let Operand::Reg(r) = src {
                    let mut cur = *r;
                    let mut hops = 0;
                    while let Some(&next) = alias.get(&cur) {
                        cur = next;
                        hops += 1;
                        if hops > 64 {
                            break; // defensive: a self-move aliases a register to itself
                        }
                    }
                    if cur != *r {
                        *src = Operand::Reg(cur);
                        forwarded += 1;
                    }
                }
            }
            // A definition invalidates the alias *of* the defined reg and
            // every alias running *through* it.
            if let Some(d) = instr.dst {
                alias.remove(&d);
                alias.retain(|_, v| *v != d);
                // Record new alias for plain reg-to-reg moves.
                if instr.opcode.kind == OpKind::Mov && instr.srcs.len() == 1 {
                    if let Operand::Reg(src) = instr.srcs[0] {
                        alias.insert(d, src);
                    }
                }
            }
        }
    }
    forwarded
}

/// Removes side-effect-free instructions whose destination is never read
/// anywhere in the program. Returns the number removed.
fn eliminate_dead(program: &mut Program) -> usize {
    let used: HashSet<Reg> = program
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .flat_map(|i| i.uses())
        .collect();
    let mut removed = 0;
    for block in program.blocks.make_mut() {
        let before = block.instrs.len();
        block.instrs.retain(|instr| {
            let side_effect = matches!(
                instr.opcode.kind,
                OpKind::St(_) | OpKind::Bar | OpKind::Bra | OpKind::Exit | OpKind::Surf
            ) || instr.dst_pred.is_some()
                || instr.guard.is_some();
            if side_effect {
                return true;
            }
            match instr.dst {
                Some(d) => used.contains(&d),
                // No destination and no side effect: defensive keep.
                None => true,
            }
        });
        removed += before - block.instrs.len();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::{Family, Gpu};
    use oriole_ir::lower::{lower, LowerOptions};
    use oriole_ir::{
        count, AluOp, BasicBlock, FreqExpr, Instr, KernelAst, LaunchGeometry, Opcode, ProgramMeta,
        Stmt, Terminator, Ty,
    };
    use oriole_kernels::KernelId;

    fn lowered(kid: KernelId, n: u64) -> Program {
        lower(&kid.ast(n), Family::Kepler, LowerOptions::default())
    }

    #[test]
    fn optimized_programs_stay_well_formed() {
        for kid in oriole_kernels::ALL_KERNELS {
            let p = lowered(kid, 64);
            let (opt, stats) = peephole(&p);
            assert!(opt.validate().is_empty(), "{kid}");
            assert!(opt.static_len() <= p.static_len());
            assert!(stats.dead_removed > 0 || stats.moves_forwarded > 0, "{kid}");
            // Round-trips through the disassembler like any program.
            let text = oriole_ir::text::emit(&opt);
            assert_eq!(oriole_ir::text::parse(&text).unwrap(), opt);
        }
    }

    /// Pins the alias resolution order: move chains resolve to their
    /// final root, a redefinition of the source cuts every alias running
    /// through it, and a redefinition of the moved-to register drops its
    /// own alias. Expected operands are written out literally so any
    /// change to resolution order fails loudly.
    #[test]
    fn alias_resolution_order_is_pinned() {
        let mov = |d: u32, s: u32| {
            Instr::new(Opcode::new(OpKind::Mov, Ty::F32), Some(Reg(d)), [Operand::Reg(Reg(s))])
        };
        let add = |d: u32, a: u32, b: u32| {
            Instr::new(Opcode::new(OpKind::Add, Ty::F32), Some(Reg(d)), [
                Operand::Reg(Reg(a)),
                Operand::Reg(Reg(b)),
            ])
        };
        let instrs = vec![
            mov(1, 0),    // %1 → %0
            mov(2, 1),    // %2 → %0 (chain resolved at record time)
            add(3, 2, 1), // uses rewrite to (%0, %0)
            add(1, 3, 3), // redefines %1: drops %1's own alias; %2 → %0 is unaffected
            add(4, 2, 1), // %2 still → %0; %1 now a root
            mov(0, 4),    // redefines %0: kills %1→%0-style aliases through %0, records %0 → %4
            add(5, 2, 0), // %2's alias through %0 was cut, %0 → %4
        ];
        let mut program = Program {
            name: "alias_pin".into(),
            meta: ProgramMeta {
                family: Family::Kepler,
                regs_per_thread: 0,
                smem_static: 0,
                spill_bytes: 0,
            },
            blocks: vec![BasicBlock {
                label: "entry".to_string(),
                instrs,
                term: Terminator::Ret,
                freq: FreqExpr::Once,
            }]
            .into(),
        };
        let forwarded = forward_moves(&mut program);
        let srcs: Vec<Vec<Operand>> =
            program.blocks[0].instrs.iter().map(|i| i.srcs.to_vec()).collect();
        let r = |n: u32| Operand::Reg(Reg(n));
        assert_eq!(srcs, vec![
            vec![r(0)],       // mov %1, %0 untouched
            vec![r(0)],       // mov %2, %1 rewritten to %0
            vec![r(0), r(0)], // both uses forwarded to the root
            vec![r(3), r(3)], // no aliases for %3
            vec![r(0), r(1)], // %2 → %0 survives, %1 redefined → itself
            vec![r(4)],       // source of the %0 redefinition untouched
            vec![r(2), r(4)], // %2's alias cut by the %0 redef; %0 → %4
        ]);
        assert_eq!(forwarded, 5);
    }

    #[test]
    fn stores_barriers_and_control_survive() {
        let p = lowered(KernelId::MatVec2D, 64);
        let count_kind = |prog: &Program, pred: fn(&OpKind) -> bool| {
            prog.blocks
                .iter()
                .flat_map(|b| &b.instrs)
                .filter(|i| pred(&i.opcode.kind))
                .count()
        };
        let (opt, _) = peephole(&p);
        assert_eq!(
            count_kind(&p, |k| matches!(k, OpKind::St(_))),
            count_kind(&opt, |k| matches!(k, OpKind::St(_)))
        );
        assert_eq!(
            count_kind(&p, |k| matches!(k, OpKind::Bar)),
            count_kind(&opt, |k| matches!(k, OpKind::Bar))
        );
        assert_eq!(p.blocks.len(), opt.blocks.len(), "block structure untouched");
    }

    #[test]
    fn loads_feeding_stores_survive() {
        // A load whose value reaches a store must never be eliminated.
        let p = lowered(KernelId::Atax, 64);
        let loads = |prog: &Program| {
            prog.blocks
                .iter()
                .flat_map(|b| &b.instrs)
                .filter(|i| matches!(i.opcode.kind, OpKind::Ld(_)))
                .count()
        };
        let (opt, _) = peephole(&p);
        // Some loads may die (their values unused by our synthetic
        // chains), but not all: stores still need sources.
        assert!(loads(&opt) >= 1);
        let stores_have_reg_sources = opt
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i.opcode.kind, OpKind::St(_)))
            .all(|i| i.srcs.iter().any(|s| matches!(s, Operand::Reg(_))));
        assert!(stores_have_reg_sources);
    }

    #[test]
    fn dce_removes_straightline_garbage() {
        let mut k = KernelAst::new("garbage");
        // 16 FMAs whose results are never stored: all dead.
        k.body = vec![Stmt::ops(AluOp::FmaF32, 16)];
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        let (opt, stats) = peephole(&p);
        assert!(stats.dead_removed >= 16, "{stats:?}");
        assert!(opt.static_len() < p.static_len());
    }

    #[test]
    fn optimization_reduces_register_pressure() {
        let p = lowered(KernelId::Ex14Fj, 32);
        let (opt, _) = peephole(&p);
        let base = crate::regalloc::allocate(&p, 255);
        let better = crate::regalloc::allocate(&opt, 255);
        assert!(better.demand <= base.demand);
    }

    #[test]
    fn analyzer_consumes_optimized_programs() {
        // Frequencies are untouched, so geometry-dependent counts still
        // evaluate; the mix shrinks but stays well-defined.
        let p = lowered(KernelId::Bicg, 128);
        let (opt, _) = peephole(&p);
        let geom = LaunchGeometry::new(128, 128, 48);
        let raw = count::expected_mix(&p, geom).total();
        let optimized = count::expected_mix(&opt, geom).total();
        assert!(optimized > 0.0 && optimized <= raw);
        let _ = Gpu::K20; // keep the import used on all paths
    }
}
