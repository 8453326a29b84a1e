//! Post-lowering peephole optimizations.
//!
//! Infrastructure for the paper's §VII direction ("we will investigate
//! several avenues for enhancing our static models, including
//! algorithm-specific optimizations"): cleanup passes over the linear IR
//! that a production `ptxas` would perform. The passes are *not* part of
//! the default [`crate::compile`] pipeline — the evaluation reproduces
//! the paper against unoptimized lowering — but the analyzer accepts
//! optimized programs transparently, and the ablation benches use these
//! passes to quantify how much static-mix conclusions depend on compiler
//! cleanup.
//!
//! Passes:
//! * **move forwarding** — `mov %b, %a` followed by uses of `%b` becomes
//!   direct uses of `%a` (register-to-register moves only);
//! * **dead-code elimination** — instructions whose destination register
//!   is never read and that have no side effects (stores, barriers,
//!   predicate definitions, control flow) are removed, iterating to a
//!   fixed point.
//!
//! Both passes run on dense register numbers: the alias map is a
//! Vec-indexed union-find (path halving) and the liveness set is a
//! `Vec<bool>`, replacing the original `HashMap`/`HashSet` versions,
//! which are retained below as `#[cfg(test)]` oracles pinning the
//! rewrite bit-identical.

use oriole_ir::{OpKind, Operand, Program, Reg};

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

/// Sentinel for "no alias recorded" in [`AliasMap`].
const NO_ALIAS: u32 = u32::MAX;

/// A register-to-register alias map as a Vec-indexed union-find over
/// dense register numbers, with path halving on lookup.
///
/// `target[r]` is the forwarding target of `%r` (`NO_ALIAS` when `%r` is
/// a root). Moves record edges whose targets are already fully resolved
/// — the move's source operand is rewritten *before* the alias is
/// recorded — so chains are at most one hop long and path halving is a
/// no-op in practice; it is kept (with the oracle's defensive 64-hop
/// cap) so lookups stay near-constant even if a future pass records
/// deeper chains. The `touched` list makes per-block `reset` and
/// definition invalidation O(registers actually aliased) instead of
/// O(register space).
struct AliasMap {
    target: Vec<u32>,
    touched: Vec<u32>,
}

impl AliasMap {
    fn with_capacity(regs: usize) -> AliasMap {
        AliasMap { target: vec![NO_ALIAS; regs], touched: Vec::new() }
    }

    /// Clears all recorded aliases (block boundary), leaving capacity.
    fn reset(&mut self) {
        for &r in &self.touched {
            self.target[r as usize] = NO_ALIAS;
        }
        self.touched.clear();
    }

    /// Follows the alias chain from `r` to its root, halving the path as
    /// it goes. Returns `r` itself when no alias is recorded.
    fn resolve(&mut self, r: Reg) -> Reg {
        let mut cur = r.0;
        let mut hops = 0;
        while let Some(&next) = self.target.get(cur as usize) {
            if next == NO_ALIAS {
                break;
            }
            // Path halving: point the current node at its grandparent.
            if let Some(&grand) = self.target.get(next as usize) {
                if grand != NO_ALIAS {
                    self.target[cur as usize] = grand;
                }
            }
            cur = next;
            hops += 1;
            if hops > 64 {
                break; // defensive: cycles cannot happen, but stay total
            }
        }
        Reg(cur)
    }

    /// Records `%d → %src` for a plain reg-to-reg move.
    fn record(&mut self, d: Reg, src: Reg) {
        let i = d.0 as usize;
        if i >= self.target.len() {
            self.target.resize(i + 1, NO_ALIAS);
        }
        if self.target[i] == NO_ALIAS {
            self.touched.push(d.0);
        }
        self.target[i] = src.0;
    }

    /// A definition of `%d` invalidates the alias *of* `%d` and every
    /// alias resolving *through* `%d` (same semantics as the oracle's
    /// `remove` + `retain`).
    fn define(&mut self, d: Reg) {
        if let Some(t) = self.target.get_mut(d.0 as usize) {
            *t = NO_ALIAS;
        }
        for &r in &self.touched {
            if self.target[r as usize] == d.0 {
                self.target[r as usize] = NO_ALIAS;
            }
        }
    }
}

/// Forwards register-to-register moves within each block (conservative:
/// the mapping resets at block boundaries, so no dataflow is needed).
/// One [`AliasMap`] allocation serves the whole program.
fn forward_moves(program: &mut Program) -> usize {
    let regs = program
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter_map(|i| i.dst)
        .map(|d| d.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut alias = AliasMap::with_capacity(regs);
    let mut forwarded = 0;
    for block in program.blocks.make_mut() {
        alias.reset();
        for instr in &mut block.instrs {
            // Rewrite sources through the alias map (resolving chains).
            for src in &mut instr.srcs {
                if let Operand::Reg(r) = src {
                    let cur = alias.resolve(*r);
                    if cur != *r {
                        *src = Operand::Reg(cur);
                        forwarded += 1;
                    }
                }
            }
            // A definition invalidates aliases *through* the defined reg.
            if let Some(d) = instr.dst {
                alias.define(d);
                // Record new alias for plain reg-to-reg moves.
                if instr.opcode.kind == OpKind::Mov && instr.srcs.len() == 1 {
                    if let Operand::Reg(src) = instr.srcs[0] {
                        alias.record(d, src);
                    }
                }
            }
        }
    }
    forwarded
}

/// Removes side-effect-free instructions whose destination is never read
/// anywhere in the program. Returns the number removed. The used-set is
/// a `Vec<bool>` over dense register numbers.
fn eliminate_dead(program: &mut Program) -> usize {
    let mut used: Vec<bool> = Vec::new();
    for block in &program.blocks {
        for instr in &block.instrs {
            for r in instr.uses() {
                let i = r.0 as usize;
                if i >= used.len() {
                    used.resize(i + 1, false);
                }
                used[i] = true;
            }
        }
    }
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
                Some(d) => used.get(d.0 as usize).copied().unwrap_or(false),
                // No destination and no side effect: defensive keep.
                None => true,
            }
        });
        removed += before - block.instrs.len();
    }
    removed
}

/// The original `HashMap`/`HashSet` passes, retained verbatim as the
/// oracle for the dense rewrite: tests pin `peephole` bit-identical to
/// `oracle::peephole` across every bundled kernel.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::collections::{HashMap, HashSet};

    pub(crate) fn peephole(program: &Program) -> (Program, OptStats) {
        let mut out = program.clone();
        let mut stats =
            OptStats { moves_forwarded: forward_moves(&mut out), ..OptStats::default() };
        loop {
            let removed = eliminate_dead(&mut out);
            if removed == 0 {
                break;
            }
            stats.dead_removed += removed;
        }
        (out, stats)
    }

    fn forward_moves(program: &mut Program) -> usize {
        let mut forwarded = 0;
        for block in program.blocks.make_mut() {
            let mut alias: HashMap<Reg, Reg> = HashMap::new();
            for instr in &mut block.instrs {
                for src in &mut instr.srcs {
                    if let Operand::Reg(r) = src {
                        let mut cur = *r;
                        let mut hops = 0;
                        while let Some(&next) = alias.get(&cur) {
                            cur = next;
                            hops += 1;
                            if hops > 64 {
                                break;
                            }
                        }
                        if cur != *r {
                            *src = Operand::Reg(cur);
                            forwarded += 1;
                        }
                    }
                }
                if let Some(d) = instr.dst {
                    alias.remove(&d);
                    alias.retain(|_, v| *v != d);
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

    fn eliminate_dead(program: &mut Program) -> usize {
        let mut used: HashSet<Reg> = HashSet::new();
        for block in &program.blocks {
            for instr in &block.instrs {
                for r in instr.uses() {
                    used.insert(r);
                }
            }
        }
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
                    None => true,
                }
            });
            removed += before - block.instrs.len();
        }
        removed
    }
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

    #[test]
    fn dense_passes_bit_identical_to_hashmap_oracle() {
        for kid in oriole_kernels::ALL_KERNELS {
            for n in [32, 64, 256] {
                let p = lowered(kid, n);
                assert_eq!(peephole(&p), oracle::peephole(&p), "{kid} n={n}");
            }
        }
    }

    /// Pins the alias resolution order of the union-find map: move
    /// chains resolve to their final root, a redefinition of the source
    /// cuts every alias running through it, and a redefinition of the
    /// moved-to register drops its own alias. Expected operands are
    /// written out literally so any change to resolution order fails
    /// loudly rather than silently matching a changed oracle.
    #[test]
    fn alias_resolution_order_is_pinned() {
        let mov = |d: u32, s: u32| {
            Instr::new(Opcode::new(OpKind::Mov, Ty::F32), Some(Reg(d)), vec![Operand::Reg(
                Reg(s),
            )])
        };
        let add = |d: u32, a: u32, b: u32| {
            Instr::new(Opcode::new(OpKind::Add, Ty::F32), Some(Reg(d)), vec![
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
            program.blocks[0].instrs.iter().map(|i| i.srcs.clone()).collect();
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
