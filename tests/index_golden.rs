//! Pins everything a `ProgramIndex` answers, and what the lowerer and
//! the peephole emit, as three digests.
//!
//! The index is the build-once analysis artifact that every static and
//! simulated query replays. This test spells every accessor a consumer
//! can read — block count, divergent regions, block summaries, the
//! divergence flag, grid-stride items at each input size, and the
//! static and expected mixes (floats as bits) — over the paper space
//! (`ALL_KERNELS` × `Family::ALL` × UIF 1–5 × CFLAGS × input sizes)
//! and over a fixed-seed list of random ASTs, and digests the text with
//! `persist::checksum`. The digest was taken before the CFG code was
//! cut down to what the index reads; it changes only with a behaviour
//! change, and such a change is its own piece of work.
//!
//! The same loop pins what the two passes in front of the index emit:
//! the `text::emit` listing of every lowered program (labels, edges,
//! registers, frequencies), and the listing of `codegen::peephole`'s
//! output with its `OptStats`. The lowerer writes no register-to-register
//! move and no guard, so the peephole corpus also runs a fixed-seed list
//! of straight-line programs over six registers, where moves chain,
//! sources are redefined and dead definitions sit under guards. Both
//! digests were taken before each pass lost the twin it had been checked
//! against.
//!
//! The random ASTs come from `oriole_ir::testgen::kernel`, the one
//! generator every property suite draws from, so this test pins that
//! generator too: the listing spells every op, access and trip count it
//! drew, and an edit to what it draws moves `LISTING_DIGEST`.

use oriole::arch::Family;
use oriole::codegen::{peephole, unroll};
use oriole::ir::lower::{lower_indexed, LowerOptions};
use oriole::ir::testgen::{kernel, TestRng};
use oriole::ir::{
    text, BasicBlock, FreqExpr, Instr, KernelAst, LaunchGeometry, MemSpace, MixCounts, OpKind,
    Opcode, Operand, Pred, Program, ProgramIndex, ProgramMeta, Reg, Terminator, Ty,
};
use oriole::kernels::ALL_KERNELS;
use oriole::tuner::persist;
use std::fmt::Write as _;

/// `persist::checksum` over every index accessor (11,688,555 bytes).
const INDEX_DIGEST: u64 = 0xf02a_7ba9_07cd_4b96;

/// `persist::checksum` over the listing of every lowered program
/// (3,001,237 bytes).
const LISTING_DIGEST: u64 = 0x1799_a7d3_ad20_996a;

/// `persist::checksum` over the listing of every peephole-optimized
/// program, each followed by its `OptStats` (2,159,584 bytes).
const PEEPHOLE_DIGEST: u64 = 0xcf0c_d423_befd_ae10;

/// Random ASTs in the corpus, each lowered for every family and CFLAGS.
const RANDOM_ASTS: u32 = 64;

/// Input sizes the random ASTs are queried at.
const RANDOM_SIZES: [u64; 3] = [8, 64, 512];

/// Random straight-line programs in the peephole corpus.
const RANDOM_PROGRAMS: u32 = 256;

/// Registers those programs draw from: few, so that moves chain and
/// sources are redefined while an alias to them is live.
const REGS: u32 = 6;

/// A register move, an add or a store, a quarter of them guarded.
fn instr(rng: &mut TestRng) -> Instr {
    let reg = |rng: &mut TestRng| Reg(rng.range_u64(0, u64::from(REGS) - 1) as u32);
    let mut instr = match rng.range_u64(0, 6) {
        0..=2 => {
            let (d, s) = (reg(rng), reg(rng));
            Instr::new(Opcode::new(OpKind::Mov, Ty::F32), Some(d), [Operand::Reg(s)])
        }
        3..=5 => {
            let (d, a, b) = (reg(rng), reg(rng), reg(rng));
            Instr::new(Opcode::new(OpKind::Add, Ty::F32), Some(d), [
                Operand::Reg(a),
                Operand::Reg(b),
            ])
        }
        _ => {
            let (a, v) = (reg(rng), reg(rng));
            let op = Opcode::new(OpKind::St(MemSpace::Global), Ty::F32);
            Instr::new(op, None, [Operand::Reg(a), Operand::Reg(v)])
        }
    };
    if rng.range_u64(0, 3) == 0 {
        instr.guard = Some((Pred(0), false));
    }
    instr
}

fn random_program(case: u32) -> Program {
    let mut rng = TestRng::for_case("peephole_golden", case);
    let blocks: Vec<BasicBlock> = (0..rng.range_u64(1, 3))
        .map(|b| {
            let len = rng.range_u64(1, 11);
            BasicBlock {
                label: format!("b{b}"),
                instrs: (0..len).map(|_| instr(&mut rng)).collect(),
                term: Terminator::Ret,
                freq: FreqExpr::Once,
            }
        })
        .collect();
    Program {
        name: "peephole_golden".into(),
        meta: ProgramMeta {
            family: Family::Kepler,
            regs_per_thread: 0,
            smem_static: 0,
            spill_bytes: 0,
        },
        blocks: blocks.into(),
    }
}

fn spell_mix(out: &mut String, mix: &MixCounts) {
    for (_, count) in mix.iter() {
        let _ = write!(out, " {:016x}", count.to_bits());
    }
    out.push('\n');
}

/// One program's index, every accessor, floats as bits.
// Pins `grid_stride_items`, which only `ProgramIndex::launch_work` reads.
#[allow(clippy::disallowed_methods)]
fn spell(out: &mut String, index: &ProgramIndex, program: &Program, sizes: &[u64]) {
    let _ = writeln!(out, "len {} div {}", index.len(), index.has_divergence());
    for r in index.divergent_regions() {
        let reconverge = r.reconvergence.map_or("-".to_string(), |b| b.0.to_string());
        let _ = write!(out, "region {} {reconverge}:", r.branch_block.0);
        for b in &r.body {
            let _ = write!(out, " {}", b.0);
        }
        out.push('\n');
    }
    for s in index.summaries() {
        let _ = write!(out, "block {} {:?} ctrl={} mix", s.instr_count, s.term, s.has_ctrl());
        for (class, m) in index.mix_tape(s) {
            let _ = write!(out, " {class}:{:016x}", m.to_bits());
        }
        let _ = writeln!(out, " profile {:?}", index.profile_tape(s));
    }
    for &n in sizes {
        let items = index.grid_stride_items(n).map(f64::to_bits);
        let _ = writeln!(out, "grid {n} {items:x?}");
        for (tc, bc) in [(128u32, 48u32), (1024, 24), (32, 192)] {
            let _ = write!(out, "expected {n} {tc} {bc}");
            spell_mix(out, &index.expected_mix(program, LaunchGeometry::new(n, tc, bc)));
        }
    }
    out.push_str("static");
    spell_mix(out, &index.static_mix());
}

/// The three texts the corpus loop writes, one per digest.
#[derive(Default)]
struct Corpus {
    index: String,
    listing: String,
    peephole: String,
}

impl Corpus {
    fn heading(&mut self, heading: std::fmt::Arguments) {
        for out in [&mut self.index, &mut self.listing, &mut self.peephole] {
            let _ = writeln!(out, "== {heading}");
        }
    }
}

fn spell_lowered(out: &mut Corpus, ast: &KernelAst, sizes: &[u64]) {
    for family in Family::ALL {
        for fast_math in [false, true] {
            let (program, index) = lower_indexed(ast, family, LowerOptions { fast_math });
            let _ = writeln!(out.index, "{} {family} fast={fast_math}", ast.name);
            spell(&mut out.index, &index, &program, sizes);
            out.listing.push_str(&text::emit(&program));
            spell_peephole(&mut out.peephole, &program);
        }
    }
}

fn spell_peephole(out: &mut String, program: &Program) {
    let (optimized, stats) = peephole(program);
    out.push_str(&text::emit(&optimized));
    let _ = writeln!(out, "stats {} {}", stats.moves_forwarded, stats.dead_removed);
}

#[test]
fn every_index_accessor_answers_as_pinned() {
    let mut corpus = Corpus::default();
    for kernel in ALL_KERNELS {
        let sizes = kernel.input_sizes();
        for n in sizes {
            for uif in 1..=5 {
                corpus.heading(format_args!("{kernel} n={n} uif={uif}"));
                spell_lowered(&mut corpus, &unroll(&kernel.ast(n), uif), &sizes);
            }
        }
    }
    for case in 0..RANDOM_ASTS {
        let ast = kernel(&mut TestRng::for_case("index_golden", case), "index_golden");
        corpus.heading(format_args!("random {case}"));
        spell_lowered(&mut corpus, &ast, &RANDOM_SIZES);
    }
    for case in 0..RANDOM_PROGRAMS {
        let _ = writeln!(corpus.peephole, "== straight-line {case}");
        spell_peephole(&mut corpus.peephole, &random_program(case));
    }
    // Compared together, so a failure names every digest that moved.
    let pinned =
        [("index", INDEX_DIGEST), ("listing", LISTING_DIGEST), ("peephole", PEEPHOLE_DIGEST)];
    let moved: Vec<String> = pinned
        .into_iter()
        .zip([&corpus.index, &corpus.listing, &corpus.peephole])
        .filter_map(|((name, pinned), text)| {
            let digest = persist::checksum(text.as_bytes());
            let bytes = text.len();
            (digest != pinned)
                .then(|| format!("{name} corpus of {bytes} bytes digests to {digest:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("; "));
}
