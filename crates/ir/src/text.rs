//! Textual disassembly: emitter and parser.
//!
//! The paper's analyzer consumes `nvdisasm` output rather than compiler
//! internals. We mirror that interface: [`emit`] renders a [`Program`] as
//! a stable, human-readable listing, and [`parse`] reconstructs the exact
//! program from it (`parse(emit(p)) == p`). The static analyzer operates
//! on parsed listings, keeping it honestly decoupled from the code
//! generator.
//!
//! Format sketch:
//!
//! ```text
//! // oriole disassembly v1
//! .kernel atax family=Kepler regs=27 smem=3072 spill=0
//! .block entry freq=once
//!   mov.u32 %r0, %tid.x
//!   ...
//!   term jump loop0
//! .block loop0 freq=mul(trip(gridstride(1.0*N^2)))
//!   ld.global.f32 %r9, %r8 !pattern=strided(64)
//!   ...
//!   term loopback loop0 after1 trip=size(1.0*N^1)
//! ```

use crate::ast::{AccessPattern, SizeExpr, TripCount};
use crate::block::{BasicBlock, BlockId, FreqExpr, Program, ProgramMeta, Terminator};
use crate::instr::{Instr, MemAnnot, Operand, Operands, Pred, Reg, SpecialReg};
use crate::isa::{OpKind, Opcode};
use oriole_arch::Family;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parse failure with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// Problem description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------
// Emission

/// Renders a program as a disassembly listing.
pub fn emit(program: &Program) -> String {
    let mut out = String::new();
    out.push_str("// oriole disassembly v1\n");
    let m = &program.meta;
    let _ = writeln!(
        out,
        ".kernel {} family={} regs={} smem={} spill={}",
        program.name, m.family, m.regs_per_thread, m.smem_static, m.spill_bytes
    );
    for block in &program.blocks {
        let _ = writeln!(out, ".block {} freq={}", block.label, emit_freq(&block.freq));
        for i in &block.instrs {
            let _ = writeln!(out, "  {}", emit_instr(i));
        }
        let _ = writeln!(out, "  term {}", emit_term(&block.term, program));
    }
    out
}

fn emit_freq(f: &FreqExpr) -> String {
    match f {
        FreqExpr::Once => "once".to_string(),
        FreqExpr::Const(c) => format!("const({c:?})"),
        FreqExpr::Trip(t) => format!("trip({})", emit_trip(*t)),
        FreqExpr::Fraction(p) => format!("frac({p:?})"),
        FreqExpr::DivFraction(p) => format!("dfrac({p:?})"),
        FreqExpr::Mul(fs) => {
            let parts: Vec<String> = fs.iter().map(emit_freq).collect();
            format!("mul({})", parts.join(","))
        }
    }
}

fn emit_trip(t: TripCount) -> String {
    match t {
        TripCount::Const(c) => format!("const({c})"),
        TripCount::Size(s) => format!("size({:?}*N^{})", s.coeff, s.power),
        TripCount::GridStride(s) => format!("gridstride({:?}*N^{})", s.coeff, s.power),
        TripCount::BlockShare(s) => format!("blockshare({:?}*N^{})", s.coeff, s.power),
    }
}

fn emit_pattern(p: AccessPattern) -> String {
    match p {
        AccessPattern::Coalesced => "coalesced".to_string(),
        AccessPattern::Strided(s) => format!("strided({s})"),
        AccessPattern::Random => "random".to_string(),
        AccessPattern::Broadcast => "broadcast".to_string(),
    }
}

fn emit_instr(i: &Instr) -> String {
    let mut s = i.to_string();
    if let Some(mem) = &i.mem {
        let _ = write!(s, " !pattern={}", emit_pattern(mem.pattern));
    }
    s
}

fn emit_term(t: &Terminator, program: &Program) -> String {
    let label = |b: BlockId| program.blocks[b.0 as usize].label.clone();
    match t {
        Terminator::Jump(b) => format!("jump {}", label(*b)),
        Terminator::CondBranch { pred, taken, fallthrough, divergent, taken_fraction } => {
            format!(
                "condbr {pred} {} {} divergent={divergent} taken={taken_fraction:?}",
                label(*taken),
                label(*fallthrough)
            )
        }
        Terminator::LoopBack { target, exit, trip } => {
            format!("loopback {} {} trip={}", label(*target), label(*exit), emit_trip(*trip))
        }
        Terminator::Ret => "ret".to_string(),
    }
}

// ---------------------------------------------------------------------
// Parsing

/// Parses a listing produced by [`emit`] back into a [`Program`].
pub fn parse(text: &str) -> Result<Program, ParseError> {
    Parser::new(text).run()
}

/// Terminator with unresolved labels (first parse pass).
enum RawTerm {
    Jump(String),
    CondBranch { pred: Pred, taken: String, fallthrough: String, divergent: bool, taken_fraction: f64 },
    LoopBack { target: String, exit: String, trip: TripCount },
    Ret,
}

struct RawBlock {
    label: String,
    freq: FreqExpr,
    instrs: Vec<Instr>,
    term: Option<(RawTerm, usize)>,
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    name: Option<String>,
    meta: Option<ProgramMeta>,
    blocks: Vec<RawBlock>,
}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError { line: line + 1, msg: msg.into() }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { lines: text.lines().enumerate(), name: None, meta: None, blocks: Vec::new() }
    }

    fn run(mut self) -> Result<Program, ParseError> {
        while let Some((lineno, raw)) = self.lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            if let Some(rest) = line.strip_prefix(".kernel ") {
                self.parse_kernel_header(rest, lineno)?;
            } else if let Some(rest) = line.strip_prefix(".block ") {
                self.parse_block_header(rest, lineno)?;
            } else if let Some(rest) = line.strip_prefix("term ") {
                let block = self
                    .blocks
                    .last_mut()
                    .ok_or_else(|| err(lineno, "terminator outside a block"))?;
                if block.term.is_some() {
                    return Err(err(lineno, "block has two terminators"));
                }
                block.term = Some((parse_term(rest, lineno)?, lineno));
            } else {
                let instr = parse_instr(line, lineno)?;
                let block = self
                    .blocks
                    .last_mut()
                    .ok_or_else(|| err(lineno, "instruction outside a block"))?;
                if block.term.is_some() {
                    return Err(err(lineno, "instruction after terminator"));
                }
                block.instrs.push(instr);
            }
        }
        self.finish()
    }

    fn parse_kernel_header(&mut self, rest: &str, lineno: usize) -> Result<(), ParseError> {
        if self.name.is_some() {
            return Err(err(lineno, "second .kernel header"));
        }
        let mut tokens = rest.split_whitespace();
        let name = tokens.next().ok_or_else(|| err(lineno, "missing kernel name"))?;
        let mut family = None;
        let mut regs = None;
        let mut smem = None;
        let mut spill = None;
        for tok in tokens {
            let (key, value) =
                tok.split_once('=').ok_or_else(|| err(lineno, format!("bad attribute `{tok}`")))?;
            match key {
                "family" => {
                    family = Some(parse_family(value).ok_or_else(|| {
                        err(lineno, format!("unknown family `{value}`"))
                    })?)
                }
                "regs" => regs = Some(parse_num::<u32>(value, lineno)?),
                "smem" => smem = Some(parse_num::<u32>(value, lineno)?),
                "spill" => spill = Some(parse_num::<u32>(value, lineno)?),
                _ => return Err(err(lineno, format!("unknown kernel attribute `{key}`"))),
            }
        }
        self.name = Some(name.to_string());
        self.meta = Some(ProgramMeta {
            family: family.ok_or_else(|| err(lineno, "missing family="))?,
            regs_per_thread: regs.ok_or_else(|| err(lineno, "missing regs="))?,
            smem_static: smem.ok_or_else(|| err(lineno, "missing smem="))?,
            spill_bytes: spill.ok_or_else(|| err(lineno, "missing spill="))?,
        });
        Ok(())
    }

    fn parse_block_header(&mut self, rest: &str, lineno: usize) -> Result<(), ParseError> {
        let mut tokens = rest.split_whitespace();
        let label = tokens.next().ok_or_else(|| err(lineno, "missing block label"))?;
        let freq_tok = tokens.next().ok_or_else(|| err(lineno, "missing freq="))?;
        let freq_body = freq_tok
            .strip_prefix("freq=")
            .ok_or_else(|| err(lineno, "expected freq=..."))?;
        let freq = parse_freq(freq_body, lineno)?;
        self.blocks.push(RawBlock {
            label: label.to_string(),
            freq,
            instrs: Vec::new(),
            term: None,
        });
        Ok(())
    }

    fn finish(self) -> Result<Program, ParseError> {
        let name = self.name.ok_or_else(|| err(0, "no .kernel header"))?;
        let meta = self.meta.expect("meta set with name");
        let label_ids: HashMap<String, BlockId> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.label.clone(), BlockId(i as u32)))
            .collect();
        if label_ids.len() != self.blocks.len() {
            return Err(err(0, "duplicate block labels"));
        }
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for raw in self.blocks {
            let (raw_term, term_line) = raw
                .term
                .ok_or_else(|| err(0, format!("block `{}` has no terminator", raw.label)))?;
            let resolve = |label: &str| {
                label_ids
                    .get(label)
                    .copied()
                    .ok_or_else(|| err(term_line, format!("unknown label `{label}`")))
            };
            let term = match raw_term {
                RawTerm::Jump(l) => Terminator::Jump(resolve(&l)?),
                RawTerm::CondBranch { pred, taken, fallthrough, divergent, taken_fraction } => {
                    Terminator::CondBranch {
                        pred,
                        taken: resolve(&taken)?,
                        fallthrough: resolve(&fallthrough)?,
                        divergent,
                        taken_fraction,
                    }
                }
                RawTerm::LoopBack { target, exit, trip } => Terminator::LoopBack {
                    target: resolve(&target)?,
                    exit: resolve(&exit)?,
                    trip,
                },
                RawTerm::Ret => Terminator::Ret,
            };
            blocks.push(BasicBlock { label: raw.label, instrs: raw.instrs, term, freq: raw.freq });
        }
        let program = Program { name: name.into(), meta, blocks: blocks.into() };
        let problems = program.validate();
        if let Some(p) = problems.first() {
            return Err(err(0, format!("ill-formed program: {p}")));
        }
        Ok(program)
    }
}

fn parse_family(s: &str) -> Option<Family> {
    Some(match s {
        "Fermi" => Family::Fermi,
        "Kepler" => Family::Kepler,
        "Maxwell" => Family::Maxwell,
        "Pascal" => Family::Pascal,
        _ => return None,
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, lineno: usize) -> Result<T, ParseError> {
    s.parse().map_err(|_| err(lineno, format!("bad number `{s}`")))
}

/// Splits `head(inner)` and returns `(head, inner)`, balancing parens.
fn split_call(s: &str) -> Option<(&str, &str)> {
    let open = s.find('(')?;
    if !s.ends_with(')') {
        return None;
    }
    Some((&s[..open], &s[open + 1..s.len() - 1]))
}

/// Splits a comma-separated list at the top parenthesis level.
fn split_top_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn parse_freq(s: &str, lineno: usize) -> Result<FreqExpr, ParseError> {
    if s == "once" {
        return Ok(FreqExpr::Once);
    }
    let (head, inner) =
        split_call(s).ok_or_else(|| err(lineno, format!("bad freq `{s}`")))?;
    match head {
        "const" => Ok(FreqExpr::Const(parse_num(inner, lineno)?)),
        "frac" => Ok(FreqExpr::Fraction(parse_num(inner, lineno)?)),
        "dfrac" => Ok(FreqExpr::DivFraction(parse_num(inner, lineno)?)),
        "trip" => Ok(FreqExpr::Trip(parse_trip(inner, lineno)?)),
        "mul" => {
            let parts = split_top_commas(inner);
            let factors: Result<Vec<FreqExpr>, ParseError> =
                parts.iter().map(|p| parse_freq(p.trim(), lineno)).collect();
            Ok(FreqExpr::Mul(factors?))
        }
        _ => Err(err(lineno, format!("unknown freq constructor `{head}`"))),
    }
}

fn parse_trip(s: &str, lineno: usize) -> Result<TripCount, ParseError> {
    let (head, inner) =
        split_call(s).ok_or_else(|| err(lineno, format!("bad trip `{s}`")))?;
    match head {
        "const" => Ok(TripCount::Const(parse_num(inner, lineno)?)),
        "size" => Ok(TripCount::Size(parse_size_expr(inner, lineno)?)),
        "gridstride" => Ok(TripCount::GridStride(parse_size_expr(inner, lineno)?)),
        "blockshare" => Ok(TripCount::BlockShare(parse_size_expr(inner, lineno)?)),
        _ => Err(err(lineno, format!("unknown trip constructor `{head}`"))),
    }
}

fn parse_size_expr(s: &str, lineno: usize) -> Result<SizeExpr, ParseError> {
    // Shape: `<coeff>*N^<power>`.
    let (coeff_s, rest) = s
        .split_once("*N^")
        .ok_or_else(|| err(lineno, format!("bad size expr `{s}`")))?;
    Ok(SizeExpr { coeff: parse_num(coeff_s, lineno)?, power: parse_num(rest, lineno)? })
}

fn parse_pattern(s: &str, lineno: usize) -> Result<AccessPattern, ParseError> {
    if s == "coalesced" {
        return Ok(AccessPattern::Coalesced);
    }
    if s == "random" {
        return Ok(AccessPattern::Random);
    }
    if s == "broadcast" {
        return Ok(AccessPattern::Broadcast);
    }
    if let Some((head, inner)) = split_call(s) {
        if head == "strided" {
            return Ok(AccessPattern::Strided(parse_num(inner, lineno)?));
        }
    }
    Err(err(lineno, format!("unknown access pattern `{s}`")))
}

fn parse_term(rest: &str, lineno: usize) -> Result<RawTerm, ParseError> {
    let mut tokens = rest.split_whitespace();
    let kind = tokens.next().ok_or_else(|| err(lineno, "empty terminator"))?;
    match kind {
        "ret" => Ok(RawTerm::Ret),
        "jump" => {
            let target = tokens.next().ok_or_else(|| err(lineno, "jump needs a target"))?;
            Ok(RawTerm::Jump(target.to_string()))
        }
        "condbr" => {
            let pred_tok = tokens.next().ok_or_else(|| err(lineno, "condbr needs predicate"))?;
            let pred = parse_pred(pred_tok, lineno)?;
            let taken = tokens.next().ok_or_else(|| err(lineno, "condbr needs taken label"))?;
            let fall =
                tokens.next().ok_or_else(|| err(lineno, "condbr needs fallthrough label"))?;
            let mut divergent = None;
            let mut fraction = None;
            for tok in tokens {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| err(lineno, format!("bad condbr attribute `{tok}`")))?;
                match k {
                    "divergent" => divergent = Some(parse_num::<bool>(v, lineno)?),
                    "taken" => fraction = Some(parse_num::<f64>(v, lineno)?),
                    _ => return Err(err(lineno, format!("unknown condbr attribute `{k}`"))),
                }
            }
            Ok(RawTerm::CondBranch {
                pred,
                taken: taken.to_string(),
                fallthrough: fall.to_string(),
                divergent: divergent.ok_or_else(|| err(lineno, "missing divergent="))?,
                taken_fraction: fraction.ok_or_else(|| err(lineno, "missing taken="))?,
            })
        }
        "loopback" => {
            let target = tokens.next().ok_or_else(|| err(lineno, "loopback needs target"))?;
            let exit = tokens.next().ok_or_else(|| err(lineno, "loopback needs exit"))?;
            let trip_tok = tokens.next().ok_or_else(|| err(lineno, "loopback needs trip="))?;
            let trip_body = trip_tok
                .strip_prefix("trip=")
                .ok_or_else(|| err(lineno, "expected trip=..."))?;
            Ok(RawTerm::LoopBack {
                target: target.to_string(),
                exit: exit.to_string(),
                trip: parse_trip(trip_body, lineno)?,
            })
        }
        _ => Err(err(lineno, format!("unknown terminator `{kind}`"))),
    }
}

fn parse_reg(s: &str, lineno: usize) -> Result<Reg, ParseError> {
    s.strip_prefix("%r")
        .and_then(|n| n.parse().ok())
        .map(Reg)
        .ok_or_else(|| err(lineno, format!("bad register `{s}`")))
}

fn parse_pred(s: &str, lineno: usize) -> Result<Pred, ParseError> {
    s.strip_prefix("%p")
        .and_then(|n| n.parse().ok())
        .map(Pred)
        .ok_or_else(|| err(lineno, format!("bad predicate `{s}`")))
}

fn parse_operand(s: &str, lineno: usize) -> Result<Operand, ParseError> {
    if let Some(sp) = SpecialReg::parse(s) {
        return Ok(Operand::Special(sp));
    }
    if let Some(rest) = s.strip_prefix("%param") {
        return rest
            .parse()
            .map(Operand::Param)
            .map_err(|_| err(lineno, format!("bad param `{s}`")));
    }
    if s.starts_with("%p") {
        return parse_pred(s, lineno).map(Operand::Pred);
    }
    if s.starts_with("%r") {
        return parse_reg(s, lineno).map(Operand::Reg);
    }
    if let Some(fs) = s.strip_suffix('f') {
        if let Ok(v) = fs.parse::<f64>() {
            return Ok(Operand::FImm(v));
        }
    }
    if let Ok(v) = s.parse::<i64>() {
        return Ok(Operand::Imm(v));
    }
    Err(err(lineno, format!("bad operand `{s}`")))
}

fn parse_instr(line: &str, lineno: usize) -> Result<Instr, ParseError> {
    let mut rest = line.trim();
    // Optional guard: `@%p0` or `@!%p0`.
    let mut guard = None;
    if let Some(stripped) = rest.strip_prefix('@') {
        let (guard_tok, after) = stripped
            .split_once(' ')
            .ok_or_else(|| err(lineno, "guard without instruction"))?;
        let (neg, pred_str) = match guard_tok.strip_prefix('!') {
            Some(p) => (true, p),
            None => (false, guard_tok),
        };
        guard = Some((parse_pred(pred_str, lineno)?, neg));
        rest = after.trim();
    }
    // Optional trailing memory annotation.
    let mut mem = None;
    if let Some(idx) = rest.find(" !pattern=") {
        let pattern_str = &rest[idx + " !pattern=".len()..];
        mem = Some(MemAnnot { pattern: parse_pattern(pattern_str.trim(), lineno)? });
        rest = rest[..idx].trim_end();
    }
    // Mnemonic, then comma-separated operands.
    let (mn, ops_str) = match rest.split_once(' ') {
        Some((m, o)) => (m, o.trim()),
        None => (rest, ""),
    };
    let opcode = Opcode::from_mnemonic(mn)
        .ok_or_else(|| err(lineno, format!("unknown mnemonic `{mn}`")))?;
    let mut ops = ops_str
        .split(',')
        .filter(|_| !ops_str.is_empty())
        .map(|o| parse_operand(o.trim(), lineno));
    // Distribute operands into dst / dst_pred / srcs by opcode shape.
    let mut instr = Instr::new(opcode, None, []);
    instr.guard = guard;
    instr.mem = mem;
    match opcode.kind {
        OpKind::Setp(_) => match ops.next().transpose()? {
            Some(Operand::Pred(p)) => instr.dst_pred = Some(p),
            other => {
                let msg = format!("setp needs a predicate destination, got {other:?}");
                return Err(err(lineno, msg));
            }
        },
        OpKind::St(_) | OpKind::Bar | OpKind::Bra | OpKind::Exit => {}
        _ => match ops.next().transpose()? {
            Some(Operand::Reg(r)) => instr.dst = Some(r),
            None => {}
            other => {
                return Err(err(lineno, format!("expected register destination, got {other:?}")))
            }
        },
    }
    for op in ops {
        instr.srcs.push(op?).map_err(|_| {
            err(lineno, format!("more than {} source operands", Operands::CAPACITY))
        })?;
    }
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{
        AluOp, Branch, DivergenceKind, KernelAst, Loop, MemSpace, Stmt,
    };
    use crate::lower::{lower, LowerOptions};

    fn roundtrip(p: &Program) {
        let text = emit(p);
        let parsed = parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(&parsed, p, "round-trip mismatch:\n{text}");
    }

    #[test]
    fn roundtrip_straight_line() {
        let mut k = KernelAst::new("flat");
        k.body = vec![Stmt::ops(AluOp::FmaF32, 2)];
        let p = lower(&k, Family::Kepler, LowerOptions::default());
        roundtrip(&p);
    }

    #[test]
    fn roundtrip_loops_and_branches() {
        let mut k = KernelAst::new("full");
        k.body = vec![
            Stmt::load(MemSpace::Global, AccessPattern::Strided(128), 1),
            Stmt::Loop(Loop {
                trip: TripCount::GridStride(SizeExpr::new(2.0, 2)),
                unrollable: false,
                body: vec![
                    Stmt::Loop(Loop {
                        trip: TripCount::Size(SizeExpr::N),
                        unrollable: true,
                        body: vec![
                            Stmt::load(MemSpace::Shared, AccessPattern::Broadcast, 1),
                            Stmt::ops(AluOp::FmaF32, 1),
                        ],
                    }),
                    Stmt::If(Branch {
                        divergence: DivergenceKind::ThreadDependent,
                        taken_fraction: 0.125,
                        then_body: vec![Stmt::store(
                            MemSpace::Global,
                            AccessPattern::Coalesced,
                            1,
                        )],
                        else_body: vec![Stmt::ops(AluOp::SinCosF32, 1)],
                    }),
                    Stmt::SyncThreads,
                ],
            }),
        ];
        let p = lower(&k, Family::Maxwell, LowerOptions { fast_math: true });
        roundtrip(&p);
    }

    #[test]
    fn roundtrip_all_families() {
        for family in Family::ALL {
            let mut k = KernelAst::new("fam");
            k.body = vec![Stmt::ops(AluOp::DivF32, 1), Stmt::ops(AluOp::Cvt64, 1)];
            let p = lower(&k, family, LowerOptions::default());
            roundtrip(&p);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("nonsense").is_err());
        let no_term = "\
// oriole disassembly v1
.kernel k family=Kepler regs=0 smem=0 spill=0
.block entry freq=once
  add.f32 %r0, %r1, %r2
";
        assert!(parse(no_term).is_err());
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "\
// oriole disassembly v1
.kernel k family=Kepler regs=0 smem=0 spill=0
.block entry freq=once
  frobnicate.f32 %r0
  term ret
";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("frobnicate"));
        assert!(e.to_string().contains("line 4"));
        // Three sources are the most an instruction holds (the
        // handcrafted listing's `fma` has three): a fourth is refused.
        for four in ["fma.f32 %r3, %r0, %r1, %r2, %r4", "st.global.f32 %r3, %r0, %r1, %r2"] {
            let e = parse(&text.replace("frobnicate.f32 %r0", four)).unwrap_err();
            assert_eq!((e.line, e.msg.as_str()), (4, "more than 3 source operands"));
        }
    }

    #[test]
    fn parse_rejects_unknown_label() {
        let text = "\
.kernel k family=Kepler regs=0 smem=0 spill=0
.block entry freq=once
  term jump nowhere
";
        let e = parse(text).unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn parse_rejects_duplicate_labels() {
        let text = "\
.kernel k family=Kepler regs=0 smem=0 spill=0
.block entry freq=once
  term jump entry2
.block entry2 freq=once
  term ret
.block entry2 freq=once
  term ret
";
        assert!(parse(text).is_err());
    }

    #[test]
    fn parse_rejects_bad_family_and_missing_attrs() {
        assert!(parse(".kernel k family=Volta regs=0 smem=0 spill=0").is_err());
        assert!(parse(".kernel k regs=0 smem=0 spill=0").is_err());
    }

    #[test]
    fn freq_expressions_roundtrip() {
        let exprs = [
            FreqExpr::Once,
            FreqExpr::Const(2.5),
            FreqExpr::Fraction(0.3333333333333333),
            FreqExpr::Trip(TripCount::Const(17)),
            FreqExpr::Trip(TripCount::Size(SizeExpr::new(0.5, 3))),
            FreqExpr::Mul(vec![
                FreqExpr::Trip(TripCount::GridStride(SizeExpr::N2)),
                FreqExpr::Fraction(0.1),
                FreqExpr::Mul(vec![FreqExpr::Const(4.0), FreqExpr::Once]),
            ]),
        ];
        for e in &exprs {
            let text = emit_freq(e);
            let parsed = parse_freq(&text, 0).unwrap_or_else(|x| panic!("{x}: {text}"));
            assert_eq!(&parsed, e, "{text}");
        }
    }

    #[test]
    fn handcrafted_listing_parses() {
        let text = "\
// comment
.kernel demo family=Fermi regs=12 smem=1024 spill=4

.block entry freq=once
  mov.u32 %r0, %tid.x
  setp.lt.s32 %p0, %r0, 128
  term condbr %p0 hot cold divergent=true taken=0.5
.block hot freq=frac(0.5)
  ld.global.f32 %r1, %r0 !pattern=coalesced
  fma.f32 %r3, %r0, %r1, %r1
  term jump done
.block cold freq=frac(0.5)
  @!%p0 mov.f32 %r2, 1.0f
  term jump done
.block done freq=once
  st.global.f32 %r0, %r1 !pattern=strided(32)
  exit
  term ret
";
        let p = parse(text).expect("parses");
        assert_eq!(&*p.name, "demo");
        assert_eq!(p.meta.regs_per_thread, 12);
        assert_eq!(p.meta.spill_bytes, 4);
        assert_eq!(p.blocks.len(), 4);
        assert_eq!(p.blocks[1].instrs[1].srcs.len(), 3);
        assert_eq!(p.blocks[2].instrs[0].guard, Some((Pred(0), true)));
        assert_eq!(
            p.blocks[3].instrs[0].mem,
            Some(MemAnnot { pattern: AccessPattern::Strided(32) })
        );
        // Emit → parse again is stable.
        roundtrip(&p);
    }
}
