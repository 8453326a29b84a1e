//! Persistent artifact wire format — the disk tier under the
//! [`ArtifactStore`](crate::ArtifactStore).
//!
//! The paper's §IV-B exhaustive sweeps are the expensive ground truth
//! every figure and table is validated against, and until now they died
//! with the process that computed them. This module spills **measurement
//! tiers** — the `(kernel, gpu, sizes, protocol)`-scoped memo of
//! [`Measurement`]s — to disk in a small hand-rolled format, so a sweep
//! written by one process re-runs warm (pure cache hits, bit-identical
//! results) in the next.
//!
//! # Wire format
//!
//! No serde is vendored, so the format is deliberately simple and fully
//! specified here:
//!
//! * **Canonical field text.** Every persisted type ([`GpuSpec`],
//!   [`EvalProtocol`] including its [`ModelId`], [`TuningParams`],
//!   [`Measurement`], [`SimReport`]) has exactly one serialization:
//!   `key:value` fields in a fixed order. Floats are written as the hex
//!   of their IEEE-754 bits ([`emit_f64`]), so a load/store round trip
//!   is **bit-identical** — never a decimal approximation.
//! * **Sealed lines.** Every header and record line carries its own
//!   FNV-1a 64 checksum (`body|crc16hex`, [`seal`]/[`unseal`]). A
//!   flipped byte, a truncated tail from a killed writer, or an edited
//!   file fails the checksum and the line is *rejected* — treated as a
//!   cache miss and recomputed, never served.
//! * **Versioned magic.** The first line is `oriole-meas v1` exactly. A
//!   file written by a different format version is detected
//!   ([`FileStatus::VersionSkew`]) and treated as a whole-file miss.
//! * **Content-addressed names.** A tier file is named
//!   `meas-<fnv64(scope)>.orl` ([`tier_file_name`]) where the scope is
//!   the canonical text of `(kernel, gpu, sizes, protocol)`
//!   ([`scope_text`]). The full scope is also embedded in the header and
//!   verified on load, so even a filename-hash collision can never serve
//!   another experiment's measurements.
//!
//! # File layout
//!
//! ```text
//! oriole-meas v1
//! h kernel=atax|<crc>
//! h gpu=name:K20;family:kepler;...|<crc>
//! h sizes=64,128|<crc>
//! h protocol=trials:10;...|<crc>
//! h end|<crc>
//! r params:tc:128,...;time:<f64 bits>;...|<crc>
//! r ...
//! ```
//!
//! Records are **append-only**: the evaluator spills each newly computed
//! measurement as one self-checksummed line, so a sweep killed mid-run
//! keeps everything it measured. Re-appended duplicates (e.g. after a
//! rejected record is recomputed) are harmless — the loader keeps the
//! last valid record per tuning point, and all records for one point are
//! bit-identical anyway because evaluation is deterministic. Because
//! every record is sealed on its own, the loader splits a big file's
//! lines across the cores, the way the sweep that wrote them ran.
//!
//! [`scan_store`] and [`gc_store`] back the CLI's
//! `oriole store {stats,verify,gc}` subcommands: listing tier files,
//! verifying their checksums, and deleting unusable files / compacting
//! ones with rejected records.

use crate::eval::{worker_count, EvalProtocol, Measurement, Objective};
use oriole_arch::{ComputeCapability, Family, GpuSpec, Limiter, Occupancy};
use oriole_codegen::{CompilerFlags, PreferredL1, TuningParams};
use oriole_sim::{BoundKind, ModelId, SimReport, TrialProtocol, WarpProfile};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// First line of every tier file; anything else is version skew or
/// corruption.
const MAGIC: &str = "oriole-meas v1";

/// Extension of tier files inside a store directory.
const EXT: &str = "orl";

// ---------------------------------------------------------------------------
// Checksums and sealed lines
// ---------------------------------------------------------------------------

/// FNV-1a 64 over `bytes` — the checksum sealing every line and the hash
/// deriving tier file names. Not cryptographic; it defends against
/// corruption and truncation, and the embedded scope defends against
/// collisions.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seals a line body with its checksum: `body|<16-hex fnv64>`.
pub fn seal(body: &str) -> String {
    format!("{body}|{:016x}", checksum(body.as_bytes()))
}

/// Verifies and strips a sealed line, returning the body; `None` when
/// the checksum is absent or does not match.
pub fn unseal(line: &str) -> Option<&str> {
    let (body, crc) = line.rsplit_once('|')?;
    let stored = u64::from_str_radix(crc, 16).ok()?;
    (stored == checksum(body.as_bytes())).then_some(body)
}

// ---------------------------------------------------------------------------
// Primitive codecs
// ---------------------------------------------------------------------------

/// A malformed wire value (the message names the offending field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    /// A malformed-value error naming the offending field — public so
    /// layers composing this vocabulary into larger messages (the RPC
    /// protocol of `oriole_service`) report errors in one shape.
    pub fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire format error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Serializes an `f64` as the hex of its IEEE-754 bits — the only float
/// encoding that survives a round trip bit-identically (infinities
/// included).
pub fn emit_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses [`emit_f64`] output back to the identical `f64`.
pub fn parse_f64(s: &str) -> Result<f64, WireError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| WireError::new(format!("bad f64 bits `{s}`")))
}

/// Cursor over a `key:value` field list, read in the one order the
/// emitters write — a single pass, no allocation.
struct Fields<'a> {
    rest: &'a str,
    sep: char,
}

impl<'a> Fields<'a> {
    /// The value of the next field, which must be `key` (the value may
    /// itself contain `:`; only the first one binds).
    fn get(&mut self, key: &str) -> Result<&'a str, WireError> {
        let (field, rest) = self.rest.split_once(self.sep).unwrap_or((self.rest, ""));
        let value = field
            .strip_prefix(key)
            .and_then(|v| v.strip_prefix(':'))
            .ok_or_else(|| WireError::new(format!("missing field `{key}`")))?;
        self.rest = rest;
        Ok(value)
    }

    fn num<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, WireError> {
        self.get(key)?
            .parse()
            .map_err(|_| WireError::new(format!("bad numeric field `{key}`")))
    }

    fn f64(&mut self, key: &str) -> Result<f64, WireError> {
        parse_f64(self.get(key)?)
    }
}

fn family_name(f: Family) -> &'static str {
    match f {
        Family::Fermi => "fermi",
        Family::Kepler => "kepler",
        Family::Maxwell => "maxwell",
        Family::Pascal => "pascal",
    }
}

fn parse_family(s: &str) -> Result<Family, WireError> {
    Family::ALL
        .into_iter()
        .find(|&f| family_name(f) == s)
        .ok_or_else(|| WireError::new(format!("unknown family `{s}`")))
}

fn bool_bit(b: bool) -> u8 {
    u8::from(b)
}

fn parse_bool(s: &str) -> Result<bool, WireError> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(WireError::new(format!("bad bool `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// GpuSpec
// ---------------------------------------------------------------------------

/// Canonical serialization of a [`GpuSpec`]: every field, fixed order,
/// so two specs serialize equal iff they are structurally equal — the
/// same contract the in-memory store keys rely on.
pub fn emit_gpu_spec(g: &GpuSpec) -> String {
    format!(
        "name:{};family:{};cc:{}.{};gmem:{};mp:{};cores:{};clk:{};mclk:{};l2:{};cmem:{};\
         smb:{};smmp:{};rf:{};ws:{};tmp:{};tpb:{};bmp:{};tpw:{};wmp:{};rau:{};rtmax:{}",
        g.name,
        family_name(g.family),
        g.compute_capability.major,
        g.compute_capability.minor,
        g.global_mem_mib,
        g.multiprocessors,
        g.cores_per_mp,
        g.gpu_clock_mhz,
        g.mem_clock_mhz,
        g.l2_cache_bytes,
        g.const_mem_bytes,
        g.shmem_per_block,
        g.shmem_per_mp,
        g.regfile_per_mp,
        g.warp_size,
        g.threads_per_mp,
        g.threads_per_block,
        g.blocks_per_mp,
        g.threads_per_warp,
        g.warps_per_mp,
        g.reg_alloc_unit,
        g.regs_per_thread_max,
    )
}

/// `GpuSpec.name` is `&'static str`; known Table I names intern back to
/// their static spellings, anything else (synthetic devices) is leaked
/// **once per distinct name** via a process-wide intern table — repeated
/// parses (store scans in a long-lived process) never grow memory.
fn intern_gpu_name(name: &str) -> &'static str {
    for gpu in oriole_arch::ALL_GPUS {
        if gpu.spec().name == name {
            return gpu.spec().name;
        }
    }
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = INTERNED.lock().expect("intern table lock");
    if let Some(known) = table.iter().find(|n| **n == name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

/// Parses [`emit_gpu_spec`] output back into a structurally identical
/// [`GpuSpec`].
pub fn parse_gpu_spec(text: &str) -> Result<GpuSpec, WireError> {
    let mut f = Fields { rest: text, sep: ';' };
    let name = intern_gpu_name(f.get("name")?);
    let family = parse_family(f.get("family")?)?;
    let cc = f.get("cc")?;
    let (major, minor) = cc
        .split_once('.')
        .ok_or_else(|| WireError::new(format!("bad compute capability `{cc}`")))?;
    Ok(GpuSpec {
        name,
        family,
        compute_capability: ComputeCapability::new(
            major.parse().map_err(|_| WireError::new("bad cc major"))?,
            minor.parse().map_err(|_| WireError::new("bad cc minor"))?,
        ),
        global_mem_mib: f.num("gmem")?,
        multiprocessors: f.num("mp")?,
        cores_per_mp: f.num("cores")?,
        gpu_clock_mhz: f.num("clk")?,
        mem_clock_mhz: f.num("mclk")?,
        l2_cache_bytes: f.num("l2")?,
        const_mem_bytes: f.num("cmem")?,
        shmem_per_block: f.num("smb")?,
        shmem_per_mp: f.num("smmp")?,
        regfile_per_mp: f.num("rf")?,
        warp_size: f.num("ws")?,
        threads_per_mp: f.num("tmp")?,
        threads_per_block: f.num("tpb")?,
        blocks_per_mp: f.num("bmp")?,
        threads_per_warp: f.num("tpw")?,
        warps_per_mp: f.num("wmp")?,
        reg_alloc_unit: f.num("rau")?,
        regs_per_thread_max: f.num("rtmax")?,
    })
}

// ---------------------------------------------------------------------------
// EvalProtocol
// ---------------------------------------------------------------------------

fn trial_protocol_name(p: TrialProtocol) -> &'static str {
    match p {
        TrialProtocol::FifthOfTen => "fifth-of-ten",
        TrialProtocol::Median => "median",
        TrialProtocol::Min => "min",
    }
}

fn parse_trial_protocol(s: &str) -> Result<TrialProtocol, WireError> {
    match s {
        "fifth-of-ten" => Ok(TrialProtocol::FifthOfTen),
        "median" => Ok(TrialProtocol::Median),
        "min" => Ok(TrialProtocol::Min),
        other => Err(WireError::new(format!("unknown trial protocol `{other}`"))),
    }
}

fn objective_name(o: Objective) -> &'static str {
    match o {
        Objective::TotalTime => "total-time",
        Objective::LargestSize => "largest-size",
    }
}

fn parse_objective(s: &str) -> Result<Objective, WireError> {
    match s {
        "total-time" => Ok(Objective::TotalTime),
        "largest-size" => Ok(Objective::LargestSize),
        other => Err(WireError::new(format!("unknown objective `{other}`"))),
    }
}

/// Canonical serialization of an [`EvalProtocol`] — including the
/// [`ModelId`], so tiers taken under different timing backends can never
/// share a disk artifact.
pub fn emit_protocol(p: &EvalProtocol) -> String {
    format!(
        "trials:{};select:{};seed:{:016x};objective:{};model:{}",
        p.trials,
        trial_protocol_name(p.protocol),
        p.base_seed,
        objective_name(p.objective),
        p.model.name(),
    )
}

/// Parses [`emit_protocol`] output.
pub fn parse_protocol(text: &str) -> Result<EvalProtocol, WireError> {
    let mut f = Fields { rest: text, sep: ';' };
    Ok(EvalProtocol {
        trials: f.num("trials")?,
        protocol: parse_trial_protocol(f.get("select")?)?,
        base_seed: u64::from_str_radix(f.get("seed")?, 16)
            .map_err(|_| WireError::new("bad seed"))?,
        objective: parse_objective(f.get("objective")?)?,
        model: ModelId::parse(f.get("model")?)
            .ok_or_else(|| WireError::new("unknown model id"))?,
    })
}

// ---------------------------------------------------------------------------
// TuningParams
// ---------------------------------------------------------------------------

/// Canonical serialization of a tuning point (comma-separated so it can
/// nest inside semicolon-separated records).
pub fn emit_params(p: &TuningParams) -> String {
    format!(
        "tc:{},bc:{},uif:{},pl:{},sc:{},fm:{}",
        p.tc,
        p.bc,
        p.uif,
        p.pl.kb(),
        p.sc,
        bool_bit(p.cflags.fast_math),
    )
}

/// Parses [`emit_params`] output.
pub fn parse_params(text: &str) -> Result<TuningParams, WireError> {
    let mut f = Fields { rest: text, sep: ',' };
    Ok(TuningParams {
        tc: f.num("tc")?,
        bc: f.num("bc")?,
        uif: f.num("uif")?,
        pl: f
            .num("pl")
            .and_then(|kb| PreferredL1::from_kb(kb).ok_or_else(|| WireError::new("bad PL")))?,
        sc: f.num("sc")?,
        cflags: CompilerFlags { fast_math: parse_bool(f.get("fm")?)? },
    })
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Canonical serialization of one [`Measurement`] — the record body of a
/// tier file. All floats are bit-exact ([`emit_f64`]); an infeasible
/// measurement round-trips with its infinite objective and empty
/// per-size list.
pub fn emit_measurement(m: &Measurement) -> String {
    let sizes: Vec<String> = m
        .per_size_ms
        .iter()
        .map(|(n, t)| format!("{n}@{}", emit_f64(*t)))
        .collect();
    format!(
        "params:{};time:{};feasible:{};occ:{};regs:{};reginstr:{};sizes:{}",
        emit_params(&m.params),
        emit_f64(m.time_ms),
        bool_bit(m.feasible),
        emit_f64(m.occupancy),
        m.regs_allocated,
        emit_f64(m.reg_instructions),
        sizes.join(","),
    )
}

/// Parses [`emit_measurement`] output back into the bit-identical
/// [`Measurement`].
pub fn parse_measurement(text: &str) -> Result<Measurement, WireError> {
    let mut f = Fields { rest: text, sep: ';' };
    let mut m = Measurement {
        params: parse_params(f.get("params")?)?,
        time_ms: f.f64("time")?,
        per_size_ms: Vec::new(),
        feasible: parse_bool(f.get("feasible")?)?,
        occupancy: f.f64("occ")?,
        regs_allocated: f.num("regs")?,
        reg_instructions: f.f64("reginstr")?,
    };
    for item in f.get("sizes")?.split(',').filter(|s| !s.is_empty()) {
        let (n, bits) = item
            .split_once('@')
            .ok_or_else(|| WireError::new(format!("bad per-size entry `{item}`")))?;
        m.per_size_ms
            .push((n.parse().map_err(|_| WireError::new("bad per-size n"))?, parse_f64(bits)?));
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// SimReport
// ---------------------------------------------------------------------------

fn bound_name(b: BoundKind) -> &'static str {
    match b {
        BoundKind::Issue => "issue",
        BoundKind::Latency => "latency",
        BoundKind::Bandwidth => "bandwidth",
    }
}

fn parse_bound(s: &str) -> Result<BoundKind, WireError> {
    match s {
        "issue" => Ok(BoundKind::Issue),
        "latency" => Ok(BoundKind::Latency),
        "bandwidth" => Ok(BoundKind::Bandwidth),
        other => Err(WireError::new(format!("unknown bound `{other}`"))),
    }
}

fn limiter_name(l: Limiter) -> &'static str {
    match l {
        Limiter::Warps => "warps",
        Limiter::Registers => "registers",
        Limiter::SharedMem => "sharedmem",
        Limiter::Illegal => "illegal",
    }
}

fn parse_limiter(s: &str) -> Result<Limiter, WireError> {
    match s {
        "warps" => Ok(Limiter::Warps),
        "registers" => Ok(Limiter::Registers),
        "sharedmem" => Ok(Limiter::SharedMem),
        "illegal" => Ok(Limiter::Illegal),
        other => Err(WireError::new(format!("unknown limiter `{other}`"))),
    }
}

/// Canonical serialization of a [`SimReport`] (occupancy details and
/// warp profile included) — the serialization contract a future
/// report-cache disk tier builds on, round-trip-tested today.
pub fn emit_sim_report(r: &SimReport) -> String {
    format!(
        "time:{};bound:{};ab:{};aw:{};occf:{};lim:{};bwarps:{};bregs:{};bsmem:{};wlregs:{};\
         busyb:{};busysm:{};reswarps:{};waves:{};cycles:{};\
         p_issue:{};p_mem:{};p_lat:{};p_dram:{};p_bar:{};p_div:{}",
        emit_f64(r.time_ms),
        bound_name(r.bound),
        r.occupancy.active_blocks,
        r.occupancy.active_warps,
        emit_f64(r.occupancy.occupancy),
        limiter_name(r.occupancy.limiter),
        r.occupancy.blocks_by_warps,
        r.occupancy.blocks_by_regs,
        r.occupancy.blocks_by_smem,
        r.occupancy.warp_limit_by_regs,
        r.busy_blocks,
        r.busy_sms,
        r.resident_warps,
        r.waves,
        emit_f64(r.cycles),
        emit_f64(r.profile.issue_cycles),
        emit_f64(r.profile.mem_ops),
        emit_f64(r.profile.latency_weighted),
        emit_f64(r.profile.dram_transactions),
        emit_f64(r.profile.barriers),
        emit_f64(r.profile.divergent_branches),
    )
}

/// Parses [`emit_sim_report`] output back into the bit-identical
/// [`SimReport`].
pub fn parse_sim_report(text: &str) -> Result<SimReport, WireError> {
    let mut f = Fields { rest: text, sep: ';' };
    Ok(SimReport {
        time_ms: f.f64("time")?,
        bound: parse_bound(f.get("bound")?)?,
        occupancy: Occupancy {
            active_blocks: f.num("ab")?,
            active_warps: f.num("aw")?,
            occupancy: f.f64("occf")?,
            limiter: parse_limiter(f.get("lim")?)?,
            blocks_by_warps: f.num("bwarps")?,
            blocks_by_regs: f.num("bregs")?,
            blocks_by_smem: f.num("bsmem")?,
            warp_limit_by_regs: f.num("wlregs")?,
        },
        busy_blocks: f.num("busyb")?,
        busy_sms: f.num("busysm")?,
        resident_warps: f.num("reswarps")?,
        waves: f.num("waves")?,
        cycles: f.f64("cycles")?,
        profile: WarpProfile {
            issue_cycles: f.f64("p_issue")?,
            mem_ops: f.f64("p_mem")?,
            latency_weighted: f.f64("p_lat")?,
            dram_transactions: f.f64("p_dram")?,
            barriers: f.f64("p_bar")?,
            divergent_branches: f.f64("p_div")?,
        },
    })
}

// ---------------------------------------------------------------------------
// Scopes and tier files
// ---------------------------------------------------------------------------

/// The canonical text of a measurement-tier scope — the
/// `(kernel, gpu, sizes, protocol)` key as four `key=value` lines. Two
/// scopes share a disk artifact iff their scope texts are byte-equal.
pub fn scope_text(kernel: &str, gpu: &GpuSpec, sizes: &[u64], protocol: &EvalProtocol) -> String {
    let sizes: Vec<String> = sizes.iter().map(u64::to_string).collect();
    format!(
        "kernel={kernel}\ngpu={}\nsizes={}\nprotocol={}",
        emit_gpu_spec(gpu),
        sizes.join(","),
        emit_protocol(protocol),
    )
}

/// Content-addressed file name of a tier: `meas-<fnv64(scope)>.orl`. The
/// scope is also embedded (and verified) in the file header, so the name
/// is a fast index, never the trust anchor.
pub fn tier_file_name(scope: &str) -> String {
    format!("meas-{:016x}.{EXT}", checksum(scope.as_bytes()))
}

fn header_text(scope: &str) -> String {
    let mut out = String::from(MAGIC);
    out.push('\n');
    for line in scope.lines() {
        out.push_str(&seal(&format!("h {line}")));
        out.push('\n');
    }
    out.push_str(&seal("h end"));
    out.push('\n');
    out
}

fn record_line(m: &Measurement) -> String {
    let mut line = seal(&format!("r {}", emit_measurement(m)));
    line.push('\n');
    line
}

/// Fewest record lines worth a parsing thread of their own.
const MIN_SHARE: usize = 128;

/// Outcome of reading one tier file.
enum TierRead {
    /// No file at the path.
    Absent,
    /// The file announces a different format version.
    VersionSkew,
    /// The header is damaged beyond use.
    Corrupt,
    /// Header verified; `rejected` counts record lines that failed
    /// their checksum or parse and were dropped (their points will be
    /// recomputed, never trusted).
    Usable { scope: String, measurements: Vec<Measurement>, rejected: u64 },
}

fn read_tier(path: &Path) -> TierRead {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return TierRead::Absent,
        Err(_) => return TierRead::Corrupt,
    };
    let mut lines = content.lines();
    match lines.next() {
        Some(MAGIC) => {}
        Some(first) if first.starts_with("oriole-meas ") => return TierRead::VersionSkew,
        _ => return TierRead::Corrupt,
    }
    // Header: sealed `h <scope line>` lines closed by `h end`.
    let mut scope_lines: Vec<&str> = Vec::new();
    let mut closed = false;
    for line in lines.by_ref() {
        let Some(body) = unseal(line) else { return TierRead::Corrupt };
        let Some(rest) = body.strip_prefix("h ") else { return TierRead::Corrupt };
        if rest == "end" {
            closed = true;
            break;
        }
        scope_lines.push(rest);
    }
    if !closed {
        return TierRead::Corrupt;
    }
    // Records: independently sealed, so a big file's lines are parsed
    // on every core, like the sweep that wrote them. Bad lines are
    // rejected, good ones kept (last record per point wins — duplicates
    // are bit-identical by determinism, so order only matters for
    // rejected-then-reappended points).
    let lines: Vec<&str> = lines.collect();
    let parse = |lines: &[&str]| -> Vec<Option<Measurement>> {
        let record = |line: &&str| parse_measurement(unseal(line)?.strip_prefix("r ")?).ok();
        lines.iter().map(record).collect()
    };
    let parsed = std::thread::scope(|scope| {
        let share = lines.len().div_ceil(worker_count()).max(MIN_SHARE);
        let mut shares = lines.chunks(share);
        let first = shares.next().unwrap_or_default();
        let spawned: Vec<_> = shares.map(|share| scope.spawn(move || parse(share))).collect();
        let mut parsed = parse(first);
        for handle in spawned {
            parsed.extend(handle.join().expect("record parsing never panics"));
        }
        parsed
    });
    let mut measurements = HashMap::with_capacity(parsed.len());
    let mut rejected = 0u64;
    for record in parsed {
        match record {
            Some(m) => {
                measurements.insert(m.params, m);
            }
            None => rejected += 1,
        }
    }
    TierRead::Usable {
        scope: scope_lines.join("\n"),
        measurements: measurements.into_values().collect(),
        rejected,
    }
}

// ---------------------------------------------------------------------------
// Disk-tier runtime: counters, open, spill
// ---------------------------------------------------------------------------

/// Disk-tier telemetry of one store (the `StoreStats.disk` numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Tier lookups served by a usable on-disk artifact.
    pub tier_hits: u64,
    /// Tier lookups with no usable artifact (absent, corrupt,
    /// version-skewed or scope-mismatched file).
    pub tier_misses: u64,
    /// Measurements loaded from disk into memory tiers.
    pub measurements_loaded: u64,
    /// Measurements spilled (appended) to disk.
    pub measurements_written: u64,
    /// Corruption events detected and treated as misses: unusable files
    /// plus individual rejected records.
    pub rejected: u64,
}

/// Shared atomic counters behind [`DiskStats`].
#[derive(Default)]
pub(crate) struct DiskCounters {
    tier_hits: AtomicU64,
    tier_misses: AtomicU64,
    loaded: AtomicU64,
    written: AtomicU64,
    rejected: AtomicU64,
}

impl DiskCounters {
    pub(crate) fn snapshot(&self) -> DiskStats {
        DiskStats {
            tier_hits: self.tier_hits.load(Ordering::Relaxed),
            tier_misses: self.tier_misses.load(Ordering::Relaxed),
            measurements_loaded: self.loaded.load(Ordering::Relaxed),
            measurements_written: self.written.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// Append-only writer spilling newly computed measurements of one tier.
///
/// Each record is one sealed line written with a single `write_all`
/// under a mutex, so concurrent evaluation workers interleave whole
/// records — a killed process leaves at most one truncated line, which
/// the loader rejects and recomputes.
pub(crate) struct TierSpill {
    file: Mutex<File>,
    counters: Arc<DiskCounters>,
    written: AtomicU64,
}

impl TierSpill {
    /// Appends one measurement record (best-effort: an I/O error
    /// degrades the tier to memory-only for that record, it never
    /// corrupts results).
    pub(crate) fn append(&self, m: &Measurement) {
        let line = record_line(m);
        let mut file = self.file.lock().expect("spill lock");
        if file.write_all(line.as_bytes()).is_ok() {
            self.written.fetch_add(1, Ordering::Relaxed);
            self.counters.written.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records appended through this spill.
    pub(crate) fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

/// A tier opened against the disk: whatever loaded, plus the spill
/// writer for new computations (absent when the directory is not
/// writable or the file belongs to a different scope).
pub(crate) struct OpenedTier {
    pub(crate) measurements: Vec<Measurement>,
    pub(crate) spill: Option<TierSpill>,
}

/// Opens (or creates) the tier file for `scope` under `dir`, loading
/// every valid record and preparing the append-mode spill. Corrupt or
/// version-skewed files are detected, counted, and **rewritten fresh**
/// — their contents are never trusted; a scope-mismatched file (a
/// filename-hash collision) is left untouched and the tier runs
/// memory-only.
pub(crate) fn open_tier(dir: &Path, scope: &str, counters: &Arc<DiskCounters>) -> OpenedTier {
    let path = dir.join(tier_file_name(scope));
    let (measurements, rewrite) = match read_tier(&path) {
        TierRead::Absent => {
            counters.tier_misses.fetch_add(1, Ordering::Relaxed);
            (Vec::new(), true)
        }
        TierRead::VersionSkew | TierRead::Corrupt => {
            counters.tier_misses.fetch_add(1, Ordering::Relaxed);
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            (Vec::new(), true)
        }
        TierRead::Usable { scope: found, measurements, rejected } => {
            if found == scope {
                counters.tier_hits.fetch_add(1, Ordering::Relaxed);
                counters.loaded.fetch_add(measurements.len() as u64, Ordering::Relaxed);
                counters.rejected.fetch_add(rejected, Ordering::Relaxed);
                (measurements, false)
            } else {
                // Filename collision with another experiment's scope:
                // never serve it, and never overwrite it either.
                counters.tier_misses.fetch_add(1, Ordering::Relaxed);
                return OpenedTier { measurements: Vec::new(), spill: None };
            }
        }
    };
    let file = if rewrite {
        File::create(&path).and_then(|mut f| {
            f.write_all(header_text(scope).as_bytes())?;
            Ok(f)
        })
    } else {
        OpenOptions::new().append(true).open(&path)
    };
    let spill = file.ok().map(|file| TierSpill {
        file: Mutex::new(file),
        counters: Arc::clone(counters),
        written: AtomicU64::new(0),
    });
    OpenedTier { measurements, spill }
}

// ---------------------------------------------------------------------------
// Length-framed transport
// ---------------------------------------------------------------------------

/// Magic bytes opening every wire frame (`ORLF` — "oriole frame").
pub const FRAME_MAGIC: [u8; 4] = *b"ORLF";

/// Fixed size of the frame header preceding every payload:
/// `ORLF | len: u32 BE | crc: u64 BE | corr: u64 BE`.
pub const FRAME_HEADER_BYTES: usize = 24;

/// Upper bound on a single frame's payload. A full 5,120-point evaluate
/// batch with per-size records is well under 2 MiB; anything near this
/// bound is a corrupted length field, not a legitimate payload.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Why one [`read_frame`] call produced no payload.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly *between* frames (zero
    /// bytes where the next magic would start) — the normal end of a
    /// session, not an error condition.
    Eof,
    /// An I/O failure, including a connection dropped *mid*-frame.
    Io(std::io::Error),
    /// A read/write deadline expired (`set_read_timeout` /
    /// `set_write_timeout` on the stream): the peer is slow, stalled or
    /// idle — distinct from [`FrameError::Io`] so servers can reap idle
    /// connections and clients can retry instead of treating the
    /// deadline as a dead peer.
    TimedOut,
    /// The stream did not start with [`FRAME_MAGIC`] — not speaking
    /// this protocol, or desynchronized beyond recovery.
    BadMagic([u8; 4]),
    /// The announced length exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload failed its FNV-1a checksum: corrupted in flight.
    BadChecksum,
    /// The payload is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TimedOut => write!(f, "frame I/O deadline expired"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte bound")
            }
            FrameError::BadChecksum => write!(f, "frame payload failed its checksum"),
            FrameError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over the correlation id (big-endian bytes) followed by the
/// payload. Covering the id means a frame whose id is corrupted in
/// flight fails its checksum instead of being delivered to whichever
/// request happens to own the mangled id.
pub fn frame_checksum(corr: u64, payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in corr.to_be_bytes().iter().chain(payload.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes one length-framed, checksummed, correlation-tagged frame:
/// `ORLF | len: u32 BE | fnv64(corr ++ payload): u64 BE | corr: u64 BE |
/// payload bytes`.
///
/// The correlation id lets one connection carry many requests in
/// flight: a peer echoes the id back so responses can arrive out of
/// order. Single-shot exchanges use [`write_frame`], which tags with 0.
///
/// The single buffered `write_all` keeps frames contiguous even when
/// several threads share one stream behind a mutex.
pub fn write_frame_tagged(
    w: &mut impl std::io::Write,
    corr: u64,
    payload: &str,
) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + bytes.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(&frame_checksum(corr, bytes).to_be_bytes());
    buf.extend_from_slice(&corr.to_be_bytes());
    buf.extend_from_slice(bytes);
    w.write_all(&buf)?;
    w.flush()
}

/// Writes one frame with correlation id 0 — the single-shot form used
/// everywhere a connection has at most one request in flight.
pub fn write_frame(w: &mut impl std::io::Write, payload: &str) -> std::io::Result<()> {
    write_frame_tagged(w, 0, payload)
}

/// Maps a raw I/O error to the frame-level verdict: an expired
/// read/write deadline (`WouldBlock` on Unix sockets, `TimedOut`
/// elsewhere) is [`FrameError::TimedOut`], everything else is
/// [`FrameError::Io`].
pub fn classify_frame_io(e: std::io::Error) -> FrameError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e),
    }
}

fn read_exact_or(r: &mut impl std::io::Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection dropped mid-frame",
            ))
        } else {
            classify_frame_io(e)
        }
    })
}

/// Reads exactly one [`write_frame_tagged`] frame, verifying magic,
/// length bound and checksum, and returning `(correlation id, payload)`.
/// A clean close before the first magic byte is [`FrameError::Eof`];
/// everything else that isn't a verified payload is an error the caller
/// must treat as a poisoned stream (framing offers no
/// resynchronization).
pub fn read_frame_tagged(r: &mut impl std::io::Read) -> Result<(u64, String), FrameError> {
    let mut magic = [0u8; 4];
    // Distinguish "closed between frames" from "dropped mid-frame": read
    // the first byte separately.
    match r.read(&mut magic[..1]) {
        Ok(0) => return Err(FrameError::Eof),
        Ok(_) => {}
        Err(e) => return Err(classify_frame_io(e)),
    }
    read_exact_or(r, &mut magic[1..])?;
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut len = [0u8; 4];
    read_exact_or(r, &mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut crc = [0u8; 8];
    read_exact_or(r, &mut crc)?;
    let crc = u64::from_be_bytes(crc);
    let mut corr = [0u8; 8];
    read_exact_or(r, &mut corr)?;
    let corr = u64::from_be_bytes(corr);
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload)?;
    if frame_checksum(corr, &payload) != crc {
        return Err(FrameError::BadChecksum);
    }
    let payload = String::from_utf8(payload).map_err(|_| FrameError::BadUtf8)?;
    Ok((corr, payload))
}

/// Reads one frame and discards its correlation id — the single-shot
/// counterpart of [`write_frame`].
pub fn read_frame(r: &mut impl std::io::Read) -> Result<String, FrameError> {
    read_frame_tagged(r).map(|(_, payload)| payload)
}

/// Attempts to decode one frame from the front of an accumulation
/// buffer without blocking: `Ok(Some((corr, payload, consumed)))` when a
/// complete verified frame is present (the caller drains `consumed`
/// bytes), `Ok(None)` when more bytes are needed, and `Err` on the same
/// unrecoverable conditions as [`read_frame_tagged`]. This is the
/// decode step for event-driven readers that accumulate nonblocking
/// reads instead of issuing blocking `read_exact` calls.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(u64, String, usize)>, FrameError> {
    // Reject bad magic on the first divergent byte rather than waiting
    // for four: a desynchronized peer is detected as early as possible.
    let have = buf.len().min(4);
    if buf[..have] != FRAME_MAGIC[..have] {
        let mut magic = [0u8; 4];
        magic[..have].copy_from_slice(&buf[..have]);
        return Err(FrameError::BadMagic(magic));
    }
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let total = FRAME_HEADER_BYTES + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let crc = u64::from_be_bytes(buf[8..16].try_into().expect("8-byte slice"));
    let corr = u64::from_be_bytes(buf[16..24].try_into().expect("8-byte slice"));
    let payload = &buf[FRAME_HEADER_BYTES..total];
    if frame_checksum(corr, payload) != crc {
        return Err(FrameError::BadChecksum);
    }
    let payload = std::str::from_utf8(payload).map_err(|_| FrameError::BadUtf8)?;
    Ok(Some((corr, payload.to_string(), total)))
}

// ---------------------------------------------------------------------------
// Store maintenance: scan, verify, gc
// ---------------------------------------------------------------------------

/// Verdict on one tier file in a store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileStatus {
    /// Header and (surviving) records verified.
    Usable {
        /// Kernel key of the scope.
        kernel: String,
        /// Device name of the scope.
        gpu: String,
        /// Comma-separated input sizes of the scope.
        sizes: String,
        /// Timing-model backend of the scope's protocol.
        model: String,
        /// Valid measurement records.
        records: usize,
        /// Record lines rejected by checksum or parse.
        rejected: u64,
    },
    /// Written by a different format version; treated as a miss.
    VersionSkew,
    /// Header unusable; treated as a miss.
    Corrupt,
}

/// One tier file's scan result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileReport {
    /// File name inside the store directory.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Verification verdict.
    pub status: FileStatus,
}

fn scope_field(scope: &str, key: &str) -> Option<String> {
    scope
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .map(str::to_string)
}

fn tier_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == EXT))
        .collect();
    files.sort();
    Ok(files)
}

/// Scans every tier file under `dir`, verifying checksums and headers —
/// the data behind `oriole store stats` and `oriole store verify`.
pub fn scan_store(dir: &Path) -> std::io::Result<Vec<FileReport>> {
    let mut out = Vec::new();
    for path in tier_files(dir)? {
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let status = match read_tier(&path) {
            TierRead::Absent => continue, // raced deletion
            TierRead::VersionSkew => FileStatus::VersionSkew,
            TierRead::Corrupt => FileStatus::Corrupt,
            TierRead::Usable { scope, measurements, rejected } => {
                let model = scope_field(&scope, "protocol")
                    .and_then(|p| parse_protocol(&p).ok())
                    .map(|p| p.model.name().to_string())
                    .unwrap_or_else(|| "?".into());
                let gpu = scope_field(&scope, "gpu")
                    .and_then(|g| parse_gpu_spec(&g).ok())
                    .map(|g| g.name.to_string())
                    .unwrap_or_else(|| "?".into());
                FileStatus::Usable {
                    kernel: scope_field(&scope, "kernel").unwrap_or_else(|| "?".into()),
                    gpu,
                    sizes: scope_field(&scope, "sizes").unwrap_or_else(|| "?".into()),
                    model,
                    records: measurements.len(),
                    rejected,
                }
            }
        };
        out.push(FileReport { name, bytes, status });
    }
    Ok(out)
}

/// Result of one [`gc_store`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Unusable (corrupt / version-skewed) files deleted.
    pub removed_files: usize,
    /// Files rewritten to drop rejected or duplicate records.
    pub compacted_files: usize,
    /// Rejected record lines dropped by compaction.
    pub dropped_records: u64,
    /// Bytes reclaimed across deletions and compactions.
    pub bytes_reclaimed: u64,
}

/// Garbage-collects a store directory: deletes unusable tier files and
/// compacts usable ones that carry rejected record lines (rewriting
/// header + surviving records). Never touches healthy files.
pub fn gc_store(dir: &Path) -> std::io::Result<GcReport> {
    gc_pass(dir, true)
}

/// Computes what [`gc_store`] *would* do — identical report, zero disk
/// writes (the CLI's `store gc --dry-run`).
pub fn plan_gc(dir: &Path) -> std::io::Result<GcReport> {
    gc_pass(dir, false)
}

fn gc_pass(dir: &Path, apply: bool) -> std::io::Result<GcReport> {
    let mut report = GcReport::default();
    for path in tier_files(dir)? {
        let before = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        match read_tier(&path) {
            TierRead::Absent => {}
            TierRead::VersionSkew | TierRead::Corrupt => {
                if apply {
                    std::fs::remove_file(&path)?;
                }
                report.removed_files += 1;
                report.bytes_reclaimed += before;
            }
            TierRead::Usable { scope, mut measurements, rejected } => {
                if rejected == 0 {
                    continue;
                }
                // Full parameter tuple in the sort key: compacted files
                // are byte-deterministic (HashMap iteration order never
                // shows through).
                measurements.sort_by_key(|m| {
                    let p = m.params;
                    (p.tc, p.bc, p.uif, p.pl.kb(), p.sc, p.cflags.fast_math)
                });
                let mut content = header_text(&scope);
                for m in &measurements {
                    content.push_str(&record_line(m));
                }
                if apply {
                    // Write-then-rename so compaction is atomic: a crash
                    // mid-gc leaves the original (still mostly usable)
                    // file intact instead of a truncated one that would
                    // discard every good record.
                    let tmp = path.with_extension("orl.tmp");
                    std::fs::write(&tmp, &content)?;
                    std::fs::rename(&tmp, &path)?;
                }
                report.compacted_files += 1;
                report.dropped_records += rejected;
                let after = content.len() as u64;
                report.bytes_reclaimed += before.saturating_sub(after);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::compile;
    use oriole_kernels::KernelId;

    fn sample_measurement() -> Measurement {
        Measurement {
            params: TuningParams::with_geometry(256, 48),
            time_ms: 1.0625e-3,
            per_size_ms: vec![(64, 0.5e-3), (128, 0.5625e-3)],
            feasible: true,
            occupancy: 0.75,
            regs_allocated: 24,
            reg_instructions: 12_345.5,
        }
    }

    #[test]
    fn sealed_lines_round_trip_and_detect_flips() {
        let line = seal("r hello:world");
        assert_eq!(unseal(&line), Some("r hello:world"));
        let tampered = line.replacen("hello", "hellp", 1);
        assert_eq!(unseal(&tampered), None, "a flipped byte must fail the checksum");
        assert_eq!(unseal("no checksum here"), None);
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.0, 1.0625e-3, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            assert_eq!(parse_f64(&emit_f64(v)).unwrap().to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn gpu_spec_round_trips_structurally() {
        for gpu in oriole_arch::ALL_GPUS {
            let spec = gpu.spec();
            let parsed = parse_gpu_spec(&emit_gpu_spec(spec)).unwrap();
            assert_eq!(&parsed, spec);
        }
        // A synthetic device with a custom name survives too.
        let custom =
            GpuSpec { name: "K20-half-rf", regfile_per_mp: 32_768, ..Gpu::K20.spec().clone() };
        let parsed = parse_gpu_spec(&emit_gpu_spec(&custom)).unwrap();
        assert_eq!(parsed, custom);
    }

    #[test]
    fn protocol_round_trips_every_variant() {
        let protocols = [
            EvalProtocol::default(),
            EvalProtocol {
                trials: 3,
                protocol: TrialProtocol::Median,
                base_seed: 0xdead_beef,
                objective: Objective::LargestSize,
                model: ModelId::Roofline,
            },
            EvalProtocol { model: ModelId::Static, ..EvalProtocol::default() },
            EvalProtocol { protocol: TrialProtocol::Min, ..EvalProtocol::default() },
        ];
        for p in protocols {
            assert_eq!(parse_protocol(&emit_protocol(&p)).unwrap(), p);
        }
    }

    #[test]
    fn params_and_measurement_round_trip_bit_identically() {
        let mut p = TuningParams::with_geometry(1024, 192);
        p.uif = 5;
        p.pl = PreferredL1::Kb48;
        p.sc = 3;
        p.cflags.fast_math = true;
        assert_eq!(parse_params(&emit_params(&p)).unwrap(), p);
        // One serialization only: fields out of the emitted order are a
        // malformed value, like a missing one.
        assert!(parse_params("bc:192,tc:1024,uif:5,pl:48,sc:3,fm:1").is_err());
        assert!(parse_params("tc:1024,bc:192,uif:5,pl:48,sc:3").is_err());

        let m = sample_measurement();
        let rt = parse_measurement(&emit_measurement(&m)).unwrap();
        assert_eq!(rt, m);
        assert_eq!(rt.time_ms.to_bits(), m.time_ms.to_bits());

        // Infeasible: infinite objective, empty per-size list.
        let infeasible = Measurement {
            params: p,
            time_ms: f64::INFINITY,
            per_size_ms: Vec::new(),
            feasible: false,
            occupancy: 0.0,
            regs_allocated: 0,
            reg_instructions: 0.0,
        };
        assert_eq!(parse_measurement(&emit_measurement(&infeasible)).unwrap(), infeasible);
    }

    #[test]
    fn sim_report_round_trips_bit_identically() {
        let kernel = compile(
            &KernelId::Atax.ast(128),
            Gpu::K20.spec(),
            TuningParams::with_geometry(128, 48),
        )
        .unwrap();
        let report = oriole_sim::simulate(&kernel, 128).unwrap();
        let rt = parse_sim_report(&emit_sim_report(&report)).unwrap();
        assert_eq!(rt, report);
        assert_eq!(rt.time_ms.to_bits(), report.time_ms.to_bits());
        // Unconstrained limits (u32::MAX) survive as well.
        assert_eq!(rt.occupancy.blocks_by_smem, report.occupancy.blocks_by_smem);
    }

    #[test]
    fn scope_distinguishes_every_component() {
        let gpu = Gpu::K20.spec();
        let protocol = EvalProtocol::default();
        let base = scope_text("atax", gpu, &[64], &protocol);
        assert_ne!(base, scope_text("bicg", gpu, &[64], &protocol));
        assert_ne!(base, scope_text("atax", Gpu::M40.spec(), &[64], &protocol));
        assert_ne!(base, scope_text("atax", gpu, &[64, 128], &protocol));
        assert_ne!(
            base,
            scope_text(
                "atax",
                gpu,
                &[64],
                &EvalProtocol { model: ModelId::Static, ..protocol }
            )
        );
        assert!(tier_file_name(&base).starts_with("meas-"));
        assert_ne!(tier_file_name(&base), tier_file_name(&scope_text("bicg", gpu, &[64], &protocol)));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("oriole-persist-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_tier_writes_loads_and_survives_reopen() {
        let dir = temp_dir("open");
        let scope = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let counters = Arc::new(DiskCounters::default());

        let opened = open_tier(&dir, &scope, &counters);
        assert!(opened.measurements.is_empty());
        let spill = opened.spill.expect("writable dir");
        let m = sample_measurement();
        spill.append(&m);
        assert_eq!(spill.written(), 1);

        let counters2 = Arc::new(DiskCounters::default());
        let reopened = open_tier(&dir, &scope, &counters2);
        assert_eq!(reopened.measurements, vec![m]);
        let stats = counters2.snapshot();
        assert_eq!(stats.tier_hits, 1);
        assert_eq!(stats.measurements_loaded, 1);
        assert_eq!(stats.rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn big_tiers_load_across_parsing_shares() {
        // Enough records for several parsing shares, with a flipped byte
        // and a re-appended duplicate landing in the later ones.
        let dir = temp_dir("shares");
        let scope = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let counters = Arc::new(DiskCounters::default());
        let spill = open_tier(&dir, &scope, &counters).spill.expect("writable dir");
        let mut written: Vec<Measurement> = (0..4 * MIN_SHARE as u32)
            .map(|i| Measurement {
                params: TuningParams::with_geometry(32 + i, 48),
                ..sample_measurement()
            })
            .collect();
        for m in &written {
            spill.append(m);
        }
        spill.append(&written[7]);
        drop(spill);
        let path = dir.join(tier_file_name(&scope));
        let lost = written.remove(3 * MIN_SHARE);
        let content = std::fs::read_to_string(&path).unwrap();
        let needle = format!("r params:tc:{},", lost.params.tc);
        assert!(content.contains(&needle));
        std::fs::write(&path, content.replacen(&needle, "r params:tc:1,", 1)).unwrap();

        let counters = Arc::new(DiskCounters::default());
        let mut loaded = open_tier(&dir, &scope, &counters).measurements;
        loaded.sort_by_key(|m| m.params.tc);
        assert_eq!(loaded, written);
        let stats = counters.snapshot();
        assert_eq!((stats.measurements_loaded, stats.rejected), (written.len() as u64, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_skewed_files_are_rejected_and_rewritten() {
        let dir = temp_dir("corrupt");
        let scope = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let path = dir.join(tier_file_name(&scope));
        let counters = Arc::new(DiskCounters::default());

        // Truncated header → corrupt → rewritten fresh.
        std::fs::write(&path, format!("{MAGIC}\nh kernel=atax|0000000000000000\n")).unwrap();
        let opened = open_tier(&dir, &scope, &counters);
        assert!(opened.measurements.is_empty());
        assert_eq!(counters.snapshot().rejected, 1);
        opened.spill.unwrap().append(&sample_measurement());

        // Version skew → rejected wholesale even though records parse.
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replacen(MAGIC, "oriole-meas v99", 1)).unwrap();
        let counters2 = Arc::new(DiskCounters::default());
        let opened = open_tier(&dir, &scope, &counters2);
        assert!(opened.measurements.is_empty());
        let s = counters2.snapshot();
        assert_eq!((s.tier_hits, s.tier_misses, s.rejected), (0, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scope_mismatch_is_never_served_or_overwritten() {
        let dir = temp_dir("mismatch");
        let scope_a = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let scope_b = scope_text("bicg", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let counters = Arc::new(DiskCounters::default());
        open_tier(&dir, &scope_a, &counters).spill.unwrap().append(&sample_measurement());
        // Plant A's file under B's name (a simulated filename collision).
        std::fs::copy(dir.join(tier_file_name(&scope_a)), dir.join(tier_file_name(&scope_b)))
            .unwrap();
        let opened = open_tier(&dir, &scope_b, &counters);
        assert!(opened.measurements.is_empty(), "foreign scope must not be served");
        assert!(opened.spill.is_none(), "foreign scope must not be overwritten");
        let planted = std::fs::read_to_string(dir.join(tier_file_name(&scope_b))).unwrap();
        assert!(planted.contains("kernel=atax"), "planted file untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_round_trip_and_reject_damage() {
        let payload = format!("oriole-rpc v1 evaluate\nm {}", emit_measurement(&sample_measurement()));
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap(), "second");
        // Clean close between frames is Eof, not an error.
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));

        // A flipped payload byte fails the checksum.
        let mut tampered = buf.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01;
        let mut cursor = &tampered[FRAME_HEADER_BYTES + payload.len()..];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::BadChecksum)));

        // A flipped correlation-id byte also fails the checksum — a
        // corrupted id must never deliver a frame under the wrong id.
        let mut tampered = buf.clone();
        tampered[17] ^= 0x01;
        let mut cursor = &tampered[..];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::BadChecksum)));

        // Wrong magic and oversized length are rejected up front.
        let mut cursor: &[u8] = b"JUNKxxxxxxxxxxxxxxxx";
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::BadMagic(_))));
        let mut huge = Vec::new();
        huge.extend_from_slice(&FRAME_MAGIC);
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        huge.extend_from_slice(&[0u8; 8]);
        let mut cursor = &huge[..];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::TooLarge(_))));

        // A connection dropped mid-frame is an I/O error, not Eof.
        let mut cursor = &buf[..7];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }

    #[test]
    fn tagged_frames_round_trip_correlation_ids() {
        let mut buf = Vec::new();
        write_frame_tagged(&mut buf, 7, "first").unwrap();
        write_frame_tagged(&mut buf, u64::MAX, "second").unwrap();
        write_frame(&mut buf, "untagged").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame_tagged(&mut cursor).unwrap(), (7, "first".to_string()));
        assert_eq!(read_frame_tagged(&mut cursor).unwrap(), (u64::MAX, "second".to_string()));
        // The single-shot wrapper tags with 0 and interoperates.
        assert_eq!(read_frame_tagged(&mut cursor).unwrap(), (0, "untagged".to_string()));
        assert!(matches!(read_frame_tagged(&mut cursor), Err(FrameError::Eof)));
    }

    #[test]
    fn decode_frame_handles_partial_buffers_and_damage() {
        let mut buf = Vec::new();
        write_frame_tagged(&mut buf, 42, "payload one").unwrap();
        write_frame_tagged(&mut buf, 43, "payload two").unwrap();

        // Every prefix short of the first full frame decodes to None.
        let first_len = FRAME_HEADER_BYTES + "payload one".len();
        for cut in 0..first_len {
            assert!(
                matches!(decode_frame(&buf[..cut]), Ok(None)),
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
        // A complete first frame decodes and reports its size; the
        // remainder decodes the second.
        let (corr, payload, used) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!((corr, payload.as_str(), used), (42, "payload one", first_len));
        let (corr, payload, used) = decode_frame(&buf[used..]).unwrap().unwrap();
        assert_eq!((corr, payload.as_str()), (43, "payload two"));
        assert_eq!(used, FRAME_HEADER_BYTES + "payload two".len());

        // Bad magic is rejected on the first divergent byte, before the
        // rest of the header arrives.
        assert!(matches!(decode_frame(b"J"), Err(FrameError::BadMagic(_))));
        assert!(matches!(decode_frame(b"ORLX"), Err(FrameError::BadMagic(_))));

        // Oversized length and corrupted bytes are rejected as soon as
        // they are decodable.
        let mut huge = Vec::new();
        huge.extend_from_slice(&FRAME_MAGIC);
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode_frame(&huge), Err(FrameError::TooLarge(_))));
        let mut tampered = buf.clone();
        tampered[FRAME_HEADER_BYTES] ^= 0x01;
        assert!(matches!(decode_frame(&tampered), Err(FrameError::BadChecksum)));
        let mut tampered = buf;
        tampered[20] ^= 0x01; // inside the correlation id
        assert!(matches!(decode_frame(&tampered), Err(FrameError::BadChecksum)));
    }

    #[test]
    fn expired_read_deadlines_classify_as_timeouts() {
        // A reader whose deadline pops (WouldBlock on Unix sockets,
        // TimedOut elsewhere) must surface as FrameError::TimedOut —
        // both before the first magic byte (idle peer) and mid-frame
        // (stalled peer) — never as a generic Io error.
        struct TimesOutAfter(usize);
        impl std::io::Read for TimesOutAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.0);
                buf[..n].fill(b'O');
                self.0 -= n;
                Ok(n)
            }
        }
        assert!(matches!(read_frame(&mut TimesOutAfter(0)), Err(FrameError::TimedOut)));
        assert!(matches!(read_frame(&mut TimesOutAfter(2)), Err(FrameError::TimedOut)));
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            assert!(matches!(classify_frame_io(kind.into()), FrameError::TimedOut));
        }
        assert!(matches!(
            classify_frame_io(std::io::ErrorKind::ConnectionReset.into()),
            FrameError::Io(_)
        ));
    }

    #[test]
    fn plan_gc_reports_without_touching_disk() {
        let dir = temp_dir("plan-gc");
        let scope = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let counters = Arc::new(DiskCounters::default());
        open_tier(&dir, &scope, &counters).spill.unwrap().append(&sample_measurement());
        let path = dir.join(tier_file_name(&scope));
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replacen("tc:256", "tc:999", 1)).unwrap();
        std::fs::write(dir.join("meas-0000000000000000.orl"), "not a tier file").unwrap();

        let before: Vec<_> = tier_files(&dir)
            .unwrap()
            .into_iter()
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        let plan = plan_gc(&dir).unwrap();
        assert_eq!((plan.removed_files, plan.compacted_files, plan.dropped_records), (1, 1, 1));
        // Dry run: every byte of every file untouched.
        for (p, bytes) in &before {
            assert_eq!(&std::fs::read(p).unwrap(), bytes, "{}", p.display());
        }
        // The real gc reports the identical numbers and then repairs.
        assert_eq!(gc_store(&dir).unwrap(), plan);
        assert_eq!(plan_gc(&dir).unwrap(), GcReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_and_gc_report_and_repair() {
        let dir = temp_dir("gc");
        let scope = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let counters = Arc::new(DiskCounters::default());
        let opened = open_tier(&dir, &scope, &counters);
        let spill = opened.spill.unwrap();
        spill.append(&sample_measurement());
        let mut other = sample_measurement();
        other.params.tc = 512;
        spill.append(&other);

        // Tamper with one record and add a wholly corrupt second file.
        let path = dir.join(tier_file_name(&scope));
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replacen("tc:256", "tc:999", 1)).unwrap();
        std::fs::write(dir.join("meas-0000000000000000.orl"), "not a tier file").unwrap();

        let reports = scan_store(&dir).unwrap();
        assert_eq!(reports.len(), 2);
        let usable = reports
            .iter()
            .find_map(|r| match &r.status {
                FileStatus::Usable { kernel, records, rejected, .. } => {
                    Some((kernel.clone(), *records, *rejected))
                }
                _ => None,
            })
            .expect("one usable file");
        assert_eq!(usable, ("atax".to_string(), 1, 1));
        assert!(reports.iter().any(|r| r.status == FileStatus::Corrupt));

        let gc = gc_store(&dir).unwrap();
        assert_eq!(gc.removed_files, 1);
        assert_eq!(gc.compacted_files, 1);
        assert_eq!(gc.dropped_records, 1);

        // After gc: one clean file, nothing rejected.
        let reports = scan_store(&dir).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(matches!(
            reports[0].status,
            FileStatus::Usable { records: 1, rejected: 0, .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
