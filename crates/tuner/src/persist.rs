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
//!   is **bit-identical** — never a decimal approximation. Each record
//!   has one writer that stages it on the stack and appends it to a
//!   caller's buffer (`write_*`; the `emit_*` forms wrap it) and all are
//!   read by one cursor that accepts nothing but that spelling:
//!   `emit(parse(t)) == t` or `t` is refused. A hex field is written and
//!   read eight digits to a word.
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
//! rejected record is recomputed) are harmless — the tier keeps the
//! first valid record per tuning point, a rejected line was never a
//! candidate, and all records for one point are bit-identical anyway
//! because evaluation is deterministic. A file is read once, line by
//! line and in order, on the thread that opens its scope: each line is
//! taken as bytes, so damage — a byte that is not even UTF-8 — costs
//! the line it sits in and nothing else, and each record goes straight
//! into the `Arc` the tier serves. That is about three quarters of a
//! microsecond a record (0.75 µs re-opening eight 5,120-record tiers on
//! a two-core host, ~0.17 of it the parse), under half of what
//! recomputing it in a batch costs under the simulator (~1.65 µs a
//! point).
//!
//! The same text crosses the wire of `oriole_service` in length-framed,
//! checksummed frames: [`encode_frame`] builds one, and [`decode_frame`]
//! — the only frame decoder, which the daemon and the client both run
//! over the bytes they have buffered — takes one apart. Frames are
//! transient, so their checksum (`frame_checksum`) is built for speed,
//! while lines and file names keep the FNV-1a that files on disk pin.
//!
//! [`scan_store`] and [`gc_store`] back the CLI's
//! `oriole store {stats,verify,gc}` subcommands: listing tier files,
//! verifying their checksums, and deleting unusable files / compacting
//! ones with rejected records.

use crate::eval::{EvalProtocol, MeasTier, Measurement, Objective};
use oriole_arch::{ComputeCapability, Family, GpuSpec, Limiter, Occupancy};
use oriole_codegen::{CompilerFlags, PreferredL1, TuningParams};
use oriole_sim::{BoundKind, ModelId, SimReport, TrialProtocol, WarpProfile};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    let mut out = body.to_string();
    push_seal(&mut out, 0);
    out
}

/// Seals `out[from..]` where it stands: appends `|<16-hex fnv64>`.
fn push_seal(out: &mut String, from: usize) {
    let crc = checksum(&out.as_bytes()[from..]);
    staged(out, |s| {
        s.hex16("|", crc);
    });
}

/// Verifies and strips a sealed line, returning the body; `None` when
/// the checksum is absent, not in [`seal`]'s spelling, or does not
/// match.
pub fn unseal(line: &str) -> Option<&str> {
    let (body, tail) = line.split_at_checked(line.len().checked_sub(17)?)?;
    let stored = Cursor { text: tail, at: 0 }.hex16("|").ok()?;
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

/// Bytes a [`Stage`] holds before it hands them on.
const STAGE_BYTES: usize = 256;

/// The byte `b` in each of a word's eight lanes.
const fn lanes(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// The one writer of canonical text. A record is staged on the stack —
/// literal keys copied in by fixed-length moves (every primitive is
/// inlined where it is called), a decimal written by its digit count, a
/// hex field eight digits a word — and handed to `out` with one
/// `push_str` per record (or per [`STAGE_BYTES`]) when the stage fills
/// and when [`staged`] is done with it.
struct Stage<'o> {
    out: &'o mut String,
    buf: [u8; STAGE_BYTES],
    len: usize,
}

/// Stages what `write` appends, then hands it to `out`.
fn staged(out: &mut String, write: impl FnOnce(&mut Stage<'_>)) {
    let mut s = Stage { out, buf: [0; STAGE_BYTES], len: 0 };
    write(&mut s);
    s.flush();
}

impl Stage<'_> {
    /// Hands the staged bytes to `out`: whole `&str`s, never split.
    fn flush(&mut self) {
        let staged = std::str::from_utf8(&self.buf[..self.len]);
        self.out.push_str(staged.expect("a stage holds whole `&str`s and ASCII digits"));
        self.len = 0;
    }

    /// Makes room for `n` more bytes.
    #[inline(always)]
    fn room(&mut self, n: usize) {
        if self.len + n > STAGE_BYTES {
            self.flush();
        }
    }

    /// Appends `text` as it stands: a key, or a name. An empty one is
    /// skipped, never copied: see [`Cursor::key`].
    #[inline(always)]
    fn text(&mut self, text: &str) -> &mut Self {
        self.room(text.len());
        if text.len() > STAGE_BYTES {
            self.out.push_str(text);
        } else if !text.is_empty() {
            self.buf[self.len..self.len + text.len()].copy_from_slice(text.as_bytes());
            self.len += text.len();
        }
        self
    }

    /// Appends `key` and `v` in canonical decimal (no sign, no padding).
    #[inline(always)]
    fn dec(&mut self, key: &str, v: impl Into<u64>) -> &mut Self {
        let mut v = v.into();
        let digits = v.checked_ilog10().map_or(1, |log| log as usize + 1);
        self.text(key).room(digits);
        let end = self.len + digits;
        for digit in self.buf[self.len..end].iter_mut().rev() {
            *digit = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.len = end;
        self
    }

    /// Appends `key` and `v` as exactly 16 lowercase hex digits — a seed,
    /// a seal, or the raw IEEE-754 bits of a float.
    #[inline(always)]
    fn hex16(&mut self, key: &str, v: u64) -> &mut Self {
        self.text(key).room(16);
        let at = self.len;
        self.buf[at..at + 8].copy_from_slice(&spell_hex8((v >> 32) as u32));
        self.buf[at + 8..at + 16].copy_from_slice(&spell_hex8(v as u32));
        self.len += 16;
        self
    }
}

/// The eight hex digits of `v`, most significant first: each nibble is
/// spread to a byte of its own, then all eight become ASCII at once.
/// Adding 6 to a nibble carries into bit 4 exactly for 10–15, the
/// digits spelled as letters.
#[inline]
fn spell_hex8(v: u32) -> [u8; 8] {
    let mut x = u64::from(v);
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & lanes(0x0f);
    let letters = ((x + lanes(6)) >> 4) & lanes(1);
    (x + lanes(b'0') + letters * u64::from(b'a' - b'0' - 10)).to_be_bytes()
}

/// The value of eight lowercase hex digits, `None` unless every byte is
/// one. With the top bit of every byte clear, adding at most 0x50 cannot
/// carry between bytes, so `x + lanes(0x80 - b)` sets a byte's top bit
/// iff that byte is at least `b`: four additions range-check all eight
/// bytes against `0-9` and `a-f` with no branch per digit.
#[inline]
fn read_hex8(digits: [u8; 8]) -> Option<u32> {
    let x = u64::from_be_bytes(digits);
    let at_least = |b: u8| x.wrapping_add(lanes(0x80 - b));
    let digit = at_least(b'0') & !at_least(0x3a); // past '9'
    let letter = at_least(b'a') & !at_least(0x67); // past 'f'
    if (x | !(digit | letter)) & lanes(0x80) != 0 {
        return None;
    }
    // A digit's low nibble is its value; a letter's is its value less 9.
    let mut v = (x & lanes(0x0f)) + ((letter & lanes(0x80)) >> 7) * 9;
    v = (v | (v >> 4)) & 0x00ff_00ff_00ff_00ff;
    v = (v | (v >> 8)) & 0x0000_ffff_0000_ffff;
    v = (v | (v >> 16)) & 0x0000_0000_ffff_ffff;
    Some(v as u32)
}

/// Serializes an `f64` as the hex of its IEEE-754 bits — the only float
/// encoding that survives a round trip bit-identically (infinities
/// included).
pub fn emit_f64(v: f64) -> String {
    let mut out = String::with_capacity(16);
    staged(&mut out, |s| {
        s.hex16("", v.to_bits());
    });
    out
}

/// Parses [`emit_f64`] output back to the identical `f64`.
pub fn parse_f64(s: &str) -> Result<f64, WireError> {
    parse_all(s, |c| c.f64(""))
}

/// Parses a whole canonical decimal (no sign, no leading zero, fits a
/// `u64`) with the reader of every record's numbers.
pub fn parse_dec(s: &str) -> Result<u64, WireError> {
    parse_all(s, |c| c.dec(""))
}

/// The one reader of canonical text: a byte cursor that walks a record
/// once, in its writer's field order, and accepts **only** the writer's
/// spelling (so `emit(parse(t)) == t` for every accepted `t`). A key is
/// passed with its separator and colon (`";occ:"`): one prefix compare,
/// of a constant, since every primitive is inlined where it is called.
struct Cursor<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    #[inline(always)]
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.at..]
    }

    #[cold]
    fn bad(&self, what: &str, key: &str) -> WireError {
        let key = key.trim_matches(|c: char| c.is_ascii_punctuation() && c != '_');
        WireError::new(format!("{what} `{key}` at byte {}", self.at))
    }

    /// Consumes the literal `key`. An empty one is not compared: `bcmp`
    /// handed its dangling pointer took ~100 ns (glibc 2.36, AVX-512).
    #[inline(always)]
    fn key(&mut self, key: &str) -> Result<(), WireError> {
        if !key.is_empty() && !self.rest().starts_with(key.as_bytes()) {
            return Err(self.bad("missing field", key));
        }
        self.at += key.len();
        Ok(())
    }

    /// A canonical decimal that fits `T`: at least one digit, no sign
    /// and no leading zero.
    #[inline(always)]
    fn dec<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, WireError> {
        self.key(key)?;
        let rest = self.rest();
        let (mut v, mut digits) = (Some(0u64), 0);
        while let Some(d) = rest.get(digits).map(|b| b.wrapping_sub(b'0')).filter(|d| *d < 10) {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d)));
            digits += 1;
        }
        let canonical = digits == 1 || (digits > 1 && rest[0] != b'0');
        self.at += digits;
        let v = v.filter(|_| canonical).and_then(|v| T::try_from(v).ok());
        v.ok_or_else(|| self.bad("bad numeric field", key))
    }

    /// Exactly 16 lowercase hex digits, read eight to a word.
    #[inline(always)]
    fn hex16(&mut self, key: &str) -> Result<u64, WireError> {
        self.key(key)?;
        let word = |at: usize| read_hex8(self.rest().get(at..at + 8)?.try_into().ok()?);
        let (Some(high), Some(low)) = (word(0), word(8)) else {
            return Err(self.bad("bad hex field", key));
        };
        self.at += 16;
        Ok((u64::from(high) << 32) | u64::from(low))
    }

    #[inline(always)]
    fn f64(&mut self, key: &str) -> Result<f64, WireError> {
        self.hex16(key).map(f64::from_bits)
    }

    #[inline(always)]
    fn bit(&mut self, key: &str) -> Result<bool, WireError> {
        match self.dec::<u8>(key)? {
            bit @ 0..=1 => Ok(bit == 1),
            _ => Err(self.bad("bad bool field", key)),
        }
    }

    /// The value whose spelling in `names` is the next word.
    #[inline(always)]
    fn name<T: Copy>(&mut self, key: &str, names: &[(T, &'static str)]) -> Result<T, WireError> {
        let word = self.word(key)?;
        let found = names.iter().find(|(_, name)| *name == word);
        found.map(|(v, _)| *v).ok_or_else(|| self.bad("unknown value of", key))
    }

    /// Free text up to the next `;` (or the end).
    #[inline(always)]
    fn word(&mut self, key: &str) -> Result<&'a str, WireError> {
        self.key(key)?;
        let rest = &self.text[self.at..];
        let word = &rest[..rest.find(';').unwrap_or(rest.len())];
        self.at += word.len();
        Ok(word)
    }
}

/// Reads all of `text` as one record: `read` must consume every byte.
fn parse_all<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut cursor = Cursor { text, at: 0 };
    let value = read(&mut cursor)?;
    if cursor.at != text.len() {
        return Err(WireError::new(format!("trailing bytes after byte {}", cursor.at)));
    }
    Ok(value)
}

/// The spelling of `v` in its vocabulary's table — one table per closed
/// vocabulary, read by the writer and the reader alike, so the two
/// cannot disagree on a name.
fn spell<T: PartialEq>(names: &[(T, &'static str)], v: T) -> &'static str {
    names.iter().find(|(known, _)| *known == v).expect("every variant is in its table").1
}

const FAMILIES: [(Family, &str); 4] = [
    (Family::Fermi, "fermi"),
    (Family::Kepler, "kepler"),
    (Family::Maxwell, "maxwell"),
    (Family::Pascal, "pascal"),
];

// ---------------------------------------------------------------------------
// GpuSpec
// ---------------------------------------------------------------------------

/// Appends the canonical serialization of a [`GpuSpec`]: every field,
/// fixed order, so two specs serialize equal iff they are structurally
/// equal — the same contract the in-memory store keys rely on.
fn stage_gpu_spec(s: &mut Stage<'_>, g: &GpuSpec) {
    s.text("name:").text(g.name);
    s.text(";family:").text(spell(&FAMILIES, g.family));
    s.dec(";cc:", g.compute_capability.major)
        .dec(".", g.compute_capability.minor)
        .dec(";gmem:", g.global_mem_mib)
        .dec(";mp:", g.multiprocessors)
        .dec(";cores:", g.cores_per_mp)
        .dec(";clk:", g.gpu_clock_mhz)
        .dec(";mclk:", g.mem_clock_mhz)
        .dec(";l2:", g.l2_cache_bytes)
        .dec(";cmem:", g.const_mem_bytes)
        .dec(";smb:", g.shmem_per_block)
        .dec(";smmp:", g.shmem_per_mp)
        .dec(";rf:", g.regfile_per_mp)
        .dec(";ws:", g.warp_size)
        .dec(";tmp:", g.threads_per_mp)
        .dec(";tpb:", g.threads_per_block)
        .dec(";bmp:", g.blocks_per_mp)
        .dec(";tpw:", g.threads_per_warp)
        .dec(";wmp:", g.warps_per_mp)
        .dec(";rau:", g.reg_alloc_unit)
        .dec(";rtmax:", g.regs_per_thread_max);
}

/// `stage_gpu_spec` into a fresh string.
pub fn emit_gpu_spec(g: &GpuSpec) -> String {
    let mut out = String::with_capacity(256);
    staged(&mut out, |s| stage_gpu_spec(s, g));
    out
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
    parse_all(text, |c| {
        Ok(GpuSpec {
            name: intern_gpu_name(c.word("name:")?),
            family: c.name(";family:", &FAMILIES)?,
            compute_capability: ComputeCapability::new(c.dec(";cc:")?, c.dec(".")?),
            global_mem_mib: c.dec(";gmem:")?,
            multiprocessors: c.dec(";mp:")?,
            cores_per_mp: c.dec(";cores:")?,
            gpu_clock_mhz: c.dec(";clk:")?,
            mem_clock_mhz: c.dec(";mclk:")?,
            l2_cache_bytes: c.dec(";l2:")?,
            const_mem_bytes: c.dec(";cmem:")?,
            shmem_per_block: c.dec(";smb:")?,
            shmem_per_mp: c.dec(";smmp:")?,
            regfile_per_mp: c.dec(";rf:")?,
            warp_size: c.dec(";ws:")?,
            threads_per_mp: c.dec(";tmp:")?,
            threads_per_block: c.dec(";tpb:")?,
            blocks_per_mp: c.dec(";bmp:")?,
            threads_per_warp: c.dec(";tpw:")?,
            warps_per_mp: c.dec(";wmp:")?,
            reg_alloc_unit: c.dec(";rau:")?,
            regs_per_thread_max: c.dec(";rtmax:")?,
        })
    })
}

// ---------------------------------------------------------------------------
// EvalProtocol
// ---------------------------------------------------------------------------

const TRIAL_PROTOCOLS: [(TrialProtocol, &str); 3] = [
    (TrialProtocol::FifthOfTen, "fifth-of-ten"),
    (TrialProtocol::Median, "median"),
    (TrialProtocol::Min, "min"),
];

const OBJECTIVES: [(Objective, &str); 2] =
    [(Objective::TotalTime, "total-time"), (Objective::LargestSize, "largest-size")];

/// Appends the canonical serialization of an [`EvalProtocol`] —
/// including the [`ModelId`], so tiers taken under different timing
/// backends can never share a disk artifact.
fn stage_protocol(s: &mut Stage<'_>, p: &EvalProtocol) {
    s.dec("trials:", p.trials).text(";select:").text(spell(&TRIAL_PROTOCOLS, p.protocol));
    s.hex16(";seed:", p.base_seed).text(";objective:").text(spell(&OBJECTIVES, p.objective));
    s.text(";model:").text(p.model.name());
}

/// `stage_protocol` into a fresh string.
pub fn emit_protocol(p: &EvalProtocol) -> String {
    let mut out = String::with_capacity(96);
    staged(&mut out, |s| stage_protocol(s, p));
    out
}

/// Parses [`emit_protocol`] output.
pub fn parse_protocol(text: &str) -> Result<EvalProtocol, WireError> {
    parse_all(text, |c| {
        Ok(EvalProtocol {
            trials: c.dec("trials:")?,
            protocol: c.name(";select:", &TRIAL_PROTOCOLS)?,
            base_seed: c.hex16(";seed:")?,
            objective: c.name(";objective:", &OBJECTIVES)?,
            model: c.name(";model:", &ModelId::ALL.map(|m| (m, m.name())))?,
        })
    })
}

// ---------------------------------------------------------------------------
// TuningParams
// ---------------------------------------------------------------------------

/// Appends the canonical serialization of a tuning point
/// (comma-separated so it can nest inside semicolon-separated records).
pub fn write_params(out: &mut String, p: &TuningParams) {
    staged(out, |s| stage_params(s, p));
}

fn stage_params(s: &mut Stage<'_>, p: &TuningParams) {
    s.dec("tc:", p.tc)
        .dec(",bc:", p.bc)
        .dec(",uif:", p.uif)
        .dec(",pl:", p.pl.kb())
        .dec(",sc:", p.sc)
        .dec(",fm:", p.cflags.fast_math);
}

fn read_params(c: &mut Cursor<'_>) -> Result<TuningParams, WireError> {
    Ok(TuningParams {
        tc: c.dec("tc:")?,
        bc: c.dec(",bc:")?,
        uif: c.dec(",uif:")?,
        pl: PreferredL1::from_kb(c.dec(",pl:")?).ok_or_else(|| c.bad("bad value of", "pl"))?,
        sc: c.dec(",sc:")?,
        cflags: CompilerFlags { fast_math: c.bit(",fm:")? },
    })
}

/// Parses [`write_params`] output.
pub fn parse_params(text: &str) -> Result<TuningParams, WireError> {
    parse_all(text, read_params)
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Appends each of `ms` as `head` followed by the canonical
/// serialization of that [`Measurement`] — the record body of a tier
/// file line (`"r "`) and of an `evaluate` answer (`"\nm "`) — into room
/// reserved once, for their longest spelling. All floats are bit-exact;
/// an infeasible measurement round-trips with its infinite objective and
/// empty per-size list.
pub fn write_measurements<'a, I>(out: &mut String, head: &str, ms: I)
where
    I: IntoIterator<Item = &'a Measurement>,
    I::IntoIter: Clone,
{
    let ms = ms.into_iter();
    out.reserve(ms.clone().map(|m| head.len() + 184 + 40 * m.per_size_ms.len()).sum());
    staged(out, |s| {
        for m in ms {
            s.text(head).text("params:");
            stage_params(s, &m.params);
            s.hex16(";time:", m.time_ms.to_bits())
                .dec(";feasible:", m.feasible)
                .hex16(";occ:", m.occupancy.to_bits())
                .dec(";regs:", m.regs_allocated)
                .hex16(";reginstr:", m.reg_instructions.to_bits())
                .text(";sizes:");
            for (i, (n, t)) in m.per_size_ms.iter().enumerate() {
                s.dec(if i == 0 { "" } else { "," }, *n).hex16("@", t.to_bits());
            }
        }
    });
}

/// One [`Measurement`]'s record into a fresh string.
pub fn emit_measurement(m: &Measurement) -> String {
    let mut out = String::new();
    write_measurements(&mut out, "", [m]);
    out
}

/// Parses [`emit_measurement`] output back into the bit-identical
/// [`Measurement`].
pub fn parse_measurement(text: &str) -> Result<Measurement, WireError> {
    parse_all(text, |c| {
        c.key("params:")?;
        let mut m = Measurement {
            params: read_params(c)?,
            time_ms: c.f64(";time:")?,
            per_size_ms: Vec::new(),
            feasible: c.bit(";feasible:")?,
            occupancy: c.f64(";occ:")?,
            regs_allocated: c.dec(";regs:")?,
            reg_instructions: c.f64(";reginstr:")?,
        };
        c.key(";sizes:")?;
        m.per_size_ms.reserve_exact(c.rest().iter().filter(|&&b| b == b'@').count());
        while !c.rest().is_empty() {
            let n = c.dec(if m.per_size_ms.is_empty() { "" } else { "," })?;
            m.per_size_ms.push((n, c.f64("@")?));
        }
        Ok(m)
    })
}

// ---------------------------------------------------------------------------
// SimReport
// ---------------------------------------------------------------------------

const BOUNDS: [(BoundKind, &str); 3] = [
    (BoundKind::Issue, "issue"),
    (BoundKind::Latency, "latency"),
    (BoundKind::Bandwidth, "bandwidth"),
];

const LIMITERS: [(Limiter, &str); 4] = [
    (Limiter::Warps, "warps"),
    (Limiter::Registers, "registers"),
    (Limiter::SharedMem, "sharedmem"),
    (Limiter::Illegal, "illegal"),
];

/// Appends the canonical serialization of a [`SimReport`] (occupancy
/// details and warp profile included) — the `simulate` answer's record.
fn stage_sim_report(s: &mut Stage<'_>, r: &SimReport) {
    s.hex16("time:", r.time_ms.to_bits()).text(";bound:").text(spell(&BOUNDS, r.bound));
    s.dec(";ab:", r.occupancy.active_blocks)
        .dec(";aw:", r.occupancy.active_warps)
        .hex16(";occf:", r.occupancy.occupancy.to_bits())
        .text(";lim:")
        .text(spell(&LIMITERS, r.occupancy.limiter));
    s.dec(";bwarps:", r.occupancy.blocks_by_warps)
        .dec(";bregs:", r.occupancy.blocks_by_regs)
        .dec(";bsmem:", r.occupancy.blocks_by_smem)
        .dec(";wlregs:", r.occupancy.warp_limit_by_regs)
        .dec(";busyb:", r.busy_blocks)
        .dec(";busysm:", r.busy_sms)
        .dec(";reswarps:", r.resident_warps)
        .dec(";waves:", r.waves)
        .hex16(";cycles:", r.cycles.to_bits())
        .hex16(";p_issue:", r.profile.issue_cycles.to_bits())
        .hex16(";p_mem:", r.profile.mem_ops.to_bits())
        .hex16(";p_lat:", r.profile.latency_weighted.to_bits())
        .hex16(";p_dram:", r.profile.dram_transactions.to_bits())
        .hex16(";p_bar:", r.profile.barriers.to_bits())
        .hex16(";p_div:", r.profile.divergent_branches.to_bits());
}

/// `stage_sim_report` into a fresh string.
pub fn emit_sim_report(r: &SimReport) -> String {
    let mut out = String::with_capacity(448);
    staged(&mut out, |s| stage_sim_report(s, r));
    out
}

/// Parses [`emit_sim_report`] output back into the bit-identical
/// [`SimReport`].
pub fn parse_sim_report(text: &str) -> Result<SimReport, WireError> {
    parse_all(text, |c| {
        Ok(SimReport {
            time_ms: c.f64("time:")?,
            bound: c.name(";bound:", &BOUNDS)?,
            occupancy: Occupancy {
                active_blocks: c.dec(";ab:")?,
                active_warps: c.dec(";aw:")?,
                occupancy: c.f64(";occf:")?,
                limiter: c.name(";lim:", &LIMITERS)?,
                blocks_by_warps: c.dec(";bwarps:")?,
                blocks_by_regs: c.dec(";bregs:")?,
                blocks_by_smem: c.dec(";bsmem:")?,
                warp_limit_by_regs: c.dec(";wlregs:")?,
            },
            busy_blocks: c.dec(";busyb:")?,
            busy_sms: c.dec(";busysm:")?,
            resident_warps: c.dec(";reswarps:")?,
            waves: c.dec(";waves:")?,
            cycles: c.f64(";cycles:")?,
            profile: WarpProfile {
                issue_cycles: c.f64(";p_issue:")?,
                mem_ops: c.f64(";p_mem:")?,
                latency_weighted: c.f64(";p_lat:")?,
                dram_transactions: c.f64(";p_dram:")?,
                barriers: c.f64(";p_bar:")?,
                divergent_branches: c.f64(";p_div:")?,
            },
        })
    })
}

// ---------------------------------------------------------------------------
// Scopes and tier files
// ---------------------------------------------------------------------------

/// The canonical text of a measurement-tier scope — the
/// `(kernel, gpu, sizes, protocol)` key as four `key=value` lines. Two
/// scopes share a disk artifact iff their scope texts are byte-equal.
pub fn scope_text(kernel: &str, gpu: &GpuSpec, sizes: &[u64], protocol: &EvalProtocol) -> String {
    let mut out = String::with_capacity(384 + kernel.len() + 21 * sizes.len());
    staged(&mut out, |s| {
        s.text("kernel=").text(kernel).text("\ngpu=");
        stage_gpu_spec(s, gpu);
        s.text("\nsizes=");
        for (i, n) in sizes.iter().enumerate() {
            s.dec(if i == 0 { "" } else { "," }, *n);
        }
        s.text("\nprotocol=");
        stage_protocol(s, protocol);
    });
    out
}

/// Content-addressed file name of a tier: `meas-<fnv64(scope)>.orl`. The
/// scope is also embedded (and verified) in the file header, so the name
/// is a fast index, never the trust anchor.
pub fn tier_file_name(scope: &str) -> String {
    let mut name = String::with_capacity(25);
    staged(&mut name, |s| {
        s.hex16("meas-", checksum(scope.as_bytes())).text(".").text(EXT);
    });
    name
}

fn header_text(scope: &str) -> String {
    let mut out = String::with_capacity(scope.len() + 160);
    out.push_str(MAGIC);
    out.push('\n');
    for line in scope.lines().chain(["end"]) {
        let from = out.len();
        out.push_str("h ");
        out.push_str(line);
        push_seal(&mut out, from);
        out.push('\n');
    }
    out
}

/// Appends one record line: written, sealed and terminated in `out`.
fn write_record_line(out: &mut String, m: &Measurement) {
    let from = out.len();
    write_measurements(out, "r ", [m]);
    push_seal(out, from);
    out.push('\n');
}

/// Outcome of reading one tier file.
enum TierRead {
    /// No file at the path.
    Absent,
    /// The file announces a different format version.
    VersionSkew,
    /// The header is damaged beyond use.
    Corrupt,
    /// Header verified; `records` holds every valid record line in file
    /// order (a point appended twice is there twice) and `rejected`
    /// counts the lines that failed their checksum or parse and were
    /// dropped (their points will be recomputed, never trusted).
    Usable { scope: String, records: Vec<Arc<Measurement>>, rejected: u64 },
}

/// Reads the next line of `file` into `line` and returns it without its
/// terminator (`\n` or `\r\n`, as `str::lines` has it); `None` at the
/// end of the file. A line that is not UTF-8 reads as empty: it carries
/// no seal, so it is refused like any other damaged line.
fn next_line<'l>(
    file: &mut impl BufRead,
    line: &'l mut Vec<u8>,
) -> std::io::Result<Option<&'l str>> {
    line.clear();
    if file.read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    Ok(Some(std::str::from_utf8(line).unwrap_or("")))
}

/// One pass over the file, on the calling thread: magic, header, then
/// the records. Bad record lines are rejected, good ones kept.
fn read_tier(path: &Path) -> TierRead {
    let mut file = match File::open(path) {
        Ok(file) => BufReader::new(file),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return TierRead::Absent,
        Err(_) => return TierRead::Corrupt,
    };
    let mut line = Vec::new();
    match next_line(&mut file, &mut line) {
        Ok(Some(MAGIC)) => {}
        Ok(Some(first)) if first.starts_with("oriole-meas ") => return TierRead::VersionSkew,
        _ => return TierRead::Corrupt,
    }
    // Header: sealed `h <scope line>` lines closed by `h end`.
    let mut scope = String::new();
    loop {
        let Ok(Some(text)) = next_line(&mut file, &mut line) else { return TierRead::Corrupt };
        let Some(rest) = unseal(text).and_then(|body| body.strip_prefix("h ")) else {
            return TierRead::Corrupt;
        };
        if rest == "end" {
            break;
        }
        if !scope.is_empty() {
            scope.push('\n');
        }
        scope.push_str(rest);
    }
    let mut records = Vec::new();
    let mut rejected = 0u64;
    loop {
        let text = match next_line(&mut file, &mut line) {
            Ok(Some(text)) => text,
            Ok(None) => return TierRead::Usable { scope, records, rejected },
            Err(_) => return TierRead::Corrupt,
        };
        let body = unseal(text).and_then(|body| body.strip_prefix("r "));
        match body.and_then(|body| parse_measurement(body).ok()) {
            Some(m) => records.push(Arc::new(m)),
            None => rejected += 1,
        }
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
        let mut line = String::new();
        write_record_line(&mut line, m);
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

/// Opens (or creates) the tier file for `scope` under `dir`: a tier
/// seeded with every valid record, spilling new computations in append
/// mode (memory-only when the directory is not writable). Corrupt or
/// version-skewed files are detected, counted, and **rewritten fresh**
/// — their contents are never trusted; a scope-mismatched file (a
/// filename-hash collision) is left untouched and the tier runs
/// memory-only.
pub(crate) fn open_tier(dir: &Path, scope: &str, counters: &Arc<DiskCounters>) -> MeasTier {
    let path = dir.join(tier_file_name(scope));
    let (records, rewrite) = match read_tier(&path) {
        TierRead::Absent => {
            counters.tier_misses.fetch_add(1, Ordering::Relaxed);
            (Vec::new(), true)
        }
        TierRead::VersionSkew | TierRead::Corrupt => {
            counters.tier_misses.fetch_add(1, Ordering::Relaxed);
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            (Vec::new(), true)
        }
        TierRead::Usable { scope: found, records, rejected } => {
            if found == scope {
                counters.tier_hits.fetch_add(1, Ordering::Relaxed);
                counters.rejected.fetch_add(rejected, Ordering::Relaxed);
                (records, false)
            } else {
                // Filename collision with another experiment's scope:
                // never serve it, and never overwrite it either.
                counters.tier_misses.fetch_add(1, Ordering::Relaxed);
                return MeasTier::new();
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
    // Distinct points are counted where the tier's insert tells them
    // from re-appended duplicates.
    let tier = MeasTier::assemble(records, spill);
    counters.loaded.fetch_add(tier.disk_loaded() as u64, Ordering::Relaxed);
    tier
}

// ---------------------------------------------------------------------------
// Length-framed transport
// ---------------------------------------------------------------------------

/// Magic bytes opening every wire frame (`ORL4` — "oriole frame",
/// protocol v4 on).
const FRAME_MAGIC: [u8; 4] = *b"ORL4";

/// Fixed size of the frame header preceding every payload:
/// `ORL4 | len: u32 BE | crc: u64 BE | corr: u64 BE`.
pub const FRAME_HEADER_BYTES: usize = 24;

/// Upper bound on a single frame's payload. A full 5,120-point evaluate
/// batch with per-size records is well under 2 MiB; anything near this
/// bound is a corrupted length field, not a legitimate payload.
const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Why [`decode_frame`] refused the bytes in front of it. Every variant
/// is final: framing offers no resynchronization.
#[derive(Debug)]
pub enum FrameError {
    /// The stream did not start with `FRAME_MAGIC` — not speaking
    /// this protocol, or desynchronized beyond recovery.
    BadMagic([u8; 4]),
    /// The stream started with the `ORLF` magic of protocol v3 and
    /// older. Deterministic: retrying meets the same old peer.
    VersionSkew,
    /// The announced length exceeds `MAX_FRAME_BYTES`.
    TooLarge(u32),
    /// The payload (or its correlation id, or its length) failed
    /// `frame_checksum`: corrupted in flight.
    BadChecksum,
    /// The payload is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::VersionSkew => {
                write!(f, "version skew: peer frames `ORLF` (oriole-rpc v3), this build `ORL4` (v4)")
            }
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte bound")
            }
            FrameError::BadChecksum => write!(f, "frame payload failed its checksum"),
            FrameError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The frame checksum: a word-at-a-time 64-bit mix of the payload, the
/// correlation id and the payload length — one multiply per eight
/// bytes, four lanes side by side, where FNV-1a spends one per byte.
///
/// Little-endian words go four to a 32-byte block, each into its own
/// lane; a short last block is zero-padded, which the mixed-in length
/// keeps unambiguous. Every step is invertible in the lane and in the
/// word, and so are the folds of id and length and the `fmix64`
/// finaliser: damage confined to one payload word, to the id or to the
/// length **always** changes the checksum — every single-bit flip is
/// caught, and a frame never reaches the owner of a mangled id. Wider
/// damage (moved words or blocks, bytes added or lost) is caught at
/// 2^-64 odds. Not cryptographic, and not a storage format: lines and
/// file names keep FNV-1a ([`checksum`]), whose bytes tier files pin.
fn frame_checksum(corr: u64, payload: &[u8]) -> u64 {
    // The xxHash64 primes: odd, so multiplying by one is invertible.
    const PRIMES: [u64; 4] =
        [0x9e3779b185ebca87, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x85ebca77c2b2ae63];
    fn mix(lanes: &mut [u64; 4], block: &[u8]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = block[8 * i..8 * i + 8].try_into().expect("8-byte word");
            let mixed = (*lane ^ u64::from_le_bytes(word)).wrapping_mul(PRIMES[i]);
            // A bare multiply never moves a bit downwards: fold the
            // high half back so no two-bit error cancels across blocks.
            *lane = mixed ^ (mixed >> 32);
        }
    }
    let mut lanes = PRIMES;
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        mix(&mut lanes, block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        mix(&mut lanes, &padded);
    }
    let sum = |h: u64, (lane, turn): (u64, u32)| h.wrapping_add(lane.rotate_left(turn));
    let mut h = lanes.into_iter().zip([1, 7, 12, 18]).fold(0, sum);
    h = (h ^ corr).wrapping_mul(PRIMES[0]);
    h = (h.rotate_left(31) ^ payload.len() as u64).wrapping_mul(PRIMES[1]);
    for odd in [0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53] {
        h = (h ^ (h >> 33)).wrapping_mul(odd);
    }
    h ^ (h >> 33)
}

/// Builds one complete frame in a single buffer: the header's bytes are
/// reserved, `fill` appends the payload text behind them (and leaves
/// them alone), then `ORL4 | len: u32 BE | frame_checksum: u64 BE |
/// corr: u64 BE` is back-filled. `InvalidInput` when the payload
/// exceeds `MAX_FRAME_BYTES`: no peer would accept it.
pub fn encode_frame(corr: u64, fill: impl FnOnce(&mut String)) -> std::io::Result<Vec<u8>> {
    // Room for any control payload; a big one reserves for itself.
    let mut text = String::with_capacity(256);
    text.extend(std::iter::repeat_n('\0', FRAME_HEADER_BYTES));
    fill(&mut text);
    let mut frame = text.into_bytes();
    let len = frame.len().checked_sub(FRAME_HEADER_BYTES).and_then(|n| u32::try_from(n).ok());
    let Some(len) = len.filter(|&n| n <= MAX_FRAME_BYTES) else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame payload exceeds the {MAX_FRAME_BYTES}-byte bound"),
        ));
    };
    let crc = frame_checksum(corr, &frame[FRAME_HEADER_BYTES..]);
    frame[..4].copy_from_slice(&FRAME_MAGIC);
    frame[4..8].copy_from_slice(&len.to_be_bytes());
    frame[8..16].copy_from_slice(&crc.to_be_bytes());
    frame[16..24].copy_from_slice(&corr.to_be_bytes());
    Ok(frame)
}

/// Writes `payload` as one [`encode_frame`] frame tagged `corr`. The id
/// lets one connection carry many requests in flight: a peer echoes it
/// back, so responses can arrive out of order (a connection with one
/// request in flight at most tags with 0). The single `write_all` keeps
/// frames contiguous even when several threads share one stream behind
/// a mutex.
pub fn write_frame_tagged(
    w: &mut impl std::io::Write,
    corr: u64,
    payload: &str,
) -> std::io::Result<()> {
    w.write_all(&encode_frame(corr, |out| out.push_str(payload))?)?;
    w.flush()
}

/// The one frame decoder, run by both ends of the wire: the daemon's
/// reactor and the client's `Pipeline` each keep the bytes they have
/// received but not yet used, and ask this for the frame in front.
/// `Ok(Some((corr, payload, consumed)))` when a complete verified frame
/// is present (the caller drains `consumed` bytes), `Ok(None)` when more
/// bytes are needed, and `Err` as soon as what is there cannot begin a
/// frame: bad magic on the first divergent byte, then the length bound,
/// then the checksum. A length is judged, never allocated for: the
/// caller's buffer grows only by what arrives.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(u64, String, usize)>, FrameError> {
    let have = buf.len().min(4);
    if buf[..have] != FRAME_MAGIC[..have] {
        let mut magic = [0u8; 4];
        magic[..have].copy_from_slice(&buf[..have]);
        // The retired FNV-1a frame of protocol v3 is named, not decoded.
        return Err(match &magic {
            b"ORLF" => FrameError::VersionSkew,
            _ => FrameError::BadMagic(magic),
        });
    }
    let Some(len) = buf.get(4..8) else { return Ok(None) };
    let len = u32::from_be_bytes(len.try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let Some(head) = buf.get(8..FRAME_HEADER_BYTES) else { return Ok(None) };
    let crc = u64::from_be_bytes(head[..8].try_into().expect("8 bytes"));
    let corr = u64::from_be_bytes(head[8..].try_into().expect("8 bytes"));
    let total = FRAME_HEADER_BYTES + len as usize;
    let Some(payload) = buf.get(FRAME_HEADER_BYTES..total) else { return Ok(None) };
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
            TierRead::Usable { scope, records, rejected } => {
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
                    // What a tier opened on this file would load.
                    records: MeasTier::assemble(records, None).disk_loaded(),
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
            TierRead::Usable { scope, mut records, rejected } => {
                if rejected == 0 {
                    continue;
                }
                // Full parameter tuple in the sort key: compacted files
                // are byte-deterministic, one record per point (the
                // sort is stable: the first in file order).
                records.sort_by_key(|m| {
                    let p = m.params;
                    (p.tc, p.bc, p.uif, p.pl.kb(), p.sc, p.cflags.fast_math)
                });
                records.dedup_by_key(|m| m.params);
                let mut content = header_text(&scope);
                for m in &records {
                    write_record_line(&mut content, m);
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
    fn every_byte_at_every_hex_digit_position() {
        // The word reader sees every byte, UTF-8 or not; a field in a
        // text is read by it too.
        let base = *b"0123456789abcdef";
        for at in 0..16 {
            for byte in 0..=u8::MAX {
                let mut digits = base;
                digits[at] = byte;
                let nibble = match byte {
                    b'0'..=b'9' => Some(byte - b'0'),
                    b'a'..=b'f' => Some(byte - b'a' + 10),
                    _ => None,
                };
                let shift = 60 - 4 * at;
                let want = nibble
                    .map(|n| (0x0123_4567_89ab_cdef & !(0xf << shift)) | (u64::from(n) << shift));
                let word = |from: usize| read_hex8(digits[from..from + 8].try_into().unwrap());
                let read = word(0).zip(word(8)).map(|(h, l)| (u64::from(h) << 32) | u64::from(l));
                assert_eq!(read, want, "byte {byte:#04x} at digit {at}");
                if let Ok(text) = std::str::from_utf8(&digits) {
                    assert_eq!(parse_f64(text).ok().map(f64::to_bits), want, "{text:?}");
                }
            }
        }
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
        let mut text = String::new();
        write_params(&mut text, &p);
        assert_eq!(parse_params(&text).unwrap(), p);
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

    /// The measurements a tier holds, by thread count.
    fn held(tier: &MeasTier) -> Vec<Measurement> {
        let mut held = Vec::new();
        tier.map.for_each(|_, m| held.push(Measurement::clone(m)));
        held.sort_by_key(|m| m.params.tc);
        held
    }

    #[test]
    fn open_tier_writes_loads_and_survives_reopen() {
        let dir = temp_dir("open");
        let scope = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let counters = Arc::new(DiskCounters::default());

        let opened = open_tier(&dir, &scope, &counters);
        assert!(held(&opened).is_empty());
        let spill = opened.spill.expect("writable dir");
        let m = sample_measurement();
        spill.append(&m);
        assert_eq!(spill.written(), 1);

        let counters2 = Arc::new(DiskCounters::default());
        let reopened = open_tier(&dir, &scope, &counters2);
        assert_eq!(held(&reopened), vec![m]);
        let stats = counters2.snapshot();
        assert_eq!(stats.tier_hits, 1);
        assert_eq!(stats.measurements_loaded, 1);
        assert_eq!(stats.rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn big_tiers_load_past_a_flipped_line_and_a_duplicate() {
        // Many buffers' worth of records, with a flipped byte and a
        // re-appended duplicate deep in the file.
        let dir = temp_dir("big");
        let scope = scope_text("atax", Gpu::K20.spec(), &[64], &EvalProtocol::default());
        let counters = Arc::new(DiskCounters::default());
        let spill = open_tier(&dir, &scope, &counters).spill.expect("writable dir");
        let mut written: Vec<Measurement> = (0..512u32)
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
        let lost = written.remove(384);
        let content = std::fs::read_to_string(&path).unwrap();
        let needle = format!("r params:tc:{},", lost.params.tc);
        assert!(content.contains(&needle));
        std::fs::write(&path, content.replacen(&needle, "r params:tc:1,", 1)).unwrap();

        let counters = Arc::new(DiskCounters::default());
        assert_eq!(held(&open_tier(&dir, &scope, &counters)), written);
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
        assert!(held(&opened).is_empty());
        assert_eq!(counters.snapshot().rejected, 1);
        opened.spill.unwrap().append(&sample_measurement());

        // Version skew → rejected wholesale even though records parse.
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replacen(MAGIC, "oriole-meas v99", 1)).unwrap();
        let counters2 = Arc::new(DiskCounters::default());
        let opened = open_tier(&dir, &scope, &counters2);
        assert!(held(&opened).is_empty());
        let s = counters2.snapshot();
        assert_eq!((s.tier_hits, s.tier_misses, s.rejected), (0, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_byte_that_is_not_utf8_costs_its_line_not_the_file() {
        // 600 records from a real sweep, then one byte of one record set
        // to 0xFF: the file is no longer UTF-8 as a whole, every line
        // but one still is.
        let dir = temp_dir("utf8");
        let space = crate::SearchSpace {
            tc: (1..=30).map(|i| i * 32).collect(),
            bc: (1..=5).map(|i| i * 24).collect(),
            uif: vec![1, 2],
            cflags: vec![CompilerFlags { fast_math: false }],
            ..crate::SearchSpace::paper_default()
        };
        assert_eq!(space.len(), 600);
        let builder = |n: u64| KernelId::Atax.ast(n);
        let (gpu, sizes) = (Gpu::K20.spec(), [64u64]);
        let store = crate::ArtifactStore::with_disk(&dir).unwrap();
        let cold = store.evaluator("atax", &builder, gpu, &sizes).evaluate_space(&space);
        drop(store);
        let path = tier_files(&dir).unwrap().pop().expect("one tier file");
        let mut damaged = std::fs::read(&path).unwrap();
        let at = damaged.len() / 2;
        damaged[at] = 0xFF;
        std::fs::write(&path, &damaged).unwrap();
        assert!(std::str::from_utf8(&damaged).is_err());
        let copy = temp_dir("utf8-gc");
        std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();

        // Reopened: 599 points served, the file kept and appended to,
        // the lost point recomputed and re-appended by the next sweep.
        let store = crate::ArtifactStore::with_disk(&dir).unwrap();
        let ev = store.evaluator("atax", &builder, gpu, &sizes);
        let disk = store.stats().disk.unwrap();
        assert_eq!((disk.tier_hits, disk.measurements_loaded, disk.rejected), (1, 599, 1));
        assert_eq!(ev.evaluate_space(&space), cold);
        assert_eq!(ev.unique_evaluations(), 1);
        assert_eq!(store.stats().disk.unwrap().measurements_written, 1);
        let appended = std::fs::read(&path).unwrap();
        assert!(appended.len() > damaged.len() && appended.starts_with(&damaged));
        let store = crate::ArtifactStore::with_disk(&dir).unwrap();
        let ev = store.evaluator("atax", &builder, gpu, &sizes);
        assert_eq!((ev.evaluate_space(&space), ev.unique_evaluations()), (cold, 0));

        // Maintenance agrees: a usable file with one bad line, compacted
        // (not removed) by gc, after which nothing is rejected.
        let usable = |dir: &Path, want: (usize, u64)| match &scan_store(dir).unwrap()[..] {
            [FileReport { status: FileStatus::Usable { records, rejected, .. }, .. }] => {
                assert_eq!((*records, *rejected), want)
            }
            other => panic!("{other:?}"),
        };
        usable(&copy, (599, 1));
        let gc = gc_store(&copy).unwrap();
        assert_eq!((gc.removed_files, gc.compacted_files, gc.dropped_records), (0, 1, 1));
        usable(&copy, (599, 0));
        let counters = Arc::new(DiskCounters::default());
        let scope = scope_text("atax", gpu, &sizes, &EvalProtocol::default());
        assert_eq!(held(&open_tier(&copy, &scope, &counters)).len(), 599);
        let reopened = counters.snapshot();
        assert_eq!((reopened.measurements_loaded, reopened.rejected), (599, 0));
        for dir in [dir, copy] {
            let _ = std::fs::remove_dir_all(&dir);
        }
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
        assert!(held(&opened).is_empty(), "foreign scope must not be served");
        assert!(opened.spill.is_none(), "foreign scope must not be overwritten");
        let planted = std::fs::read_to_string(dir.join(tier_file_name(&scope_b))).unwrap();
        assert!(planted.contains("kernel=atax"), "planted file untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_round_trip_with_their_correlation_ids() {
        let record = format!("oriole-rpc v1 evaluate\nm {}", emit_measurement(&sample_measurement()));
        // A payload several socket reads long arrives whole too.
        let big = "0123456789abcdef".repeat(12_289);
        let sent = [(0, record.as_str()), (7, "first"), (u64::MAX, big.as_str()), (0, "untagged")];
        let mut buf = Vec::new();
        for (corr, payload) in sent {
            write_frame_tagged(&mut buf, corr, payload).unwrap();
        }
        let mut rest = &buf[..];
        for (corr, payload) in sent {
            let (got, text, used) = decode_frame(rest).unwrap().expect("a whole frame");
            let whole = FRAME_HEADER_BYTES + payload.len();
            assert_eq!((got, text.as_str(), used), (corr, payload, whole));
            rest = &rest[used..];
        }
        assert!(matches!(decode_frame(rest), Ok(None)), "nothing left is an incomplete frame");
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

        // A header announcing the largest legal payload, then ten bytes
        // of it: incomplete, and the decoder reads a slice — the bytes
        // a reader buffers are the bytes that arrived.
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&MAX_FRAME_BYTES.to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        wire.extend_from_slice(b"ten bytes!");
        assert!(matches!(decode_frame(&wire), Ok(None)));

        // Bad magic is rejected on the first divergent byte, before the
        // rest of the header arrives.
        assert!(matches!(decode_frame(b"J"), Err(FrameError::BadMagic(_))));
        assert!(matches!(decode_frame(b"ORLX"), Err(FrameError::BadMagic(_))));
        assert!(matches!(decode_frame(b"JUNKxxxxxxxxxxxxxxxx"), Err(FrameError::BadMagic(_))));

        // Oversized length and corrupted bytes are rejected as soon as
        // they are decodable.
        let mut huge = Vec::new();
        huge.extend_from_slice(&FRAME_MAGIC);
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode_frame(&huge), Err(FrameError::TooLarge(_))));
        let mut tampered = buf.clone();
        tampered[FRAME_HEADER_BYTES] ^= 0x01;
        assert!(matches!(decode_frame(&tampered), Err(FrameError::BadChecksum)));
        // The last payload byte of the second frame, too.
        let mut tampered = buf.clone();
        *tampered.last_mut().unwrap() ^= 0x01;
        assert!(matches!(decode_frame(&tampered[first_len..]), Err(FrameError::BadChecksum)));
        // A flipped correlation-id byte fails the checksum: a corrupted
        // id must never deliver a frame under the wrong id.
        let mut tampered = buf;
        tampered[20] ^= 0x01;
        assert!(matches!(decode_frame(&tampered), Err(FrameError::BadChecksum)));
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
