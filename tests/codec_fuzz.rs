//! Seeded, offline tests of the canonical text codec
//! (`oriole_tuner::persist` writers and cursor, and the RPC payloads
//! built from them): generated values round-trip bit for bit, the
//! readers accept nothing but the writers' own spelling, and the text
//! itself is pinned by literals taken from the parents of the PRs that
//! rewrote the writers and the payload reader, and by the digest of a
//! seeded corpus taken from the writers the staged one replaced.

use oriole::arch::{Family, Gpu, GpuSpec};
use oriole::codegen::{CompilerFlags, PhaseTelemetry, PreferredL1, TuningParams};
use oriole::ir::testgen::TestRng;
use oriole::kernels::KernelId;
use oriole::service::protocol::{emit_request, emit_response, parse_request, parse_response};
use oriole::service::{EvalScope, Request, Response, ServiceStats};
use oriole::sim::{ModelId, TrialProtocol, MAX_TRIALS};
use oriole::tuner::eval::{EvalProtocol, Measurement};
use oriole::tuner::persist::{self, FileStatus};
use oriole::tuner::{ArtifactStore, StoreStats};

// ---------------------------------------------------------------------------
// Generators: every field leans on its extremes
// ---------------------------------------------------------------------------

fn gen_u64(rng: &mut TestRng) -> u64 {
    match rng.next_u64() % 5 {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_u64() % 1000,
        3 => 10u64.pow((rng.next_u64() % 20) as u32),
        _ => rng.next_u64(),
    }
}

fn gen_u32(rng: &mut TestRng) -> u32 {
    match rng.next_u64() % 4 {
        0 => 0,
        1 => u32::MAX,
        2 => (rng.next_u64() % 2048) as u32,
        _ => rng.next_u64() as u32,
    }
}

/// Infinities, NaNs with payload bits, signed zeros, subnormals and
/// arbitrary bit patterns — the wire carries bits, not numbers.
fn gen_f64(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 7 {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::from_bits(0x7ff0_0000_0000_0001 | (rng.next_u64() >> 12)),
        3 => -0.0,
        4 => f64::from_bits(rng.next_u64() >> 12),
        5 => (rng.unit_f64() - 0.5) * 1e6,
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn gen_params(rng: &mut TestRng) -> TuningParams {
    TuningParams {
        tc: gen_u32(rng),
        bc: gen_u32(rng),
        uif: gen_u32(rng),
        pl: rng.pick(&[PreferredL1::Kb16, PreferredL1::Kb48]),
        sc: gen_u32(rng),
        cflags: CompilerFlags { fast_math: rng.next_u64() & 1 == 1 },
    }
}

fn gen_measurement(rng: &mut TestRng) -> Measurement {
    // Empty per-size lists as often as not: the infeasible spelling.
    let sizes = rng.next_u64() % 7 / 2;
    Measurement {
        params: gen_params(rng),
        time_ms: gen_f64(rng),
        per_size_ms: (0..sizes).map(|_| (gen_u64(rng), gen_f64(rng))).collect(),
        feasible: rng.next_u64() & 1 == 1,
        occupancy: gen_f64(rng),
        regs_allocated: gen_u32(rng),
        reg_instructions: gen_f64(rng),
    }
}

fn gen_gpu_spec(rng: &mut TestRng) -> GpuSpec {
    GpuSpec {
        name: rng.pick(&["K20", "M2050", "K20-half-rf", "synthetic device, rev:2", ""]),
        family: rng.pick(&Family::ALL),
        compute_capability: oriole::arch::ComputeCapability::new(
            gen_u32(rng) as u8,
            rng.pick(&[0, 5, u8::MAX]),
        ),
        global_mem_mib: gen_u32(rng),
        multiprocessors: gen_u32(rng),
        cores_per_mp: gen_u32(rng),
        gpu_clock_mhz: gen_u32(rng),
        mem_clock_mhz: gen_u32(rng),
        l2_cache_bytes: gen_u64(rng),
        const_mem_bytes: gen_u32(rng),
        shmem_per_block: gen_u32(rng),
        shmem_per_mp: gen_u32(rng),
        regfile_per_mp: gen_u32(rng),
        threads_per_block: gen_u32(rng),
        blocks_per_mp: gen_u32(rng),
        warps_per_mp: gen_u32(rng),
        reg_alloc_unit: gen_u32(rng),
        regs_per_thread_max: gen_u32(rng),
    }
}

fn gen_protocol(rng: &mut TestRng) -> EvalProtocol {
    EvalProtocol {
        trials: gen_u32(rng),
        protocol: rng.pick(&[TrialProtocol::FifthOfTen, TrialProtocol::Median, TrialProtocol::Min]),
        base_seed: gen_u64(rng),
        model: rng.pick(&ModelId::ALL),
    }
}

/// Free text as a payload line carries it: a kernel name, an error
/// message.
fn gen_text(rng: &mut TestRng) -> String {
    rng.pick(&["atax", "no such kernel", "", "x=1", "p tc:1", "bad `n`; é"]).to_string()
}

fn gen_request(rng: &mut TestRng) -> Request {
    // A trial count past the bound is refused, not spelled back.
    let trials = (rng.next_u64() % (u64::from(MAX_TRIALS) + 1)) as u32;
    match rng.next_u64() % 4 {
        0 => Request::Ping,
        1 => Request::Shutdown,
        2 => Request::Stats,
        _ => Request::Evaluate {
            scope: EvalScope {
                kernel: gen_text(rng),
                gpu: gen_gpu_spec(rng),
                sizes: (0..rng.next_u64() % 4).map(|_| gen_u64(rng)).collect(),
                protocol: EvalProtocol { trials, ..gen_protocol(rng) },
            },
            points: (0..rng.next_u64() % 4).map(|_| gen_params(rng)).collect(),
            deadline_ms: gen_u64(rng),
        },
    }
}

/// A `stats` answer: the parent's literal with every number drawn anew,
/// and without its `disk=` line half the time.
fn gen_stats(rng: &mut TestRng) -> Response {
    let (head, body) = GOLDEN_STATS.split_once('\n').expect("a head line");
    let body = if rng.coin() { body.to_string() } else { body.replace(GOLDEN_DISK, "") };
    let keys = body.split(|c: char| c.is_ascii_digit()).filter(|key| !key.is_empty());
    let body: String = keys.map(|key| format!("{key}{}", gen_u64(rng))).collect();
    parse_response(&format!("{head}\n{body}")).expect("a stats answer")
}

fn gen_response(rng: &mut TestRng) -> Response {
    match rng.next_u64() % 6 {
        0 => Response::Pong,
        1 => Response::ShuttingDown,
        2 => gen_stats(rng),
        3 => Response::Evaluate {
            computed: gen_u64(rng),
            measurements: (0..rng.next_u64() % 4).map(|_| gen_measurement(rng)).collect(),
        },
        4 => Response::Busy { retry_after_ms: gen_u64(rng) },
        _ => Response::Error { message: gen_text(rng) },
    }
}

fn spell_params(p: &TuningParams) -> String {
    let mut text = String::new();
    persist::write_params(&mut text, p);
    text
}

/// One record kind: draw a value and spell it, and read a text back to
/// its re-spelling (`None` when the reader refuses it).
type Kind = (fn(&mut TestRng) -> String, fn(&str) -> Option<String>);

/// How many of [`KINDS`] are records; the RPC payloads follow them.
const RECORDS: usize = 5;

const KINDS: [Kind; RECORDS + 2] = [
    (
        |rng| persist::emit_measurement(&gen_measurement(rng)),
        |t| persist::parse_measurement(t).ok().map(|m| persist::emit_measurement(&m)),
    ),
    (
        |rng| spell_params(&gen_params(rng)),
        |t| persist::parse_params(t).ok().map(|p| spell_params(&p)),
    ),
    (
        |rng| persist::emit_gpu_spec(&gen_gpu_spec(rng)),
        |t| persist::parse_gpu_spec(t).ok().map(|g| persist::emit_gpu_spec(&g)),
    ),
    (
        |rng| persist::emit_protocol(&gen_protocol(rng)),
        |t| persist::parse_protocol(t).ok().map(|p| persist::emit_protocol(&p)),
    ),
    // A sealed record line, as a tier file holds it.
    (
        |rng| persist::seal(&format!("r {}", persist::emit_measurement(&gen_measurement(rng)))),
        |t| {
            let m = persist::parse_measurement(persist::unseal(t)?.strip_prefix("r ")?).ok()?;
            Some(persist::seal(&format!("r {}", persist::emit_measurement(&m))))
        },
    ),
    // Every request and every answer, as a frame carries it.
    (
        |rng| emit_request(&gen_request(rng)),
        |t| parse_request(t).ok().map(|r| emit_request(&r)),
    ),
    (
        |rng| emit_response(&gen_response(rng)),
        |t| parse_response(t).ok().map(|r| emit_response(&r)),
    ),
];

// ---------------------------------------------------------------------------
// (a) Round trips
// ---------------------------------------------------------------------------

#[test]
fn generated_records_round_trip_bit_for_bit() {
    for case in 0..2_000 {
        let mut rng = TestRng::for_case("round_trip", case);
        for (spell, respell) in KINDS {
            let text = spell(&mut rng);
            assert_eq!(respell(&text).as_deref(), Some(text.as_str()), "case {case}");
        }
        // Text equality is bit equality only if the reader also hands
        // back the very bits: check the fields themselves once per case.
        let m = gen_measurement(&mut rng);
        let back = persist::parse_measurement(&persist::emit_measurement(&m)).unwrap();
        assert_eq!(back.params, m.params);
        assert_eq!((back.feasible, back.regs_allocated), (m.feasible, m.regs_allocated));
        let bits = |m: &Measurement| {
            let mut bits =
                vec![m.time_ms.to_bits(), m.occupancy.to_bits(), m.reg_instructions.to_bits()];
            bits.extend(m.per_size_ms.iter().flat_map(|(n, t)| [*n, t.to_bits()]));
            bits
        };
        assert_eq!(bits(&back), bits(&m), "case {case}");
        let g = gen_gpu_spec(&mut rng);
        assert_eq!(persist::parse_gpu_spec(&persist::emit_gpu_spec(&g)).unwrap(), g);
        let p = gen_protocol(&mut rng);
        assert_eq!(persist::parse_protocol(&persist::emit_protocol(&p)).unwrap(), p);
    }
}

#[test]
fn extremes_round_trip() {
    let m = Measurement {
        params: TuningParams {
            tc: u32::MAX,
            bc: 0,
            uif: u32::MAX,
            pl: PreferredL1::Kb48,
            sc: u32::MAX,
            cflags: CompilerFlags { fast_math: true },
        },
        time_ms: f64::NEG_INFINITY,
        per_size_ms: vec![(u64::MAX, f64::from_bits(0x7ff8_dead_beef_0001)), (0, -0.0)],
        feasible: false,
        occupancy: f64::from_bits(0xfff0_0000_0000_0001),
        regs_allocated: u32::MAX,
        reg_instructions: f64::MIN_POSITIVE / 2.0,
    };
    let text = persist::emit_measurement(&m);
    assert!(text.contains("sizes:18446744073709551615@7ff8deadbeef0001,0@8000000000000000"));
    assert_eq!(persist::emit_measurement(&persist::parse_measurement(&text).unwrap()), text);
    // One past a field's type is refused, not wrapped.
    assert!(persist::parse_params("tc:4294967296,bc:1,uif:1,pl:16,sc:1,fm:0").is_err());
    assert!(persist::parse_measurement(&text.replace("regs:4294967295", "regs:4294967296")).is_err());
    assert!(persist::parse_measurement(&text.replace("18446744073709551615@", "18446744073709551616@"))
        .is_err());
}

// ---------------------------------------------------------------------------
// (b) Canonical-only acceptance
// ---------------------------------------------------------------------------

/// Damages `text` one of four ways; the result is any string at all.
/// A payload's lines may trade places like a record's fields.
fn mutate(rng: &mut TestRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.next_u64() % 4 {
        0 if !bytes.is_empty() => {
            let at = rng.range_usize(0, bytes.len());
            bytes[at] ^= 1 << (rng.next_u64() % 8);
        }
        1 => bytes.truncate(rng.range_usize(0, bytes.len() + 1)),
        2 => {
            let byte = rng.pick(b"0123456789abcdefF+-_ ;:,@|\n\0\xc3");
            bytes.insert(rng.range_usize(0, bytes.len() + 1), byte);
        }
        _ => {
            // Swap two fields (at either nesting level), or two lines.
            let sep = if text.contains('\n') {
                rng.pick(&['\n', ';', ','])
            } else {
                rng.pick(&[';', ','])
            };
            let mut fields: Vec<&str> = text.split(sep).collect();
            let (a, b) = (rng.range_usize(0, fields.len()), rng.range_usize(0, fields.len()));
            fields.swap(a, b);
            return fields.join(&sep.to_string());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn only_canonical_text_is_accepted_and_nothing_panics() {
    let (mut accepted, mut changed) = (0u32, 0u32);
    for case in 0..12_000 {
        let mut rng = TestRng::for_case("canonical_only", case);
        let (spell, respell) = rng.pick(&KINDS);
        let text = spell(&mut rng);
        let mut damaged = mutate(&mut rng, &text);
        if rng.next_u64() & 3 == 0 {
            damaged = mutate(&mut rng, &damaged);
        }
        changed += u32::from(damaged != text);
        // Any outcome but a panic is acceptable, and an accepted text
        // must be exactly what the writers would have produced.
        if let Some(respelled) = respell(&damaged) {
            assert_eq!(respelled, damaged, "case {case}: accepted a non-canonical spelling");
            accepted += 1;
        }
    }
    assert!(changed > 10_000, "the mutator must actually damage its input: {changed}");
    // Some mutations land on another canonical text (a digit for a
    // digit, two equal fields swapped): the property is not vacuous.
    assert!(accepted > 100, "accepted {accepted}");
}

#[test]
fn the_old_readers_liberties_are_refused() {
    let ok = "tc:256,bc:48,uif:1,pl:16,sc:1,fm:0";
    assert!(persist::parse_params(ok).is_ok());
    for liberty in [
        "tc:+256,bc:48,uif:1,pl:16,sc:1,fm:0",  // explicit sign
        "tc:0256,bc:48,uif:1,pl:16,sc:1,fm:0",  // leading zero
        "tc:256,bc:48,uif:1,pl:16,sc:1,fm:0,",  // trailing separator
        "tc:256,bc:48,uif:1,pl:16,sc:1,fm:0,x", // trailing field
        "tc:256,bc:48,uif:1,pl:32,sc:1,fm:0",   // no such PL
        "tc:256,bc:48,uif:1,pl:16,sc:1,fm:2",   // no such bool
        "tc:,bc:48,uif:1,pl:16,sc:1,fm:0",      // empty number
    ] {
        assert!(persist::parse_params(liberty).is_err(), "{liberty}");
    }
    assert!(persist::parse_f64("3FE8000000000000").is_err(), "uppercase hex");
    assert!(persist::parse_f64("3fe800000000000").is_err(), "15 digits");
    assert!(persist::parse_f64("03fe8000000000000").is_err(), "17 digits");
    assert!(persist::parse_protocol(
        "trials:10;select:fifth-of-ten;seed:000000000012101e;model:simulator"
    )
    .is_err(), "a model alias is not the canonical name");
    let line = persist::seal("r x");
    assert_eq!(persist::unseal(&line), Some("r x"));
    let crc = &line[4..];
    assert_ne!(crc, crc.to_uppercase(), "the sample seal has a hex letter");
    assert_eq!(persist::unseal(&format!("r x|{}", crc.to_uppercase())), None);
    assert_eq!(persist::unseal(&format!("r x|{}", &crc[1..])), None, "15 digits");
    assert_eq!(persist::unseal("|"), None);
    assert_eq!(persist::unseal("é|000000000000000"), None, "no split inside a character");

    // The numbers an RPC payload carries, outside its records and in
    // them, go through the same cursor: what `str::parse` and
    // `from_str_radix` let through is refused, on every verb that
    // carries one.
    let evaluate = emit_request(&Request::Evaluate {
        scope: EvalScope {
            kernel: "atax".into(),
            gpu: Gpu::K20.spec().clone(),
            sizes: vec![64, 128],
            protocol: EvalProtocol::default(),
        },
        points: vec![TuningParams::with_geometry(256, 48)],
        deadline_ms: 5,
    });
    let answer = emit_response(&Response::Evaluate { computed: 7, measurements: vec![] });
    let busy = emit_response(&Response::Busy { retry_after_ms: 25 });
    let stats = GOLDEN_STATS.to_string();
    assert!(evaluate.contains(&format!("\nprotocol={GOLDEN_PROTOCOL}\n")), "{evaluate}");
    let requests = [
        (&evaluate, "\nsizes=64,128\n", "\nsizes=+64,,0128,\n"),
        (&evaluate, "\nsizes=64,128\n", "\nsizes=64,,128\n"),
        (&evaluate, "\nsizes=64,128\n", "\nsizes=064,128\n"),
        (&evaluate, "\nsizes=64,128\n", "\nsizes=64,128,\n"),
        (&evaluate, "\nsizes=64,128\n", "\nsizes=,64,128\n"),
        (&evaluate, "\ndeadline=5\n", "\ndeadline=+05\n"),
        (&evaluate, "\ndeadline=5\n", "\ndeadline=05\n"),
        (&evaluate, "\ndeadline=5\n", "\ndeadline=\n"),
        (&evaluate, "=trials:10;", "=trials:+10;"),
        (&evaluate, "=trials:10;", "=trials:010;"),
        (&evaluate, ";seed:000000000012101e;", ";seed:12101e;"),
        (&evaluate, ";seed:000000000012101e;", ";seed:+00000000012101e;"),
        (&evaluate, ";seed:000000000012101e;", ";seed:000000000012101E;"),
        (&evaluate, ";seed:000000000012101e;", ";seed:0000000000012101e;"),
    ];
    for (payload, canonical, liberty) in requests {
        assert!(parse_request(payload).is_ok(), "{payload}");
        assert!(payload.contains(canonical), "{canonical}");
        assert!(parse_request(&payload.replace(canonical, liberty)).is_err(), "{liberty}");
    }
    let responses = [
        (&answer, "\ncomputed=7", "\ncomputed=+007"),
        (&answer, "\ncomputed=7", "\ncomputed=07"),
        (&busy, "\nretry_after_ms=25", "\nretry_after_ms=+25"),
        (&busy, "\nretry_after_ms=25", "\nretry_after_ms=025"),
        (&stats, "\nrequests=17\n", "\nrequests=+17\n"),
        (&stats, "\ninline=77\n", "\ninline=077\n"),
        (&stats, "\ndisk=hits:13;", "\ndisk=hits:+13;"),
        (&stats, "\nphases=unroll:1250:10;", "\nphases=unroll:01250:10;"),
        (&stats, "\nphases=unroll:1250:10;", "\nphases=unroll:1250:+10;"),
    ];
    for (payload, canonical, liberty) in responses {
        assert!(parse_response(payload).is_ok(), "{payload}");
        assert!(payload.contains(canonical), "{canonical}");
        assert!(parse_response(&payload.replace(canonical, liberty)).is_err(), "{liberty}");
    }
}

#[test]
fn requests_carry_any_device_but_no_trial_count_past_the_bound() {
    // For a device the request codec is a pure codec: a degenerate one
    // round-trips, and refusing it is the server's job. A trial count is
    // a loop bound and an allocation size inside a daemon worker: past
    // `MAX_TRIALS` the frame itself is refused.
    let (mut kept, mut refused) = (0u32, 0u32);
    for case in 0..2_000 {
        let mut rng = TestRng::for_case("request_trials", case);
        let trials = match rng.next_u64() % 3 {
            0 => (rng.next_u64() % (u64::from(MAX_TRIALS) + 1)) as u32,
            1 => MAX_TRIALS + 1 + (rng.next_u64() % 3) as u32,
            _ => gen_u32(&mut rng),
        };
        let kernel = rng.pick(&["atax", "no such kernel"]).to_string();
        let gpu = gen_gpu_spec(&mut rng);
        let protocol = EvalProtocol { trials, ..gen_protocol(&mut rng) };
        let sizes = vec![gen_u64(&mut rng), gen_u64(&mut rng)];
        let request = Request::Evaluate {
            scope: EvalScope { kernel, gpu, sizes, protocol },
            points: vec![gen_params(&mut rng)],
            deadline_ms: gen_u64(&mut rng),
        };
        match parse_request(&emit_request(&request)) {
            Ok(back) => {
                assert!(trials <= MAX_TRIALS, "case {case}: {trials} trials accepted");
                assert_eq!(back, request, "case {case}");
                kept += 1;
            }
            Err(e) => {
                assert!(trials > MAX_TRIALS, "case {case}: {e}");
                assert!(e.to_string().contains("trials"), "case {case}: {e}");
                refused += 1;
            }
        }
    }
    assert!(kept > 500 && refused > 500, "{kept} kept, {refused} refused");
}

// ---------------------------------------------------------------------------
// (c) The text itself, pinned
// ---------------------------------------------------------------------------

// The golden scope's device and protocol as v4 (and tier format v1)
// spelled them, as the `format!`-built emitters did before.
const V4_GPU: &str = "name:K20;family:kepler;cc:3.5;gmem:11520;mp:13;cores:192;clk:824;\
    mclk:2505;l2:1572864;cmem:65536;smb:49152;smmp:49152;rf:65536;ws:32;tmp:2048;tpb:1024;\
    bmp:16;tpw:32;wmp:64;rau:256;rtmax:255";
const V4_PROTOCOL: &str =
    "trials:10;select:fifth-of-ten;seed:000000000012101e;objective:total-time;model:sim";

// The same without `ws`, `tmp`, `tpw` and `objective`: v5 and tier
// format v2. Seals and file name are FNV-1a 64, worked out apart.
const GOLDEN_GPU: &str = "name:K20;family:kepler;cc:3.5;gmem:11520;mp:13;cores:192;clk:824;\
    mclk:2505;l2:1572864;cmem:65536;smb:49152;smmp:49152;rf:65536;tpb:1024;bmp:16;wmp:64;\
    rau:256;rtmax:255";
const GOLDEN_PROTOCOL: &str = "trials:10;select:fifth-of-ten;seed:000000000012101e;model:sim";
const GOLDEN_M1: &str = "params:tc:256,bc:48,uif:1,pl:16,sc:1,fm:0;time:3f516872b020c49c;\
    feasible:1;occ:3fe8000000000000;regs:24;reginstr:40c81cc000000000;\
    sizes:64@3f40624dd2f1a9fc,128@3f426e978d4fdf3b";
const GOLDEN_M2: &str = "params:tc:1024,bc:192,uif:5,pl:48,sc:3,fm:1;time:7ff0000000000000;\
    feasible:0;occ:0000000000000000;regs:0;reginstr:0000000000000000;sizes:";
const GOLDEN_SEAL_M1: &str = "7254b3a288e3fbed";
const GOLDEN_SEAL_M2: &str = "1223b6f5f21d6c35";
const GOLDEN_HEADER_SEALS: [&str; 5] = [
    "7d5957b6c297d2bb",
    "4207e90db4fa074f",
    "a242ff8b4438db33",
    "a655711f8dd1bcc3",
    "c82e408803d6977a",
];
const GOLDEN_TIER_NAME: &str = "meas-7d83149be66f8515.orl";

fn golden_pair() -> [Measurement; 2] {
    let mut p2 = TuningParams::with_geometry(1024, 192);
    p2.uif = 5;
    p2.pl = PreferredL1::Kb48;
    p2.sc = 3;
    p2.cflags.fast_math = true;
    [
        Measurement {
            params: TuningParams::with_geometry(256, 48),
            time_ms: 1.0625e-3,
            per_size_ms: vec![(64, 0.5e-3), (128, 0.5625e-3)],
            feasible: true,
            occupancy: 0.75,
            regs_allocated: 24,
            reg_instructions: 12_345.5,
        },
        Measurement {
            params: p2,
            time_ms: f64::INFINITY,
            per_size_ms: Vec::new(),
            feasible: false,
            occupancy: 0.0,
            regs_allocated: 0,
            reg_instructions: 0.0,
        },
    ]
}

fn scope_text(gpu: &str, protocol: &str) -> String {
    format!("kernel=atax\ngpu={gpu}\nsizes=64,128\nprotocol={protocol}")
}

fn golden_scope_text() -> String {
    scope_text(GOLDEN_GPU, GOLDEN_PROTOCOL)
}

#[test]
fn evaluate_payloads_and_record_lines_match_their_literals() {
    let [m1, m2] = golden_pair();
    let scope = EvalScope {
        kernel: "atax".into(),
        gpu: Gpu::K20.spec().clone(),
        sizes: vec![64, 128],
        protocol: EvalProtocol::default(),
    };
    let request =
        Request::Evaluate { scope, points: vec![m1.params, m2.params], deadline_ms: 2500 };
    let request_text = format!(
        "oriole-rpc v5 evaluate\n{}\ndeadline=2500\n\
         p tc:256,bc:48,uif:1,pl:16,sc:1,fm:0\np tc:1024,bc:192,uif:5,pl:48,sc:3,fm:1",
        golden_scope_text()
    );
    assert_eq!(emit_request(&request), request_text);
    assert_eq!(parse_request(&request_text).unwrap(), request);

    let response = Response::Evaluate { computed: 2, measurements: vec![m1.clone(), m2.clone()] };
    let response_text = format!("oriole-rpc v5 ok evaluate\ncomputed=2\nm {GOLDEN_M1}\nm {GOLDEN_M2}");
    assert_eq!(emit_response(&response), response_text);
    assert_eq!(parse_response(&response_text).unwrap(), response);

    assert_eq!(persist::emit_measurement(&m1), GOLDEN_M1);
    assert_eq!(persist::emit_measurement(&m2), GOLDEN_M2);
    assert_eq!(persist::seal(&format!("r {GOLDEN_M1}")), format!("r {GOLDEN_M1}|{GOLDEN_SEAL_M1}"));
    assert_eq!(persist::seal(&format!("r {GOLDEN_M2}")), format!("r {GOLDEN_M2}|{GOLDEN_SEAL_M2}"));
    let scope_text =
        persist::scope_text("atax", Gpu::K20.spec(), &[64, 128], &EvalProtocol::default());
    assert_eq!(scope_text, golden_scope_text());
    assert_eq!(persist::tier_file_name(&scope_text), GOLDEN_TIER_NAME);
}

// A `stats` answer as the parent of the PR that gave the daemon one
// stats record printed it, under the v5 head; every counter holds a value of its own, so a
// field read into another's place shows.
const GOLDEN_STATS: &str = "oriole-rpc v5 ok stats\nconnections=3\nrequests=17\npoints=1280\n\
    kernels=2\nfe_tiers=4\nlowerings=20\nmeas_tiers=5\nunique=640\ncontexts=1\nbusy=6\nwmax=16\n\
    shed=7\nreaped=8\nconns_open=9\ninflight=11\npipe_peak=12\nwakeups=901\ninline=77\n\
    disk=hits:13;misses:14;loaded:641;written:15;rejected:16\n\
    phases=unroll:1250:10;lower:311007:18;regalloc:42000:19";
const GOLDEN_DISK: &str = "\ndisk=hits:13;misses:14;loaded:641;written:15;rejected:16";

fn golden_stats() -> ServiceStats {
    ServiceStats {
        connections: 3,
        requests: 17,
        points_served: 1280,
        workers_busy: 6,
        workers_max: 16,
        shed_busy: 7,
        reaped_idle: 8,
        open_connections: 9,
        frames_inflight: 11,
        pipelined_peak: 12,
        inline_hits: 77,
        reactor_wakeups: 901,
        store: StoreStats {
            kernels: 2,
            front_end_tiers: 4,
            front_end_lowerings: 20,
            measurement_tiers: 5,
            unique_evaluations: 640,
            contexts: 1,
            disk: Some(persist::DiskStats {
                tier_hits: 13,
                tier_misses: 14,
                measurements_loaded: 641,
                measurements_written: 15,
                rejected: 16,
            }),
            phases: PhaseTelemetry {
                unroll_ns: 1250,
                unroll_calls: 10,
                lower_ns: 311_007,
                lower_calls: 18,
                regalloc_ns: 42_000,
                regalloc_calls: 19,
            },
        },
    }
}

#[test]
fn stats_answers_match_their_literals() {
    let memory_only = GOLDEN_STATS.replace(GOLDEN_DISK, "");
    assert_ne!(memory_only, GOLDEN_STATS);
    let with_disk = golden_stats();
    let mut without = golden_stats();
    without.store.disk = None;
    for (stats, text) in [(with_disk, GOLDEN_STATS), (without, memory_only.as_str())] {
        let response = Response::Stats(stats);
        assert_eq!(emit_response(&response), text);
        assert_eq!(parse_response(text).unwrap(), response);
    }
}

// ---------------------------------------------------------------------------
// (d) Tier files: this format's, and the one before it
// ---------------------------------------------------------------------------

/// This format's tier file of the golden scope and pair: the magic,
/// five header lines, two records.
fn golden_tier_file() -> String {
    let mut file = String::from("oriole-meas v2\n");
    for (line, seal) in golden_scope_text().lines().chain(["end"]).zip(GOLDEN_HEADER_SEALS) {
        file.push_str(&format!("h {line}|{seal}\n"));
    }
    file.push_str(&format!("r {GOLDEN_M1}|{GOLDEN_SEAL_M1}\nr {GOLDEN_M2}|{GOLDEN_SEAL_M2}\n"));
    file
}

fn golden_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("oriole-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_tier_file_in_this_format_opens_with_nothing_rejected() {
    let dir = golden_dir("golden");
    let file = golden_tier_file();
    std::fs::write(dir.join(GOLDEN_TIER_NAME), &file).unwrap();

    let reports = persist::scan_store(&dir).unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(
        reports[0].status,
        FileStatus::Usable {
            kernel: "atax".into(),
            gpu: "K20".into(),
            sizes: "64,128".into(),
            model: "sim".into(),
            records: 2,
            rejected: 0,
        }
    );

    // And through the store: both records are served as they stand
    // (their times are nothing the simulator would compute).
    let store = ArtifactStore::with_disk(&dir).unwrap();
    let builder = |n: u64| KernelId::Atax.ast(n);
    let evaluator = store.evaluator("atax", &builder, Gpu::K20.spec(), &[64, 128]);
    for m in golden_pair() {
        assert_eq!(*evaluator.evaluate(m.params), m);
    }
    let disk = store.stats().disk.expect("disk tier");
    assert_eq!((disk.measurements_loaded, disk.rejected), (2, 0));
    assert_eq!(store.stats().unique_evaluations, 0);
    drop(evaluator);
    drop(store);
    assert_eq!(std::fs::read_to_string(dir.join(GOLDEN_TIER_NAME)).unwrap(), file);

    // The header this build writes for the same scope is the literal's,
    // byte for byte, under the same file name.
    std::fs::remove_file(dir.join(GOLDEN_TIER_NAME)).unwrap();
    let store = ArtifactStore::with_disk(&dir).unwrap();
    drop(store.evaluator("atax", &builder, Gpu::K20.spec(), &[64, 128]));
    drop(store);
    let header = file.split_inclusive('\n').take(6).collect::<String>();
    assert_eq!(std::fs::read_to_string(dir.join(GOLDEN_TIER_NAME)).unwrap(), header);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_format_v1_tier_file_is_skew_to_verify_and_removed_by_gc() {
    // The golden file as the last v1 build wrote it, under its scope's
    // name; `tests/persist.rs` has a tier rewrite one at its own name.
    let dir = golden_dir("v1");
    let scope = scope_text(V4_GPU, V4_PROTOCOL);
    let header = scope.lines().chain(["end"]).map(|l| persist::seal(&format!("h {l}")) + "\n");
    let records = golden_tier_file().split_inclusive('\n').skip(6).collect::<String>();
    let file = format!("oriole-meas v1\n{}{records}", header.collect::<String>());
    std::fs::write(dir.join(persist::tier_file_name(&scope)), file).unwrap();
    let status = persist::scan_store(&dir).unwrap().pop().expect("one file").status;
    assert_eq!(status, FileStatus::VersionSkew);
    assert_eq!(persist::gc_store(&dir).unwrap().removed_files, 1);
    assert!(persist::scan_store(&dir).unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_previous_formats_fields_and_head_are_refused_by_name() {
    // A device with the warp width written down, a protocol with an
    // objective: the strict readers name the first stray field.
    let err = persist::parse_gpu_spec(V4_GPU).expect_err("a v4 device").to_string();
    assert!(err.contains("missing field `tpb`") && err.contains("found `ws`"), "{err}");
    let err = persist::parse_protocol(V4_PROTOCOL).expect_err("a v4 protocol").to_string();
    assert!(err.contains("missing field `model`") && err.contains("found `objective`"), "{err}");
    // A v4 request is refused by its head line before any field is
    // read: the skew error, naming both versions.
    let v4_request =
        format!("oriole-rpc v4 evaluate\n{}\ndeadline=2500", scope_text(V4_GPU, V4_PROTOCOL));
    let err = parse_request(&v4_request).expect_err("a v4 request").to_string();
    assert!(err.contains("version skew: peer speaks `oriole-rpc v4 evaluate`"), "{err}");
    assert!(err.contains("this build speaks `oriole-rpc v5`"), "{err}");
}

#[test]
fn a_byte_past_ascii_costs_a_tier_file_the_line_it_sits_in() {
    // Every offset of the golden file overwritten, one at a time, with
    // a seeded byte >= 0x80: the file is then not UTF-8 as a whole. In
    // the magic or the header that is a corrupt file; in a record it is
    // that record's line and nothing else.
    let dir = golden_dir("bytes");
    let path = dir.join(GOLDEN_TIER_NAME);
    let file = golden_tier_file();
    let header_len = file.split_inclusive('\n').take(6).map(str::len).sum::<usize>();
    let file = file.into_bytes();
    let builder = |n: u64| KernelId::Atax.ast(n);
    let mut rng = TestRng::for_case("tier_bytes", 0);
    for at in 0..file.len() {
        let mut damaged = file.clone();
        damaged[at] = 0x80 | rng.next_u64() as u8;
        std::fs::write(&path, &damaged).unwrap();

        let status = persist::scan_store(&dir).unwrap().pop().expect("one file").status;
        // Overwriting the newline between the records joins them into
        // one damaged line.
        let lines = if file[at] == b'\n' && at + 1 < file.len() { 1 } else { 2 };
        let loaded = match status {
            FileStatus::Corrupt if at < header_len => 0,
            FileStatus::Usable { records, rejected: 1, .. } if at >= header_len => {
                assert_eq!(records + 1, lines, "offset {at}");
                records
            }
            other => panic!("offset {at}: {other:?}"),
        };

        // Through the store: what loaded is served as the literal says,
        // the rest is computed, never read from a damaged line.
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let evaluator = store.evaluator("atax", &builder, Gpu::K20.spec(), &[64, 128]);
        let disk = store.stats().disk.expect("disk tier");
        assert_eq!((disk.measurements_loaded as usize, disk.rejected), (loaded, 1), "offset {at}");
        let as_written =
            golden_pair().iter().filter(|m| *evaluator.evaluate(m.params) == **m).count();
        assert!(as_written >= loaded, "offset {at}: a served record differs from its literal");
        assert_eq!(evaluator.unique_evaluations(), 2 - loaded, "offset {at}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// (e) The primitives, exhaustively where they are small
// ---------------------------------------------------------------------------

/// A measurement whose every float is `v`.
fn all_floats(v: f64) -> Measurement {
    Measurement {
        params: TuningParams::with_geometry(256, 48),
        time_ms: v,
        per_size_ms: vec![(64, v), (u64::MAX, v)],
        feasible: true,
        occupancy: v,
        regs_allocated: 24,
        reg_instructions: v,
    }
}

#[test]
fn every_nibble_at_every_hex_digit_is_spelled_and_read_back() {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for at in 0..16 {
        for nibble in 0..16u64 {
            // Every other digit keeps its own distinct background value.
            let shift = 60 - 4 * at;
            let v = (0x0123_4567_89ab_cdef & !(0xf << shift)) | (nibble << shift);
            let digit = |i: usize| char::from(DIGITS[(v >> (60 - 4 * i)) as usize & 15]);
            let want: String = (0..16).map(digit).collect();
            assert_eq!(persist::emit_f64(f64::from_bits(v)), want);
            assert_eq!(persist::parse_f64(&want).unwrap().to_bits(), v, "{want}");
        }
    }
}

#[test]
fn decimal_fields_keep_their_edges() {
    let record = |regs: &str, size: &str| {
        format!(
            "params:tc:1,bc:1,uif:1,pl:16,sc:1,fm:0;time:0000000000000000;feasible:1;\
             occ:0000000000000000;regs:{regs};reginstr:0000000000000000;sizes:{size}@0000000000000000"
        )
    };
    let twenty_one = "123456789012345678901";
    let regs = [
        ("0", Some(0)),
        ("9", Some(9)),
        ("10", Some(10)),
        ("4294967295", Some(u32::MAX)),
        ("4294967296", None),
        ("01", None),
        ("00", None),
        ("", None),
        ("+1", None),
        (twenty_one, None),
    ];
    for (text, want) in regs {
        let parsed = persist::parse_measurement(&record(text, "64"));
        assert_eq!(parsed.as_ref().ok().map(|m| m.regs_allocated), want, "regs:{text}");
    }
    let sizes = [
        ("0", Some(0)),
        ("9", Some(9)),
        ("10", Some(10)),
        ("18446744073709551615", Some(u64::MAX)),
        ("18446744073709551616", None),
        ("099", None),
        ("", None),
        (twenty_one, None),
    ];
    for (text, want) in sizes {
        let parsed = persist::parse_measurement(&record("24", text));
        assert_eq!(parsed.as_ref().ok().map(|m| m.per_size_ms[0].0), want, "size {text}");
        assert_eq!(persist::parse_dec(text).ok(), want, "{text}");
    }
    // Every digit count is written as `Display` writes it and read back.
    let edges = (0..20).flat_map(|k| {
        let p = 10u64.pow(k);
        [p - 1, p, p + 1]
    });
    for v in edges.chain([u64::MAX - 1, u64::MAX]) {
        let m = Measurement { per_size_ms: vec![(v, 0.5)], ..all_floats(1.0) };
        let text = persist::emit_measurement(&m);
        assert!(text.contains(&format!(";sizes:{v}@")), "{text}");
        assert_eq!(persist::parse_measurement(&text).unwrap().per_size_ms[0].0, v);
        assert_eq!(persist::parse_dec(&v.to_string()).unwrap(), v);
    }
}

#[test]
fn every_float_class_round_trips_bit_exact() {
    let bits = [
        0x0000_0000_0000_0000, // +0
        0x8000_0000_0000_0000, // -0
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
        0x0010_0000_0000_0000, // smallest normal
        0x7fef_ffff_ffff_ffff, // largest finite
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN, lowest payload
        0xfff8_dead_beef_0001, // negative NaN with a payload
        0x7fff_ffff_ffff_ffff, // every payload bit
        0x3ff0_0000_0000_0000, // 1.0
        0xbcb0_0000_0000_0000, // -epsilon / 2
    ];
    for b in bits {
        let v = f64::from_bits(b);
        assert_eq!(persist::parse_f64(&persist::emit_f64(v)).unwrap().to_bits(), b, "{b:016x}");
        let text = persist::emit_measurement(&all_floats(v));
        assert!(text.contains(&format!(";occ:{b:016x};")), "{text}");
        let back = persist::parse_measurement(&text).unwrap();
        let sizes = back.per_size_ms.iter().map(|(_, t)| *t);
        let read = [back.time_ms, back.occupancy, back.reg_instructions].into_iter().chain(sizes);
        assert!(read.map(f64::to_bits).all(|r| r == b), "{b:016x}: {text}");
        assert_eq!(persist::emit_measurement(&back), text);
    }
}

/// `persist::checksum` over the corpus below (2,185,638 bytes), pinned
/// when the `simulate` verb went: the corpus of the v5 writers with its
/// `simulate` texts cut, byte for byte — the fifth of every eight
/// entries, a simulation report, and the request in front of the
/// eighth's answer. The cut request's values are still drawn, so every
/// other text reads the draws it read before. (That corpus was pinned
/// when v5 and tier format v2 dropped `ws`, `tmp`, `tpw` and
/// `objective`, as the v4 writers' corpus with those fields cut.)
const CORPUS_DIGEST: u64 = 0x31a2_3414_abfc_bbd1;

#[test]
fn a_seeded_corpus_is_spelled_byte_for_byte_as_before() {
    // Ten thousand generated texts: every record kind, scopes with their
    // tier file names, and the request and answer payloads built of them.
    let mut corpus = String::new();
    for case in 0..10_000u32 {
        let mut rng = TestRng::for_case("corpus", case);
        match case as usize % 8 {
            // A simulation report's entry, cut.
            4 => continue,
            // The records: the sealed line was the sixth entry.
            kind @ 0..=5 => {
                let (spell, _) = KINDS[if kind < 4 { kind } else { kind - 1 }];
                corpus.push_str(&spell(&mut rng));
            }
            6 => {
                let sizes: Vec<u64> = (0..rng.next_u64() % 6).map(|_| gen_u64(&mut rng)).collect();
                let (gpu, protocol) = (gen_gpu_spec(&mut rng), gen_protocol(&mut rng));
                let scope = persist::scope_text("atax", &gpu, &sizes, &protocol);
                corpus.push_str(&persist::tier_file_name(&scope));
                corpus.push_str(&scope);
            }
            _ => {
                // The cut request's device, point, size, model, trials
                // and seed.
                let _ = (gen_gpu_spec(&mut rng), gen_params(&mut rng), gen_u64(&mut rng));
                let _ = (rng.pick(&ModelId::ALL), gen_u32(&mut rng), gen_u64(&mut rng));
                let measurements = (0..3).map(|_| gen_measurement(&mut rng)).collect();
                let computed = gen_u64(&mut rng);
                corpus.push_str(&emit_response(&Response::Evaluate { computed, measurements }));
                corpus.push_str(&persist::emit_f64(gen_f64(&mut rng)));
            }
        }
        corpus.push('\n');
    }
    let (digest, bytes) = (persist::checksum(corpus.as_bytes()), corpus.len());
    assert_eq!(digest, CORPUS_DIGEST, "corpus of {bytes} bytes digests to {digest:#018x}");
}
