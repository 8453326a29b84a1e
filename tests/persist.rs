//! Acceptance suite for the persistent, tiered `ArtifactStore`
//! (`oriole_tuner::persist` + the disk tier):
//!
//! * a sweep written by one **process** and re-run warm-from-disk in
//!   another produces byte-identical serialized measurements;
//! * warm-from-disk results are bit-identical to cold computation and
//!   to a fresh, storeless evaluator;
//! * corrupted and version-skewed artifacts are detected and
//!   recomputed — never silently trusted;
//! * a warm-from-disk re-sweep builds, lowers and computes nothing;
//! * a tier file a killed writer left torn loses only its last line,
//!   and the next writer repairs it;
//! * a compaction a crash cut off before its rename leaves the tier as
//!   it was, and the next `gc` removes what it wrote.

use oriole::arch::{Gpu, GpuSpec};
use oriole::codegen::TuningParams;
use oriole::ir::testgen::TestRng;
use oriole::kernels::KernelId;
use oriole::tuner::eval::EvalProtocol;
use oriole::tuner::{persist, ArtifactStore, Evaluator, Measurement, SearchSpace};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oriole-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder(n: u64) -> oriole::ir::KernelAst {
    KernelId::Atax.ast(n)
}

fn gpu() -> &'static GpuSpec {
    Gpu::K20.spec()
}

/// The single tier file inside a store directory.
fn tier_file(dir: &PathBuf) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "orl"))
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one tier file in {dir:?}");
    files.pop().unwrap()
}

#[test]
fn sweep_round_trips_across_real_processes() {
    let dir = temp_store("cross-process");
    let exe = env!("CARGO_BIN_EXE_store_sweep");
    let run = || {
        Command::new(exe)
            .args([dir.to_str().unwrap(), "atax", "k20", "64,128"])
            .output()
            .expect("helper binary runs")
    };

    let first = run();
    assert!(first.status.success(), "{first:?}");
    let first_err = String::from_utf8_lossy(&first.stderr);
    assert!(first_err.contains("loaded=0"), "cold process loads nothing: {first_err}");
    assert!(!first.stdout.is_empty());

    // A genuinely separate process: warm-from-disk, computing nothing,
    // and its canonical serialization is byte-identical.
    let second = run();
    assert!(second.status.success(), "{second:?}");
    let second_err = String::from_utf8_lossy(&second.stderr);
    assert!(
        second_err.contains("computed=0"),
        "warm process must compute nothing: {second_err}"
    );
    assert!(second_err.contains(&format!("loaded={}", SearchSpace::tiny().len())));
    assert_eq!(
        first.stdout, second.stdout,
        "cross-process warm sweep must serialize byte-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_from_disk_is_bit_identical_to_cold_and_fresh_compute() {
    let dir = temp_store("bit-identical");
    let sizes = [64u64, 128];
    let space = SearchSpace::tiny();

    let cold_store = ArtifactStore::with_disk(&dir).unwrap();
    let cold = cold_store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    drop(cold_store);

    let warm_store = ArtifactStore::with_disk(&dir).unwrap();
    let warm = warm_store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    assert_eq!(warm, cold);
    let stats = warm_store.stats();
    assert_eq!(stats.unique_evaluations, 0, "warm sweep computed nothing");
    let disk = stats.disk.expect("disk tier");
    assert_eq!(disk.measurements_loaded as usize, space.len());
    assert_eq!(disk.rejected, 0);

    // And against a storeless evaluator, point for point.
    let fresh = Evaluator::new(&builder, gpu(), &sizes);
    for (m, p) in warm.iter().zip(space.iter()) {
        assert_eq!(**m, *fresh.evaluate(p), "{p}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_record_is_rejected_and_recomputed() {
    let dir = temp_store("corrupt-record");
    let sizes = [64u64];
    let space = SearchSpace::tiny();
    let cold_store = ArtifactStore::with_disk(&dir).unwrap();
    let cold = cold_store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    drop(cold_store);

    // Flip a byte inside the first record's body: its line checksum no
    // longer matches, so that one point must be recomputed.
    let file = tier_file(&dir);
    let content = std::fs::read_to_string(&file).unwrap();
    let tampered = content.replacen("tc:64", "tc:63", 1);
    assert_ne!(tampered, content, "fixture must actually tamper");
    std::fs::write(&file, tampered).unwrap();

    let warm_store = ArtifactStore::with_disk(&dir).unwrap();
    let warm = warm_store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    assert_eq!(warm, cold, "recomputed point is bit-identical, tampered value never served");
    let stats = warm_store.stats();
    assert_eq!(stats.unique_evaluations, 1, "exactly the damaged point recomputed");
    let disk = stats.disk.unwrap();
    assert_eq!(disk.measurements_loaded as usize, space.len() - 1);
    assert!(disk.rejected >= 1, "corruption detected: {disk:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_artifact_is_a_whole_file_miss() {
    let dir = temp_store("version-skew");
    let sizes = [64u64];
    let space = SearchSpace::tiny();
    let cold_store = ArtifactStore::with_disk(&dir).unwrap();
    let cold = cold_store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    drop(cold_store);

    // Put the previous format's magic back: every record still parses,
    // but none may be trusted.
    let file = tier_file(&dir);
    let content = std::fs::read_to_string(&file).unwrap();
    let body = content.strip_prefix("oriole-meas v2\n").expect("this format's magic");
    std::fs::write(&file, format!("oriole-meas v1\n{body}")).unwrap();

    let skew_store = ArtifactStore::with_disk(&dir).unwrap();
    let resweep = skew_store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    assert_eq!(resweep, cold, "recompute is bit-identical");
    let stats = skew_store.stats();
    assert_eq!(stats.unique_evaluations, space.len(), "every point recomputed");
    let disk = stats.disk.unwrap();
    assert_eq!(disk.measurements_loaded, 0, "a skewed file serves nothing");
    assert!(disk.rejected >= 1);
    drop(skew_store);

    // The skewed file was rewritten under this format's magic, so the
    // next store resumes warm again.
    let healed = ArtifactStore::with_disk(&dir).unwrap();
    let warm = healed.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    assert_eq!(warm, cold);
    assert_eq!(healed.stats().unique_evaluations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_scope_under_expected_filename_is_never_served() {
    let dir = temp_store("foreign-scope");
    let sizes = [64u64];
    let space = SearchSpace::tiny();
    let seed_store = ArtifactStore::with_disk(&dir).unwrap();
    seed_store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    drop(seed_store);

    // Plant atax's artifact under the filename bicg's scope would hash
    // to — a simulated filename collision.
    let bicg_scope = persist::scope_text("bicg", gpu(), &sizes, &EvalProtocol::default());
    let planted = dir.join(persist::tier_file_name(&bicg_scope));
    std::fs::copy(tier_file(&dir), &planted).unwrap();

    let store = ArtifactStore::with_disk(&dir).unwrap();
    let bicg_builder = |n: u64| KernelId::Bicg.ast(n);
    store.evaluator("bicg", &bicg_builder, gpu(), &sizes).evaluate_space(&space);
    let stats = store.stats();
    assert_eq!(
        stats.unique_evaluations,
        space.len(),
        "embedded scope mismatch forces full recompute"
    );
    assert_eq!(stats.disk.unwrap().measurements_loaded, 0);
    // The planted file was not overwritten either.
    let content = std::fs::read_to_string(&planted).unwrap();
    assert!(content.contains("kernel=atax"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_from_disk_resweep_recomputes_nothing() {
    // What makes a reopen fast, as counts: it builds no AST, lowers no
    // front end, computes no point and serves every answer from the
    // records it loaded. How fast is measured where it is gated —
    // `unit_p50_s` @ `disk_roundtrip` in `benchmark/`.
    let dir = temp_store("reopen");
    let mut space = SearchSpace::paper_default();
    space.tc = vec![128, 256, 512, 1024];
    let sizes = [64u64, 128];
    let asts_built = AtomicUsize::new(0);
    let counting = |n: u64| {
        asts_built.fetch_add(1, Ordering::Relaxed);
        builder(n)
    };
    let canonical =
        |ms: &[Arc<Measurement>]| ms.iter().map(|m| persist::emit_measurement(m)).collect::<Vec<_>>();

    let cold_store = ArtifactStore::with_disk(&dir).unwrap();
    let evaluator = cold_store.evaluator("atax", &counting, gpu(), &sizes);
    let cold = evaluator.evaluate_space(&space);
    // One AST build per front-end name `(size, UIF, CFLAGS)` resolved,
    // none on a hit — and one lowering per program: ATAX's AST is the
    // same at both sizes, so the second size's ASTs only find the first's
    // artifacts, and no op of it reads `CFLAGS`, so one lowering serves
    // both flags.
    let lowerings = space.uif.len();
    let asts = sizes.len() * space.uif.len() * space.cflags.len();
    assert_eq!(
        (asts_built.load(Ordering::Relaxed), evaluator.front_end_lowerings()),
        (asts, lowerings)
    );
    assert_eq!(evaluator.unique_evaluations(), space.len());
    drop(evaluator);
    drop(cold_store);

    let warm_store = ArtifactStore::with_disk(&dir).unwrap();
    let evaluator = warm_store.evaluator("atax", &counting, gpu(), &sizes);
    let warm = evaluator.evaluate_space(&space);
    assert_eq!(canonical(&warm), canonical(&cold), "raw IEEE bits, field for field");
    assert_eq!(asts_built.load(Ordering::Relaxed), asts, "a reopen builds no AST");
    let stats = evaluator.stats();
    assert_eq!(stats.front_end_lowerings, 0, "a reopen lowers no front end");
    assert_eq!(stats.unique_evaluations, 0, "a reopen computes no point");
    assert_eq!(stats.disk_loaded, space.len());
    assert_eq!(stats.disk_spilled, 0);
    assert_eq!(warm_store.stats().unique_evaluations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_reports_loaded_and_spilled_through_eval_stats() {
    let dir = temp_store("telemetry");
    let sizes = [64u64];
    let space = SearchSpace::tiny();

    let cold_store = ArtifactStore::with_disk(&dir).unwrap();
    let evaluator = cold_store.evaluator("atax", &builder, gpu(), &sizes);
    evaluator.evaluate_space(&space);
    let cold_stats = evaluator.stats();
    assert_eq!(cold_stats.disk_loaded, 0);
    assert_eq!(cold_stats.disk_spilled, space.len());
    drop(evaluator);
    drop(cold_store);

    let warm_store = ArtifactStore::with_disk(&dir).unwrap();
    let evaluator = warm_store.evaluator("atax", &builder, gpu(), &sizes);
    evaluator.evaluate_space(&space);
    let warm_stats = evaluator.stats();
    assert_eq!(warm_stats.disk_loaded, space.len());
    assert_eq!(warm_stats.disk_spilled, 0);

    // Measurements seeded from disk wrap into shared handles exactly
    // like computed ones.
    let p = space.iter().next().unwrap();
    let a = evaluator.evaluate(p);
    let b = evaluator.evaluate(p);
    assert!(Arc::ptr_eq(&a, &b));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_tail_is_cut_off_before_a_resumed_writer_appends() {
    // A tier written in at least three chunks (three UIF values, three
    // programs, so no chunk holds two) is cut where a writer killed
    // mid-write could leave it: at every line boundary and one byte to
    // either side, and at a thousand seeded offsets.
    let dir = temp_store("torn-tail");
    let sizes = [64u64];
    let mut space = SearchSpace::tiny();
    space.uif = vec![1, 2, 3];
    let points: Vec<TuningParams> = space.iter().collect();
    let store = ArtifactStore::with_disk(&dir).unwrap();
    let cold = store.evaluator("atax", &builder, gpu(), &sizes).evaluate_batch(&points);
    drop(store);
    let path = tier_file(&dir);
    let file = std::fs::read(&path).unwrap();
    // Where each line ends, its `\n` included: the magic and five
    // header lines, then one record line per point.
    let ends: Vec<usize> = (1..=file.len()).filter(|&at| file[at - 1] == b'\n').collect();
    let records = &ends[6..];
    assert_eq!(records.len(), points.len());

    let mut rng = TestRng::for_case("torn_tail", 0);
    let mut cuts: Vec<usize> = (0..1_000).map(|_| rng.range_usize(0, file.len())).collect();
    cuts.extend(ends.iter().flat_map(|&end| [end - 1, end, end + 1]).filter(|&c| c <= file.len()));
    for cut in cuts {
        std::fs::write(&path, &file[..cut]).unwrap();
        let whole = records.iter().filter(|&&end| end <= cut).count();

        // The reopen loads exactly the whole lines before the cut and
        // rejects the fragment, if any; one resumed sweep computes
        // exactly the points lost.
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let evaluator = store.evaluator("atax", &builder, gpu(), &sizes);
        let resumed = evaluator.evaluate_batch(&points);
        let disk = store.stats().disk.expect("disk tier");
        assert_eq!(disk.measurements_loaded as usize, whole, "cut at {cut}");
        assert!(disk.rejected <= 1, "cut at {cut}: {disk:?}");
        if ends[5..].contains(&cut) {
            assert_eq!(disk.rejected, 0, "cut at {cut}, a line boundary");
        }
        assert_eq!(evaluator.unique_evaluations(), points.len() - whole, "cut at {cut}");
        assert_eq!(resumed, cold, "cut at {cut}");
        drop(evaluator);
        drop(store);

        // The next reopen finds the file whole.
        let store = ArtifactStore::with_disk(&dir).unwrap();
        drop(store.evaluator("atax", &builder, gpu(), &sizes));
        let disk = store.stats().disk.expect("disk tier");
        let reopened = (disk.measurements_loaded as usize, disk.rejected);
        assert_eq!(reopened, (points.len(), 0), "cut at {cut}");
        drop(store);
        let status = persist::scan_store(&dir).unwrap().pop().expect("one tier file").status;
        match status {
            persist::FileStatus::Usable { records, rejected: 0, .. } => {
                assert_eq!(records, points.len(), "cut at {cut}")
            }
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_compaction_cut_before_its_rename_leaves_the_tier_whole_and_gc_removes_the_rest() {
    // `gc` compacts a tier by writing `<tier>.orl.tmp` and renaming it
    // over the tier. A crash between the two leaves any prefix of the
    // compacted bytes there: cut at 200 seeded offsets, at 0 and at
    // full length.
    let dir = temp_store("gc-tmp");
    let sizes = [64u64];
    let space = SearchSpace::tiny();
    let store = ArtifactStore::with_disk(&dir).unwrap();
    let cold = store.evaluator("atax", &builder, gpu(), &sizes).evaluate_space(&space);
    drop(store);
    let path = tier_file(&dir);
    // One damaged record, so `gc` has a tier to compact.
    let damaged = std::fs::read_to_string(&path).unwrap().replacen("tc:64", "tc:63", 1);
    std::fs::write(&path, &damaged).unwrap();
    let scanned = persist::scan_store(&dir).unwrap();
    assert_eq!(persist::gc_store(&dir).unwrap().compacted_files, 1);
    let compacted = std::fs::read(&path).unwrap();
    let tmp = path.with_extension("orl.tmp");

    let mut rng = TestRng::for_case("gc_tmp", 0);
    let mut cuts: Vec<usize> = (0..200).map(|_| rng.range_usize(1, compacted.len())).collect();
    cuts.extend([0, compacted.len()]);
    for cut in cuts {
        std::fs::write(&path, &damaged).unwrap();
        std::fs::write(&tmp, &compacted[..cut]).unwrap();

        // The tier reads and loads as it did with no compaction begun:
        // every record but the damaged one, which is recomputed.
        assert_eq!(persist::scan_store(&dir).unwrap(), scanned, "cut at {cut}");
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let evaluator = store.evaluator("atax", &builder, gpu(), &sizes);
        assert_eq!(evaluator.evaluate_space(&space), cold, "cut at {cut}");
        assert_eq!(evaluator.unique_evaluations(), 1, "cut at {cut}");
        let disk = store.stats().disk.expect("disk tier");
        assert_eq!((disk.measurements_loaded as usize, disk.rejected), (space.len() - 1, 1));
        drop(evaluator);
        drop(store);

        // `gc` (and its plan) removes the cut output and compacts the
        // tier again, leaving only the compacted file.
        std::fs::write(&path, &damaged).unwrap();
        let plan = persist::plan_gc(&dir).unwrap();
        let gc = persist::gc_store(&dir).unwrap();
        assert_eq!(gc, plan, "cut at {cut}");
        assert_eq!((gc.removed_files, gc.compacted_files), (1, 1), "cut at {cut}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "cut at {cut}");
        assert_eq!(std::fs::read(&path).unwrap(), compacted, "cut at {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
