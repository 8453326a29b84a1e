//! # oriole-bench — experiment harness
//!
//! One binary per table and figure of the paper's evaluation (§IV); see
//! DESIGN.md §4 for the experiment index. This library holds the shared
//! drivers: exhaustive sweeps, rank statistics, text-table and
//! ASCII-histogram rendering.
//!
//! Every binary runs the paper's full space and sizes, and accepts
//! `--gpu`/`--kernel` filters where meaningful; what each prints on the
//! full space is pinned in `golden/` (`tests/paper_bins.rs`).

#![warn(missing_docs)]

use oriole_arch::Gpu;
use oriole_kernels::KernelId;
use oriole_tuner::{ArtifactStore, Measurement, SearchSpace};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Common experiment options parsed from `argv`.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Restrict to one GPU.
    pub gpu: Option<Gpu>,
    /// Restrict to one kernel.
    pub kernel: Option<KernelId>,
    /// Persistent artifact-store directory: sweeps spill their
    /// measurement tiers here and a re-run (or a run killed half-way)
    /// resumes as pure, bit-identical cache hits.
    pub store_dir: Option<String>,
}

impl ExpOptions {
    /// Parses `--gpu <name>`, `--kernel <name>` and `--store-dir <dir>`
    /// from argv.
    pub fn from_env() -> ExpOptions {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut opts = ExpOptions { gpu: None, kernel: None, store_dir: None };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--gpu" => {
                    opts.gpu = argv.get(i + 1).and_then(|s| Gpu::parse(s));
                    i += 2;
                }
                "--kernel" => {
                    opts.kernel = argv.get(i + 1).and_then(|s| KernelId::parse(s));
                    i += 2;
                }
                "--store-dir" => {
                    opts.store_dir = argv.get(i + 1).cloned();
                    i += 2;
                }
                _ => i += 1,
            }
        }
        opts
    }

    /// The run's [`ArtifactStore`]: disk-backed under `--store-dir`
    /// (the sweep resumes across processes), memory-only otherwise.
    pub fn store(&self) -> ArtifactStore {
        match &self.store_dir {
            Some(dir) => ArtifactStore::with_disk(dir)
                .unwrap_or_else(|e| panic!("cannot open --store-dir `{dir}`: {e}")),
            None => ArtifactStore::new(),
        }
    }

    /// One line summarizing what the disk tier did this run (empty for
    /// memory-only stores) — printed to stderr by the experiment bins.
    pub fn store_summary(&self, store: &ArtifactStore) -> String {
        match (store.stats().disk, &self.store_dir) {
            (Some(d), Some(dir)) => format!(
                "store {dir}: {} measurement(s) loaded from disk, {} spilled, {} rejected",
                d.measurements_loaded, d.measurements_written, d.rejected
            ),
            _ => String::new(),
        }
    }

    /// GPUs selected by the options.
    pub fn gpus(&self) -> Vec<Gpu> {
        match self.gpu {
            Some(g) => vec![g],
            None => oriole_arch::ALL_GPUS.to_vec(),
        }
    }

    /// Kernels selected by the options.
    pub fn kernels(&self) -> Vec<KernelId> {
        match self.kernel {
            Some(k) => vec![k],
            None => oriole_kernels::ALL_KERNELS.to_vec(),
        }
    }
}

/// Runs the §IV-B exhaustive sweep for one kernel on one GPU: every
/// variant in `space`, measured with the paper's 10-trials/fifth-selected
/// protocol over `sizes`, borrowing tiers from a process-level
/// [`ArtifactStore`]: repeated or overlapping sweeps (the experiment
/// bins loop over kernels × GPUs, and several figures share sweeps)
/// reuse front-ends and whole measurements. Results are bit-identical
/// to a sweep over a fresh store.
pub fn exhaustive_measurements_in(
    store: &ArtifactStore,
    kid: KernelId,
    gpu: Gpu,
    space: &SearchSpace,
    sizes: &[u64],
) -> Vec<Arc<Measurement>> {
    let builder = move |n: u64| kid.ast(n);
    let evaluator = store.evaluator(kid.name(), &builder, gpu.spec(), sizes);
    evaluator.evaluate_space(space)
}

/// Renders an ASCII histogram of thread counts (Fig. 4 panels): buckets
/// over the TC axis, one row per bucket.
pub fn thread_histogram(threads: &[u32], bucket: u32, max_width: usize) -> String {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for &t in threads {
        *counts.entry((t / bucket) * bucket).or_default() += 1;
    }
    let peak = counts.values().copied().max().unwrap_or(1);
    let mut out = String::new();
    for (start, count) in counts {
        let bar = (count * max_width).div_ceil(peak);
        out.push_str(&format!(
            "{:>5}-{:<5} |{:<width$}| {count}\n",
            start,
            start + bucket - 1,
            "#".repeat(bar),
            width = max_width
        ));
    }
    out
}

/// Markdown-ish fixed-width table renderer.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with per-column width fitting.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:>width$}  ", cell, width = widths[c]));
            }
            line.trim_end().to_string() + "\n"
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_scales() {
        let h = thread_histogram(&[32, 33, 64, 65, 66, 1024], 32, 10);
        assert!(h.contains("32-63"));
        assert!(h.contains("| 3\n"), "{h}");
        assert!(h.contains("1024-1055"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["kernel", "time"]);
        t.row(vec!["atax".into(), "1.5".into()]);
        t.row(vec!["ex14fj".into(), "12.25".into()]);
        let r = t.render();
        assert!(r.contains("kernel"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn exhaustive_runs_on_tiny_space() {
        let space = SearchSpace::tiny();
        let store = ArtifactStore::new();
        let ms = exhaustive_measurements_in(&store, KernelId::Atax, Gpu::K20, &space, &[64]);
        assert_eq!(ms.len(), space.len());
        assert!(ms.iter().all(|m| m.feasible));
    }

    #[test]
    fn store_dir_option_makes_sweeps_resumable() {
        let dir = std::env::temp_dir()
            .join(format!("oriole-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExpOptions { gpu: None, kernel: None, store_dir: Some(dir.to_string_lossy().into_owned()) };
        let space = SearchSpace::tiny();

        let first = opts.store();
        let cold = exhaustive_measurements_in(&first, KernelId::Atax, Gpu::K20, &space, &[64]);
        assert!(opts.store_summary(&first).contains("16 spilled"));
        drop(first);

        let second = opts.store();
        let warm = exhaustive_measurements_in(&second, KernelId::Atax, Gpu::K20, &space, &[64]);
        assert_eq!(warm, cold);
        assert_eq!(second.stats().unique_evaluations, 0, "resumed sweep computed nothing");
        assert!(opts.store_summary(&second).contains("16 measurement(s) loaded"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_store_sweep_matches_fresh_store_sweep() {
        let space = SearchSpace::tiny();
        let fresh =
            exhaustive_measurements_in(&ArtifactStore::new(), KernelId::Atax, Gpu::K20, &space, &[64]);
        let store = ArtifactStore::new();
        let cold = exhaustive_measurements_in(&store, KernelId::Atax, Gpu::K20, &space, &[64]);
        let warm = exhaustive_measurements_in(&store, KernelId::Atax, Gpu::K20, &space, &[64]);
        assert_eq!(cold, fresh);
        assert_eq!(warm, fresh);
        // The warm sweep re-measured nothing.
        assert_eq!(store.stats().unique_evaluations, space.len());
    }
}
