//! Every paper bin's stdout on the full space, pinned byte for byte.
//!
//! Each bin runs with no flags (the paper's whole space, every kernel,
//! GPU and size) and its stdout must equal `golden/<bin>.txt`; progress
//! lines go to stderr and are not compared. A bin's output moves only
//! with a change to what the paper's tables and figures say, and such a
//! change regenerates its golden in the same commit with the command a
//! failure prints.

use std::path::Path;
use std::process::Command;

/// The line (1-based) where `got` and `want` first differ, and each
/// side's line there (`None` past its end); both `None` when only the
/// final newline differs.
fn first_difference<'a>(got: &'a str, want: &'a str) -> (usize, Option<&'a str>, Option<&'a str>) {
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    let mut line = 1;
    loop {
        let (g, w) = (got_lines.next(), want_lines.next());
        if g != w || g.is_none() {
            return (line, g, w);
        }
        line += 1;
    }
}

/// Runs `bin` (built at `exe`) and diffs its stdout against its golden.
fn check(bin: &str, exe: &str) {
    let out = Command::new(exe).output().unwrap_or_else(|e| panic!("{bin} does not run: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} exited with {}:\n{stderr}", out.status);
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{bin}.txt"));
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    if got != want {
        let (line, g, w) = first_difference(&got, &want);
        panic!(
            "{bin}: stdout differs from golden/{bin}.txt at line {line}\n  golden: {}\n  got:    {}\n\
             regenerate with: cargo run --release -q -p oriole-bench --bin {bin} > crates/bench/golden/{bin}.txt",
            w.unwrap_or("(end of file)"),
            g.unwrap_or("(end of output)"),
        );
    }
}

/// One test per bin, so they run in parallel and fail by name.
macro_rules! goldens {
    ($($bin:ident),* $(,)?) => {
        $(
            #[test]
            fn $bin() {
                check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
            }
        )*
    };
}

goldens!(
    ablation_sim,
    fig1_divergence,
    fig4_thread_hist,
    fig5_prediction,
    fig6_search_improvement,
    fig7_occupancy_view,
    model_agreement,
    table1_gpus,
    table2_throughput,
    table3_space,
    table4_kernels,
    table5_rank_stats,
    table6_static_error,
    table7_suggestions,
);

#[test]
fn a_difference_is_found_on_its_line_or_at_the_end() {
    assert_eq!(first_difference("a\nb\nc\n", "a\nx\nc\n"), (2, Some("b"), Some("x")));
    assert_eq!(first_difference("a\n", "a\nb\n"), (2, None, Some("b")));
    assert_eq!(first_difference("a", "a\n"), (2, None, None));
}
