//! `oriole` — command-line front end to the static analyzer, simulator
//! and autotuner.
//!
//! ```text
//! oriole gpus
//! oriole analyze  --kernel atax --gpu k20 --n 256 [--tc 128 --bc 48 --uif 1 --fast-math]
//! oriole occupancy --gpu k20 --tc 256 [--regs 27 --smem 3072]
//! oriole suggest  --kernel atax --gpu k20 [--n 128]
//! oriole simulate --kernel atax --gpu k20 --n 256 [--tc 128 --bc 48 ...]
//! oriole disasm   --kernel atax --gpu k20 [--tc 128 --uif 2 --fast-math]
//! oriole tune     --kernel atax --gpu k20 --strategy static [--budget 640]
//!                 [--sizes 32,64,128,256,512] [--spec path/to/spec]
//!                 [--store-dir artifacts/ | --remote 127.0.0.1:7733[,...] | --remote @daemons.txt]
//! oriole store    {stats|verify|gc [--dry-run]} --store-dir artifacts/
//! oriole serve    [--addr 127.0.0.1:7733] [--store-dir artifacts/]
//! oriole service  {ping|stats|shutdown} --remote 127.0.0.1:7733[,...]
//! ```
//!
//! `serve` runs the tuner daemon: one shared artifact store behind a
//! framed RPC protocol, so concurrent `--remote` clients share
//! front-ends and measurements — bit-identically to local evaluation.
//! `--remote` names one daemon or several (a comma list or an `@file`
//! manifest); a sweep over several spreads across them.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `oriole help` for usage");
            ExitCode::FAILURE
        }
    }
}
