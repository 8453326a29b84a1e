//! Regenerates **Table I**: GPUs used in this experiment.
//!
//! ```sh
//! cargo run -p oriole-bench --bin table1_gpus
//! ```

use oriole_arch::{ALL_GPUS, WARP_SIZE};
use oriole_bench::TextTable;

fn main() {
    let mut t = TextTable::new(&["Sym / Parameter", "M2050", "K20", "M40", "P100"]);
    let specs: Vec<_> = ALL_GPUS.iter().map(|g| g.spec()).collect();
    let mut push = |label: &str, f: &dyn Fn(&oriole_arch::GpuSpec) -> String| {
        t.row({
            let mut row = vec![label.to_string()];
            row.extend(specs.iter().map(|s| f(s)));
            row
        });
    };
    push("cc CUDA capability", &|s| s.compute_capability.to_string());
    push("Global mem (MB)", &|s| s.global_mem_mib.to_string());
    push("mp Multiprocessors", &|s| s.multiprocessors.to_string());
    push("CUDA cores / mp", &|s| s.cores_per_mp.to_string());
    push("CUDA cores", &|s| s.total_cores().to_string());
    push("GPU clock (MHz)", &|s| s.gpu_clock_mhz.to_string());
    push("Mem clock (MHz)", &|s| s.mem_clock_mhz.to_string());
    push("L2 cache (MB)", &|s| format!("{:.3}", s.l2_cache_bytes as f64 / 1e6));
    push("Constant mem (B)", &|s| s.const_mem_bytes.to_string());
    push("S_B Sh mem block (B)", &|s| s.shmem_per_block.to_string());
    push("R_fs Regs per block", &|s| s.regfile_per_mp.to_string());
    push("W_B Warp size", &|_| WARP_SIZE.to_string());
    push("T_mp Threads per mp", &|s| s.threads_per_mp().to_string());
    push("T_B Threads per block", &|s| s.threads_per_block.to_string());
    push("B_mp Thread blocks/mp", &|s| s.blocks_per_mp.to_string());
    push("T_W Threads per warp", &|_| WARP_SIZE.to_string());
    push("W_mp Warps per mp", &|s| s.warps_per_mp.to_string());
    push("R_B Reg alloc size", &|s| s.reg_alloc_unit.to_string());
    push("R_T Regs per thread", &|s| s.regs_per_thread_max.to_string());
    push("Family", &|s| s.family.to_string());
    println!("Table I: GPUs used in this experiment.\n");
    println!("{}", t.render());
}
