//! Workload generator: everything a run feeds the product is derived
//! here from `--seed`. The same seed gives the same inputs; the product
//! only ever sees the generated inputs, never the seed.

use crate::product::{Gpu, KernelId, ALL_GPUS, ALL_KERNELS};

/// SplitMix64: tiny, seedable, and independent of the product's own
/// `rand` shim, so a change there cannot move the generated load.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant at
    /// these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One `(kernel, GPU)` experiment scope with the kernel's five paper
/// input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// Position in the canonical `ALL_KERNELS x ALL_GPUS` order, which
    /// is what seed-independent digests are taken in.
    pub canon: usize,
    pub kernel: KernelId,
    pub gpu: Gpu,
    pub sizes: [u64; 5],
}

impl Scope {
    /// The size static analysis looks at (the paper analyses one
    /// representative size per kernel).
    pub fn mid_size(&self) -> u64 {
        self.sizes[2]
    }
}

/// The 16 scopes in canonical order.
pub fn canonical_scopes() -> Vec<Scope> {
    let mut out = Vec::new();
    for kernel in ALL_KERNELS {
        for gpu in ALL_GPUS {
            out.push(Scope {
                canon: out.len(),
                kernel,
                gpu,
                sizes: kernel.input_sizes(),
            });
        }
    }
    out
}

/// Searcher seeds per scope: four per strategy run.
pub const SEARCH_SEEDS: usize = 4;
/// Length of the single-point RPC sample sequence; consumers wrap.
pub const RPC_SEQUENCE: usize = 4096;

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Two scopes only; such runs are never compared with full ones.
    pub quick: bool,
    /// Scopes in seed-shuffled order.
    pub scopes: Vec<Scope>,
    /// Per scope (same positions as `scopes`): the space's flat indices
    /// in seed-shuffled order — the request order of batch sweeps.
    pub point_order: Vec<Vec<u32>>,
    /// Per scope: the seeds handed to the stochastic searchers.
    pub search_seeds: Vec<[u64; SEARCH_SEEDS]>,
    /// `(scope position, flat index)` of each single-point RPC.
    pub rpc_sequence: Vec<(usize, u32)>,
}

impl Inputs {
    /// Generates the inputs for `seed` over a space of `space_len`
    /// points. `quick` keeps the first two shuffled scopes only.
    pub fn generate(seed: u64, space_len: usize, quick: bool) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut scopes = canonical_scopes();
        rng.shuffle(&mut scopes);
        if quick {
            scopes.truncate(2);
        }
        let point_order = scopes
            .iter()
            .map(|_| {
                let mut order: Vec<u32> = (0..space_len as u32).collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        let search_seeds = scopes
            .iter()
            .map(|_| std::array::from_fn(|_| rng.next_u64()))
            .collect();
        let rpc_sequence = (0..RPC_SEQUENCE)
            .map(|_| (rng.below(scopes.len()), rng.below(space_len) as u32))
            .collect();
        Inputs {
            quick,
            scopes,
            point_order,
            search_seeds,
            rpc_sequence,
        }
    }

    /// Positions (into `scopes`) of the scopes `disk_roundtrip` uses:
    /// every kernel on K20 and P100 (all generated scopes when quick).
    pub fn disk_scopes(&self) -> Vec<usize> {
        (0..self.scopes.len())
            .filter(|&i| self.quick || matches!(self.scopes[i].gpu, Gpu::K20 | Gpu::P100))
            .collect()
    }

    /// FNV-1a over the generated scope and point orders and derived
    /// seeds — two runs fed the same inputs print the same value.
    pub fn order_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (scope, order) in self.scopes.iter().zip(&self.point_order) {
            h.word(scope.canon as u64);
            for &i in order {
                h.word(u64::from(i));
            }
        }
        for seeds in &self.search_seeds {
            for &s in seeds {
                h.word(s);
            }
        }
        for &(s, i) in &self.rpc_sequence {
            h.word(s as u64);
            h.word(u64::from(i));
        }
        h.finish()
    }
}

/// Word-wise FNV-1a fold: the harness's cheap order-sensitive digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(7, 5120, false);
        let b = Inputs::generate(7, 5120, false);
        assert_eq!(a.order_digest(), b.order_digest());
        assert_eq!(a.scopes, b.scopes);
        assert_eq!(a.point_order, b.point_order);
    }

    #[test]
    fn another_seed_reorders_the_same_set() {
        let a = Inputs::generate(7, 5120, false);
        let b = Inputs::generate(8, 5120, false);
        assert_ne!(a.order_digest(), b.order_digest());
        assert_ne!(a.point_order, b.point_order);
        // Same set of (scope, point) pairs once sorted.
        let flatten = |x: &Inputs| {
            let mut all: Vec<(usize, u32)> = x
                .scopes
                .iter()
                .zip(&x.point_order)
                .flat_map(|(s, order)| order.iter().map(move |&i| (s.canon, i)))
                .collect();
            all.sort_unstable();
            all
        };
        assert_eq!(flatten(&a), flatten(&b));
        assert_eq!(flatten(&a).len(), 16 * 5120);
    }

    #[test]
    fn quick_keeps_two_scopes_and_disk_uses_them() {
        let q = Inputs::generate(3, 64, true);
        assert_eq!(q.scopes.len(), 2);
        assert_eq!(q.disk_scopes(), vec![0, 1]);
        assert!(q.rpc_sequence.iter().all(|&(s, i)| s < 2 && i < 64));
        let full = Inputs::generate(3, 64, false);
        assert_eq!(full.disk_scopes().len(), 8);
    }
}
