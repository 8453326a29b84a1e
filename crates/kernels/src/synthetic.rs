//! Synthetic kernels for controlled experiments.
//!
//! Not part of the paper's Table IV benchmark set: [`divergent_switch`]
//! isolates one mechanism for the Fig. 1 divergence experiment.

use oriole_ir::{
    AccessPattern, AluOp, Branch, DivergenceKind, KernelAst, Loop, MemSpace, SizeExpr, Stmt,
    TripCount,
};

/// A `classes`-way divergent switch: threads fall into `classes` equal
/// groups by `tid % classes`, each taking its own arithmetic path. A warp
/// containing all classes executes every path serially — the paper's
/// Fig. 1 "performance loss incurred by branch divergence" scenario.
///
/// `classes = 1` is the control: a uniform branch every thread takes.
pub fn divergent_switch(classes: u32, work_per_class: u32) -> KernelAst {
    let classes = classes.max(1);
    let mut k = KernelAst::new("divergent_switch");
    let path = |ops: u32| vec![Stmt::ops(AluOp::FmaF32, ops)];

    // A chain of `classes` guarded sections. Thread-level, each executes
    // with probability 1/classes; warp-level, a 32-lane warp almost
    // surely contains every class, so all sections execute.
    let mut body: Vec<Stmt> = vec![Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1)];
    for _ in 0..classes {
        body.push(Stmt::If(Branch {
            divergence: if classes > 1 {
                DivergenceKind::ThreadDependent
            } else {
                DivergenceKind::Uniform
            },
            taken_fraction: 1.0 / f64::from(classes),
            then_body: path(work_per_class),
            else_body: vec![],
        }));
    }
    body.push(Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1));

    k.body = vec![Stmt::Loop(Loop {
        trip: TripCount::GridStride(SizeExpr::N2),
        unrollable: false,
        body,
    })];
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_kernel_shapes() {
        let k1 = divergent_switch(1, 32);
        assert!(!k1.has_divergence());
        let k8 = divergent_switch(8, 32);
        assert!(k8.has_divergence());
        // classes=0 clamps to 1.
        let k0 = divergent_switch(0, 32);
        assert!(!k0.has_divergence());
    }

    #[test]
    fn switch_thread_level_work_is_class_invariant() {
        use oriole_arch::Family;
        use oriole_ir::{expected_mix_of, LaunchGeometry};
        // Expected (thread-level) FLOPS stay ~constant as classes grow:
        // each thread still takes exactly one path on average.
        let geom = LaunchGeometry::new(64, 128, 32);
        let f = |classes| {
            expected_mix_of(&divergent_switch(classes, 64), Family::Kepler, geom)
                .classes()
                .flops
        };
        let base = f(1);
        for classes in [2u32, 8, 32] {
            let v = f(classes);
            assert!((v / base - 1.0).abs() < 0.25, "classes={classes}: {v} vs {base}");
        }
    }

    #[test]
    fn switch_kernel_compiles() {
        use oriole_arch::Gpu;
        use oriole_codegen::{compile, TuningParams};
        compile(&divergent_switch(4, 16), Gpu::M40.spec(), TuningParams::with_geometry(128, 48))
            .expect("synthetic kernels compile");
    }
}
