//! Phase-level compile profiler.
//!
//! Process-wide wall-clock and invocation counters for the four
//! front-end phases (unroll → lower → optimize → regalloc), accumulated
//! with relaxed atomics so instrumentation stays off the contended path.
//! The tuner snapshots [`telemetry`] into its `EvalStats`, `tune
//! --stats` prints the per-phase split, and the service surfaces it in
//! `service stats` — so future optimization work can see where cold
//! compile time goes without re-instrumenting.
//!
//! Counters are cumulative for the process lifetime, like the
//! `ProgramIndex` build counters in `oriole-ir`: consumers diff two
//! snapshots to attribute time to a window of work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A front-end compile phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Loop unrolling (`transform::unroll`), keyed by UIF.
    Unroll,
    /// AST → linear IR lowering, then the program's index build.
    Lower,
    /// Peephole cleanup (`optimize::peephole`), ablation path only.
    Optimize,
    /// Register allocation (`regalloc::allocate`).
    Regalloc,
}

static UNROLL_NS: AtomicU64 = AtomicU64::new(0);
static UNROLL_CALLS: AtomicU64 = AtomicU64::new(0);
static LOWER_NS: AtomicU64 = AtomicU64::new(0);
static LOWER_CALLS: AtomicU64 = AtomicU64::new(0);
static OPTIMIZE_NS: AtomicU64 = AtomicU64::new(0);
static OPTIMIZE_CALLS: AtomicU64 = AtomicU64::new(0);
static REGALLOC_NS: AtomicU64 = AtomicU64::new(0);
static REGALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

fn counters(phase: Phase) -> (&'static AtomicU64, &'static AtomicU64) {
    match phase {
        Phase::Unroll => (&UNROLL_NS, &UNROLL_CALLS),
        Phase::Lower => (&LOWER_NS, &LOWER_CALLS),
        Phase::Optimize => (&OPTIMIZE_NS, &OPTIMIZE_CALLS),
        Phase::Regalloc => (&REGALLOC_NS, &REGALLOC_CALLS),
    }
}

/// Times `f` and accounts its wall-clock cost to `phase`.
pub(crate) fn time<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (ns_ctr, calls_ctr) = counters(phase);
    ns_ctr.fetch_add(ns, Ordering::Relaxed);
    calls_ctr.fetch_add(1, Ordering::Relaxed);
    out
}

/// A snapshot of the cumulative per-phase counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTelemetry {
    /// Nanoseconds spent unrolling.
    pub unroll_ns: u64,
    /// Unroll invocations.
    pub unroll_calls: u64,
    /// Nanoseconds spent lowering (including the index build).
    pub lower_ns: u64,
    /// Lower invocations.
    pub lower_calls: u64,
    /// Nanoseconds spent in peephole optimization.
    pub optimize_ns: u64,
    /// Peephole invocations.
    pub optimize_calls: u64,
    /// Nanoseconds spent in register allocation.
    pub regalloc_ns: u64,
    /// Register-allocation invocations.
    pub regalloc_calls: u64,
}

impl PhaseTelemetry {
    /// Counter-wise difference against an earlier snapshot (saturating,
    /// so a stale `before` cannot underflow).
    #[must_use]
    pub fn since(&self, before: &PhaseTelemetry) -> PhaseTelemetry {
        PhaseTelemetry {
            unroll_ns: self.unroll_ns.saturating_sub(before.unroll_ns),
            unroll_calls: self.unroll_calls.saturating_sub(before.unroll_calls),
            lower_ns: self.lower_ns.saturating_sub(before.lower_ns),
            lower_calls: self.lower_calls.saturating_sub(before.lower_calls),
            optimize_ns: self.optimize_ns.saturating_sub(before.optimize_ns),
            optimize_calls: self.optimize_calls.saturating_sub(before.optimize_calls),
            regalloc_ns: self.regalloc_ns.saturating_sub(before.regalloc_ns),
            regalloc_calls: self.regalloc_calls.saturating_sub(before.regalloc_calls),
        }
    }
}

/// Snapshots the process-wide per-phase counters.
pub fn telemetry() -> PhaseTelemetry {
    PhaseTelemetry {
        unroll_ns: UNROLL_NS.load(Ordering::Relaxed),
        unroll_calls: UNROLL_CALLS.load(Ordering::Relaxed),
        lower_ns: LOWER_NS.load(Ordering::Relaxed),
        lower_calls: LOWER_CALLS.load(Ordering::Relaxed),
        optimize_ns: OPTIMIZE_NS.load(Ordering::Relaxed),
        optimize_calls: OPTIMIZE_CALLS.load(Ordering::Relaxed),
        regalloc_ns: REGALLOC_NS.load(Ordering::Relaxed),
        regalloc_calls: REGALLOC_CALLS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accounts_to_the_right_phase() {
        let before = telemetry();
        let v = time(Phase::Lower, || 41 + 1);
        assert_eq!(v, 42);
        let delta = telemetry().since(&before);
        assert!(delta.lower_calls >= 1);
        // Other tests run concurrently in this process, so only the
        // phase we just drove has a guaranteed lower bound.
    }

    #[test]
    fn since_saturates() {
        let big = PhaseTelemetry { unroll_ns: 5, ..PhaseTelemetry::default() };
        let zero = PhaseTelemetry::default();
        assert_eq!(zero.since(&big), PhaseTelemetry::default());
        assert_eq!(big.since(&zero).unroll_ns, 5);
    }
}
