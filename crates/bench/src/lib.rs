//! # vpce-bench — the paper's evaluation, regenerated
//!
//! One module per experiment of `DESIGN.md` §4:
//!
//! * `table1` — MM speedups over matrix size × node count, and the
//!   scaling sweep past the paper's four nodes;
//! * `table2` — communication time at fine/middle/coarse granularity
//!   for MM, SWIM and CFFT2INIT;
//! * `hwclaims` — the §1/§2 hardware claims: SKWP vs conventional
//!   pipelining (C1), V-Bus card vs Fast Ethernet (C2), virtual-bus vs
//!   software broadcast (C3), DMA vs PIO one-sided transfers (C4);
//! * `machine` — the machines × workloads sweep: every built-in
//!   machine description (paper baseline, link ablations, the non-mesh
//!   topology zoo) runs every example workload end to end, with the
//!   fabric-independent-numerics invariant checked per cell;
//! * `ablation` — AVPG elimination (A1), user-level vs kernel stack
//!   (A2), block vs cyclic partitioning (A3), the §5.6 overlap safety
//!   check (A4), and push vs pull scattering (A5);
//! * `chaos` — the fault matrix: workloads under seeded fault
//!   schedules, recording the self-healing transport's counters and
//!   the byte-identity invariant;
//! * `sched` — the batch-scheduler sweep: seeded traffic storms over
//!   machine size × arrival rate × policy (fcfs vs backfill),
//!   recording utilization, gang concurrency and wait percentiles;
//! * `transport` — the eager/rendezvous crossover grid: message size
//!   × protocol mode (auto and both forced) × registered pool size,
//!   recording the per-protocol ledgers and the achieved bandwidth;
//! * `serve` — the `vpced` service benchmark: sustained submission
//!   ingest, time-to-recovery from a sealed journal, and the seeded
//!   kill/restart matrix (amortised cost per kill point);
//! * `recover` — the rollback-recovery sweep: checkpoint premium on
//!   a crash-free run, time-to-recover and replay amplification across
//!   seeded crash schedules, with byte-identity cross-checked on every
//!   absorbed schedule.
//!
//! Each module computes plain data structures. [`tables::TABLES`] names
//! one table per sweep at its committed constants: `vpce-bench <table>`
//! prints its paper-style rows (recorded in `EXPERIMENTS.md`) and exits
//! 1 on a broken invariant.
//!
//! Every number a sweep exports is **virtual time or a count** — a pure
//! function of the source tree. Each table's document is committed as
//! a `BENCH_*.json` at the repository root, held byte-for-byte (and its
//! invariants checked) by `tests/bench_golden.rs`. Nothing here reads
//! the host's clock: host time has one ruler, `perfbench/`.

#![forbid(unsafe_code)]

mod ablation;
mod chaos;
mod hwclaims;
mod machine;
mod recover;
mod sched;
mod serve;
mod table1;
mod table2;
pub mod tables;
mod transport;

/// Render a float with engineering-style precision for tables.
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.2}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0), "0");
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
        assert_eq!(fmt_secs(2.5e-6), "2.50us");
    }
}
