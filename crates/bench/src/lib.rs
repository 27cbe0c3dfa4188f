//! # vpce-bench — the paper's evaluation, regenerated
//!
//! One module per experiment of `DESIGN.md` §4:
//!
//! * [`table1`] — MM speedups over matrix size × node count;
//! * [`table2`] — communication time at fine/middle/coarse granularity
//!   for MM, SWIM and CFFT2INIT;
//! * [`hwclaims`] — the §1/§2 hardware claims: SKWP vs conventional
//!   pipelining (C1), V-Bus card vs Fast Ethernet (C2), virtual-bus vs
//!   software broadcast (C3), DMA vs PIO one-sided transfers (C4);
//! * [`machine`] — the machines × workloads sweep: every built-in
//!   machine description (paper baseline, link ablations, the non-mesh
//!   topology zoo) runs every example workload end to end, with the
//!   fabric-independent-numerics invariant checked per cell;
//! * [`ablation`] — AVPG elimination (A1), user-level vs kernel stack
//!   (A2), block vs cyclic partitioning (A3), and the §5.6 overlap
//!   safety check (A4);
//! * [`chaos`] — the fault matrix: workloads under seeded fault
//!   schedules, recording the self-healing transport's counters and
//!   the byte-identity invariant;
//! * [`sched`] — the batch-scheduler sweep: seeded traffic storms over
//!   machine size × arrival rate × policy (fcfs vs backfill),
//!   recording utilization, gang concurrency and wait percentiles;
//! * [`transport`] — the eager/rendezvous crossover grid: message size
//!   × protocol mode (auto and both forced) × registered pool size,
//!   recording the per-protocol ledgers and the achieved bandwidth;
//! * [`serve`] — the `vpced` service benchmark: sustained submission
//!   ingest, time-to-recovery from a sealed journal, and the seeded
//!   kill/restart matrix (amortised cost per kill point);
//! * [`recover`] — the rollback-recovery sweep: checkpoint premium on
//!   a crash-free run, time-to-recover and replay amplification across
//!   seeded crash schedules, with byte-identity cross-checked on every
//!   absorbed schedule.
//!
//! Each module computes plain data structures; the binaries print them
//! as the paper-style rows recorded in `EXPERIMENTS.md`.
//!
//! Every number a sweep exports is **virtual time or a count** — a pure
//! function of the source tree. The eight sweeps with a `json_doc`
//! commit it as `BENCH_*.json` at the repository root, held
//! byte-for-byte by `tests/bench_golden.rs`; a binary's `--json PATH`
//! writes the same document. Nothing here reads the host's clock: host
//! time has one ruler, `perfbench/`.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod hwclaims;
pub mod machine;
pub mod recover;
pub mod sched;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod transport;

/// The sweep binaries' whole command line: `--json PATH` plus the
/// numeric options named in `numeric` (with their defaults). Returns
/// the path and the values in `numeric`'s order; anything else is a
/// usage error (exit 2).
pub fn sweep_args<const N: usize>(numeric: [(&str, u64); N]) -> (Option<String>, [u64; N]) {
    let mut json_path = None;
    let mut values = numeric.map(|(_, default)| default);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = numeric.iter().position(|(name, _)| *name == a);
        match (a.as_str(), slot) {
            ("--json", _) => json_path = Some(args.next().expect("--json needs a path")),
            (_, Some(i)) => {
                values[i] = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{a} needs a number"))
            }
            _ => {
                let names: String = numeric.iter().map(|(n, _)| format!(", {n} N")).collect();
                eprintln!("unknown argument `{a}` (accepted: --json PATH{names})");
                std::process::exit(2);
            }
        }
    }
    (json_path, values)
}

/// What `--json PATH` does with a sweep's `json_doc`.
pub fn write_json(path: Option<String>, doc: &str) {
    if let Some(path) = path {
        std::fs::write(&path, doc).expect("write --json output");
        eprintln!("wrote {path}");
    }
}

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
