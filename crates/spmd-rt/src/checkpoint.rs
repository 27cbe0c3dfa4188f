//! Fence-boundary checkpoint/restart.
//!
//! The service layer (`vpce-serve`) preempts running jobs by
//! snapshotting their universe at a *block boundary* and resuming the
//! remainder later. Two properties of the runtime make this exact
//! rather than approximate:
//!
//! 1. **Master state is authoritative at every boundary.** The §3
//!    protocol ends every parallel region with collect → fence →
//!    barrier, and sequential blocks execute on the master only — so
//!    at a top-level block boundary the master's windows and scalars
//!    determine all live program state. Slave copies that survive a
//!    boundary (the AVPG's delayed-communication elisions skip
//!    re-scattering regions a slave already holds fresh) agree with
//!    the master's content by the validity invariant, so re-seeding
//!    every rank with the master image reconstructs them exactly.
//! 2. **Execution is a pure function of (program, cluster, faults).**
//!    A fresh run of the first `k` blocks therefore reconstructs the
//!    boundary-`k` state bit for bit — no mid-run capture machinery,
//!    no serialization of in-flight messages (there are none at a
//!    boundary; the fence drained them).
//!
//! So a checkpoint is literally *a run of the prefix program*
//! ([`checkpoint_at`]), and a restart is *a run of the remaining
//! blocks with the master pre-seeded* ([`resume`], via
//! [`try_execute_suppressed`]). Rank-level fault draws are keyed by
//! `(rank, region serial)` and the serial is a region's position in the
//! whole program ([`SpmdProgram::numbered_regions`]), so crash/slowdown
//! draws land on the same regions as in the uninterrupted execution.
//!
//! What is and is not bit-exact:
//!
//! * final arrays and scalars of `resume(checkpoint_at(k))` equal the
//!   uninterrupted run's, byte for byte (asserted in tests);
//! * `snapshot.elapsed` equals the uninterrupted run's
//!   `boundaries[k-1]`, byte for byte;
//! * `snapshot.elapsed + resume.elapsed` is only *approximately* the
//!   uninterrupted `elapsed` — the virtual clocks accumulate the same
//!   increments from a different origin, and f64 addition is not
//!   associative. Nothing in the service layer depends on exact
//!   additivity; every duration it schedules with is itself a pure
//!   per-segment value.

use cluster_sim::ClusterConfig;
use mpi2::Elem;
use vpce_faults::{FaultSpec, VpceError};
use vpce_trace::Tracer;

use crate::exec::{try_execute, try_execute_suppressed, ExecMode, RunReport};
use crate::ir::SpmdProgram;
use crate::value::Value;

/// Master state at a top-level block boundary. Everything needed to
/// continue the program later is here; the universe itself (windows,
/// network, clocks) is reconstructed on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Number of top-level blocks already executed.
    pub boundary: usize,
    /// Virtual seconds the prefix took (rank-max). Equals the
    /// uninterrupted run's `boundaries[boundary - 1]` bit for bit.
    pub elapsed: f64,
    /// Master's window contents at the boundary, one per program
    /// array, full-size.
    pub arrays: Vec<Vec<Elem>>,
    /// Master's scalar values at the boundary.
    pub scalars: Vec<Value>,
}

impl Snapshot {
    /// Payload bytes a journaled/serialized form of this snapshot
    /// would carry (array elements only — scalars are noise). Used by
    /// the service layer to charge checkpoint I/O deterministically.
    pub fn payload_bytes(&self) -> u64 {
        self.arrays
            .iter()
            .map(|a| (a.len() * std::mem::size_of::<Elem>()) as u64)
            .sum()
    }
}

/// The prefix program: the first `k` blocks of `prog` (the sequential
/// reference is irrelevant for a parallel run and carried unchanged).
fn prefix_program(prog: &SpmdProgram, k: usize) -> SpmdProgram {
    let mut pre = prog.clone();
    pre.blocks.truncate(k);
    pre
}

/// Capture the boundary-`k` state of `prog` under the given fault
/// schedule by running the prefix fresh. Errors if an injected fault
/// in the prefix is unsurvivable — a crashed attempt has no
/// checkpointable state and goes through the normal requeue path.
///
/// # Panics
/// Panics if `k` is not an interior boundary (`1..=blocks.len()`).
pub fn checkpoint_at(
    prog: &SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    faults: FaultSpec,
    k: usize,
) -> Result<Snapshot, VpceError> {
    assert!(
        k >= 1 && k <= prog.blocks.len(),
        "boundary {k} out of range for a {}-block program",
        prog.blocks.len()
    );
    let rep = try_execute(&prefix_program(prog, k), cluster, mode, faults)?;
    Ok(Snapshot {
        boundary: k,
        elapsed: rep.elapsed,
        arrays: rep.arrays,
        scalars: rep.scalars,
    })
}

/// Continue `prog` from a snapshot: run the remaining blocks with the
/// master pre-seeded. The report's `elapsed` is the remainder's cost
/// from a zero clock (pure, cacheable); its arrays/scalars are the
/// program's final state.
pub fn resume(
    prog: &SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    faults: FaultSpec,
    snap: &Snapshot,
) -> Result<RunReport, VpceError> {
    let no_mask = std::collections::BTreeSet::new();
    try_execute_suppressed(prog, cluster, mode, Tracer::disabled(), faults, Some(snap), &no_mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{assert_same_virtual_run, axpy_prog};
    use crate::exec::ExecMode;
    use crate::ir::*;
    use lmad::RegionTransfer;

    /// axpy followed by a second region that rewrites C in place
    /// (C[i] = C[i] + A[i]) and a trailing master block that sums C
    /// into scalar S — three boundaries, master scalar state crossing
    /// the last one.
    fn two_region_prog(nprocs: usize) -> SpmdProgram {
        let mut prog = axpy_prog(nprocs);
        let n = 16usize;
        let chunk = n / nprocs;
        let per_rank = |array: usize| -> Vec<Vec<CommOp>> {
            (0..nprocs)
                .map(|r| {
                    if r == 0 {
                        vec![]
                    } else {
                        vec![CommOp {
                            array,
                            descriptor: RegionTransfer {
                                offset: (r * chunk) as i64,
                                stride: 1,
                                count: chunk as u64,
                            }
                            .into(),
                        }]
                    }
                })
                .collect()
        };
        let i_var = 0usize;
        let idx = |v: usize| {
            Expr::Bin(
                BinOp::Sub,
                Box::new(Expr::Scalar(v)),
                Box::new(Expr::IConst(1)),
            )
        };
        let body = vec![Instr::StoreArray {
            array: 1,
            index: idx(i_var),
            value: Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Load { array: 1, index: Box::new(idx(i_var)) }),
                Box::new(Expr::Load { array: 0, index: Box::new(idx(i_var)) }),
            ),
        }];
        let region2 = ParRegion {
            var: i_var,
            lo: 1,
            step: 1,
            trips: n as u64,
            sched: Schedule::Block,
            body: body.into(),
            // C is read-write in this region: scatter and collect it.
            scatter: CommPlan { per_rank: per_rank(1) },
            collect: CommPlan { per_rank: per_rank(1) },
            pull_scatter: false,
            lock_reductions: false,
            scalars_in: vec![],
            private_scalars: vec![],
            reductions: vec![],
            line: 2,
        };
        prog.scalars.push(("S".into(), false));
        let s_var = prog.scalars.len() - 1;
        let tail = vec![Instr::Loop {
            var: i_var,
            lo: Expr::IConst(1),
            hi: Expr::IConst(n as i64),
            step: 1,
            body: vec![Instr::StoreScalar {
                slot: s_var,
                value: Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Scalar(s_var)),
                    Box::new(Expr::Load { array: 1, index: Box::new(idx(i_var)) }),
                ),
            }],
        }];
        prog.blocks.push(Block::Parallel(region2));
        prog.blocks.push(Block::MasterSeq(tail.into()));
        prog
    }

    #[test]
    fn boundaries_match_prefix_elapsed_bit_for_bit() {
        let prog = two_region_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let full = try_execute(&prog, &cluster, ExecMode::Full, FaultSpec::off()).unwrap();
        assert_eq!(full.boundaries.len(), prog.blocks.len());
        for k in 1..=prog.blocks.len() {
            let pre =
                try_execute(&prefix_program(&prog, k), &cluster, ExecMode::Full, FaultSpec::off())
                    .unwrap();
            assert_eq!(
                pre.elapsed.to_bits(),
                full.boundaries[k - 1].to_bits(),
                "boundary {k}"
            );
        }
        assert_eq!(full.boundaries.last().unwrap().to_bits(), full.elapsed.to_bits());
    }

    #[test]
    fn resume_from_every_boundary_reproduces_final_state() {
        let prog = two_region_prog(4);
        let cluster = ClusterConfig::paper_4node();
        for k in 1..prog.blocks.len() {
            let resumed = [ExecMode::Full, ExecMode::Analytic].map(|mode| {
                let full = try_execute(&prog, &cluster, mode, FaultSpec::off()).unwrap();
                let snap = checkpoint_at(&prog, &cluster, mode, FaultSpec::off(), k).unwrap();
                assert_eq!(snap.elapsed.to_bits(), full.boundaries[k - 1].to_bits(), "{mode:?} {k}");
                let res = resume(&prog, &cluster, mode, FaultSpec::off(), &snap).unwrap();
                assert_eq!(res.arrays, full.arrays, "{mode:?} boundary {k}");
                assert_eq!(res.scalars, full.scalars, "{mode:?} boundary {k}");
                // Remainder + prefix covers the run: the overshoot is the
                // resumed universe's re-initialization (win_create et al.)
                // — the natural restore overhead — never a shortfall.
                let sum = snap.elapsed + res.elapsed;
                assert!(
                    sum >= full.elapsed * (1.0 - 1e-12) && sum - full.elapsed < 1e-3,
                    "{mode:?} boundary {k}: {sum} vs {}",
                    full.elapsed
                );
                res
            });
            // Seeding an analytic slave's length-only windows stores
            // nothing; the remainder costs exactly what it costs in
            // `Full`.
            let [full, ana] = resumed;
            assert_same_virtual_run(&full, &ana, &format!("boundary {k}"));
        }
    }

    #[test]
    fn resumed_fault_draws_line_up_with_the_full_run() {
        let prog = two_region_prog(4);
        let cluster = ClusterConfig::paper_4node();
        // Find a seed whose crash draw fires in the *second* region:
        // the prefix through region 1 survives, the full run dies.
        let mut exercised = 0;
        for seed in 0..200u64 {
            let spec = FaultSpec { seed, rank_crash: 0.05, ..FaultSpec::off() };
            let full = try_execute(&prog, &cluster, ExecMode::Full, spec.clone());
            let Ok(snap) = checkpoint_at(&prog, &cluster, ExecMode::Full, spec.clone(), 2)
            else {
                // Crash in region 1: nothing to resume, consistent with
                // the full run also dying.
                assert!(full.is_err(), "seed {seed}");
                continue;
            };
            let res = resume(&prog, &cluster, ExecMode::Full, spec, &snap);
            // The remainder must reproduce the full run's fate exactly:
            // same survival, and on crash the same region label.
            match (full, res) {
                (Ok(f), Ok(r)) => assert_eq!(f.arrays, r.arrays, "seed {seed}"),
                (Err(ef), Err(er)) => {
                    assert_eq!(ef.to_string(), er.to_string(), "seed {seed}");
                    exercised += 1;
                }
                (f, r) => panic!("seed {seed}: full {f:?} vs resumed {r:?}"),
            }
        }
        assert!(exercised > 0, "no seed crashed in the resumed remainder");
    }

    #[test]
    fn snapshot_payload_counts_array_bytes() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let snap = checkpoint_at(&prog, &cluster, ExecMode::Full, FaultSpec::off(), 1).unwrap();
        assert_eq!(snap.payload_bytes(), (2 * 16 * std::mem::size_of::<Elem>()) as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn boundary_zero_is_not_a_checkpoint() {
        let prog = axpy_prog(4);
        let _ = checkpoint_at(
            &prog,
            &ClusterConfig::paper_4node(),
            ExecMode::Full,
            FaultSpec::off(),
            0,
        );
    }
}
