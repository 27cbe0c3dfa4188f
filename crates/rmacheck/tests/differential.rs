//! Differential soundness: the static checker is validated against
//! the *dynamic* epoch-conflict ledger in `mpi2::conflict` — the
//! runtime ground truth that records every undefined-outcome pair at
//! each closing fence with exact element-level intersection.
//!
//! The property (soundness direction): **no plan may pass the static
//! checker yet trip the dynamic ledger**. The static side is allowed
//! to over-approximate (flag a conflict the runtime never realises),
//! never to under-approximate. Random fence-structured plans are
//! executed on the simulated cluster and simultaneously lowered to an
//! [`rmacheck::RmaTrace`]; any dynamically recorded conflict must be
//! matched by a non-clean static verdict. Both sides scan an epoch
//! through `lmad::epoch`, so what differs — and what this suite
//! compares — is the lowering against the runtime, and `Lmad::overlaps`
//! against the ledger's exact progression test.
//!
//! Seeds are pinned in `testkit-regressions/` so known-hard cases
//! replay first.

use cluster_sim::ClusterConfig;
use lmad::Lmad;
use mpi2::Universe;
use rmacheck::{lint_trace, AccessKind, Op, RmaTrace, Site, SyncKind};
use vpce_testkit::prelude::*;

/// Every generated window has this many elements.
const WIN_LEN: usize = 16;

/// One random one-sided operation of a random plan.
#[derive(Debug, Clone, Copy)]
struct PlanOp {
    origin: usize,
    target: usize,
    win: usize,
    is_put: bool,
    off: usize,
    stride: usize,
    count: usize,
}

/// A random fence-structured plan: `epochs[e]` is the operation batch
/// every rank issues (filtered by origin) before the e-th fence.
#[derive(Debug, Clone)]
struct Plan {
    nranks: usize,
    nwins: usize,
    epochs: Vec<Vec<PlanOp>>,
}

fn plan_gen() -> Gen<Plan> {
    let op = zip4(
        zip2(usize_in(0, 2), usize_in(0, 2)),
        zip2(usize_in(0, 1), bool_any()),
        zip2(usize_in(0, WIN_LEN - 1), usize_in(1, 3)),
        usize_in(1, 6),
    )
    .map(
        |((origin, target), (win, is_put), (off, stride), count)| PlanOp {
            origin,
            target,
            win,
            is_put,
            off,
            stride,
            count,
        },
    );
    zip3(
        zip2(usize_in(2, 3), usize_in(1, 2)),
        vec_of(vec_of(op, 0, 5), 1, 3),
        just(()),
    )
    .map(|((nranks, nwins), epochs, ())| {
        // Clamp the raw draws into the plan's actual shape: ranks and
        // windows modulo the instance sizes, counts trimmed to stay
        // inside the window.
        let epochs = epochs
            .into_iter()
            .map(|ops| {
                ops.into_iter()
                    .map(|mut o| {
                        o.origin %= nranks;
                        o.target %= nranks;
                        o.win %= nwins;
                        let fit = 1 + (WIN_LEN - 1 - o.off) / o.stride;
                        o.count = o.count.min(fit);
                        o
                    })
                    .collect()
            })
            .collect();
        Plan {
            nranks,
            nwins,
            epochs,
        }
    })
}

/// Execute the plan on the simulated cluster and return the dynamic
/// ledger's verdict.
fn run_dynamic(plan: &Plan) -> Vec<mpi2::ConflictRecord> {
    let uni = Universe::new(ClusterConfig::paper_n(plan.nranks));
    let out = uni.run(|mpi| {
        let wins: Vec<_> = (0..plan.nwins).map(|_| mpi.win_create(WIN_LEN)).collect();
        let me = mpi.rank();
        for ops in &plan.epochs {
            for op in ops.iter().filter(|o| o.origin == me) {
                let w = &wins[op.win];
                if op.is_put {
                    let data = vec![me as f64 + 1.0; op.count];
                    if op.stride == 1 {
                        mpi.put(w, op.target, op.off, data).unwrap();
                    } else {
                        mpi.put_strided(w, op.target, op.off, op.stride, data).unwrap();
                    }
                } else if op.stride == 1 {
                    mpi.get(w, op.target, op.off, op.count).unwrap();
                } else {
                    mpi.get_strided(w, op.target, op.off, op.stride, op.count).unwrap();
                }
            }
            mpi.fence_all();
        }
    });
    out.rma_conflicts
}

/// Lower the same plan to the static checker's trace form.
fn to_trace(plan: &Plan) -> RmaTrace {
    let names = (0..plan.nwins).map(|w| format!("W{w}")).collect();
    let mut trace = RmaTrace::new(plan.nranks, names);
    for ops in &plan.epochs {
        for op in ops {
            trace.op(
                op.origin,
                Op {
                    win: op.win,
                    target: op.target,
                    kind: if op.is_put {
                        AccessKind::Put
                    } else {
                        AccessKind::Get
                    },
                    region: Lmad::strided(op.off as i64, op.stride as i64, op.count as u64),
                    messages: None,
                    line: 0,
                    site: Site::Synthetic,
                },
            );
        }
        trace.sync_all(SyncKind::Fence);
    }
    trace
}

/// The acceptance-criteria property: over ≥ 1000 seeded random plans,
/// the static checker never stays green on a run the dynamic ledger
/// flags.
#[test]
fn static_checker_is_sound_wrt_dynamic_ledger() {
    Check::new("rmacheck::static_checker_is_sound_wrt_dynamic_ledger")
        .cases(1000)
        .run(&plan_gen(), |plan| {
            let dynamic = run_dynamic(plan);
            let report = lint_trace(&to_trace(plan), "random-plan");
            prop_assert!(
                dynamic.is_empty() || !report.is_clean(),
                "soundness hole: dynamic ledger recorded {} conflict(s) \
                 (first: {:?}) but the static checker reported clean",
                dynamic.len(),
                dynamic.first()
            );
            Ok(())
        });
}

/// The static verdict is per-(window, shard) at least as specific as
/// the dynamic one: every dynamically flagged (win, shard) pair shows
/// up in some static diagnostic on the same window.
#[test]
fn static_diagnostics_cover_dynamic_conflict_sites() {
    Check::new("rmacheck::static_diagnostics_cover_dynamic_conflict_sites")
        .cases(300)
        .run(&plan_gen(), |plan| {
            let dynamic = run_dynamic(plan);
            let report = lint_trace(&to_trace(plan), "random-plan");
            for c in &dynamic {
                prop_assert!(
                    report
                        .diags
                        .iter()
                        .any(|d| d.win == c.win && d.shard == c.shard),
                    "dynamic conflict on (win {}, shard {}) has no static \
                     diagnostic at that site",
                    c.win,
                    c.shard
                );
            }
            Ok(())
        });
}
