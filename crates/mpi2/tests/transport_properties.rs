//! Property wall around the eager/rendezvous transport.
//!
//! Random one-sided workloads with window shapes, sizes and strides
//! straddling the protocol threshold must be (a) byte-identical to a
//! naive copy oracle regardless of which protocol carried each
//! transfer, (b) leak-free on the registered pools (high-water mark
//! bounded by capacity, free list full after the run quiesces), and
//! (c) fully deterministic: the same scenario replayed gives identical
//! protocol choices, counters and network statistics — and so does a
//! replay on length-only windows, which move no values.
//!
//! Conflict-freedom by construction: origin `r` only ever touches
//! elements of stripe `r` (`[r*SEG, (r+1)*SEG)`) — its PUTs and
//! ACCUMULATEs write that stripe on the target, its GETs read that
//! stripe into its own shard — so every memory cell is totally ordered
//! by one origin's program order and the serial oracle is exact. A
//! scenario accumulates with one operator throughout. Within an epoch
//! each program issues its own-shard PUTs first, then the caller-buffer
//! PUTs and ACCUMULATEs, then the GETs: a PUT captures its source at
//! issue time (the MPI-2 rule that a local buffer handed to PUT must
//! not change before the epoch closes), so a PUT sourced from a region
//! that a pending same-epoch GET — or a buffer PUT to self — will
//! overwrite is an erroneous program the oracle cannot model.

use cluster_sim::ClusterConfig;
use mpi2::{AccumulateOp, RunOutcome, Universe, ELEM_BYTES};
use vpce_testkit::prelude::*;

const RANKS: usize = 3;
/// Elements per origin stripe; 8 KB of payload spans the few-KB
/// eager/rendezvous threshold of the paper machine.
const SEG: usize = 1024;
const WIN: usize = RANKS * SEG;

/// Where an origin-side payload comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    /// The origin's own shard, at the offsets the op targets.
    Region,
    /// A caller buffer handed to `put` / `put_strided` / `accumulate`.
    UserBuffer,
}

/// One one-sided transfer confined to the origin's stripe.
#[derive(Debug, Clone)]
struct Op {
    target: usize,
    /// Offset within the origin's stripe.
    off: usize,
    /// 1 = contiguous (DMA/eager memcpy), >1 = strided.
    stride: usize,
    len: usize,
    get: bool,
    /// Ignored by GETs, whose payload is the target's shard.
    src: Src,
    /// `Some` = `accumulate` (contiguous, caller buffer), else a PUT.
    acc: Option<AccumulateOp>,
}

impl Op {
    /// Issue order inside the epoch (see module docs).
    fn phase(&self) -> usize {
        match (self.get, self.src) {
            (false, Src::Region) => 0,
            (false, Src::UserBuffer) => 1,
            (true, _) => 2,
        }
    }

    /// The caller buffer of op `k` of rank `r`'s program: distinct from
    /// every fill value, both signs so `Max`/`Min` pick either side.
    fn payload(&self, r: usize, k: usize) -> Vec<f64> {
        (0..self.len)
            .map(|i| {
                let v = ((r * 8 + k) * SEG + i + 1) as f64 + 0.5;
                if i % 2 == 0 { v } else { -v }
            })
            .collect()
    }
}

/// Per-origin programs, `progs[r]` = the ops rank `r` issues in order.
#[derive(Debug, Clone)]
struct Scenario {
    progs: Vec<Vec<Op>>,
}

fn arb_scenario() -> Gen<Scenario> {
    let op = zip4(
        usize_in(0, RANKS - 1),
        zip2(usize_in(0, 64), usize_in(1, 3)),
        usize_in(1, SEG),
        usize_in(0, 3),
    );
    let acc_op = elem_of(vec![
        AccumulateOp::Sum,
        AccumulateOp::Prod,
        AccumulateOp::Max,
        AccumulateOp::Min,
    ]);
    zip2(acc_op, vec_of(vec_of(op, 0, 5), RANKS, RANKS)).map(|(acc_op, progs)| {
        let mut progs: Vec<Vec<Op>> = progs
            .into_iter()
            .map(|prog| {
                prog.into_iter()
                    .map(|(target, (off, stride), len, kind)| {
                        let (get, src, acc) = match kind {
                            0 => (false, Src::Region, None),
                            1 => (false, Src::UserBuffer, None),
                            2 => (true, Src::Region, None),
                            _ => (false, Src::UserBuffer, Some(acc_op)),
                        };
                        let stride = if acc.is_some() { 1 } else { stride };
                        // Clamp the footprint to the stripe:
                        // off + (len-1)*stride + 1 <= SEG.
                        let len = len.min((SEG - off).div_ceil(stride)).max(1);
                        Op {
                            target,
                            off,
                            stride,
                            len,
                            get,
                            src,
                            acc,
                        }
                    })
                    .collect()
            })
            .collect();
        for prog in &mut progs {
            prog.sort_by_key(Op::phase);
        }
        Scenario { progs }
    })
}

/// Deterministic nonzero fill of rank `r`'s shard.
fn fill(r: usize) -> Vec<f64> {
    (0..WIN).map(|i| (r * WIN + i + 1) as f64).collect()
}

/// The serial oracle: apply each origin's program in order against
/// model shards. Exact because stripes partition every shard by
/// origin.
fn oracle(sc: &Scenario) -> Vec<Vec<f64>> {
    let mut shards: Vec<Vec<f64>> = (0..RANKS).map(fill).collect();
    for (r, prog) in sc.progs.iter().enumerate() {
        let base = r * SEG;
        for (k, op) in prog.iter().enumerate() {
            let buf = op.payload(r, k);
            for (i, &b) in buf.iter().enumerate() {
                let idx = base + op.off + i * op.stride;
                if op.get {
                    let v = shards[op.target][idx];
                    shards[r][idx] = v;
                } else {
                    let v = match op.src {
                        Src::Region => shards[r][idx],
                        Src::UserBuffer => b,
                    };
                    let cell = &mut shards[op.target][idx];
                    *cell = op.acc.map_or(v, |a| a.apply(*cell, v));
                }
            }
        }
    }
    shards
}

/// Everything of an outcome but the values: clocks, per-rank ledgers,
/// net stats, conflict ledger, pool accounting.
fn fingerprint<R>(out: &RunOutcome<R>) -> String {
    format!(
        "clocks={:?} ranks={:?} net={:?} conflicts={:?} pool={:?}",
        out.clocks, out.rank_stats, out.net, out.rma_conflicts, out.pool,
    )
}

/// Run the scenario on the simulated cluster — on length-only windows
/// when asked; returns (shards, outcome [`fingerprint`]).
fn run(sc: &Scenario, length_only: bool) -> (Vec<Vec<f64>>, String) {
    let sc = sc.clone();
    let uni = Universe::new(ClusterConfig::paper_n(RANKS));
    let out = uni.run(move |mpi| {
        let w = if length_only {
            mpi.win_create_length_only(WIN)
        } else {
            mpi.win_create(WIN)
        };
        w.fill_from(&fill(mpi.rank()));
        mpi.barrier();
        let r = mpi.rank();
        for (k, op) in sc.progs[r].iter().enumerate() {
            let off = r * SEG + op.off;
            let buf = || op.payload(r, k);
            let issued = match (op.get, op.src, op.acc, op.stride) {
                (true, _, _, 1) => mpi.get(&w, op.target, off, op.len),
                (true, _, _, s) => mpi.get_strided(&w, op.target, off, s, op.len),
                (false, _, Some(a), _) => mpi.accumulate(&w, op.target, off, buf(), a),
                (false, Src::Region, None, 1) => mpi.put_region(&w, op.target, off, op.len),
                (false, Src::Region, None, s) => {
                    mpi.put_region_strided(&w, op.target, off, s, op.len)
                }
                (false, Src::UserBuffer, None, 1) => mpi.put(&w, op.target, off, buf()),
                (false, Src::UserBuffer, None, s) => {
                    mpi.put_strided(&w, op.target, off, s, buf())
                }
            };
            issued.unwrap();
        }
        mpi.fence_all();
        w.snapshot()
    });
    let fp = fingerprint(&out);
    // Pool hygiene holds on every run, not just sampled ones.
    let policy = Universe::new(ClusterConfig::paper_n(RANKS)).transport_policy();
    for (r, p) in out.pool.iter().enumerate() {
        assert_eq!(p.leaked, 0, "rank {r}: slots never returned to the pool");
        assert!(
            p.hwm <= p.slots,
            "rank {r}: high-water {} exceeds capacity {}",
            p.hwm,
            p.slots
        );
        assert_eq!(p.slots, policy.slots);
        assert_eq!(p.slot_bytes, policy.slot_bytes);
    }
    (out.results.clone(), fp)
}

#[test]
fn transfers_match_copy_oracle_across_threshold() {
    Check::new("mpi2::transfers_match_copy_oracle_across_threshold")
        .cases(24)
        .run(&arb_scenario(), |sc| {
            let (shards, _) = run(sc, false);
            let want = oracle(sc);
            for r in 0..RANKS {
                prop_assert_eq!(&shards[r], &want[r], "rank {} shard diverged", r);
            }
            Ok(())
        });
}

#[test]
fn same_scenario_replays_identical_choices_and_netstats() {
    Check::new("mpi2::same_scenario_replays_identical_choices_and_netstats")
        .cases(12)
        .run(&arb_scenario(), |sc| {
            let (shards_a, fp_a) = run(sc, false);
            let (shards_b, fp_b) = run(sc, false);
            prop_assert_eq!(&shards_a, &shards_b, "memory must be run-invariant");
            prop_assert_eq!(&fp_a, &fp_b, "protocol choices / net stats diverged");
            // Sizes, not payloads: the same program on windows without
            // storage costs exactly the same and holds no values.
            let (shards_c, fp_c) = run(sc, true);
            prop_assert!(shards_c.iter().all(Vec::is_empty), "length-only shards store nothing");
            prop_assert_eq!(&fp_a, &fp_c, "length-only windows changed what the transfers cost");
            Ok(())
        });
}

#[test]
fn mixed_window_forms_cost_the_same_and_leave_backed_shards_untouched() {
    // Rank 0 backed, the others length-only when `mixed` — the shape an
    // analytic run has. Both protocols, both directions, all three
    // operation kinds, one deliberate same-epoch conflict (ranks 1 and
    // 2 PUT rank 0's element 2048), then passive-target epochs with a
    // length-only shard on either end.
    let run = |mixed: bool| {
        let tracer = vpce_trace::Tracer::enabled();
        let uni = Universe::new(ClusterConfig::paper_n(RANKS)).with_tracer(tracer.clone());
        let out = uni.run(move |mpi| {
            let r = mpi.rank();
            let w = if mixed && r != 0 {
                mpi.win_create_length_only(WIN)
            } else {
                mpi.win_create(WIN)
            };
            w.fill_from(&fill(r));
            mpi.barrier();
            match r {
                0 => {
                    mpi.put_region(&w, 1, 0, 8).unwrap();
                    mpi.put_region(&w, 2, SEG, SEG).unwrap();
                    mpi.put_strided(&w, 1, 100, 3, vec![2.0; 5]).unwrap();
                    mpi.accumulate(&w, 2, 120, vec![1.0; 4], AccumulateOp::Sum).unwrap();
                    mpi.get(&w, 1, 16, 8).unwrap();
                    mpi.get_strided(&w, 2, 40, 2, 8).unwrap();
                }
                1 => {
                    mpi.put_region(&w, 0, 2 * SEG, 8).unwrap();
                    mpi.put(&w, 0, 200, vec![3.0; 800]).unwrap();
                    mpi.accumulate(&w, 0, 1004, vec![1e9; 4], AccumulateOp::Max).unwrap();
                    mpi.get_strided(&w, 0, 8, 2, 4).unwrap();
                }
                _ => {
                    mpi.put_region_strided(&w, 0, 2 * SEG, 4, 8).unwrap();
                    mpi.get(&w, 0, 2100, 900).unwrap();
                }
            }
            mpi.fence_all();
            // One rank at a time: lock order is otherwise OS-scheduled.
            if r == 0 {
                mpi.win_lock(&w, 1);
                mpi.put_now(&w, 1, 4, vec![9.0; 4]).unwrap();
                mpi.accumulate_now(&w, 1, 4, vec![1.0; 4], AccumulateOp::Sum).unwrap();
                mpi.win_unlock(&w, 1).unwrap();
            }
            mpi.barrier();
            if r == 1 {
                mpi.win_lock(&w, 0);
                mpi.accumulate_now(&w, 0, 0, vec![5.0; 2], AccumulateOp::Prod).unwrap();
                mpi.win_unlock(&w, 0).unwrap();
            }
            mpi.barrier();
            w.snapshot()
        });
        assert_eq!(out.rma_conflicts.len(), 1, "the planted conflict is recorded in both forms");
        let total = out.total_stats();
        assert!(total.eager_ops > 0 && total.rdvz_ops > 0, "both protocols exercised");
        (fingerprint(&out), out.results, tracer.to_chrome_json())
    };
    let (fp_backed, backed, trace_backed) = run(false);
    let (fp_mixed, mixed, trace_mixed) = run(true);
    assert_ne!(backed[0], fill(0), "between backed shards the program does move values");
    assert_eq!(mixed[0], fill(0), "no value reaches or leaves a backed shard across a length-only one");
    assert!(mixed[1].is_empty() && mixed[2].is_empty());
    assert_eq!(fp_backed, fp_mixed, "clocks, ledgers, conflicts or pools differ");
    assert_eq!(trace_backed, trace_mixed, "trace events differ");
}

#[test]
fn protocol_split_follows_the_policy_threshold() {
    // Drive one op per size across the threshold and check the ledger
    // agrees with the policy's chooser, payload byte for payload byte.
    let policy = Universe::new(ClusterConfig::paper_n(2)).transport_policy();
    let threshold_elems = policy.eager_max_bytes / ELEM_BYTES;
    for len in [1usize, 16, threshold_elems, threshold_elems + 1, 2048] {
        let uni = Universe::new(ClusterConfig::paper_n(2));
        let out = uni.run(move |mpi| {
            let w = mpi.win_create(WIN);
            if mpi.rank() == 0 {
                mpi.put_region(&w, 1, 0, len).unwrap();
            }
            mpi.fence_all();
        });
        let s = &out.rank_stats[0];
        let eager_expected = len * ELEM_BYTES <= policy.eager_max_bytes;
        assert_eq!(
            s.eager_ops,
            u64::from(eager_expected),
            "len {len}: wrong protocol"
        );
        assert_eq!(s.rdvz_ops, u64::from(!eager_expected));
        let bytes = (len * ELEM_BYTES) as u64;
        assert_eq!(s.eager_bytes + s.rdvz_bytes, bytes);
        if eager_expected {
            assert!(s.eager_copy_s > 0.0, "eager pays the staging copy");
            assert_eq!(out.pool[0].hwm, 1, "one slot staged");
        } else {
            assert_eq!(out.pool[0].hwm, 0, "rendezvous never touches the pool");
        }
    }
}

#[test]
fn exhausted_pool_backpressures_across_epochs_and_recovers() {
    // More eager transfers per epoch than slots: the overflow inside
    // one epoch falls back to rendezvous (slots cannot free before the
    // fence), and the pool still quiesces clean.
    let policy = Universe::new(ClusterConfig::paper_n(2)).transport_policy();
    let slots = policy.slots;
    let uni = Universe::new(ClusterConfig::paper_n(2));
    let out = uni.run(move |mpi| {
        let w = mpi.win_create(WIN);
        for epoch in 0..3 {
            if mpi.rank() == 0 {
                for i in 0..slots + 4 {
                    mpi.put(&w, 1, (epoch * (slots + 4) + i) % WIN, vec![1.0]).unwrap();
                }
            }
            mpi.fence_all();
        }
    });
    let s = &out.rank_stats[0];
    assert_eq!(s.eager_ops, 3 * slots as u64, "pool capacity per epoch");
    assert_eq!(s.eager_fallbacks, 3 * 4, "overflow fell back to rendezvous");
    assert_eq!(s.rdvz_ops, s.eager_fallbacks);
    assert_eq!(out.pool[0].hwm, slots, "every slot was in flight");
    assert_eq!(out.pool[0].leaked, 0, "all slots reclaimed after quiesce");
}
