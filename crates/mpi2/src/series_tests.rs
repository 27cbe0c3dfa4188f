//! One series of k messages is k series of one.
//!
//! A planned op reaches this crate as one call ([`Mpi::put_series`] /
//! [`Mpi::get_series`]) and one queue entry; the messages it stands
//! for can also be issued one call each ([`Mpi::put_region`],
//! [`Mpi::get_strided`], …), each a series of one. These tests hold the
//! two equal on random plans — contiguous, strided and aliasing
//! offsets, at every grain — mixed with single-message ACCUMULATEs and
//! local work on two windows, each epoch closed by `win_fence` on one
//! window (the other's operations stay pending) or by `fence_all`, with
//! the eager pool running dry part-way through a series, with plans
//! past a window's end and ops longer than the descriptor ring, with
//! faults off, link faults alone (the NIC plane off, so an op's host
//! charges are worked out once) and NIC and link faults on, traced and
//! untraced. Equal means every rank's clock and ledger, the network
//! counters, the conflict ledger, the windows' memory, every call's
//! outcome and, when traced, the trace bytes.

use std::cell::Cell;
use std::sync::Arc;

use cluster_sim::ClusterConfig;
use lmad::{Dim, Granularity, Lmad, TransferPlan};
use vpce_faults::{FaultSpec, VpceError};
use vpce_testkit::prelude::*;
use vpce_trace::Tracer;

use crate::{AccumulateOp, Mpi, Universe, WindowRef};

const RANKS: usize = 3;

/// Elements per shard: most generated plans fit, some run past it.
const WIN: usize = 160;

#[derive(Debug, Clone)]
enum Call {
    /// A planned op: `region` lowered at `grain`, a GET from `target`
    /// or a PUT to it, on window `win`.
    Op {
        get: bool,
        win: usize,
        target: usize,
        region: Lmad,
        grain: Granularity,
    },
    /// A single-message ACCUMULATE of `len` elements at `off`.
    Acc {
        win: usize,
        target: usize,
        off: usize,
        len: usize,
        max: bool,
    },
    /// Local work: the clock moves this many microseconds.
    Work(u32),
}

/// Every rank's calls, then the fence that closes the epoch:
/// `win_fence` on that window, or `fence_all`.
type Epoch = (Vec<Vec<Call>>, Option<usize>);

/// A region of a few dims: a mapping of stride 1–3, and up to two
/// offsets dims whose strides may fall inside the dims below them
/// (aliasing offsets).
fn region() -> Gen<Lmad> {
    let dim = zip2(i64_in(1, 30), u64_in(1, 5));
    zip3(i64_in(0, 40), zip2(i64_in(1, 3), u64_in(1, 6)), vec_of(dim, 0, 2)).map(|(base, (s, c), outer)| {
        let dims = std::iter::once((s, c)).chain(outer).map(|(s, c)| Dim::new(s, c));
        Lmad::new(base, dims.collect())
    })
}

fn call() -> Gen<Call> {
    let op = zip4(bool_any(), usize_in(0, 1), usize_in(0, RANKS - 1), zip2(region(), elem_of(Granularity::ALL.to_vec())))
        .map(|(get, win, target, (region, grain))| Call::Op { get, win, target, region, grain });
    let acc = zip4(usize_in(0, 1), usize_in(0, RANKS - 1), zip2(usize_in(0, WIN), usize_in(0, 8)), bool_any())
        .map(|(win, target, (off, len), max)| Call::Acc { win, target, off, len, max });
    weighted(vec![(6, op), (1, acc), (1, u32_in(1, 40).map(Call::Work))])
}

/// The fault plane a case runs under, seeded.
#[derive(Debug, Clone, Copy)]
enum Faults {
    Off,
    /// Link faults with the NIC plane off.
    Link(u64),
    /// Every transport fault.
    All(u64),
}

impl Faults {
    fn spec(self) -> FaultSpec {
        match self {
            Faults::Off => FaultSpec::off(),
            Faults::Link(seed) => FaultSpec { seed, dma_err: 0.0, pio_err: 0.0, nic_stall: 0.0, ..FaultSpec::heavy() },
            Faults::All(seed) => FaultSpec { seed, ..FaultSpec::heavy() },
        }
    }
}

/// The epochs, the fault plane, and whether a tracer is attached.
fn script() -> Gen<(Vec<Epoch>, Faults, bool)> {
    let fence = usize_in(0, 2).map(|f| f.checked_sub(1));
    let epoch = zip2(vec_of(vec_of(call(), 0, 5), RANKS, RANKS), fence);
    let seed = || u64_in(0, 1 << 20);
    let faults = weighted(vec![(2, just(Faults::Off)), (1, seed().map(Faults::Link)), (1, seed().map(Faults::All))]);
    zip3(vec_of(epoch, 1, 4), faults, bool_any())
}

/// Issue `plan` as one series, or message by message.
fn issue(mpi: &mut Mpi, win: &WindowRef, target: usize, plan: &TransferPlan, get: bool, series: bool) -> Result<(), VpceError> {
    if series {
        return if get { mpi.get_series(win, target, plan) } else { mpi.put_series(win, target, plan) };
    }
    for t in plan.transfers() {
        let (off, stride, count) = (t.offset as usize, t.stride as usize, t.count as usize);
        match (get, t.is_contiguous()) {
            (true, true) => mpi.get(win, target, off, count),
            (true, false) => mpi.get_strided(win, target, off, stride, count),
            (false, true) => mpi.put_region(win, target, off, count),
            (false, false) => mpi.put_region_strided(win, target, off, stride, count),
        }?;
    }
    Ok(())
}

/// One rank of `script`: every call's outcome, then both windows'
/// memory after a closing `fence_all`.
async fn play(mpi: &mut Mpi, script: &[Epoch], series: bool) -> Result<Vec<String>, VpceError> {
    let wins = [mpi.win_create_async(WIN).await?, mpi.win_create_async(WIN).await?];
    for (k, w) in wins.iter().enumerate() {
        let seed = (mpi.rank() * 2 + k) * 1000;
        w.fill_from(&(0..WIN).map(|i| (seed + i) as f64).collect::<Vec<_>>());
    }
    let mut outcomes = Vec::new();
    for (calls, fence) in script {
        for call in &calls[mpi.rank()] {
            let outcome = match call {
                Call::Op { get, win, target, region, grain } => {
                    let plan = TransferPlan::lower(region, *grain, 0);
                    issue(mpi, &wins[*win], *target, &plan, *get, series)
                }
                Call::Acc { win, target, off, len, max } => {
                    let op = if *max { AccumulateOp::Max } else { AccumulateOp::Sum };
                    mpi.accumulate(&wins[*win], *target, *off, vec![1.5; *len], op)
                }
                Call::Work(us) => {
                    mpi.advance(f64::from(*us) * 1e-6);
                    Ok(())
                }
            };
            outcomes.push(format!("{outcome:?}"));
        }
        match fence {
            None => mpi.fence_all_async().await?,
            Some(win) => mpi.win_fence_async(wins[*win].id()).await?,
        }
    }
    mpi.fence_all_async().await?;
    outcomes.extend(wins.iter().map(|w| format!("{:?}", w.snapshot())));
    Ok(outcomes)
}

/// Everything a run leaves behind, and the counters the coverage floor
/// reads: `(verdict, eager fallbacks on a rank that also staged,
/// retransmits, conflicts)`.
fn run(script: &Arc<Vec<Epoch>>, faults: Faults, traced: bool, series: bool) -> (String, bool, u64, usize) {
    let tracer = if traced { Tracer::enabled() } else { Tracer::disabled() };
    let uni = Universe::new(ClusterConfig::paper_n(RANKS)).with_tracer(tracer.clone()).with_faults(faults.spec());
    let script = Arc::clone(script);
    let out = uni.run_on(1, async move |mpi: &mut Mpi| play(mpi, &script, series).await);
    match out {
        Err(e) => (format!("{e:?}"), false, 0, 0),
        Ok(o) => {
            let dry = o.rank_stats.iter().any(|s| s.eager_fallbacks > 0 && s.eager_ops > 0);
            let (retransmits, conflicts) = (o.net.retransmits, o.rma_conflicts.len());
            let verdict = format!(
                "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{}",
                o.results,
                o.clocks,
                o.rank_stats,
                o.net,
                o.rma_conflicts,
                o.pool,
                tracer.to_chrome_json()
            );
            (verdict, dry, retransmits, conflicts)
        }
    }
}

#[test]
fn one_series_of_k_messages_is_k_series_of_one() {
    // Coverage floor: how many cases exercised each thing the series
    // path must get right.
    let seen = [(); 10].map(|()| Cell::new(0u32));
    let count = |i: usize| seen[i].set(seen[i].get() + 1);
    Check::new("mpi2::one_series_of_k_messages_is_k_series_of_one")
        .cases(200)
        .run(&script(), |(epochs, faults, traced)| {
            let script = Arc::new(epochs.clone());
            let (one, dry, retransmits, conflicts) = run(&script, *faults, *traced, true);
            let (each, ..) = run(&script, *faults, *traced, false);
            prop_assert_eq!(&one, &each);
            let plans = epochs.iter().flat_map(|(calls, _)| calls.iter().flatten()).filter_map(|c| match c {
                Call::Op { region, grain, .. } => Some(TransferPlan::lower(region, *grain, 0)),
                _ => None,
            });
            for plan in plans {
                if plan.num_messages() > 1 && plan.strided_messages() > 0 {
                    count(0);
                }
                if plan.messages_meet() {
                    count(1);
                }
                // Past the ring's depth: one op holds batched and
                // unbatched messages.
                if plan.num_messages() > 8 {
                    count(6);
                }
            }
            if dry {
                count(2);
            }
            if retransmits > 0 {
                count(3);
            }
            if conflicts > 0 {
                count(4);
            }
            if one.contains("RmaBounds") {
                count(5);
            }
            match faults {
                Faults::Off => count(7),
                Faults::Link(_) => count(8),
                Faults::All(_) => {}
            }
            if !traced {
                count(9);
            }
            Ok(())
        });
    let seen = seen.map(Cell::into_inner);
    // strided series, aliasing series, pool dry mid-series, faults,
    // conflicts, a plan past a window's end, an op past the ring's
    // depth, faults off, link faults alone, untraced
    assert!(seen.iter().all(|&n| n >= 10), "coverage {seen:?}");
}
