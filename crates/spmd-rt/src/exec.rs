//! The SPMD interpreter: runs a compiled [`SpmdProgram`] on the
//! simulated cluster (and sequentially, for the reference baseline).

use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::AsyncFn;
use std::sync::atomic::{AtomicBool, Ordering};

use cluster_sim::{ClusterConfig, CpuModel};
use mpi2::{AccumulateOp, Elem, Mpi, RankStats, RunOutcome, Universe, WindowRef};
use vbus_sim::NetStats;
use vpce_faults::{site, FaultSpec, VpceError};
use vpce_trace::{EventKind, Lane, TraceReport, Tracer};

use crate::ir::*;
use crate::lowered::{self, Code, LoopBody, State};
use crate::protocol::{self, Step, SyncKind};
use crate::value::Value;

/// Multiplicative compute overhead of SPMD-generated code relative to
/// the sequential original: the master/slave code computes
/// global-to-local iteration mappings and guards region boundaries.
/// Calibrated to the paper's Table 1, where the 1-node parallel run
/// achieves a speedup of 0.96 (i.e. ≈4% slower than sequential).
pub const SPMD_OVERHEAD: f64 = 1.0 / 0.96;

/// Declared array elements, summed over a program's arrays, up to which
/// a `Full` run is carried by one worker. Measured on a 2-core x86-64
/// host with MM's coarse-grain program and no reference beside the
/// run, one worker against two in 12 alternating pairs, once MM's
/// product nest ran as lanes: 4 ranks at N=96 (27 648 elements) were
/// 33 % faster on one (11 of 12 pairs), at N=128 even, at N=144
/// (62 208) 8 % faster on one (9 of 12); at N=160 (76 800) two were
/// 13 % faster (11 of 12), at N=192 15 % (8 of 12), at N=256 and N=384
/// 28 % (11 and 12 of 12), and 16 ranks at N=512 (786 432) 36 % (11 of
/// 12). Below the crossover a second worker's futex hand-offs at every
/// rendezvous cost more than the numeric work it takes over. (It was
/// 2¹⁷ while each element of MM's C was a fold of its own.)
const ONE_WORKER_ELEMS: usize = 1 << 16;

/// How many OS threads carry the ranks of `prog` run in `mode` — the one
/// place that count is decided. An `Analytic` run prices its loops and
/// moves no payload, and a `Full` run of small arrays computes little
/// between rendezvous: one worker, the calling thread, carries every
/// rank of either. Otherwise every core gets a worker, less the one
/// lent to a sequential reference running beside this run
/// ([`with_reference`]). The outcome is the same on any count
/// (`mpi2::Universe::run_on`); only speed moves.
pub fn workers(prog: &SpmdProgram, mode: ExecMode) -> usize {
    let elems: usize = prog.arrays.iter().map(|(_, len)| len).sum();
    if mode == ExecMode::Analytic || elems <= ONE_WORKER_ELEMS {
        return 1;
    }
    let cores = mpi2::workers::cores().saturating_sub(LENT.get());
    prog.nprocs.min(cores.max(1))
}

thread_local! {
    /// Cores this thread has lent to a sequential reference running
    /// beside the parallel run it carries ([`with_reference_on`]).
    static LENT: Cell<usize> = const { Cell::new(0) };
}

/// The parallel run of `prog` paired with its sequential reference on
/// `cpu` (the Table-1 baseline): `parallel()`'s result and the
/// [`SeqReport`] — the one place a run and its reference are paired.
/// A `Full` run on a host of two or more cores computes the reference
/// on one core while `parallel()` runs on the calling thread
/// ([`mpi2::workers::join`]), its ranks on the other cores
/// ([`workers`]). An `Analytic` reference is a pricing pass, and one
/// core has nothing to lend: there the reference runs after the
/// parallel run, as before. Either way the outcome is the same: a
/// parallel error wins over the reference's, the reference's error
/// surfaces only after a parallel success, and a panic on either side
/// unwinds on the caller. A parallel run that fails or unwinds beside
/// its reference stops it: the reference ends at its next loop trip or
/// nest row, and its result is never read.
pub fn with_reference<T: Send>(
    prog: &SpmdProgram,
    cpu: &CpuModel,
    mode: ExecMode,
    parallel: impl FnOnce() -> Result<T, VpceError> + Send,
) -> Result<(T, SeqReport), VpceError> {
    with_reference_on(mpi2::workers::cores(), prog, cpu, mode, parallel)
}

/// [`with_reference`] on a host of `cores` cores: the seam tests use
/// to take either placement on any host.
pub fn with_reference_on<T: Send>(
    cores: usize,
    prog: &SpmdProgram,
    cpu: &CpuModel,
    mode: ExecMode,
    parallel: impl FnOnce() -> Result<T, VpceError> + Send,
) -> Result<(T, SeqReport), VpceError> {
    let stop = AtomicBool::new(false);
    let reference = || sequential_report(prog, cpu, mode, &stop);
    if mode == ExecMode::Full && cores > 1 {
        let (par, seq) = mpi2::workers::join(
            || stopping_on_failure(&stop, || lending_a_core(parallel)),
            reference,
        );
        Ok((par?, seq?))
    } else {
        let par = parallel()?;
        Ok((par, reference()?))
    }
}

/// `run()` with one core lent ([`LENT`]) until it returns or unwinds.
fn lending_a_core<T>(run: impl FnOnce() -> T) -> T {
    struct Lent;
    impl Drop for Lent {
        fn drop(&mut self) {
            LENT.set(LENT.get() - 1);
        }
    }
    LENT.set(LENT.get() + 1);
    let _lent = Lent;
    run()
}

/// `run()`, raising `stop` if it fails or unwinds.
fn stopping_on_failure<T>(
    stop: &AtomicBool,
    run: impl FnOnce() -> Result<T, VpceError>,
) -> Result<T, VpceError> {
    struct Raise<'s>(&'s AtomicBool);
    impl Drop for Raise<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let raise = Raise(stop);
    let out = run();
    if out.is_ok() {
        std::mem::forget(raise);
    }
    out
}

/// How loop bodies execute. See the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Execute all numerics (correctness runs).
    #[default]
    Full,
    /// Charge compute cost analytically; skip numeric execution of
    /// parallel-region bodies. Communication carries sizes, not
    /// payloads: only the master has storage behind its windows, so
    /// every transfer is priced, scheduled and traced exactly as in
    /// `Full` and copies nothing.
    Analytic,
}

/// Result of a parallel execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual execution time (slowest rank), seconds.
    pub elapsed: f64,
    /// Critical-path communication time (max over ranks of
    /// `comm_host + comm_wait`) — the Table-2 metric.
    pub comm_time: f64,
    pub rank_stats: Vec<RankStats>,
    pub net: NetStats,
    /// Master's final array contents, full-size. Meaningful in `Full`
    /// mode; an `Analytic` run holds what the master's sequential
    /// sections stored, zeros elsewhere.
    pub arrays: Vec<Vec<Elem>>,
    /// Master's final scalar values.
    pub scalars: Vec<Value>,
    /// Rank-0 virtual time after each executed top-level block — the
    /// program's *fence boundaries*. A fresh run records one entry per
    /// block; a resumed run records entries for the remaining blocks
    /// only. By determinism, `boundaries[k-1]` of a fresh run equals,
    /// bit for bit, the `elapsed` of a fresh run of the first `k`
    /// blocks — which is what makes checkpoint-by-prefix exact (see
    /// [`crate::checkpoint`]).
    pub boundaries: Vec<f64>,
    /// Undefined-outcome RMA pairs recorded by the dynamic
    /// epoch-conflict ledger (`mpi2::conflict`). Empty for a
    /// well-synchronised plan; the differential ground truth for the
    /// static `vpce-rmacheck` pass.
    pub rma_conflicts: Vec<mpi2::ConflictRecord>,
    /// Trace analyses (rollups + critical path) when the run was
    /// executed through [`execute_traced`] with a live tracer.
    pub trace: Option<TraceReport>,
}

/// Do two runs' arrays (or scalars, or one array) hold the same bits?
/// This, not `==`, is what "identical results" means: a NaN matches
/// itself, and `-0.0` does not match `0.0`.
pub fn same_bits<T: Bits>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_bits(y))
}

/// What [`same_bits`] compares: a REAL by `f64::to_bits`, an INTEGER
/// by value, an array element by element.
pub trait Bits {
    fn same_bits(&self, other: &Self) -> bool;
}

impl Bits for Elem {
    fn same_bits(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl Bits for Value {
    fn same_bits(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::I(a), Value::I(b)) => a == b,
            (Value::R(a), Value::R(b)) => a.same_bits(b),
            _ => false,
        }
    }
}

impl<T: Bits> Bits for Vec<T> {
    fn same_bits(&self, other: &Self) -> bool {
        same_bits(self, other)
    }
}

/// Result of a sequential execution.
#[derive(Debug)]
pub struct SeqReport {
    /// Virtual execution time, seconds.
    pub elapsed: f64,
    pub arrays: Vec<Vec<Elem>>,
    pub scalars: Vec<Value>,
}

/// Execute the SPMD program on the given cluster.
///
/// # Panics
/// Panics if the cluster size differs from the one the program's
/// communication plans were generated for.
pub fn execute(prog: &SpmdProgram, cluster: &ClusterConfig, mode: ExecMode) -> RunReport {
    execute_traced(prog, cluster, mode, Tracer::disabled())
}

/// [`execute`] with a tracer attached: every MPI call, link transfer
/// and SPMD phase of the run lands in the tracer's buffer, and the
/// report carries the derived analyses. Passing a disabled tracer is
/// exactly `execute` (and costs nothing).
pub fn execute_traced(
    prog: &SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    tracer: Tracer,
) -> RunReport {
    try_execute_traced(prog, cluster, mode, tracer, FaultSpec::off())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`execute`]: runs under the given fault schedule and
/// returns a typed [`VpceError`] instead of panicking when the program
/// does not fit the cluster or an injected fault proves unsurvivable.
pub fn try_execute(
    prog: &SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    faults: FaultSpec,
) -> Result<RunReport, VpceError> {
    try_execute_traced(prog, cluster, mode, Tracer::disabled(), faults)
}

/// [`try_execute`] with a tracer attached.
pub fn try_execute_traced(
    prog: &SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    tracer: Tracer,
    faults: FaultSpec,
) -> Result<RunReport, VpceError> {
    try_execute_suppressed(prog, cluster, mode, tracer, faults, None, &BTreeSet::new())
}

/// The full-arity entry point: [`try_execute_traced`], optionally
/// continuing from a fence-boundary snapshot and with a
/// crash-suppression mask.
///
/// With `resume`, the first `snapshot.boundary` blocks are skipped and
/// the master's windows and scalars are seeded from the snapshot before
/// any rank communicates; parallel regions keep their whole-program
/// serial numbers, so rank-level fault draws line up with the
/// uninterrupted run.
///
/// The `RANK_CRASH` draws at the [`protocol::crash_key`]s in
/// `suppressed_crashes` are elided, every other fault draw is untouched
/// (draws are pure hashes, so masking one shifts none). This is the
/// execution primitive of in-run rollback recovery: the recovery driver
/// predicts which crashes it can absorb, masks exactly those, and runs
/// once.
pub fn try_execute_suppressed(
    prog: &SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    tracer: Tracer,
    faults: FaultSpec,
    resume: Option<&crate::checkpoint::Snapshot>,
    suppressed_crashes: &BTreeSet<u64>,
) -> Result<RunReport, VpceError> {
    if prog.nprocs != cluster.num_nodes() {
        return Err(VpceError::SizeMismatch {
            program: prog.nprocs,
            cluster: cluster.num_nodes(),
        });
    }
    let body = rank_body(prog, mode, resume)?;
    let uni = Universe::new(cluster.clone())
        .with_tracer(tracer)
        .with_faults(faults)
        .with_crash_suppression(suppressed_crashes.clone());
    Ok(RunReport::from_outcome(uni.run_on(workers(prog, mode), body)?))
}

/// What one rank of a compiled program returns: rank 0's final arrays
/// and scalars and its block-boundary times, empty on slave ranks.
pub type RankOutput = (Vec<Vec<Elem>>, Vec<Value>, Vec<f64>);

/// The compiled program as the body of one rank — what
/// [`try_execute_suppressed`] hands to [`Universe::run_on`]. A
/// rank task: it yields wherever it has to wait for its peers, so ranks
/// share worker threads. (`Mpi::block_on` runs the same body on a
/// thread of its own; the differential suite holds the two equal.)
///
/// Lowered once, before any rank starts — every rank walks the same
/// form by reference — and an `Analytic` run of a loop it cannot price
/// is refused there.
pub fn rank_body<'a>(
    prog: &'a SpmdProgram,
    mode: ExecMode,
    resume: Option<&'a crate::checkpoint::Snapshot>,
) -> Result<impl AsyncFn(&mut Mpi) -> Result<RankOutput, VpceError> + Sync + 'a, VpceError> {
    let code = lowered::lower_program(prog);
    if mode == ExecMode::Analytic {
        let skip = resume.map_or(0, |s| s.boundary);
        let regions = code[skip..].iter().filter_map(|c| match c {
            Code::Parallel(body) => Some(&body.block),
            Code::MasterSeq(_) => None,
        });
        lowered::check_priceable(regions, &prog.scalars)?;
    }
    Ok(async move |mpi: &mut Mpi| run_rank(prog, &code, mpi, mode, resume).await)
}

impl RunReport {
    /// The report of a universe that ran [`rank_body`] on every rank.
    pub fn from_outcome(mut out: RunOutcome<RankOutput>) -> RunReport {
        let (arrays, scalars, boundaries) = out.results.swap_remove(0);
        RunReport {
            elapsed: out.elapsed(),
            comm_time: out.max_comm_time(),
            rank_stats: out.rank_stats,
            net: out.net,
            arrays,
            scalars,
            boundaries,
            rma_conflicts: out.rma_conflicts,
            trace: out.trace,
        }
    }
}

/// Execute the program's sequential form on one node (the Table-1
/// baseline: no MPI environment, no windows, no synchronization).
///
/// # Panics
/// Panics with the error's text where [`try_execute_sequential`]
/// returns one.
pub fn execute_sequential(prog: &SpmdProgram, cpu: &CpuModel, mode: ExecMode) -> SeqReport {
    try_execute_sequential(prog, cpu, mode).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`execute_sequential`]: a typed [`VpceError`] when the
/// program fails (a type violation, a division by zero, a subscript out
/// of range, a loop `Analytic` cannot price).
pub fn try_execute_sequential(
    prog: &SpmdProgram,
    cpu: &CpuModel,
    mode: ExecMode,
) -> Result<SeqReport, VpceError> {
    sequential_report(prog, cpu, mode, &AtomicBool::new(false))
}

/// [`try_execute_sequential`], ended early once `stop` is raised.
fn sequential_report(
    prog: &SpmdProgram,
    cpu: &CpuModel,
    mode: ExecMode,
    stop: &AtomicBool,
) -> Result<SeqReport, VpceError> {
    let (cycles, arrays, scalars) = run_sequential_until(prog, mode, stop)?;
    Ok(SeqReport { elapsed: cycles / cpu.clock_hz, arrays, scalars })
}

/// The sequential form executed from zeroed state: (cycles, arrays,
/// scalars).
#[cfg(test)]
pub(crate) fn run_sequential(
    prog: &SpmdProgram,
    mode: ExecMode,
) -> Result<(f64, Vec<Vec<Elem>>, Vec<Value>), VpceError> {
    run_sequential_until(prog, mode, &AtomicBool::new(false))
}

/// [`run_sequential`], ended early once `stop` is raised.
fn run_sequential_until(
    prog: &SpmdProgram,
    mode: ExecMode,
    stop: &AtomicBool,
) -> Result<(f64, Vec<Vec<Elem>>, Vec<Value>), VpceError> {
    let code = lowered::lower(&prog.sequential, &prog.scalars);
    let mut st = State::new(prog).stopping_at(stop);
    let mut mem: Vec<Vec<Elem>> = prog.arrays.iter().map(|(_, len)| vec![0.0; *len]).collect();
    match mode {
        ExecMode::Full => {
            let mut views: Vec<&mut [Elem]> = mem.iter_mut().map(Vec::as_mut_slice).collect();
            st.run(&code, &mut views)?;
        }
        ExecMode::Analytic => {
            lowered::check_priceable([&code], &prog.scalars)?;
            st.cycles += st.price(&code)?;
        }
    }
    Ok((st.cycles, mem, st.values()))
}

impl From<RedOp> for AccumulateOp {
    fn from(op: RedOp) -> Self {
        match op {
            RedOp::Sum => AccumulateOp::Sum,
            RedOp::Prod => AccumulateOp::Prod,
            RedOp::Min => AccumulateOp::Min,
            RedOp::Max => AccumulateOp::Max,
        }
    }
}

fn combine(op: RedOp, a: f64, b: f64) -> f64 {
    match op {
        RedOp::Sum => a + b,
        RedOp::Prod => a * b,
        RedOp::Min => a.min(b),
        RedOp::Max => a.max(b),
    }
}

/// Emit a phase span `[t0, now]` on this rank's lane. The name
/// closure only runs when somebody is tracing.
fn phase(mpi: &Mpi, t0: f64, name: impl FnOnce() -> String) {
    if mpi.tracer().is_enabled() {
        mpi.tracer().push(
            Lane::Rank(mpi.rank()),
            t0,
            mpi.now(),
            EventKind::Phase { name: name() },
        );
    }
}

/// Per-rank execution of the whole program (or, when resuming, of its
/// remaining blocks). Returns rank-0's view of the final arrays and
/// scalars plus the block-boundary times (empty on slave ranks).
async fn run_rank(
    prog: &SpmdProgram,
    code: &[Code],
    mpi: &mut Mpi,
    mode: ExecMode,
    resume: Option<&crate::checkpoint::Snapshot>,
) -> Result<RankOutput, VpceError> {
    let rank = mpi.rank();
    let t_init = mpi.now();
    // One window per array, full-size on every rank ("all data
    // declared are intrinsically private", §3). Storage goes where
    // values are computed: every rank in `Full`, in `Analytic` the
    // master alone, whose sequential sections run numerically.
    let backed = mode == ExecMode::Full || rank == 0;
    let mut wins: Vec<WindowRef> = Vec::with_capacity(prog.arrays.len());
    for &(_, len) in &prog.arrays {
        wins.push(if backed {
            mpi.win_create_async(len).await?
        } else {
            mpi.win_create_length_only_async(len).await?
        });
    }
    // Lock-based reductions need a shared accumulator window.
    let max_reds = prog
        .regions()
        .filter(|r| r.lock_reductions)
        .map(|r| r.reductions.len())
        .max()
        .unwrap_or(0);
    let red_win: Option<WindowRef> = match max_reds {
        0 => None,
        len => Some(mpi.win_create_async(len).await?),
    };
    phase(mpi, t_init, || "init".to_string());
    let mut st = State::new(prog);

    // Resuming: master state (windows + scalars) is authoritative at
    // every block boundary — each parallel region ends collect → fence
    // → barrier, and sequential blocks run on the master only. Slave
    // copies that survive a boundary (the AVPG's delayed-communication
    // elisions skip re-scattering regions a slave already holds fresh)
    // agree with the master's content by the validity invariant, so
    // seeding *every* rank with the master image reconstructs them
    // exactly; stale slave regions are overwritten with data the
    // program would never read un-scattered anyway. The seeding costs
    // no virtual time; the service layer charges restore overhead
    // explicitly. The first region's join barrier sequences all fills
    // before any cross-rank access.
    let skip = resume.map_or(0, |s| s.boundary);
    if let Some(snap) = resume {
        for (win, data) in wins.iter().zip(&snap.arrays) {
            win.fill_from(data);
        }
        st.load_values(&snap.scalars);
    }

    // The parallel regions still to run, under their whole-program
    // serial numbers — the deterministic key for rank-level fault
    // draws, which a resumed run must share with the uninterrupted one.
    let mut todo = prog.numbered_regions().filter(|&(_, block, _)| block >= skip);
    let mut boundaries = Vec::new();
    for block in &code[skip..] {
        match block {
            Code::MasterSeq(block) => {
                if rank == 0 {
                    let t_serial = mpi.now();
                    let mut guards = lock_all(&wins);
                    // Sequential sections are cheap scalar set-up;
                    // execute them numerically in both modes so
                    // integer control state stays meaningful.
                    st.run(block, &mut views(&mut guards))?;
                    drop(guards);
                    flush_cycles(&mut st, mpi);
                    phase(mpi, t_serial, || "serial".to_string());
                }
            }
            Code::Parallel(body) => {
                let (serial, _, region) =
                    todo.next().expect("one numbered region per parallel block");
                run_region(region, body, mode, mpi, &wins, red_win.as_ref(), &mut st, serial)
                    .await?;
            }
        }
        if rank == 0 {
            boundaries.push(mpi.now());
        }
    }

    // Final results: master's view, moved out of its windows — the
    // last block's closing synchronisation is behind every rank, so
    // nothing touches them again.
    let arrays = if rank == 0 {
        wins.iter().map(WindowRef::take).collect()
    } else {
        Vec::new()
    };
    Ok((arrays, st.values(), boundaries))
}

type Guard<'a> = std::sync::MutexGuard<'a, Vec<Elem>>;

fn lock_all(wins: &[WindowRef]) -> Vec<Guard<'_>> {
    wins.iter().map(WindowRef::lock).collect()
}

/// One slice per program array, in array order.
fn views<'g>(guards: &'g mut [Guard<'_>]) -> Vec<&'g mut [Elem]> {
    guards.iter_mut().map(|g| g.as_mut_slice()).collect()
}

fn flush_cycles(st: &mut State, mpi: &mut Mpi) {
    if st.cycles > 0.0 {
        let secs = st.cycles / mpi.cpu().clock_hz;
        mpi.advance(secs);
        st.cycles = 0.0;
    }
}

/// Execute one parallel region: interpret the §3 walk
/// ([`protocol::steps`]) against the MPI library.
async fn run_region(
    region: &ParRegion,
    body: &LoopBody,
    mode: ExecMode,
    mpi: &mut Mpi,
    wins: &[WindowRef],
    red_win: Option<&WindowRef>,
    st: &mut State<'_>,
    region_serial: u64,
) -> Result<(), VpceError> {
    let line = region.line;
    let (rank, nprocs) = (mpi.rank(), mpi.size());
    let red_win = || red_win.expect("reduction window created at startup");
    let mut slow_factor = 1.0;
    // The master's running reduction values going in, and this rank's
    // partials coming out of the compute phase.
    let (mut saved, mut partials) = (Vec::new(), Vec::new());
    let mut tree_reds = region.reductions.iter().enumerate();
    let mut t_phase = mpi.now();
    for step in protocol::steps(region, rank) {
        match step {
            // Rank-level fault draws, keyed (rank, region serial) so
            // the outcome is a pure function of the schedule, not of
            // thread interleaving. A crash ends the rank before the
            // join barrier; peers then leave their collectives with
            // `PeerFailure` and the universe reports the crash as the
            // root cause.
            Step::CrashPoint => {
                let key = protocol::crash_key(rank, region_serial);
                let inj = mpi.fault_injector();
                let spec = inj.spec();
                if inj.hits(spec.rank_slow, site::RANK_SLOW, key, 0) {
                    slow_factor = spec.slow_factor;
                }
                if inj.crash_hits(key) {
                    return Err(VpceError::RankCrash {
                        rank,
                        region: format!("L{line}"),
                    });
                }
            }
            Step::Sync(SyncKind::Barrier) => mpi.barrier_async().await?,
            Step::Sync(SyncKind::Fence) => mpi.fence_all_async().await?,
            // Shared scalars travel master -> everyone (values as f64;
            // the typed store restores integers).
            Step::Sync(SyncKind::Bcast) => {
                let payload = (rank == 0).then(|| {
                    region.scalars_in.iter().map(|&s| st.real_of(s)).collect::<Vec<f64>>()
                });
                let vals = mpi.bcast_async(0, payload).await?;
                for (&slot, &v) in region.scalars_in.iter().zip(&vals) {
                    st.store_real(slot, v);
                }
            }
            // Tree combine: everyone contributes its partial, one
            // collective per reduction.
            Step::Sync(SyncKind::Reduce) => {
                let (i, red) = tree_reds.next().expect("one reduce step per reduction");
                if let Some(v) = mpi.reduce_async(0, vec![partials[i]], red.op.into()).await? {
                    st.store_real(red.scalar, combine(red.op, saved[i], v[0]));
                }
            }
            Step::Rma { op, target, get, .. } => {
                let win = &wins[op.array];
                if get {
                    mpi.get_series(win, target, &op.descriptor)?;
                } else {
                    mpi.put_series(win, target, &op.descriptor)?;
                }
            }
            Step::Compute => {
                // Reductions: save master's running value, seed local
                // accumulator.
                saved = reduction_values(region, st);
                for red in &region.reductions {
                    st.store_real(red.scalar, red.identity);
                }
                // Partitioned execution of this rank's iterations.
                let (start, every, count) = region.sched.assignment(region.trips, rank, nprocs);
                if count > 0 {
                    let before = st.cycles;
                    let first = region.lo.wrapping_add((start as i64).wrapping_mul(region.step));
                    let step = (every as i64).wrapping_mul(region.step);
                    match mode {
                        ExecMode::Full => {
                            let mut guards = lock_all(wins);
                            st.run_trips(body, first, step, count, &mut views(&mut guards))?;
                        }
                        ExecMode::Analytic => st.cycles += st.price_trips(body, first, step, count)?,
                    }
                    // SPMD addressing overhead on the region's compute;
                    // an injected rank slowdown stretches the same
                    // interval (timing only — numeric results are
                    // untouched).
                    st.cycles = before + (st.cycles - before) * SPMD_OVERHEAD * slow_factor;
                }
                flush_cycles(st, mpi);
                partials = reduction_values(region, st);
            }
            Step::LockSeed => {
                if rank == 0 {
                    let mut m = red_win().lock();
                    for (i, red) in region.reductions.iter().enumerate() {
                        m[i] = red.identity;
                    }
                }
            }
            Step::LockAccumulate => {
                for (i, red) in region.reductions.iter().enumerate() {
                    mpi.win_lock_async(red_win(), 0).await?;
                    mpi.accumulate_now(red_win(), 0, i, vec![partials[i]], red.op.into())?;
                    mpi.win_unlock(red_win(), 0)?;
                }
            }
            Step::LockCombine => {
                if rank == 0 {
                    let m = red_win().snapshot();
                    for (i, red) in region.reductions.iter().enumerate() {
                        st.store_real(red.scalar, combine(red.op, saved[i], m[i]));
                    }
                }
            }
            Step::End(ph) => {
                phase(mpi, t_phase, || format!("{}@L{line}", ph.as_str()));
                t_phase = mpi.now();
            }
        }
    }
    Ok(())
}

/// The current values of the region's reduction scalars.
fn reduction_values(region: &ParRegion, st: &State) -> Vec<f64> {
    region.reductions.iter().map(|r| st.real_of(r.scalar)).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lmad::RegionTransfer;

    /// Hand-built program: arrays A (len 16) and C (len 16);
    /// parallel region computes C[i] = A[i] * 2 over 16 iterations,
    /// block-scheduled on 4 ranks. A is initialised by the master.
    pub(crate) fn axpy_prog(nprocs: usize) -> SpmdProgram {
        axpy_prog_of(nprocs, 16)
    }

    /// [`axpy_prog`] over arrays of `n` elements (`nprocs` divides `n`).
    fn axpy_prog_of(nprocs: usize, n: usize) -> SpmdProgram {
        let chunk = n / nprocs;
        // Scatter: rank r receives A[r*chunk .. (r+1)*chunk].
        // Collect: rank r returns C[...] likewise.
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
        let body = vec![Instr::StoreArray {
            array: 1,
            index: Expr::Bin(
                crate::ir::BinOp::Sub,
                Box::new(Expr::Scalar(i_var)),
                Box::new(Expr::IConst(1)),
            ),
            value: Expr::Bin(
                crate::ir::BinOp::Mul,
                Box::new(Expr::Load {
                    array: 0,
                    index: Box::new(Expr::Bin(
                        crate::ir::BinOp::Sub,
                        Box::new(Expr::Scalar(i_var)),
                        Box::new(Expr::IConst(1)),
                    )),
                }),
                Box::new(Expr::RConst(2.0)),
            ),
        }];
        // Master init: A[i] = i (1-based value).
        let init = vec![Instr::Loop {
            var: i_var,
            lo: Expr::IConst(1),
            hi: Expr::IConst(n as i64),
            step: 1,
            body: vec![Instr::StoreArray {
                array: 0,
                index: Expr::Bin(
                    crate::ir::BinOp::Sub,
                    Box::new(Expr::Scalar(i_var)),
                    Box::new(Expr::IConst(1)),
                ),
                value: Expr::Intr(IntrinsicOp::ToReal, vec![Expr::Scalar(i_var)]),
            }],
        }];
        let region = ParRegion {
            var: i_var,
            lo: 1,
            step: 1,
            trips: n as u64,
            sched: Schedule::Block,
            body: body.clone().into(),
            scatter: CommPlan { per_rank: per_rank(0) },
            collect: CommPlan { per_rank: per_rank(1) },
            pull_scatter: false,
            lock_reductions: false,
            scalars_in: vec![],
            private_scalars: vec![],
            reductions: vec![],
            line: 1,
        };
        let sequential = {
            let mut s = init.clone();
            s.push(Instr::Loop {
                var: i_var,
                lo: Expr::IConst(1),
                hi: Expr::IConst(n as i64),
                step: 1,
                body,
            });
            s
        };
        SpmdProgram {
            name: "AXPY".into(),
            nprocs,
            arrays: vec![("A".into(), n), ("C".into(), n)],
            scalars: vec![("I".into(), true)],
            blocks: vec![Block::MasterSeq(init.into()), Block::Parallel(region)],
            sequential: sequential.into(),
        }
    }

    /// `Full` and `Analytic` differ in what they compute and store
    /// (analytic slaves' windows are length-only) and in nothing a
    /// transfer costs: every virtual time and counter is equal.
    pub(crate) fn assert_same_virtual_run(full: &RunReport, ana: &RunReport, what: &str) {
        assert_eq!(full.elapsed, ana.elapsed, "{what}");
        assert_eq!(full.comm_time, ana.comm_time, "{what}");
        assert_eq!(full.boundaries, ana.boundaries, "{what}");
        assert_eq!(full.rank_stats, ana.rank_stats, "{what}");
        assert_eq!(full.net, ana.net, "{what}");
        assert_eq!(full.rma_conflicts, ana.rma_conflicts, "{what}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let par = execute(&prog, &cluster, ExecMode::Full);
        let seq = execute_sequential(&prog, &cluster.node.cpu, ExecMode::Full);
        assert_eq!(par.arrays[1], seq.arrays[1]);
        assert_eq!(
            par.arrays[1],
            (1..=16).map(|i| 2.0 * i as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn identical_results_compare_bits_not_values() {
        let arrays = |v: &[f64]| vec![vec![1.0], v.to_vec()];
        let nan = arrays(&[f64::NAN, 2.0]);
        assert!(same_bits(&nan, &nan.clone()));
        assert!(!same_bits(&arrays(&[-0.0, 2.0]), &arrays(&[0.0, 2.0])));
        assert!(!same_bits(&arrays(&[2.0]), &arrays(&[2.0, 2.0])));
        assert!(!same_bits(&arrays(&[2.0]), &arrays(&[2.0])[..1]));
        let scalars = [Value::I(3), Value::R(f64::NAN)];
        assert!(same_bits(&scalars, &scalars));
        assert!(!same_bits(&scalars, &[Value::I(3), Value::R(-f64::NAN)]));
        assert!(!same_bits(&[Value::I(0)], &[Value::R(0.0)]));
    }

    #[test]
    fn single_rank_execution_works() {
        let prog = axpy_prog(1);
        let cluster = ClusterConfig::paper_n(1);
        let par = execute(&prog, &cluster, ExecMode::Full);
        assert_eq!(par.arrays[1][15], 32.0);
    }

    #[test]
    fn analytic_mode_matches_full_mode_timing() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let (full_trace, ana_trace) = (Tracer::enabled(), Tracer::enabled());
        let full = execute_traced(&prog, &cluster, ExecMode::Full, full_trace.clone());
        let ana = execute_traced(&prog, &cluster, ExecMode::Analytic, ana_trace.clone());
        assert_same_virtual_run(&full, &ana, "axpy");
        assert_eq!(full_trace.to_chrome_json(), ana_trace.to_chrome_json());
        // The master's sequential section ran numerically; the region's
        // results never reached it.
        assert_eq!(ana.arrays[0], full.arrays[0]);
        assert_eq!(ana.arrays[1][4..], [0.0; 12], "collected from slaves without storage");
    }

    #[test]
    fn analytic_sequential_matches_full_sequential_timing() {
        let prog = axpy_prog(4);
        let cpu = CpuModel::pentium_ii_300();
        let f = execute_sequential(&prog, &cpu, ExecMode::Full);
        let a = execute_sequential(&prog, &cpu, ExecMode::Analytic);
        assert_eq!(f.elapsed, a.elapsed);
    }

    #[test]
    fn deterministic_across_runs() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let a = execute(&prog, &cluster, ExecMode::Full);
        let b = execute(&prog, &cluster, ExecMode::Full);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.comm_time, b.comm_time);
        assert_eq!(a.arrays, b.arrays);
    }

    #[test]
    fn comm_time_positive_and_below_elapsed() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let r = execute(&prog, &cluster, ExecMode::Full);
        assert!(r.comm_time > 0.0);
        assert!(r.comm_time < r.elapsed);
    }

    #[test]
    #[should_panic(expected = "compiled for")]
    fn cluster_size_mismatch_rejected() {
        let prog = axpy_prog(4);
        execute(&prog, &ClusterConfig::paper_n(2), ExecMode::Full);
    }

    #[test]
    fn size_mismatch_is_a_typed_error_on_the_fallible_path() {
        let prog = axpy_prog(4);
        let err = try_execute(
            &prog,
            &ClusterConfig::paper_n(2),
            ExecMode::Full,
            FaultSpec::off(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            VpceError::SizeMismatch { program: 4, cluster: 2 }
        ));
    }

    #[test]
    fn survivable_faults_preserve_program_results() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let clean = execute(&prog, &cluster, ExecMode::Full);
        let mut recovered = 0u64;
        for seed in 0..6 {
            let spec = FaultSpec { seed, ..FaultSpec::heavy() };
            let faulty = try_execute(&prog, &cluster, ExecMode::Full, spec)
                .expect("heavy schedules without crashes are survivable");
            assert_eq!(faulty.arrays, clean.arrays, "seed {seed}");
            assert_eq!(faulty.scalars, clean.scalars, "seed {seed}");
            assert!(faulty.elapsed >= clean.elapsed, "seed {seed}");
            recovered += faulty.net.retransmits + faulty.net.bus_degraded;
        }
        assert!(recovered > 0, "heavy schedules must exercise recovery");
    }

    #[test]
    fn certain_crash_yields_typed_rank_crash() {
        let prog = axpy_prog(4);
        let spec = FaultSpec { rank_crash: 1.0, ..FaultSpec::off() };
        let err = try_execute(&prog, &ClusterConfig::paper_4node(), ExecMode::Full, spec)
            .unwrap_err();
        match err {
            VpceError::RankCrash { region, .. } => assert!(region.starts_with('L')),
            other => panic!("expected RankCrash, got {other}"),
        }
    }

    #[test]
    fn rank_slowdown_stretches_time_but_not_results() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let clean = execute(&prog, &cluster, ExecMode::Full);
        let spec = FaultSpec { rank_slow: 1.0, slow_factor: 4.0, ..FaultSpec::off() };
        let slow = try_execute(&prog, &cluster, ExecMode::Full, spec).unwrap();
        assert_eq!(slow.arrays, clean.arrays);
        assert!(
            slow.elapsed > clean.elapsed,
            "slowdown {} vs clean {}",
            slow.elapsed,
            clean.elapsed
        );
    }

    #[test]
    fn one_worker_unless_a_full_run_has_numeric_work_to_share() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let big = axpy_prog_of(4, ONE_WORKER_ELEMS / 2 + 4);
        for (prog, mode, want) in [
            (axpy_prog(4), ExecMode::Analytic, 1),
            (big.clone(), ExecMode::Analytic, 1),
            (axpy_prog(4), ExecMode::Full, 1),
            (axpy_prog_of(4, ONE_WORKER_ELEMS / 2), ExecMode::Full, 1),
            (big.clone(), ExecMode::Full, cores.min(4)),
            (axpy_prog_of(1, ONE_WORKER_ELEMS), ExecMode::Full, 1),
        ] {
            let elems: usize = prog.arrays.iter().map(|(_, len)| len).sum();
            assert_eq!(workers(&prog, mode), want, "{elems} elements on {} ranks, {mode:?}", prog.nprocs);
        }
        // A reference beside the run takes one core, and gives it back.
        let cpu = ClusterConfig::paper_4node().node.cpu;
        for (placement_cores, want) in [(1, cores.min(4)), (2, (cores - 1).clamp(1, 4))] {
            let beside = || Ok(workers(&big, ExecMode::Full));
            let got = with_reference_on(placement_cores, &axpy_prog(4), &cpu, ExecMode::Full, beside);
            assert_eq!(got.unwrap().0, want, "placed for {placement_cores} cores");
        }
        assert_eq!(workers(&big, ExecMode::Full), cores.min(4));
    }

    /// [`axpy_prog`] whose sequential reference fails: A is declared 8
    /// elements long and the master's init stores 16.
    fn short_array_prog() -> SpmdProgram {
        let mut prog = axpy_prog(4);
        prog.arrays[0].1 = 8;
        prog
    }

    // The reference placement tests name their core count: one core
    // runs the reference after the parallel run, two run it beside.

    #[test]
    fn a_parallel_error_wins_over_the_references() {
        let cpu = ClusterConfig::paper_4node().node.cpu;
        let crash = VpceError::RankCrash { rank: 2, region: "L1".into() };
        for cores in [1, 2] {
            let got = with_reference_on(cores, &short_array_prog(), &cpu, ExecMode::Full, || {
                Err::<(), _>(crash.clone())
            });
            assert_eq!(got.unwrap_err(), crash, "{cores} cores");
        }
    }

    #[test]
    fn the_references_error_surfaces_only_after_a_parallel_success() {
        let cpu = ClusterConfig::paper_4node().node.cpu;
        let good = axpy_prog(4);
        let want = execute_sequential(&good, &cpu, ExecMode::Full);
        let me = std::thread::current().id();
        for cores in [1, 2] {
            let got = with_reference_on(cores, &short_array_prog(), &cpu, ExecMode::Full, || Ok(()));
            assert!(
                matches!(got, Err(VpceError::SubscriptRange { .. })),
                "{cores} cores: {got:?}"
            );
            let (on, seq) = with_reference_on(cores, &good, &cpu, ExecMode::Full, || {
                Ok(std::thread::current().id())
            })
            .unwrap();
            assert_eq!(on, me, "{cores} cores: the parallel run stays on the calling thread");
            assert_eq!(seq.elapsed.to_bits(), want.elapsed.to_bits());
            assert!(same_bits(&seq.arrays, &want.arrays));
        }
    }

    #[test]
    fn a_failed_or_unwinding_parallel_run_stops_its_reference() {
        let stop = AtomicBool::new(false);
        assert!(stopping_on_failure(&stop, || Ok(())).is_ok());
        assert!(!stop.load(Ordering::Relaxed), "a success lets the reference finish");
        let crash = VpceError::RankCrash { rank: 2, region: "L1".into() };
        assert_eq!(stopping_on_failure(&stop, || Err::<(), _>(crash.clone())), Err(crash));
        assert!(stop.load(Ordering::Relaxed), "an error raises the flag");
        let unwound = AtomicBool::new(false);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stopping_on_failure(&unwound, || -> Result<(), VpceError> { panic!("a bug") })
        }));
        assert!(got.is_err() && unwound.load(Ordering::Relaxed), "so does unwinding");
        // A raised flag ends the sequential walk at its first loop trip.
        let mut prog = axpy_prog(4);
        prog.sequential = vec![Instr::Loop {
            var: 0,
            lo: Expr::IConst(1),
            hi: Expr::IConst(2),
            step: 1,
            body: prog.sequential.to_vec(),
        }]
        .into();
        assert!(run_sequential_until(&prog, ExecMode::Full, &AtomicBool::new(false)).is_ok());
        let stopped = run_sequential_until(&prog, ExecMode::Full, &stop);
        assert!(matches!(stopped, Err(VpceError::PeerFailure { .. })), "{stopped:?}");
    }

    #[test]
    fn a_reference_panic_unwinds_on_the_caller() {
        let cpu = ClusterConfig::paper_4node().node.cpu;
        // Malformed, not failing: the region stores to an undeclared array.
        let mut prog = axpy_prog(4);
        prog.arrays.truncate(1);
        for cores in [1, 2] {
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_reference_on(cores, &prog, &cpu, ExecMode::Full, || Ok(()))
            }));
            assert!(got.is_err(), "{cores} cores: {got:?}");
        }
    }

    /// Most runs now take one worker; the multi-worker path must stay
    /// covered. Above the one-worker bound, one and two workers must
    /// leave the same arrays, clocks, ledgers, network counters and
    /// trace bytes.
    #[test]
    fn full_runs_above_the_bound_are_the_same_on_one_and_two_workers() {
        let prog = axpy_prog_of(4, ONE_WORKER_ELEMS / 2 + 4);
        let cluster = ClusterConfig::paper_4node();
        let body = rank_body(&prog, ExecMode::Full, None).unwrap();
        let [one, two] = [1, 2].map(|w| {
            let tracer = Tracer::enabled();
            let out = Universe::new(cluster.clone())
                .with_tracer(tracer.clone())
                .run_on(w, &body)
                .unwrap();
            (out.clocks.clone(), RunReport::from_outcome(out), tracer.to_chrome_json())
        });
        assert_eq!(one.0, two.0, "clocks");
        assert_eq!(one.1.arrays, two.1.arrays);
        assert_eq!(one.1.arrays[1][7], 16.0);
        assert_eq!(one.1.rank_stats, two.1.rank_stats);
        assert_eq!(one.1.net, two.1.net);
        assert!(one.2 == two.2, "Chrome traces differ");
    }

    #[test]
    fn traced_execution_emits_phases_without_perturbing_timing() {
        let prog = axpy_prog(4);
        let cluster = ClusterConfig::paper_4node();
        let plain = execute(&prog, &cluster, ExecMode::Full);
        assert!(plain.trace.is_none(), "default runs carry no trace");

        let tracer = Tracer::enabled();
        let traced = execute_traced(&prog, &cluster, ExecMode::Full, tracer.clone());
        assert_eq!(traced.elapsed, plain.elapsed, "tracing must not change time");
        assert_eq!(traced.arrays, plain.arrays);

        let rep = traced.trace.expect("traced run carries the report");
        for stage in ["init", "join@L", "scatter@L", "compute@L", "collect@L"] {
            assert!(
                rep.summary.phases.iter().any(|p| p.name.starts_with(stage)),
                "missing phase {stage}: {:?}",
                rep.summary.phases.iter().map(|p| &p.name).collect::<Vec<_>>()
            );
        }
        // The critical-path components tile the whole run.
        let total = rep.critical.breakdown.total();
        assert!(
            (total - traced.elapsed).abs() <= 1e-9 * traced.elapsed.max(1e-30),
            "breakdown {total} vs elapsed {}",
            traced.elapsed
        );
        // And the raw buffer exports as Chrome JSON with rank lanes.
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("rank 0"));
    }
}
