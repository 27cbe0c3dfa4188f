//! The SPMD interpreter: runs a compiled [`SpmdProgram`] on the
//! simulated cluster (and sequentially, for the reference baseline).

use std::collections::{BTreeSet, HashMap};

use cluster_sim::{ClusterConfig, CpuModel, OpCounts};
use mpi2::{AccumulateOp, Elem, Mpi, RankStats, Universe, WindowRef};
use mpi2::sync::ArcMutexGuard;
use vbus_sim::NetStats;
use vpce_faults::{raise, site, FaultSpec, VpceError};
use vpce_trace::{EventKind, Lane, TraceReport, Tracer};

use crate::cost::instr_ops_shallow;
use crate::ir::*;
use crate::protocol::{self, Step, SyncKind};
use crate::value::Value;

/// Multiplicative compute overhead of SPMD-generated code relative to
/// the sequential original: the master/slave code computes
/// global-to-local iteration mappings and guards region boundaries.
/// Calibrated to the paper's Table 1, where the 1-node parallel run
/// achieves a speedup of 0.96 (i.e. ≈4% slower than sequential).
pub const SPMD_OVERHEAD: f64 = 1.0 / 0.96;

/// How loop bodies execute. See the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Execute all numerics (correctness runs).
    Full,
    /// Charge compute cost analytically; skip numeric execution of
    /// parallel-region bodies. Communication still moves real bytes.
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
    /// Master's final array contents (meaningful in `Full` mode).
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
    let uni = Universe::new(cluster.clone())
        .with_tracer(tracer)
        .with_faults(faults)
        .with_crash_suppression(suppressed_crashes.clone());
    let out = uni.try_run(|mpi| run_rank(prog, mpi, mode, resume))?;
    let (arrays, scalars, boundaries) = out.results[0].clone();
    Ok(RunReport {
        elapsed: out.elapsed(),
        comm_time: out.max_comm_time(),
        rank_stats: out.rank_stats,
        net: out.net,
        arrays,
        scalars,
        boundaries,
        rma_conflicts: out.rma_conflicts,
        trace: out.trace,
    })
}

/// Execute the program's sequential form on one node (the Table-1
/// baseline: no MPI environment, no windows, no synchronization).
pub fn execute_sequential(prog: &SpmdProgram, cpu: &CpuModel, mode: ExecMode) -> SeqReport {
    let mut interp = Interp {
        scalars: init_scalars(prog),
        mem: prog.arrays.iter().map(|(_, len)| vec![0.0; *len]).collect(),
        cycles: 0.0,
        cost_cache: HashMap::new(),
        int_scalars: int_table(prog),
        mode,
    };
    match mode {
        ExecMode::Full => interp.run(&prog.sequential),
        ExecMode::Analytic => interp.charge_analytic(&prog.sequential),
    }
    SeqReport {
        elapsed: interp.cycles / cpu.clock_hz,
        arrays: interp.mem,
        scalars: interp.scalars,
    }
}

fn int_table(prog: &SpmdProgram) -> Vec<bool> {
    prog.scalars.iter().map(|(_, is_int)| *is_int).collect()
}

fn init_scalars(prog: &SpmdProgram) -> Vec<Value> {
    prog.scalars
        .iter()
        .map(|(_, is_int)| if *is_int { Value::I(0) } else { Value::R(0.0) })
        .collect()
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
fn run_rank(
    prog: &SpmdProgram,
    mpi: &mut Mpi,
    mode: ExecMode,
    resume: Option<&crate::checkpoint::Snapshot>,
) -> (Vec<Vec<Elem>>, Vec<Value>, Vec<f64>) {
    let rank = mpi.rank();
    let t_init = mpi.now();
    // One window per array, full-size on every rank ("all data
    // declared are intrinsically private", §3).
    let wins: Vec<WindowRef> = prog
        .arrays
        .iter()
        .map(|(_, len)| mpi.win_create(*len))
        .collect();
    // Lock-based reductions need a shared accumulator window.
    let max_reds = prog
        .regions()
        .filter(|r| r.lock_reductions)
        .map(|r| r.reductions.len())
        .max()
        .unwrap_or(0);
    let red_win: Option<WindowRef> = (max_reds > 0).then(|| mpi.win_create(max_reds));
    phase(mpi, t_init, || "init".to_string());
    let mut interp = Interp {
        scalars: init_scalars(prog),
        mem: Vec::new(), // unused on the MPI path; windows hold memory
        cycles: 0.0,
        cost_cache: HashMap::new(),
        int_scalars: int_table(prog),
        mode,
    };

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
        interp.scalars = snap.scalars.clone();
    }

    // The parallel regions still to run, under their whole-program
    // serial numbers — the deterministic key for rank-level fault
    // draws, which a resumed run must share with the uninterrupted one.
    let mut todo = prog.numbered_regions().filter(|&(_, block, _)| block >= skip);
    let mut boundaries = Vec::new();
    for block in &prog.blocks[skip..] {
        match block {
            Block::MasterSeq(instrs) => {
                if rank == 0 {
                    let t_serial = mpi.now();
                    let mut guards = lock_all(&wins);
                    // Sequential sections are cheap scalar set-up;
                    // execute them numerically in both modes so
                    // integer control state stays meaningful.
                    interp.run_on(instrs, &mut guards);
                    drop(guards);
                    flush_cycles(&mut interp, mpi);
                    phase(mpi, t_serial, || "serial".to_string());
                }
            }
            Block::Parallel(_) => {
                let (serial, _, region) =
                    todo.next().expect("one numbered region per parallel block");
                run_region(prog, region, mpi, &wins, red_win.as_ref(), &mut interp, serial);
            }
        }
        if rank == 0 {
            boundaries.push(mpi.now());
        }
    }

    // Final results: master's view.
    let arrays = if rank == 0 {
        wins.iter().map(WindowRef::snapshot).collect()
    } else {
        Vec::new()
    };
    (arrays, interp.scalars.clone(), boundaries)
}

type Guard = ArcMutexGuard<Vec<Elem>>;

fn lock_all(wins: &[WindowRef]) -> Vec<Guard> {
    wins.iter().map(WindowRef::lock_arc).collect()
}

fn flush_cycles(interp: &mut Interp, mpi: &mut Mpi) {
    if interp.cycles > 0.0 {
        let secs = interp.cycles / mpi.cpu().clock_hz;
        mpi.advance(secs);
        interp.cycles = 0.0;
    }
}

/// Execute one parallel region: interpret the §3 walk
/// ([`protocol::steps`]) against the MPI library.
fn run_region(
    prog: &SpmdProgram,
    region: &ParRegion,
    mpi: &mut Mpi,
    wins: &[WindowRef],
    red_win: Option<&WindowRef>,
    interp: &mut Interp,
    region_serial: u64,
) {
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
            // thread interleaving. A crash unwinds before the join
            // barrier; peers then observe poisoned collectives and the
            // universe reports the crash as the root cause.
            Step::CrashPoint => {
                let key = protocol::crash_key(rank, region_serial);
                let inj = mpi.fault_injector();
                let spec = inj.spec();
                if inj.hits(spec.rank_slow, site::RANK_SLOW, key, 0) {
                    slow_factor = spec.slow_factor;
                }
                if inj.crash_hits(key) {
                    raise(VpceError::RankCrash {
                        rank,
                        region: format!("L{line}"),
                    });
                }
            }
            Step::Sync(SyncKind::Barrier) => mpi.barrier(),
            Step::Sync(SyncKind::Fence) => mpi.fence_all(),
            // Shared scalars travel master -> everyone (values as f64;
            // the slot type restores integers).
            Step::Sync(SyncKind::Bcast) => {
                let payload = (rank == 0).then(|| {
                    region
                        .scalars_in
                        .iter()
                        .map(|&s| interp.scalars[s].as_real())
                        .collect::<Vec<f64>>()
                });
                let vals = mpi.bcast(0, payload);
                for (&slot, &v) in region.scalars_in.iter().zip(&vals) {
                    interp.scalars[slot] = if prog.scalars[slot].1 {
                        Value::I(v as i64)
                    } else {
                        Value::R(v)
                    };
                }
            }
            // Tree combine: everyone contributes its partial, one
            // collective per reduction.
            Step::Sync(SyncKind::Reduce) => {
                let (i, red) = tree_reds.next().expect("one reduce step per reduction");
                if let Some(v) = mpi.reduce(0, vec![partials[i]], red.op.into()) {
                    interp.scalars[red.scalar] = Value::R(combine(red.op, saved[i], v[0]));
                }
            }
            Step::Rma { op, target, get, .. } => {
                transfer(mpi, &wins[op.array], target, &op.transfer, get)
            }
            Step::Compute => {
                // Reductions: save master's running value, seed local
                // accumulator.
                saved = reduction_values(region, interp);
                for red in &region.reductions {
                    interp.scalars[red.scalar] = Value::R(red.identity);
                }
                // Partitioned execution of this rank's iterations.
                let (start, every, count) = region.sched.assignment(region.trips, rank, nprocs);
                if count > 0 {
                    let before = interp.cycles;
                    let mut guards = lock_all(wins);
                    match interp.mode {
                        ExecMode::Full => {
                            interp.run_iterations(region, start, every, count, &mut guards);
                        }
                        ExecMode::Analytic => {
                            interp.charge_region_body(region, start, every, count);
                        }
                    }
                    drop(guards);
                    // SPMD addressing overhead on the region's compute;
                    // an injected rank slowdown stretches the same
                    // interval (timing only — numeric results are
                    // untouched).
                    interp.cycles =
                        before + (interp.cycles - before) * SPMD_OVERHEAD * slow_factor;
                }
                flush_cycles(interp, mpi);
                partials = reduction_values(region, interp);
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
                    mpi.win_lock(red_win(), 0);
                    mpi.accumulate_now(red_win(), 0, i, vec![partials[i]], red.op.into());
                    mpi.win_unlock(red_win(), 0);
                }
            }
            Step::LockCombine => {
                if rank == 0 {
                    let m = red_win().snapshot();
                    for (i, red) in region.reductions.iter().enumerate() {
                        interp.scalars[red.scalar] = Value::R(combine(red.op, saved[i], m[i]));
                    }
                }
            }
            Step::End(ph) => {
                phase(mpi, t_phase, || format!("{}@L{line}", ph.as_str()));
                t_phase = mpi.now();
            }
        }
    }
}

/// The current values of the region's reduction scalars.
fn reduction_values(region: &ParRegion, interp: &Interp) -> Vec<f64> {
    region
        .reductions
        .iter()
        .map(|r| interp.scalars[r.scalar].as_real())
        .collect()
}

/// Issue one planned transfer — a GET from `target` or a PUT to it —
/// on the contiguous (DMA) or the strided (programmed-I/O) path.
fn transfer(mpi: &mut Mpi, win: &WindowRef, target: usize, t: &lmad::RegionTransfer, get: bool) {
    debug_assert!(t.offset >= 0, "transfers are in-bounds by construction");
    let (offset, stride, count) = (t.offset as usize, t.stride as usize, t.count as usize);
    match (get, t.is_contiguous()) {
        (true, true) => mpi.get(win, target, offset, count),
        (true, false) => mpi.get_strided(win, target, offset, stride, count),
        (false, true) => mpi.put_region(win, target, offset, count),
        (false, false) => mpi.put_region_strided(win, target, offset, stride, count),
    }
}

/// The statement interpreter. `mem` is used on the sequential path;
/// the MPI path passes window guards explicitly.
struct Interp {
    scalars: Vec<Value>,
    mem: Vec<Vec<Elem>>,
    /// Accumulated un-flushed compute cycles.
    cycles: f64,
    /// Cached per-instruction shallow cycle costs, keyed by address.
    cost_cache: HashMap<usize, f64>,
    /// INTEGER-ness per scalar slot (cost model input).
    int_scalars: Vec<bool>,
    mode: ExecMode,
}

/// P-II cycle table used to price OpCounts. The actual conversion to
/// seconds uses the cluster's CPU model clock; the *table* must match
/// the one in `cluster-sim` so Full and Analytic agree.
fn ops_cycles(ops: &OpCounts) -> f64 {
    CpuModel::pentium_ii_300().cycles(ops)
}

impl Interp {
    fn shallow_cost(&mut self, i: &Instr) -> f64 {
        let key = i as *const Instr as usize;
        if let Some(&c) = self.cost_cache.get(&key) {
            return c;
        }
        let c = ops_cycles(&instr_ops_shallow(i, &self.int_scalars));
        self.cost_cache.insert(key, c);
        c
    }

    /// Run instructions against `self.mem` (sequential path).
    fn run(&mut self, instrs: &[Instr]) {
        // Move the memory out to satisfy the borrow checker, run, put
        // it back.
        let mut mem = std::mem::take(&mut self.mem);
        {
            let mut guards: Vec<&mut Vec<Elem>> = mem.iter_mut().collect();
            self.run_generic(instrs, &mut guards);
        }
        self.mem = mem;
    }

    /// Run instructions against window guards (MPI path).
    fn run_on(&mut self, instrs: &[Instr], guards: &mut [Guard]) {
        let mut views: Vec<&mut Vec<Elem>> = guards.iter_mut().map(|g| &mut **g).collect();
        self.run_generic(instrs, &mut views);
    }

    /// Run this rank's iterations of a parallel region (views built
    /// once, not per iteration).
    fn run_iterations(
        &mut self,
        region: &ParRegion,
        start: u64,
        every: u64,
        count: u64,
        guards: &mut [Guard],
    ) {
        let mut views: Vec<&mut Vec<Elem>> = guards.iter_mut().map(|g| &mut **g).collect();
        for k in 0..count {
            let t = start + k * every;
            self.scalars[region.var] = Value::I(region.lo + t as i64 * region.step);
            self.cycles += 2.0; // outer loop bookkeeping
            self.run_generic(&region.body, &mut views);
        }
    }

    fn run_generic(&mut self, instrs: &[Instr], mem: &mut [&mut Vec<Elem>]) {
        for i in instrs {
            self.cycles += self.shallow_cost(i);
            match i {
                Instr::StoreArray {
                    array,
                    index,
                    value,
                } => {
                    let idx = self.eval(index, mem).as_int();
                    let v = self.eval(value, mem).as_real();
                    let m = &mut *mem[*array];
                    assert!(
                        (idx as usize) < m.len(),
                        "store out of bounds: array {} index {idx} len {}",
                        array,
                        m.len()
                    );
                    m[idx as usize] = v;
                }
                Instr::StoreScalar { slot, value } => {
                    self.scalars[*slot] = self.eval(value, mem);
                }
                Instr::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = self.eval(lo, mem).as_int();
                    let hi = self.eval(hi, mem).as_int();
                    let step = *step;
                    let mut v = lo;
                    while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
                        self.scalars[*var] = Value::I(v);
                        self.cycles += 2.0; // loop bookkeeping
                        self.run_generic(body, mem);
                        v += step;
                    }
                }
                Instr::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if self.eval(cond, mem).is_true() {
                        self.run_generic(then_body, mem);
                    } else {
                        self.run_generic(else_body, mem);
                    }
                }
            }
        }
    }

    fn eval(&self, e: &Expr, mem: &[&mut Vec<Elem>]) -> Value {
        match e {
            Expr::IConst(v) => Value::I(*v),
            Expr::RConst(v) => Value::R(*v),
            Expr::Scalar(slot) => self.scalars[*slot],
            Expr::Load { array, index } => {
                let idx = self.eval(index, mem).as_int();
                let m = &*mem[*array];
                assert!(
                    (idx as usize) < m.len(),
                    "load out of bounds: array {} index {idx} len {}",
                    array,
                    m.len()
                );
                Value::R(m[idx as usize])
            }
            Expr::Neg(a) => self.eval(a, mem).neg(),
            Expr::Not(a) => self.eval(a, mem).not(),
            Expr::Bin(op, a, b) => {
                let x = self.eval(a, mem);
                let y = self.eval(b, mem);
                match op {
                    BinOp::Add => x.add(y),
                    BinOp::Sub => x.sub(y),
                    BinOp::Mul => x.mul(y),
                    BinOp::Div => x.div(y),
                    BinOp::Pow => x.pow(y),
                    BinOp::Lt => x.lt(y),
                    BinOp::Le => x.le(y),
                    BinOp::Gt => x.gt(y),
                    BinOp::Ge => x.ge(y),
                    BinOp::Eq => x.eq_v(y),
                    BinOp::Ne => x.ne_v(y),
                    BinOp::And => x.and(y),
                    BinOp::Or => x.or(y),
                }
            }
            Expr::Intr(op, args) => {
                let a0 = self.eval(&args[0], mem);
                match op {
                    IntrinsicOp::Sqrt => Value::R(a0.as_real().sqrt()),
                    IntrinsicOp::Abs => match a0 {
                        Value::I(v) => Value::I(v.abs()),
                        Value::R(v) => Value::R(v.abs()),
                    },
                    IntrinsicOp::Sin => Value::R(a0.as_real().sin()),
                    IntrinsicOp::Cos => Value::R(a0.as_real().cos()),
                    IntrinsicOp::Exp => Value::R(a0.as_real().exp()),
                    IntrinsicOp::ToReal => Value::R(a0.as_real()),
                    IntrinsicOp::ToInt => Value::I(a0.as_real().trunc() as i64),
                    IntrinsicOp::Mod => {
                        let a1 = self.eval(&args[1], mem);
                        match (a0, a1) {
                            (Value::I(x), Value::I(y)) => Value::I(x % y),
                            (x, y) => Value::R(x.as_real() % y.as_real()),
                        }
                    }
                    IntrinsicOp::Min => {
                        let a1 = self.eval(&args[1], mem);
                        match (a0, a1) {
                            (Value::I(x), Value::I(y)) => Value::I(x.min(y)),
                            (x, y) => Value::R(x.as_real().min(y.as_real())),
                        }
                    }
                    IntrinsicOp::Max => {
                        let a1 = self.eval(&args[1], mem);
                        match (a0, a1) {
                            (Value::I(x), Value::I(y)) => Value::I(x.max(y)),
                            (x, y) => Value::R(x.as_real().max(y.as_real())),
                        }
                    }
                }
            }
        }
    }

    // ---------------- analytic costing ----------------

    /// Charge the cost of this rank's share of a region body without
    /// executing numerics.
    fn charge_region_body(&mut self, region: &ParRegion, start: u64, every: u64, count: u64) {
        // If no inner bound depends on the parallel index, one
        // iteration prices them all.
        if !body_mentions_scalar(&region.body, region.var) {
            self.scalars[region.var] = Value::I(region.lo + start as i64 * region.step);
            let per = self.analytic_cost(&region.body);
            self.cycles += (per + 2.0) * count as f64;
        } else {
            for k in 0..count {
                let t = start + k * every;
                self.scalars[region.var] = Value::I(region.lo + t as i64 * region.step);
                let per = self.analytic_cost(&region.body);
                self.cycles += per + 2.0;
            }
        }
    }

    /// Charge a whole statement list analytically (sequential
    /// baseline).
    fn charge_analytic(&mut self, instrs: &[Instr]) {
        let c = self.analytic_cost(instrs);
        self.cycles += c;
    }

    /// Cycle cost of executing `instrs` once, evaluating loop bounds
    /// through the current integer scalar state but skipping all
    /// numeric work. Conditionals are priced as condition + THEN
    /// branch (a documented approximation; the evaluated benchmarks
    /// have no data-dependent branches in hot regions).
    fn analytic_cost(&mut self, instrs: &[Instr]) -> f64 {
        let mut total = 0.0;
        for i in instrs {
            total += self.shallow_cost(i);
            match i {
                Instr::StoreArray { .. } | Instr::StoreScalar { .. } => {}
                Instr::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = self.eval(lo, &[]).as_int();
                    let hi = self.eval(hi, &[]).as_int();
                    let trips = ((hi - lo + step) / step).max(0) as u64;
                    if trips == 0 {
                        continue;
                    }
                    if !body_mentions_scalar(body, *var) {
                        self.scalars[*var] = Value::I(lo);
                        let per = self.analytic_cost(body);
                        total += (per + 2.0) * trips as f64;
                    } else {
                        let mut v = lo;
                        for _ in 0..trips {
                            self.scalars[*var] = Value::I(v);
                            total += self.analytic_cost(body) + 2.0;
                            v += step;
                        }
                    }
                }
                Instr::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let t = self.analytic_cost(then_body);
                    let e = self.analytic_cost(else_body);
                    total += t.max(e);
                }
            }
        }
        total
    }
}

/// Does any expression in the body mention scalar `var` outside of
/// plain stores (i.e. in loop bounds or conditions that shape cost)?
fn body_mentions_scalar(instrs: &[Instr], var: usize) -> bool {
    fn expr_mentions(e: &Expr, var: usize) -> bool {
        match e {
            Expr::Scalar(s) => *s == var,
            Expr::IConst(_) | Expr::RConst(_) => false,
            Expr::Load { index, .. } => expr_mentions(index, var),
            Expr::Neg(a) | Expr::Not(a) => expr_mentions(a, var),
            Expr::Bin(_, a, b) => expr_mentions(a, var) || expr_mentions(b, var),
            Expr::Intr(_, args) => args.iter().any(|a| expr_mentions(a, var)),
        }
    }
    instrs.iter().any(|i| match i {
        Instr::Loop { lo, hi, body, .. } => {
            expr_mentions(lo, var) || expr_mentions(hi, var) || body_mentions_scalar(body, var)
        }
        Instr::If {
            cond,
            then_body,
            else_body,
        } => {
            expr_mentions(cond, var)
                || body_mentions_scalar(then_body, var)
                || body_mentions_scalar(else_body, var)
        }
        // Store costs are var-independent (shallow cost is static).
        _ => false,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lmad::RegionTransfer;

    /// Hand-built program: arrays A (len 16) and C (len 16);
    /// parallel region computes C[i] = A[i] * 2 over 16 iterations,
    /// block-scheduled on 4 ranks. A is initialised by the master.
    pub(crate) fn axpy_prog(nprocs: usize) -> SpmdProgram {
        let n = 16usize;
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
                            transfer: RegionTransfer {
                                offset: (r * chunk) as i64,
                                stride: 1,
                                count: chunk as u64,
                            },
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
            body: body.clone(),
            scatter: CommPlan {
                per_rank: per_rank(0),
                granularity: None,
            },
            collect: CommPlan {
                per_rank: per_rank(1),
                granularity: None,
            },
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
            blocks: vec![Block::MasterSeq(init), Block::Parallel(region)],
            sequential,
        }
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
        let full = execute(&prog, &cluster, ExecMode::Full);
        let ana = execute(&prog, &cluster, ExecMode::Analytic);
        assert!(
            (full.elapsed - ana.elapsed).abs() / full.elapsed < 1e-9,
            "full {} vs analytic {}",
            full.elapsed,
            ana.elapsed
        );
        assert_eq!(full.net.p2p_messages, ana.net.p2p_messages);
        assert_eq!(full.net.p2p_bytes, ana.net.p2p_bytes);
    }

    #[test]
    fn analytic_sequential_matches_full_sequential_timing() {
        let prog = axpy_prog(4);
        let cpu = CpuModel::pentium_ii_300();
        let f = execute_sequential(&prog, &cpu, ExecMode::Full);
        let a = execute_sequential(&prog, &cpu, ExecMode::Analytic);
        assert!((f.elapsed - a.elapsed).abs() / f.elapsed.max(1e-30) < 1e-9);
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
