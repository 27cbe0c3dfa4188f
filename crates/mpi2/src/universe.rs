//! The MPI universe: rank tasks on worker threads, virtual clocks, and
//! the `Mpi` process handle.

use std::any::Any;
use std::collections::BTreeSet;
use std::future::Future;
use std::ops::{AsyncFn, AsyncFnOnce};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use cluster_sim::{
    ClusterConfig, CpuModel, HostCostBreakdown, NicModel, OpCounts, Protocol, TransferKind,
};
use crate::sync::Mutex;
use vbus_sim::{NetSim, NetStats};
use vpce_faults::{FaultInjector, FaultSpec, VpceError};
use vpce_trace::{
    CallInfo, CallOp, DataPath, Dominator, EventKind, Lane, SetupParts, TraceReport, Tracer,
};

use crate::blocking::Blocking;
use crate::conflict::{ConflictRecord, EpochLedger, ScanScratch};
use crate::pool::{BufferPool, PoolSnapshot};
use crate::rma::{apply_memory, FenceOrder, Message, PendingSeries};
use crate::stats::RankStats;
use crate::transport::{TransportPolicy, CTRL_BYTES, HDR_BYTES};
use crate::window::{WinId, WindowRef, WindowTable};

/// State shared by every rank of a universe.
pub(crate) struct Shared {
    pub cfg: ClusterConfig,
    pub net: Mutex<NetSim>,
    pub table: Mutex<WindowTable>,
    /// What the fence leader keeps from one fence to the next. Pending
    /// operations are not here: each waits in its origin's own queue
    /// ([`Mpi::queue`]) and arrives with its rank.
    pub fence: Mutex<FenceScratch>,
    /// Everything a rank can wait on — collectives, receives, window
    /// locks — and the stall detector over them.
    pub blocking: Blocking,
    /// Dynamic epoch-conflict ledger: undefined-outcome RMA pairs
    /// detected at closing fences (see [`crate::conflict`]).
    pub conflicts: Mutex<Vec<ConflictRecord>>,
    /// Trace sink — the no-op tracer unless the universe was built
    /// with [`Universe::with_tracer`].
    pub tracer: Tracer,
    /// Host-side fault plane (NIC retries/stalls); the wire-side plane
    /// lives inside [`NetSim`]. Disabled unless the universe was built
    /// with [`Universe::with_faults`].
    pub faults: FaultInjector,
    /// Per-origin-rank registered eager-slot arenas. Per rank on
    /// purpose: a shared pool would hand slots out in OS-scheduling
    /// order and break virtual-time determinism.
    pub pools: Vec<Mutex<BufferPool>>,
    /// The resolved eager/rendezvous switchover policy of this run.
    pub policy: TransportPolicy,
    /// OS threads carrying this run's ranks. With fewer than ranks, a
    /// rank that slept inside a call would take its worker's other
    /// ranks down with it: [`Mpi::block_on`] panics instead.
    pub workers: usize,
}

impl Shared {
    /// Software+wire cost of one barrier on this machine: with V-Bus
    /// hardware a bus-arbitrated release, otherwise a software
    /// dissemination tree.
    pub(crate) fn barrier_cost(&self) -> f64 {
        let cfg = &self.cfg;
        let p = cfg.num_nodes();
        if p == 1 {
            return cfg.node.nic.post_s;
        }
        let link = cfg.net.link;
        let small = link.per_hop_s * cfg.net.topology.diameter() as f64
            + link.transfer_time(64)
            + cfg.node.nic.post_s;
        match cfg.net.vbus {
            Some(vb) => vb.arbitration_s + vb.per_node_config_s * p as f64 + small,
            None => 2.0 * (p as f64).log2().ceil() * small,
        }
    }
}

/// The outcome of running an SPMD closure on the cluster.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// Per-rank return values of the closure.
    pub results: Vec<R>,
    /// Final virtual clock of each rank, seconds.
    pub clocks: Vec<f64>,
    /// Per-rank communication/synchronization ledgers.
    pub rank_stats: Vec<RankStats>,
    /// Aggregate network counters.
    pub net: NetStats,
    /// Undefined-outcome RMA pairs recorded by the dynamic
    /// epoch-conflict ledger across the whole run. Empty for a
    /// well-synchronised program.
    pub rma_conflicts: Vec<ConflictRecord>,
    /// Phase rollups + critical-path attribution, present iff the
    /// universe was built with [`Universe::with_tracer`].
    pub trace: Option<TraceReport>,
    /// End-of-run registered-pool accounting, one entry per rank. For
    /// any program that fences its pending operations, `leaked` is 0.
    pub pool: Vec<PoolSnapshot>,
}

impl<R> RunOutcome<R> {
    /// Virtual execution time of the run: the slowest rank's clock.
    pub fn elapsed(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }

    /// The critical-path communication time: the largest per-rank
    /// `comm_host + comm_wait` (what Table 2 reports).
    pub fn max_comm_time(&self) -> f64 {
        self.rank_stats
            .iter()
            .map(RankStats::comm_time)
            .fold(0.0, f64::max)
    }

    /// Cluster-wide totals (all ranks merged).
    pub fn total_stats(&self) -> RankStats {
        let mut acc = RankStats::default();
        for s in &self.rank_stats {
            acc.merge(s);
        }
        acc
    }
}

/// A simulated cluster ready to run SPMD programs.
pub struct Universe {
    cfg: ClusterConfig,
    tracer: Tracer,
    faults: FaultSpec,
    suppressed_crashes: BTreeSet<u64>,
    transport: Option<TransportPolicy>,
}

impl Universe {
    /// Build a universe for the given machine.
    pub fn new(cfg: ClusterConfig) -> Self {
        Universe {
            cfg,
            tracer: Tracer::disabled(),
            faults: FaultSpec::off(),
            suppressed_crashes: BTreeSet::new(),
            transport: None,
        }
    }

    /// Override the eager/rendezvous transport policy (the default is
    /// derived from the machine cost model via
    /// [`TransportPolicy::from_config`]). The bench harness uses this
    /// to force each protocol across the same message sizes.
    pub fn with_transport(mut self, policy: TransportPolicy) -> Self {
        self.transport = Some(policy);
        self
    }

    /// The transport policy runs of this universe resolve to.
    pub fn transport_policy(&self) -> TransportPolicy {
        self.transport
            .clone()
            .unwrap_or_else(|| TransportPolicy::from_config(&self.cfg))
    }

    /// Attach a trace sink: every run records call spans, link
    /// occupancy and bus events into `tracer`, and the outcome carries
    /// a [`TraceReport`].
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Arm a deterministic fault schedule: link corruption/drops,
    /// V-Bus arbitration failures, NIC retries and rank faults are
    /// drawn from `spec` during every run. With the default
    /// ([`FaultSpec::off`]) behaviour is byte-identical to a universe
    /// built without this call.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// The fault schedule this universe runs under.
    pub fn fault_spec(&self) -> &FaultSpec {
        &self.faults
    }

    /// Mask the crash draws at these `RANK_CRASH` keys. Because every
    /// fault draw is a pure hash of `(seed, site, key, salt)`, masking
    /// a key elides exactly that crash and shifts no other draw —
    /// the foundation of in-run rollback recovery, which re-executes
    /// a run with already-recovered crashes suppressed.
    pub fn with_crash_suppression(mut self, keys: BTreeSet<u64>) -> Self {
        self.suppressed_crashes = keys;
        self
    }

    /// The trace sink this universe emits into (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The paper's 4-node machine.
    pub fn paper_4node() -> Self {
        Universe::new(ClusterConfig::paper_4node())
    }

    /// Number of MPI processes (one per node).
    pub fn size(&self) -> usize {
        self.cfg.num_nodes()
    }

    /// The machine configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Run `f` as an SPMD program, each rank handed its own [`Mpi`]
    /// handle. Returns when every rank's closure returns.
    ///
    /// One OS thread per rank: a plain closure cannot be suspended, so
    /// a rank that has to wait inside a call keeps its thread and
    /// sleeps on it. [`Universe::run_on`] is the same engine without
    /// that cost, for programs written as `async` closures.
    ///
    /// # Panics
    /// Panics with the error's Display text when the run fails — a
    /// modelled fault exhausted its recovery budget, or the program
    /// misused the API: the synchronous operations panic with it, and
    /// the first rank to fail is the one whose panic goes on.
    /// [`Universe::run_on`] returns the typed error instead.
    pub fn run<R, F>(&self, f: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&mut Mpi) -> R + Sync,
    {
        self.run_on(self.size(), async |mpi: &mut Mpi| Ok(f(mpi)))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run `f` as an SPMD program of resumable rank tasks on `workers`
    /// OS threads (clamped to `1..=size`), the calling thread among
    /// them: one worker spawns nothing. A rank that has to wait inside
    /// an `_async` call yields, and is data until it can go on; rank
    /// `r` stays on worker `r % workers` for life. Every collective
    /// folds its inputs in rank order, so the outcome does not depend
    /// on the worker count — the caller picks it for speed alone
    /// (`spmd_rt::exec::workers` is the rule compiled programs use).
    ///
    /// A rank whose body returns `Err` fails the run: its peers leave
    /// their waits with [`VpceError::PeerFailure`], and the run returns
    /// the root cause — the first error in rank order that is not a
    /// `PeerFailure`. A panic (a genuine bug) that is the run's first
    /// failure goes on unwinding once every rank has ended.
    ///
    /// `f` must wait through the `_async` operations only. A
    /// synchronous one that has to wait panics when ranks share
    /// workers.
    pub fn run_on<R, F>(&self, workers: usize, f: F) -> Result<RunOutcome<R>, VpceError>
    where
        R: Send,
        F: AsyncFn(&mut Mpi) -> Result<R, VpceError> + Sync,
    {
        let n = self.size();
        let workers = workers.clamp(1, n);
        let mut net = NetSim::new(self.cfg.net.clone());
        net.set_faults(self.faults.clone());
        if self.tracer.is_enabled() {
            net.set_tracer(self.tracer.clone());
            for r in 0..n {
                self.tracer.register_lane(Lane::Rank(r), format!("rank {r}"));
            }
        }
        let policy = self.transport_policy();
        let slot_elems = policy.slot_bytes / crate::ELEM_BYTES;
        let pools = (0..n)
            .map(|_| Mutex::new(BufferPool::new(policy.slots, slot_elems)))
            .collect();
        let shared = Arc::new(Shared {
            cfg: self.cfg.clone(),
            net: Mutex::new(net),
            table: Mutex::new(WindowTable::default()),
            fence: Mutex::default(),
            blocking: Blocking::new(n),
            conflicts: Mutex::new(Vec::new()),
            tracer: self.tracer.clone(),
            faults: FaultInjector::new(self.faults.clone())
                .with_suppressed_crashes(self.suppressed_crashes.clone()),
            pools,
            policy,
            workers,
        });
        // Worker 0 is the calling thread: one worker spawns nothing.
        let mut by_worker: Vec<_> =
            crate::workers::scoped(workers, |w| drive_ranks(&shared, &f, w).into_iter());
        let mut results = Vec::with_capacity(n);
        let mut clocks = Vec::with_capacity(n);
        let mut rank_stats = Vec::with_capacity(n);
        let mut typed: Vec<VpceError> = Vec::new();
        // Rank order: worker `r % workers` carried rank `r`, after the
        // smaller ranks of its share.
        for rank in 0..n {
            match by_worker[rank % workers].next().expect("one end per rank") {
                RankEnd::Done(r, c, s) => {
                    results.push(r);
                    clocks.push(c);
                    rank_stats.push(s);
                }
                RankEnd::Failed(err) => typed.push(err),
                // The run's first failure was a panic: a genuine bug,
                // or a synchronous operation's error. Re-raise it with
                // its original payload (every rank has ended).
                RankEnd::Panicked(payload, true) => resume_unwind(payload),
                // A panic after the first failure is its echo.
                RankEnd::Panicked(_, false) => {}
            }
        }
        if !typed.is_empty() {
            // Prefer the root cause over the secondary `PeerFailure`
            // wake-ups it triggered on peer ranks.
            let best = typed
                .iter()
                .position(|e| !matches!(e, VpceError::PeerFailure { .. }))
                .unwrap_or(0);
            return Err(typed.swap_remove(best));
        }
        let net = shared.net.lock().stats().clone();
        let rma_conflicts = std::mem::take(&mut *shared.conflicts.lock());
        let pool = shared
            .pools
            .iter()
            .map(|p| p.lock().snapshot_final())
            .collect();
        let trace = self
            .tracer
            .is_enabled()
            .then(|| TraceReport::build(&self.tracer, &clocks));
        Ok(RunOutcome {
            results,
            clocks,
            rank_stats,
            net,
            rma_conflicts,
            trace,
            pool,
        })
    }
}

/// How one rank ended: its result, final clock and ledger; the error
/// its task returned; or the payload it unwound with, and whether that
/// unwind was the run's first failure.
enum RankEnd<R> {
    Done(R, f64, RankStats),
    Failed(VpceError),
    Panicked(Box<dyn Any + Send>, bool),
}

/// Worker `w` of `shared.workers`: carry ranks `w, w + workers, …` to
/// their ends, in that order. Each sweep polls every rank still going
/// once — a poll of a rank that cannot go on yet is one look at the
/// guarded state — and the thread sleeps only when a whole sweep left
/// all of them pending. A rank that ends in an error, or panics, fails
/// the run: its peers leave their waits at their next poll, and this
/// worker's other ranks are still carried to their ends.
fn drive_ranks<R, F>(shared: &Arc<Shared>, f: &F, w: usize) -> Vec<RankEnd<R>>
where
    F: AsyncFn(&mut Mpi) -> Result<R, VpceError>,
{
    let (n, workers) = (shared.cfg.num_nodes(), shared.workers);
    let mut live: Vec<usize> = (w..n).step_by(workers).collect();
    let mut tasks: Vec<_> = live
        .iter()
        .map(|&rank| {
            Some(Box::pin(async move {
                let mut mpi = Mpi {
                    rank,
                    size: n,
                    clock: 0.0,
                    nic_seq: 0,
                    queue: Vec::new(),
                    ring: None,
                    stats: RankStats::default(),
                    shared: Arc::clone(shared),
                };
                let r = f(&mut mpi).await?;
                // This rank will never wake anyone again: peers left
                // waiting on it are deadlocked.
                shared.blocking.finish(rank)?;
                Ok((r, mpi.clock, mpi.stats))
            }))
        })
        .collect();
    let mut ends: Vec<Option<RankEnd<R>>> = tasks.iter().map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        live.retain(|&rank| {
            let slot = rank / workers;
            let task = tasks[slot].as_mut().expect("a live rank has a task");
            ends[slot] = Some(match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
                Ok(Poll::Pending) => return true,
                Ok(Poll::Ready(Ok((r, c, s)))) => RankEnd::Done(r, c, s),
                Ok(Poll::Ready(Err(e))) => {
                    shared.blocking.fail();
                    RankEnd::Failed(e)
                }
                Err(payload) => RankEnd::Panicked(payload, shared.blocking.fail()),
            });
            tasks[slot] = None;
            false
        });
        if live.is_empty() {
            return ends.into_iter().map(|e| e.expect("every rank ended")).collect();
        }
        shared.blocking.park(&live);
    }
}

/// The fence leader's working memory. The leader is whichever rank
/// arrives last, so it belongs to the universe, not to a rank: the
/// merge's heap over all queues and the message-level conflict scan's
/// buffers, refilled at every fence and never shrunk. A fence allocates
/// per queue and per planned op, nothing per wire message.
#[derive(Default)]
pub(crate) struct FenceScratch {
    order: FenceOrder,
    scan: ScanScratch,
}

/// Trace provenance a fence's leader closure hands back to every
/// rank: what the exit time was waiting on.
#[derive(Debug, Clone, Copy)]
struct FenceTrace {
    /// Wire messages the epoch completed.
    ops: u64,
    /// Rank of the event that determined the fence exit.
    dom_rank: usize,
    /// Virtual time of that event (slowest entry, or the dominating
    /// transfer's issue).
    dom_t: f64,
    /// Wire interval of the dominating transfer, if one dominated.
    net: Option<(f64, f64)>,
    /// Leading part of that interval spent on retransmits/backoff.
    recovery: f64,
}

/// The rank that arrived last — the first such — and its clock; rank 0
/// at time 0 when every clock is 0.
fn slowest(clocks: impl IntoIterator<Item = f64>) -> (usize, f64) {
    let later = |best: (usize, f64), (r, c)| if c > best.1 { (r, c) } else { best };
    clocks.into_iter().enumerate().fold((0, 0.0), later)
}

/// The call-span payload of a transfer-initiating call: wire bytes,
/// NIC path and the host-cost split of its setup.
pub(crate) fn transfer_info(op: CallOp, kind: TransferKind, b: &HostCostBreakdown) -> CallInfo {
    let mut info = CallInfo::new(op);
    info.bytes = kind.wire_bytes() as u64;
    info.path = match kind {
        TransferKind::Contiguous { .. } => DataPath::Dma,
        TransferKind::Strided { .. } => DataPath::Pio,
    };
    info.parts = Some(SetupParts {
        queue_s: b.queue_s,
        dma_s: b.dma_setup_s,
        pio_s: b.pio_copy_s,
        copy_s: b.copy_s,
        chunks: b.chunks as u64,
    });
    info
}

/// Handle to one MPI process, handed to each rank of a run.
pub struct Mpi {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) clock: f64,
    /// Serial number of host-side NIC operations on this rank — the
    /// deterministic key fault draws for DMA/PIO retries hash on. A
    /// charge an op reuses takes its serial all the same.
    pub(crate) nic_seq: u64,
    /// This rank's buffered one-sided operations, one series per call,
    /// in issue order. An operation stays here from issue until a
    /// closing fence has applied it: the queue travels into the fence
    /// with its rank, the leader reads every rank's in place, and it
    /// comes back emptied of what the fence completed, capacity kept.
    pub(crate) queue: Vec<PendingSeries>,
    /// Open descriptor ring, `(window, descriptors)`: consecutive
    /// same-window one-sided ops ride one doorbell until the ring
    /// fills or the epoch closes.
    pub(crate) ring: Option<(WinId, usize)>,
    pub(crate) stats: RankStats,
    pub(crate) shared: Arc<Shared>,
}

impl Mpi {
    /// This process's rank, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the universe.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The ledger of this rank so far.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// Take this rank's ledger and leave a zeroed one behind.
    ///
    /// `RankStats` accumulates for the lifetime of the closure a
    /// `Universe` runs — correct for one job, wrong the moment one
    /// universe multiplexes several logical runs (a batch scheduler,
    /// an in-closure phase sweep): without an explicit scope boundary
    /// the second run's counters silently include the first's. Calling
    /// `take_stats` at the boundary makes the scoping explicit: each
    /// segment reports exactly its own traffic, and the pieces sum to
    /// what the lifetime ledger would have shown. The virtual clock is
    /// untouched — this scopes *counters*, not time.
    pub fn take_stats(&mut self) -> RankStats {
        std::mem::take(&mut self.stats)
    }

    /// The CPU model of this node.
    pub fn cpu(&self) -> &CpuModel {
        &self.shared.cfg.node.cpu
    }

    /// The run's fault oracle (inert when the spec is off). Runtimes
    /// layered above MPI draw their own fault decisions from it so
    /// the whole stack shares one seed.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.shared.faults
    }

    fn nic(&self) -> &NicModel {
        &self.shared.cfg.node.nic
    }

    /// Charge the virtual clock for local computation.
    pub fn compute(&mut self, ops: &OpCounts) {
        self.clock += self.cpu().time(ops);
    }

    /// Advance the virtual clock by raw seconds (pre-computed costs).
    pub fn advance(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0);
        self.clock += secs;
    }

    // ------------------------------------------------------------------
    // Waiting
    // ------------------------------------------------------------------

    /// Carry `op` to its end on this rank's own thread: poll it, and
    /// sleep while it is pending. Every synchronous operation that can
    /// wait (`barrier`, `fence_all`, `recv`, …) is this around its
    /// `_async` form, which holds the one body.
    ///
    /// # Panics
    /// Panics with the error's Display text when `op` fails, and with
    /// that of a [`VpceError::Internal`] when `op` has to wait and this
    /// rank shares its thread with others ([`Universe::run_on`] on
    /// fewer workers than ranks): sleeping here would stop ranks the
    /// wait may depend on.
    pub fn block_on<T>(&mut self, op: impl AsyncFnOnce(&mut Mpi) -> Result<T, VpceError>) -> T {
        let (shared, rank) = (Arc::clone(&self.shared), self.rank);
        let mut op = pin!(op(self));
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            match op.as_mut().poll(&mut cx) {
                Poll::Ready(out) => return out.unwrap_or_else(|e| panic!("{e}")),
                Poll::Pending if shared.workers < shared.cfg.num_nodes() => {
                    let e = VpceError::Internal {
                        msg: format!(
                            "rank {rank} has to wait inside a synchronous call, on a thread it \
                             shares with other ranks: use the `_async` form inside `run_on`"
                        ),
                    };
                    panic!("{e}")
                }
                Poll::Pending => shared.blocking.park(&[rank]),
            }
        }
    }

    // ------------------------------------------------------------------
    // Windows
    // ------------------------------------------------------------------

    /// Collectively create a window with `len` local elements on every
    /// rank (ranks may pass different lengths). Returns the handle to
    /// this rank's shard.
    pub fn win_create(&mut self, len: usize) -> WindowRef {
        self.block_on(async |m| m.win_create_async(len).await)
    }

    /// [`win_create`](Mpi::win_create) for a rank task.
    pub async fn win_create_async(&mut self, len: usize) -> Result<WindowRef, VpceError> {
        self.win_create_form(len, true).await
    }

    /// [`win_create`](Mpi::win_create) in its length-only form: this
    /// rank's shard declares `len` elements and stores none. The same
    /// collective at the same cost — ranks may mix the two calls — and
    /// every one-sided operation on the window is checked, priced,
    /// scheduled and traced as on a backed one; values move only
    /// between two backed shards.
    pub fn win_create_length_only(&mut self, len: usize) -> WindowRef {
        self.block_on(async |m| m.win_create_length_only_async(len).await)
    }

    /// [`win_create_length_only`](Mpi::win_create_length_only) for a
    /// rank task.
    pub async fn win_create_length_only_async(&mut self, len: usize) -> Result<WindowRef, VpceError> {
        self.win_create_form(len, false).await
    }

    async fn win_create_form(&mut self, len: usize, backed: bool) -> Result<WindowRef, VpceError> {
        let entry = self.clock;
        let shared = Arc::clone(&self.shared);
        let (win, exit, dom) = self.shared.blocking.run(self.rank, ((len, backed), self.clock), |ins| {
            let forms: Vec<(usize, bool)> = ins.iter().map(|(f, _)| *f).collect();
            let (slowest, maxc) = slowest(ins.iter().map(|(_, c)| *c));
            let id = shared.table.lock().create(&forms);
            let exit = maxc + shared.barrier_cost();
            Ok(vec![(id, exit, (slowest, maxc)); forms.len()])
        }).await?;
        self.stats.sync_wait += exit - entry;
        self.clock = exit;
        self.trace_blocking(CallOp::WinCreate, entry, exit, 0, Some(dom), None);
        Ok(self.win_ref(win))
    }

    /// Handle to this rank's shard of an existing window.
    pub fn win_ref(&self, win: WinId) -> WindowRef {
        self.shared.table.lock().window_ref(win, self.rank)
    }

    // ------------------------------------------------------------------
    // Host-side NIC charge (shared by two-sided sends and one-sided ops)
    // ------------------------------------------------------------------

    /// Host-side cost of initiating one transfer, with the NIC fault
    /// plane applied: DMA/PIO retries and queue stalls are drawn
    /// deterministically from this rank's operation serial, booked in
    /// the ledger and traced. `proto` selects the cost model: `None` is
    /// the legacy chunked driver path (two-sided sends, passive-target
    /// RMA); `Some((protocol, batched))` is the protocol-aware
    /// active-target path, `batched` when the descriptor rides an open
    /// ring. An exhausted retry budget is a
    /// [`VpceError::NicFailure`].
    pub(crate) fn host_breakdown_checked(
        &mut self,
        kind: TransferKind,
        proto: Option<(Protocol, bool)>,
    ) -> Result<HostCostBreakdown, VpceError> {
        let seq = self.nic_seq;
        self.nic_seq += 1;
        let (nic, cpu, inj) = (self.nic(), self.cpu(), &self.shared.faults);
        let b = match proto {
            None => nic.host_breakdown_faulty(kind, cpu, inj, self.rank, seq),
            Some((proto, batched)) => {
                nic.host_breakdown_proto_faulty(kind, proto, batched, cpu, inj, self.rank, seq)
            }
        }?;
        if b.retries > 0 || b.stalls > 0 {
            self.stats.nic_retries += b.retries;
            self.stats.nic_stalls += b.stalls;
            self.stats.nic_retry_s += b.retry_s;
            if self.shared.tracer.is_enabled() {
                let what = match (proto, kind) {
                    (Some((Protocol::Eager, _)), _) => "eager doorbell",
                    (_, TransferKind::Contiguous { .. }) => "DMA descriptor",
                    (_, TransferKind::Strided { .. }) => "PIO copy",
                };
                self.shared.tracer.push(
                    Lane::Rank(self.rank),
                    self.clock,
                    self.clock + b.retry_s,
                    EventKind::NicRetry {
                        rank: self.rank,
                        what,
                        attempts: (b.retries + b.stalls) as u32,
                    },
                );
            }
        }
        Ok(b)
    }

    /// The trace sink of this universe (the no-op tracer by default).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Emit a blocking call span `[t0, t1]` with its dependency edge:
    /// `dom` is the `(rank, time)` of the remote event that determined
    /// the exit, `net` the wire interval of the dominating transfer
    /// paired with the leading part of that interval spent on
    /// retransmits/backoff (0 when fault-free).
    pub(crate) fn trace_blocking(
        &self,
        op: CallOp,
        t0: f64,
        t1: f64,
        bytes: u64,
        dom: Option<(usize, f64)>,
        net: Option<((f64, f64), f64)>,
    ) {
        if !self.shared.tracer.is_enabled() {
            return;
        }
        let mut info = CallInfo::new(op);
        info.bytes = bytes;
        info.dom = dom.map(|(rank, t)| Dominator { rank, t });
        if let Some((iv, recovery)) = net {
            info.net = Some(iv);
            info.recovery_s = recovery;
        }
        self.shared
            .tracer
            .push(Lane::Rank(self.rank), t0, t1, EventKind::Call(info));
    }

    // ------------------------------------------------------------------
    // Fences
    // ------------------------------------------------------------------

    /// `MPI_WIN_FENCE` on one window: completes every buffered
    /// operation on it, schedules the wire transfers deterministically,
    /// and synchronizes all ranks.
    pub fn win_fence(&mut self, win: WinId) {
        self.block_on(async |m| m.win_fence_async(win).await)
    }

    /// [`win_fence`](Mpi::win_fence) for a rank task.
    pub async fn win_fence_async(&mut self, win: WinId) -> Result<(), VpceError> {
        self.fence_filtered(Some(win)).await
    }

    /// Fence over *all* windows — what the backend emits at parallel-
    /// region boundaries ("MPI_FENCE is also inserted at the same place
    /// to guarantee that all outstanding writes … are complete", §5.5).
    pub fn fence_all(&mut self) {
        self.block_on(Mpi::fence_all_async)
    }

    /// [`fence_all`](Mpi::fence_all) for a rank task.
    pub async fn fence_all_async(&mut self) -> Result<(), VpceError> {
        self.fence_filtered(None).await
    }

    async fn fence_filtered(&mut self, filter: Option<WinId>) -> Result<(), VpceError> {
        // Closing the epoch retires the open descriptor ring: the next
        // epoch's first transfer pays its own doorbell.
        self.flush_ring();
        let entry = self.clock;
        let shared = Arc::clone(&self.shared);
        let arrival = (self.clock, std::mem::take(&mut self.queue));
        let (exit, ft, queue): (f64, FenceTrace, Vec<PendingSeries>) = self.shared.blocking.run(self.rank, arrival, move |arrivals| {
            let (clocks, queues): (Vec<f64>, Vec<Vec<PendingSeries>>) = arrivals.into_iter().unzip();
            let mut scratch = shared.fence.lock();
            let FenceScratch { order, scan } = &mut *scratch;
            // The admitted operations are exactly one access epoch per
            // fenced window: the ledger records their undefined-outcome
            // pairs.
            let mut ledger = EpochLedger::open(&queues, filter, scan);
            let mut net = shared.net.lock();
            let table = shared.table.lock();
            // Default dominator: the rendezvous join — the slowest
            // rank's entry clock (what a fence with no traffic is).
            let (slowest, mut latest) = slowest(clocks);
            let mut ft = FenceTrace {
                ops: 0,
                dom_rank: slowest,
                dom_t: latest,
                net: None,
                recovery: 0.0,
            };
            for msg in order.merge(&queues, filter) {
                ft.ops += 1;
                ledger.see(&msg);
                let (start, end, rec) = schedule_wire_legs(&shared, &mut net, &msg)?;
                if end > latest {
                    // The fence's exit is now determined by this
                    // transfer: remember its issue point as the
                    // dependency edge for the critical-path walk.
                    latest = end;
                    ft.dom_rank = msg.origin;
                    ft.dom_t = msg.sent.issue;
                    ft.net = Some((start, end));
                    ft.recovery = rec;
                }
                apply_memory(&table, &shared.pools, &msg);
                if let Some(slot) = msg.eager_slot() {
                    // The slot stays pinned through the retransmit
                    // window — a replay must find the staged payload.
                    let hops = shared.cfg.net.topology.hops(msg.origin, msg.op.target);
                    let free_at = end + shared.cfg.net.link.ack_turnaround(hops);
                    shared.pools[msg.origin].lock().release(slot, free_at);
                }
            }
            ledger.close(&mut shared.conflicts.lock());
            let exit = latest + shared.cfg.node.nic.post_s;
            // Every rank gets its queue back without what this fence
            // completed: another window's operations stay where, and in
            // the order, they were issued.
            Ok(queues
                .into_iter()
                .map(|mut queue| {
                    match filter {
                        None => queue.clear(),
                        Some(win) => queue.retain(|op| op.win != win),
                    }
                    (exit, ft, queue)
                })
                .collect())
        }).await?;
        self.queue = queue;
        self.stats.comm_wait += exit - entry;
        self.stats.fences += 1;
        self.clock = exit;
        if self.shared.tracer.is_enabled() {
            self.trace_blocking(
                CallOp::Fence,
                entry,
                exit,
                0,
                Some((ft.dom_rank, ft.dom_t)),
                ft.net.map(|iv| (iv, ft.recovery)),
            );
            self.shared.tracer.push(
                Lane::Rank(self.rank),
                exit,
                exit,
                EventKind::EpochClose { ops: ft.ops },
            );
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Passive target (lock/unlock)
    // ------------------------------------------------------------------

    /// `MPI_WIN_LOCK`: open a passive-target exclusive epoch on
    /// `target`'s shard. Inside the epoch use [`Mpi::put_now`] /
    /// [`Mpi::accumulate_now`]; close with [`Mpi::win_unlock`].
    ///
    /// Misuse is a typed error, never a hang: locking a shard this rank
    /// already holds is a [`VpceError::LockState`] (as is unlocking one
    /// it does not hold, or finishing inside an epoch), and a lock
    /// that can never be granted — its holder waits in a collective, or
    /// two ranks each want what the other holds — ends the run in
    /// [`VpceError::DeadlockStall`], whose graph names the holder.
    ///
    /// Note on determinism: competing lock acquisitions are ordered by
    /// host scheduling, so *virtual timing* may vary across runs when
    /// several ranks contend; memory results of commutative updates do
    /// not. The compiler backend avoids locks for this reason
    /// (reductions go through [`Mpi::accumulate`] + fence); locks exist
    /// for MPI-2 completeness and for the lock-based reduction variant.
    pub fn win_lock(&mut self, win: &WindowRef, target: usize) {
        self.block_on(async |m| m.win_lock_async(win, target).await)
    }

    /// [`win_lock`](Mpi::win_lock) for a rank task.
    pub async fn win_lock_async(&mut self, win: &WindowRef, target: usize) -> Result<(), VpceError> {
        self.check_rank("lock target", target)?;
        let entry = self.clock;
        let last_release = self.shared.blocking.lock(self.rank, win.id().0, target).await?;
        // Acquiring the lock is a small round trip to the target.
        let link = self.shared.cfg.net.link;
        let rtt = 2.0
            * (link.per_hop_s * self.shared.cfg.net.topology.hops(self.rank, target) as f64
                + link.transfer_time(32))
            + self.nic().post_s;
        self.clock = self.clock.max(last_release) + rtt;
        // No dominator: passive-target contention order is decided by
        // OS scheduling, so the edge would not be reproducible.
        self.trace_blocking(CallOp::WinLock, entry, self.clock, 0, None, None);
        Ok(())
    }

    /// `MPI_WIN_UNLOCK`: close the passive epoch opened by
    /// [`Mpi::win_lock`].
    pub fn win_unlock(&mut self, win: &WindowRef, target: usize) -> Result<(), VpceError> {
        self.shared.blocking.unlock(self.rank, win.id().0, target, self.clock)?;
        self.trace_blocking(CallOp::WinUnlock, self.clock, self.clock, 0, None, None);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// `MPI_BARRIER`: all ranks leave at the same virtual time.
    pub fn barrier(&mut self) {
        self.block_on(Mpi::barrier_async)
    }

    /// [`barrier`](Mpi::barrier) for a rank task.
    pub async fn barrier_async(&mut self) -> Result<(), VpceError> {
        let entry = self.clock;
        let shared = Arc::clone(&self.shared);
        let (exit, dom): (f64, (usize, f64)) =
            self.shared.blocking.run(self.rank, self.clock, move |clocks| {
                let n = clocks.len();
                let (slowest, maxc) = slowest(clocks);
                let exit = maxc + shared.barrier_cost();
                Ok(vec![(exit, (slowest, maxc)); n])
            }).await?;
        self.stats.sync_wait += exit - entry;
        self.stats.barriers += 1;
        self.clock = exit;
        self.trace_blocking(CallOp::Barrier, entry, exit, 0, Some(dom), None);
        Ok(())
    }

    /// `Ok` when `rank` is a rank of this universe; otherwise the
    /// `RankOutOfRange` that names `what` it was meant to be.
    pub(crate) fn check_rank(&self, what: &'static str, rank: usize) -> Result<(), VpceError> {
        if rank < self.size {
            Ok(())
        } else {
            Err(VpceError::RankOutOfRange { what, rank, size: self.size })
        }
    }

    /// Access to shared state for sibling modules (p2p, collectives).
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    pub(crate) fn clock_mut(&mut self) -> &mut f64 {
        &mut self.clock
    }

    pub(crate) fn stats_mut(&mut self) -> &mut RankStats {
        &mut self.stats
    }
}

/// Schedule the wire legs of one buffered message on the link
/// simulator; returns `(start, end, recovery)` of the whole exchange.
///
/// Control legs first, origin → target then back: a GET always opens
/// with a request, a rendezvous PUT with an RTS, and rendezvous of
/// either direction waits for the CTS that pins the receive side. Then
/// one data leg from the sending side to the receiving one — eager data
/// carries a piggybacked completion header, rendezvous data is the
/// zero-copy payload alone.
fn schedule_wire_legs(
    shared: &Shared,
    net: &mut NetSim,
    msg: &Message,
) -> Result<(f64, f64, f64), VpceError> {
    let rdvz = msg.proto() == Protocol::Rendezvous;
    let (from, to) = msg.flow();
    let (origin, target) = (msg.origin, msg.op.target);
    let (mut start, mut at, mut rec) = (None, msg.sent.issue, 0.0);
    if msg.is_get() || rdvz {
        let req = net.try_p2p(origin, target, CTRL_BYTES, at)?;
        (start, at, rec) = (Some(req.start), req.end, rec + req.recovery);
    }
    if rdvz {
        let cts = net.try_p2p(target, origin, CTRL_BYTES, at)?;
        (at, rec) = (cts.end, rec + cts.recovery);
    }
    let header = if rdvz { 0 } else { HDR_BYTES };
    let data = net.try_p2p(from, to, msg.wire_bytes() + header, at)?;
    if rdvz && origin != target {
        net.note_handshake(2 * CTRL_BYTES as u64);
        if shared.tracer.is_enabled() {
            shared.tracer.push(
                Lane::Rank(origin),
                start.expect("rendezvous opens with a control leg"),
                at,
                EventKind::RendezvousHandshake {
                    origin,
                    target,
                    bytes: msg.wire_bytes() as u64,
                },
            );
        }
    }
    Ok((start.unwrap_or(data.start), data.end, rec + data.recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccumulateOp, Elem};
    use cluster_sim::ClusterConfig;

    fn uni(n: usize) -> Universe {
        Universe::new(ClusterConfig::paper_n(n))
    }

    #[test]
    fn ranks_and_size() {
        let out = uni(4).run(|mpi| (mpi.rank(), mpi.size()));
        let mut ranks: Vec<_> = out.results.iter().map(|r| r.0).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        assert!(out.results.iter().all(|r| r.1 == 4));
    }

    #[test]
    fn take_stats_scopes_back_to_back_runs_independently() {
        // Two logical "runs" multiplexed through one universe: the
        // second run's ledger must not include the first's traffic,
        // and the two scoped ledgers must sum to the lifetime total.
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(64);
            // Run 1: one 8-element put.
            if mpi.rank() == 0 {
                mpi.put(&w, 1, 0, vec![1.0; 8]).unwrap();
            }
            mpi.fence_all();
            let first = mpi.take_stats();
            // Run 2: two 8-element puts.
            if mpi.rank() == 0 {
                mpi.put(&w, 1, 8, vec![2.0; 8]).unwrap();
                mpi.put(&w, 1, 16, vec![3.0; 8]).unwrap();
            }
            mpi.fence_all();
            let second = mpi.take_stats();
            (first, second)
        });
        let (a, b) = &out.results[0];
        assert_eq!(a.bytes_put, 8 * crate::ELEM_BYTES as u64);
        assert_eq!(b.bytes_put, 2 * 8 * crate::ELEM_BYTES as u64, "second run must start from zero");
        assert_eq!(a.rma_contiguous, 1);
        assert_eq!(b.rma_contiguous, 2);
        assert_eq!(a.fences, 1);
        assert_eq!(b.fences, 1);
        // The scoped pieces tile the lifetime ledger.
        let mut sum = a.clone();
        sum.merge(b);
        assert_eq!(sum.bytes_put, 3 * 8 * crate::ELEM_BYTES as u64);
        // After the final take, the end-of-run ledger is empty.
        assert_eq!(out.rank_stats[0].bytes_put, 0);
        assert_eq!(out.rank_stats[0].fences, 0);
    }

    #[test]
    fn compute_advances_only_local_clock() {
        let out = uni(2).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.compute(&OpCounts {
                    fmul: 1_000_000,
                    ..OpCounts::default()
                });
            }
            mpi.now()
        });
        assert!(out.results[0] > 0.0);
        assert_eq!(out.results[1], 0.0);
    }

    #[test]
    fn barrier_equalises_clocks() {
        let out = uni(4).run(|mpi| {
            mpi.advance(mpi.rank() as f64 * 0.25);
            mpi.barrier();
            mpi.now()
        });
        let c0 = out.results[0];
        assert!(out.results.iter().all(|&c| (c - c0).abs() < 1e-12));
        assert!(c0 > 0.75, "barrier exit must dominate the slowest rank");
    }

    #[test]
    fn ledger_flags_racing_puts_and_clears_on_clean_epochs() {
        let out = uni(3).run(|mpi| {
            let w = mpi.win_create(8);
            // Epoch 1: disjoint PUTs into rank 0 — clean.
            if mpi.rank() > 0 {
                let off = (mpi.rank() - 1) * 4;
                mpi.put(&w, 0, off, vec![1.0; 4]).unwrap();
            }
            mpi.fence_all();
            // Epoch 2: both slaves PUT the same elements — race.
            if mpi.rank() > 0 {
                mpi.put(&w, 0, 2, vec![2.0; 3]).unwrap();
            }
            mpi.fence_all();
        });
        assert_eq!(out.rma_conflicts.len(), 1);
        let c = &out.rma_conflicts[0];
        assert_eq!(c.kind, crate::conflict::ConflictKind::WriteWrite);
        assert_eq!(c.win, 0);
        assert_eq!(c.shard, 0);
        assert!(!c.same_origin);
    }

    #[test]
    fn ledger_stays_empty_for_fenced_sequences() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(4);
            if mpi.rank() == 1 {
                mpi.put(&w, 0, 0, vec![1.0; 4]).unwrap();
            }
            mpi.fence_all();
            // Same region again, but in a new epoch: ordered, legal.
            if mpi.rank() == 1 {
                mpi.put(&w, 0, 0, vec![2.0; 4]).unwrap();
            }
            mpi.fence_all();
        });
        assert!(out.rma_conflicts.is_empty());
    }

    #[test]
    fn put_applies_at_fence_with_values_intact() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(8);
            if mpi.rank() == 0 {
                w.fill_from(&[1., 2., 3., 4., 5., 6., 7., 8.]);
                mpi.put_region(&w, 1, 2, 3).unwrap(); // elements 3,4,5 at offsets 2..5
            }
            mpi.win_fence(w.id());
            w.snapshot()
        });
        assert_eq!(out.results[1], vec![0., 0., 3., 4., 5., 0., 0., 0.]);
    }

    #[test]
    fn strided_put_scatters_correctly() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(10);
            if mpi.rank() == 0 {
                let data: Vec<f64> = (1..=10).map(f64::from).collect();
                w.fill_from(&data);
                mpi.put_region_strided(&w, 1, 1, 3, 3).unwrap(); // offsets 1,4,7
            }
            mpi.win_fence(w.id());
            w.snapshot()
        });
        assert_eq!(
            out.results[1],
            vec![0., 2., 0., 0., 5., 0., 0., 8., 0., 0.]
        );
    }

    #[test]
    fn get_pulls_remote_region() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(4);
            if mpi.rank() == 1 {
                w.fill_from(&[10., 20., 30., 40.]);
            }
            mpi.barrier();
            if mpi.rank() == 0 {
                mpi.get(&w, 1, 1, 2).unwrap();
            }
            mpi.win_fence(w.id());
            w.snapshot()
        });
        assert_eq!(out.results[0], vec![0., 20., 30., 0.]);
    }

    #[test]
    fn strided_get_pulls_alternating_elements() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(6);
            if mpi.rank() == 1 {
                w.fill_from(&[1., 2., 3., 4., 5., 6.]);
            }
            mpi.barrier();
            if mpi.rank() == 0 {
                mpi.get_strided(&w, 1, 0, 2, 3).unwrap(); // offsets 0,2,4
            }
            mpi.win_fence(w.id());
            w.snapshot()
        });
        assert_eq!(out.results[0], vec![1., 0., 3., 0., 5., 0.]);
    }

    #[test]
    fn accumulate_sums_deterministically() {
        let out = uni(4).run(|mpi| {
            let w = mpi.win_create(1);
            mpi.accumulate(&w, 0, 0, vec![(mpi.rank() + 1) as f64], AccumulateOp::Sum).unwrap();
            mpi.win_fence(w.id());
            w.snapshot()[0]
        });
        assert_eq!(out.results[0], 10.0);
    }

    #[test]
    fn fence_only_completes_target_window() {
        let tracer = Tracer::enabled();
        let out = uni(2).with_tracer(tracer.clone()).run(|mpi| {
            let a = mpi.win_create(2);
            let b = mpi.win_create(2);
            if mpi.rank() == 0 {
                mpi.put(&a, 1, 0, vec![1., 1.]).unwrap();
                // Two operations on `b` that the fence on `a` leaves
                // behind; they race on element 1, so their order shows.
                mpi.put(&b, 1, 0, vec![5., 5.]).unwrap();
                mpi.put(&b, 1, 1, vec![7.]).unwrap();
            }
            mpi.win_fence(a.id());
            let after_first = (mpi.now(), a.snapshot(), b.snapshot());
            mpi.win_fence(b.id());
            (after_first, b.snapshot())
        });
        let ((first_exit, a_after, b_between), b_after) = out.results[1].clone();
        // Window a's data arrived at its own fence, b's did not...
        assert_eq!(a_after, vec![1., 1.]);
        assert_eq!(b_between, vec![0., 0.]);
        // ...but at the second fence, in issue order: the later PUT
        // wrote element 1 last.
        assert_eq!(b_after, vec![5., 7.]);
        assert_eq!(out.rma_conflicts.len(), 1, "{:?}", out.rma_conflicts);
        assert_eq!(out.rma_conflicts[0].win, 1);
        // On the wire the three transfers 0 -> 1 were booked in issue
        // order, each *ready* at the time it was issued — before the
        // first fence returned for the two it left behind — not at the
        // fence that completed it.
        let events = tracer.events();
        let issued: Vec<f64> = events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Call(c) if c.op == CallOp::Put))
            .map(|e| e.t1)
            .collect();
        // (`events` come sorted by lane, then in the order pushed.)
        let booked: Vec<(f64, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::LinkBusy { bytes, wait, .. } => Some((e.t0 - wait, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(issued.len(), 3);
        assert_eq!(booked.len(), 3, "one link, one eager leg per PUT");
        let payload = |elems: u64| elems * crate::ELEM_BYTES as u64 + HDR_BYTES as u64;
        assert_eq!(
            booked.iter().map(|b| b.1).collect::<Vec<_>>(),
            [payload(2), payload(2), payload(1)]
        );
        for (put, &(ready, _)) in issued.iter().zip(&booked) {
            assert!((ready - put).abs() < 1e-12, "booked ready at {ready}, issued at {put}");
            assert!(ready < first_exit);
        }
    }

    #[test]
    fn strided_put_costs_more_host_time_than_contiguous() {
        // The §2.2 asymmetry visible through the API.
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(16384);
            if mpi.rank() == 0 {
                mpi.put_region(&w, 1, 0, 8192).unwrap();
            }
            mpi.fence_all();
            let contig_host = mpi.stats().comm_host;
            if mpi.rank() == 0 {
                mpi.put_region_strided(&w, 1, 0, 2, 8192).unwrap();
            }
            mpi.fence_all();
            (contig_host, mpi.stats().comm_host - contig_host)
        });
        let (contig, strided) = out.results[0];
        assert!(
            strided > 5.0 * contig,
            "strided {strided} vs contiguous {contig}"
        );
    }

    #[test]
    fn lock_epoch_put_now_is_immediately_visible() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(2);
            if mpi.rank() == 0 {
                mpi.win_lock(&w, 1);
                mpi.put_now(&w, 1, 0, vec![7.0, 8.0]).unwrap();
                mpi.win_unlock(&w, 1).unwrap();
            }
            mpi.barrier();
            w.snapshot()
        });
        assert_eq!(out.results[1], vec![7.0, 8.0]);
    }

    #[test]
    fn lock_based_reduction_accumulates_all_ranks() {
        let out = uni(4).run(|mpi| {
            let w = mpi.win_create(1);
            mpi.win_lock(&w, 0);
            mpi.accumulate_now(&w, 0, 0, vec![1.0], AccumulateOp::Sum).unwrap();
            mpi.win_unlock(&w, 0).unwrap();
            mpi.barrier();
            w.snapshot()[0]
        });
        assert_eq!(out.results[0], 4.0);
    }

    #[test]
    fn run_is_deterministic_in_time_and_values() {
        let run = || {
            uni(4).run(|mpi| {
                let w = mpi.win_create(64);
                if mpi.rank() != 0 {
                    let data: Vec<f64> = (0..16).map(|i| (i * mpi.rank()) as f64).collect();
                    w.lock()[16 * mpi.rank()..16 * (mpi.rank() + 1)].copy_from_slice(&data);
                    mpi.put_region(&w, 0, 16 * mpi.rank(), 16).unwrap();
                }
                mpi.fence_all();
                (mpi.now(), w.snapshot())
            })
        };
        let a = run();
        let b = run();
        for i in 0..4 {
            assert_eq!(a.results[i].0, b.results[i].0, "clock rank {i}");
            assert_eq!(a.results[i].1, b.results[i].1, "memory rank {i}");
        }
        assert_eq!(a.net.p2p_messages, b.net.p2p_messages);
    }

    #[test]
    fn single_rank_universe_works() {
        let out = uni(1).run(|mpi| {
            let w = mpi.win_create(4);
            w.fill_from(&[1., 2., 3., 4.]);
            mpi.put_region(&w, 0, 0, 4).unwrap(); // self-put
            mpi.fence_all();
            mpi.barrier();
            w.snapshot()
        });
        assert_eq!(out.results[0], vec![1., 2., 3., 4.]);
        assert_eq!(out.net.p2p_messages, 0, "self-traffic stays off the wire");
    }

    #[test]
    fn outcome_helpers() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(1024);
            if mpi.rank() == 0 {
                mpi.put_region(&w, 1, 0, 1024).unwrap();
            }
            mpi.fence_all();
        });
        assert!(out.elapsed() > 0.0);
        assert!(out.max_comm_time() > 0.0);
        let tot = out.total_stats();
        assert_eq!(tot.bytes_put, 1024 * 8);
        assert_eq!(tot.fences, 2);
    }

    #[test]
    fn traced_run_tiles_elapsed_and_default_is_untraced() {
        let tracer = Tracer::enabled();
        let out = uni(4).with_tracer(tracer.clone()).run(|mpi| {
            let w = mpi.win_create(64);
            if mpi.rank() != 0 {
                mpi.put_region(&w, 0, 16 * mpi.rank(), 16).unwrap();
            }
            mpi.fence_all();
            mpi.barrier();
        });
        let trace = out.trace.as_ref().expect("traced run carries a report");
        let total = trace.critical.breakdown.total();
        assert!(
            (total - out.elapsed()).abs() <= 1e-9 * out.elapsed().max(1e-30),
            "critical-path components {total} must tile elapsed {}",
            out.elapsed()
        );
        assert!(!tracer.events().is_empty());
        assert!(tracer.to_chrome_json().contains("\"fence\""));

        let untraced = uni(4).run(|mpi| mpi.barrier());
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn traced_run_is_byte_reproducible() {
        let run = || {
            let tracer = Tracer::enabled();
            uni(4).with_tracer(tracer.clone()).run(|mpi| {
                let w = mpi.win_create(64);
                if mpi.rank() != 0 {
                    mpi.put_region_strided(&w, 0, mpi.rank(), 4, 8).unwrap();
                }
                mpi.fence_all();
                let v = mpi.allreduce(vec![1.0], AccumulateOp::Sum);
                mpi.barrier();
                v
            });
            tracer.to_chrome_json()
        };
        assert_eq!(run(), run());
    }

    fn put_fence_body(mpi: &mut Mpi) -> Vec<Elem> {
        let w = mpi.win_create(64);
        if mpi.rank() != 0 {
            let data: Vec<f64> = (0..16).map(|i| (i * mpi.rank()) as f64).collect();
            w.lock()[16 * mpi.rank()..16 * (mpi.rank() + 1)].copy_from_slice(&data);
            mpi.put_region(&w, 0, 16 * mpi.rank(), 16).unwrap();
        }
        mpi.fence_all();
        w.snapshot()
    }

    #[test]
    fn survivable_faults_preserve_memory_results() {
        let clean = uni(4).run(put_fence_body);
        let mut recovered = 0u64;
        for seed in 0..8 {
            let spec = FaultSpec { seed, ..FaultSpec::heavy() };
            let out = uni(4).with_faults(spec).run(put_fence_body);
            for r in 0..4 {
                assert_eq!(out.results[r], clean.results[r], "seed {seed} rank {r}");
            }
            assert!(
                out.elapsed() >= clean.elapsed(),
                "recovery can only add virtual time (seed {seed})"
            );
            recovered += out.net.retransmits + out.net.link_stalls;
        }
        assert!(
            recovered > 0,
            "heavy schedule over 8 seeds must exercise the retransmit path"
        );
    }

    #[test]
    fn dead_link_yields_typed_error_not_a_panic() {
        let spec = FaultSpec {
            link_drop: 1.0,
            max_retries: 2,
            ..FaultSpec::off()
        };
        let err = uni(2)
            .with_faults(spec)
            .run_on(2, async |mpi: &mut Mpi| match mpi.rank() {
                0 => mpi.send(1, 0, vec![1.0]),
                _ => mpi.recv_async(0, 0).await.map(drop),
            })
            .unwrap_err();
        match err {
            VpceError::LinkFailure { src, dst, attempts } => {
                assert_eq!((src, dst), (0, 1));
                assert_eq!(attempts, 3, "initial try + 2 retries");
            }
            other => panic!("expected LinkFailure, got {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "link failure")]
    fn run_panics_with_display_text_on_unsurvivable_fault() {
        let spec = FaultSpec {
            link_drop: 1.0,
            max_retries: 1,
            ..FaultSpec::off()
        };
        uni(2).with_faults(spec).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 0, vec![1.0]).unwrap();
            } else {
                mpi.recv(0, 0);
            }
        });
    }

    #[test]
    fn bus_degradation_falls_back_to_software_tree() {
        let spec = FaultSpec {
            bus_fail: 1.0,
            bus_attempts: 2,
            ..FaultSpec::off()
        };
        let out = uni(4).with_faults(spec).run(|mpi| {
            let data = (mpi.rank() == 0).then(|| vec![1.5; 64]);
            mpi.bcast(0, data)
        });
        for r in &out.results {
            assert_eq!(r, &vec![1.5; 64]);
        }
        assert_eq!(out.net.bus_degraded, 1, "bus gave up after 2 attempts");
        assert_eq!(out.net.broadcasts, 0, "no hardware broadcast completed");
        assert_eq!(out.net.p2p_messages, 3, "binomial tree carried the payload");
    }

    #[test]
    fn off_spec_is_byte_identical_to_unfaulted_universe() {
        let run = |armed: bool| {
            let tracer = Tracer::enabled();
            let mut u = uni(4).with_tracer(tracer.clone());
            if armed {
                u = u.with_faults(FaultSpec::off());
            }
            let out = u.run(put_fence_body);
            (format!("{:?}", out.results), tracer.to_chrome_json())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn run_reraises_non_typed_panics() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            uni(2).run(|mpi| {
                if mpi.rank() == 1 {
                    panic!("plain bug");
                }
                mpi.barrier();
            });
        }));
        let payload = caught.expect_err("bug must still panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "plain bug", "original payload re-raised");
    }

    #[test]
    #[should_panic(expected = "RMA past end of window")]
    fn bounds_checked_puts() {
        // Through the closure entry: `block_on` panics with the error's
        // Display text, and `run` re-raises the first failure.
        uni(2).run(|mpi| {
            let w = mpi.win_create(4);
            if mpi.rank() == 0 {
                mpi.block_on(async |m| m.put(&w, 1, 2, vec![0.0; 3]));
            }
            mpi.fence_all();
        });
    }

    #[test]
    fn comm_wait_accounts_fence_time() {
        let out = uni(2).run(|mpi| {
            let w = mpi.win_create(1 << 16);
            if mpi.rank() == 0 {
                mpi.put_region(&w, 1, 0, 1 << 16).unwrap();
            }
            mpi.fence_all();
            mpi.stats().clone()
        });
        // Rank 1 waited for rank 0's big put to drain.
        assert!(out.results[1].comm_wait > 0.0);
        assert_eq!(out.results[1].fences, 1);
    }
}
