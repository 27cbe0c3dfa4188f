//! # mpi2 — the paper's MPI-2 library over the simulated V-Bus cluster
//!
//! Implements the communication layer of §2.2: the MPI-1 two-sided
//! primitives plus the MPI-2 one-sided extensions the compiler backend
//! targets —
//!
//! * **memory windows** ([`Mpi::win_create`]) — "a portion of the
//!   private memory of a local process that can be accessed by remote
//!   processes without intervention of the local process" (§5.1) — or
//!   its length-only form ([`Mpi::win_create_length_only`]): the same
//!   declared length, checks, costs and wire traffic with no storage,
//!   for runs that simulate the communication without the data;
//! * **`MPI_PUT`/`MPI_GET`/`MPI_ACCUMULATE`** — one operation family
//!   over constant-stride regions. A compiled program's planned op —
//!   §5.4's splitted LMAD, an [`lmad::TransferPlan`] — is one call
//!   ([`Mpi::put_series`], [`Mpi::get_series`]), like `MPI_Put` with a
//!   derived datatype, and one pending series from issue to apply; its
//!   wire messages are expanded where the fence books them. A message's
//!   payload waits in an eager slot, the caller's buffer, or the
//!   *sending* side's own shard (the origin's for PUT, the target's for
//!   GET). The paper's DMA-vs-PIO fork is a host **cost** decision fixed
//!   by the entry point: the contiguous calls ([`Mpi::put`],
//!   [`Mpi::put_region`], [`Mpi::get`], [`Mpi::accumulate`]) price as
//!   DMA — the host pays only descriptor setup — and the strided calls
//!   ([`Mpi::put_strided`], [`Mpi::put_region_strided`],
//!   [`Mpi::get_strided`]) as programmed I/O — the host copies element
//!   by element into the driver buffer; a series prices each message on
//!   the path its shape picks;
//! * **`MPI_WIN_FENCE`** ([`Mpi::win_fence`], [`Mpi::fence_all`]) —
//!   closes the access epoch: "fences guarantee that all outstanding
//!   writes to remote memory have been completed" (§3);
//! * **`MPI_BARRIER`** and collectives, with broadcast lowered onto the
//!   card's virtual-bus hardware when present;
//! * **`MPI_WIN_LOCK`/`UNLOCK`** for critical sections (§3's lock
//!   primitive for reductions).
//!
//! ## Execution model
//!
//! Each MPI process carries a **virtual clock** (seconds). Compute
//! advances the clock locally ([`Mpi::compute`]/[`Mpi::advance`]);
//! communication costs come from the [`cluster_sim`] NIC model (host
//! side) and the [`vbus_sim`] link scheduler (wire side). Wall-clock
//! never influences any result.
//!
//! On the host a process is a *rank task*: a future that runs until it
//! has to wait for its peers, yields, and is plain data until it can go
//! on. One engine carries the tasks of a universe on worker threads,
//! each rank on one worker for life, and has two entries:
//!
//! * [`Universe::run_on`] takes an `async` closure, which waits
//!   through the `_async` operations ([`Mpi::barrier_async`],
//!   [`Mpi::fence_all_async`], [`Mpi::recv_async`], …), and a worker
//!   count chosen by the caller — the calling thread is one of the
//!   workers, so one worker spawns nothing. Compiled programs
//!   (`spmd_rt::exec`) run this way: 16 384 ranks are 16 384 futures,
//!   not 16 384 stacks. Their count is `spmd_rt::exec::workers`: one
//!   worker for an `Analytic` run or a `Full` run of small arrays, else
//!   `min(n, `[`workers::cores`]`())`. The threads start in
//!   [`workers::scoped`], the one place anything starts them.
//! * [`Universe::run`] takes a plain closure, which cannot be
//!   suspended: a rank that waits inside [`Mpi::barrier`] has to keep
//!   its thread, so this entry — and only this one — still means one OS
//!   thread per rank. Its synchronous operations are [`Mpi::block_on`]
//!   around the same `_async` bodies.
//!
//! Both produce the same bytes: every collective folds its inputs in
//! rank order, whoever arrived last.
//!
//! ## Errors are values
//!
//! Every operation that can fail returns `Result<_, VpceError>` from
//! where the failure is detected — at issue, in a fence or collective
//! leader, or while waiting. A rank task propagates it with `?` and
//! [`Universe::run_on`] returns the root cause; nothing modelled
//! unwinds. The closure entry's synchronous operations panic with the
//! error's Display text, as [`Universe::run`] documents.
//!
//! ## Blocking
//!
//! A rank can wait in three ways — a fence / barrier / collective, a
//! two-sided receive, `MPI_WIN_LOCK` — and all three stop in one
//! place: the private `blocking` module, one mutex, one condition
//! variable and one `failed` flag over the leader rendezvous, the
//! message queues and the lock epochs. Waiting there is a *poll* that
//! never sleeps (ready, or mark the rank waiting and yield) and a
//! *park* in which a thread sleeps until one of its ranks can go on.
//! Because a waiter's wake
//! condition is read from that state under its lock, the stall rule is
//! exact and needs no timer: a run that can make no progress ends in a
//! typed [`VpceError::DeadlockStall`] whose graph names who waits for
//! what, a rank that fails takes its peers out with
//! [`VpceError::PeerFailure`], and lock misuse is
//! [`VpceError::LockState`] — never a hang.
//!
//! ## Determinism
//!
//! One-sided operations issued inside an access epoch are *buffered*
//! and scheduled at the closing fence, sorted by
//! `(issue time, origin rank, sequence number)`. This is faithful to
//! MPI-2 semantics — the target may not observe RMA results before the
//! epoch closes — and makes every run bit-reproducible regardless of
//! host scheduling and worker count. Passive-target lock/unlock epochs
//! are the one exception among the operations compiled programs use
//! (documented on [`Mpi::win_lock`]); two-sided receives and `put_now`
//! book their links when they happen, so programs in which several
//! ranks do either share that caveat.

#![forbid(unsafe_code)]

mod blocking;
mod conflict;
#[cfg(test)]
mod engine_tests;
mod p2p;
mod pool;
mod rma;
#[cfg(test)]
mod series_tests;
mod stats;
mod sync;
mod transport;
mod universe;
mod window;
pub mod workers;

mod coll;

pub use cluster_sim::Protocol;
pub use conflict::{AccessSet, ConflictKind, ConflictRecord};
pub use pool::PoolSnapshot;
pub use rma::AccumulateOp;
pub use stats::RankStats;
pub use transport::{quiesce_cost, replica_put_cost, TransportPolicy, CTRL_BYTES, HDR_BYTES};
pub use universe::{Mpi, RunOutcome, Universe};
pub use vpce_faults::{FaultInjector, FaultSpec, VpceError};
pub use window::{WinId, WindowRef};

/// All window payloads are double precision, matching the `REAL*8`
/// arrays of the evaluated Fortran codes.
pub type Elem = f64;

/// Size of one window element on the wire.
pub const ELEM_BYTES: usize = std::mem::size_of::<Elem>();
