//! # vpce-sched — gang scheduler / batch job server for the simulated cluster
//!
//! The paper runs exactly one compiled SPMD program across the whole
//! machine. This crate adds the middleware tier a *usable* machine
//! needs (the "cluster job management" layer of the Cluster Computing
//! White Paper): many jobs, submitted over time, contending for the
//! mesh — and a scheduler that decides which job runs where and when.
//!
//! Everything is **deterministic virtual time**. Job arrivals, queue
//! waits, partition lifetimes and completions all live on the same
//! virtual clock the network simulator uses; the same jobfile and seed
//! produce a byte-identical batch report on every run.
//!
//! The moving parts:
//!
//! * [`JobSpec`] / [`BatchSpec`] — the job model and the line-oriented
//!   jobfile format (`job name=… ranks=… workload=… faults=…`), plus a
//!   seeded synthetic arrival generator (`storm count=… mean-gap=…`)
//!   for traffic-storm scenarios.
//! * [`NodeMap`] — the machine as a grid of allocatable node cells:
//!   rectangular partitions are carved first-fit (row-major anchors,
//!   transposed orientation as a fallback), crashed nodes are drained.
//! * [`Scheduler`] — the one incremental event loop (`submit`,
//!   `cancel_at`, `step`, `drain`, `take_ops`, `report`) behind both
//!   front doors, [`run_batch`] and `vpce-serve`'s daemon:
//!   priority-ordered FCFS with per-tenant fair share and quotas
//!   (charged at vacate, for the span actually held) and
//!   *conservative backfill* (a blocked wide job gets a reservation;
//!   smaller jobs may slide past only if they provably finish before
//!   the reservation or avoid its rectangle — so backfill never
//!   starves the head of the queue), admission control with typed
//!   [`vpce_faults::VpceError::AdmissionRejected`] errors, node drain
//!   (or probation) on rank crashes, bounded requeue with per-attempt
//!   re-seeded fault schedules, timed cancels, and — the one bit the
//!   callers differ in — preemption by checkpoint/restart.
//! * [`Runner`] — memoises the pure attempt outcomes the loop decides
//!   on (compile + dry run, attempts, snapshots, resumes) and hands
//!   them out as shared handles.
//! * [`BatchReport`] — per-job and aggregate results (throughput,
//!   p50/p99 queue wait and makespan, utilization, requeues) in human
//!   and stable-JSON form, plus a whole-cluster Chrome timeline.
//!
//! **Isolation.** Each job attempt executes in its own
//! [`mpi2::Universe`] over a [`cluster_sim::ClusterConfig`] built for
//! its private partition mesh: windows, `NetStats`, `RankStats` and
//! trace buffers are per-job by construction — concurrent jobs cannot
//! read or corrupt each other's counters.

#![forbid(unsafe_code)]

mod job;
mod partition;
mod report;
pub mod run;
mod runner;
mod sched;

pub use job::{
    decode_inline, encode_inline, BatchSpec, JobSource, JobSpec, JobfileCode, JobfileError,
    Policy, StormSpec, TenantSpec, DEFAULT_TENANT,
};
pub use partition::{NodeMap, Partition};
pub use report::{AttemptLog, BatchReport, JobRecord, JobStatus};
pub use run::AttemptOutcome;
pub use runner::Runner;
pub use sched::{run_batch, BatchOptions, JobView, Scheduler, SourceLoader};
// Jobfile `recover=` values and their ledgers, for downstream crates
// (vpce-serve) that handle attempt outcomes without a direct
// dependency on the recovery crate.
pub use vpce_recover::{RecoverSpec, RecoveryLedger};
// The settings grammar every jobfile line reads through, and the keys
// of a job's `faults=`, for the `vpcec` front door, which declares its
// flags in the same grammar without a direct dependency on
// `vpce-diag` or `vpce-faults`.
pub use vpce_diag::settings;
pub use vpce_faults::FAULT_KEYS;
