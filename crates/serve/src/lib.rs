//! # vpce-serve — `vpced`, the persistent job service
//!
//! The batch scheduler (`vpce-sched`) answers "what would this jobfile
//! do?"; this crate answers "keep the machine **serving** jobs, and
//! survive crashing at any instant". It layers three things over the
//! gang scheduler:
//!
//! * **A crash-safe journal** (`journal`): every input (submission,
//!   cancel) and every derived scheduling decision is appended as a
//!   CRC-guarded record before it takes effect. A torn tail — the
//!   signature of dying mid-append — is detected and truncated
//!   (`VPCE301`); damage anywhere earlier refuses recovery
//!   (`VPCE302`).
//! * **Replayable inputs** (`state`): the line protocol — jobfile
//!   grammar plus the timed `cancel` verb — that drives the *same*
//!   `vpce_sched::Scheduler` the batch front door drives, built with
//!   its one caller-dependent bit set: *preemption by
//!   checkpoint/restart* (a preempted job is snapshotted at its next
//!   fence boundary and later resumes byte-identically). No
//!   scheduling lives in this crate.
//! * **A daemon shell** (`daemon`): replays the journal on start,
//!   cross-checks re-derived decisions against the recorded ones
//!   (`VPCE303` on divergence), then continues serving.
//!
//! The headline property, proven by the kill/restart harness
//! (`session`) at every journal byte offset: **kill the server
//! anywhere, restart it, and the final batch report and whole-cluster
//! trace are byte-identical to a server that never died.**

#![forbid(unsafe_code)]

mod codes;
mod daemon;
mod journal;
mod session;
mod state;

pub use codes::{ServeCode, ServeError};
pub use daemon::{Daemon, Recovery};
pub use journal::{crc32, FileStorage, Journal, Kind, KillStorage, MemStorage, Storage, KILLED};
pub use session::{baseline, kill_matrix, run_session, script_lines, MatrixSummary, SessionResult};
// The memoising runner lives with the scheduler it feeds; one runner
// is shared across a session's daemon incarnations.
pub use vpce_sched::Runner;
