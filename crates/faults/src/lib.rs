//! `vpce-faults`: the deterministic fault-injection plane and typed
//! error hierarchy for the V-Bus cluster reproduction.
//!
//! Two pieces, used across the whole stack:
//!
//! * [`FaultSpec`] / [`FaultInjector`] — a seeded, virtual-time fault
//!   schedule whose every decision is a pure hash of
//!   `(seed, site, key, salt)`. No wall clock, no shared RNG state:
//!   identical schedules reproduce identical faults regardless of OS
//!   thread interleaving.
//! * [`VpceError`] — the typed failure vocabulary of the runtime paths
//!   of `mpi2` and `spmd-rt`, returned as a plain `Result` from where a
//!   failure is detected up to the caller of a run.

#![forbid(unsafe_code)]

mod error;
mod inject;
mod spec;

pub use error::VpceError;
pub use inject::{site, FaultInjector};
pub use spec::{FaultParseError, FaultSpec, FaultSpecCode, FAULT_KEYS};
