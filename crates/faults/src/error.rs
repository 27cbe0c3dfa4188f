//! The typed error hierarchy for the whole stack.
//!
//! Every non-test failure path in `mpi2` and `spmd-rt` funnels into
//! [`VpceError`], returned as a `Result` from the point of detection:
//! a rank's task ends in `Err`, the universe prefers the root cause
//! over the `PeerFailure`s it woke, and `try_execute` hands it to the
//! caller — no modelled fault ever unwinds.
//!
//! Display strings are part of the public contract: several phrases
//! ("RMA past end of window", "compiled for", "INTEGER required",
//! "collective poisoned") are pinned by tests and by the infallible
//! wrappers that panic with the Display text.

use std::fmt;

/// A structured failure anywhere in the simulated stack.
#[derive(Debug, Clone, PartialEq)]
pub enum VpceError {
    /// A point-to-point packet exhausted its retransmit budget.
    LinkFailure {
        src: usize,
        dst: usize,
        attempts: u32,
    },
    /// V-Bus construction failed and no degraded path was permitted.
    BusFailure { root: usize, attempts: u32 },
    /// A NIC-level operation (DMA descriptor / PIO copy) exhausted
    /// its retry budget on the host side.
    NicFailure {
        rank: usize,
        what: &'static str,
        attempts: u32,
    },
    /// A rank was killed by the fault schedule.
    RankCrash { rank: usize, region: String },
    /// In-run rollback recovery could not absorb a crash: the rollback
    /// budget ran out, the spare pool was empty, or every replica of
    /// the crashed rank's checkpoint died with it. `code` is the
    /// stable VPCE40x diagnostic code.
    RecoveryFailed {
        code: &'static str,
        rank: usize,
        detail: String,
    },
    /// An RMA operation reached past the end of the target window.
    RmaBounds {
        target: usize,
        offset: usize,
        len: usize,
        size: usize,
    },
    /// A target rank outside the communicator.
    RankOutOfRange { what: &'static str, rank: usize, size: usize },
    /// Lock/unlock protocol misuse (double lock, unlock without lock,
    /// passive-target op outside an epoch).
    LockState { msg: String },
    /// A peer rank failed while this rank was blocked on it.
    PeerFailure { msg: String },
    /// The dynamic wait-for-graph detector found every live rank
    /// blocked on a condition no peer can ever satisfy: a communication
    /// deadlock. `graph` is the rendered wait-for graph at detection.
    DeadlockStall { graph: String },
    /// Program/cluster shape mismatch.
    SizeMismatch { program: usize, cluster: usize },
    /// Interpreter-level type violation (REAL where INTEGER required,
    /// division by zero, ...).
    TypeViolation { msg: String },
    /// An array `load` or `store` whose subscript, as a 0-based
    /// element offset, lies outside the array's `len` elements.
    SubscriptRange { access: &'static str, array: String, index: i64, len: usize },
    /// Caller handed the runtime an argument that cannot be honoured.
    InvalidArgument { msg: String },
    /// Batch admission control refused a job at submission (bad spec,
    /// uncompilable source, or a request larger than the machine).
    AdmissionRejected { job: String, reason: String },
    /// A previously admitted job can no longer be placed — node drains
    /// shrank the machine below the job's partition footprint.
    AdmissionInfeasible { job: String, need: usize, have: usize },
    /// An internal invariant broke; always a bug, never a modelled fault.
    Internal { msg: String },
}

impl VpceError {
    /// Stable process exit code `vpcec` maps this error to.
    /// (0 = ok, 1 = usage/front-end, 2 = lint findings, 3 = runtime
    /// error, 4 = batch admission failure.)
    pub fn exit_code(&self) -> i32 {
        match self {
            VpceError::AdmissionRejected { .. } | VpceError::AdmissionInfeasible { .. } => 4,
            _ => 3,
        }
    }

    /// True when the error is an *injected* (modelled) fault rather
    /// than a program/runtime misuse.
    pub fn is_injected(&self) -> bool {
        matches!(
            self,
            VpceError::LinkFailure { .. }
                | VpceError::BusFailure { .. }
                | VpceError::NicFailure { .. }
                | VpceError::RankCrash { .. }
                | VpceError::RecoveryFailed { .. }
        )
    }

    /// Short stable category tag (used in diagnostics and JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            VpceError::LinkFailure { .. } => "link-failure",
            VpceError::BusFailure { .. } => "bus-failure",
            VpceError::NicFailure { .. } => "nic-failure",
            VpceError::RankCrash { .. } => "rank-crash",
            VpceError::RecoveryFailed { .. } => "recovery-failed",
            VpceError::RmaBounds { .. } => "rma-bounds",
            VpceError::RankOutOfRange { .. } => "rank-out-of-range",
            VpceError::LockState { .. } => "lock-state",
            VpceError::PeerFailure { .. } => "peer-failure",
            VpceError::DeadlockStall { .. } => "deadlock-stall",
            VpceError::SizeMismatch { .. } => "size-mismatch",
            VpceError::TypeViolation { .. } => "type-violation",
            VpceError::SubscriptRange { .. } => "subscript-range",
            VpceError::InvalidArgument { .. } => "invalid-argument",
            VpceError::AdmissionRejected { .. } => "admission-rejected",
            VpceError::AdmissionInfeasible { .. } => "admission-infeasible",
            VpceError::Internal { .. } => "internal",
        }
    }
}

impl fmt::Display for VpceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VpceError::LinkFailure { src, dst, attempts } => write!(
                f,
                "link failure: packet {src}->{dst} lost after {attempts} attempts (retransmit budget exhausted)"
            ),
            VpceError::BusFailure { root, attempts } => write!(
                f,
                "V-Bus construction from node {root} failed after {attempts} attempts"
            ),
            VpceError::NicFailure { rank, what, attempts } => write!(
                f,
                "NIC failure on rank {rank}: {what} failed after {attempts} attempts"
            ),
            VpceError::RankCrash { rank, region } => {
                write!(f, "rank {rank} crashed (fault schedule) at {region}")
            }
            VpceError::RecoveryFailed { code, rank, detail } => {
                write!(f, "recovery failed [{code}] for rank {rank}: {detail}")
            }
            VpceError::RmaBounds { target, offset, len, size } => write!(
                f,
                "RMA past end of window: offset {offset} + len {len} > size {size} on target rank {target}"
            ),
            VpceError::RankOutOfRange { what, rank, size } => {
                write!(f, "{what} rank out of range: {rank} >= {size}")
            }
            VpceError::LockState { msg } => write!(f, "{msg}"),
            VpceError::PeerFailure { msg } => write!(f, "{msg}"),
            VpceError::DeadlockStall { graph } => {
                write!(f, "communication deadlock: all live ranks blocked\n{graph}")
            }
            VpceError::SizeMismatch { program, cluster } => write!(
                f,
                "program compiled for {program} ranks, cluster has {cluster}"
            ),
            VpceError::TypeViolation { msg } => write!(f, "{msg}"),
            VpceError::SubscriptRange { access, array, index, len } => write!(
                f,
                "{access} out of bounds: array {array} index {index} len {len}"
            ),
            VpceError::InvalidArgument { msg } => write!(f, "{msg}"),
            VpceError::AdmissionRejected { job, reason } => {
                write!(f, "admission rejected: job '{job}': {reason}")
            }
            VpceError::AdmissionInfeasible { job, need, have } => write!(
                f,
                "admission infeasible: job '{job}' needs {need} nodes, machine has {have} usable"
            ),
            VpceError::Internal { msg } => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for VpceError {}

/// `?` unboxes the one-word error of the interpreter's walk.
impl From<Box<VpceError>> for VpceError {
    fn from(e: Box<VpceError>) -> Self {
        *e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_display_phrases_survive() {
        // These substrings are load-bearing: infallible wrappers panic
        // with the Display text and existing tests match on them.
        let e = VpceError::RmaBounds { target: 1, offset: 9, len: 4, size: 8 };
        assert!(e.to_string().contains("RMA past end of window"));
        let e = VpceError::SizeMismatch { program: 4, cluster: 2 };
        assert!(e.to_string().contains("compiled for"));
        let e = VpceError::RankOutOfRange { what: "target", rank: 7, size: 4 };
        assert!(e.to_string().contains("target rank out of range"));
        let e = VpceError::PeerFailure {
            msg: "collective poisoned: a peer rank panicked".into(),
        };
        assert!(e.to_string().contains("collective poisoned"));
    }

    #[test]
    fn recovery_failed_is_exit_3_injected_and_names_its_code() {
        let e = VpceError::RecoveryFailed {
            code: "VPCE402",
            rank: 2,
            detail: "rollback budget exhausted".into(),
        };
        assert_eq!(e.exit_code(), 3);
        assert!(e.is_injected());
        assert_eq!(e.kind(), "recovery-failed");
        assert!(e.to_string().contains("VPCE402"), "{e}");
    }

    #[test]
    fn injected_vs_misuse_split() {
        assert!(VpceError::RankCrash { rank: 0, region: "r".into() }.is_injected());
        assert!(VpceError::LinkFailure { src: 0, dst: 1, attempts: 9 }.is_injected());
        assert!(!VpceError::LockState { msg: "x".into() }.is_injected());
        assert_eq!(
            VpceError::BusFailure { root: 0, attempts: 3 }.exit_code(),
            3
        );
    }

    #[test]
    fn admission_errors_are_exit_4_and_not_injected() {
        let rej = VpceError::AdmissionRejected {
            job: "wide".into(),
            reason: "requests 32 ranks on a 16-node machine".into(),
        };
        assert_eq!(rej.exit_code(), 4);
        assert!(!rej.is_injected());
        assert_eq!(rej.kind(), "admission-rejected");
        assert!(rej.to_string().contains("admission rejected"), "{rej}");
        let inf = VpceError::AdmissionInfeasible { job: "j".into(), need: 4, have: 3 };
        assert_eq!(inf.exit_code(), 4);
        assert_eq!(inf.kind(), "admission-infeasible");
        assert!(inf.to_string().contains("admission infeasible"), "{inf}");
    }
}
