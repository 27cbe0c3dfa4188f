//! The per-rank communication skeleton: the abstraction the verifier
//! explores.
//!
//! A [`Skeleton`] strips a lowered communication plan down to the
//! operations that can *block* or *unblock* a rank — global
//! synchronization, point-to-point matching, rendezvous handshake
//! halves, registered-pool slot pressure, and scheduler reservations —
//! plus the crash points of a deterministic fault schedule. Data
//! values, virtual-time costs and payload contents are deliberately
//! absent: progress is a property of orderings, not of bytes.

/// A global synchronization operation. All live ranks must arrive at
/// the same kind for it to complete.
pub use spmd_rt::protocol::SyncKind;

/// One skeleton operation, as seen by the executing rank.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Global synchronization (blocking until every live rank arrives
    /// at the same kind).
    Sync(SyncKind),
    /// An eager-protocol PUT: stages into one registered slot of the
    /// *origin's* pool, pinned until the origin's next fence. Blocks
    /// in strict-pool mode when the pool is exhausted; otherwise the
    /// runtime falls back to rendezvous (tracked for VPCE210).
    EagerPut { to: usize, bytes: usize },
    /// A rendezvous-protocol PUT: buffered until the closing fence,
    /// never blocks at issue time, touches no pool slot.
    RdvzPut { to: usize, bytes: usize },
    /// A one-sided GET (pull): buffered like a rendezvous put; the
    /// origin's pool is not involved (only PUT-family staging is).
    Get { from: usize, bytes: usize },
    /// The origin half of an explicit RTS/CTS handshake `hs`: blocks
    /// until the matching [`Op::RdvzRecv`] has *completed* (the CTS
    /// was sent back).
    RdvzSend { to: usize, hs: usize },
    /// The target half of handshake `hs`: blocks until the matching
    /// sender is *at* its [`Op::RdvzSend`] (the RTS has been posted).
    RdvzRecv { from: usize, hs: usize },
    /// Eager two-sided send: deposits and proceeds. Never blocks.
    Send { to: usize, tag: i32 },
    /// Blocking two-sided receive: needs a matching deposited message.
    Recv { from: usize, tag: i32 },
    /// Reserve `n` units of shared resource `res` (a scheduler slot, a
    /// gang reservation): blocks while fewer than `n` units are free.
    Acquire { res: usize, n: usize },
    /// Return `n` units of resource `res`. Never blocks.
    Release { res: usize, n: usize },
    /// The rank dies here (fault schedule). Everything after is
    /// unreachable; the rank never participates in a sync again.
    Crash,
}

impl Op {
    /// Stable one-line description (used in counterexample renderings
    /// and their JSON/golden forms).
    pub fn describe(&self) -> String {
        match self {
            Op::Sync(k) => k.as_str().to_string(),
            Op::EagerPut { to, bytes } => format!("eager-put -> {to} ({bytes} B)"),
            Op::RdvzPut { to, bytes } => format!("rdvz-put -> {to} ({bytes} B)"),
            Op::Get { from, bytes } => format!("get <- {from} ({bytes} B)"),
            Op::RdvzSend { to, hs } => format!("rdvz-send -> {to} (hs {hs})"),
            Op::RdvzRecv { from, hs } => format!("rdvz-recv <- {from} (hs {hs})"),
            Op::Send { to, tag } => format!("send -> {to} (tag {tag})"),
            Op::Recv { from, tag } => format!("recv <- {from} (tag {tag})"),
            Op::Acquire { res, n } => format!("acquire {n} of res {res}"),
            Op::Release { res, n } => format!("release {n} of res {res}"),
            Op::Crash => "crash".to_string(),
        }
    }
}

/// One operation with its plan-site provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Act {
    pub op: Op,
    /// Source line of the originating loop (0 = unknown/synthetic).
    pub line: usize,
    /// Lowering phase that produced the operation (`sync`, `scatter`,
    /// `collect`, `reduce`, `crash`, or a test-supplied label).
    pub site: &'static str,
}

/// A whole program's communication skeleton.
#[derive(Debug, Clone)]
pub struct Skeleton {
    pub program: String,
    pub nranks: usize,
    /// Registered eager slots per rank (the `TransportPolicy` pool).
    pub pool_slots: usize,
    /// Capacities of the shared counting resources referenced by
    /// [`Op::Acquire`]/[`Op::Release`].
    pub resources: Vec<usize>,
    /// `ranks[r]` = the acts rank `r` executes, in program order.
    pub ranks: Vec<Vec<Act>>,
}

impl Skeleton {
    pub fn new(program: impl Into<String>, nranks: usize) -> Self {
        assert!(nranks > 0);
        Skeleton {
            program: program.into(),
            nranks,
            pool_slots: 16,
            resources: Vec::new(),
            ranks: vec![Vec::new(); nranks],
        }
    }

    /// Append one act to `rank`'s stream.
    pub fn push(&mut self, rank: usize, op: Op, line: usize, site: &'static str) {
        self.ranks[rank].push(Act { op, line, site });
    }

    /// Append the same sync to every rank still alive according to
    /// `live` (crashed ranks stop receiving acts).
    pub fn sync_all(&mut self, kind: SyncKind, line: usize, live: &[bool]) {
        for (r, &alive) in live.iter().enumerate().take(self.nranks) {
            if alive {
                self.push(r, Op::Sync(kind), line, "sync");
            }
        }
    }
}
