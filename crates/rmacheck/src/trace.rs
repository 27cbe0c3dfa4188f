//! The checker's intermediate form: per-rank streams of RMA operations
//! and synchronisation events, abstracted from the lowered SPMD
//! program. Element footprints are [`Lmad`] descriptors, which the
//! epoch scanner ([`lmad::epoch`]) intersects with [`Lmad::overlaps`].
//! A planned op is one operation however many wire messages it
//! issues: its footprint is the union of its messages, and it keeps
//! the split descriptor they are read from.

use lmad::{Lmad, TransferPlan};

/// What one operation does to a window shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// One-sided remote write (`MPI_PUT`): writes `target`'s shard.
    Put,
    /// One-sided remote read (`MPI_GET`): reads `target`'s shard *and*
    /// writes the origin's own shard at the same offsets (the windows
    /// are symmetric full-size arrays, §5.1).
    Get,
    /// A local store executed while the window epoch is open (the
    /// compute phase holds the window locks).
    LocalWrite,
    /// A local load under an open epoch.
    LocalRead,
}

/// Where in the lowering an operation comes from (plan-site
/// provenance for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    Scatter,
    Collect,
    Compute,
    /// Hand-built traces (unit tests, differential harness).
    Synthetic,
}

impl Site {
    pub fn as_str(self) -> &'static str {
        match self {
            Site::Scatter => "scatter",
            Site::Collect => "collect",
            Site::Compute => "compute",
            Site::Synthetic => "synthetic",
        }
    }
}

/// One RMA or epoch-local access, or a planned op's messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Window index (= array index in the SPMD program).
    pub win: usize,
    /// Rank whose shard the primary access touches (for local
    /// accesses this equals the issuing rank).
    pub target: usize,
    pub kind: AccessKind,
    /// Element footprint on the shard: for a planned op, the union of
    /// its messages ([`TransferPlan::footprint`]).
    pub region: Lmad,
    /// A planned op's messages, as its split descriptor (§5.4): the
    /// operation is one wire message of that shape per `A_offsets`
    /// entry, and `region` is their union. `None` for one access.
    pub messages: Option<TransferPlan>,
    /// Source line of the originating loop (0 = unknown).
    pub line: usize,
    pub site: Site,
}

/// Synchronisation flavours that must agree across ranks.
pub use spmd_rt::protocol::SyncKind;

/// One event in a rank's program-order stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    Rma(Op),
    Sync(SyncKind),
}

/// The whole-program trace: one event stream per rank.
#[derive(Debug, Clone, Default)]
pub struct RmaTrace {
    pub nranks: usize,
    /// Window (array) names, indexed by `Op::win`.
    pub win_names: Vec<String>,
    pub ranks: Vec<Vec<Event>>,
}

impl RmaTrace {
    pub fn new(nranks: usize, win_names: Vec<String>) -> Self {
        RmaTrace {
            nranks,
            win_names,
            ranks: vec![Vec::new(); nranks],
        }
    }

    pub fn win_name(&self, win: usize) -> &str {
        self.win_names.get(win).map_or("?", |s| s.as_str())
    }

    /// Append a sync event on every rank (collective call sites).
    pub fn sync_all(&mut self, kind: SyncKind) {
        for evs in &mut self.ranks {
            evs.push(Event::Sync(kind));
        }
    }

    /// Append an RMA op on one rank's stream.
    pub fn op(&mut self, rank: usize, op: Op) {
        self.ranks[rank].push(Event::Rma(op));
    }
}
