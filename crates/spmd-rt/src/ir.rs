//! The SPMD intermediate representation — the "machine independent
//! intermediate representation" of §3, with the properties the paper
//! lists: explicit synchronization (barriers/fences), all data
//! intrinsically private (per-rank copies), and explicit communication
//! via PUT/GET.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use lmad::{RegionTransfer, TransferPlan};

/// Binary operators (arithmetic, relational, logical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

/// Intrinsic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntrinsicOp {
    Sqrt,
    Abs,
    Mod,
    Min,
    Max,
    Sin,
    Cos,
    Exp,
    /// INTEGER → REAL conversion.
    ToReal,
    /// REAL → INTEGER truncation.
    ToInt,
}

/// IR expressions. Scalars index the per-rank scalar bank; arrays
/// index the program's array table (one memory window each); `Load`
/// indices are *linearised element offsets* (subscript arithmetic is
/// compiled in).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IConst(i64),
    RConst(f64),
    Scalar(usize),
    Load {
        array: usize,
        index: Box<Expr>,
    },
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Intr(IntrinsicOp, Vec<Expr>),
}

/// IR statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `arrays[array][index] = value` (index pre-linearised).
    StoreArray {
        array: usize,
        index: Expr,
        value: Expr,
    },
    /// `scalars[slot] = value`.
    StoreScalar { slot: usize, value: Expr },
    /// Counted loop over an integer scalar slot.
    Loop {
        var: usize,
        lo: Expr,
        hi: Expr,
        step: i64,
        body: Vec<Instr>,
    },
    If {
        cond: Expr,
        then_body: Vec<Instr>,
        else_body: Vec<Instr>,
    },
}

/// A top-level statement list — a sequential section, a parallel
/// loop's body, the whole sequential program — shared: the backend
/// translates each once, and every lowering of one analysed program
/// (one per grain the advisor prices) points at the same instructions.
/// Two lists are equal when they are one allocation, or else statement
/// by statement.
#[derive(Clone)]
pub struct Instrs(Arc<[Instr]>);

impl Instrs {
    /// Are `a` and `b` one allocation?
    pub fn ptr_eq(a: &Instrs, b: &Instrs) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Default for Instrs {
    fn default() -> Self {
        Instrs(Arc::from([]))
    }
}

impl From<Vec<Instr>> for Instrs {
    fn from(instrs: Vec<Instr>) -> Self {
        Instrs(instrs.into())
    }
}

impl Deref for Instrs {
    type Target = [Instr];

    fn deref(&self) -> &[Instr] {
        &self.0
    }
}

impl PartialEq for Instrs {
    fn eq(&self, other: &Instrs) -> bool {
        Instrs::ptr_eq(self, other) || self.0 == other.0
    }
}

impl fmt::Debug for Instrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Loop scheduling of §5.3: "cyclic assignment for triangular loops,
/// and block assignment for square loops".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    Block,
    Cyclic,
}

impl Schedule {
    /// Both schedules, in flag order.
    pub const ALL: [Schedule; 2] = [Schedule::Block, Schedule::Cyclic];

    /// The `--schedule` name.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Block => "block",
            Schedule::Cyclic => "cyclic",
        }
    }

    /// The iterations rank `r` of `p` executes, as (start-iteration,
    /// every, count) over `0..trips`.
    pub fn assignment(self, trips: u64, r: usize, p: usize) -> (u64, u64, u64) {
        let (r, p) = (r as u64, p as u64);
        match self {
            Schedule::Block => {
                let chunk = trips.div_ceil(p);
                let start = (chunk * r).min(trips);
                let count = chunk.min(trips - start);
                (start, 1, count)
            }
            Schedule::Cyclic => {
                let count = if trips > r { (trips - r).div_ceil(p) } else { 0 };
                (r, p, count)
            }
        }
    }
}

/// One planned region of a scatter or collect batch: its messages as
/// a split descriptor, expanded only by the walk that issues them
/// ([`crate::protocol::steps`]). Two ops are equal when they issue the
/// same messages ([`TransferPlan`]'s equality; it knows no grain).
#[derive(Debug, Clone, PartialEq)]
pub struct CommOp {
    pub array: usize,
    pub descriptor: TransferPlan,
}

impl CommOp {
    /// The op's messages, each with its array.
    pub fn transfers(&self) -> impl Iterator<Item = (usize, RegionTransfer)> + '_ {
        self.descriptor.transfers().map(|t| (self.array, t))
    }
}

/// The communication plan of one region boundary: per-slave op lists
/// (index 0 — the master's own chunk — is always empty: the master's
/// data is already in place). Two plans are equal when their ops are,
/// op by op.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommPlan {
    pub per_rank: Vec<Vec<CommOp>>,
}

impl CommPlan {
    /// Total messages in the plan.
    pub fn num_messages(&self) -> usize {
        self.ops().map(|op| op.descriptor.num_messages()).sum()
    }

    /// Total elements crossing the wire.
    pub fn total_elems(&self) -> u64 {
        self.ops().map(|op| op.descriptor.total_elems()).sum()
    }

    /// Messages that must use the strided (programmed-I/O) path.
    pub fn strided_messages(&self) -> usize {
        self.ops().map(|op| op.descriptor.strided_messages()).sum()
    }

    fn ops(&self) -> impl Iterator<Item = &CommOp> {
        self.per_rank.iter().flatten()
    }
}

/// Scalar reduction operators at the IR level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    Sum,
    Prod,
    Min,
    Max,
}

/// A reduction: every rank's private copy of `scalar` is combined
/// onto the master at region exit.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    pub scalar: usize,
    pub op: RedOp,
    /// Identity element used to seed slave-local accumulators.
    pub identity: f64,
}

/// One parallel region: the §3 shape — barrier, data scattering,
/// partitioned loop execution, reduction, data collecting, fence,
/// barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ParRegion {
    /// Scalar slot of the parallel loop index.
    pub var: usize,
    /// First index value.
    pub lo: i64,
    pub step: i64,
    pub trips: u64,
    pub sched: Schedule,
    pub body: Instrs,
    /// Master → slave transfers at entry (ReadOnly/ReadWrite LMADs).
    pub scatter: CommPlan,
    /// Slave → master transfers at exit (WriteFirst/ReadWrite LMADs).
    pub collect: CommPlan,
    /// Slaves fetch their scatter regions with `MPI_GET` (pull) instead
    /// of the master pushing with `MPI_PUT`. Same transfers, opposite
    /// initiator: the host-side setup cost moves off the master's
    /// critical path onto the slaves, in parallel.
    pub pull_scatter: bool,
    /// Reductions combine through `MPI_WIN_LOCK`/`MPI_ACCUMULATE`
    /// critical sections (§3's lock primitive) instead of the
    /// collective tree.
    pub lock_reductions: bool,
    /// Shared scalar slots whose master values slaves need at entry.
    pub scalars_in: Vec<usize>,
    /// Private scalar slots (fresh per iteration; no communication).
    pub private_scalars: Vec<usize>,
    pub reductions: Vec<Reduction>,
    /// Source line of the loop (reports).
    pub line: usize,
}

impl ParRegion {
    /// An eight-trip region over `nprocs` ranks with an empty body and
    /// nothing to scatter, broadcast, reduce or collect — the blank that
    /// hand-built programs fill in with struct-update syntax.
    pub fn blank(nprocs: usize, line: usize) -> ParRegion {
        let no_comm = || CommPlan { per_rank: vec![Vec::new(); nprocs] };
        ParRegion {
            var: 0,
            lo: 1,
            step: 1,
            trips: 8,
            sched: Schedule::Block,
            body: Instrs::default(),
            scatter: no_comm(),
            collect: no_comm(),
            pull_scatter: false,
            lock_reductions: false,
            scalars_in: Vec::new(),
            private_scalars: Vec::new(),
            reductions: Vec::new(),
            line,
        }
    }
}

/// A top-level block of the SPMD program.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Sequential section: the master executes, the slaves wait at the
    /// following barrier (§3's master/slave control flow).
    MasterSeq(Instrs),
    Parallel(ParRegion),
}

/// A complete compiled SPMD program for a fixed number of ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdProgram {
    pub name: String,
    /// Number of ranks the communication plans were generated for.
    pub nprocs: usize,
    /// (name, element count) per array; one memory window each.
    pub arrays: Vec<(String, usize)>,
    /// (name, is_integer) per scalar slot.
    pub scalars: Vec<(String, bool)>,
    pub blocks: Vec<Block>,
    /// The original sequential statement list (reference execution and
    /// the Table-1 baseline).
    pub sequential: Instrs,
}

impl SpmdProgram {
    /// All parallel regions, in program order.
    pub fn regions(&self) -> impl Iterator<Item = &ParRegion> {
        self.numbered_regions().map(|(_, _, region)| region)
    }

    /// Every parallel region as `(serial, block index, region)`. The
    /// serial counts parallel blocks from the top of the program: it
    /// keys the rank-level fault draws ([`crate::protocol::crash_key`])
    /// and indexes the backend's per-region plan report.
    pub fn numbered_regions(&self) -> impl Iterator<Item = (u64, usize, &ParRegion)> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(block, b)| match b {
                Block::Parallel(region) => Some((block, region)),
                Block::MasterSeq(_) => None,
            })
            .enumerate()
            .map(|(serial, (block, region))| (serial as u64, block, region))
    }

    /// Aggregate message/volume statistics of all plans (reports).
    pub fn comm_summary(&self) -> (usize, u64) {
        let mut msgs = 0;
        let mut elems = 0;
        for r in self.regions() {
            msgs += r.scatter.num_messages() + r.collect.num_messages();
            elems += r.scatter.total_elems() + r.collect.total_elems();
        }
        (msgs, elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_schedule_covers_all_iterations_exactly_once() {
        for trips in [1u64, 7, 16, 100, 101] {
            for p in [1usize, 2, 3, 4, 8] {
                let mut seen = vec![0u32; trips as usize];
                for r in 0..p {
                    let (start, every, count) = Schedule::Block.assignment(trips, r, p);
                    assert_eq!(every, 1);
                    for k in 0..count {
                        seen[(start + k) as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "trips={trips} p={p}");
            }
        }
    }

    #[test]
    fn cyclic_schedule_covers_all_iterations_exactly_once() {
        for trips in [1u64, 7, 16, 100, 101] {
            for p in [1usize, 2, 3, 4, 8] {
                let mut seen = vec![0u32; trips as usize];
                for r in 0..p {
                    let (start, every, count) = Schedule::Cyclic.assignment(trips, r, p);
                    for k in 0..count {
                        seen[(start + k * every) as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "trips={trips} p={p}");
            }
        }
    }

    #[test]
    fn cyclic_balances_triangular_work() {
        // For triangular loops, iteration i costs ~i; cyclic spreads
        // the expensive tail across ranks.
        let trips = 100u64;
        let p = 4;
        let cost = |start: u64, every: u64, count: u64| -> u64 {
            (0..count).map(|k| start + k * every).sum()
        };
        let mut block_costs = Vec::new();
        let mut cyc_costs = Vec::new();
        for r in 0..p {
            let (s, e, c) = Schedule::Block.assignment(trips, r, p);
            block_costs.push(cost(s, e, c));
            let (s, e, c) = Schedule::Cyclic.assignment(trips, r, p);
            cyc_costs.push(cost(s, e, c));
        }
        let spread = |v: &[u64]| v.iter().max().unwrap() - v.iter().min().unwrap();
        assert!(
            spread(&cyc_costs) < spread(&block_costs) / 10,
            "cyclic {cyc_costs:?} vs block {block_costs:?}"
        );
    }

    #[test]
    fn comm_plan_statistics() {
        let op = |array, offset, stride, count| CommOp {
            array,
            descriptor: RegionTransfer { offset, stride, count }.into(),
        };
        let plan = CommPlan { per_rank: vec![vec![], vec![op(0, 0, 1, 10), op(1, 4, 2, 5)]] };
        assert_eq!(plan.num_messages(), 2);
        assert_eq!(plan.total_elems(), 15);
        assert_eq!(plan.strided_messages(), 1);
    }

    #[test]
    fn empty_trips_assignment() {
        let (_, _, count) = Schedule::Block.assignment(3, 3, 4);
        assert_eq!(count, 0, "rank beyond the work gets nothing");
        let (_, _, count) = Schedule::Cyclic.assignment(2, 3, 4);
        assert_eq!(count, 0);
    }
}
