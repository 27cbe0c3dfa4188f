//! The epoch-conflict scanner: which pairs of one-sided operations in
//! one access epoch have an undefined outcome under MPI-2's RMA rules.
//! The runtime ledger (`mpi2::conflict`, at every closing fence) and
//! the static checker (`rmacheck::check`, per epoch of a trace) both
//! scan through it and only map a colliding pair to their own record.
//!
//! It owns the effect expansion ([`EpochScan::push`]), the
//! permitted-pair rule (read/read, same-operator accumulates and two
//! local accesses never conflict), the candidate pairs — an interval
//! join per (window, shard) through a reused [`PairJoin`], replayed in
//! the all-pairs loop's `(i, j)` order, the order both ledgers record
//! in — and the call to the exact test behind [`Footprint`].

use crate::sweep::PairJoin;

/// What one operation does to window memory. `A` is the caller's
/// accumulate operator; the scanner only compares two of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access<A> {
    /// Remote write of the target's shard (`MPI_PUT`).
    Put,
    /// Remote read of the target's shard into the origin's (`MPI_GET`).
    Get,
    /// Remote combine into the target's shard (`MPI_ACCUMULATE`).
    Acc(A),
    /// Store into the issuing rank's own shard while the epoch is open.
    LocalWrite,
    /// Load from the issuing rank's own shard while the epoch is open.
    LocalRead,
}

/// How one effect touches its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role<A> {
    Write,
    Read,
    Acc(A),
}

/// How two effects collided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two writes to the same element (PUT/PUT, PUT/ACC, or the
    /// origin-side write of a GET against another write).
    WriteWrite,
    /// A write and a read of the same element (PUT vs the target-side
    /// read of a GET).
    WriteRead,
    /// Two ACCUMULATEs with *different* operators on the same element
    /// (same-operator accumulates commute and are permitted).
    AccMixed,
}

/// An element footprint on one shard: [`Lmad::overlaps`] for the
/// checker's descriptors, [`progressions_intersect`] for the runtime's
/// one-dimensional progressions.
///
/// [`Lmad::overlaps`]: crate::Lmad::overlaps
/// [`progressions_intersect`]: crate::progressions_intersect
pub trait Footprint {
    /// First and last element touched; `lo > hi` when none is. The
    /// join asks it on every comparison it sorts by: keep it cheap.
    fn extent(&self) -> (i64, i64);

    /// Do the two footprints share an element? Asked only of pairs
    /// whose extents intersect.
    fn meets(&self, other: &Self) -> bool;

    /// Do two of the accesses this footprint stands for share an
    /// element? One access never does; a footprint that stands for
    /// several (a planned operation's wire messages) does when two of
    /// them meet.
    fn meets_itself(&self) -> bool {
        false
    }
}

/// One shard effect of an operation; `op` is what the caller handed
/// [`EpochScan::push`] to map a collision back to its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect<O, A> {
    pub win: usize,
    pub shard: usize,
    pub origin: usize,
    pub op: O,
    role: Role<A>,
    local: bool,
}

impl<O: Footprint, A: Copy + Eq> Effect<O, A> {
    /// How this effect and `other` collide: `None` when they touch
    /// different shards, form a permitted pair or do not meet.
    pub(crate) fn conflict(&self, other: &Self) -> Option<ConflictKind> {
        if (self.win, self.shard) != (other.win, other.shard) || self.local && other.local {
            return None;
        }
        let kind = classify(self.role, other.role)?;
        self.op.meets(&other.op).then_some(kind)
    }
}

/// Classify a pair of roles; `None` means the pair is permitted.
fn classify<A: Eq>(a: Role<A>, b: Role<A>) -> Option<ConflictKind> {
    use Role::*;
    match (a, b) {
        (Read, Read) => None,
        (Acc(x), Acc(y)) if x == y => None,
        (Acc(_), Acc(_)) => Some(ConflictKind::AccMixed),
        (Read, _) | (_, Read) => Some(ConflictKind::WriteRead),
        _ => Some(ConflictKind::WriteWrite),
    }
}

/// One epoch's effects and the join over them. Kept from epoch to
/// epoch, both buffers keep their capacity: an epoch the size of an
/// earlier one scans without allocating.
#[derive(Debug)]
pub struct EpochScan<O, A> {
    eff: Vec<Effect<O, A>>,
    join: PairJoin,
}

impl<O, A> Default for EpochScan<O, A> {
    fn default() -> Self {
        EpochScan {
            eff: Vec::new(),
            join: PairJoin::default(),
        }
    }
}

impl<O: Footprint + Copy, A: Copy + Eq> EpochScan<O, A> {
    /// Forget the last epoch and make room for `ops` effects.
    pub fn begin(&mut self, ops: usize) {
        self.eff.clear();
        self.eff.reserve(ops);
    }

    /// Add an operation `origin` issued on `target`'s shard of window
    /// `win`, as its effects: a GET reads the target's shard *and*
    /// writes the origin's at the same offsets (the windows are
    /// symmetric), so a self-GET is the identity and has none.
    pub fn push(&mut self, win: usize, origin: usize, target: usize, access: Access<A>, op: O) {
        let local = matches!(access, Access::LocalWrite | Access::LocalRead);
        let mut effect = |shard, role| {
            self.eff.push(Effect {
                win,
                shard,
                origin,
                op,
                role,
                local,
            });
        };
        match access {
            Access::Put | Access::LocalWrite => effect(target, Role::Write),
            Access::LocalRead => effect(target, Role::Read),
            Access::Acc(a) => effect(target, Role::Acc(a)),
            Access::Get if origin == target => {}
            Access::Get => {
                effect(target, Role::Read);
                effect(origin, Role::Write);
            }
        }
    }

    /// The epoch's effects, in push order.
    pub fn effects(&self) -> &[Effect<O, A>] {
        &self.eff
    }

    /// The pairs handed to the exact test: same (window, shard),
    /// intersecting extents, in `(i, j)` order.
    pub fn candidates(&mut self) -> &[(usize, usize)] {
        candidates(&self.eff, &mut self.join)
    }

    /// Every colliding pair, in the order a visit to every pair `i < j`
    /// of [`effects`](Self::effects) meets them.
    pub fn conflicts(
        &mut self,
    ) -> impl Iterator<Item = (ConflictKind, &Effect<O, A>, &Effect<O, A>)> + '_ {
        let eff = &self.eff;
        candidates(eff, &mut self.join)
            .iter()
            .filter_map(move |&(i, j)| {
                let (a, b) = (&eff[i], &eff[j]);
                Some((a.conflict(b)?, a, b))
            })
    }

    /// Every effect that collides with itself, in push order: an
    /// operation standing for several accesses two of which meet
    /// ([`Footprint::meets_itself`]) — the pairs a visit to every
    /// pair of those accesses would meet inside one operation.
    pub fn self_conflicts(&self) -> impl Iterator<Item = (ConflictKind, &Effect<O, A>)> + '_ {
        self.eff.iter().filter_map(|e| {
            let kind = classify(e.role, e.role).filter(|_| !e.local)?;
            e.op.meets_itself().then_some((kind, e))
        })
    }
}

fn candidates<'j, O: Footprint, A>(
    eff: &[Effect<O, A>],
    join: &'j mut PairJoin,
) -> &'j [(usize, usize)] {
    join.pairs_by_key(eff.len(), |i| {
        ((eff[i].win, eff[i].shard), eff[i].op.extent())
    })
}
