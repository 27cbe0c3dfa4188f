//! Exhaustive small-scope exploration of a [`Skeleton`]'s interleaving
//! space, with a stubborn-set-style partial-order reduction.
//!
//! ## State
//!
//! The full semantic state of a skeleton execution is a function of the
//! per-rank program counters plus the crashed set: mailbox occupancy is
//! (sends executed by the source) − (receives executed by the
//! destination), pool pressure is the origin's eager puts since its
//! last fence, and reservation levels are sums of per-rank
//! acquire/release prefixes. All of those are precomputed as prefix
//! tables ([`Tables`]), so a state is just `(pc[], crashed_mask)` and
//! deduplication is exact.
//!
//! ## Reduction
//!
//! Every transition advances at least one program counter, so the
//! state graph is a DAG — the cycle proviso of ample-set theory is
//! vacuous. A transition is *safe* when it (a) cannot be disabled by
//! any other rank's move, (b) never disables another rank's enabled
//! move, and (c) touches only its own rank's state plus a
//! monotonically-growing channel. Every skeleton op except `Acquire`
//! is safe by construction (sends and releases only enable; an enabled
//! receive can only be consumed by its own rank; an enabled handshake
//! half stays enabled because its peer is frozen until it moves; a
//! crash only affects syncs its own rank was required for — which
//! cannot fire before the crash anyway). A singleton set containing a
//! safe enabled transition is therefore a persistent (stubborn) set,
//! and the explorer expands only that one successor; it branches over
//! all enabled moves only at contended `Acquire`s. Global syncs are
//! single atomic transitions and, when enabled, are the *only* enabled
//! transition (every rank is at the sync).
//!
//! Exploration is breadth-first, so the first stuck state found yields
//! a minimal counterexample (within the reduced graph).

use std::collections::{HashMap, VecDeque};

use crate::skeleton::{Act, Op, Skeleton, SyncKind};

/// One scheduled step of a counterexample interleaving.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The rank that moved, or `None` for a global sync (all ranks).
    pub rank: Option<usize>,
    pub act: Act,
}

/// Why a rank is blocked in the stuck state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cause {
    /// The awaited peer crashed.
    PeerCrashed { peer: usize },
    /// The awaited peer finished (or can never reach a matching op).
    PeerFinished { peer: usize },
    /// Sync mismatch: the peer is at a different operation.
    PeerDiverged { peer: usize, at: String },
    /// Live peers exist but they are blocked too (a wait cycle).
    WaitCycle { peer: usize },
    /// The origin's registered pool is exhausted (strict mode).
    PoolExhausted { used: usize, slots: usize },
    /// Not enough free units of a shared resource, and no release can
    /// ever happen.
    ResourceSaturated { used: i64, cap: usize, need: usize },
}

/// One blocked rank of the stuck state.
#[derive(Debug, Clone)]
pub struct Blocked {
    pub rank: usize,
    pub act: Act,
    pub cause: Cause,
}

/// The outcome of exploring one skeleton.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// The minimal-step stall, when one exists.
    pub stall: Option<Stall>,
    /// Distinct states visited.
    pub states: usize,
    /// True when the `max_states` budget stopped exploration early (a
    /// clean result is then inconclusive).
    pub truncated: bool,
    /// Static per-rank eager-pool high-water mark within one fence
    /// epoch, with the line of the first overflowing put (for
    /// VPCE210 in non-strict mode).
    pub pool_epoch_hwm: Vec<(usize, usize)>,
}

/// A reachable global stall: the counterexample path and the blocked
/// ranks with their classified causes.
#[derive(Debug, Clone)]
pub struct Stall {
    pub steps: Vec<TraceStep>,
    pub blocked: Vec<Blocked>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    pc: Vec<u32>,
    crashed: u32,
}

impl State {
    fn is_crashed(&self, r: usize) -> bool {
        self.crashed & (1 << r) != 0
    }
}

enum StepKind {
    Rank(usize),
    SyncAll,
}

/// Prefix tables making every semantic quantity a pure function of
/// `(pc, crashed)`.
struct Tables<'a> {
    sk: &'a Skeleton,
    strict: bool,
    /// `epoch_eager[r][i]` = eager puts since rank `r`'s last fence,
    /// counted strictly before act `i`.
    epoch_eager: Vec<Vec<u32>>,
    /// `(src, dst, tag)` -> channel index.
    chan_idx: HashMap<(usize, usize, i32), usize>,
    /// Per channel: cumulative sends by src before src-pc, cumulative
    /// receives by dst before dst-pc.
    chan_send: Vec<Vec<u32>>,
    chan_recv: Vec<Vec<u32>>,
    chan_key: Vec<(usize, usize, i32)>,
    /// Handshake id -> (sender rank, pos) / (receiver rank, pos).
    hs_send: HashMap<usize, (usize, usize)>,
    hs_recv: HashMap<usize, (usize, usize)>,
    /// `res_cum[res][r][i]` = units of `res` rank `r` holds after its
    /// first `i` acts.
    res_cum: Vec<Vec<Vec<i64>>>,
}

impl<'a> Tables<'a> {
    fn build(sk: &'a Skeleton, strict: bool) -> Self {
        let n = sk.nranks;
        let mut epoch_eager = Vec::with_capacity(n);
        let mut chan_idx: HashMap<(usize, usize, i32), usize> = HashMap::new();
        let mut chan_key = Vec::new();
        let mut hs_send = HashMap::new();
        let mut hs_recv = HashMap::new();
        // Discover channels first so the cumulative vectors can be
        // sized for every rank.
        for (r, acts) in sk.ranks.iter().enumerate() {
            for (i, a) in acts.iter().enumerate() {
                match a.op {
                    Op::Send { to, tag } => {
                        chan_idx.entry((r, to, tag)).or_insert_with(|| {
                            chan_key.push((r, to, tag));
                            chan_key.len() - 1
                        });
                    }
                    Op::Recv { from, tag } => {
                        chan_idx.entry((from, r, tag)).or_insert_with(|| {
                            chan_key.push((from, r, tag));
                            chan_key.len() - 1
                        });
                    }
                    Op::RdvzSend { hs, .. } => {
                        hs_send.insert(hs, (r, i));
                    }
                    Op::RdvzRecv { hs, .. } => {
                        hs_recv.insert(hs, (r, i));
                    }
                    _ => {}
                }
            }
        }
        let nchan = chan_key.len();
        let nres = sk.resources.len();
        let mut chan_send = vec![Vec::new(); nchan];
        let mut chan_recv = vec![Vec::new(); nchan];
        let mut res_cum: Vec<Vec<Vec<i64>>> = vec![Vec::with_capacity(n); nres];
        for (r, acts) in sk.ranks.iter().enumerate() {
            let len = acts.len();
            let mut epoch = vec![0u32; len + 1];
            let mut sends = vec![vec![0u32; len + 1]; nchan];
            let mut recvs = vec![vec![0u32; len + 1]; nchan];
            let mut res = vec![vec![0i64; len + 1]; nres];
            for i in 0..len {
                epoch[i + 1] = epoch[i];
                for c in 0..nchan {
                    sends[c][i + 1] = sends[c][i];
                    recvs[c][i + 1] = recvs[c][i];
                }
                for rq in res.iter_mut() {
                    rq[i + 1] = rq[i];
                }
                match acts[i].op {
                    Op::Sync(SyncKind::Fence) => epoch[i + 1] = 0,
                    Op::EagerPut { .. } => epoch[i + 1] += 1,
                    Op::Send { to, tag } => sends[chan_idx[&(r, to, tag)]][i + 1] += 1,
                    Op::Recv { from, tag } => recvs[chan_idx[&(from, r, tag)]][i + 1] += 1,
                    Op::Acquire { res: q, n } => res[q][i + 1] += n as i64,
                    Op::Release { res: q, n } => res[q][i + 1] -= n as i64,
                    _ => {}
                }
            }
            epoch_eager.push(epoch);
            // Keep only this rank's columns of the per-channel tables
            // (each channel has exactly one src rank and one dst rank).
            for c in 0..nchan {
                if chan_key[c].0 == r {
                    chan_send[c] = sends[c].clone();
                }
                if chan_key[c].1 == r {
                    chan_recv[c] = recvs[c].clone();
                }
            }
            for q in 0..nres {
                res_cum[q].push(res[q].clone());
            }
        }
        // Channels whose src/dst rank never appears still need valid
        // (all-zero) tables.
        for c in 0..nchan {
            if chan_send[c].is_empty() {
                chan_send[c] = vec![0; sk.ranks[chan_key[c].0].len() + 1];
            }
            if chan_recv[c].is_empty() {
                chan_recv[c] = vec![0; sk.ranks[chan_key[c].1].len() + 1];
            }
        }
        Tables {
            sk,
            strict,
            epoch_eager,
            chan_idx,
            chan_send,
            chan_recv,
            chan_key,
            hs_send,
            hs_recv,
            res_cum,
        }
    }

    fn len(&self, r: usize) -> usize {
        self.sk.ranks[r].len()
    }

    fn act(&self, r: usize, i: usize) -> &Act {
        &self.sk.ranks[r][i]
    }

    /// Is rank `r` still live (not crashed, not finished)?
    fn live(&self, st: &State, r: usize) -> bool {
        !st.is_crashed(r) && (st.pc[r] as usize) < self.len(r)
    }

    /// Messages currently deposited on channel `c`.
    fn mail(&self, st: &State, c: usize) -> u32 {
        let (src, dst, _) = self.chan_key[c];
        self.chan_send[c][st.pc[src] as usize] - self.chan_recv[c][st.pc[dst] as usize]
    }

    /// Units of resource `q` reserved across all ranks.
    fn res_used(&self, st: &State, q: usize) -> i64 {
        (0..self.sk.nranks)
            .map(|r| self.res_cum[q][r][st.pc[r] as usize])
            .sum()
    }

    /// Is the (non-sync) act at rank `r`'s pc enabled?
    fn enabled(&self, st: &State, r: usize) -> bool {
        let i = st.pc[r] as usize;
        match &self.act(r, i).op {
            Op::Sync(_) => unreachable!("syncs are handled globally"),
            Op::EagerPut { .. } => {
                !self.strict || (self.epoch_eager[r][i] as usize) < self.sk.pool_slots
            }
            Op::RdvzPut { .. } | Op::Get { .. } | Op::Send { .. } | Op::Release { .. }
            | Op::Crash => true,
            Op::Recv { from, tag } => {
                let c = self.chan_idx[&(*from, r, *tag)];
                self.mail(st, c) > 0
            }
            Op::RdvzRecv { hs, .. } => match self.hs_send.get(hs) {
                Some(&(s, pos)) => !st.is_crashed(s) && st.pc[s] as usize == pos,
                None => false,
            },
            Op::RdvzSend { hs, .. } => match self.hs_recv.get(hs) {
                Some(&(t, pos)) => st.pc[t] as usize > pos,
                None => false,
            },
            Op::Acquire { res, n } => {
                self.res_used(st, *res) + *n as i64 <= self.sk.resources[*res] as i64
            }
        }
    }

    /// Is the enabled act at rank `r`'s pc safe to use as a singleton
    /// persistent set? Everything except a contended reservation.
    fn safe(&self, r: usize, i: usize) -> bool {
        !matches!(self.act(r, i).op, Op::Acquire { .. })
    }

    /// The global sync enabled in `st`, if any: every rank live and at
    /// the same sync kind.
    fn enabled_sync(&self, st: &State) -> Option<SyncKind> {
        let mut kind = None;
        for r in 0..self.sk.nranks {
            if !self.live(st, r) {
                return None;
            }
            match self.act(r, st.pc[r] as usize).op {
                Op::Sync(k) => match kind {
                    None => kind = Some(k),
                    Some(k0) if k0 == k => {}
                    Some(_) => return None,
                },
                _ => return None,
            }
        }
        kind
    }

    fn apply(&self, st: &State, step: &StepKind) -> State {
        let mut next = st.clone();
        match step {
            StepKind::SyncAll => {
                for r in 0..self.sk.nranks {
                    next.pc[r] += 1;
                }
            }
            StepKind::Rank(r) => {
                let i = next.pc[*r] as usize;
                if matches!(self.act(*r, i).op, Op::Crash) {
                    next.crashed |= 1 << r;
                }
                next.pc[*r] += 1;
            }
        }
        next
    }

    /// Does rank `from`'s suffix (from its current pc, unless crashed)
    /// still contain a matching `Send(to, tag)`?
    fn sender_can_still_match(&self, st: &State, from: usize, to: usize, tag: i32) -> bool {
        if st.is_crashed(from) {
            return false;
        }
        self.sk.ranks[from][st.pc[from] as usize..]
            .iter()
            .any(|a| matches!(a.op, Op::Send { to: t, tag: g } if t == to && g == tag))
    }

    /// Why the live rank `r` cannot move in the stuck state.
    fn blocked(&self, st: &State, r: usize) -> Blocked {
        let i = st.pc[r] as usize;
        let act = self.act(r, i).clone();
        let cause = match &act.op {
            Op::Sync(k) => {
                // Some peer is crashed, finished, or at a different
                // operation; report the first one responsible.
                let mut cause = None;
                for p in 0..self.sk.nranks {
                    if p == r {
                        continue;
                    }
                    if st.is_crashed(p) {
                        cause = Some(Cause::PeerCrashed { peer: p });
                        break;
                    }
                    if !self.live(st, p) {
                        cause = Some(Cause::PeerFinished { peer: p });
                        break;
                    }
                    match &self.act(p, st.pc[p] as usize).op {
                        Op::Sync(k2) if k2 == k => {}
                        other => {
                            cause = Some(Cause::PeerDiverged {
                                peer: p,
                                at: other.describe(),
                            });
                            break;
                        }
                    }
                }
                cause.expect("a blocked sync has a responsible peer")
            }
            Op::Recv { from, tag } => {
                if st.is_crashed(*from) {
                    Cause::PeerCrashed { peer: *from }
                } else if !self.sender_can_still_match(st, *from, r, *tag) {
                    Cause::PeerFinished { peer: *from }
                } else {
                    Cause::WaitCycle { peer: *from }
                }
            }
            Op::RdvzRecv { from, hs } => match self.hs_send.get(hs) {
                // No RTS half exists at all: the sender crashed before
                // emitting it, or the plan never contained it.
                None if st.is_crashed(*from) => Cause::PeerCrashed { peer: *from },
                None => Cause::PeerFinished { peer: *from },
                Some(&(s, pos)) => {
                    if st.is_crashed(s) {
                        Cause::PeerCrashed { peer: s }
                    } else if (st.pc[s] as usize) > pos || !self.live(st, s) {
                        Cause::PeerFinished { peer: s }
                    } else {
                        Cause::WaitCycle { peer: s }
                    }
                }
            },
            Op::RdvzSend { to, hs } => match self.hs_recv.get(hs) {
                // No CTS half exists: the receiver crashed before its
                // accept, or the plan never matched this send.
                None if st.is_crashed(*to) => Cause::PeerCrashed { peer: *to },
                None => Cause::PeerFinished { peer: *to },
                Some(&(t, pos)) => {
                    if st.is_crashed(t) {
                        Cause::PeerCrashed { peer: t }
                    } else if !self.live(st, t) && (st.pc[t] as usize) <= pos {
                        Cause::PeerFinished { peer: t }
                    } else if self.live(st, t) {
                        Cause::WaitCycle { peer: t }
                    } else {
                        Cause::PeerFinished { peer: t }
                    }
                }
            },
            Op::EagerPut { .. } => Cause::PoolExhausted {
                used: self.epoch_eager[r][i] as usize,
                slots: self.sk.pool_slots,
            },
            Op::Acquire { res, n } => {
                // Distinguish "holders are blocked too" from "capacity
                // can never suffice" via the peers' states.
                Cause::ResourceSaturated {
                    used: self.res_used(st, *res),
                    cap: self.sk.resources[*res],
                    need: *n,
                }
            }
            // Send/Release/Get/RdvzPut/Crash are always enabled, so a
            // stuck rank can never be classified at one.
            op => unreachable!("always-enabled op {op:?} cannot block"),
        };
        Blocked { rank: r, act, cause }
    }
}

/// Static per-rank pool pressure: the high-water mark of eager puts
/// inside one fence epoch, and the line of the first put past `slots`.
fn pool_epoch_hwm(sk: &Skeleton) -> Vec<(usize, usize)> {
    sk.ranks
        .iter()
        .map(|acts| {
            let (mut cur, mut hwm, mut line) = (0usize, 0usize, 0usize);
            for a in acts {
                match a.op {
                    Op::Sync(SyncKind::Fence) => cur = 0,
                    Op::EagerPut { .. } => {
                        cur += 1;
                        if cur > hwm {
                            hwm = cur;
                            if cur == sk.pool_slots + 1 {
                                line = a.line;
                            }
                        }
                    }
                    _ => {}
                }
            }
            (hwm, line)
        })
        .collect()
}

/// The most ranks [`explore`] tracks: a state's crash mask is a `u32`.
pub(crate) const MAX_RANKS: usize = 32;

/// A skeleton of more than `MAX_RANKS` ranks, which `explore`
/// refuses (VPCE209).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankLimit {
    pub nranks: usize,
}

/// Explore `sk` exhaustively (up to `max_states`) and return the first
/// (minimal) stall, if any.
pub(crate) fn explore(
    sk: &Skeleton,
    strict_pools: bool,
    max_states: usize,
) -> Result<ExploreResult, RankLimit> {
    if sk.nranks > MAX_RANKS {
        return Err(RankLimit { nranks: sk.nranks });
    }
    let t = Tables::build(sk, strict_pools);
    let init = State {
        pc: vec![0; sk.nranks],
        crashed: 0,
    };
    let mut ids: HashMap<State, usize> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    let mut parent: Vec<Option<(usize, TraceStep)>> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    ids.insert(init.clone(), 0);
    states.push(init);
    parent.push(None);
    queue.push_back(0);
    let mut truncated = false;
    let mut stall = None;

    'bfs: while let Some(id) = queue.pop_front() {
        let st = states[id].clone();
        // Terminal: every rank finished or crashed.
        if (0..sk.nranks).all(|r| !t.live(&st, r)) {
            continue;
        }
        let mut succs: Vec<StepKind> = Vec::new();
        if t.enabled_sync(&st).is_some() {
            succs.push(StepKind::SyncAll);
        } else {
            let mut all: Vec<usize> = Vec::new();
            let mut first_safe: Option<usize> = None;
            for r in 0..sk.nranks {
                if !t.live(&st, r) {
                    continue;
                }
                let i = st.pc[r] as usize;
                if matches!(t.act(r, i).op, Op::Sync(_)) {
                    continue; // a lone sync arrival is not a move
                }
                if t.enabled(&st, r) {
                    if first_safe.is_none() && t.safe(r, i) {
                        first_safe = Some(r);
                    }
                    all.push(r);
                }
            }
            match first_safe {
                Some(r) => succs.push(StepKind::Rank(r)),
                None => {
                    for r in all {
                        succs.push(StepKind::Rank(r));
                    }
                }
            }
        }
        if succs.is_empty() {
            // Global stall: some rank is live, nothing can move.
            let blocked: Vec<Blocked> = (0..sk.nranks)
                .filter(|&r| t.live(&st, r))
                .map(|r| t.blocked(&st, r))
                .collect();
            let mut steps = Vec::new();
            let mut cur = id;
            while let Some((p, step)) = &parent[cur] {
                steps.push(step.clone());
                cur = *p;
            }
            steps.reverse();
            stall = Some(Stall { steps, blocked });
            break 'bfs;
        }
        for step in succs {
            let next = t.apply(&st, &step);
            if ids.contains_key(&next) {
                continue;
            }
            if states.len() >= max_states {
                truncated = true;
                break 'bfs;
            }
            let nid = states.len();
            ids.insert(next.clone(), nid);
            states.push(next);
            let tstep = match &step {
                StepKind::SyncAll => TraceStep {
                    rank: None,
                    act: {
                        // All ranks execute the same kind; rank 0's
                        // act carries representative provenance.
                        let r0 = (0..sk.nranks)
                            .find(|&r| t.live(&st, r))
                            .expect("sync needs live ranks");
                        t.act(r0, st.pc[r0] as usize).clone()
                    },
                },
                StepKind::Rank(r) => TraceStep {
                    rank: Some(*r),
                    act: t.act(*r, st.pc[*r] as usize).clone(),
                },
            };
            parent.push(Some((id, tstep)));
            queue.push_back(nid);
        }
    }

    Ok(ExploreResult {
        stall,
        states: states.len(),
        truncated,
        pool_epoch_hwm: pool_epoch_hwm(sk),
    })
}
