//! # vpce-commcheck — static deadlock & progress verifier
//!
//! `vpcec --verify`: lower the compiled SPMD program and its backend
//! plan into a per-rank communication *skeleton* (everything that can
//! block a rank — syncs, protocol-resolved transfers, pool slots,
//! reservations, scheduled crashes) and exhaustively explore the
//! small-scope interleaving space with a stubborn-set partial-order
//! reduction. If any schedule reaches a global stall, the verifier
//! reports it with a minimal counterexample interleaving and one
//! diagnostic per blocked rank, classified by *why* progress is
//! impossible:
//!
//! | code    | finding |
//! |---------|---------|
//! | VPCE201 | deadlock: an interleaving reaches a global stall |
//! | VPCE202 | collective/fence mismatch or rank-divergent sync |
//! | VPCE203 | rendezvous RTS/CTS wait cycle |
//! | VPCE204 | registered-pool exhaustion deadlock (strict pools) |
//! | VPCE205 | blocked on a crash-drained peer (orphaned handshake) |
//! | VPCE206 | scheduler-reservation deadlock |
//! | VPCE207 | receive no surviving rank ever matches |
//! | VPCE208 | handshake half orphaned by a finished peer |
//! | VPCE209 | more than 32 ranks: refused, nothing explored |
//! | VPCE210 | progress depends on eager pool size ≥ N (warning) |
//!
//! The verifier never executes the program: exploration is over
//! program counters only, and every semantic quantity (mail, pool
//! pressure, reservations) is a precomputed function of them. Its
//! ground truth is the *dynamic* wait-for-graph detector in `mpi2`
//! (`VpceError::DeadlockStall`): the differential property suite
//! checks that no plan this verifier passes is ever flagged at run
//! time.

#![forbid(unsafe_code)]

mod explore;
mod lower;
pub mod skeleton;

use std::fmt::Write as _;

use mpi2::TransportPolicy;
use spmd_rt::ir::SpmdProgram;
use vpce_diag::json::{Layout, Object};
use vpce_diag::{DiagCode, Diagnostic, Report, Severity};
use vpce_faults::FaultSpec;
use vpce_trace::{CallInfo, CallOp, EventKind, Lane, Tracer};

use explore::{explore, Blocked, Cause, TraceStep, MAX_RANKS};
use skeleton::{Op, Skeleton, SyncKind};

pub use explore::{ExploreResult, RankLimit};
pub use lower::lower;

impl std::fmt::Display for RankLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--verify [{}] explores at most {MAX_RANKS} ranks (a state's crash mask is 32 bits); \
             this plan has {}",
            VerifyCode::RankLimit.as_str(),
            self.nranks
        )
    }
}

/// The stable verifier diagnostic codes (the VPCE2xx namespace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerifyCode {
    /// VPCE201: some interleaving reaches a global stall.
    Deadlock,
    /// VPCE202: fence/collective mismatch or rank-divergent sync.
    SyncMismatch,
    /// VPCE203: rendezvous RTS/CTS wait cycle.
    RendezvousCycle,
    /// VPCE204: registered-pool exhaustion deadlock (strict pools).
    PoolExhaustion,
    /// VPCE205: blocked on a crash-drained peer.
    OrphanedHandshake,
    /// VPCE206: scheduler-reservation deadlock.
    ReservationDeadlock,
    /// VPCE207: a receive no surviving rank ever matches.
    UnmatchedRecv,
    /// VPCE208: a handshake half orphaned by a finished peer.
    OrphanedSend,
    /// VPCE209: more ranks than the explorer tracks; nothing explored.
    RankLimit,
    /// VPCE210: progress depends on the eager pool being large enough.
    PoolConditional,
}

impl DiagCode for VerifyCode {
    fn as_str(self) -> &'static str {
        match self {
            VerifyCode::Deadlock => "VPCE201",
            VerifyCode::SyncMismatch => "VPCE202",
            VerifyCode::RendezvousCycle => "VPCE203",
            VerifyCode::PoolExhaustion => "VPCE204",
            VerifyCode::OrphanedHandshake => "VPCE205",
            VerifyCode::ReservationDeadlock => "VPCE206",
            VerifyCode::UnmatchedRecv => "VPCE207",
            VerifyCode::OrphanedSend => "VPCE208",
            VerifyCode::RankLimit => "VPCE209",
            VerifyCode::PoolConditional => "VPCE210",
        }
    }

    fn severity(self) -> Severity {
        match self {
            VerifyCode::PoolConditional => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// The verifier's state budget: exploration past it returns
/// `truncated` and a clean result becomes inconclusive.
pub const MAX_STATES: usize = 200_000;

/// Verifier knobs.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Treat the registered eager pool as a hard capacity: a put with
    /// no free slot *blocks* (VPCE204) instead of falling back to
    /// rendezvous (VPCE210 warning). Models runtimes without a
    /// fallback path.
    pub strict_pools: bool,
}

/// One blocked rank of the counterexample's stall, with its code.
#[derive(Debug, Clone)]
pub struct BlockedRank {
    pub rank: usize,
    pub op: Op,
    pub line: usize,
    pub site: &'static str,
    pub cause: String,
    /// The per-rank classification; `None` when only the VPCE201
    /// headline covers it (e.g. a plain receive wait cycle).
    pub code: Option<VerifyCode>,
}

/// A minimal interleaving that stalls, plus the stall itself.
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub nranks: usize,
    pub steps: Vec<TraceStep>,
    pub blocked: Vec<BlockedRank>,
}

impl Counterexample {
    /// Terminal rendering, appended below the diagnostic list.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "counterexample (minimal interleaving, {} step(s)):",
            self.steps.len()
        );
        for (i, s) in self.steps.iter().enumerate() {
            let who = match s.rank {
                Some(r) => format!("rank {r}"),
                None => "all".to_string(),
            };
            let _ = write!(out, "  {:>3}. {who}: {}", i + 1, s.act.op.describe());
            if !s.act.site.is_empty() {
                let _ = write!(out, " [{}]", s.act.site);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "stalled after step {}:", self.steps.len());
        for b in &self.blocked {
            let _ = write!(out, "  rank {}: {}", b.rank, b.op.describe());
            if !b.site.is_empty() {
                let _ = write!(out, " [{}]", b.site);
            }
            let _ = write!(out, " -- {}", b.cause);
            if let Some(c) = b.code {
                let _ = write!(out, " [{}]", c.as_str());
            }
            out.push('\n');
        }
        out
    }

    /// Write the counterexample's members into `o` (the report's
    /// `"counterexample"` object).
    fn write_json(&self, o: &mut Object<'_>) {
        o.int("nranks", self.nranks);
        {
            let mut steps = o.array("steps", Layout::Block(6));
            for s in &self.steps {
                let mut j = steps.object(Layout::Inline);
                match s.rank {
                    Some(r) => j.int("rank", r),
                    None => j.str("rank", "all"),
                };
                j.str("op", &s.act.op.describe())
                    .int("line", s.act.line)
                    .str("site", s.act.site);
            }
        }
        let mut blocked = o.array("blocked", Layout::Block(6));
        for b in &self.blocked {
            blocked
                .object(Layout::Inline)
                .int("rank", b.rank)
                .str("op", &b.op.describe())
                .int("line", b.line)
                .str("site", b.site)
                .opt("code", b.code.map(VerifyCode::as_str), Object::str)
                .str("cause", &b.cause);
        }
    }

    /// Render the interleaving as a `vpce-trace` timeline: one lane
    /// per rank, step `i` drawn as the span `[i, i+1)`, the stall's
    /// blocked operations as trailing phase spans. Exportable through
    /// the usual chrome-trace path.
    pub fn timeline(&self) -> Tracer {
        let tr = Tracer::enabled();
        for r in 0..self.nranks {
            tr.register_lane(Lane::Rank(r), format!("rank {r}"));
        }
        let sync_call = |k: SyncKind| {
            EventKind::Call(CallInfo::new(match k {
                SyncKind::Fence => CallOp::Fence,
                SyncKind::Barrier => CallOp::Barrier,
                SyncKind::Bcast => CallOp::Bcast,
                SyncKind::Reduce => CallOp::Reduce,
            }))
        };
        for (i, s) in self.steps.iter().enumerate() {
            let (t0, t1) = (i as f64, (i + 1) as f64);
            match (&s.act.op, s.rank) {
                (Op::Sync(k), _) => {
                    for r in 0..self.nranks {
                        tr.push(Lane::Rank(r), t0, t1, sync_call(*k));
                    }
                }
                (op, Some(r)) => {
                    let kind = match op {
                        Op::Sync(_) => unreachable!(),
                        Op::EagerPut { bytes, .. } => EventKind::EagerCopy {
                            rank: r,
                            bytes: *bytes as u64,
                            slot: 0,
                        },
                        Op::RdvzPut { to, bytes } => EventKind::RendezvousHandshake {
                            origin: r,
                            target: *to,
                            bytes: *bytes as u64,
                        },
                        Op::RdvzSend { to, .. } => EventKind::RendezvousHandshake {
                            origin: r,
                            target: *to,
                            bytes: 0,
                        },
                        Op::RdvzRecv { from, .. } => EventKind::RendezvousHandshake {
                            origin: *from,
                            target: r,
                            bytes: 0,
                        },
                        Op::Get { .. } => EventKind::Call(CallInfo::new(CallOp::Get)),
                        Op::Send { .. } => EventKind::Call(CallInfo::new(CallOp::Send)),
                        Op::Recv { .. } => EventKind::Call(CallInfo::new(CallOp::Recv)),
                        Op::Acquire { .. } | Op::Release { .. } | Op::Crash => {
                            EventKind::Phase {
                                name: op.describe(),
                            }
                        }
                    };
                    tr.push(Lane::Rank(r), t0, t1, kind);
                }
                (_, None) => {}
            }
        }
        let t0 = self.steps.len() as f64;
        for b in &self.blocked {
            tr.push(
                Lane::Rank(b.rank),
                t0,
                t0 + 1.0,
                EventKind::Phase {
                    name: format!("stalled: {}", b.op.describe()),
                },
            );
        }
        tr
    }
}

/// The full verifier result: the shared diagnostic report plus the
/// counterexample and exploration statistics.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    pub report: Report<VerifyCode>,
    pub counterexample: Option<Counterexample>,
    /// Distinct states explored.
    pub states: usize,
    /// State budget exhausted: a clean result is inconclusive.
    pub truncated: bool,
}

impl VerifyReport {
    pub fn exit_code(&self) -> i32 {
        self.report.exit_code()
    }

    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    pub fn render_human(&self) -> String {
        let mut out = self.report.render_human();
        if let Some(cx) = &self.counterexample {
            out.push_str(&cx.render_text());
        }
        if self.truncated {
            let _ = writeln!(
                out,
                "verify: note: state budget exhausted after {} state(s); a clean result is inconclusive",
                self.states
            );
        }
        out
    }

    pub fn to_json(&self) -> String {
        self.report.to_json_with(|o| {
            if let Some(cx) = &self.counterexample {
                cx.write_json(&mut o.object("counterexample", Layout::Block(4)));
            }
            o.object("explored", Layout::Inline)
                .int("states", self.states)
                .bool("truncated", self.truncated);
        })
    }
}

fn cause_text(c: &Cause) -> String {
    match c {
        Cause::PeerCrashed { peer } => format!("rank {peer} crashed"),
        Cause::PeerFinished { peer } => format!("rank {peer} finished without matching"),
        Cause::PeerDiverged { peer, at } => format!("rank {peer} is at {at}"),
        Cause::WaitCycle { peer } => {
            format!("waiting on rank {peer}, which is itself blocked")
        }
        Cause::PoolExhausted { used, slots } => format!(
            "all {slots} registered slot(s) pinned until the next fence ({used} in use)"
        ),
        Cause::ResourceSaturated { used, cap, need } => format!(
            "needs {need} unit(s) of a resource with capacity {cap}, {used} reserved and never released"
        ),
    }
}

/// The per-rank classification (None = only the headline applies).
fn code_for(b: &Blocked) -> Option<VerifyCode> {
    match (&b.act.op, &b.cause) {
        (_, Cause::PeerCrashed { .. }) => Some(VerifyCode::OrphanedHandshake),
        (Op::Sync(_), _) => Some(VerifyCode::SyncMismatch),
        (Op::Recv { .. }, Cause::PeerFinished { .. }) => Some(VerifyCode::UnmatchedRecv),
        (Op::Recv { .. }, _) => None,
        (Op::RdvzRecv { .. }, Cause::PeerFinished { .. }) => Some(VerifyCode::UnmatchedRecv),
        (Op::RdvzSend { .. }, Cause::PeerFinished { .. }) => Some(VerifyCode::OrphanedSend),
        (Op::RdvzRecv { .. } | Op::RdvzSend { .. }, Cause::WaitCycle { .. }) => {
            Some(VerifyCode::RendezvousCycle)
        }
        (Op::EagerPut { .. }, _) => Some(VerifyCode::PoolExhaustion),
        (Op::Acquire { .. }, _) => Some(VerifyCode::ReservationDeadlock),
        _ => None,
    }
}

fn peer_of(c: &Cause) -> Option<usize> {
    match c {
        Cause::PeerCrashed { peer }
        | Cause::PeerFinished { peer }
        | Cause::PeerDiverged { peer, .. }
        | Cause::WaitCycle { peer } => Some(*peer),
        _ => None,
    }
}

/// Verify a hand-built skeleton (the test and differential-suite entry
/// point; [`verify`] lowers a program and calls this), or refuse one of
/// more than 32 ranks.
pub fn verify_skeleton(sk: &Skeleton, opts: &VerifyOptions) -> Result<VerifyReport, RankLimit> {
    let result = explore(sk, opts.strict_pools, MAX_STATES)?;
    Ok(verify_report(sk, opts, result))
}

/// The report of one exploration of `sk`.
fn verify_report(sk: &Skeleton, opts: &VerifyOptions, result: ExploreResult) -> VerifyReport {
    let mut report = Report::new("verify", "clean (no stalling interleaving)", &sk.program);

    // Pool-pressure warning: without strict pools the runtime falls
    // back to rendezvous when the pool is dry, so the plan progresses
    // — but only because that escape hatch exists.
    if !opts.strict_pools {
        for (r, &(hwm, line)) in result.pool_epoch_hwm.iter().enumerate() {
            if hwm > sk.pool_slots {
                let mut d = Diagnostic::bare(VerifyCode::PoolConditional);
                d.ranks = (r, r);
                d.line = line;
                d.site = "pool".into();
                d.detail = format!(
                    "progress depends on eager pool size >= {hwm}: rank {r} issues {hwm} \
                     eager put(s) in one fence epoch but only {} slot(s) are registered \
                     (runtime falls back to rendezvous)",
                    sk.pool_slots
                );
                report.push(d);
            }
        }
    }

    let counterexample = result.stall.as_ref().map(|stall| {
        // Headline: the deadlock itself.
        let mut head = Diagnostic::bare(VerifyCode::Deadlock);
        head.site = "explore".into();
        head.detail = format!(
            "a schedule of {} rank(s) reaches a global stall after {} step(s); {} rank(s) blocked",
            sk.nranks,
            stall.steps.len(),
            stall.blocked.len()
        );
        report.push(head);

        // Per-rank classification. Rendezvous wait cycles collapse
        // into one VPCE203 naming the cycle.
        let mut cycle: Vec<&Blocked> = Vec::new();
        for b in &stall.blocked {
            let code = code_for(b);
            if code == Some(VerifyCode::RendezvousCycle) {
                cycle.push(b);
                continue;
            }
            if let Some(code) = code {
                let mut d = Diagnostic::bare(code);
                d.line = b.act.line;
                d.site = b.act.site.to_string();
                d.ranks = match peer_of(&b.cause) {
                    Some(p) => (b.rank.min(p), b.rank.max(p)),
                    None => (b.rank, b.rank),
                };
                d.detail = format!(
                    "rank {} blocked at {}: {}",
                    b.rank,
                    b.act.op.describe(),
                    cause_text(&b.cause)
                );
                report.push(d);
            }
        }
        if !cycle.is_empty() {
            let mut d = Diagnostic::bare(VerifyCode::RendezvousCycle);
            d.line = cycle[0].act.line;
            d.site = cycle[0].act.site.to_string();
            let lo = cycle.iter().map(|b| b.rank).min().unwrap_or(usize::MAX);
            let hi = cycle.iter().map(|b| b.rank).max().unwrap_or(usize::MAX);
            d.ranks = (lo, hi);
            d.detail = format!(
                "rendezvous wait cycle: {}",
                cycle
                    .iter()
                    .map(|b| format!("rank {} at {}", b.rank, b.act.op.describe()))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            report.push(d);
        }

        Counterexample {
            nranks: sk.nranks,
            steps: stall.steps.clone(),
            blocked: stall
                .blocked
                .iter()
                .map(|b| BlockedRank {
                    rank: b.rank,
                    op: b.act.op.clone(),
                    line: b.act.line,
                    site: b.act.site,
                    cause: cause_text(&b.cause),
                    code: code_for(b),
                })
                .collect(),
        }
    });

    report.sort();
    VerifyReport {
        report,
        counterexample,
        states: result.states,
        truncated: result.truncated,
    }
}

/// Verify a compiled program: lower it under `policy` and the crash
/// schedule of `faults`, then explore. Never executes the program.
///
/// # Panics
/// Panics with the refusal's text where [`try_verify`] returns one.
pub fn verify(
    prog: &SpmdProgram,
    policy: &TransportPolicy,
    faults: &FaultSpec,
    opts: &VerifyOptions,
) -> VerifyReport {
    try_verify(prog, policy, faults, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`verify`]: a plan of more than 32 ranks is refused
/// (VPCE209) before anything is explored.
pub fn try_verify(
    prog: &SpmdProgram,
    policy: &TransportPolicy,
    faults: &FaultSpec,
    opts: &VerifyOptions,
) -> Result<VerifyReport, RankLimit> {
    let sk = lower(prog, policy, faults);
    verify_skeleton(&sk, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeleton::{Op, Skeleton, SyncKind};

    fn codes(r: &VerifyReport) -> Vec<&'static str> {
        r.report.diags.iter().map(|d| d.code.as_str()).collect()
    }

    fn opts() -> VerifyOptions {
        VerifyOptions::default()
    }

    #[test]
    fn matched_skeleton_is_clean() {
        let mut sk = Skeleton::new("t", 2);
        sk.sync_all(SyncKind::Barrier, 1, &[true, true]);
        sk.push(0, Op::Send { to: 1, tag: 0 }, 1, "p2p");
        sk.push(1, Op::Recv { from: 0, tag: 0 }, 1, "p2p");
        sk.sync_all(SyncKind::Fence, 1, &[true, true]);
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert!(r.is_clean(), "{}", r.render_human());
        assert_eq!(r.exit_code(), 0);
        assert!(!r.truncated);
    }

    #[test]
    fn an_exhausted_state_budget_is_an_inconclusive_verdict() {
        let mut sk = Skeleton::new("t", 2);
        sk.sync_all(SyncKind::Barrier, 1, &[true, true]);
        sk.push(0, Op::Send { to: 1, tag: 0 }, 1, "p2p");
        sk.push(1, Op::Recv { from: 0, tag: 0 }, 1, "p2p");
        let result = explore(&sk, false, 1).unwrap();
        assert!(result.truncated && result.stall.is_none());
        let r = verify_report(&sk, &opts(), result);
        assert!(r.truncated && r.is_clean(), "{}", r.render_human());
        assert!(r.render_human().contains("a clean result is inconclusive"));
        assert!(
            r.to_json().contains("\"truncated\": true"),
            "{}",
            r.to_json()
        );
        // The constant budget explores this skeleton to the end.
        assert!(!verify_skeleton(&sk, &opts()).unwrap().truncated);
    }

    #[test]
    fn sync_kind_mismatch_is_vpce202() {
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::Sync(SyncKind::Barrier), 3, "sync");
        sk.push(1, Op::Sync(SyncKind::Fence), 3, "sync");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert_eq!(r.exit_code(), 2);
        let cs = codes(&r);
        assert!(cs.contains(&"VPCE201") && cs.contains(&"VPCE202"), "{cs:?}");
        let cx = r.counterexample.expect("counterexample");
        assert_eq!(cx.steps.len(), 0); // stuck in the initial state
        assert_eq!(cx.blocked.len(), 2);
    }

    #[test]
    fn recv_recv_cycle_is_headline_only() {
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::Recv { from: 1, tag: 0 }, 1, "p2p");
        sk.push(0, Op::Send { to: 1, tag: 0 }, 1, "p2p");
        sk.push(1, Op::Recv { from: 0, tag: 0 }, 1, "p2p");
        sk.push(1, Op::Send { to: 0, tag: 0 }, 1, "p2p");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert_eq!(codes(&r), vec!["VPCE201"]);
        // Both ranks appear in the stall, cross-referencing each other.
        let cx = r.counterexample.expect("counterexample");
        assert_eq!(cx.blocked.len(), 2);
        assert!(cx.blocked.iter().all(|b| b.code.is_none()));
    }

    #[test]
    fn unmatched_recv_is_vpce207() {
        let mut sk = Skeleton::new("t", 2);
        sk.push(1, Op::Recv { from: 0, tag: 7 }, 2, "p2p");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        let cs = codes(&r);
        assert!(cs.contains(&"VPCE207"), "{cs:?}");
    }

    #[test]
    fn crossed_rendezvous_handshakes_are_vpce203() {
        // Both ranks send first: each RTS waits on a CTS that can only
        // be produced after the *other* rank's RTS completes.
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::RdvzSend { to: 1, hs: 0 }, 4, "rdvz");
        sk.push(0, Op::RdvzRecv { from: 1, hs: 1 }, 4, "rdvz");
        sk.push(1, Op::RdvzSend { to: 0, hs: 1 }, 4, "rdvz");
        sk.push(1, Op::RdvzRecv { from: 0, hs: 0 }, 4, "rdvz");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        let cs = codes(&r);
        assert!(cs.contains(&"VPCE203"), "{cs:?}");
        // One cycle diagnostic, not one per participant.
        assert_eq!(cs.iter().filter(|c| **c == "VPCE203").count(), 1);
    }

    #[test]
    fn nominal_rendezvous_handshake_is_clean() {
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::RdvzSend { to: 1, hs: 0 }, 4, "rdvz");
        sk.push(1, Op::RdvzRecv { from: 0, hs: 0 }, 4, "rdvz");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn crash_mid_rendezvous_is_vpce205() {
        // The chaos satellite, statically: the receiver dies before
        // accepting the handshake; the sender's RTS is orphaned.
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::RdvzSend { to: 1, hs: 0 }, 9, "rdvz");
        sk.push(1, Op::Crash, 9, "crash");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        let cs = codes(&r);
        assert!(cs.contains(&"VPCE205"), "{cs:?}");
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn crashed_rank_orphans_the_barrier_with_vpce205() {
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::Sync(SyncKind::Barrier), 1, "sync");
        sk.push(1, Op::Crash, 1, "crash");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert!(codes(&r).contains(&"VPCE205"), "{:?}", codes(&r));
    }

    #[test]
    fn strict_pool_exhaustion_is_vpce204() {
        let mut sk = Skeleton::new("t", 2);
        sk.pool_slots = 2;
        for _ in 0..3 {
            sk.push(0, Op::EagerPut { to: 1, bytes: 64 }, 5, "scatter");
        }
        sk.sync_all(SyncKind::Fence, 5, &[true, true]);
        let strict = VerifyOptions { strict_pools: true };
        let r = verify_skeleton(&sk, &strict).unwrap();
        assert!(codes(&r).contains(&"VPCE204"), "{:?}", codes(&r));
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn lax_pool_exhaustion_is_vpce210_warning() {
        let mut sk = Skeleton::new("t", 2);
        sk.pool_slots = 2;
        for _ in 0..3 {
            sk.push(0, Op::EagerPut { to: 1, bytes: 64 }, 5, "scatter");
        }
        sk.sync_all(SyncKind::Fence, 5, &[true, true]);
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert_eq!(codes(&r), vec!["VPCE210"]);
        assert_eq!(r.exit_code(), 1);
        assert!(r.counterexample.is_none());
        // The fence resets the epoch: the same pressure spread across
        // two epochs is silent.
        let mut ok = Skeleton::new("t", 2);
        ok.pool_slots = 2;
        for _ in 0..2 {
            ok.push(0, Op::EagerPut { to: 1, bytes: 64 }, 5, "scatter");
        }
        ok.sync_all(SyncKind::Fence, 5, &[true, true]);
        for _ in 0..2 {
            ok.push(0, Op::EagerPut { to: 1, bytes: 64 }, 6, "scatter");
        }
        ok.sync_all(SyncKind::Fence, 6, &[true, true]);
        assert!(verify_skeleton(&ok, &opts()).unwrap().is_clean());
    }

    #[test]
    fn reservation_cycle_is_vpce206() {
        // Two ranks each hold one unit of a 2-unit resource and want a
        // second: neither can proceed, neither will release.
        let mut sk = Skeleton::new("t", 2);
        sk.resources = vec![2];
        for r in 0..2 {
            sk.push(r, Op::Acquire { res: 0, n: 1 }, 8, "sched");
            sk.push(r, Op::Acquire { res: 0, n: 1 }, 8, "sched");
            sk.push(r, Op::Release { res: 0, n: 2 }, 8, "sched");
        }
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert!(codes(&r).contains(&"VPCE206"), "{:?}", codes(&r));
    }

    #[test]
    fn reservation_with_enough_capacity_is_clean() {
        let mut sk = Skeleton::new("t", 2);
        sk.resources = vec![4];
        for r in 0..2 {
            sk.push(r, Op::Acquire { res: 0, n: 2 }, 8, "sched");
            sk.push(r, Op::Release { res: 0, n: 2 }, 8, "sched");
        }
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn orphaned_send_half_is_vpce208() {
        // The receiver runs to completion without ever owning the
        // matching accept half: the RTS can never be answered.
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::RdvzSend { to: 1, hs: 3 }, 2, "rdvz");
        sk.push(1, Op::Send { to: 0, tag: 5 }, 2, "p2p");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        assert!(codes(&r).contains(&"VPCE208"), "{:?}", codes(&r));
    }

    #[test]
    fn counterexample_json_and_timeline_are_consistent() {
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::Send { to: 1, tag: 0 }, 1, "p2p");
        sk.push(0, Op::Sync(SyncKind::Barrier), 1, "sync");
        sk.push(1, Op::Recv { from: 0, tag: 0 }, 1, "p2p");
        sk.push(1, Op::Sync(SyncKind::Fence), 1, "sync");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        let cx = r.counterexample.as_ref().expect("counterexample");
        let json = r.to_json();
        assert!(json.contains("\"counterexample\""), "{json}");
        assert!(json.contains("\"explored\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The timeline replays every step (syncs fan out to all lanes)
        // plus one stalled span per blocked rank.
        let tr = cx.timeline();
        let spans = tr.events().len();
        assert!(spans >= cx.steps.len() + cx.blocked.len(), "{spans}");
        let chrome = tr.to_chrome_json();
        assert!(chrome.contains("rank 0") && chrome.contains("rank 1"));
    }

    #[test]
    fn minimality_prefix_runs_before_the_stall() {
        // The send and the matching receive can complete; the stall
        // (rank 0's unmatched receive) appears right after. BFS must
        // find a shortest schedule, not a wandering one.
        let mut sk = Skeleton::new("t", 2);
        sk.push(0, Op::Send { to: 1, tag: 0 }, 1, "p2p");
        sk.push(0, Op::Recv { from: 1, tag: 9 }, 1, "p2p");
        sk.push(1, Op::Recv { from: 0, tag: 0 }, 1, "p2p");
        let r = verify_skeleton(&sk, &opts()).unwrap();
        let cx = r.counterexample.expect("counterexample");
        assert!(cx.steps.len() <= 2, "{}", cx.render_text());
    }
}
